//! The metrics sink: a server with `metrics_out` set leaves its registry
//! on disk when it finishes, written atomically, as a `MetricsSnapshot`
//! that holds every request the session made.

use a4nn_metrics::{names, MetricsRegistry, MetricsSnapshot};
use a4nn_serve::{ModelRepo, ServeClient, ServeConfig, ServeServer};
use std::path::PathBuf;
use std::sync::Arc;

#[test]
fn a_finished_server_leaves_its_metrics_on_disk() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy_commons");
    let repo = ModelRepo::load(&fixture).expect("the fixture commons loads");
    let channels = repo.infos()[0].input_channels;
    let dir = std::env::temp_dir().join(format!("a4nn-metrics-sink-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_metrics.json");
    let cfg = ServeConfig {
        metrics_out: Some(path.clone()),
        ..ServeConfig::default()
    };
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        repo,
        cfg,
        Arc::new(MetricsRegistry::new()),
        1,
    )
    .expect("spawning the in-process serve endpoint");

    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    for i in 0..3 {
        let pixels = vec![0.25 * i as f32; channels * 8 * 8];
        client.classify(None, channels, 8, 8, pixels).unwrap();
    }
    client.goodbye().unwrap();
    handle.join().expect("server drains its one session");

    let bytes = std::fs::read(&path).expect("the sink wrote the metrics file");
    let snapshot = MetricsSnapshot::from_json(&bytes).expect("the file is a metrics snapshot");
    assert_eq!(snapshot.counter(names::SERVE_REQUESTS), 3);
    std::fs::remove_dir_all(&dir).ok();
}
