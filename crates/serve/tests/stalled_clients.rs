//! How connections end. A client that stalls mid-frame is disconnected
//! at the idle deadline, and while it stalls it never blocks service to
//! healthy connections; a Goodbye closes the connection at once, not at
//! that deadline.
//!
//! The stalled client sends *half* a frame and then goes silent — the
//! worst case for a server, because the connection is mid-parse: a
//! blocking reader would sit in `read` forever, and a naive reactor
//! would keep the registration alive with no way to make progress.

use a4nn_core::prelude::*;
use a4nn_metrics::names;
use a4nn_net::encode;
use a4nn_serve::{ModelRepo, ServeClient, ServeConfig, ServeRequest, ServeServer};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn commons() -> &'static DataCommons {
    static COMMONS: OnceLock<DataCommons> = OnceLock::new();
    COMMONS.get_or_init(|| {
        let cfg = WorkflowConfig {
            nas: NasSettings {
                population: 4,
                offspring: 4,
                generations: 1,
                ..NasSettings::paper_defaults()
            },
            engine: Some(EngineConfig::paper_defaults()),
            gpus: 1,
            beam: BeamIntensity::Low,
            seed: 2023,
            objectives: a4nn_core::ObjectiveSet::default(),
            trainer: a4nn_core::TrainerSpec::Surrogate,
        };
        let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
        A4nnWorkflow::new(cfg)
            .run(&factory, RunOptions::default())
            .expect("in-process surrogate search")
            .commons
    })
}

fn repo() -> ModelRepo {
    ModelRepo::from_commons(commons(), None).expect("search run must yield a servable front")
}

/// An idle timeout of zero would close every connection on the first
/// sweep, so the server refuses it before binding, as a config error.
#[test]
fn a_zero_idle_timeout_is_refused_at_bind() {
    let cfg = ServeConfig {
        idle_timeout: Duration::ZERO,
        ..ServeConfig::default()
    };
    let err = match ServeServer::bind("127.0.0.1:0", repo(), cfg, Arc::new(MetricsRegistry::new()))
    {
        Ok(_) => panic!("a zero idle timeout must be refused"),
        Err(e) => e,
    };
    assert!(matches!(err, A4nnError::Config(_)), "{err}");
    assert_eq!(err.exit_code(), 3);
}

/// Stall a connection with half a frame on the wire; serve a healthy
/// client meanwhile; require the healthy answer promptly and the
/// stalled socket closed at the deadline.
#[test]
fn stalled_client_is_reaped_without_blocking_others() {
    const IDLE: Duration = Duration::from_millis(400);
    let serving = repo();
    let metrics = Arc::new(MetricsRegistry::new());
    let cfg = ServeConfig {
        idle_timeout: IDLE,
        ..ServeConfig::default()
    };
    // Session budget 2: the stalled connection and the healthy one.
    let handle = ServeServer::spawn("127.0.0.1:0", serving, cfg, metrics, 2)
        .expect("spawning the in-process serve endpoint");
    let addr = handle.addr().to_string();

    // The stalled client: half a Models frame, then silence.
    let mut stalled = TcpStream::connect(&addr).expect("stalled client connects");
    let frame = encode(&ServeRequest::Models).expect("encoding Models");
    stalled
        .write_all(&frame[..frame.len() / 2])
        .expect("sending the partial frame");
    stalled.flush().expect("flushing the partial frame");

    // The healthy client, with the stall already in progress: full
    // service, promptly — the stalled peer costs it nothing.
    let healthy_started = Instant::now();
    let mut client = ServeClient::connect(&addr).expect("healthy client connects");
    let menu = client.models().expect("menu while another client stalls");
    let default = menu
        .iter()
        .find(|m| m.default)
        .expect("a served front has a default model");
    let len = default.input_channels * 8 * 8;
    let answer = client
        .classify(None, default.input_channels, 8, 8, vec![0.25; len])
        .expect("classification while another client stalls");
    assert_eq!(answer.logits.len(), default.num_classes);
    let healthy_elapsed = healthy_started.elapsed();
    assert!(
        healthy_elapsed < IDLE,
        "the healthy client waited {healthy_elapsed:?} — it was blocked \
         behind the stalled one"
    );
    client.goodbye().expect("clean goodbye");

    // The server must close the stalled connection at the idle
    // deadline: its socket reaches EOF without us ever completing the
    // frame.
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("setting the probe timeout");
    let reap_started = Instant::now();
    let mut probe = [0u8; 16];
    let n = stalled
        .read(&mut probe)
        .expect("the server closes the socket rather than leaving it hanging");
    assert_eq!(n, 0, "expected EOF on the stalled socket, got {n} byte(s)");
    let reaped_after = reap_started.elapsed();
    assert!(
        reaped_after < Duration::from_secs(20),
        "the stalled connection outlived the idle deadline by {reaped_after:?}"
    );

    // Both sessions count against the budget, so the server exits.
    handle.join().expect("server drains its session budget");
}

/// A Goodbye asks for close-after-flush with nothing queued to flush.
/// The reactor used to wait for a write that never came: the closing
/// connection stayed registered for hang-up only, its event fired on
/// every `epoll_wait` once the peer left, and only the idle deadline
/// reaped it — a `--sessions 1` server outlived its client by the whole
/// timeout, spinning a core.
#[test]
fn reactor_closes_on_goodbye_without_waiting_for_the_idle_deadline() {
    const SESSIONS: usize = 8;
    let metrics = Arc::new(MetricsRegistry::new());
    let cfg = ServeConfig {
        idle_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let handle = ServeServer::spawn("127.0.0.1:0", repo(), cfg, metrics.clone(), SESSIONS)
        .expect("spawning the in-process serve endpoint");
    let addr = handle.addr().to_string();
    for _ in 0..SESSIONS {
        let client = ServeClient::connect(&addr).expect("client connects");
        client.goodbye().expect("clean goodbye");
    }
    let goodbyes_sent = Instant::now();
    handle.join().expect("server drains its session budget");
    let drained_after = goodbyes_sent.elapsed();
    assert!(
        drained_after < Duration::from_secs(5),
        "the server took {drained_after:?} to return after the last Goodbye"
    );
    let snapshot = metrics.snapshot();
    assert_eq!(
        snapshot.counter(names::REACTOR_CONNS_OPENED),
        SESSIONS as u64
    );
    assert_eq!(
        snapshot.counter(names::REACTOR_CONNS_CLOSED),
        snapshot.counter(names::REACTOR_CONNS_OPENED)
    );
    assert_eq!(
        snapshot.counter(names::REACTOR_IDLE_CLOSED),
        0,
        "no connection may be left for the idle deadline to reap"
    );
}
