//! A peer that pipelines requests and never reads its replies costs the
//! server a bounded amount of memory: once a connection's unsent replies
//! pass a fixed byte cap, the server stops decoding and reading its
//! requests, and the rest of the burst waits in the peer's socket.
//!
//! The test reads this process's resident set, so this file holds one
//! test and runs in a process of its own.

use a4nn_core::prelude::*;
use a4nn_net::encode;
use a4nn_serve::{ModelRepo, ServeClient, ServeConfig, ServeRequest, ServeServer};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn repo() -> ModelRepo {
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
    let commons = A4nnWorkflow::new(cfg)
        .run(&factory, RunOptions::default())
        .expect("in-process surrogate search")
        .commons;
    ModelRepo::from_commons(&commons, None).expect("search run must yield a servable front")
}

/// This process's resident set, KiB.
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .expect("a VmRSS line in /proc/self/status")
}

/// 60 000 `Models` requests in one write, none of their replies read:
/// the serving process grows by less than `BOUND_KIB`, where an
/// uncapped write queue holds every reply (about 17 MiB on this
/// fixture), and a second client is still served.
#[test]
fn a_peer_that_never_reads_its_replies_is_held_by_flow_control() {
    const FRAMES: usize = 60_000;
    const BOUND_KIB: u64 = 4 * 1024;
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        repo(),
        ServeConfig::default(),
        Arc::new(MetricsRegistry::new()),
        2,
    )
    .expect("spawning the in-process serve endpoint");
    let addr = handle.addr().to_string();

    let frame = encode(&ServeRequest::Models).expect("encoding Models");
    let burst: Vec<u8> = frame.repeat(FRAMES);
    let before = rss_kib();

    // The burst may not fit in the kernel's socket buffers once the
    // server stops reading, so the write gives up after a while instead
    // of blocking forever; either way the peer never reads.
    let mut greedy = TcpStream::connect(&addr).expect("greedy client connects");
    greedy
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("setting the write timeout");
    match greedy.write_all(&burst) {
        Ok(()) => {}
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "writing the burst: {e}"
        ),
    }

    // A round trip on a second connection takes the event loop through
    // at least two more wakeups, each of which would read whatever of
    // the burst is readable and not held back.
    let mut client = ServeClient::connect(&addr).expect("second client connects");
    let menu = client.models().expect("menu beside the greedy peer");
    let grown = rss_kib().saturating_sub(before);
    assert!(
        grown < BOUND_KIB,
        "the serving process grew by {grown} KiB for one peer's unread replies"
    );

    let default = menu
        .iter()
        .find(|m| m.default)
        .expect("a served front has a default model");
    let len = default.input_channels * 8 * 8;
    let answer = client
        .classify(None, default.input_channels, 8, 8, vec![0.25; len])
        .expect("classification beside the greedy peer");
    assert_eq!(answer.logits.len(), default.num_classes);
    client.goodbye().expect("clean goodbye");
    drop(greedy);
    handle.join().expect("server drains its session budget");
}
