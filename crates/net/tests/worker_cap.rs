//! A worker runs at most the jobs its `Welcome` advertised: a second job
//! sent to a 1-GPU worker while the first is still training ends the
//! session instead of spawning another trainer thread.

use a4nn_core::prelude::*;
use a4nn_net::{read_message, write_message, Message, WorkerServer, PROTOCOL_VERSION};
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn a_job_beyond_the_advertised_gpus_ends_the_session() {
    let worker = WorkerServer::spawn("127.0.0.1:0", 1, 1).unwrap();
    let stream = TcpStream::connect(worker.addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();

    write_message(
        &mut &stream,
        &Message::Hello {
            version: PROTOCOL_VERSION,
        },
    )
    .unwrap();
    match read_message::<_, Message>(&mut reader).unwrap() {
        Some(Message::Welcome { gpus: 1, .. }) => {}
        other => panic!("expected a 1-GPU Welcome, got {other:?}"),
    }

    let config = WorkflowConfig::a4nn(BeamIntensity::Medium, 1, 7);
    // Hold job 0 on the worker while job 1 arrives.
    let plan = FaultPlan::new(vec![FaultEvent::StallFor {
        model: 0,
        epoch: 1,
        millis: 300,
    }]);
    write_message(
        &mut &stream,
        &Message::RunSetup {
            config: config.clone(),
            retry: RetryPolicy::with_retries(0),
            plan,
            heartbeat_interval_ms: 50,
        },
    )
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for model_id in 0..2 {
        write_message(
            &mut &stream,
            &Message::Job {
                model_id,
                generation: 0,
                dispatch_attempt: 1,
                genome: config.search_space().random_genome(&mut rng),
            },
        )
        .unwrap();
    }

    // Job 0 is answered, job 1 never is, and the worker then closes.
    // A worker that accepted job 1 would keep the session open waiting
    // for more, heartbeating; fail instead of hanging.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut answered = Vec::new();
    loop {
        assert!(
            Instant::now() < deadline,
            "the session stayed open; answered {answered:?}"
        );
        match read_message::<_, Message>(&mut reader) {
            Ok(Some(Message::JobDone { model_id, .. })) => answered.push(model_id),
            Ok(Some(Message::Heartbeat)) => {}
            Ok(None) => break,
            other => panic!("expected JobDone, Heartbeat or a close, got {other:?}"),
        }
    }
    assert_eq!(answered, vec![0]);
    drop(stream);
    worker.join().unwrap();
}
