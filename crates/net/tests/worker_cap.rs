//! A worker runs at most the jobs its `Welcome` advertised: a second job
//! sent to a 1-GPU worker while the first is still training ends the
//! session instead of spawning another trainer thread. A session whose
//! trainer cannot be built ends too, and so does one whose first frame
//! carries a foreign protocol revision; either way the worker serves the
//! next.

use a4nn_core::prelude::*;
use a4nn_net::{read_message, write_message, Message, WorkerHandle, WorkerServer};
use rand::SeedableRng;
use std::net::TcpStream;
use std::time::{Duration, Instant};

#[test]
fn a_job_beyond_the_advertised_gpus_ends_the_session() {
    let worker = WorkerServer::spawn("127.0.0.1:0", 1, 1).unwrap();
    let stream = TcpStream::connect(worker.addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();

    match read_message::<_, Message>(&mut reader).unwrap() {
        Some(Message::Welcome { gpus: 1 }) => {}
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

/// Open a session on `worker` and ship `config`: returns the stream and
/// its reader once the worker has welcomed it.
fn set_up(worker: &WorkerHandle, config: &WorkflowConfig) -> (TcpStream, TcpStream) {
    let stream = TcpStream::connect(worker.addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();
    assert!(matches!(
        read_message::<_, Message>(&mut reader).unwrap(),
        Some(Message::Welcome { .. })
    ));
    write_message(
        &mut &stream,
        &Message::RunSetup {
            config: config.clone(),
            retry: RetryPolicy::with_retries(0),
            plan: FaultPlan::none(),
            heartbeat_interval_ms: 50,
        },
    )
    .unwrap();
    (stream, reader)
}

/// A `RunSetup` whose trainer cannot be built — a real trainer with one
/// image per class — ends only its own session: the worker closes it
/// without training or panicking, and trains the next session's job.
#[test]
fn a_bad_trainer_ends_only_its_session() {
    let worker = WorkerServer::spawn("127.0.0.1:0", 1, 2).unwrap();
    let mut config = WorkflowConfig::a4nn(BeamIntensity::Medium, 1, 7);
    config.trainer = TrainerSpec::Real {
        images: 1,
        xfel: XfelConfig::default(),
    };
    let (_stream, mut reader) = set_up(&worker, &config);
    loop {
        match read_message::<_, Message>(&mut reader) {
            Ok(Some(Message::Heartbeat)) => {}
            Ok(None) => break,
            other => panic!("expected Heartbeats, then a close, got {other:?}"),
        }
    }

    config.trainer = TrainerSpec::Surrogate;
    let (stream, mut reader) = set_up(&worker, &config);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    write_message(
        &mut &stream,
        &Message::Job {
            model_id: 0,
            generation: 0,
            dispatch_attempt: 1,
            genome: config.search_space().random_genome(&mut rng),
        },
    )
    .unwrap();
    loop {
        match read_message::<_, Message>(&mut reader).unwrap() {
            Some(Message::JobDone { model_id: 0, .. }) => break,
            Some(Message::Heartbeat) => {}
            other => panic!("expected JobDone, got {other:?}"),
        }
    }
    write_message(&mut &stream, &Message::Shutdown).unwrap();
    worker.join().unwrap();
}
