//! Every message of both wire protocols through the frame codec: one
//! instance of each `Message`, `ServeRequest` and `ServeResponse` variant
//! survives `encode` → `FrameDecoder` fed one byte at a time, and
//! `encode` → `read_message`, re-encoding to the same bytes. A frame with
//! any one payload byte flipped decodes or fails as a typed `NetError`,
//! never a panic.
//!
//! The `*_case` functions match without a wildcard, so a new variant
//! fails to compile here until it has a case and an instance.

use a4nn_core::prelude::*;
use a4nn_core::{train_model, InlineEngine};
use a4nn_net::{encode, read_message, FrameDecoder, Message, NetError, HEADER_LEN};
use a4nn_serve::{ModelInfo, ServeRequest, ServeResponse};
use proptest::prelude::*;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The variant's position in declaration order.
fn message_case(m: &Message) -> usize {
    match m {
        Message::Welcome { .. } => 0,
        Message::RunSetup { .. } => 1,
        Message::Job { .. } => 2,
        Message::JobDone { .. } => 3,
        Message::Heartbeat => 4,
        Message::Shutdown => 5,
    }
}

/// The variant's position in declaration order.
fn request_case(r: &ServeRequest) -> usize {
    match r {
        ServeRequest::Classify { .. } => 0,
        ServeRequest::Models => 1,
        ServeRequest::Goodbye => 2,
    }
}

/// The variant's position in declaration order.
fn response_case(r: &ServeResponse) -> usize {
    match r {
        ServeResponse::Classified { .. } => 0,
        ServeResponse::Rejected { .. } => 1,
        ServeResponse::Error { .. } => 2,
        ServeResponse::Models(_) => 3,
    }
}

/// One instance of every coordinator↔worker message, in declaration
/// order; the job result is a real surrogate training outcome.
fn messages() -> &'static [Message] {
    static MESSAGES: OnceLock<Vec<Message>> = OnceLock::new();
    MESSAGES.get_or_init(train_one)
}

fn train_one() -> Vec<Message> {
    let mut config = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 7);
    config.nas.epochs = 6;
    let ft = FaultTolerance::new(RetryPolicy::with_retries(1), FaultPlan::none());
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let genome = config.search_space().random_genome(&mut rng);
    let factory = config.trainer_factory().unwrap();
    let mut engine = InlineEngine::new(config.engine.as_ref(), &ft.plan, 3);
    let (outcome, cost) =
        train_model(&config, factory.as_ref(), &genome, 3, &ft, &mut engine).unwrap();
    vec![
        Message::Welcome { gpus: 4 },
        Message::RunSetup {
            config,
            retry: ft.retry,
            plan: FaultPlan::new(vec![FaultEvent::StallFor {
                model: 3,
                epoch: 2,
                millis: 40,
            }]),
            heartbeat_interval_ms: 500,
        },
        Message::Job {
            model_id: 3,
            generation: 1,
            dispatch_attempt: 2,
            genome,
        },
        Message::JobDone {
            model_id: 3,
            cost,
            outcome,
        },
        Message::Heartbeat,
        Message::Shutdown,
    ]
}

fn requests() -> Vec<ServeRequest> {
    vec![
        ServeRequest::Classify {
            model_id: Some(11),
            channels: 1,
            height: 2,
            width: 3,
            pixels: vec![0.0, -1.5, 0.1, 1e-30, f32::MAX, 0.333_333_34],
        },
        ServeRequest::Models,
        ServeRequest::Goodbye,
    ]
}

fn responses() -> Vec<ServeResponse> {
    vec![
        ServeResponse::Classified {
            model_id: 11,
            class: 2,
            logits: vec![-0.25, 3.0e-7, 17.5],
        },
        ServeResponse::Rejected {
            reason: "admission queue full (64)".into(),
        },
        ServeResponse::Error {
            message: "model 12 is not on the served Pareto front".into(),
        },
        ServeResponse::Models(vec![ModelInfo {
            model_id: 11,
            fitness: 91.25,
            flops: 0.125,
            objective_names: vec!["neg_fitness".into(), "flops".into()],
            objective_values: vec![-91.25, 0.125],
            arch_summary: "phase 1: 3 nodes; phase 2: 2 nodes".into(),
            input_channels: 1,
            num_classes: 3,
            checkpoint_epoch: Some(8),
            default: true,
        }]),
    ]
}

/// Flip payload byte `offset` (modulo the payload length) of every
/// instance's frame by `mask`. The header stays valid, so the frame is
/// complete: both readers decode it to some message, or both fail with a
/// typed decode error.
fn flip_each<T: Serialize + Deserialize>(
    msgs: &[T],
    offset: usize,
    mask: u8,
) -> Result<(), TestCaseError> {
    for msg in msgs {
        let mut frame = encode(msg).unwrap();
        let at = HEADER_LEN + offset % (frame.len() - HEADER_LEN);
        frame[at] ^= mask;
        let mut decoder = FrameDecoder::new();
        decoder.push(&frame);
        let decoded = decoder.next_frame::<T>().map(|m| m.is_some());
        let mut cursor = std::io::Cursor::new(&frame);
        let read = read_message::<_, T>(&mut cursor).map(|m| m.is_some());
        prop_assert!(
            matches!(decoded, Ok(true) | Err(NetError::Decode(_))),
            "{decoded:?}"
        );
        prop_assert_eq!(read, decoded);
    }
    Ok(())
}

/// `msg` through the byte-at-a-time decoder and the blocking reader,
/// re-encoded to the very bytes it was sent as.
fn assert_roundtrips<T: Serialize + Deserialize>(msg: &T) {
    let frame = encode(msg).unwrap();
    let mut decoder = FrameDecoder::new();
    let mut decoded = None;
    for (i, byte) in frame.iter().enumerate() {
        decoder.push(std::slice::from_ref(byte));
        if let Some(m) = decoder.next_frame::<T>().unwrap() {
            assert_eq!(i + 1, frame.len(), "a message popped before its last byte");
            decoded = Some(m);
        }
    }
    decoder.finish().unwrap();
    assert_eq!(
        encode(&decoded.expect("the whole frame decodes")).unwrap(),
        frame
    );

    let mut cursor = std::io::Cursor::new(&frame);
    let read: T = read_message(&mut cursor).unwrap().unwrap();
    assert_eq!(encode(&read).unwrap(), frame);
}

#[test]
fn every_variant_has_one_instance() {
    let cases: Vec<usize> = messages().iter().map(message_case).collect();
    assert_eq!(cases, (0..6).collect::<Vec<_>>());
    let cases: Vec<usize> = requests().iter().map(request_case).collect();
    assert_eq!(cases, (0..3).collect::<Vec<_>>());
    let cases: Vec<usize> = responses().iter().map(response_case).collect();
    assert_eq!(cases, (0..4).collect::<Vec<_>>());
}

#[test]
fn every_message_roundtrips_through_both_readers() {
    messages().iter().for_each(assert_roundtrips);
    requests().iter().for_each(assert_roundtrips);
    responses().iter().for_each(assert_roundtrips);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_flipped_payload_byte_is_decoded_or_typed(offset in any::<u64>(), mask in 1u8..=255) {
        flip_each(messages(), offset as usize, mask)?;
        flip_each(&requests(), offset as usize, mask)?;
        flip_each(&responses(), offset as usize, mask)?;
    }
}
