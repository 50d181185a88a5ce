//! Serve-vs-direct equivalence: an answer that rode a micro-batch is
//! bitwise identical to evaluating that request alone, and admission
//! control degrades typed — never by corrupting accepted work.
//!
//! The reference commons is a real (surrogate-scale) search run, so the
//! served Pareto front exercises the same genome-decode → network-build
//! path production serving uses.

use a4nn_core::prelude::*;
use a4nn_net::{encode, read_message, PROTOCOL_VERSION};
use a4nn_nn::{Tensor4, Workspace};
use a4nn_serve::{
    Batcher, BatcherConfig, ModelRepo, ServeClient, ServeConfig, ServeRequest, ServeResponse,
    ServeServer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::sync::{Arc, OnceLock};

/// Request shapes mixed into the load: batching groups by shape, so a
/// mixed stream forces batch splits and remainders.
const SHAPES: [(usize, usize); 3] = [(8, 8), (12, 12), (8, 16)];

fn commons() -> &'static DataCommons {
    static COMMONS: OnceLock<DataCommons> = OnceLock::new();
    COMMONS.get_or_init(|| {
        let cfg = WorkflowConfig {
            nas: NasSettings {
                population: 6,
                offspring: 6,
                generations: 2,
                ..NasSettings::paper_defaults()
            },
            engine: Some(EngineConfig::paper_defaults()),
            gpus: 2,
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

fn pixels(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// The serving tie rule: argmax, ties to the lower index.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, v) in row.iter().enumerate().skip(1) {
        if v.total_cmp(&row[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

/// Forward one recorded request alone (batch of one) and return its
/// logits — the reference every served answer must match bitwise.
fn direct_logits(
    nets: &mut [a4nn_nn::Network],
    idx: usize,
    channels: usize,
    h: usize,
    w: usize,
    pix: Vec<f32>,
    ws: &mut Workspace,
) -> Vec<f32> {
    let x = Tensor4::from_vec(1, channels, h, w, pix);
    let logits = nets[idx].forward_ws(&x, false, ws);
    let row = logits.row(0).to_vec();
    ws.give2(logits);
    row
}

/// Concurrent clients drive a live server on this platform's connection
/// layer, and every answer is diffed against direct evaluation.
#[test]
fn micro_batched_responses_match_single_request_eval_bitwise() {
    const CLIENTS: usize = 4;
    const REQUESTS: usize = 24;

    let serving = repo();
    let menu = serving.infos();
    let cfg = ServeConfig {
        batcher: BatcherConfig {
            max_batch: 4,
            queue_cap: 256,
            workers: 2,
            ..BatcherConfig::default()
        },
        ..ServeConfig::default()
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let handle = ServeServer::spawn("127.0.0.1:0", serving, cfg, Arc::clone(&metrics), CLIENTS)
        .expect("spawning the in-process serve endpoint");
    let addr = handle.addr().to_string();

    // Concurrent clients, each cycling model picks and shapes, recording
    // every (request, response) pair for offline comparison.
    type Recorded = (u64, usize, usize, usize, Vec<f32>, usize, Vec<f32>);
    let recorded: Vec<Recorded> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.clone();
                let menu = &menu;
                scope.spawn(move || {
                    let mut client = ServeClient::connect(&addr).unwrap();
                    let mut rng = StdRng::seed_from_u64(7000 + c as u64);
                    let mut out = Vec::with_capacity(REQUESTS);
                    for r in 0..REQUESTS {
                        // Alternate explicit picks with the default model.
                        let pick = if r % 3 == 0 {
                            None
                        } else {
                            Some(menu[(c + r) % menu.len()].model_id)
                        };
                        let channels = match pick {
                            Some(id) => {
                                menu.iter()
                                    .find(|m| m.model_id == id)
                                    .unwrap()
                                    .input_channels
                            }
                            None => menu.iter().find(|m| m.default).unwrap().input_channels,
                        };
                        let (h, w) = SHAPES[(c + r) % SHAPES.len()];
                        let pix = pixels(&mut rng, channels * h * w);
                        let answer = client
                            .classify(pick, channels, h, w, pix.clone())
                            .expect("well-formed request under an uncapped queue");
                        out.push((
                            answer.model_id,
                            channels,
                            h,
                            w,
                            pix,
                            answer.class,
                            answer.logits,
                        ));
                    }
                    client.goodbye().unwrap();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    handle.join().expect("server drains its session budget");
    assert_eq!(recorded.len(), CLIENTS * REQUESTS);

    // Reference: an identically-loaded repo, every request evaluated
    // alone. Micro-batching must be unobservable in the bytes.
    let (infos, default_idx, mut nets) = repo().into_parts();
    let mut ws = Workspace::new();
    for (i, (model_id, channels, h, w, pix, class, logits)) in recorded.into_iter().enumerate() {
        let idx = infos
            .iter()
            .position(|m| m.model_id == model_id)
            .expect("response names a served model");
        let direct = direct_logits(&mut nets, idx, channels, h, w, pix, &mut ws);
        assert_eq!(
            logits.len(),
            direct.len(),
            "request {i}: logit arity diverged"
        );
        assert!(
            logits.iter().zip(&direct).all(|(a, b)| a.to_bits() == b.to_bits()),
            "request {i} (model {model_id}, {channels}x{h}x{w}): served logits {logits:?} != direct {direct:?}"
        );
        assert_eq!(class, argmax(&direct), "request {i}: class diverged");
    }
    // A default pick resolves to the best-by-fitness model.
    assert!(infos[default_idx].default);

    // The load left its trace in the registry: every request counted,
    // batched, measured.
    let snap = metrics.snapshot();
    let json = snap.to_json().unwrap();
    let text = String::from_utf8(json).unwrap();
    for name in ["serve_requests", "serve_batches"] {
        assert!(text.contains(name), "metrics snapshot missing {name}");
    }
}

#[test]
fn saturation_is_typed_and_never_poisons_accepted_requests() {
    let serving = repo();
    let menu = serving.infos();
    let default = menu.iter().find(|m| m.default).unwrap().clone();
    let metrics = Arc::new(MetricsRegistry::new());
    let batcher = Batcher::start(
        serving,
        BatcherConfig {
            max_batch: 1,
            queue_cap: 1,
            workers: 1,
            ..BatcherConfig::default()
        },
        Arc::clone(&metrics),
    )
    .unwrap();

    // Submit far faster than one worker can evaluate 16x16 forward
    // passes: with a single-slot queue the burst must overrun admission.
    let (h, w) = (16usize, 16usize);
    let len = default.input_channels * h * w;
    let mut rng = StdRng::seed_from_u64(99);
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..400 {
        let pix = pixels(&mut rng, len);
        match batcher.submit(None, default.input_channels, h, w, pix.clone()) {
            Ok(rx) => accepted.push((pix, rx)),
            Err(A4nnError::Saturated(reason)) => {
                assert_eq!(A4nnError::Saturated(reason).exit_code(), 11);
                rejected += 1;
            }
            Err(other) => panic!("only Saturated may reject a well-formed request: {other}"),
        }
    }
    assert!(
        rejected > 0,
        "a 400-request burst into a 1-slot queue must saturate"
    );
    assert!(!accepted.is_empty(), "admission must still accept work");

    // Every accepted request is answered, and answered exactly as a
    // single-request evaluation would.
    let (infos, _, mut nets) = repo().into_parts();
    let idx = infos.iter().position(|m| m.default).unwrap();
    let mut ws = Workspace::new();
    for (pix, rx) in accepted {
        let answer = rx.recv().expect("accepted requests are always answered");
        assert_eq!(answer.model_id, default.model_id);
        let direct = direct_logits(&mut nets, idx, default.input_channels, h, w, pix, &mut ws);
        assert!(
            answer
                .logits
                .iter()
                .zip(&direct)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "an answer served under saturation pressure diverged from direct eval"
        );
    }
    drop(batcher);

    // The registry kept honest books: accepted + rejected == offered.
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter("serve_requests") + snap.counter("serve_rejected"),
        400,
        "admission accounting must partition the offered load"
    );
}

#[test]
fn menu_matches_the_commons_pareto_front_and_picker_validates() {
    let serving = repo();
    let expected = serving.infos();
    let metrics = Arc::new(MetricsRegistry::new());
    let handle =
        ServeServer::spawn("127.0.0.1:0", serving, ServeConfig::default(), metrics, 1).unwrap();

    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    let menu = client.models().unwrap();
    assert_eq!(menu.len(), expected.len());
    for (got, want) in menu.iter().zip(&expected) {
        assert_eq!(got.model_id, want.model_id);
        assert_eq!(got.input_channels, want.input_channels);
        assert_eq!(got.num_classes, want.num_classes);
        assert_eq!(got.default, want.default);
        assert_eq!(got.fitness.to_bits(), want.fitness.to_bits());
    }
    assert_eq!(
        menu.iter().filter(|m| m.default).count(),
        1,
        "exactly one default model"
    );

    // An off-menu model id and a malformed pixel payload are refused as
    // request errors, not rejections and not dropped connections.
    let c = menu[0].input_channels;
    let err = client
        .classify(Some(u64::MAX), c, 8, 8, vec![0.0; c * 64])
        .unwrap_err();
    assert!(
        matches!(err, A4nnError::Config(ref m) if m.contains("not on the served Pareto front"))
    );
    let err = client.classify(None, c, 8, 8, vec![0.0; 3]).unwrap_err();
    assert!(matches!(err, A4nnError::Config(_)), "bad payload: {err}");
    // The session survives both errors.
    let answer = client.classify(None, c, 8, 8, vec![0.5; c * 64]).unwrap();
    assert_eq!(answer.logits.len(), menu[0].num_classes);
    client.goodbye().unwrap();
    handle.join().unwrap();
}

/// A frame of another protocol revision gets its connection closed
/// with no reply, and the server goes on serving the next client.
#[test]
fn foreign_protocol_revision_is_closed_without_a_reply() {
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        repo(),
        ServeConfig::default(),
        Arc::new(MetricsRegistry::new()),
        2,
    )
    .unwrap();

    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut frame = encode(&ServeRequest::Models).unwrap();
    frame[4..6].copy_from_slice(&(PROTOCOL_VERSION + 1).to_be_bytes());
    stream.write_all(&frame).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    let mut reply = Vec::new();
    // A close with the frame unread may arrive as a reset.
    match stream.read_to_end(&mut reply) {
        Ok(_) => {}
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
    assert!(reply.is_empty(), "a foreign frame was answered");

    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    assert_eq!(client.models().unwrap().len(), repo().infos().len());
    client.goodbye().unwrap();
    handle.join().unwrap();
}

/// A client may pipeline: requests written back to back, before any
/// reply is read, are answered in request order, a classification that
/// rides the batcher included, and the Goodbye behind them closes the
/// connection once the replies are out.
#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        repo(),
        ServeConfig::default(),
        Arc::new(MetricsRegistry::new()),
        1,
    )
    .unwrap();
    let menu = repo().infos();
    let default = menu.iter().find(|m| m.default).unwrap();
    let c = default.input_channels;

    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();
    let mut writer = stream;

    let classify = ServeRequest::Classify {
        model_id: None,
        channels: c,
        height: 8,
        width: 8,
        pixels: vec![0.5; c * 64],
    };
    let mut frames = Vec::new();
    for request in [
        ServeRequest::Models,
        classify,
        ServeRequest::Models,
        ServeRequest::Goodbye,
    ] {
        frames.extend(encode(&request).unwrap());
    }
    std::io::Write::write_all(&mut writer, &frames).unwrap();

    let mut next = || read_message::<_, ServeResponse>(&mut reader).unwrap();
    assert!(matches!(next(), Some(ServeResponse::Models(m)) if m.len() == menu.len()));
    match next() {
        Some(ServeResponse::Classified { model_id, .. }) => assert_eq!(model_id, default.model_id),
        other => panic!("expected the classification second, got {other:?}"),
    }
    assert!(matches!(next(), Some(ServeResponse::Models(m)) if m.len() == menu.len()));
    assert!(next().is_none(), "Goodbye closes the connection");
    handle.join().unwrap();
}

#[test]
fn an_unservable_commons_is_a_typed_config_error() {
    let empty = DataCommons::new(Vec::new());
    let err = match ModelRepo::from_commons(&empty, None) {
        Ok(_) => panic!("an empty commons must not yield a servable repo"),
        Err(e) => e,
    };
    assert!(matches!(err, A4nnError::Config(_)), "{err}");
    assert_eq!(err.exit_code(), 3);
}
