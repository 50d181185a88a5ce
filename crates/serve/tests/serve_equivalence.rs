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
    Batcher, BatcherConfig, Classification, ModelRepo, ServeClient, ServeConfig, ServeRequest,
    ServeResponse, ServeServer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::sync::mpsc::sync_channel;
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
    let metrics = Arc::new(MetricsRegistry::new());
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        serving,
        ServeConfig::default(),
        Arc::clone(&metrics),
        CLIENTS,
    )
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
                            .expect("well-formed request, one in flight per client");
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
    const BURST: usize = 400;
    let serving = repo();
    let menu = serving.infos();
    let default = menu.iter().find(|m| m.default).unwrap().clone();
    let metrics = Arc::new(MetricsRegistry::new());
    let batcher = Batcher::start(serving, BatcherConfig::default(), Arc::clone(&metrics)).unwrap();

    // The first request's reply holds the batch worker until the burst
    // is in, so the queue fills on every run: the worker takes at most
    // one batch before it blocks, and the rest of the burst overruns
    // the admission queue however fast the host evaluates.
    let (release, hold) = sync_channel::<()>(0);
    let mut hold = Some(hold);
    let (h, w) = (16usize, 16usize);
    let len = default.input_channels * h * w;
    let mut rng = StdRng::seed_from_u64(99);
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..BURST {
        let pix = pixels(&mut rng, len);
        let (tx, rx) = sync_channel(1);
        let hold = hold.take();
        let reply = move |answer: Classification| {
            if let Some(hold) = hold {
                let _ = hold.recv();
            }
            let _ = tx.send(answer);
        };
        match batcher.submit_sink(None, default.input_channels, h, w, pix.clone(), reply) {
            Ok(()) => accepted.push((pix, rx)),
            Err(A4nnError::Saturated(reason)) => {
                assert_eq!(A4nnError::Saturated(reason).exit_code(), 11);
                rejected += 1;
            }
            Err(other) => panic!("only Saturated may reject a well-formed request: {other}"),
        }
    }
    drop(release);
    assert!(
        rejected > 0,
        "a {BURST}-request burst into a held worker's queue must saturate"
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
        BURST as u64,
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
    // A shape whose element count overflows is malformed too, not a
    // wrapped count that matches an empty payload.
    let err = client
        .classify(None, c, 1 << 32, 1 << 32, Vec::new())
        .unwrap_err();
    assert!(
        matches!(err, A4nnError::Config(_)),
        "overflowing shape: {err}"
    );
    // The session survives all three errors.
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

/// A pipeline is answered in full however deep it runs: one write of a
/// Classify, 300 `Models` and a `Goodbye` reads back the
/// classification, then 300 menus, then EOF. Frames that arrive behind
/// the in-flight classification wait in the connection's read buffer,
/// not in a capped queue that drops the connection when it fills.
#[test]
fn a_deep_pipeline_is_answered_in_full() {
    const MENUS: usize = 300;
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        repo(),
        ServeConfig::default(),
        Arc::new(MetricsRegistry::new()),
        1,
    )
    .unwrap();
    let menu = repo().infos();
    let c = menu.iter().find(|m| m.default).unwrap().input_channels;

    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();
    let mut writer = stream;
    let mut frames = encode(&ServeRequest::Classify {
        model_id: None,
        channels: c,
        height: 8,
        width: 8,
        pixels: vec![0.5; c * 64],
    })
    .unwrap();
    for _ in 0..MENUS {
        frames.extend(encode(&ServeRequest::Models).unwrap());
    }
    frames.extend(encode(&ServeRequest::Goodbye).unwrap());
    writer.write_all(&frames).unwrap();

    let mut replies = Vec::new();
    let end = loop {
        match read_message::<_, ServeResponse>(&mut reader) {
            Ok(Some(reply)) => replies.push(reply),
            other => break other,
        }
    };
    assert_eq!(
        replies.len(),
        MENUS + 1,
        "{} of {} requests answered, then {end:?}",
        replies.len(),
        MENUS + 1
    );
    assert!(matches!(end, Ok(None)), "Goodbye closes the connection");
    assert!(matches!(replies[0], ServeResponse::Classified { .. }));
    assert!(replies[1..]
        .iter()
        .all(|r| matches!(r, ServeResponse::Models(m) if m.len() == menu.len())));
    handle.join().unwrap();
}

/// A peer that shuts its socket down while a slow classification is in
/// flight is closed without a busy loop: the readable hang-up is not
/// read until the reply is queued, and the event loop stops watching it
/// meanwhile instead of waking on it again and again. The server then
/// serves its next session.
#[test]
fn a_hang_up_during_a_classification_costs_no_busy_loop() {
    let metrics = Arc::new(MetricsRegistry::new());
    let handle = ServeServer::spawn(
        "127.0.0.1:0",
        repo(),
        ServeConfig::default(),
        Arc::clone(&metrics),
        2,
    )
    .unwrap();
    let menu = repo().infos();
    let c = menu.iter().find(|m| m.default).unwrap().input_channels;

    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let classify = ServeRequest::Classify {
        model_id: None,
        channels: c,
        height: 384,
        width: 384,
        pixels: vec![0.5; c * 384 * 384],
    };
    stream.write_all(&encode(&classify).unwrap()).unwrap();
    stream.shutdown(std::net::Shutdown::Both).unwrap();

    let mut client = ServeClient::connect(&handle.addr().to_string()).unwrap();
    assert_eq!(client.models().unwrap().len(), menu.len());
    client.goodbye().unwrap();
    handle.join().unwrap();

    let wakeups = metrics
        .snapshot()
        .counter(a4nn_metrics::names::REACTOR_WAKEUPS);
    assert!(
        wakeups < 100,
        "{wakeups} event-loop wakeups for two short sessions"
    );
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
