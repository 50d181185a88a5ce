//! Property tests for the micro-batcher: for *any* mix of batch size,
//! worker count, request shapes, model picks, and submission
//! interleaving, every answer is bitwise identical to evaluating that
//! request alone.
//!
//! This is the serving restatement of the workspace-determinism
//! property: eval-mode forward is per-sample independent, so how the
//! batcher chunks the queue (full batches, remainders, shape splits) and
//! which worker runs a batch must be unobservable in the bytes.

use a4nn_core::prelude::*;
use a4nn_nn::{Tensor4, Workspace};
use a4nn_serve::{Batcher, BatcherConfig, ModelRepo};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, OnceLock};

const SHAPES: [(usize, usize); 4] = [(8, 8), (10, 10), (8, 12), (16, 8)];

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

/// One generated request: which model, what shape, which pixels.
struct Req {
    pick: Option<u64>,
    channels: usize,
    h: usize,
    w: usize,
    pixels: Vec<f32>,
}

fn generate_requests(n: usize, seed: u64, menu: &[a4nn_serve::ModelInfo]) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let pick = if rng.gen_range(0usize..3) == 0 {
                None
            } else {
                Some(menu[rng.gen_range(0usize..menu.len())].model_id)
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
            let (h, w) = SHAPES[rng.gen_range(0usize..SHAPES.len())];
            let pixels = (0..channels * h * w)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            Req {
                pick,
                channels,
                h,
                w,
                pixels,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_interleaving_of_the_batcher_matches_direct_eval(
        max_batch in 1usize..7,
        workers in 1usize..4,
        n_requests in 1usize..28,
        submitters in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let repo = ModelRepo::from_commons(commons(), None).unwrap();
        let menu = repo.infos();
        let batcher = Batcher::start(
            repo,
            BatcherConfig {
                max_batch,
                // The property under test is chunking, not admission:
                // size the queue so nothing is rejected.
                queue_cap: n_requests.max(1) * 2,
                workers,
                ..BatcherConfig::default()
            },
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();

        let requests = generate_requests(n_requests, seed, &menu);

        // Split the stream across concurrent submitter threads so the
        // queue sees genuinely interleaved arrival orders, then block
        // for every reply.
        let answers: Vec<(usize, a4nn_serve::Classification)> = std::thread::scope(|scope| {
            let chunk = n_requests.div_ceil(submitters);
            let handles: Vec<_> = requests
                .chunks(chunk.max(1))
                .enumerate()
                .map(|(t, part)| {
                    let batcher = &batcher;
                    scope.spawn(move || {
                        part.iter()
                            .enumerate()
                            .map(|(i, r)| {
                                let answer = batcher
                                    .classify(r.pick, r.channels, r.h, r.w, r.pixels.clone())
                                    .expect("uncapped queue accepts every request");
                                (t * chunk.max(1) + i, answer)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        drop(batcher);
        prop_assert_eq!(answers.len(), n_requests);

        // Reference repo: same commons, same deterministic rebuild.
        let (infos, default_idx, mut nets) = ModelRepo::from_commons(commons(), None)
            .unwrap()
            .into_parts();
        let mut ws = Workspace::new();
        for (i, answer) in answers {
            let r = &requests[i];
            let expected_idx = match r.pick {
                Some(id) => infos.iter().position(|m| m.model_id == id).unwrap(),
                None => default_idx,
            };
            prop_assert_eq!(answer.model_id, infos[expected_idx].model_id);
            let x = Tensor4::from_vec(1, r.channels, r.h, r.w, r.pixels.clone());
            let logits = nets[expected_idx].forward_ws(&x, false, &mut ws);
            let direct = logits.row(0);
            prop_assert_eq!(answer.logits.len(), direct.len());
            for (a, b) in answer.logits.iter().zip(direct) {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "request {} under max_batch={} workers={} diverged", i, max_batch, workers);
            }
            ws.give2(logits);
        }
    }
}
