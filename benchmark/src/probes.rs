//! Leaf probes: each crate's public functions timed in-process on the
//! workload's own data (the commons it wrote or serves, its image size).
//!
//! They complete the traced run's picture with the costs that cannot be
//! seen from outside a process: what one forward pass, one engine step,
//! one frame or one record costs. Each probe is a span, so the trace file
//! shows where the traced run's own time went.

use crate::harness::{ctx, Ctx, Outcome, Res};
use crate::search::summarize;
use crate::stats::median;
use crate::trace::Tracer;
use a4nn_bus::{Policy, Topic};
use a4nn_core::{netspec_from_arch, SearchSnapshot, WorkflowConfig};
use a4nn_genome::SearchSpace;
use a4nn_lineage::{epochs_csv, models_csv, DataCommons, ModelRecord};
use a4nn_metrics::{names, MetricsRegistry};
use a4nn_net::frame::{encode, FrameDecoder};
use a4nn_nn::{Network, Tensor2, Tensor4, Workspace};
use a4nn_nsga::{
    crowding_distance, environmental_selection, fast_non_dominated_sort, Individual, Objectives,
};
use a4nn_penguin::{EngineConfig, PredictionEngine};
use a4nn_sched::GpuPool;
use a4nn_serve::{Batcher, BatcherConfig, ModelRepo, ServeRequest};
use a4nn_xfel::{generate_split, BeamIntensity, XfelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Images per class the probes synthesise (the real workload's size).
const PROBE_IMAGES: usize = 16;
/// Training-mode batch of the reference network.
const TRAIN_BATCH: usize = 32;

/// Seconds per call of `f`, called once to warm and then for about `budget`.
fn per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut calls = 0u32;
    while t0.elapsed() < budget {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / f64::from(calls)
}

/// NSGA-II's per-generation work on the recorded objective vectors: sort,
/// crowding of the first front, environmental selection of `population`
/// survivors from the previous survivors plus the generation's models.
pub fn nsga_generations(records: &[ModelRecord], population: usize) -> usize {
    let all: Vec<Individual<()>> = records
        .iter()
        .map(|r| Individual {
            id: r.model_id,
            generation: r.generation,
            genome: (),
            objectives: Objectives::new(r.objective_vector()),
        })
        .collect();
    let generations = all.iter().map(|i| i.generation + 1).max().unwrap_or(0);
    let mut parents: Vec<usize> = Vec::new();
    for generation in 0..generations {
        let mut pool = parents;
        pool.extend((0..all.len()).filter(|&i| all[i].generation == generation));
        let objectives: Vec<Objectives> = pool.iter().map(|&i| all[i].objectives.clone()).collect();
        let fronts = fast_non_dominated_sort(&objectives);
        if let Some(front) = fronts.first() {
            black_box(crowding_distance(&objectives, front));
        }
        parents = environmental_selection(&all, &pool, population);
    }
    black_box(parents);
    generations
}

/// `observe` plus `step` replayed over every recorded fitness curve.
/// Returns the calls made.
pub fn penguin_replay(records: &[ModelRecord], engine: &EngineConfig) -> u64 {
    let mut calls = 0;
    for record in records {
        let mut e = PredictionEngine::new(engine.clone());
        for epoch in &record.epochs {
            e.observe(epoch.epoch, epoch.val_acc);
            black_box(e.step());
            calls += 1;
        }
    }
    calls
}

fn dir_mb(dir: &Path, keep: impl Fn(&str) -> bool) -> f64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| keep(&e.file_name().to_string_lossy()))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len() as f64)
                .sum::<f64>()
        })
        .unwrap_or(0.0)
        / 1e6
}

/// Encode and decode cost of one frame carrying `msg`, plus its size.
fn codec<T: serde::Serialize + serde::Deserialize>(
    msg: &T,
    budget: Duration,
) -> Res<(f64, f64, f64)> {
    let frame = ctx(encode(msg), "encoding probe frame")?;
    let enc = per_call(budget, || {
        black_box(encode(black_box(msg)).map(|f| f.len()).unwrap_or(0));
    });
    let dec = per_call(budget, || {
        let mut d = FrameDecoder::new();
        d.push(black_box(&frame));
        black_box(d.next_frame::<T>().map(|m| m.is_some()).unwrap_or(false));
    });
    Ok((enc * 1e6, dec * 1e6, frame.len() as f64))
}

/// Run every probe against the run directory `run_dir`, whose search ran
/// under `cfg`. Metrics a replay already set are left alone.
pub fn run(
    ctx_: &Ctx,
    run_dir: &Path,
    cfg: &WorkflowConfig,
    seed: u64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Res<()> {
    let scratch = ctx_.scratch("probes")?;
    let budget = Duration::from_millis(if ctx_.smoke { 20 } else { 120 });
    let commons = ctx(DataCommons::load_dir(run_dir), "loading commons for probes")?;
    let first = commons
        .records
        .first()
        .ok_or("probes need a non-empty commons")?;

    // What the recorded search achieved: exact counts, which a change to
    // any layer must leave alone.
    let summary = summarize(&commons);
    out.set("penguin.early_terminations", summary.early as f64);
    out.set(
        "penguin.termination_share",
        summary.early as f64 / summary.models as f64,
    );
    out.set(
        "penguin.epochs_saved_pct",
        summary.epochs_saved_pct(cfg.nas.epochs),
    );
    out.set("core.best_fitness_pct", summary.best_fitness);

    // xfel: synthesis at the real workload's size.
    let (images, _) = tracer.span("probe.xfel", 0, |_| {
        let t0 = Instant::now();
        let split = generate_split(
            &XfelConfig::default(),
            BeamIntensity::Medium,
            PROBE_IMAGES,
            seed,
        );
        let s = t0.elapsed().as_secs_f64();
        out.set("xfel.generate_s", s);
        out.set("xfel.images_per_s", (2 * PROBE_IMAGES) as f64 / s);
        split
    });
    let hw = (images.height, images.width);
    let pixels = |n: usize| -> Vec<f32> {
        (0..n)
            .flat_map(|i| {
                let at = (i % images.len()) * images.sample_stride();
                images.images[at..at + images.sample_stride()]
                    .iter()
                    .copied()
            })
            .collect()
    };

    // genome: decode every recorded genome.
    let space = SearchSpace::paper_defaults();
    tracer.span("probe.genome", 0, |_| {
        let s = per_call(budget, || {
            for r in &commons.records {
                black_box(space.decode(&r.genome));
            }
        });
        out.set("genome.decode_us_per_model", s * 1e6 / commons.len() as f64);
    });

    // nn, training side: the first recorded architecture, batch 32, under
    // the GEMM thread budget the search gives each of its workers. The
    // serving side below runs under the default budget, as `a4nn serve`.
    a4nn_nn::gemm::set_thread_budget(a4nn_sched::intra_op_threads(cfg.gpus));
    tracer.span("probe.nn_train", 0, |_| {
        let spec = netspec_from_arch(&space.decode(&first.genome));
        let build = per_call(budget, || {
            black_box(Network::new(
                &spec,
                &mut StdRng::seed_from_u64(first.model_id),
            ));
        });
        out.set("nn.build_us_per_model", build * 1e6);
        let mut net = Network::new(&spec, &mut StdRng::seed_from_u64(first.model_id));
        let mut ws = Workspace::new();
        let x = Tensor4::from_vec(TRAIN_BATCH, 1, hw.0, hw.1, pixels(TRAIN_BATCH));
        let dlogits = Tensor2::from_vec(
            TRAIN_BATCH,
            spec.num_classes,
            (0..TRAIN_BATCH * spec.num_classes)
                .map(|i| if i % 2 == 0 { 0.01 } else { -0.01 })
                .collect(),
        );
        let fwd = per_call(budget, || {
            let logits = net.forward_ws(&x, true, &mut ws);
            ws.give2(logits);
        });
        let both = per_call(budget, || {
            let logits = net.forward_ws(&x, true, &mut ws);
            ws.give2(logits);
            net.backward_ws(&dlogits, &mut ws);
        });
        let batch = TRAIN_BATCH as f64;
        out.set("nn.fwd_us_per_img_train", fwd * 1e6 / batch);
        out.set("nn.bwd_us_per_img", (both - fwd).max(0.0) * 1e6 / batch);
        out.set("nn.peak_ws_mb", ws.peak_pooled_bytes() as f64 / 1e6);
        // Computed, not counted: the network's forward FLOPs at this
        // image size over the measured forward time.
        out.set("nn.mflops_per_s", net.flops(hw) * batch / 1e6 / fwd);
    });
    a4nn_nn::gemm::set_thread_budget(0);

    // serve: repository load, then the batcher without any socket.
    let (repo, load_s) = tracer.span("probe.serve_repo", 0, |_| {
        let t0 = Instant::now();
        let repo = ModelRepo::load(run_dir);
        (repo, t0.elapsed().as_secs_f64())
    });
    let repo = ctx(repo, "loading the commons as a model repository")?;
    out.set("serve.repo_load_s", load_s);

    // nn, eval side: the default served model, batches of 1 and 8.
    let mut eval_net = repo.models()[repo.default_idx()].net.clone();
    tracer.span("probe.nn_eval", 0, |_| {
        let mut ws = Workspace::new();
        for (batch, name) in [(1, "nn.eval_us_per_img_b1"), (8, "nn.eval_us_per_img_b8")] {
            let x = Tensor4::from_vec(batch, 1, hw.0, hw.1, pixels(batch));
            let s = per_call(budget, || {
                let logits = eval_net.forward_ws(&x, false, &mut ws);
                ws.give2(logits);
            });
            out.set(name, s * 1e6 / batch as f64);
        }
    });

    let registry = Arc::new(MetricsRegistry::new());
    let batcher = ctx(
        Batcher::start(repo, BatcherConfig::default(), registry.clone()),
        "starting the probe batcher",
    )?;
    tracer.span("probe.serve_batcher", 0, |_| {
        let image = pixels(1);
        let s = per_call(budget * 2, || {
            black_box(batcher.classify(None, 1, hw.0, hw.1, image.clone()).is_ok());
        });
        out.set("serve.batcher_us_per_req", s * 1e6);
    });
    drop(batcher);
    let snap = registry.snapshot();
    let mean = |name: &str| snap.histogram(name).and_then(|h| h.mean()).unwrap_or(0.0);
    out.set("serve.queue_wait_us_mean", mean(names::SERVE_QUEUE_WAIT_US));
    out.set("serve.eval_us_mean", mean(names::SERVE_EVAL_US));
    out.set("serve.mean_batch", mean(names::SERVE_BATCH_SIZE));

    // penguin and nsga on the recorded curves and objective vectors,
    // unless the search replay already measured them in context.
    if let (false, Some(engine)) = (out.metrics.contains_key("penguin.step_s"), &cfg.engine) {
        tracer.span("probe.penguin", 0, |_| {
            let t0 = Instant::now();
            let calls = penguin_replay(&commons.records, engine);
            let s = t0.elapsed().as_secs_f64();
            out.set("penguin.step_s", s);
            out.set("penguin.step_us_per_call", s * 1e6 / calls.max(1) as f64);
        });
    }
    if !out.metrics.contains_key("nsga.select_s") {
        tracer.span("probe.nsga", 0, |_| {
            let t0 = Instant::now();
            let generations = nsga_generations(&commons.records, cfg.nas.population);
            let s = t0.elapsed().as_secs_f64();
            out.set("nsga.select_s", s);
            out.set("nsga.sort_us_per_gen", s * 1e6 / generations.max(1) as f64);
        });
    }

    // sched: dispatch cost of jobs that do nothing.
    tracer.span("probe.sched", 0, |_| -> Res<()> {
        const JOBS: usize = 2000;
        let pool = GpuPool::new(cfg.gpus.min(ctx_.cores).max(1));
        let t0 = Instant::now();
        let jobs: Vec<_> = (0..JOBS).map(|i| move |_gpu: usize| i).collect();
        let (done, _) = ctx(pool.run_batch(jobs), "running empty jobs")?;
        black_box(done);
        out.set(
            "sched.dispatch_us_per_job",
            t0.elapsed().as_secs_f64() * 1e6 / JOBS as f64,
        );
        Ok(())
    })?;

    // bus: one publish into one unbounded subscription.
    tracer.span("probe.bus", 0, |_| {
        const BATCH: u64 = 1000;
        let topic: Topic<u64> = Topic::new("probe");
        let sub = topic.subscribe(Policy::Unbounded);
        let s = per_call(budget, || {
            for i in 0..BATCH {
                black_box(topic.publish(i).is_ok());
            }
            while sub.try_recv().is_ok() {}
        });
        out.set("bus.publish_ns", s * 1e9 / BATCH as f64);
    });

    // net: the codec on a job-sized and a classify-sized frame.
    tracer.span("probe.net_codec", 0, |_| -> Res<()> {
        let (enc, dec, bytes) = codec(first, budget)?;
        out.set("net.encode_us_per_frame.job", enc);
        out.set("net.decode_us_per_frame.job", dec);
        out.set("net.frame_bytes.job", bytes);
        let classify = ServeRequest::Classify {
            model_id: None,
            channels: 1,
            height: hw.0,
            width: hw.1,
            pixels: pixels(1),
        };
        let (enc, dec, bytes) = codec(&classify, budget)?;
        out.set("net.encode_us_per_frame.classify", enc);
        out.set("net.decode_us_per_frame.classify", dec);
        out.set("net.frame_bytes.classify", bytes);
        Ok(())
    })?;

    // lineage: write, read back and export the whole commons.
    tracer.span("probe.lineage", 0, |_| -> Res<()> {
        let dir = scratch.join("commons");
        let t0 = Instant::now();
        ctx(commons.save_dir(&dir), "saving probe commons")?;
        out.set("lineage.save_s", t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box(ctx(DataCommons::load_dir(&dir), "loading probe commons")?);
        out.set("lineage.load_s", t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        black_box((models_csv(&commons), epochs_csv(&commons)));
        out.set("lineage.export_s", t0.elapsed().as_secs_f64());
        out.set(
            "lineage.commons_mb",
            dir_mb(&dir, |n| n.starts_with("model_") || n == "manifest.json"),
        );
        Ok(())
    })?;

    // metrics: one histogram observation.
    tracer.span("probe.metrics", 0, |_| {
        const BATCH: u64 = 1000;
        let registry = MetricsRegistry::new();
        let s = per_call(budget, || {
            for v in 0..BATCH {
                registry.observe("probe_us", v);
            }
        });
        out.set("metrics.observe_ns", s * 1e9 / BATCH as f64);
    });

    // core: load and re-commit the run's last search state.
    tracer.span("probe.core_snapshot", 0, |_| -> Res<()> {
        let t0 = Instant::now();
        let snapshot = ctx(
            SearchSnapshot::load(run_dir, cfg),
            "loading the last snapshot",
        )?;
        out.set("core.snapshot_load_s_final", t0.elapsed().as_secs_f64());
        let dir = scratch.join("snapshot");
        let t0 = Instant::now();
        ctx(snapshot.save(&dir), "re-saving the snapshot")?;
        out.set("core.snapshot_save_s_final", t0.elapsed().as_secs_f64());
        out.set(
            "core.snapshot_mb_final",
            dir_mb(&dir, |n| n.starts_with("search_state_g")),
        );
        if !out.metrics.contains_key("penguin.interactions") {
            out.set("penguin.interactions", snapshot.engine_interactions as f64);
        }
        Ok(())
    })?;

    // cli: process start to exit with nothing to do (prints usage).
    tracer.span("probe.cli", 0, |_| -> Res<()> {
        let mut walls = Vec::new();
        for _ in 0..5 {
            walls.push(ctx_.run_a4nn(&[])?.0 * 1e3);
        }
        out.set("cli.startup_ms", median(&walls));
        Ok(())
    })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_divides_by_the_calls_made() {
        let mut calls = 0u32;
        let s = per_call(Duration::from_millis(20), || {
            calls += 1;
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(calls >= 3, "one warm call plus the timed ones");
        assert!((0.002..0.02).contains(&s), "{s}");
    }
}
