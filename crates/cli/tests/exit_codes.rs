//! Exit-code contract of the `a4nn` driver: every error class maps to a
//! distinct nonzero code (documented in `a4nn_cli::run` and DESIGN.md),
//! and every failure is a single-line `error: ...` diagnostic — the
//! CLI never panics on user mistakes or missing files.

use a4nn_cli::run;

fn code(cmdline: &str) -> i32 {
    let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
    run(&argv)
}

/// The `a4nn` binary's exit code and standard output for `cmdline`.
fn output(cmdline: &str) -> (i32, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_a4nn"))
        .args(cmdline.split_whitespace())
        .output()
        .expect("spawning a4nn");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    (out.status.code().expect("exit code"), stdout)
}

#[test]
fn success_is_zero() {
    assert_eq!(code("help"), 0);
    assert_eq!(code("dataset --beam low --images 2"), 0);
}

#[test]
fn argument_parse_failures_are_two() {
    assert_eq!(code(""), 2, "missing subcommand");
    assert_eq!(code("launch"), 2, "unknown subcommand");
    assert_eq!(code("search --bogus 1"), 2, "unknown flag");
    assert_eq!(code("search --beam"), 2, "flag without value");
}

/// Retired flags are unknown flags: the serve connection layer, the
/// validation chunk size, the metrics persist interval and serve's batch
/// size, queue capacity, batch worker count and workspace cap are
/// fixed, and `analyze --commons` names the run directory `stats --run`
/// did. The retired `stats` is an unknown command.
#[test]
fn retired_flags_are_unknown() {
    use a4nn_cli::{ArgError, Parsed};
    for cmdline in [
        "serve --io reactor",
        "search --eval-chunk 64",
        "serve --metrics-interval-ms 5",
        "serve --batch 8",
        "serve --queue 64",
        "serve --batch-workers 1",
        "serve --ws-limit-mb 8",
        "analyze --run X",
    ] {
        let argv: Vec<String> = cmdline.split_whitespace().map(String::from).collect();
        let flag = &argv[1];
        let err = Parsed::parse(&argv).unwrap_err();
        assert_eq!(err, ArgError::UnknownFlag(flag.into()), "{cmdline}");
        assert_eq!(err.to_string(), format!("unknown flag {flag}"));
        assert_eq!(code(cmdline), 2, "{cmdline}");
    }
    let argv = ["stats", "--run", "X"].map(String::from);
    assert_eq!(
        Parsed::parse(&argv).unwrap_err(),
        ArgError::UnknownCommand("stats".into())
    );
    assert_eq!(code("stats --run X"), 2);
}

/// Each command takes only its own flags: another command's flag is
/// refused before anything runs.
#[test]
fn commands_refuse_flags_they_do_not_take() {
    for cmdline in [
        "xpsi --objectives bogus",
        "xpsi --gpus 9",
        "worker --listen 127.0.0.1:0 --real",
        "reproduce --out X --seed 7",
        "serve --commons X --listen 127.0.0.1:0 --population 3",
        "baseline --r 1",
        "analyze --commons X --beam low",
        "help --seed 7",
    ] {
        assert_eq!(code(cmdline), 2, "{cmdline}");
    }
}

#[test]
fn invalid_values_are_three() {
    assert_eq!(code("dataset --beam ultraviolet"), 3, "unknown beam");
    assert_eq!(code("analyze"), 3, "missing required --commons");
    assert_eq!(code("reproduce"), 3, "missing required --out");
    assert_eq!(
        code("search --generations 1 --function polynomial17"),
        3,
        "unknown parametric function"
    );
    for zero in ["--gpus 0", "--population 0", "--generations 0"] {
        assert_eq!(code(&format!("search --epochs 2 {zero}")), 3, "{zero}");
    }
    // The engine and the epoch budget refuse values that make no search.
    for nonsense in [
        "--epochs 0",
        "--n-converge 0",
        "--r -1",
        "--r nan",
        "--e-pred 0",
    ] {
        assert_eq!(
            code(&format!(
                "search --population 2 --offspring 2 --generations 1 --epochs 4 {nonsense}"
            )),
            3,
            "{nonsense}"
        );
    }
    // Fewer than 2 images per class leaves a split half empty.
    for images in ["--images 0", "--images 1"] {
        for command in [
            "search --real --population 2 --offspring 2 --generations 1 --epochs 1",
            "baseline --real --population 2 --offspring 2 --generations 1 --epochs 1",
            "xpsi",
        ] {
            assert_eq!(
                code(&format!("{command} {images}")),
                3,
                "{command} {images}"
            );
        }
    }
}

#[test]
fn io_failures_are_four() {
    assert_eq!(
        code("analyze --commons /nonexistent/a4nn-commons"),
        4,
        "commons dir that does not exist surfaces the workflow Io code"
    );
    let file = std::env::temp_dir().join(format!("a4nn-exit-codes-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let out = format!("{}/nested/data.json", file.display());
    assert_eq!(
        code(&format!("dataset --beam low --images 2 --out {out}")),
        4,
        "writing below an existing file is an I/O error"
    );
    std::fs::remove_file(&file).ok();
}

/// `reproduce` makes its output directory before the first search, so an
/// `--out` below a regular file fails at once, naming `runs` rather than
/// the first search's commons.
#[test]
fn reproduce_into_an_unwritable_out_fails_before_searching() {
    use a4nn_cli::{run_command, Parsed};
    let file = std::env::temp_dir().join(format!("a4nn-exit-codes-repro-{}", std::process::id()));
    std::fs::write(&file, b"occupied").unwrap();
    let argv = ["reproduce", "--out", &format!("{}/x", file.display())].map(String::from);
    let err = run_command(&Parsed::parse(&argv).unwrap()).unwrap_err();
    assert_eq!(err.exit_code(), 4, "{err}");
    let msg = err.to_string();
    assert!(msg.contains("runs") && !msg.contains("a4nn-low"), "{msg}");
    std::fs::remove_file(&file).ok();
}

#[test]
fn net_failures_are_nine() {
    // Nothing listens on port 1, so the coordinator fails while
    // connecting its worker fleet — a Net-class machinery failure.
    assert_eq!(
        code(
            "search --population 2 --offspring 2 --generations 1 --epochs 2 \
             --orchestration socket --workers 127.0.0.1:1"
        ),
        9,
        "unreachable worker"
    );
}

#[test]
fn socket_misuse_is_invalid_value() {
    assert_eq!(
        code("search --generations 1 --orchestration socket"),
        3,
        "socket orchestration without --workers"
    );
    assert_eq!(code("worker --gpus 1"), 3, "worker without --listen");
    assert_eq!(
        code("worker --listen 127.0.0.1:0 --gpus 0"),
        3,
        "a worker advertising zero GPUs"
    );
    // Workers heartbeat at a quarter of the deadline in whole
    // milliseconds, so a deadline under 4 ms is refused before any
    // worker is contacted (nothing listens on port 1).
    for ms in [0, 3] {
        assert_eq!(
            code(&format!(
                "search --population 2 --offspring 2 --generations 1 --epochs 2 \
                 --orchestration socket --workers 127.0.0.1:1 --heartbeat-ms {ms}"
            )),
            3,
            "--heartbeat-ms {ms}"
        );
    }
}

/// The README's exit-code table is generated prose over a real mapping;
/// this pins every row to the code it documents so the two cannot drift
/// again.
#[test]
fn readme_exit_code_table_matches_the_code() {
    use a4nn_cli::{ArgError, CommandError};
    use a4nn_error::A4nnError;

    // The canonical table: every row the README must carry, verbatim.
    let classes: [(i32, &str); 10] = [
        (0, "success"),
        (2, "argument parsing"),
        (
            3,
            "invalid value (bad beam, unknown function, missing `--commons`)",
        ),
        (4, "filesystem failure"),
        (
            5,
            "checkpoint encode/decode (including a stale `--resume` snapshot)",
        ),
        (6, "event bus closed mid-run"),
        (8, "internal invariant violated"),
        (
            9,
            "network failure (worker lost, bad frame, protocol revision mismatch)",
        ),
        (10, "interrupted at a generation boundary (resumable)"),
        (11, "serve admission queue saturated (back off and retry)"),
    ];

    // The canonical codes ARE the implementation's mapping.
    let wf = |e: A4nnError| CommandError::Workflow(e).exit_code();
    assert_eq!(CommandError::Args(ArgError::MissingCommand).exit_code(), 2);
    assert_eq!(wf(A4nnError::Config("x".into())), 3);
    assert_eq!(wf(A4nnError::io("x", std::io::Error::other("x"))), 4);
    assert_eq!(wf(A4nnError::Checkpoint("x".into())), 5);
    assert_eq!(wf(A4nnError::BusClosed("x".into())), 6);
    assert_eq!(wf(A4nnError::Internal("x".into())), 8);
    assert_eq!(wf(A4nnError::Net("x".into())), 9);
    assert_eq!(wf(A4nnError::Interrupted("x".into())), 10);
    assert_eq!(wf(A4nnError::Saturated("x".into())), 11);

    let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme_path).unwrap();
    for (code, class) in &classes {
        let row = format!("| {code} | {class} |");
        assert!(
            readme.contains(&row),
            "README exit-code table is missing the row {row:?}"
        );
    }
    // And carries nothing extra or stale: exactly one numeric table row
    // per documented class.
    let numeric_rows = readme
        .lines()
        .filter(|l| l.starts_with("| ") && l.chars().nth(2).is_some_and(|c| c.is_ascii_digit()))
        .count();
    assert_eq!(
        numeric_rows,
        classes.len(),
        "README documents an exit code this test does not pin"
    );
}

/// `--resume` under a different configuration is refused before any
/// training happens: the snapshot's config fingerprint does not match,
/// which is Checkpoint-class — exit code 5.
#[test]
fn stale_resume_snapshot_is_five() {
    let dir = std::env::temp_dir().join(format!("a4nn-exit-codes-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = dir.to_string_lossy().to_string();
    assert_eq!(
        code(&format!(
            "search --beam low --population 3 --offspring 3 --generations 2 --epochs 4 \
             --seed 2023 --out {out}"
        )),
        0,
        "seeding run commits its boundary snapshots"
    );
    assert_eq!(
        code(&format!(
            "search --beam low --population 3 --offspring 3 --generations 2 --epochs 4 \
             --seed 7 --resume {out}"
        )),
        5,
        "resuming with a different seed is a stale snapshot"
    );
    assert_eq!(
        code(&format!(
            "search --beam low --population 3 --offspring 3 --generations 2 --epochs 4 \
             --seed 2023 --resume {out}"
        )),
        0,
        "resuming a completed run with identical flags rebuilds its outputs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--real` run's images are part of what it resumes: the same
/// `--images` resumes, another count or a dropped `--real` is a stale
/// snapshot — exit code 5. The snapshot is checked before the trainer is
/// built, so even a count too small to train from (`--images 1`, exit 3
/// on a fresh run) is refused as stale.
#[test]
fn real_resume_under_other_images_is_five() {
    let dir = std::env::temp_dir().join(format!("a4nn-exit-codes-real-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = dir.to_string_lossy().to_string();
    let search = "search --population 2 --offspring 2 --generations 1 --epochs 1";
    assert_eq!(code(&format!("{search} --real --images 2 --out {out}")), 0);
    for (flags, want) in [
        ("--real --images 3", 5),
        ("--real --images 1", 5),
        ("", 5),
        ("--real --images 2", 0),
    ] {
        assert_eq!(
            code(&format!("{search} {flags} --resume {out}")),
            want,
            "resuming with {flags:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `a4nn serve` over a commons whose checkpoint claims `u32::MAX` tensors
/// refuses it as Checkpoint-class — exit code 5 — instead of trying to
/// allocate for that count and aborting.
#[test]
fn hostile_checkpoint_is_five() {
    let dir = std::env::temp_dir().join(format!("a4nn-exit-codes-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = dir.to_string_lossy().to_string();
    assert_eq!(
        code(&format!(
            "search --beam low --population 2 --offspring 2 --generations 1 --epochs 2 \
             --out {out}"
        )),
        0
    );
    // A valid header (epoch, spec length, spec JSON) whose tensor count
    // is u32::MAX, with nothing after it.
    let spec = br#"{"input_channels":1,"phases":[],"num_classes":2}"#;
    let mut hostile = Vec::new();
    hostile.extend_from_slice(&1u32.to_le_bytes());
    hostile.extend_from_slice(&(spec.len() as u32).to_le_bytes());
    hostile.extend_from_slice(spec);
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
    std::fs::write(dir.join("checkpoints/model_00000_epoch_001.a4nn"), hostile).unwrap();
    assert_eq!(
        code(&format!(
            "serve --commons {out} --listen 127.0.0.1:0 --sessions 1"
        )),
        5,
        "a hostile checkpoint is a checkpoint decode error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `a4nn analyze` reads a run directory offline: success on a real run
/// dir, the same metrics without `metrics.json` (as a killed search
/// leaves it) and a checkpoint error when the snapshot holding them is
/// torn, invalid-value on an empty one, and an I/O error on a torn
/// commons beside readable metrics.
#[test]
fn analyze_reads_a_run_directory_offline() {
    let dir = std::env::temp_dir().join(format!("a4nn-exit-codes-analyze-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let out = dir.to_string_lossy().to_string();
    assert_eq!(
        code(&format!(
            "search --beam low --population 3 --offspring 3 --generations 2 --epochs 4 \
             --out {out}"
        )),
        0
    );
    for artifact in [
        "metrics.csv",
        "metrics.json",
        "retries.csv",
        "resume_manifest.json",
    ] {
        assert!(
            dir.join(artifact).exists(),
            "search --out must commit {artifact}"
        );
    }
    let (status, complete) = output(&format!("analyze --commons {out}"));
    assert_eq!(status, 0);
    // Without `metrics.json` the metrics come from the committed snapshot.
    let metrics = dir.join("metrics.json");
    let aside = dir.join("metrics.json.aside");
    std::fs::rename(&metrics, &aside).unwrap();
    let (status, killed) = output(&format!("analyze --commons {out}"));
    std::fs::write(dir.join("search_state_g0002.json"), b"{ torn").unwrap();
    assert_eq!(
        code(&format!("analyze --commons {out}")),
        5,
        "a torn snapshot and no metrics.json"
    );
    std::fs::rename(&aside, &metrics).unwrap();
    assert_eq!(status, 0);
    let counters = |text: &str| -> Vec<String> {
        let section = text
            .split_once("\nmetrics:\n")
            .expect("a metrics section")
            .1;
        section
            .lines()
            .filter(|l| l.contains(",counter,"))
            .map(String::from)
            .collect()
    };
    assert!(!counters(&complete).is_empty());
    assert_eq!(counters(&killed), counters(&complete));
    assert_eq!(code("analyze"), 3, "analyze without --commons");
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    assert_eq!(
        code(&format!("analyze --commons {}", empty.to_string_lossy())),
        3,
        "a directory with no run artifacts"
    );
    std::fs::write(dir.join("manifest.json"), b"{ torn").unwrap();
    assert_eq!(
        code(&format!("analyze --commons {out}")),
        4,
        "a corrupted commons manifest beside a valid metrics.json"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_errors_still_print_and_exit_nonzero() {
    // A search that cannot persist its commons: the error travels from
    // the first boundary's commit -> A4nnError::Io -> exit code 4.
    let file = std::env::temp_dir().join(format!("a4nn-exit-codes-out-{}", std::process::id()));
    std::fs::write(&file, b"occupied").unwrap();
    let out = format!("{}/commons", file.display());
    assert_eq!(
        code(&format!(
            "baseline --beam low --population 3 --offspring 3 --generations 1 --epochs 2 --out {out}"
        )),
        4
    );
    std::fs::remove_file(&file).ok();
}
