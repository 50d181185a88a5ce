//! # a4nn-cli — the workflow driver
//!
//! §2.6 of the paper: "Users submit the NSGA-Net parameters through
//! command-line arguments to the driver script that instantiates the NAS
//! run" and "the write location for model and metadata files is configured
//! as a command-line argument to the NAS." This crate is that driver: a
//! dependency-light argument parser ([`args`]) plus the subcommand
//! implementations ([`commands`]; the paper's evaluation in `reproduce`)
//! behind the `a4nn` binary:
//!
//! ```text
//! a4nn search    --beam medium --gpus 4 --out ./commons [--population 10 ...]
//! a4nn baseline  --beam medium --out ./commons-baseline
//! a4nn xpsi      --beam medium --images 300
//! a4nn dataset   --beam low --images 100 --out ./data.json
//! a4nn analyze   --commons ./commons
//! a4nn viz       --commons ./commons --model 51 [--dot]
//! a4nn reproduce --out ./repro
//! ```
//!
//! Everything the subcommands do is a thin composition of the library
//! crates, so the CLI is also living documentation of the public API.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod args;
pub mod commands;
mod reproduce;

pub use args::{ArgError, Parsed};
pub use commands::{run_command, CommandError};

/// Entry point shared by the binary and the integration tests: parse and
/// dispatch, returning a process exit code.
///
/// Exit codes: 0 success, 2 argument parsing, otherwise the code of the
/// error's class from the table on [`a4nn_error::A4nnError::exit_code`].
/// Every failure prints a single-line `error: ...` diagnostic to stderr.
pub fn run(argv: &[String]) -> i32 {
    let parsed = match args::Parsed::parse(argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", args::usage());
            return 2;
        }
    };
    match commands::run_command(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}
