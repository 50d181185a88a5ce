//! Dependency-light command-line argument parsing.
//!
//! Hand-rolled rather than pulling in a parser crate: the grammar is just
//! `a4nn <subcommand> [--key value]...` with typed accessors and strict
//! unknown-flag rejection.

use std::collections::BTreeMap;
use std::fmt;

/// Usage text printed on parse errors and `a4nn help`.
pub const USAGE: &str = "\
usage: a4nn <command> [options]

commands:
  search     run the A4NN workflow (NAS + prediction engine)
  baseline   run standalone NSGA-Net (no prediction engine)
  xpsi       run the XPSI baseline on a synthetic dataset
  dataset    generate a synthetic XFEL diffraction dataset
  analyze    summarize a data commons directory
  viz        render an architecture from a commons (ASCII or DOT)
  export     write models.csv and epochs.csv from a commons
  stats      summarize a run directory offline (metrics, retries, resume state)
  worker     serve trainer jobs to a remote search coordinator over TCP
  serve      serve batched classify requests from a commons' Pareto front
  reproduce  regenerate the paper's figures, tables and ablations into
             <out>/reproduction.json (--out required); exits 3 when a
             shape claim no longer gives its recorded result
  help       print this message

common options:
  --beam <low|medium|high>   beam intensity            [medium]
  --seed <u64>               master seed               [2023]
  --out <dir>                output directory

search/baseline options (paper Table 2 defaults):
  --gpus <n>                 virtual GPUs              [1]
  --population <n>           starting population       [10]
  --offspring <n>            offspring per generation  [10]
  --generations <n>          generations               [10]
  --epochs <n>               epoch budget per network  [25]
  --orchestration <mode>     direct|bus|socket task coupling [direct]
  --objectives <name,...>    comma-separated NSGA objective set, each of
                             neg_fitness|flops|params_bytes|macs|
                             peak_ws_bytes   [neg_fitness,flops]
  --workers <addr,...>       comma-separated worker addresses for
                             --orchestration socket
  --heartbeat-ms <n>         declare a silent worker dead after this
                             many milliseconds (socket)  [2000]
  --max-retries <n>          retries per model after a crashed
                             training attempt          [2]
  --resume <dir>             continue an interrupted search from the
                             snapshot committed in <dir>; the flags must
                             reproduce the original configuration
                             (checked via its fingerprint, exit 5 on
                             mismatch). With --out, snapshots commit
                             there at every generation boundary.
                             A4NN_SEARCH_GEN_DELAY_MS=<n> stalls each
                             boundary by n ms (CI kill-window knob;
                             wall-clock only, never results)
  --real                     train for real on the CPU substrate
  --images <n>               images per class for --real / xpsi (at
                             least 2) / dataset       [100]

engine options (search only; paper Table 1 defaults):
  --function <name>          exp-base|pow3|log3|vap3|weibull4|janoschek3
  --e-pred <n>               epoch predicted for       [25]
  --n-converge <n>           convergence window N      [3]
  --r <f64>                  tolerance r               [0.5]

worker options:
  --listen <addr>            bind address (required), e.g. 0.0.0.0:7070
  --gpus <n>                 advertised concurrent job slots [1]
  --sessions <n>             serve this many coordinator sessions then
                             exit; 0 serves forever      [0]

serve options:
  --commons <dir>            commons directory with the Pareto front to
                             serve (required); a checkpoints/ subdir
                             supplies trained weights, but no command
                             writes one yet, so each model is an
                             untrained rebuild of its genome, shown
                             beside the fitness its search trained to
                             (ROADMAP.md item 6(d))
  --listen <addr>            bind address (required), e.g. 0.0.0.0:7463
  --batch <n>                max requests per micro-batch     [8]
  --queue <n>                admission queue capacity; requests beyond
                             it are rejected with exit-class 11 [64]
  --batch-workers <n>        batch worker threads             [1]
  --ws-limit-mb <n>          workspace pool cap per worker, MiB [8]
  --sessions <n>             serve this many connections then exit;
                             0 serves forever                 [0]
  --idle-ms <n>              drop a connection with no read/write
                             progress for this long       [30000]
  --metrics-out <file>       write the metrics snapshot here as
                             connections close (at most every 2 s)
                             and at exit

viz options:
  --commons <dir>            commons directory (required)
  --model <id>               model id (default: best by fitness)
  --dot                      emit Graphviz DOT instead of ASCII

stats options:
  --run <dir>                run directory to summarize (required):
                             reads metrics.json, retries.csv, the
                             resume manifest, and the commons if
                             present — no search is executed";

/// Errors produced by [`Parsed::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand supplied.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A `--flag` without its value.
    MissingValue(String),
    /// A flag the grammar does not know.
    UnknownFlag(String),
    /// A value that failed to parse as its expected type.
    BadValue {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing command"),
            ArgError::UnknownCommand(c) => write!(f, "unknown command {c:?}"),
            ArgError::MissingValue(flag) => write!(f, "flag {flag} requires a value"),
            ArgError::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag {flag}: {value:?} is not a valid {expected}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The recognized subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `a4nn search`
    Search,
    /// `a4nn baseline`
    Baseline,
    /// `a4nn xpsi`
    Xpsi,
    /// `a4nn dataset`
    Dataset,
    /// `a4nn analyze`
    Analyze,
    /// `a4nn viz`
    Viz,
    /// `a4nn export`
    Export,
    /// `a4nn stats`
    Stats,
    /// `a4nn worker`
    Worker,
    /// `a4nn serve`
    Serve,
    /// `a4nn reproduce`
    Reproduce,
    /// `a4nn help`
    Help,
}

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "--beam",
    "--seed",
    "--out",
    "--gpus",
    "--population",
    "--offspring",
    "--generations",
    "--epochs",
    "--orchestration",
    "--objectives",
    "--workers",
    "--heartbeat-ms",
    "--max-retries",
    "--resume",
    "--run",
    "--images",
    "--function",
    "--e-pred",
    "--n-converge",
    "--r",
    "--commons",
    "--model",
    "--listen",
    "--sessions",
    "--batch",
    "--queue",
    "--batch-workers",
    "--ws-limit-mb",
    "--idle-ms",
    "--metrics-out",
];

/// Boolean flags.
const BOOL_FLAGS: &[&str] = &["--real", "--dot"];

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The subcommand.
    pub command: Command,
    values: BTreeMap<String, String>,
    bools: Vec<String>,
}

impl Parsed {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
        let mut it = argv.iter();
        let command = match it.next().map(String::as_str) {
            None => return Err(ArgError::MissingCommand),
            Some("search") => Command::Search,
            Some("baseline") => Command::Baseline,
            Some("xpsi") => Command::Xpsi,
            Some("dataset") => Command::Dataset,
            Some("analyze") => Command::Analyze,
            Some("viz") => Command::Viz,
            Some("export") => Command::Export,
            Some("stats") => Command::Stats,
            Some("worker") => Command::Worker,
            Some("serve") => Command::Serve,
            Some("reproduce") => Command::Reproduce,
            Some("help" | "--help" | "-h") => Command::Help,
            Some(other) => return Err(ArgError::UnknownCommand(other.to_string())),
        };
        let mut values = BTreeMap::new();
        let mut bools = Vec::new();
        while let Some(flag) = it.next() {
            if BOOL_FLAGS.contains(&flag.as_str()) {
                bools.push(flag.clone());
            } else if VALUE_FLAGS.contains(&flag.as_str()) {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(flag.clone()))?;
                values.insert(flag.clone(), value.clone());
            } else {
                return Err(ArgError::UnknownFlag(flag.clone()));
            }
        }
        Ok(Parsed {
            command,
            values,
            bools,
        })
    }

    /// Raw string value of a flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// Boolean flag presence.
    pub fn flag(&self, flag: &str) -> bool {
        self.bools.iter().any(|f| f == flag)
    }

    /// Typed accessor with default.
    pub fn get_parse<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: raw.to_string(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_search_with_options() {
        let p = Parsed::parse(&argv("search --beam low --gpus 4 --r 0.5 --real")).unwrap();
        assert_eq!(p.command, Command::Search);
        assert_eq!(p.get("--beam"), Some("low"));
        assert_eq!(p.get_parse("--gpus", 1usize, "usize").unwrap(), 4);
        assert_eq!(p.get_parse("--r", 0.1f64, "f64").unwrap(), 0.5);
        assert!(p.flag("--real"));
        assert!(!p.flag("--dot"));
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let p = Parsed::parse(&argv("baseline")).unwrap();
        assert_eq!(p.get_parse("--gpus", 1usize, "usize").unwrap(), 1);
        assert_eq!(p.get("--beam"), None);
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(Parsed::parse(&[]).unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert_eq!(
            Parsed::parse(&argv("launch")).unwrap_err(),
            ArgError::UnknownCommand("launch".into())
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(
            Parsed::parse(&argv("search --bogus 1")).unwrap_err(),
            ArgError::UnknownFlag("--bogus".into())
        );
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            Parsed::parse(&argv("search --beam")).unwrap_err(),
            ArgError::MissingValue("--beam".into())
        );
    }

    #[test]
    fn bad_value_is_an_error() {
        let p = Parsed::parse(&argv("search --gpus four")).unwrap();
        assert!(matches!(
            p.get_parse("--gpus", 1usize, "usize"),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn help_aliases() {
        for alias in ["help", "--help", "-h"] {
            assert_eq!(Parsed::parse(&argv(alias)).unwrap().command, Command::Help);
        }
    }
}
