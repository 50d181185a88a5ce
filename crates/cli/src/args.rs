//! Dependency-light command-line argument parsing.
//!
//! Hand-rolled rather than pulling in a parser crate: the grammar is just
//! `a4nn <subcommand> [--key value]...`. One table, `FLAGS`, declares
//! every flag with the commands that take it: parsing refuses any other
//! flag, and the usage text is rendered from the same table.

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use Command::*;

/// Errors produced by [`Parsed::parse`] and the typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand supplied.
    MissingCommand,
    /// Unknown subcommand.
    UnknownCommand(String),
    /// A `--flag` without its value.
    MissingValue(String),
    /// A flag no command takes.
    UnknownFlag(String),
    /// A flag only other commands take.
    NotTaken(Command, String),
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
            ArgError::NotTaken(command, flag) => {
                write!(f, "{} does not take {flag}", command.name())
            }
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag {flag}: {value:?} is not a valid {expected}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The recognized subcommands; `COMMANDS` gives each its name and help.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    Search,
    Baseline,
    Xpsi,
    Dataset,
    Analyze,
    Viz,
    Export,
    Stats,
    Worker,
    Serve,
    Reproduce,
    Help,
}

/// Every command: its name and its help.
#[rustfmt::skip]
pub(crate) const COMMANDS: &[(Command, &str, &str)] = &[
    (Search, "search", "run the A4NN workflow (NAS + prediction engine)"),
    (Baseline, "baseline", "run standalone NSGA-Net (no prediction engine)"),
    (Xpsi, "xpsi", "run the XPSI baseline on a synthetic dataset"),
    (Dataset, "dataset", "generate a synthetic XFEL diffraction dataset"),
    (Analyze, "analyze", "summarize a data commons directory"),
    (Viz, "viz", "render an architecture from a commons (ASCII or DOT)"),
    (Export, "export", "write models.csv and epochs.csv from a commons"),
    (Stats, "stats", "summarize a run directory offline (metrics, retries, resume state)"),
    (Worker, "worker", "serve trainer jobs to a remote search coordinator over TCP"),
    (Serve, "serve", "serve batched classify requests from a commons' Pareto front"),
    (Reproduce, "reproduce", "regenerate the paper's figures, tables and ablations into\n\
        <out>/reproduction.json; exits 3 when a shape claim no\n\
        longer gives its recorded result"),
    (Help, "help", "print this message"),
];

impl Command {
    /// The command's name on the command line.
    pub fn name(self) -> &'static str {
        COMMANDS
            .iter()
            .find(|(command, ..)| *command == self)
            .map_or("", |(_, name, _)| name)
    }
}

/// One row of [`FLAGS`]: a flag, the placeholder of its value (`None`
/// for a boolean flag), its help and the commands that take it. A help
/// ending in `[v]` shows what the command resolves without the flag
/// (`[--epochs]`: that flag's value).
pub(crate) struct Flag(
    pub &'static str,
    pub Option<&'static str>,
    pub &'static str,
    pub &'static [Command],
);

const DATA: &[Command] = &[Search, Baseline, Xpsi, Dataset];
const SEARCH: &[Command] = &[Search, Baseline];

/// Every flag of every command. Consecutive rows with the same commands
/// form one section of the usage text.
#[rustfmt::skip]
pub(crate) const FLAGS: &[Flag] = &[
    Flag("--beam", Some("low|medium|high"), "beam intensity [medium]", DATA),
    Flag("--seed", Some("u64"), "master seed [2023]", DATA),
    Flag("--images", Some("n"), "images per class for --real, xpsi (at least 2)\n\
        and dataset [100]", DATA),
    Flag("--out", Some("dir"), "run directory: the commons, a snapshot at every\n\
        generation boundary and the run's metrics", SEARCH),
    Flag("--gpus", Some("n"), "virtual GPUs [1]", SEARCH),
    Flag("--population", Some("n"), "starting population (Table 2) [10]", SEARCH),
    Flag("--offspring", Some("n"), "offspring per generation [10]", SEARCH),
    Flag("--generations", Some("n"), "generations [10]", SEARCH),
    Flag("--epochs", Some("n"), "epoch budget per network [25]", SEARCH),
    Flag("--orchestration", Some("mode"), "direct|bus|socket task coupling [direct]", SEARCH),
    Flag("--objectives", Some("name,..."), "comma-separated NSGA objective set, each of\n\
        neg_fitness|flops|params_bytes|macs|peak_ws_bytes\n\
        [neg_fitness,flops]", SEARCH),
    Flag("--workers", Some("addr,..."), "comma-separated worker addresses for\n\
        --orchestration socket", SEARCH),
    Flag("--heartbeat-ms", Some("n"), "declare a silent worker dead after this many\n\
        milliseconds (socket) [2000]", SEARCH),
    Flag("--max-retries", Some("n"), "retries per model after a crashed training\n\
        attempt [2]", SEARCH),
    Flag("--resume", Some("dir"), "continue the interrupted search committed in\n\
        <dir> under the same flags (exit 5 otherwise);\n\
        A4NN_SEARCH_GEN_DELAY_MS=<n> stalls each boundary\n\
        by n ms (CI kill window; wall-clock only)", SEARCH),
    Flag("--real", None, "train for real on the CPU substrate", SEARCH),
    Flag("--function", Some("name"), "parametric function (Table 1), one of\n\
        exp-base|pow3|log3|vap3|weibull4|janoschek3\n\
        [exp-base]", &[Search]),
    Flag("--e-pred", Some("n"), "epoch predicted for [--epochs]", &[Search]),
    Flag("--n-converge", Some("n"), "convergence window N [3]", &[Search]),
    Flag("--r", Some("f64"), "tolerance r [0.5]", &[Search]),
    Flag("--out", Some("file"), "write the dataset here as JSON", &[Dataset]),
    Flag("--commons", Some("dir"), "commons directory (required)", &[Analyze, Viz, Export]),
    Flag("--model", Some("id"), "model id (default: best by fitness)", &[Viz]),
    Flag("--dot", None, "emit Graphviz DOT instead of ASCII", &[Viz]),
    Flag("--out", Some("dir"), "write models.csv and epochs.csv here\n\
        (default: the working directory)", &[Export]),
    Flag("--run", Some("dir"), "run directory to summarize (required): reads\n\
        metrics.json, the resume manifest and the\n\
        commons if present; no search is executed", &[Stats]),
    Flag("--listen", Some("addr"), "bind address (required), e.g. 0.0.0.0:7070", &[Worker]),
    Flag("--gpus", Some("n"), "advertised concurrent job slots [1]", &[Worker]),
    Flag("--sessions", Some("n"), "serve this many coordinator sessions then\n\
        exit; 0 serves forever [0]", &[Worker]),
    Flag("--commons", Some("dir"), "commons whose Pareto front to serve (required);\n\
        no command writes its checkpoints/ yet, so each\n\
        model is an untrained rebuild of its genome\n\
        (ROADMAP.md: \"Serve what was trained\")", &[Serve]),
    Flag("--listen", Some("addr"), "bind address (required), e.g. 0.0.0.0:7463", &[Serve]),
    Flag("--batch", Some("n"), "max requests per micro-batch [8]", &[Serve]),
    Flag("--queue", Some("n"), "admission queue capacity; requests beyond it\n\
        are rejected with exit-class 11 [64]", &[Serve]),
    Flag("--batch-workers", Some("n"), "batch worker threads [1]", &[Serve]),
    Flag("--ws-limit-mb", Some("n"), "workspace pool cap per worker, MiB [8]", &[Serve]),
    Flag("--sessions", Some("n"), "serve this many connections then exit;\n\
        0 serves forever [0]", &[Serve]),
    Flag("--idle-ms", Some("n"), "drop a connection with no read/write progress\n\
        for this long [30000]", &[Serve]),
    Flag("--metrics-out", Some("file"), "write the metrics snapshot here as\n\
        connections close (at most every 2 s) and at\n\
        exit", &[Serve]),
    Flag("--out", Some("dir"), "where reproduction.json and runs/ go (required)", &[Reproduce]),
];

/// The usage text printed on parse errors and by `a4nn help`, rendered
/// from `COMMANDS` and `FLAGS`.
pub fn usage() -> String {
    fn row(out: &mut String, left: &str, help: &str, width: usize) {
        for (i, line) in help.lines().enumerate() {
            let left = if i == 0 { left } else { "" };
            let _ = writeln!(out, "  {left:width$}{line}");
        }
    }
    let mut out = String::from("usage: a4nn <command> [options]\n\ncommands:\n");
    for (_, name, help) in COMMANDS {
        row(&mut out, name, help, 11);
    }
    let mut section: &[Command] = &[];
    for Flag(name, value, help, commands) in FLAGS {
        if *commands != section {
            section = commands;
            let names: Vec<&str> = section.iter().map(|c| c.name()).collect();
            let _ = write!(out, "\n{} options:\n", names.join(", "));
        }
        let left = match value {
            Some(value) => format!("{name} <{value}>"),
            None => name.to_string(),
        };
        row(&mut out, &left, help, 27);
    }
    out
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The subcommand.
    pub command: Command,
    /// Each given flag's value; empty for a boolean flag.
    values: BTreeMap<String, String>,
}

impl Parsed {
    /// Parse `argv` (without the program name), accepting only the flags
    /// `FLAGS` gives the command.
    pub fn parse(argv: &[String]) -> Result<Parsed, ArgError> {
        let mut it = argv.iter();
        let command = match it.next().map(String::as_str) {
            None => return Err(ArgError::MissingCommand),
            Some("--help" | "-h") => Help,
            Some(name) => COMMANDS
                .iter()
                .find(|(_, n, _)| *n == name)
                .map(|(command, ..)| *command)
                .ok_or_else(|| ArgError::UnknownCommand(name.to_string()))?,
        };
        let mut values = BTreeMap::new();
        while let Some(flag) = it.next() {
            let rows = || FLAGS.iter().filter(|Flag(name, ..)| name == flag);
            match rows().find(|Flag(.., commands)| commands.contains(&command)) {
                Some(Flag(_, None, ..)) => {
                    values.insert(flag.clone(), String::new());
                }
                Some(_) => {
                    let value = it
                        .next()
                        .ok_or_else(|| ArgError::MissingValue(flag.clone()))?;
                    values.insert(flag.clone(), value.clone());
                }
                None if rows().next().is_some() => {
                    return Err(ArgError::NotTaken(command, flag.clone()))
                }
                None => return Err(ArgError::UnknownFlag(flag.clone())),
            }
        }
        Ok(Parsed { command, values })
    }

    /// Raw string value of a flag.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// Boolean flag presence.
    pub fn flag(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The flag's value parsed as `T`, or `None` when it was not given.
    pub fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, ArgError> {
        self.get(flag)
            .map(|raw| {
                raw.parse().map_err(|_| ArgError::BadValue {
                    flag: flag.to_string(),
                    value: raw.to_string(),
                    expected: std::any::type_name::<T>(),
                })
            })
            .transpose()
    }

    /// Overwrite `slot` with the flag's value when it was given.
    pub fn set<T: std::str::FromStr>(&self, flag: &str, slot: &mut T) -> Result<(), ArgError> {
        if let Some(value) = self.value(flag)? {
            *slot = value;
        }
        Ok(())
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
        assert_eq!(p.value::<usize>("--gpus").unwrap(), Some(4));
        assert_eq!(p.value::<f64>("--r").unwrap(), Some(0.5));
        assert!(p.flag("--real"));
        assert!(!p.flag("--dot"));
    }

    #[test]
    fn absent_flags_leave_the_default() {
        let p = Parsed::parse(&argv("baseline")).unwrap();
        let mut gpus = 3usize;
        p.set("--gpus", &mut gpus).unwrap();
        assert_eq!(gpus, 3);
        assert_eq!(p.get("--beam"), None);
        assert!(!p.flag("--real"));
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
    fn another_commands_flag_is_an_error_naming_the_command() {
        let err = Parsed::parse(&argv("xpsi --gpus 9")).unwrap_err();
        assert_eq!(err, ArgError::NotTaken(Command::Xpsi, "--gpus".into()));
        assert_eq!(err.to_string(), "xpsi does not take --gpus");
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
        assert_eq!(
            p.value::<usize>("--gpus").unwrap_err().to_string(),
            "flag --gpus: \"four\" is not a valid usize"
        );
    }

    #[test]
    fn help_aliases() {
        for alias in ["help", "--help", "-h"] {
            assert_eq!(Parsed::parse(&argv(alias)).unwrap().command, Command::Help);
        }
    }

    #[test]
    fn no_command_takes_a_flag_twice() {
        for (command, ..) in COMMANDS {
            let mut taken: Vec<&str> = FLAGS
                .iter()
                .filter(|Flag(.., commands)| commands.contains(command))
                .map(|Flag(name, ..)| *name)
                .collect();
            let all = taken.len();
            taken.sort_unstable();
            taken.dedup();
            assert_eq!(taken.len(), all, "{}", command.name());
        }
    }

    #[test]
    fn usage_lists_every_command_and_flag() {
        let text = usage();
        for (_, name, _) in COMMANDS {
            assert!(text.contains(&format!("\n  {name} ")), "{name}");
        }
        for Flag(name, ..) in FLAGS {
            assert!(text.contains(&format!("\n  {name} ")), "{name}");
        }
    }
}
