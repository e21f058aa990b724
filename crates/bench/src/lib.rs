//! Shared plumbing for the experiment binaries.
//!
//! Each experiment regenerates one table or figure of the paper (see
//! DESIGN.md §5) and is one row of [`EXPERIMENTS`]; its binary is
//! `fn main() { numa_bench::main("<name>") }`. Output is an aligned
//! text table, optionally CSV. A tiny hand-rolled flag parser keeps the
//! workspace free of CLI dependencies.

pub mod output;
pub mod registry;
pub mod trace_run;

pub use output::RunOutput;
pub use registry::{Experiment, Pin, EXPERIMENTS};
pub use trace_run::{embed_counters, traced_next_touch_episode, TracedEpisode};

use std::env;

/// The flags, as `--help` prints them after `usage: <binary> `.
const USAGE: &str = "[--csv] [--full] [--seed <u64>] [--trace <file>] [--json <file>] \
[--jobs <n>] [--shards <n>] | --list
  --csv           print each table as CSV (stdout holds only CSV; titles go to stderr)
  --full          run the paper-sized sweep (slower)
  --seed <n>      workload seed (default 0); same seed, same table
  --trace <file>  write a Chrome/Perfetto event trace
  --json <file>   write the tables as machine-readable JSON
  --jobs <n>      host threads for the sweep (default 1); output is identical for any value
  --shards <n>    shards for the sharded engine (multitenant only, default 1); output is identical for any value
  --list          print every experiment's binary name and exit
  (value flags also accept --flag=value)";

/// Parsed common command-line options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Print each table as a CSV block on stdout, titles on stderr.
    pub csv: bool,
    /// Run the full paper-sized parameter sweep (default: a reduced sweep
    /// that finishes in seconds).
    pub full: bool,
    /// Workload seed for experiments with randomized access orders.
    /// The same seed always regenerates byte-identical tables.
    pub seed: u64,
    /// Write a Chrome-trace-format event trace of a representative run to
    /// this file (loadable in Perfetto / chrome://tracing).
    pub trace: Option<String>,
    /// Write the run's tables and metadata as machine-readable JSON to
    /// this file (e.g. `results/fig5.json`).
    pub json: Option<String>,
    /// Host threads for the sweep runner (`--jobs`, default 1). Sweeps
    /// distribute their independent items over this many threads; every
    /// simulation stays single-threaded and the emitted tables/JSON are
    /// byte-identical to a `--jobs 1` run.
    pub jobs: usize,
    /// Shards for the sharded engine (`--shards`, default 1). Only the
    /// `multitenant` workload uses it; output is byte-identical for any
    /// value (engine-level parallelism, deterministic window merge).
    pub shards: usize,
}

/// Why [`Options::try_parse_from`] stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// `--help`/`-h` was given; the caller should print usage and exit 0.
    Help,
    /// `--list` was given; the caller should print the [`EXPERIMENTS`]
    /// names and exit 0.
    List,
    /// A real parse error with its message.
    Invalid(String),
}

impl Options {
    /// Parse an explicit argument list. Every value-taking flag accepts
    /// both `--flag value` and `--flag=value`.
    pub fn try_parse_from<I>(args: I) -> Result<Options, ParseError>
    where
        I: IntoIterator<Item = String>,
    {
        let mut o = Options {
            jobs: 1,
            shards: 1,
            ..Options::default()
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let mut value = |flag: &str| -> Result<String, ParseError> {
                match inline.clone().or_else(|| args.next()) {
                    Some(v) => Ok(v),
                    None => Err(ParseError::Invalid(format!("{flag} needs a value"))),
                }
            };
            match flag.as_str() {
                "--csv" => o.csv = true,
                "--full" => o.full = true,
                "--seed" => {
                    let v = value("--seed")?;
                    o.seed = v.parse().map_err(|_| {
                        ParseError::Invalid(format!("--seed takes an unsigned integer, got {v}"))
                    })?;
                }
                "--trace" => o.trace = Some(value("--trace")?),
                "--json" => o.json = Some(value("--json")?),
                "--jobs" | "-j" => {
                    let v = value("--jobs")?;
                    o.jobs = v.parse().ok().filter(|&j| j > 0).ok_or_else(|| {
                        ParseError::Invalid(format!("--jobs takes a positive integer, got {v}"))
                    })?;
                }
                "--shards" => {
                    let v = value("--shards")?;
                    o.shards = v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        ParseError::Invalid(format!("--shards takes a positive integer, got {v}"))
                    })?;
                }
                "--help" | "-h" => return Err(ParseError::Help),
                "--list" => return Err(ParseError::List),
                other => {
                    return Err(ParseError::Invalid(format!(
                        "unknown flag {other} (try --help)"
                    )))
                }
            }
            if inline.is_some() && matches!(flag.as_str(), "--csv" | "--full") {
                return Err(ParseError::Invalid(format!("{flag} takes no value")));
            }
        }
        Ok(o)
    }

    /// Parse `std::env::args`, exiting with usage on `--help`, with the
    /// experiment names on `--list`, or with an error on unknown flags.
    pub fn parse(binary: &str, what: &str) -> Options {
        match Options::try_parse_from(env::args().skip(1)) {
            Ok(o) => o,
            Err(ParseError::Help) => {
                eprintln!("{binary}: regenerate {what}\nusage: {binary} {USAGE}");
                std::process::exit(0);
            }
            Err(ParseError::List) => {
                for e in EXPERIMENTS {
                    println!("{}", e.name);
                }
                std::process::exit(0);
            }
            Err(ParseError::Invalid(msg)) => {
                eprintln!("{binary}: {msg}");
                std::process::exit(2);
            }
        }
    }
}

/// Run the [`EXPERIMENTS`] row called `name` as a binary: parse the
/// command line, print its tables and write the `--json`/`--trace`
/// files.
pub fn main(name: &str) {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .expect("every experiment binary is a registry row");
    let opts = Options::parse(exp.name, exp.what);
    let mut out = RunOutput::new(exp, opts.clone());
    (exp.run)(&opts, &mut out);
    out.finish();
}

/// Format MB/s with one decimal.
pub fn mbps(v: f64) -> String {
    format!("{v:.1}")
}

/// Format seconds with adaptive precision (the paper's Table 1 style).
pub fn secs(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0} s")
    } else if v >= 10.0 {
        format!("{v:.1} s")
    } else if v >= 0.1 {
        format!("{v:.2} s")
    } else {
        format!("{:.2} ms", v * 1e3)
    }
}

/// Format a signed percentage (the paper's Improvement column).
pub fn percent(v: f64) -> String {
    format!("{v:+.1} %")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(mbps(612.34), "612.3");
        assert_eq!(secs(1721.0), "1721 s");
        assert_eq!(secs(87.5), "87.5 s");
        assert_eq!(secs(2.6), "2.60 s");
        assert_eq!(percent(129.0), "+129.0 %");
        assert_eq!(percent(-47.1), "-47.1 %");
    }
}
