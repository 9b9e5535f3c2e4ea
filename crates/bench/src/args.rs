//! The one argument parser of the `cardbench` binary, and what every
//! sub-command derives from it: the benchmark configuration, the
//! harness guard rails and the trace destination.

use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use cardbench_harness::{BenchConfig, RunOptions};

/// Why a sub-command did not succeed; decides the exit code.
#[derive(Debug)]
pub enum Fail {
    /// The command line is wrong (exit code 2, usage is printed).
    Usage(String),
    /// The run violated something it checks (exit code 1).
    Check(String),
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail::Check(msg)
    }
}

/// Every flag the binary accepts: name, the name of the value that
/// follows (if one does), help. Both `--flag value` and `--flag=value`
/// are accepted.
pub const FLAGS: [(&str, Option<&str>, &str); 8] = [
    (
        "--threads",
        Some("N"),
        "planning fan-out width; 0 or unset = CARDBENCH_THREADS, else all cores",
    ),
    (
        "--trace",
        Some("PATH"),
        "record spans and metrics; write a Chrome trace to PATH and Prometheus text to PATH.prom",
    ),
    (
        "--timeout-ms",
        Some("N"),
        "per-sub-plan-estimate wall-clock budget",
    ),
    (
        "--mem-budget-mb",
        Some("N"),
        "executor intermediate-bytes budget per query",
    ),
    (
        "--checkpoint",
        Some("PATH"),
        "stream per-query JSONL records to PATH",
    ),
    (
        "--resume",
        None,
        "skip (estimator, query) pairs already in the checkpoint instead of truncating it",
    ),
    (
        "--require-span",
        Some("NAME"),
        "validate-trace: a span name that must occur (repeatable)",
    ),
    (
        "--require-family",
        Some("NAME"),
        "validate-trace: a metric family that must occur (repeatable)",
    ),
];

/// A parsed command line: operands in order, flags by name.
#[derive(Debug, Default)]
pub struct Args {
    /// Everything that is not a flag: the sub-command and its operands.
    pub operands: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Parses the arguments after the program name. An unknown flag or a
    /// flag without its value is a usage error.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, Fail> {
        let mut args = Args::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.operands.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(&(flag, operand, _)) = FLAGS.iter().find(|(f, ..)| *f == name) else {
                return Err(Fail::Usage(format!("unknown flag `{name}`")));
            };
            let value = match (operand, inline) {
                (Some(_), Some(value)) => value,
                (Some(operand), None) => argv
                    .next()
                    .ok_or_else(|| Fail::Usage(format!("`{flag}` needs its {operand}")))?,
                (None, None) => String::new(),
                (None, Some(_)) => {
                    return Err(Fail::Usage(format!("`{flag}` takes no value")));
                }
            };
            args.flags.push((flag, value));
        }
        Ok(args)
    }

    /// The one operand a sub-command takes, looked up by name in the
    /// table it dispatches from; anything else is a usage error.
    pub fn target<'t, T>(
        &self,
        table: &'t [T],
        name_of: impl Fn(&T) -> &'static str,
    ) -> Result<&'t T, Fail> {
        let [command, name] = self.operands.as_slice() else {
            return Err(Fail::Usage("expected exactly one target".into()));
        };
        table
            .iter()
            .find(|t| name_of(t) == name)
            .ok_or_else(|| Fail::Usage(format!("unknown {command} target `{name}`")))
    }

    /// Every value given for `flag`, in command-line order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The first value of `flag`, parsed; a malformed value is a usage
    /// error rather than a silently ignored one.
    fn number<T: FromStr>(&self, flag: &str) -> Result<Option<T>, Fail> {
        self.values(flag)
            .next()
            .map(|v| {
                v.parse()
                    .map_err(|_| Fail::Usage(format!("`{flag}`: `{v}` is not a valid number")))
            })
            .transpose()
    }

    /// Where `--trace` wants the profile; `None` leaves recording off.
    pub fn trace(&self) -> Option<PathBuf> {
        self.values("--trace").next().map(PathBuf::from)
    }

    /// The benchmark configuration: `CARDBENCH_FAST=1` picks the tiny
    /// tier, `CARDBENCH_SEED` the seed (default 7), `CARDBENCH_SCALE`
    /// overrides the STATS row-count multiplier, `--threads` the planning
    /// fan-out (the harness resolves `CARDBENCH_THREADS` when it stays 0).
    pub fn config(&self) -> Result<BenchConfig, Fail> {
        let seed = std::env::var("CARDBENCH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        let mut cfg = if fast() {
            BenchConfig::fast(seed)
        } else {
            BenchConfig::standard(seed)
        };
        if let Some(scale) = std::env::var("CARDBENCH_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            cfg.stats.scale = scale;
        }
        if let Some(threads) = self.number("--threads")? {
            cfg.threads = threads;
        }
        Ok(cfg)
    }

    /// The harness guard rails (`--timeout-ms`, `--mem-budget-mb`,
    /// `--checkpoint`, `--resume`) on top of a planning thread count.
    pub fn run_options(&self, threads: usize) -> Result<RunOptions, Fail> {
        let mut opts = RunOptions::with_threads(threads);
        opts.timeout = self.number("--timeout-ms")?.map(Duration::from_millis);
        opts.mem_budget_bytes = self
            .number::<u64>("--mem-budget-mb")?
            .map(|mb| mb * (1u64 << 20));
        opts.checkpoint = self.values("--checkpoint").next().map(PathBuf::from);
        opts.resume = self.values("--resume").next().is_some();
        Ok(opts)
    }
}

/// `CARDBENCH_FAST=1`: CI-sized data, workloads and sweeps (seconds).
pub fn fast() -> bool {
    std::env::var("CARDBENCH_FAST").is_ok_and(|v| v == "1")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, Fail> {
        Args::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn both_flag_forms_and_operands_in_order() {
        let args = parse(&[
            "smoke",
            "--threads=3",
            "chaos",
            "--trace",
            "t.json",
            "--resume",
        ])
        .expect("parses");
        assert_eq!(args.operands, ["smoke", "chaos"]);
        assert_eq!(args.trace(), Some(PathBuf::from("t.json")));
        assert_eq!(args.config().expect("config").threads, 3);
        let opts = args.run_options(3).expect("options");
        assert!(opts.resume && opts.timeout.is_none());
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        for argv in [
            &["report", "--sessions", "4"][..],
            &["report", "--trace"],
            &["report", "--resume=yes"],
        ] {
            assert!(matches!(parse(argv), Err(Fail::Usage(_))), "{argv:?}");
        }
        let args = parse(&["report", "--timeout-ms", "soon"]).expect("parses");
        assert!(matches!(args.run_options(0), Err(Fail::Usage(_))));
    }
}
