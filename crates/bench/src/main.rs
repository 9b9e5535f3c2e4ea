//! `cardbench` — the workspace's one tooling binary. Timings anyone
//! compares come from `benchmark/` (see `BENCHMARK.json`); this binary
//! prints the paper's reports and gates CI with smoke suites, three of
//! which are the scaling studies that benchmark cannot express.
//!
//! ```text
//! cardbench report <target>         tables, figures, observation checks, auxiliary experiments
//! cardbench smoke <suite>           end-to-end CI gates; with --trace, validates its own profile;
//!                                   executor / serve / chaos-serve write BENCH_*.json unless FAST
//! cardbench dump-dataset            CSV + SQL export under ./cardbench_export/
//! cardbench validate-trace <trace>  structural check of a --trace profile pair
//! ```
//!
//! Scale knobs (environment variables):
//! - `CARDBENCH_FAST=1`  — tiny datasets/workloads/studies (CI-sized, seconds).
//! - `CARDBENCH_SEED`    — global seed (default 7).
//! - `CARDBENCH_SCALE`   — STATS row-count multiplier override.
//! - `CARDBENCH_THREADS` — planning fan-out width when `--threads` is
//!   0 or unset (default: all cores).
//!
//! Flags are listed by `cardbench` without arguments (see
//! [`args::FLAGS`]). `--trace PATH` turns span/metric recording on for
//! the run — it is off otherwise, so the default path stays
//! overhead-free — and writes a Chrome `trace_event` JSON profile to
//! `PATH` (open in `chrome://tracing` or Perfetto) plus a Prometheus
//! text dump to `PATH.prom`.

use std::fmt::Write as _;
use std::process::ExitCode;

/// Returns `Err` with the formatted message unless the condition holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+).into());
        }
    };
}

mod args;
mod dump;
mod experiments;
mod report;
mod serving;
mod smoke;
mod sweep;
mod trace_check;

use args::{Args, Fail};
use trace_check::Required;

/// The targets a sub-command accepts as its operand.
type Targets = fn() -> Vec<&'static str>;

/// One sub-command: name, operand targets (if it takes one), what it
/// does, how. A run returns what its trace must contain, if anything.
type Command = (
    &'static str,
    Option<Targets>,
    &'static str,
    fn(&Args) -> Result<Option<&'static Required>, Fail>,
);

/// The table both the usage text and the dispatch read.
const COMMANDS: [Command; 4] = [
    (
        "report",
        Some(report::targets),
        "print a table, figure, observation check or auxiliary experiment",
        report::run,
    ),
    (
        "smoke",
        Some(smoke::targets),
        "run one CI gate end to end; with --trace, validate the profile it wrote; \
         executor, serve and chaos-serve write BENCH_<name>.json unless CARDBENCH_FAST=1",
        smoke::run,
    ),
    (
        "dump-dataset",
        None,
        "export both datasets as CSV and both workloads as SQL under ./cardbench_export/",
        dump::run,
    ),
    (
        "validate-trace",
        None,
        "check a --trace profile pair: validate-trace <trace.json> [--require-span N]... [--require-family N]...",
        trace_check::run,
    ),
];

fn usage() -> String {
    let mut out =
        String::from("usage: cardbench <sub-command> [operand] [flags]\n\nsub-commands:\n");
    for (name, targets, about, _) in COMMANDS {
        let operand = targets.map_or(String::new(), |t| format!(" <{}>", t().join("|")));
        writeln!(out, "  {name}{operand}\n      {about}").expect("writing to a String");
    }
    out.push_str("\nflags (`--flag value` or `--flag=value`):\n");
    for (flag, operand, about) in args::FLAGS {
        let flag = format!("{flag} {}", operand.unwrap_or_default());
        writeln!(out, "  {flag:<22} {about}").expect("writing to a String");
    }
    out.push_str(
        "\nenvironment: CARDBENCH_FAST=1 (tiny tier), CARDBENCH_SEED, CARDBENCH_SCALE, CARDBENCH_THREADS\n",
    );
    out
}

/// Parses, dispatches, then writes — and for a smoke suite validates —
/// the trace the run recorded.
fn run() -> Result<(), Fail> {
    let args = Args::parse(std::env::args().skip(1))?;
    let name = args
        .operands
        .first()
        .ok_or_else(|| Fail::Usage("no sub-command given".into()))?;
    let Some((.., command)) = COMMANDS.iter().find(|(n, ..)| n == name) else {
        return Err(Fail::Usage(format!("unknown sub-command `{name}`")));
    };
    let trace = args.trace();
    if trace.is_some() {
        cardbench_obs::set_enabled(true);
    }
    let outcome = command(&args);
    let Some(path) = trace else {
        return outcome.map(|_| ());
    };
    // Written even after a failed run: the profile is what explains it.
    let (trace_file, prom_file) = cardbench_obs::write_trace(&path)
        .map_err(|e| Fail::Check(format!("trace export failed: {e}")))?;
    eprintln!(
        "[cardbench] trace written to {} (metrics: {})",
        trace_file.display(),
        prom_file.display()
    );
    if let Some(required) = outcome? {
        println!(
            "{}",
            trace_check::check_files(&path, required.spans, required.families)?
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(Fail::Check(msg)) => {
            eprintln!("[cardbench] FAIL: {msg}");
            ExitCode::from(1)
        }
        Err(Fail::Usage(msg)) => {
            eprintln!("cardbench: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
