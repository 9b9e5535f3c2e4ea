//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml            # everything, once
//! ... -- --workload NAME --seed N --seconds S --trace 0|1             # one run
//! ... -- --spread K                                                   # everything, K times at one seed, gated
//! ... -- --compare BASE.json NEW.json                                 # two results side by side
//! ```

mod names;
mod reduce;
mod run;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

use run::{Outcome, RUN_SECONDS};
use trace::Tracer;
use workloads::ceb_e2e::CebE2e;
use workloads::infer_zoo::InferZoo;
use workloads::plan_search::PlanSearch;
use workloads::serve_mix::ServeMix;
use workloads::update_churn::UpdateChurn;
use workloads::Workload;

const DEFAULT_SEED: u64 = 7;
const DEFAULT_SPREAD_RUNS: usize = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// Scales the workload's constant P (`run::passes_per_setup`); the
    /// clock decides nothing. Whoever gates a change on the benchmark
    /// passes `run_seconds` of `BENCHMARK.json` here.
    seconds: u64,
    trace: bool,
    spread: Option<usize>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        spread: None,
        compare: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        value
            .as_deref()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} takes a whole number"))
    }
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => {
                let name = argv.next().ok_or("--workload takes a name")?;
                if !reduce::valid_name(&name) || !names::WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}; the workloads are {:?}",
                        names::WORKLOADS
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => args.seed = number(&flag, argv.next())?,
            "--seconds" => args.seconds = number(&flag, argv.next())?,
            "--trace" => {
                args.trace = match argv.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--spread" => {
                let given = argv.peek().is_some_and(|v| !v.starts_with("--"));
                args.spread = Some(if given {
                    number(&flag, argv.next())?
                } else {
                    DEFAULT_SPREAD_RUNS
                });
                if args.spread == Some(0) {
                    return Err("--spread takes at least 1".to_string());
                }
            }
            "--compare" => {
                let two = (argv.next(), argv.next());
                let (Some(base), Some(new)) = two else {
                    return Err("--compare takes two result files".to_string());
                };
                args.compare = Some((base, new));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn one_run(name: &str, seed: u64, seconds: u64, trace: bool) -> Outcome {
    // Set-up is single-threaded: this pins the crates' own fan-out.
    std::env::set_var("CARDBENCH_THREADS", "1");
    let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new()));
    fn go<W: Workload>(seed: u64, seconds: u64, trace: bool, tracer: &'static Tracer) -> Outcome {
        if trace {
            run::traced::<W>(seed, tracer)
        } else {
            run::untraced::<W>(seed, seconds, tracer)
        }
    }
    match name {
        CebE2e::NAME => go::<CebE2e>(seed, seconds, trace, tracer),
        PlanSearch::NAME => go::<PlanSearch>(seed, seconds, trace, tracer),
        InferZoo::NAME => go::<InferZoo>(seed, seconds, trace, tracer),
        ServeMix::NAME => go::<ServeMix>(seed, seconds, trace, tracer),
        UpdateChurn::NAME => go::<UpdateChurn>(seed, seconds, trace, tracer),
        _ => unreachable!("parse_args admits the five workloads only"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return match suite::compare(base, new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(why) => {
                eprintln!("{why}");
                ExitCode::from(2)
            }
        };
    }
    let Some(name) = &args.workload else {
        let runs = args.spread.unwrap_or(1);
        return if suite::run_all(args.seed, args.seconds, runs) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };

    let outcome = one_run(name, args.seed, args.seconds, args.trace);
    for (metric, value, unit) in &outcome.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    for error in outcome.errors.iter().take(20) {
        eprintln!("[benchmark] {name}: {error}");
    }
    println!("{}", outcome.info_json(args.seed).compact());
    println!("{}", outcome.result_json().compact());
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use cardbench_support::json::Json;

    use super::*;
    use crate::trace::Tracer;

    /// `BENCHMARK.json` names exactly the workloads and metrics the code
    /// reports, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("a list")
                .to_vec()
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, names::WORKLOADS);
        // N and P of every workload are on record in its `why`.
        fn constants<W: Workload>() -> (&'static str, String) {
            (W::NAME, format!("N={} P={}", W::OPS, W::PASSES))
        }
        let want = [
            constants::<CebE2e>(),
            constants::<PlanSearch>(),
            constants::<InferZoo>(),
            constants::<ServeMix>(),
            constants::<UpdateChurn>(),
        ];
        for (w, (name, np)) in list("workloads").iter().zip(want) {
            assert_eq!(text(w, "name"), name);
            assert!(
                text(w, "why").ends_with(&np),
                "{name}: why must end with {np}"
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = names::END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.into(), u.into(), b.into(), bound))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = names::per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(layers, want);
        for (name, _, _) in &layers {
            assert!(reduce::valid_name(name), "{name}");
        }
    }

    /// Equal seeds give equal op lists, other seeds give other lists.
    #[test]
    fn input_digest_follows_the_seed() {
        let tracer: &'static Tracer = Box::leak(Box::new(Tracer::new()));
        let digest = |seed| {
            let mut clock = workloads::SetupClock::default();
            PlanSearch::setup(seed, &mut clock, tracer).digest()
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }
}
