//! The whole benchmark: every workload untraced then traced, K times
//! over at one seed (`--spread K`), and the comparison of two such
//! results (`--compare`). Each run is a fresh process of this binary — what
//! whoever gates a change on the benchmark runs too — so the spreads
//! measured here are spreads of the same thing.

use std::collections::BTreeMap;
use std::process::Command;

use cardbench_support::json::Json;

use crate::names::{per_layer, END_TO_END, WORKLOADS};
use crate::reduce::{median, quartiles};
use crate::run::out_dir;

/// A single run may be this far from the median of its set, as a share
/// of the median, before the spread gate fails.
const SINGLE_RUN_LIMIT: f64 = 0.10;

/// Whether a per-layer metric is a count or a deterministic output,
/// which must repeat exactly from run to run. A cache's hit ratio is
/// one only where a single thread uses the cache: two sessions that miss
/// on the same key at the same time both count a miss.
fn must_repeat(name: &str, unit: &str, threads: f64) -> bool {
    matches!(unit, "count" | "bytes")
        || (name.ends_with("hit_ratio") && threads == 1.0)
        || name.starts_with("metrics.q_error")
        || name == "metrics.p_error_p90"
}

/// Runs one workload in a child process and parses its last two lines.
fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path unknown: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("{workload}: not started: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>| {
        line.ok_or_else(|| format!("{workload}: printed no result"))
            .and_then(|l| Json::parse(l).map_err(|e| format!("{workload}: {e}")))
    };
    let result = parse(lines.next())?;
    let info = parse(lines.next())?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload} (trace {}): failed\n{}",
            u8::from(trace),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok((info, result))
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Object(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            out.insert(
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            );
        }
    }
    out
}

fn host(seed: u64, seconds: u64, runs: usize) -> Json {
    let said = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or("unknown".to_string(), |o| {
                String::from_utf8_lossy(&o.stdout).trim().to_string()
            })
    };
    // The commit the working tree stands on, marked when the tree holds
    // changes the commit does not.
    let mut commit = said("git", &["rev-parse", "HEAD"]);
    if !matches!(
        said("git", &["status", "--porcelain"]).as_str(),
        "" | "unknown"
    ) {
        commit.push_str("+changes");
    }
    Json::object([
        (
            "nproc",
            Json::Number(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::String(said("rustc", &["--version"]))),
        ("commit", Json::String(commit)),
        ("seed", Json::Number(seed as f64)),
        ("run_seconds", Json::Number(seconds as f64)),
        ("runs", Json::Number(runs as f64)),
    ])
}

fn numbers(values: &[f64]) -> Json {
    Json::Array(values.iter().map(|&v| Json::Number(v)).collect())
}

/// Runs every workload, untraced then traced, `runs` times at `seed`,
/// so every run of a workload has the same op list. Prints every metric
/// by name with its unit, writes `out/results.json` (one run) or
/// `out/spreads.json` (more), and returns whether every check and — for
/// more than one run — the spread gate passed.
pub fn run_all(seed: u64, seconds: u64, runs: usize) -> bool {
    let mut ok = true;
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        // metric -> one value per run.
        let mut e2e: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut layers: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut infos = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for k in 0..runs {
            for trace in [false, true] {
                eprintln!(
                    "[benchmark] {workload} run {} of {runs} trace {}",
                    k + 1,
                    u8::from(trace)
                );
                match child(workload, seed, seconds, trace) {
                    Ok((info, result)) => {
                        let into = if trace { &mut layers } else { &mut e2e };
                        for (name, v) in metric_values(&result) {
                            into.entry(name).or_default().push(v);
                        }
                        attempted += result
                            .get("attempted")
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0);
                        failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
                        if !trace {
                            infos.push(info);
                        }
                    }
                    Err(why) => {
                        eprintln!("{why}");
                        ok = false;
                    }
                }
            }
        }

        let digest = infos.first().and_then(|i| i.get("digest")).cloned();
        if infos.iter().any(|i| i.get("digest") != digest.as_ref()) {
            println!("  GATE: {workload}: runs of one seed printed different input digests");
            ok = false;
        }
        let threads = infos
            .first()
            .and_then(|i| i.get("threads"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);

        let mut e2e_json = Vec::new();
        for (name, unit, _, bound) in END_TO_END {
            let Some(values) = e2e.get(name).filter(|v| v.len() == runs) else {
                ok = false;
                continue;
            };
            let [q1, q2, q3] = quartiles(values);
            let mid = median(values);
            let spread = (q3 - q1) / mid;
            let worst = values
                .iter()
                .map(|v| (v - mid).abs() / mid)
                .fold(0.0, f64::max);
            println!("{workload:<13} {name:<18} {mid:>14.6} {unit:<4} spread {spread:.4} worst {worst:.4}");
            if runs > 1 {
                if worst > SINGLE_RUN_LIMIT {
                    println!(
                        "  GATE: a single run is {worst:.4} from the median (limit {SINGLE_RUN_LIMIT})"
                    );
                    ok = false;
                }
                if bound < 2.0 * spread {
                    println!(
                        "  GATE: bound {bound} is below twice the quartile spread {spread:.4}"
                    );
                    ok = false;
                }
            }
            e2e_json.push((
                name,
                Json::object([
                    ("unit", Json::String(unit.to_string())),
                    ("bound", Json::Number(bound)),
                    ("median", Json::Number(mid)),
                    ("q1", Json::Number(q1)),
                    ("q2", Json::Number(q2)),
                    ("q3", Json::Number(q3)),
                    ("spread", Json::Number(spread)),
                    ("worst_deviation", Json::Number(worst)),
                    ("values", numbers(values)),
                ]),
            ));
        }
        let mut layer_json = Vec::new();
        for (name, unit, _) in per_layer() {
            let Some(values) = layers.get(&name).filter(|v| v.len() == runs) else {
                ok = false;
                continue;
            };
            let mid = median(values);
            println!("{workload:<13} {name:<38} {mid:>16.6} {unit}");
            if must_repeat(&name, unit, threads)
                && values.iter().any(|v| v.to_bits() != values[0].to_bits())
            {
                println!("  GATE: {name} must repeat exactly, got {values:?}");
                ok = false;
            }
            layer_json.push((
                name,
                Json::object([
                    ("unit", Json::String(unit.to_string())),
                    ("median", Json::Number(mid)),
                    ("values", numbers(values)),
                ]),
            ));
        }
        println!("{workload:<13} ops_attempted {attempted} ops_failed {failed}");
        ok &= failed == 0.0;
        workloads.push((
            workload,
            Json::object([
                ("digest", digest.unwrap_or(Json::Null)),
                ("runs", Json::Array(infos)),
                ("ops_attempted", Json::Number(attempted)),
                ("ops_failed", Json::Number(failed)),
                ("end_to_end", Json::object(e2e_json)),
                ("per_layer", Json::object(layer_json)),
            ]),
        ));
    }

    let doc = Json::object([
        ("host", host(seed, seconds, runs)),
        ("workloads", Json::object(workloads)),
    ]);
    let path = out_dir().join(if runs > 1 {
        "spreads.json"
    } else {
        "results.json"
    });
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.pretty())) {
        Ok(()) => eprintln!("[benchmark] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[benchmark] {} not written: {e}", path.display());
            ok = false;
        }
    }
    ok
}

/// Prints one row per workload and end-to-end metric of two results of
/// [`run_all`]: base, new, their ratio, the larger of the two quartile
/// spreads, the bound and a verdict. `unresolved` means that spread
/// exceeds the bound, so the pair cannot show a change of that size;
/// `REGRESSION` means worse by more than the bound; `worse` means worse
/// by more than the spread, so the runs resolve it, yet within the
/// bound. Refuses two results whose input digests differ. Returns
/// whether no row is a regression.
pub fn compare(base_path: &str, new_path: &str) -> Result<bool, String> {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    for workload in WORKLOADS {
        let digest = |doc: &Json| {
            doc.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("digest"))
                .and_then(Json::as_str)
                .map(str::to_string)
        };
        match (digest(&base), digest(&new)) {
            (Some(b), Some(n)) if b == n => {}
            (b, n) => return Err(format!(
                "{workload}: the two results measured different inputs (digests {b:?} and {n:?}); \
                     run both sides at one seed"
            )),
        }
    }
    let field = |doc: &Json, workload: &str, path: &[&str]| {
        let mut at = doc.get("workloads").and_then(|w| w.get(workload));
        for key in path {
            at = at.and_then(|j| j.get(key));
        }
        at.and_then(Json::as_f64)
    };
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>8} {:>6} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "spread", "bound"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        for (name, unit, better, bound) in END_TO_END {
            let get = |doc: &Json, key: &str| field(doc, workload, &["end_to_end", name, key]);
            let (Some(b), Some(n)) = (get(&base, "median"), get(&new, "median")) else {
                println!("{workload:<13} {name:<18} missing from one side");
                clean = false;
                continue;
            };
            let spread = get(&base, "spread")
                .unwrap_or(0.0)
                .max(get(&new, "spread").unwrap_or(0.0));
            let worse_by = if better == "lower" {
                n / b - 1.0
            } else {
                1.0 - n / b
            };
            let verdict = if spread > bound {
                "unresolved"
            } else if worse_by > bound {
                clean = false;
                "REGRESSION"
            } else if worse_by > spread {
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload:<13} {name:<18} {b:>14.6} {n:>14.6} {:>8.4} {spread:>6.3} {bound:>6}  {verdict} ({unit}, {better} is better)",
                n / b
            );
        }
        let share = |doc: &Json| {
            let failed = field(doc, workload, &["ops_failed"]).unwrap_or(0.0);
            let attempted = field(doc, workload, &["ops_attempted"]).unwrap_or(0.0);
            (failed, attempted)
        };
        let ((bf, ba), (nf, na)) = (share(&base), share(&new));
        println!(
            "{workload:<13} failed ops        base {bf}/{ba} ({:.6})  new {nf}/{na} ({:.6})",
            if ba > 0.0 { bf / ba } else { 0.0 },
            if na > 0.0 { nf / na } else { 0.0 }
        );
        if na > 0.0 && ba > 0.0 && nf / na > bf / ba {
            clean = false;
        }
    }
    Ok(clean)
}
