//! The one per-query record codec, and the two files written with it.
//!
//! [`query_run_to_json`] is a lossless encoding of [`QueryRun`]:
//! durations are integer nanoseconds, `u64` counters are integers (exact
//! in f64 below 2^53), and values that may be non-finite (a failed
//! query's P-Error, fault values) travel as strings because JSON numbers
//! cannot carry NaN/±inf.
//!
//! **Checkpoints** (kill/resume): append-only JSONL, one compact JSON
//! object per line, keyed by `(method, workload, query)`:
//!
//! ```text
//! {"method":"PostgreSQL","workload":"STATS-CEB","query":3,"run":{...}}
//! ```
//!
//! Records are appended and flushed one query at a time, so a killed
//! process loses at most the line it was writing; the loader tolerates a
//! truncated or corrupt tail by skipping unparseable lines (those queries
//! are simply recomputed on resume). Later records win over earlier ones
//! for the same key, so re-running a method over an old checkpoint
//! self-heals.
//!
//! **Results files** (`cardbench report all`): one compact JSON array of
//! method runs, each `{"method","workload","train_ns","model_bytes",
//! "queries":[...]}` with every query in the same encoding, so any table
//! or observation can be recomputed from the file. Unlike a checkpoint,
//! a results file is read whole: any malformed part is an error.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::time::Duration;

use cardbench_engine::ExecStats;
use cardbench_estimators::EstimatorKind;
use cardbench_support::json::{Json, JsonError};

use crate::endtoend::{MethodRun, QueryRun};
use crate::fault::{EstFailure, EstimateError, QueryFailure};

/// The workloads of a results file, in the order of the
/// `[Vec<MethodRun>; 2]` it encodes.
pub const RESULT_WORKLOADS: [&str; 2] = ["JOB-LIGHT", "STATS-CEB"];

/// One parsed checkpoint line.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// Estimator display name.
    pub method: String,
    /// Workload display name.
    pub workload: String,
    /// The per-query record.
    pub run: QueryRun,
}

/// Streams per-query records to a JSONL checkpoint file.
#[derive(Debug)]
pub struct CheckpointWriter {
    out: BufWriter<File>,
}

impl CheckpointWriter {
    /// Opens `path` fresh, discarding any existing checkpoint.
    pub fn create(path: &Path) -> std::io::Result<CheckpointWriter> {
        Ok(CheckpointWriter {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens `path` for appending (creating it if absent) — the resume
    /// mode: existing records stay, new ones follow. A file whose last
    /// line was torn by a kill mid-write gets a newline first, so the
    /// fragment corrupts only itself, never the next record.
    pub fn append(path: &Path) -> std::io::Result<CheckpointWriter> {
        let ends_with_newline = match File::open(path) {
            Ok(mut f) => {
                use std::io::Seek;
                let len = f.seek(std::io::SeekFrom::End(0))?;
                if len == 0 {
                    true
                } else {
                    f.seek(std::io::SeekFrom::End(-1))?;
                    let mut last = [0u8; 1];
                    f.read_exact(&mut last)?;
                    last[0] == b'\n'
                }
            }
            Err(_) => true,
        };
        let mut out = BufWriter::new(OpenOptions::new().append(true).create(true).open(path)?);
        if !ends_with_newline {
            writeln!(out)?;
        }
        Ok(CheckpointWriter { out })
    }

    /// Appends one record and flushes, so a kill right after loses
    /// nothing.
    pub fn write(&mut self, method: &str, workload: &str, run: &QueryRun) -> std::io::Result<()> {
        let line = Json::object([
            ("method", Json::String(method.to_string())),
            ("workload", Json::String(workload.to_string())),
            ("query", Json::Number(run.id as f64)),
            ("run", query_run_to_json(run)),
        ]);
        writeln!(self.out, "{}", line.compact())?;
        self.out.flush()
    }
}

/// Loads every parseable record of a checkpoint file. Unparseable lines
/// (a truncated tail from a killed process) are skipped, not fatal.
pub fn load_checkpoint(path: &Path) -> std::io::Result<Vec<CheckpointRecord>> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;
    let mut records = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(v) = Json::parse(line) else { continue };
        let (Some(method), Some(workload), Some(run)) = (
            v.get("method").and_then(Json::as_str),
            v.get("workload").and_then(Json::as_str),
            v.get("run").and_then(query_run_from_json),
        ) else {
            continue;
        };
        records.push(CheckpointRecord {
            method: method.to_string(),
            workload: workload.to_string(),
            run,
        });
    }
    Ok(records)
}

fn num(n: u64) -> Json {
    Json::Number(n as f64)
}

fn duration_to_json(d: Duration) -> Json {
    // Integer nanoseconds: exact in f64 below 2^53 ns (~104 days).
    Json::Number(d.as_nanos() as f64)
}

fn duration_from_json(v: &Json) -> Option<Duration> {
    v.as_f64()
        .filter(|n| n.is_finite() && *n >= 0.0)
        .map(|n| Duration::from_nanos(n as u64))
}

/// Non-finite-safe f64 encoding: JSON numbers cannot carry NaN/±inf, so
/// fault values travel as their shortest-roundtrip string form.
fn f64_to_json_string(v: f64) -> Json {
    Json::String(format!("{v}"))
}

fn f64_from_json_string(v: &Json) -> Option<f64> {
    v.as_str().and_then(|s| s.parse().ok())
}

fn exec_stats_to_json(s: &ExecStats) -> Json {
    Json::object([
        ("output_rows", num(s.output_rows)),
        ("intermediate_rows", num(s.intermediate_rows)),
        ("build_rows", num(s.build_rows)),
        ("probe_rows", num(s.probe_rows)),
        ("rows_gathered", num(s.rows_gathered)),
        ("partitions_spilled", num(s.partitions_spilled)),
        ("peak_intermediate_bytes", num(s.peak_intermediate_bytes)),
    ])
}

fn exec_stats_from_json(v: &Json) -> Option<ExecStats> {
    let field = |k: &str| v.get(k).and_then(Json::as_f64).map(|n| n as u64);
    Some(ExecStats {
        output_rows: field("output_rows")?,
        intermediate_rows: field("intermediate_rows")?,
        build_rows: field("build_rows")?,
        probe_rows: field("probe_rows")?,
        rows_gathered: field("rows_gathered")?,
        partitions_spilled: field("partitions_spilled")?,
        peak_intermediate_bytes: field("peak_intermediate_bytes")?,
    })
}

fn est_failure_to_json(f: &EstFailure) -> Json {
    let mut pairs = vec![
        ("mask".to_string(), num(f.mask)),
        ("kind".to_string(), Json::String(f.error.kind().to_string())),
    ];
    match &f.error {
        EstimateError::Panicked { message } => {
            pairs.push(("message".to_string(), Json::String(message.clone())));
        }
        EstimateError::TimedOut { elapsed, budget } => {
            pairs.push(("elapsed_ns".to_string(), duration_to_json(*elapsed)));
            pairs.push(("budget_ns".to_string(), duration_to_json(*budget)));
        }
        EstimateError::NonFinite { value } | EstimateError::Degenerate { value } => {
            pairs.push(("value".to_string(), f64_to_json_string(*value)));
        }
        // The breaker short carries no payload: the call never ran.
        EstimateError::Shorted => {}
        EstimateError::DeadlineExceeded { late } => {
            pairs.push(("late_ns".to_string(), duration_to_json(*late)));
        }
    }
    Json::object(pairs)
}

fn est_failure_from_json(v: &Json) -> Option<EstFailure> {
    let mask = v.get("mask").and_then(Json::as_f64)? as u64;
    let error = match v.get("kind").and_then(Json::as_str)? {
        "panicked" => EstimateError::Panicked {
            message: v.get("message").and_then(Json::as_str)?.to_string(),
        },
        "timed_out" => EstimateError::TimedOut {
            elapsed: v.get("elapsed_ns").and_then(duration_from_json)?,
            budget: v.get("budget_ns").and_then(duration_from_json)?,
        },
        "non_finite" => EstimateError::NonFinite {
            value: v.get("value").and_then(f64_from_json_string)?,
        },
        "degenerate" => EstimateError::Degenerate {
            value: v.get("value").and_then(f64_from_json_string)?,
        },
        "shorted" => EstimateError::Shorted,
        "deadline_exceeded" => EstimateError::DeadlineExceeded {
            late: v.get("late_ns").and_then(duration_from_json)?,
        },
        _ => return None,
    };
    Some(EstFailure { mask, error })
}

fn query_failure_to_json(f: &QueryFailure) -> Json {
    let kind = ("kind", Json::String(f.kind().to_string()));
    match f {
        QueryFailure::Bind { message } | QueryFailure::Truth { message } => {
            Json::object([kind, ("message", Json::String(message.clone()))])
        }
        QueryFailure::ExecBudget {
            peak_bytes,
            budget_bytes,
        } => Json::object([
            kind,
            ("peak_bytes", num(*peak_bytes)),
            ("budget_bytes", num(*budget_bytes)),
        ]),
    }
}

fn query_failure_from_json(v: &Json) -> Option<QueryFailure> {
    let message = || Some(v.get("message")?.as_str()?.to_string());
    Some(match v.get("kind").and_then(Json::as_str)? {
        "bind" => QueryFailure::Bind {
            message: message()?,
        },
        "truth" => QueryFailure::Truth {
            message: message()?,
        },
        "exec_budget" => QueryFailure::ExecBudget {
            peak_bytes: v.get("peak_bytes").and_then(Json::as_f64)? as u64,
            budget_bytes: v.get("budget_bytes").and_then(Json::as_f64)? as u64,
        },
        _ => return None,
    })
}

/// Lossless [`QueryRun`] encoding. Finite metric values are plain JSON
/// numbers; a failed query's `p_error` is NaN and encodes as a string
/// like the fault values.
pub fn query_run_to_json(run: &QueryRun) -> Json {
    let f64s = |xs: &[f64]| Json::Array(xs.iter().map(|&x| Json::Number(x)).collect());
    Json::object([
        ("id", num(run.id as u64)),
        ("n_tables", num(run.n_tables as u64)),
        ("true_card", Json::Number(run.true_card)),
        ("exec_ns", duration_to_json(run.exec)),
        ("plan_ns", duration_to_json(run.plan)),
        ("subplans", num(run.subplans as u64)),
        ("p_error", f64_to_json_string(run.p_error)),
        ("q_errors", f64s(&run.q_errors)),
        ("sub_est_cards", f64s(&run.sub_est_cards)),
        ("sub_true_cards", f64s(&run.sub_true_cards)),
        ("result_rows", num(run.result_rows)),
        ("exec_stats", exec_stats_to_json(&run.exec_stats)),
        (
            "est_failures",
            Json::Array(run.est_failures.iter().map(est_failure_to_json).collect()),
        ),
        ("clamped_subplans", num(run.clamped_subplans)),
        ("fallback_subplans", num(run.fallback_subplans)),
        ("excluded_qerrors", num(run.excluded_qerrors)),
        (
            "failure",
            run.failure
                .as_ref()
                .map(query_failure_to_json)
                .unwrap_or(Json::Null),
        ),
    ])
}

/// Inverse of [`query_run_to_json`]; `None` on any missing or mistyped
/// field (the loader then treats the record as absent).
pub fn query_run_from_json(v: &Json) -> Option<QueryRun> {
    let f64s = |key: &str| -> Option<Vec<f64>> {
        v.get(key)?.as_array()?.iter().map(|x| x.as_f64()).collect()
    };
    Some(QueryRun {
        id: v.get("id").and_then(Json::as_usize)?,
        n_tables: v.get("n_tables").and_then(Json::as_usize)?,
        true_card: v.get("true_card").and_then(Json::as_f64)?,
        exec: v.get("exec_ns").and_then(duration_from_json)?,
        plan: v.get("plan_ns").and_then(duration_from_json)?,
        subplans: v.get("subplans").and_then(Json::as_usize)?,
        p_error: v.get("p_error").and_then(f64_from_json_string)?,
        q_errors: f64s("q_errors")?,
        sub_est_cards: f64s("sub_est_cards")?,
        sub_true_cards: f64s("sub_true_cards")?,
        result_rows: v.get("result_rows").and_then(Json::as_f64)? as u64,
        exec_stats: v.get("exec_stats").and_then(exec_stats_from_json)?,
        est_failures: v
            .get("est_failures")?
            .as_array()?
            .iter()
            .map(est_failure_from_json)
            .collect::<Option<Vec<_>>>()?,
        clamped_subplans: v.get("clamped_subplans").and_then(Json::as_f64)? as u64,
        fallback_subplans: v.get("fallback_subplans").and_then(Json::as_f64)? as u64,
        // Absent in checkpoints written before NaN exclusion existed;
        // default 0 keeps old files resumable.
        excluded_qerrors: v
            .get("excluded_qerrors")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64,
        failure: match v.get("failure")? {
            Json::Null => None,
            f => Some(query_failure_from_json(f)?),
        },
    })
}

/// Encodes `[JOB-LIGHT, STATS-CEB]` method runs as a results file.
pub fn results_to_json(runs: &[Vec<MethodRun>; 2]) -> String {
    let mut items = Vec::new();
    for (workload, runs) in RESULT_WORKLOADS.iter().zip(runs) {
        for run in runs {
            let queries = run.queries.iter().map(query_run_to_json).collect();
            items.push(Json::object([
                ("method", Json::String(run.kind.name().to_string())),
                ("workload", Json::String(workload.to_string())),
                ("train_ns", duration_to_json(run.train_time)),
                ("model_bytes", num(run.model_size as u64)),
                ("queries", Json::Array(queries)),
            ]));
        }
    }
    Json::Array(items).compact()
}

/// Inverse of [`results_to_json`]: an unparseable document, a missing or
/// mistyped field, or an unknown method or workload is an error.
pub fn results_from_json(text: &str) -> Result<[Vec<MethodRun>; 2], JsonError> {
    let shape = |message: String| JsonError { message, offset: 0 };
    let doc = Json::parse(text)?;
    let items = doc
        .as_array()
        .ok_or_else(|| shape("expected an array of method runs".into()))?;
    let mut runs = [Vec::new(), Vec::new()];
    for (i, v) in items.iter().enumerate() {
        let (slot, run) = method_run_from_json(v)
            .ok_or_else(|| shape(format!("method run #{i} is malformed")))?;
        runs[slot].push(run);
    }
    Ok(runs)
}

/// One results-file entry and the index of its workload.
fn method_run_from_json(v: &Json) -> Option<(usize, MethodRun)> {
    let method = v.get("method").and_then(Json::as_str)?;
    let workload = v.get("workload").and_then(Json::as_str)?;
    let run = MethodRun {
        kind: EstimatorKind::ALL
            .into_iter()
            .chain([EstimatorKind::Feedback])
            .find(|k| k.name() == method)?,
        train_time: v.get("train_ns").and_then(duration_from_json)?,
        model_size: v.get("model_bytes").and_then(Json::as_usize)?,
        queries: v
            .get("queries")?
            .as_array()?
            .iter()
            .map(query_run_from_json)
            .collect::<Option<_>>()?,
    };
    Some((RESULT_WORKLOADS.iter().position(|w| *w == workload)?, run))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run() -> QueryRun {
        QueryRun {
            id: 7,
            n_tables: 3,
            true_card: 123.0,
            exec: Duration::from_nanos(1_234_567),
            plan: Duration::from_micros(89),
            subplans: 5,
            p_error: 1.25,
            q_errors: vec![1.0, 2.5, 10.0],
            sub_est_cards: vec![4.0, 5.5, 1.0],
            sub_true_cards: vec![4.0, 2.0, 9.0],
            result_rows: 123,
            exec_stats: ExecStats {
                output_rows: 123,
                intermediate_rows: 456,
                build_rows: 7,
                probe_rows: 8,
                rows_gathered: 9,
                partitions_spilled: 1,
                peak_intermediate_bytes: 1 << 20,
            },
            est_failures: vec![
                EstFailure {
                    mask: 0b101,
                    error: EstimateError::Panicked {
                        message: "chaos: injected panic".into(),
                    },
                },
                EstFailure {
                    mask: 0b010,
                    error: EstimateError::NonFinite { value: f64::NAN },
                },
                EstFailure {
                    mask: 0b001,
                    error: EstimateError::TimedOut {
                        elapsed: Duration::from_millis(70),
                        budget: Duration::from_millis(50),
                    },
                },
            ],
            clamped_subplans: 2,
            fallback_subplans: 1,
            excluded_qerrors: 1,
            failure: None,
        }
    }

    fn assert_runs_equal(a: &QueryRun, b: &QueryRun) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.n_tables, b.n_tables);
        assert_eq!(a.true_card.to_bits(), b.true_card.to_bits());
        assert_eq!(a.exec, b.exec);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.subplans, b.subplans);
        assert_eq!(a.p_error.to_bits(), b.p_error.to_bits());
        assert_eq!(a.q_errors, b.q_errors);
        assert_eq!(a.sub_est_cards, b.sub_est_cards);
        assert_eq!(a.sub_true_cards, b.sub_true_cards);
        assert_eq!(a.result_rows, b.result_rows);
        assert_eq!(a.exec_stats, b.exec_stats);
        assert_eq!(a.est_failures, b.est_failures);
        assert_eq!(a.clamped_subplans, b.clamped_subplans);
        assert_eq!(a.fallback_subplans, b.fallback_subplans);
        assert_eq!(a.excluded_qerrors, b.excluded_qerrors);
        assert_eq!(a.failure, b.failure);
    }

    #[test]
    fn query_run_roundtrips_losslessly() {
        let run = sample_run();
        let back = query_run_from_json(&query_run_to_json(&run)).expect("roundtrip parses");
        assert_runs_equal(&run, &back);
    }

    #[test]
    fn failed_run_roundtrips() {
        let mut run = sample_run();
        run.p_error = f64::NAN;
        run.failure = Some(QueryFailure::ExecBudget {
            peak_bytes: 9_000_000,
            budget_bytes: 1_000_000,
        });
        let back = query_run_from_json(&query_run_to_json(&run)).expect("roundtrip parses");
        assert_runs_equal(&run, &back);
    }

    #[test]
    fn writer_and_loader_roundtrip_with_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "cardbench-ckpt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let mut w = CheckpointWriter::create(&path).unwrap();
        let a = sample_run();
        let mut b = sample_run();
        b.id = 8;
        w.write("PostgreSQL", "STATS-CEB", &a).unwrap();
        w.write("PostgreSQL", "STATS-CEB", &b).unwrap();
        drop(w);
        // Simulate a kill mid-write: append a torn (truncated) line.
        use std::io::Write as _;
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        write!(f, "{{\"method\":\"Postg").unwrap();
        drop(f);
        let recs = load_checkpoint(&path).unwrap();
        assert_eq!(recs.len(), 2, "torn tail is skipped, not fatal");
        assert_eq!(recs[0].method, "PostgreSQL");
        assert_eq!(recs[0].workload, "STATS-CEB");
        assert_runs_equal(&recs[0].run, &a);
        assert_runs_equal(&recs[1].run, &b);
        // Appending after the torn tail newline-terminates the fragment
        // first, so the new record parses and only the fragment is lost.
        let mut w = CheckpointWriter::append(&path).unwrap();
        let mut c = sample_run();
        c.id = 9;
        w.write("PostgreSQL", "STATS-CEB", &c).unwrap();
        drop(w);
        let recs = load_checkpoint(&path).unwrap();
        assert_eq!(recs.len(), 3);
        assert_runs_equal(&recs[2].run, &c);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn results_file_roundtrips_losslessly() {
        let mut failed = sample_run();
        failed.id = 8;
        failed.p_error = f64::NAN;
        failed.failure = Some(QueryFailure::ExecBudget {
            peak_bytes: 9_000_000,
            budget_bytes: 1_000_000,
        });
        // The three error kinds `sample_run` lacks.
        let mut rest = sample_run();
        rest.id = 9;
        rest.est_failures = vec![
            EstFailure {
                mask: 0b011,
                error: EstimateError::Degenerate { value: -3.5 },
            },
            EstFailure {
                mask: 0b110,
                error: EstimateError::Shorted,
            },
            EstFailure {
                mask: 0b111,
                error: EstimateError::DeadlineExceeded {
                    late: Duration::from_micros(250),
                },
            },
        ];
        let run = |kind, queries| MethodRun {
            kind,
            train_time: Duration::from_nanos(123_456_789),
            model_size: 35_200,
            queries,
        };
        let runs = [
            vec![run(EstimatorKind::Postgres, vec![sample_run()])],
            vec![
                run(EstimatorKind::Postgres, vec![sample_run(), failed, rest]),
                run(EstimatorKind::NeuroCardE, Vec::new()),
            ],
        ];
        let text = results_to_json(&runs);
        assert!(!text.contains('\n'), "written compact");
        let back = results_from_json(&text).expect("results file parses");
        for (a, b) in runs.iter().zip(&back) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.train_time, y.train_time);
                assert_eq!(x.model_size, y.model_size);
                assert_eq!(x.queries.len(), y.queries.len());
                for (q, r) in x.queries.iter().zip(&y.queries) {
                    assert_runs_equal(q, r);
                }
            }
        }
    }

    #[test]
    fn malformed_results_files_are_errors() {
        let entry = |method: &str, workload: &str, queries: &str| {
            format!(
                r#"[{{"method":"{method}","workload":"{workload}","train_ns":1,"model_bytes":2,"queries":{queries}}}]"#
            )
        };
        for text in [
            "{}".to_string(),
            "not json".to_string(),
            r#"[{"method": 3}]"#.to_string(),
            entry("PostgreSQL", "STATS-CEB", r#"{"id":1}"#),
            entry("PostgreSQL", "STATS-CEB", "[{}]"),
            entry("PostgreSQL", "TPC-H", "[]"),
            entry("Oracle9000", "STATS-CEB", "[]"),
        ] {
            assert!(results_from_json(&text).is_err(), "{text}");
        }
        let [imdb, stats] = results_from_json(&entry("PostgreSQL", "STATS-CEB", "[]"))
            .expect("a run without queries is well-formed");
        assert!(imdb.is_empty() && stats.len() == 1);
    }
}
