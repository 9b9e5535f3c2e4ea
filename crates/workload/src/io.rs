//! Workload persistence: the annotated `.sql` format written by the
//! export tooling, parsed back via the query crate's SQL parser.
//!
//! Format: each query is a `-- Q<id> (template <t>, true card <c>)`
//! comment followed by one `SELECT COUNT(*)` statement.

use std::path::Path;

use cardbench_query::parse_sql;

use crate::generator::{Workload, WorkloadQuery};

/// Serializes a workload to the annotated SQL text format.
pub fn workload_to_sql(wl: &Workload) -> String {
    use std::fmt::Write as _;
    // Writes to an in-memory `String` are infallible, so their results
    // are deliberately discarded instead of unwrapped.
    let mut out = String::new();
    let _ = writeln!(out, "-- workload: {}", wl.name);
    for wq in &wl.queries {
        let _ = writeln!(
            out,
            "-- Q{} (template {}, true card {})",
            wq.id, wq.template_id, wq.true_card
        );
        let _ = writeln!(out, "{}", cardbench_query::sql::to_sql(&wq.query));
    }
    out
}

/// Parses a workload back from the annotated SQL format.
pub fn workload_from_sql(text: &str) -> Result<Workload, String> {
    let mut name = String::from("workload");
    let mut queries = Vec::new();
    let mut pending: Option<(usize, usize, f64)> = None;
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("-- workload:") {
            name = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("-- Q") {
            pending = Some(parse_annotation(rest).map_err(|e| format!("line {lineno}: {e}"))?);
        } else if !line.starts_with("--") {
            let (id, template_id, true_card) = pending
                .take()
                .ok_or_else(|| format!("line {lineno}: query without annotation: {line}"))?;
            let query = parse_sql(line).map_err(|e| format!("line {lineno}: {e}"))?;
            queries.push(WorkloadQuery {
                id,
                template_id,
                query,
                true_card,
            });
        }
    }
    let mut templates: Vec<usize> = queries.iter().map(|q| q.template_id).collect();
    templates.sort_unstable();
    templates.dedup();
    Ok(Workload {
        name,
        template_count: templates.len(),
        queries,
    })
}

/// Parses `"<id> (template <t>, true card <c>)"`.
fn parse_annotation(rest: &str) -> Result<(usize, usize, f64), String> {
    let err = || format!("bad annotation: {rest}");
    let (id, rest) = rest.split_once(' ').ok_or_else(err)?;
    let id: usize = id.trim().parse().map_err(|_| err())?;
    let inner = rest
        .trim()
        .strip_prefix('(')
        .and_then(|s| s.strip_suffix(')'))
        .ok_or_else(err)?;
    let (tpart, cpart) = inner.split_once(',').ok_or_else(err)?;
    let template: usize = tpart
        .trim()
        .strip_prefix("template ")
        .ok_or_else(err)?
        .parse()
        .map_err(|_| err())?;
    let card: f64 = cpart
        .trim()
        .strip_prefix("true card ")
        .ok_or_else(err)?
        .parse()
        .map_err(|_| err())?;
    Ok((id, template, card))
}

/// Annotates an I/O error with the path it happened on — a bare
/// "No such file or directory" without the offending path is useless in
/// a batch run's log.
fn with_path(path: &Path, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// Writes a workload file. Errors carry the path.
pub fn write_workload(wl: &Workload, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, workload_to_sql(wl)).map_err(|e| with_path(path, e))
}

/// Reads a workload file. Errors carry the path.
pub fn read_workload(path: &Path) -> std::io::Result<Workload> {
    let text = std::fs::read_to_string(path).map_err(|e| with_path(path, e))?;
    workload_from_sql(&text).map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{stats_ceb, WorkloadConfig};
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_engine::Database;

    #[test]
    fn roundtrip_through_sql_text() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(12)));
        let wl = stats_ceb(
            &db,
            &WorkloadConfig {
                templates: 8,
                queries: 10,
                max_tables: 4,
                ..WorkloadConfig::stats_ceb(12)
            },
        );
        let text = workload_to_sql(&wl);
        let back = workload_from_sql(&text).unwrap();
        assert_eq!(back.name, wl.name);
        assert_eq!(back.queries.len(), wl.queries.len());
        assert_eq!(back.template_count, wl.template_count);
        for (a, b) in back.queries.iter().zip(&wl.queries) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.true_card, b.true_card);
            assert_eq!(a.query.canonical_hash(), b.query.canonical_hash());
        }
    }

    #[test]
    fn file_roundtrip() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(13)));
        let wl = stats_ceb(
            &db,
            &WorkloadConfig {
                templates: 4,
                queries: 5,
                max_tables: 3,
                ..WorkloadConfig::stats_ceb(13)
            },
        );
        let dir = std::env::temp_dir().join("cardbench_wl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wl.sql");
        write_workload(&wl, &path).unwrap();
        let back = read_workload(&path).unwrap();
        assert_eq!(back.queries.len(), 5);
    }

    #[test]
    fn io_errors_name_the_path() {
        let path = Path::new("/nonexistent-cardbench/wl.sql");
        let err = read_workload(path).unwrap_err();
        assert!(
            err.to_string().contains("/nonexistent-cardbench/wl.sql"),
            "{err}"
        );
        let db = Database::new(stats_catalog(&StatsConfig::tiny(14)));
        let wl = stats_ceb(
            &db,
            &WorkloadConfig {
                templates: 2,
                queries: 2,
                max_tables: 3,
                ..WorkloadConfig::stats_ceb(14)
            },
        );
        let err = write_workload(&wl, path).unwrap_err();
        assert!(
            err.to_string().contains("/nonexistent-cardbench/wl.sql"),
            "{err}"
        );
    }

    #[test]
    fn rejects_missing_annotation() {
        let text = "SELECT COUNT(*) FROM users;";
        let err = workload_from_sql(text).unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn parse_errors_carry_file_line() {
        let text = "-- workload: w\n-- Q1 (template 0, true card 2)\nSELECT nothing;";
        let err = workload_from_sql(text).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        assert!(err.contains("SQL parse error"), "{err}");
    }
}
