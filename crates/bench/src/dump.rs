//! `cardbench dump-dataset`: exports the synthetic benchmark to plain
//! files — one CSV per table of both datasets and one `.sql` file per
//! workload, under `./cardbench_export/` — for loading into an external
//! DBMS.

use std::fmt::Write as _;
use std::path::PathBuf;

use cardbench_harness::Bench;
use cardbench_query::sql::to_sql;
use cardbench_storage::csv::write_table;

use crate::args::{Args, Fail};
use crate::trace_check::Required;

pub fn run(args: &Args) -> Result<Option<&'static Required>, Fail> {
    if args.operands.len() != 1 {
        return Err(Fail::Usage("dump-dataset takes no operand".into()));
    }
    let bench = Bench::build(args.config()?);
    let root = PathBuf::from("cardbench_export");
    for (dir, db, wl) in [
        ("stats", &bench.stats_db, &bench.stats_wl),
        ("imdb", &bench.imdb_db, &bench.imdb_wl),
    ] {
        let d = root.join(dir);
        let io = |e: std::io::Error| format!("{}: {e}", d.display());
        std::fs::create_dir_all(&d).map_err(io)?;
        for table in db.catalog().tables() {
            let path = d.join(format!("{}.csv", table.name()));
            write_table(table, &path).map_err(|e| format!("{}: {e}", path.display()))?;
            println!("wrote {} ({} rows)", path.display(), table.row_count());
        }
        let mut sql = String::new();
        for wq in &wl.queries {
            writeln!(
                sql,
                "-- Q{} (template {}, true card {})\n{}",
                wq.id,
                wq.template_id,
                wq.true_card,
                to_sql(&wq.query)
            )
            .expect("writing to a String");
        }
        let path = d.join(format!("{}.sql", wl.name.to_lowercase()));
        std::fs::write(&path, sql).map_err(io)?;
        println!("wrote {} ({} queries)", path.display(), wl.queries.len());
    }
    Ok(None)
}
