//! `cardbench dump-dataset`: exports the synthetic benchmark to plain
//! files — one CSV per table of both datasets and one `.sql` file per
//! workload, under `./cardbench_export/` — for loading into an external
//! DBMS.

use std::path::PathBuf;

use cardbench_harness::Bench;
use cardbench_storage::csv::write_table;
use cardbench_workload::write_workload;

use crate::args::{Args, Fail};
use crate::trace_check::Required;

pub fn run(args: &Args) -> Result<Option<&'static Required>, Fail> {
    if args.operands.len() != 1 {
        return Err(Fail::Usage("dump-dataset takes no operand".into()));
    }
    let bench = Bench::build(args.config());
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
        let path = d.join(format!("{}.sql", wl.name.to_lowercase()));
        write_workload(wl, &path).map_err(|e| e.to_string())?;
        println!("wrote {} ({} queries)", path.display(), wl.queries.len());
    }
    Ok(None)
}
