//! The sketch's write path is allocation-free: on the STATS data of
//! `BenchConfig::standard(7)`, streaming a 256-row slice of the
//! `temporal_split` delta into a warm `SketchEst` and out again performs
//! no heap allocation at all, and leaves the state digest where it
//! started.
//!
//! One test only: the counting allocator is process-wide, and a second
//! test thread would allocate into the count.

mod support;

use cardbench::datagen::stats::{temporal_split, SPLIT_DAY};
use cardbench::datagen::stats_catalog;
use cardbench::engine::Database;
use cardbench::estimators::CardEst;
use cardbench::harness::BenchConfig;
use cardbench::sketch::SketchEst;
use cardbench::storage::Table;

use support::{counting, Counted};

const SLICE_ROWS: usize = 256;

/// Rows `first..first + SLICE_ROWS` of the delta laid end to end, table
/// after table, as one (mostly empty) table per catalog table.
fn slice_of(delta: &[Table], first: usize) -> Vec<Table> {
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); delta.len()];
    let mut row = first;
    for (t, table) in delta.iter().enumerate() {
        while row < table.row_count() && rows.iter().map(Vec::len).sum::<usize>() < SLICE_ROWS {
            rows[t].push(row);
            row += 1;
        }
        row = row.saturating_sub(table.row_count());
    }
    delta
        .iter()
        .zip(&rows)
        .map(|(table, rows)| table.take_rows(rows))
        .collect()
}

#[test]
fn warm_insert_and_delete_of_a_slice_allocate_nothing() {
    let cfg = BenchConfig::standard(7);
    let full = stats_catalog(&cfg.stats);
    let (stale, delta) = temporal_split(&full, SPLIT_DAY);
    let stale = Database::new(stale);
    let mut est = SketchEst::fit(&stale, &cfg.settings.sketch);
    // The whole delta in and out once: registers and bounds reach their
    // high-water marks, so the digest repeats from here on.
    est.apply_inserts(&stale, &delta);
    est.apply_deletes(&delta);

    let total: usize = delta.iter().map(Table::row_count).sum();
    assert!(total >= 16 * SLICE_ROWS, "delta too small: {total} rows");
    for k in 0..16 {
        let slice = slice_of(&delta, k * (total - SLICE_ROWS) / 15);
        assert_eq!(
            slice.iter().map(Table::row_count).sum::<usize>(),
            SLICE_ROWS
        );
        let at_start = est.state_digest();
        let ((), counted) = counting(|| {
            est.apply_inserts(&stale, &slice);
            est.apply_deletes(&slice);
        });
        assert_eq!(
            counted,
            Counted {
                allocs: 0,
                large: 0
            },
            "slice {k} allocated"
        );
        assert_eq!(est.state_digest(), at_start, "slice {k}");
    }
}
