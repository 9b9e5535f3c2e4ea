//! Physical plan execution over column data.
//!
//! The executor is vectorized and does only the work `COUNT(*)` needs:
//!
//! - **Late materialization.** An intermediate [`Chunk`] carries one
//!   row-id selection vector per base table still needed above — never
//!   gathered value columns. Each join gathers exactly the two key
//!   columns it probes (straight out of the base columns through the
//!   selection vectors).
//! - **Emit modes.** A join emits only what its parent reads
//!   ([`Emit`]): the root join only counts its matches (hash and INL:
//!   per-key duplicate counts; merge: products of duplicate-group sizes),
//!   a join whose parent needs tables from one child writes that child's
//!   match vector only, and only a join whose parent needs both sides
//!   writes both.
//! - **Run-at-a-time kernels.** Join inputs are read as [`Run`]s —
//!   maximal stretches of one key — because the joins that cost the most
//!   (FK-FK intermediates) repeat the same key over and over. Every
//!   kernel pays per run, not per row: one hash insert, count update or
//!   sort entry per build run, one lookup per run of equal probe keys,
//!   and emission by slice copies.
//! - **Flat hash builds.** The hash-join build side gives each distinct
//!   key an id and counts its rows; a flat open-addressing index
//!   (multiplicative hashing on the high bits, linear probing) maps keys
//!   to ids, starts cache-resident, stays under a quarter full and doubles
//!   by re-inserting ids. When build-side row ids are emitted, the counts
//!   become offsets and each key's build rows are placed contiguously, in
//!   build order, so a probe hit copies them as one slice.
//! - **Run-sorted merge / INL inputs.** Sort inputs are `(key, first row,
//!   length)` runs sorted by a stable LSD radix over `key − min` that runs
//!   only as many digit passes as the key range has bits; walking a key's
//!   runs in order yields its rows in position order. The INL index is
//!   the sorted distinct keys with their row counts (and, when emitted,
//!   their rows), probed by binary search.
//! - **Checked `u32` edges.** Row positions, run lengths, offsets and
//!   counts are `u32`, each bounded by an input's length, which every
//!   join checks once, in every build profile.
//! - **Allocation-free warm path.** Every transient buffer lives in a
//!   reusable [`ExecScratch`] arena keyed by role (hash build arrays, key
//!   gathers, match vectors, sort/partition run buffers) or by capacity
//!   class (selection vectors), so re-executing plans the arena has seen
//!   allocates nothing large.
//!
//! NULL keys use an `i64::MIN` sentinel and never match. Execution is
//! real work — hash builds, sorts, index probes, and every intermediate
//! row a bad join order produces — so a plan chosen from bad estimates
//! genuinely runs slower, which is the effect the paper's end-to-end
//! time measures. Results and [`ExecStats`] are bit-identical across
//! scratch-reuse vs fresh-buffer paths.

use std::sync::Arc;

use cardbench_query::BoundQuery;

use crate::database::Database;
use crate::plan::{JoinAlgo, PhysicalPlan};

/// NULL sentinel inside key vectors; never joins.
const NULL_KEY: i64 = i64::MIN;

/// Build sides above this many rows use the partitioned (multi-batch)
/// hash join — the real counterpart of the cost model's spill penalty
/// ([`crate::cost::CostModel::hash_mem_rows`] mirrors this value).
pub const HASH_SPILL_ROWS: usize = 60_000;

/// A maximal stretch of equal non-NULL keys at consecutive positions of
/// a key vector: rows `first..first + len` all carry `key`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct Run {
    /// The key of every row in the run.
    pub key: i64,
    /// Position of the run's first row.
    pub first: u32,
    /// Number of rows in the run (at least 1).
    pub len: u32,
}

impl Run {
    /// The positions of the run's rows.
    pub fn rows(self) -> std::ops::Range<u32> {
        self.first..self.first + self.len
    }
}

/// Bytes of one sort / partition [`Run`].
const RUN_BYTES: usize = std::mem::size_of::<Run>();

/// An input length as `u32`: the one narrowing conversion, from which
/// every row position, run length, group offset and count derives. A
/// join's inputs are checked to fit once in [`join_into`], so inside a
/// join this never fails.
#[inline]
fn to_u32(n: usize) -> u32 {
    u32::try_from(n).expect("join input exceeds u32 row ids")
}

/// A query execution aborted cleanly by a guard rail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// Live intermediate bytes exceeded the configured memory budget.
    /// The query is abandoned (buffers freed) instead of OOMing the
    /// process; the whole-run harness records this per query.
    BudgetExceeded {
        /// Live intermediate bytes plus the join kernel's own transient
        /// buffers at the moment the budget tripped.
        peak_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::BudgetExceeded {
                peak_bytes,
                budget_bytes,
            } => write!(
                f,
                "intermediate memory budget exceeded ({peak_bytes}B live > {budget_bytes}B budget)"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// Execution statistics, including per-operator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows of the final result.
    pub output_rows: u64,
    /// Total rows produced across all join nodes, the counted root
    /// included (a deterministic proxy for execution work).
    pub intermediate_rows: u64,
    /// Rows fed to join build sides (hash inserts / sort inputs).
    pub build_rows: u64,
    /// Rows fed to join probe sides.
    pub probe_rows: u64,
    /// Rows gathered through selection vectors (key-column values plus
    /// composed row ids) — the materialization work late
    /// materialization is designed to minimize.
    pub rows_gathered: u64,
    /// Partitions of spilling (multi-batch) hash joins.
    pub partitions_spilled: u64,
    /// Peak bytes held in live intermediates (selection vectors,
    /// gathered key columns and written match vectors) at any join node.
    pub peak_intermediate_bytes: u64,
}

/// What a join emits — exactly what its parent reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// Only the number of matches (the `COUNT(*)` root).
    Count,
    /// Only the left (probe-side) match vector.
    Left,
    /// Only the right (build-side) match vector.
    Right,
    /// Both match vectors.
    Both,
}

impl Emit {
    fn left(self) -> bool {
        matches!(self, Emit::Left | Emit::Both)
    }

    fn right(self) -> bool {
        matches!(self, Emit::Right | Emit::Both)
    }
}

/// Output of one join kernel run: the match count and whichever match
/// vectors the [`Emit`] mode asked for (the others stay empty).
#[derive(Debug, Default)]
pub struct Matches {
    /// Number of matching row pairs.
    pub len: u64,
    /// Left row index of every match, when emitted.
    pub left: Vec<u32>,
    /// Right row index of every match, when emitted.
    pub right: Vec<u32>,
    /// Bytes of kernel-owned transient buffers this join held (sorted
    /// runs, spill partition runs) — charged to the memory budget.
    pub transient_bytes: u64,
}

impl Matches {
    fn reset(&mut self) {
        self.len = 0;
        self.left.clear();
        self.right.clear();
        self.transient_bytes = 0;
    }
}

/// Smallest selection-vector capacity class, as a power of two: smaller
/// requests share the 1024-row class.
const MIN_SEL_CLASS: u32 = 10;

/// Reusable execution buffers. Thread one through repeated
/// [`execute_with`] calls (e.g. the harness's warm-up + timed repeats)
/// to skip per-run allocations; results are identical to fresh buffers.
///
/// Buffers with one user at a time are held by role, so each grows to
/// the largest input it ever served and stays there. Selection vectors
/// outlive the join that composed them, so they are pooled by
/// power-of-two capacity class: a plan's re-execution takes from each
/// class exactly what its first execution put there.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// The hash join's build side (its grouped rows also hold the INL
    /// index's rows).
    build: HashBuild,
    /// Gathered join keys of the node being joined (left, right).
    keys: [Vec<i64>; 2],
    /// The kernels' output.
    matches: Matches,
    /// [`Run`] buffers: sorted left input / left partitions, sorted right
    /// input / right partitions, and the radix sort's ping-pong partner.
    /// Their `len` is a high-water mark, never cleared: every read is of
    /// a prefix the current join wrote.
    runs: [Vec<Run>; 3],
    /// Partition end offsets into `runs[0]` / `runs[1]`.
    part_ends: [Vec<usize>; 2],
    /// The INL index's distinct keys.
    key_groups: Vec<KeyGroup>,
    /// Radix digit histograms, all passes of one sort.
    radix_hist: Vec<u32>,
    /// Recycled selection vectors, by capacity class.
    sel_pool: Vec<Vec<Vec<u32>>>,
}

/// Bytes of heap capacity `v` holds.
fn cap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl ExecScratch {
    /// A fresh, empty arena.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Bytes of heap capacity the arena currently retains.
    pub fn retained_bytes(&self) -> u64 {
        let pooled: usize = self.sel_pool.iter().flatten().map(cap_bytes).sum();
        let bytes = self.build.retained_bytes()
            + self.keys.iter().map(cap_bytes).sum::<usize>()
            + cap_bytes(&self.matches.left)
            + cap_bytes(&self.matches.right)
            + self.runs.iter().map(cap_bytes).sum::<usize>()
            + self.part_ends.iter().map(cap_bytes).sum::<usize>()
            + cap_bytes(&self.key_groups)
            + cap_bytes(&self.radix_hist)
            + pooled;
        bytes as u64
    }

    /// An empty selection vector with room for `rows` row ids.
    fn take_sel(&mut self, rows: usize) -> Vec<u32> {
        let class = rows.next_power_of_two().trailing_zeros().max(MIN_SEL_CLASS) as usize;
        match self.sel_pool.get_mut(class).and_then(Vec::pop) {
            Some(v) => v,
            None => Vec::with_capacity(1 << class),
        }
    }

    fn put_sel(&mut self, mut v: Vec<u32>) {
        v.clear();
        // Floor class: the buffer serves every request of that class.
        let class = v.capacity().max(1).ilog2() as usize;
        if self.sel_pool.len() <= class {
            self.sel_pool.resize_with(class + 1, Vec::new);
        }
        self.sel_pool[class].push(v);
    }
}

/// A selection vector: row ids into one base table.
enum Sel {
    /// Borrowed from the database's filtered-scan memo (scan output).
    Shared(Arc<Vec<u32>>),
    /// Composed by a join (buffer owned via the scratch arena).
    Owned(Vec<u32>),
}

impl Sel {
    fn as_slice(&self) -> &[u32] {
        match self {
            Sel::Shared(v) => v,
            Sel::Owned(v) => v,
        }
    }
}

/// A late-materialized intermediate: `len` rows described by one
/// selection vector per live base table. No value columns — keys are
/// gathered on demand by the join that probes them.
struct Chunk {
    len: usize,
    /// `(table_pos, rows)` for every table the parent still needs.
    sel: Vec<(usize, Sel)>,
}

impl Chunk {
    fn sel_of(&self, table_pos: usize) -> &[u32] {
        self.sel
            .iter()
            .find(|&&(t, _)| t == table_pos)
            .map(|(_, s)| s.as_slice())
            .expect("live selection vector present")
    }

    /// Bytes held by this chunk's selection vectors.
    fn bytes(&self) -> u64 {
        (self.sel.len() * self.len * std::mem::size_of::<u32>()) as u64
    }

    /// Returns owned buffers to the arena.
    fn recycle(self, scratch: &mut ExecScratch) {
        for (_, s) in self.sel {
            if let Sel::Owned(v) = s {
                scratch.put_sel(v);
            }
        }
    }
}

/// Executes a physical plan, returning the COUNT(*) result and stats.
pub fn execute(plan: &PhysicalPlan, bound: &BoundQuery, db: &Database) -> (u64, ExecStats) {
    let mut scratch = ExecScratch::new();
    execute_with(plan, bound, db, &mut scratch)
}

/// [`execute`] with caller-provided scratch buffers, reusable across
/// runs. Repeat executions of the same (or any other) plan reuse the
/// arena's allocations; results and stats are identical either way.
pub fn execute_with(
    plan: &PhysicalPlan,
    bound: &BoundQuery,
    db: &Database,
    scratch: &mut ExecScratch,
) -> (u64, ExecStats) {
    match try_execute_with(plan, bound, db, scratch, None) {
        Ok(out) => out,
        // Unreachable: with no budget the executor has no failure path.
        Err(ExecError::BudgetExceeded { .. }) => unreachable!("no budget configured"),
    }
}

/// [`execute_with`] under an optional memory budget on live intermediate
/// bytes (selection vectors, gathered key columns, match vectors) plus
/// the joining kernel's transient buffers (sorted runs, spill
/// partitions). When any join node exceeds `max_intermediate_bytes`, the
/// query aborts cleanly with [`ExecError::BudgetExceeded`] — buffers are
/// freed, the process keeps running, and the scratch arena stays
/// reusable. With `None` this is exactly [`execute_with`] and cannot
/// fail.
pub fn try_execute_with(
    plan: &PhysicalPlan,
    bound: &BoundQuery,
    db: &Database,
    scratch: &mut ExecScratch,
    max_intermediate_bytes: Option<u64>,
) -> Result<(u64, ExecStats), ExecError> {
    let mut stats = ExecStats::default();
    let budget = max_intermediate_bytes.unwrap_or(u64::MAX);
    // The root needs no selection vectors: COUNT(*) is just the length,
    // so a root join only counts its matches.
    let chunk = run(plan, bound, db, 0, &mut stats, scratch, budget)?;
    let rows = chunk.len as u64;
    stats.output_rows = rows;
    chunk.recycle(scratch);
    Ok((rows, stats))
}

/// Gathers one key column through a selection vector into `out`,
/// mapping NULL rows to [`NULL_KEY`].
fn gather_keys(
    db: &Database,
    bound: &BoundQuery,
    table_pos: usize,
    column: usize,
    sel: &[u32],
    stats: &mut ExecStats,
    out: &mut Vec<i64>,
) {
    let col = db
        .catalog()
        .table(bound.tables[table_pos].id)
        .column(column);
    let raw = col.raw();
    out.clear();
    if col.null_count() == 0 {
        out.extend(sel.iter().map(|&r| raw[r as usize]));
    } else {
        out.extend(sel.iter().map(|&r| {
            if col.is_null(r as usize) {
                NULL_KEY
            } else {
                raw[r as usize]
            }
        }));
    }
    stats.rows_gathered += sel.len() as u64;
}

/// Executes `plan`, producing selection vectors for exactly the tables
/// in `needed` (a bitmask over table positions). `budget` caps live
/// intermediate bytes; on breach the whole execution unwinds with
/// [`ExecError::BudgetExceeded`] (owned buffers drop on the way out, so
/// nothing leaks — the scratch arena merely loses some buffers).
fn run(
    plan: &PhysicalPlan,
    bound: &BoundQuery,
    db: &Database,
    needed: u64,
    stats: &mut ExecStats,
    scratch: &mut ExecScratch,
    budget: u64,
) -> Result<Chunk, ExecError> {
    match plan {
        PhysicalPlan::Scan { table_pos, .. } => {
            let _sp = cardbench_obs::span_with("scan", "exec", || {
                format!(
                    "t{table_pos} ({} preds)",
                    bound.tables[*table_pos].predicates.len()
                )
            });
            let bt = &bound.tables[*table_pos];
            // Seq and index scans produce identical sorted row ids, so both
            // serve from the database's filtered-scan memo: across the
            // warm-up plus timed repeats of each query only the first
            // execution pays the scan. (The planner's seq/index cost split
            // still shapes plan choice; execution shares the memo.)
            let rows = db.filtered_rows(bt.id, &bt.predicates);
            let len = rows.len();
            let sel = if needed >> table_pos & 1 == 1 {
                vec![(*table_pos, Sel::Shared(rows))]
            } else {
                Vec::new()
            };
            Ok(Chunk { len, sel })
        }
        PhysicalPlan::Join {
            algo,
            left,
            right,
            edge,
            ..
        } => {
            let _sp = cardbench_obs::span_with("join", "exec", || format!("{algo:?}"));
            let e = &bound.joins[*edge];
            // Identify which side carries which end of the edge.
            let left_has = left.mask().contains(e.left);
            let (lkey_tab, lkey_col, rkey_tab, rkey_col) = if left_has {
                (e.left, e.left_col, e.right, e.right_col)
            } else {
                (e.right, e.right_col, e.left, e.left_col)
            };
            // Children must deliver the key tables of this edge plus
            // whatever the parent still needs from them.
            let lneed = (needed & left.mask().0) | (1u64 << lkey_tab);
            let rneed = (needed & right.mask().0) | (1u64 << rkey_tab);
            let lc = run(left, bound, db, lneed, stats, scratch, budget)?;
            let rc = run(right, bound, db, rneed, stats, scratch, budget)?;
            // The only value gathers a join pays: its two key columns.
            // Key and match buffers have no user between here and the
            // return, so they leave the arena for the duration.
            let [mut lkeys, mut rkeys] = std::mem::take(&mut scratch.keys);
            let mut matches = std::mem::take(&mut scratch.matches);
            let lsel = lc.sel_of(lkey_tab);
            gather_keys(db, bound, lkey_tab, lkey_col, lsel, stats, &mut lkeys);
            let rsel = rc.sel_of(rkey_tab);
            gather_keys(db, bound, rkey_tab, rkey_col, rsel, stats, &mut rkeys);
            stats.probe_rows += lkeys.len() as u64;
            stats.build_rows += rkeys.len() as u64;
            // The parent reads only the tables in `needed`: a side none
            // of them lives on gets no match vector.
            let emit = match (needed & left.mask().0 != 0, needed & right.mask().0 != 0) {
                (false, false) => Emit::Count,
                (true, false) => Emit::Left,
                (false, true) => Emit::Right,
                (true, true) => Emit::Both,
            };
            join_into(
                *algo,
                &lkeys,
                &rkeys,
                emit,
                right.est_rows() as usize,
                HASH_SPILL_ROWS,
                stats,
                scratch,
                &mut matches,
            );
            let out_len = matches.len as usize;
            stats.intermediate_rows += matches.len;
            // Compose selection vectors for the tables the parent needs:
            // a u32 gather per live table, nothing else materializes.
            let mut sel = Vec::new();
            for (side, rows) in [(&lc, &matches.left), (&rc, &matches.right)] {
                for (t, s) in &side.sel {
                    if needed >> *t & 1 != 1 {
                        continue;
                    }
                    let src = s.as_slice();
                    let mut out = scratch.take_sel(out_len);
                    out.extend(rows.iter().map(|&m| src[m as usize]));
                    stats.rows_gathered += out_len as u64;
                    sel.push((*t, Sel::Owned(out)));
                }
            }
            let chunk = Chunk { len: out_len, sel };
            let live_bytes = ((lkeys.len() + rkeys.len()) * std::mem::size_of::<i64>()) as u64
                + ((matches.left.len() + matches.right.len()) * std::mem::size_of::<u32>()) as u64
                + lc.bytes()
                + rc.bytes()
                + chunk.bytes();
            stats.peak_intermediate_bytes = stats.peak_intermediate_bytes.max(live_bytes);
            let held_bytes = live_bytes + matches.transient_bytes;
            if held_bytes > budget {
                return Err(ExecError::BudgetExceeded {
                    peak_bytes: held_bytes,
                    budget_bytes: budget,
                });
            }
            scratch.keys = [lkeys, rkeys];
            scratch.matches = matches;
            lc.recycle(scratch);
            rc.recycle(scratch);
            Ok(chunk)
        }
    }
}

/// Matching row-index pairs of a single join between two key vectors
/// ([`i64::MIN`] is the NULL sentinel and never matches). The executor's
/// inner kernels, exposed for micro-benchmarks and differential tests.
pub fn join_matches(algo: JoinAlgo, lkeys: &[i64], rkeys: &[i64]) -> (Vec<u32>, Vec<u32>) {
    let mut scratch = ExecScratch::new();
    let mut stats = ExecStats::default();
    join_matches_with(
        algo,
        lkeys,
        rkeys,
        HASH_SPILL_ROWS,
        &mut stats,
        &mut scratch,
    )
}

/// [`join_matches`] with an explicit hash-spill threshold, stats sink,
/// and scratch arena — lets tests force the partitioned path on small
/// inputs and benches reuse buffers across iterations.
pub fn join_matches_with(
    algo: JoinAlgo,
    lkeys: &[i64],
    rkeys: &[i64],
    spill_rows: usize,
    stats: &mut ExecStats,
    scratch: &mut ExecScratch,
) -> (Vec<u32>, Vec<u32>) {
    join_emit_with(algo, lkeys, rkeys, Emit::Both, spill_rows, stats, scratch);
    let m = &mut scratch.matches;
    (std::mem::take(&mut m.left), std::mem::take(&mut m.right))
}

/// One join kernel run in an explicit [`Emit`] mode. The result stays in
/// the arena (its match vectors are reused by the next join), so warm
/// calls allocate nothing.
pub fn join_emit_with<'s>(
    algo: JoinAlgo,
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    spill_rows: usize,
    stats: &mut ExecStats,
    scratch: &'s mut ExecScratch,
) -> &'s Matches {
    let mut matches = std::mem::take(&mut scratch.matches);
    join_into(
        algo,
        lkeys,
        rkeys,
        emit,
        rkeys.len(),
        spill_rows,
        stats,
        scratch,
        &mut matches,
    );
    scratch.matches = matches;
    &scratch.matches
}

/// Dispatches one join to its kernel.
#[allow(clippy::too_many_arguments)]
fn join_into(
    algo: JoinAlgo,
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    est_build_rows: usize,
    spill_rows: usize,
    stats: &mut ExecStats,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    // Row positions, run lengths, group offsets and duplicate counts are
    // `u32`, each bounded by an input's length: checked once per join,
    // in every build profile.
    assert!(
        u32::try_from(lkeys.len().max(rkeys.len())).is_ok(),
        "join input exceeds u32 row ids"
    );
    out.reset();
    match algo {
        JoinAlgo::Hash => hash_join(
            lkeys,
            rkeys,
            emit,
            est_build_rows,
            spill_rows,
            stats,
            scratch,
            out,
        ),
        JoinAlgo::Merge => merge_join(lkeys, rkeys, emit, scratch, out),
        JoinAlgo::IndexNestedLoop => inl_join(lkeys, rkeys, emit, scratch, out),
    }
}

/// Fibonacci multiplicative hash; consumers take the *high* bits.
#[inline]
fn hash64(k: i64) -> u64 {
    (k as u64).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Full-avalanche finalizer (Murmur3 fmix64) used for flat-table slot
/// selection. It must be independent of [`hash64`]: the partitioned path
/// splits inputs by `hash64`'s high bits, so a partition's keys all share
/// those bits — slotting by the same hash would cram every key into the
/// same sliver of the table and degrade probing to linear scans.
#[inline]
fn slot_hash(k: i64) -> u64 {
    let mut x = k as u64;
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51AFD7ED558CCD);
    x ^= x >> 33;
    x = x.wrapping_mul(0xC4CEB9FE1A85EC53);
    x ^ (x >> 33)
}

/// A join input in position order — a key vector, or a buffer of its
/// runs — read run by run (builds, sorts, partitioning) or row by row
/// (probes, which reuse one lookup while the key repeats).
trait RunSource: Copy {
    /// An upper bound on the number of runs.
    fn max_runs(self) -> usize;
    /// Each run, in position order.
    fn for_each_run(self, f: impl FnMut(Run));
    /// Each row as `(key, position)`, in position order; a NULL row, if
    /// the source holds any, has key [`NULL_KEY`].
    fn for_each_row(self, f: impl FnMut(i64, u32));
}

/// A key vector's runs, NULL keys skipped: a run ends where the key
/// changes or a NULL interrupts it. The walk calls `f` from two places
/// (inside the loop, and for the last run), so the kernels mark their
/// closures `#[inline(always)]`: left to itself the compiler may call a
/// closure out of line, once per run, which on distinct keys costs as
/// much as the work.
impl RunSource for &[i64] {
    fn max_runs(self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn for_each_run(self, mut f: impl FnMut(Run)) {
        let n = to_u32(self.len());
        let Some(&head) = self.first() else {
            return;
        };
        let (mut first, mut key) = (0, head);
        for (&k, i) in self[1..].iter().zip(1..n) {
            if k != key {
                if key != NULL_KEY {
                    f(Run {
                        key,
                        first,
                        len: i - first,
                    });
                }
                (first, key) = (i, k);
            }
        }
        if key != NULL_KEY {
            f(Run {
                key,
                first,
                len: n - first,
            });
        }
    }

    #[inline(always)]
    fn for_each_row(self, mut f: impl FnMut(i64, u32)) {
        for (&k, row) in self.iter().zip(0..to_u32(self.len())) {
            f(k, row);
        }
    }
}

impl RunSource for &[Run] {
    fn max_runs(self) -> usize {
        self.len()
    }

    #[inline(always)]
    fn for_each_run(self, f: impl FnMut(Run)) {
        self.iter().copied().for_each(f);
    }

    #[inline(always)]
    fn for_each_row(self, mut f: impl FnMut(i64, u32)) {
        for run in self {
            for row in run.rows() {
                f(run.key, row);
            }
        }
    }
}

/// Hash join: build on the right, probe with the left. Build sides over
/// `spill_rows` take the partitioned multi-batch path (an extra
/// partitioning pass — the genuine cost the optimizer's spill penalty
/// models). Matches come in probe order, duplicate build rows in build
/// order; a spilled join emits partition by partition.
///
/// Only a join that emits build row ids partitions its build side. A
/// *Count* or *Left* build aggregates to one counting slot per distinct
/// key — already bounded by the key domain rather than the row count —
/// so scattering build rows it never emits would only add work: *Count*
/// does not partition at all, and a spilled *Left* join partitions only
/// its probe side, to emit in the partition order a *Both* join has.
/// `partitions_spilled` records the batches the plan's build side
/// called for either way.
#[allow(clippy::too_many_arguments)]
fn hash_join(
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    est_build_rows: usize,
    spill_rows: usize,
    stats: &mut ExecStats,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    let parts = if rkeys.len() > spill_rows {
        rkeys.len().div_ceil(spill_rows).max(2)
    } else {
        0
    };
    stats.partitions_spilled += parts as u64;
    if lkeys.is_empty() || rkeys.is_empty() {
        return;
    }
    let start_keys = est_build_rows.clamp(1, rkeys.len());
    let build = &mut scratch.build;
    match (emit, parts) {
        (Emit::Count, _) | (Emit::Left, 0) => {
            build.count(rkeys, start_keys);
            probe(lkeys, emit, |k| build.table.matches(k), out);
        }
        (Emit::Left, _) => {
            build.count(rkeys, start_keys);
            let [lbuf, ..] = &mut scratch.runs;
            let n = partition_runs(lkeys, parts, lbuf, &mut scratch.part_ends[0]);
            probe(&lbuf[..n], emit, |k| build.table.matches(k), out);
            out.transient_bytes = (n * RUN_BYTES) as u64;
        }
        (_, 0) => {
            build.group(rkeys, start_keys);
            probe(lkeys, emit, |k| build.group_of(k), out);
        }
        _ => partitioned_hash_join(lkeys, rkeys, emit, parts, scratch, out),
    }
}

/// Smallest power-of-two capacity keeping occupancy below 1/4 for `keys`
/// distinct keys.
fn table_capacity(keys: usize) -> usize {
    (4 * keys + 1).next_power_of_two().max(8)
}

/// Distinct keys a hash table is first sized for, at most: its slots
/// hold distinct keys, which the row estimate only bounds, so it starts
/// cache-resident and grows by rehashing its (few) entries.
const TABLE_START_KEYS: usize = 1 << 15;

/// The hash build's table of its distinct non-NULL keys and their
/// duplicate counts. Each key gets an id — 1, 2, … in first-seen order —
/// and sits with its count at that index of two dense arrays; an
/// open-addressing index (linear probing) maps keys to ids. The index
/// is 4 bytes a slot, so it stays sparse cheaply, and growing it moves
/// ids, not entries.
#[derive(Debug, Default)]
struct KeyTable {
    /// Slot → key id, 0 = empty.
    slots: Vec<u32>,
    /// Key id → key (index 0 unused). Sized for every id the index can
    /// take before it grows; ids past `used` are stale.
    keys: Vec<i64>,
    /// Key id → duplicate count (0 at index 0: an absent key's count).
    counts: Vec<u32>,
    /// Keys held: ids `1..=used` are live.
    used: u32,
    /// Slot = high `64 − shift` bits of [`slot_hash`].
    shift: u32,
}

impl KeyTable {
    /// Empties the table, its index at `cap` slots (a power of two).
    fn reset(&mut self, cap: usize) {
        self.used = 0;
        self.reindex(cap);
    }

    /// `k`'s id (0 when absent) and the slot holding it, or the empty
    /// slot it would take.
    #[inline(always)]
    fn find(&self, k: i64) -> (usize, u32) {
        let mask = self.slots.len() - 1;
        let mut slot = (slot_hash(k) >> self.shift) as usize;
        loop {
            let id = self.slots[slot];
            if id == 0 || self.keys[id as usize] == k {
                return (slot, id);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// How many build rows carry `k` (counting build: not which).
    #[inline(always)]
    fn matches(&self, k: i64) -> (usize, &'static [u32]) {
        (self.counts[self.find(k).1 as usize] as usize, &[])
    }

    /// Adds `rows` rows of key `k` and returns its id. A new key that
    /// would fill a quarter of the index first doubles it: a miss probes
    /// until an empty slot, and most probes of a selective join miss, so
    /// the index stays sparse.
    #[inline(always)]
    fn add(&mut self, k: i64, rows: u32) -> u32 {
        let id = match self.find(k) {
            (mut slot, 0) => {
                if self.used as usize + 1 >= self.slots.len() / 4 {
                    self.reindex(self.slots.len() * 2);
                    slot = self.find(k).0;
                }
                self.used += 1;
                let id = self.used;
                self.slots[slot] = id;
                self.keys[id as usize] = k;
                self.counts[id as usize] = 0;
                id
            }
            (_, id) => id,
        };
        self.counts[id as usize] += rows;
        id
    }

    /// Rebuilds the index at `cap` slots, with room for the ids it can
    /// take — at the start of a build, and the growth path an
    /// underestimate pays for.
    #[cold]
    #[inline(never)]
    fn reindex(&mut self, cap: usize) {
        let ids = cap / 4 + 1;
        if self.keys.len() < ids {
            self.keys.resize(ids, NULL_KEY);
        }
        if self.counts.len() < ids {
            self.counts.resize(ids, 0);
        }
        self.slots.clear();
        self.slots.resize(cap, 0);
        self.shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        for (id, &k) in (1..=self.used).zip(&self.keys[1..]) {
            let mut slot = (slot_hash(k) >> self.shift) as usize;
            while self.slots[slot] != 0 {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id;
        }
    }
}

/// A hash join's build side: the key table and, for a grouped build, the
/// build row ids grouped by key.
#[derive(Debug, Default)]
struct HashBuild {
    table: KeyTable,
    /// Build run → its key's id, in build order (a high-water buffer:
    /// only the current build's prefix is read).
    run_ids: Vec<u32>,
    /// Key id `g`'s rows are `rows[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<u32>,
    /// Build row ids grouped by key, in build order within a key (the
    /// INL index keeps its rows here too).
    rows: Vec<u32>,
}

impl HashBuild {
    fn retained_bytes(&self) -> usize {
        cap_bytes(&self.table.slots)
            + cap_bytes(&self.table.keys)
            + cap_bytes(&self.table.counts)
            + cap_bytes(&self.run_ids)
            + cap_bytes(&self.bounds)
            + cap_bytes(&self.rows)
    }

    /// Counting build: each distinct key's duplicate count, a whole run
    /// added by one update. The index starts sized for `est_keys` (at
    /// most [`TABLE_START_KEYS`]).
    fn count(&mut self, runs: impl RunSource, est_keys: usize) {
        let table = &mut self.table;
        table.reset(table_capacity(est_keys.min(TABLE_START_KEYS)));
        runs.for_each_run(
            #[inline(always)]
            |run| {
                table.add(run.key, run.len);
            },
        );
    }

    /// Grouped build: the counting build, remembering each run's key id;
    /// the counts become offsets, and each run's row ids go to its key's
    /// next free offset — so a key's group holds its build rows in build
    /// order.
    fn group(&mut self, runs: impl RunSource, est_keys: usize) {
        let HashBuild {
            table,
            run_ids,
            bounds,
            rows,
        } = self;
        table.reset(table_capacity(est_keys.min(TABLE_START_KEYS)));
        if run_ids.len() < runs.max_runs() {
            run_ids.resize(runs.max_runs(), 0);
        }
        let mut n = 0;
        runs.for_each_run(
            #[inline(always)]
            |run| {
                run_ids[n] = table.add(run.key, run.len);
                n += 1;
            },
        );
        // Counts → start offsets, one past each id; placing a run
        // advances its key's entry to the key's end — the next one's
        // start.
        bounds.clear();
        bounds.push(0);
        let mut total = 0;
        bounds.extend(table.counts[..=table.used as usize].iter().map(|&c| {
            total += c;
            total - c
        }));
        if rows.len() < total as usize {
            rows.resize(total as usize, 0);
        }
        let mut ids = run_ids[..n].iter();
        runs.for_each_run(
            #[inline(always)]
            |run| {
                let at = &mut bounds[*ids.next().expect("one id per run") as usize + 1];
                let start = *at as usize;
                for (slot, row) in rows[start..start + run.len as usize]
                    .iter_mut()
                    .zip(run.rows())
                {
                    *slot = row;
                }
                *at += run.len;
            },
        );
    }

    /// How many build rows carry `k`, and which, in build order (grouped
    /// build).
    #[inline(always)]
    fn group_of(&self, k: i64) -> (usize, &[u32]) {
        let rows = match self.table.find(k).1 as usize {
            0 => &[],
            id => &self.rows[self.bounds[id] as usize..self.bounds[id + 1] as usize],
        };
        (rows.len(), rows)
    }
}

/// Probes a build side with one `lookup` per run of equal probe keys:
/// `lookup` gives a key's number of build rows and, when `emit` writes
/// the right side, the rows themselves. The match count is summed in a
/// register; each probe row writes itself once per match (left side) and
/// copies its key's rows as one slice (right side).
fn probe<'b>(
    probe: impl RunSource,
    emit: Emit,
    lookup: impl Fn(i64) -> (usize, &'b [u32]),
    out: &mut Matches,
) {
    let (mut last, mut hit): (i64, (usize, &[u32])) = (NULL_KEY, (0, &[]));
    let mut memo = |k: i64| {
        if k != last {
            last = k;
            hit = if k == NULL_KEY { (0, &[]) } else { lookup(k) };
        }
        hit
    };
    let mut len = 0;
    if emit == Emit::Count {
        probe.for_each_row(
            #[inline(always)]
            |k, _| len += memo(k).0 as u64,
        );
    } else {
        probe.for_each_row(
            #[inline(always)]
            |k, row| {
                let (matches, rows) = memo(k);
                if matches == 0 {
                    return;
                }
                len += matches as u64;
                if emit.left() {
                    out.left.extend(std::iter::repeat_n(row, matches));
                }
                if emit.right() {
                    out.right.extend(rows.iter().copied());
                }
            },
        );
    }
    out.len += len;
}

/// Maps a hash to `0..parts` using its high bits (Lemire's fast range
/// reduction). A low-bit modulo would correlate with key alignment and
/// skew partition sizes.
#[inline]
fn partition_of(k: i64, parts: usize) -> usize {
    (((hash64(k) >> 32) * parts as u64) >> 32) as usize
}

/// Histogram-partitions the runs of `keys` into one contiguous stretch of
/// `buf` per partition (count → prefix-sum → scatter), position order
/// within each, and returns the run count. Afterwards partition `p` is
/// `buf[ends[p - 1]..ends[p]]` (from 0 for the first).
fn partition_runs(keys: &[i64], parts: usize, buf: &mut Vec<Run>, ends: &mut Vec<usize>) -> usize {
    ends.clear();
    ends.resize(parts, 0);
    keys.for_each_run(
        #[inline(always)]
        |run| ends[partition_of(run.key, parts)] += 1,
    );
    // Counts → start offsets; the scatter advances each start to its
    // partition's end.
    let mut total = 0;
    for e in ends.iter_mut() {
        total += std::mem::replace(e, total);
    }
    if buf.len() < total {
        buf.resize(total, Run::default());
    }
    keys.for_each_run(
        #[inline(always)]
        |run| {
            let at = &mut ends[partition_of(run.key, parts)];
            buf[*at] = run;
            *at += 1;
        },
    );
    total
}

/// Multi-batch hash join of a join that emits build row ids: partitions
/// both inputs by the high bits of the key hash so each batch's build
/// side fits the memory budget, then builds and probes per batch, in
/// place.
fn partitioned_hash_join(
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    parts: usize,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    let [lbuf, rbuf, _] = &mut scratch.runs;
    let [lends, rends] = &mut scratch.part_ends;
    partition_runs(lkeys, parts, lbuf, lends);
    partition_runs(rkeys, parts, rbuf, rends);
    let (mut lstart, mut rstart) = (0, 0);
    for (&lend, &rend) in lends.iter().zip(rends.iter()) {
        let (ls, rs) = (&lbuf[lstart..lend], &rbuf[rstart..rend]);
        if !ls.is_empty() && !rs.is_empty() {
            let build = &mut scratch.build;
            build.group(rs, rs.len());
            probe(ls, emit, |k| build.group_of(k), out);
        }
        (lstart, rstart) = (lend, rend);
    }
    out.transient_bytes = ((lstart + rstart) * RUN_BYTES) as u64;
}

/// Widest radix digit: 2048 `u32` counters stay L1-resident.
const RADIX_BITS: u32 = 11;

/// Inputs below this many runs are comparison-sorted: the histograms
/// cost more than the sort.
const RADIX_MIN_RUNS: usize = 64;

/// Writes the runs of `keys`, sorted stably by key, to `dst[..n]` and
/// returns `n`.
///
/// The sort is a stable LSD radix over `key − min` with as many digit
/// passes as the key range has bits (digits of at most [`RADIX_BITS`],
/// evened out over the passes); all histograms come from one read of the
/// keys, and the first pass scatters straight from `keys`, so no
/// unsorted run copy is ever made. Stable passes over position-ordered
/// runs leave a key's runs in position order, so expanding them gives
/// exactly the order of sorting `(key, position)` tuples. Already-sorted
/// input (a scan's key column in row order) is copied through; inputs of
/// few runs and ranges wider than 63 bits fall back to `sort_unstable`
/// (runs never share a first row, so that order is the stable one too).
fn sort_runs(keys: &[i64], dst: &mut Vec<Run>, tmp: &mut Vec<Run>, hist: &mut Vec<u32>) -> usize {
    let (mut n, mut min, mut max) = (0usize, i64::MAX, i64::MIN);
    let mut ascending = true;
    keys.for_each_run(
        #[inline(always)]
        |run| {
            ascending &= run.key >= max;
            n += 1;
            min = min.min(run.key);
            max = max.max(run.key);
        },
    );
    if dst.len() < n {
        dst.resize(n, Run::default());
    }
    if n == 0 {
        return 0;
    }
    // `max ≥ min`, so the wrapped difference is the true one, unsigned.
    let range = max.wrapping_sub(min) as u64;
    let bits = u64::BITS - range.leading_zeros();
    if ascending || n < RADIX_MIN_RUNS || bits > 63 {
        let mut at = 0;
        keys.for_each_run(
            #[inline(always)]
            |run| {
                dst[at] = run;
                at += 1;
            },
        );
        if !ascending {
            dst[..n].sort_unstable();
        }
        return n;
    }
    // `bits ≥ 1` here: a single-valued input is ascending.
    let passes = bits.div_ceil(RADIX_BITS);
    let digit_bits = bits.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let digit_mask = buckets as u64 - 1;
    let digit = |k: i64, pass: u32| {
        ((k.wrapping_sub(min) as u64 >> (pass * digit_bits)) & digit_mask) as usize
    };
    // One read of the keys fills every pass's histogram.
    hist.clear();
    hist.resize(buckets * passes as usize, 0);
    keys.for_each_run(
        #[inline(always)]
        |run| {
            for pass in 0..passes {
                hist[pass as usize * buckets + digit(run.key, pass)] += 1;
            }
        },
    );
    // Counts → start offsets, per pass.
    for h in hist.chunks_exact_mut(buckets) {
        let mut total = 0;
        for c in h {
            total += std::mem::replace(c, total);
        }
    }
    if passes > 1 && tmp.len() < n {
        tmp.resize(n, Run::default());
    }
    // One stable pass: every run goes to the next free place of its
    // digit's bucket.
    fn scatter(
        from: impl RunSource,
        to: &mut [Run],
        starts: &mut [u32],
        digit: impl Fn(i64) -> usize,
    ) {
        from.for_each_run(
            #[inline(always)]
            |run| {
                let at = &mut starts[digit(run.key)];
                to[*at as usize] = run;
                *at += 1;
            },
        );
    }
    // Passes alternate buffers; start so that the last one lands in dst.
    let (mut to, mut from) = if passes % 2 == 1 {
        (&mut dst[..n], &mut tmp[..])
    } else {
        (&mut tmp[..n], &mut dst[..n])
    };
    let mut starts = hist.chunks_exact_mut(buckets);
    scatter(keys, to, starts.next().expect("passes ≥ 1"), |k| {
        digit(k, 0)
    });
    for (pass, starts) in (1..passes).zip(starts) {
        std::mem::swap(&mut to, &mut from);
        scatter(&from[..n], to, starts, |k| digit(k, pass));
    }
    n
}

/// The runs of `keys` (NULLs skipped) sorted stably by key — the merge /
/// INL sort kernel, exposed for micro-benchmarks and differential tests.
/// Expanding each run into its `(key, position)` rows gives the pairs of
/// `keys` in sorted order. The slice lives in the arena.
pub fn sort_key_runs<'s>(keys: &[i64], scratch: &'s mut ExecScratch) -> &'s [Run] {
    let [dst, _, tmp] = &mut scratch.runs;
    let n = sort_runs(keys, dst, tmp, &mut scratch.radix_hist);
    &dst[..n]
}

/// End of the group of runs keyed `k` that starts at `sorted[start]`
/// (gallops, then binary-searches the last doubling — O(log group)), and
/// the group's row count.
#[inline]
fn group_rows(sorted: &[Run], start: usize, k: i64) -> (usize, usize) {
    let mut step = 1;
    while start + step < sorted.len() && sorted[start + step].key == k {
        step *= 2;
    }
    let lo = start + step / 2;
    let hi = (start + step).min(sorted.len());
    let end = lo + sorted[lo..hi].partition_point(|r| r.key == k);
    let rows = sorted[start..end].iter().map(|r| r.len as usize).sum();
    (end, rows)
}

/// Emits the cross product of one key's probe-side runs `lg` (`nl`
/// rows) and build-side runs `rg` (`nr` rows): every probe row, in
/// position order, against every build row, in position order. The
/// build rows are expanded once; each further probe row copies them.
fn emit_cross(lg: &[Run], nl: usize, rg: &[Run], nr: usize, emit: Emit, out: &mut Matches) {
    out.len += nl as u64 * nr as u64;
    if emit.left() {
        for run in lg {
            for l in run.rows() {
                out.left.extend(std::iter::repeat_n(l, nr));
            }
        }
    }
    if emit.right() {
        let start = out.right.len();
        for run in rg {
            out.right.extend(run.rows());
        }
        for _ in 1..nl {
            out.right.extend_from_within(start..start + nr);
        }
    }
}

/// Sort-merge join: sorts both inputs' runs by key, then merges key
/// groups.
fn merge_join(
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    let [lbuf, rbuf, tmp] = &mut scratch.runs;
    let nl = sort_runs(lkeys, lbuf, tmp, &mut scratch.radix_hist);
    let nr = sort_runs(rkeys, rbuf, tmp, &mut scratch.radix_hist);
    out.transient_bytes = ((nl + nr) * RUN_BYTES) as u64;
    let (ls, rs) = (&lbuf[..nl], &rbuf[..nr]);
    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        let (lk, rk) = (ls[i].key, rs[j].key);
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            let (i_end, l_rows) = group_rows(ls, i, lk);
            let (j_end, r_rows) = group_rows(rs, j, rk);
            emit_cross(&ls[i..i_end], l_rows, &rs[j..j_end], r_rows, emit, out);
            i = i_end;
            j = j_end;
        }
    }
}

/// One key of the INL index, and where its rows end in the index's rows
/// (they start where the previous key's end).
#[derive(Debug, Clone, Copy)]
struct KeyGroup {
    key: i64,
    rows_end: u32,
}

/// Indexed nested-loop join: builds a transient sorted index of the
/// inner (right) side — one [`KeyGroup`] per distinct key, from its runs
/// sorted by key, and, when build rows are emitted, each key's rows in
/// position order — then probes it like a hash build, with one binary
/// search per run of equal probe keys.
fn inl_join(
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    let [_, rbuf, tmp] = &mut scratch.runs;
    let nr = sort_runs(rkeys, rbuf, tmp, &mut scratch.radix_hist);
    let runs = &rbuf[..nr];
    let (groups, rows) = (&mut scratch.key_groups, &mut scratch.build.rows);
    groups.clear();
    let mut rows_end = 0;
    for run in runs {
        rows_end += run.len;
        match groups.last_mut() {
            Some(g) if g.key == run.key => g.rows_end = rows_end,
            _ => groups.push(KeyGroup {
                key: run.key,
                rows_end,
            }),
        }
    }
    let rows = if emit.right() {
        let total = rows_end as usize;
        if rows.len() < total {
            rows.resize(total, 0);
        }
        let mut at = 0;
        for run in runs {
            for (slot, row) in rows[at..].iter_mut().zip(run.rows()) {
                *slot = row;
            }
            at += run.len as usize;
        }
        &rows[..total]
    } else {
        &[]
    };
    out.transient_bytes = (nr * RUN_BYTES
        + groups.len() * std::mem::size_of::<KeyGroup>()
        + std::mem::size_of_val(rows)) as u64;
    let lookup = |k| {
        let g = groups.partition_point(|g| g.key < k);
        match groups.get(g) {
            Some(group) if group.key == k => {
                let start = g.checked_sub(1).map_or(0, |prev| groups[prev].rows_end);
                let span = start as usize..group.rows_end as usize;
                (span.len(), rows.get(span).unwrap_or(&[]))
            }
            _ => (0, &[][..]),
        }
    };
    probe(lkeys, emit, lookup, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScanMethod;
    use cardbench_query::{JoinEdge, JoinQuery, Predicate, Region, TableMask};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    fn db() -> Database {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    "a",
                    vec![
                        ColumnDef::new("id", ColumnKind::PrimaryKey),
                        ColumnDef::new("x", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    Column::from_values(vec![1, 2, 3, 4]),
                    Column::from_values(vec![1, 1, 2, 2]),
                ],
            )
            .unwrap(),
        );
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    "b",
                    vec![
                        ColumnDef::new("aid", ColumnKind::ForeignKey),
                        ColumnDef::new("y", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    Column::from_datums([Some(1), Some(1), Some(2), None, Some(9)]),
                    Column::from_values(vec![0, 1, 0, 0, 0]),
                ],
            )
            .unwrap(),
        );
        Database::new(cat)
    }

    fn query() -> JoinQuery {
        JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![],
        }
    }

    fn plan(algo: JoinAlgo) -> PhysicalPlan {
        PhysicalPlan::Join {
            algo,
            left: Box::new(PhysicalPlan::Scan {
                table_pos: 0,
                method: ScanMethod::Seq,
                mask: TableMask::single(0),
                est_rows: 4.0,
            }),
            right: Box::new(PhysicalPlan::Scan {
                table_pos: 1,
                method: ScanMethod::Seq,
                mask: TableMask::single(1),
                est_rows: 5.0,
            }),
            edge: 0,
            mask: TableMask::full(2),
            est_rows: 3.0,
        }
    }

    fn canon((l, r): (Vec<u32>, Vec<u32>)) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = l.into_iter().zip(r).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn partitioned_hash_join_agrees_with_plain() {
        use cardbench_support::rand::rngs::StdRng;
        use cardbench_support::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let lkeys: Vec<i64> = (0..5000).map(|_| rng.gen_range(0..400)).collect();
        let rkeys: Vec<i64> = (0..7000).map(|_| rng.gen_range(0..400)).collect();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let plain = join_matches_with(
            JoinAlgo::Hash,
            &lkeys,
            &rkeys,
            usize::MAX,
            &mut stats,
            &mut scratch,
        );
        let parted = join_matches_with(
            JoinAlgo::Hash,
            &lkeys,
            &rkeys,
            1000,
            &mut stats,
            &mut scratch,
        );
        // Same match multiset (order differs); 7 partitions spilled.
        assert_eq!(canon(plain), canon(parted));
        assert_eq!(stats.partitions_spilled, 7);
    }

    #[test]
    fn flat_table_growth_path_agrees() {
        // A severe underestimate (1 expected build row vs 3000 distinct
        // keys) forces repeated doubling of the key table, grouped
        // and counting; matches stay exact.
        let lkeys: Vec<i64> = (0..3000).collect();
        let rkeys: Vec<i64> = (0..3000).rev().collect();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        for emit in [Emit::Count, Emit::Left, Emit::Right, Emit::Both] {
            let mut m = Matches::default();
            join_into(
                JoinAlgo::Hash,
                &lkeys,
                &rkeys,
                emit,
                1,
                usize::MAX,
                &mut stats,
                &mut scratch,
                &mut m,
            );
            assert_eq!(m.len, 3000, "{emit:?}");
            if emit.left() {
                assert_eq!(m.left, (0..3000).collect::<Vec<u32>>(), "{emit:?}");
            }
            if emit.right() {
                assert_eq!(m.right, (0..3000).rev().collect::<Vec<u32>>(), "{emit:?}");
            }
        }
    }

    #[test]
    fn counting_table_grows_past_its_start_size() {
        // More distinct keys than the key table starts with room for:
        // the rehash path must keep every aggregated count and group.
        let distinct = TABLE_START_KEYS as u32 * 3;
        let rkeys: Vec<i64> = (0..distinct)
            .chain(0..distinct / 2)
            .map(i64::from)
            .collect();
        let lkeys: Vec<i64> = (0..i64::from(distinct) + 10).collect();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let want: Vec<u32> = (0..distinct)
            .flat_map(|k| {
                [k].into_iter()
                    .chain((k < distinct / 2).then_some(distinct + k))
            })
            .collect();
        for emit in [Emit::Count, Emit::Right] {
            let m = join_emit_with(
                JoinAlgo::Hash,
                &lkeys,
                &rkeys,
                emit,
                usize::MAX,
                &mut stats,
                &mut scratch,
            );
            assert_eq!(m.len, want.len() as u64, "{emit:?}");
            if emit == Emit::Right {
                assert_eq!(m.right, want);
            }
        }
    }

    #[test]
    fn runs_split_at_key_changes_and_nulls() {
        let keys = [NULL_KEY, 4, 4, 4, NULL_KEY, 4, 9, 4, 4, NULL_KEY, NULL_KEY];
        let runs_of = |keys: &[i64]| {
            let mut runs = Vec::new();
            keys.for_each_run(|r| runs.push((r.key, r.first, r.len)));
            runs
        };
        assert_eq!(runs_of(&keys), [(4, 1, 3), (4, 5, 1), (9, 6, 1), (4, 7, 2)]);
        assert_eq!(runs_of(&[4, 4]), [(4, 0, 2)]);
        assert!(runs_of(&[NULL_KEY; 3]).is_empty());
        assert!(runs_of(&[]).is_empty());
    }

    #[test]
    fn emit_modes_are_columns_of_both() {
        let lkeys = [1, 2, NULL_KEY, 2, 7, 1];
        let rkeys = [2, NULL_KEY, 1, 1, 9, 2];
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
            for spill in [usize::MAX, 2] {
                let (l, r) =
                    join_matches_with(algo, &lkeys, &rkeys, spill, &mut stats, &mut scratch);
                assert_eq!(l.len(), 8, "{algo:?}");
                for emit in [Emit::Count, Emit::Left, Emit::Right] {
                    let m =
                        join_emit_with(algo, &lkeys, &rkeys, emit, spill, &mut stats, &mut scratch);
                    assert_eq!(m.len, 8, "{algo:?} {emit:?}");
                    assert_eq!(m.left, if emit.left() { &l[..] } else { &[] });
                    assert_eq!(m.right, if emit.right() { &r[..] } else { &[] });
                }
            }
        }
    }

    #[test]
    fn all_join_algos_agree() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        // Expected: a.id 1 matches two b rows, a.id 2 matches one → 3.
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
            let (count, _) = execute(&plan(algo), &bound, &db);
            assert_eq!(count, 3, "{algo:?}");
        }
    }

    #[test]
    fn kernel_algos_agree_on_pairs() {
        let lkeys = [1, 2, NULL_KEY, 2, 7];
        let rkeys = [2, NULL_KEY, 1, 1, 9];
        let hash = canon(join_matches(JoinAlgo::Hash, &lkeys, &rkeys));
        let merge = canon(join_matches(JoinAlgo::Merge, &lkeys, &rkeys));
        let inl = canon(join_matches(JoinAlgo::IndexNestedLoop, &lkeys, &rkeys));
        assert_eq!(hash, vec![(0, 2), (0, 3), (1, 0), (3, 0)]);
        assert_eq!(hash, merge);
        assert_eq!(hash, inl);
    }

    #[test]
    fn null_keys_never_match() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let (count, _) = execute(&plan(JoinAlgo::Hash), &bound, &db);
        // The NULL aid row and the dangling aid=9 row don't join.
        assert_eq!(count, 3);
    }

    #[test]
    fn filter_applies_at_scan() {
        let db = db();
        let mut q = query();
        q.predicates.push(Predicate::new(1, "y", Region::eq(1)));
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let (count, stats) = execute(&plan(JoinAlgo::Merge), &bound, &db);
        assert_eq!(count, 1);
        assert_eq!(stats.output_rows, 1);
    }

    #[test]
    fn index_scan_matches_seq_scan() {
        let db = db();
        let mut q = query();
        q.predicates.push(Predicate::new(0, "x", Region::eq(1)));
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let mut p = plan(JoinAlgo::Hash);
        if let PhysicalPlan::Join { left, .. } = &mut p {
            if let PhysicalPlan::Scan { method, .. } = left.as_mut() {
                *method = ScanMethod::Index;
            }
        }
        let (count, _) = execute(&p, &bound, &db);
        // a rows with x=1 have ids 1,2; they match 2+1 b rows.
        assert_eq!(count, 3);

        // Cross-check with the seq variant.
        let (count_seq, _) = execute(&plan(JoinAlgo::Hash), &bound, &db);
        assert_eq!(count, count_seq);
    }

    #[test]
    fn scratch_reuse_is_bit_identical() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let p = plan(JoinAlgo::Hash);
        let fresh = execute(&p, &bound, &db);
        let mut scratch = ExecScratch::new();
        for _ in 0..3 {
            assert_eq!(execute_with(&p, &bound, &db, &mut scratch), fresh);
        }
    }

    #[test]
    fn operator_counters_populated() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let (_, stats) = execute(&plan(JoinAlgo::Hash), &bound, &db);
        // One join: probes 4 a-rows against 5 b-rows, gathers the two key
        // columns, composes no selection vectors (COUNT root).
        assert_eq!(stats.probe_rows, 4);
        assert_eq!(stats.build_rows, 5);
        assert_eq!(stats.rows_gathered, 9);
        assert_eq!(stats.partitions_spilled, 0);
        assert!(stats.peak_intermediate_bytes > 0);
    }

    #[test]
    fn three_table_chain_against_truecard() {
        use crate::truecard::exact_cardinality;
        let mut cat = Catalog::new();
        for (name, key, val) in [
            ("t0", vec![1i64, 2, 3, 4], vec![0i64, 1, 0, 1]),
            ("t1", vec![1, 1, 2, 3, 3], vec![0, 0, 1, 1, 0]),
            ("t2", vec![1, 2, 2, 3, 3, 3], vec![0, 1, 0, 1, 0, 1]),
        ] {
            cat.add_table(
                Table::from_columns(
                    TableSchema::new(
                        name,
                        vec![
                            ColumnDef::new("k", ColumnKind::ForeignKey),
                            ColumnDef::new("v", ColumnKind::Numeric),
                        ],
                    ),
                    vec![Column::from_values(key), Column::from_values(val)],
                )
                .unwrap(),
            );
        }
        let db = Database::new(cat);
        let q = JoinQuery {
            tables: vec!["t0".into(), "t1".into(), "t2".into()],
            joins: vec![JoinEdge::new(0, "k", 1, "k"), JoinEdge::new(1, "k", 2, "k")],
            predicates: vec![Predicate::new(2, "v", Region::eq(1))],
        };
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let p = PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(PhysicalPlan::Join {
                algo: JoinAlgo::Merge,
                left: Box::new(PhysicalPlan::Scan {
                    table_pos: 0,
                    method: ScanMethod::Seq,
                    mask: TableMask::single(0),
                    est_rows: 4.0,
                }),
                right: Box::new(PhysicalPlan::Scan {
                    table_pos: 1,
                    method: ScanMethod::Seq,
                    mask: TableMask::single(1),
                    est_rows: 5.0,
                }),
                edge: 0,
                mask: TableMask(0b011),
                est_rows: 5.0,
            }),
            right: Box::new(PhysicalPlan::Scan {
                table_pos: 2,
                method: ScanMethod::Seq,
                mask: TableMask::single(2),
                est_rows: 3.0,
            }),
            edge: 1,
            mask: TableMask::full(3),
            est_rows: 5.0,
        };
        let (count, stats) = execute(&p, &bound, &db);
        let exact = exact_cardinality(&db, &q).unwrap();
        assert_eq!(count as f64, exact);
        assert!(stats.intermediate_rows >= count);
    }

    #[test]
    fn unlimited_budget_matches_execute_with() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let p = plan(JoinAlgo::Hash);
        let mut scratch = ExecScratch::new();
        let (count, _) = execute_with(&p, &bound, &db, &mut scratch);
        let (bcount, _) = try_execute_with(&p, &bound, &db, &mut scratch, None)
            .expect("no budget must never fail");
        assert_eq!(count, bcount);
        let (bcount2, _) = try_execute_with(&p, &bound, &db, &mut scratch, Some(u64::MAX))
            .expect("huge budget must never fail");
        assert_eq!(count, bcount2);
    }

    #[test]
    fn tiny_budget_fails_cleanly_with_peak() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let p = plan(JoinAlgo::Hash);
        let mut scratch = ExecScratch::new();
        let err = try_execute_with(&p, &bound, &db, &mut scratch, Some(1))
            .expect_err("1-byte budget must trip");
        let ExecError::BudgetExceeded {
            peak_bytes,
            budget_bytes,
        } = err;
        assert_eq!(budget_bytes, 1);
        assert!(peak_bytes > 1);
        // The error renders something human-readable.
        assert!(err.to_string().contains("budget"));
        // Scratch stays reusable after a budget abort.
        let (count, stats) = try_execute_with(&p, &bound, &db, &mut scratch, None).unwrap();
        let (plain, _) = execute_with(&p, &bound, &db, &mut ExecScratch::new());
        assert_eq!(count, plain);

        // A budget of exactly the peak live bytes admits the hash plan
        // but not the merge plan over the same live set: its sorted runs
        // are charged on top — 4 for a.id, 3 for b.aid (`1 1 | 2 | 9`,
        // the NULL in none), at 16 B.
        let live = stats.peak_intermediate_bytes;
        assert!(try_execute_with(&p, &bound, &db, &mut scratch, Some(live)).is_ok());
        let merge = plan(JoinAlgo::Merge);
        let err = try_execute_with(&merge, &bound, &db, &mut scratch, Some(live))
            .expect_err("sorted runs exceed the live-only budget");
        assert_eq!(RUN_BYTES, 16);
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                peak_bytes: live + 7 * RUN_BYTES as u64,
                budget_bytes: live,
            }
        );
        let (_, unbudgeted) = try_execute_with(&merge, &bound, &db, &mut scratch, None).unwrap();
        assert_eq!(unbudgeted.peak_intermediate_bytes, live);
    }
}
