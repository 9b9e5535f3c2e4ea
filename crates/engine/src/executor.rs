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
//!   ([`Emit`]): the root join only counts its matches (hash: per-key
//!   duplicate counts; merge: products of duplicate-group sizes; INL:
//!   index-range lengths), a join whose parent needs tables from one
//!   child writes that child's match vector only, and only a join whose
//!   parent needs both sides writes both.
//! - **Flat hash builds.** The hash-join build side is a flat
//!   open-addressing table (multiplicative hashing on the high bits,
//!   linear probing) with head/next chaining arrays — or, when the build
//!   side's row ids are never emitted, slot key + duplicate count. The
//!   chained table is sized from the optimizer's build-side estimate and
//!   doubles when the estimate was low.
//! - **Radix-sorted merge / INL inputs.** Sort inputs are `(key, row)`
//!   pairs sorted by a stable LSD radix over `key − min` that runs only
//!   as many digit passes as the key range has bits.
//! - **Allocation-free warm path.** Every transient buffer lives in a
//!   reusable [`ExecScratch`] arena keyed by role (table arrays, key
//!   gathers, match vectors, sort/partition pair buffers) or by capacity
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

/// Empty marker in the flat table's head/next chaining arrays.
const EMPTY: u32 = u32::MAX;

/// Build sides above this many rows use the partitioned (multi-batch)
/// hash join — the real counterpart of the cost model's spill penalty
/// ([`crate::cost::CostModel::hash_mem_rows`] mirrors this value).
pub const HASH_SPILL_ROWS: usize = 60_000;

/// Bytes of one `(key, row-id)` sort / partition pair.
const PAIR_BYTES: usize = std::mem::size_of::<(i64, u32)>();

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
    /// Bytes of kernel-owned transient buffers this join held (sort
    /// pairs, spill partition buffers) — charged to the memory budget.
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
    /// Flat-table slot → first build row of the slot's chain (chained
    /// build) or the key's duplicate count, 0 = empty (counting build).
    heads: Vec<u32>,
    /// Flat-table slot → key owning the slot.
    slot_keys: Vec<i64>,
    /// Build row → next build row with the same key.
    next: Vec<u32>,
    /// Gathered join keys of the node being joined (left, right).
    keys: [Vec<i64>; 2],
    /// The kernels' output.
    matches: Matches,
    /// `(key, row-id)` buffers: sorted left input / left partitions,
    /// sorted right input / right partitions, and the radix sort's
    /// ping-pong partner (also the counting table's rehash staging).
    /// Their `len` is a high-water mark, never cleared: every read is of
    /// a prefix the current join wrote.
    pairs: [Vec<(i64, u32)>; 3],
    /// Partition end offsets into `pairs[0]` / `pairs[1]`.
    part_ends: [Vec<usize>; 2],
    /// Radix digit histograms, all passes of one sort.
    radix_hist: Vec<u32>,
    /// Recycled selection vectors, by capacity class.
    sel_pool: Vec<Vec<Vec<u32>>>,
}

impl ExecScratch {
    /// A fresh, empty arena.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }

    /// Bytes of heap capacity the arena currently retains.
    pub fn retained_bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let pooled: usize = self.sel_pool.iter().flatten().map(cap).sum();
        let bytes = cap(&self.heads)
            + cap(&self.slot_keys)
            + cap(&self.next)
            + self.keys.iter().map(cap).sum::<usize>()
            + cap(&self.matches.left)
            + cap(&self.matches.right)
            + self.pairs.iter().map(cap).sum::<usize>()
            + self.part_ends.iter().map(cap).sum::<usize>()
            + cap(&self.radix_hist)
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
/// the joining kernel's transient buffers (sort pairs, spill
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

/// Hash join: build on the right, probe with the left. Build sides over
/// `spill_rows` take the partitioned multi-batch path (an extra
/// partitioning pass over both inputs — the genuine cost the optimizer's
/// spill penalty models). Matches come in probe order, duplicate build
/// rows in build order.
///
/// A counting join never partitions: it emits no row ids, so its build
/// aggregates to one slot per distinct key — already bounded by the key
/// domain rather than the row count — and scattering rows it will never
/// emit would only add work. `partitions_spilled` still records the
/// batches the plan's build side called for.
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
    if emit == Emit::Count || parts == 0 {
        flat_hash_join(lkeys, rkeys, emit, est_build_rows, scratch, out);
    } else {
        partitioned_hash_join(lkeys, rkeys, emit, parts, scratch, out);
    }
}

/// Smallest power-of-two capacity keeping ≤ 7/8 occupancy for `rows`
/// distinct keys.
fn table_capacity(rows: usize) -> usize {
    (rows.max(7) * 8 / 7).next_power_of_two()
}

/// An input element the flat join can read a key and an output row id
/// from: plain keys (row id = position) for the in-memory path, and
/// `(key, row-id)` scatter pairs for the partitioned path — which can
/// then join partitions in place, with no key copy and no remap pass.
trait KeyRow: Copy {
    fn key(self) -> i64;
    fn id(self, pos: usize) -> u32;
}

impl KeyRow for i64 {
    #[inline(always)]
    fn key(self) -> i64 {
        self
    }
    #[inline(always)]
    fn id(self, pos: usize) -> u32 {
        pos as u32
    }
}

impl KeyRow for (i64, u32) {
    #[inline(always)]
    fn key(self) -> i64 {
        self.0
    }
    #[inline(always)]
    fn id(self, _pos: usize) -> u32 {
        self.1
    }
}

/// One flat-table build + probe, appending to `out` what `emit` asks
/// for. Modes that never emit build-side row ids use the counting table,
/// the others the chained one.
fn flat_hash_join<T: KeyRow>(
    lrows: &[T],
    rrows: &[T],
    emit: Emit,
    est_build_rows: usize,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    if lrows.is_empty() || rrows.is_empty() {
        return;
    }
    match emit {
        Emit::Count => {
            let table = count_build(rrows, est_build_rows, scratch);
            for e in lrows {
                out.len += table.count_of(e.key()) as u64;
            }
        }
        Emit::Left => {
            let table = count_build(rrows, est_build_rows, scratch);
            for (l, e) in lrows.iter().enumerate() {
                let dups = table.count_of(e.key()) as usize;
                out.left.resize(out.left.len() + dups, e.id(l));
            }
            out.len = out.left.len() as u64;
        }
        Emit::Right => {
            chain_join::<T, false>(lrows, rrows, est_build_rows, scratch, out);
            out.len = out.right.len() as u64;
        }
        Emit::Both => {
            chain_join::<T, true>(lrows, rrows, est_build_rows, scratch, out);
            out.len = out.right.len() as u64;
        }
    }
}

/// Build-side rows a counting table is first sized for, at most: its
/// slots hold distinct keys, which the row estimate only bounds, so it
/// starts cache-resident and grows by rehashing its (few) entries.
const COUNT_TABLE_START_ROWS: usize = 1 << 15;

/// A built counting table: slot key + duplicate count, no row chains.
struct CountTable<'a> {
    counts: &'a [u32],
    slot_keys: &'a [i64],
    shift: u32,
}

impl CountTable<'_> {
    /// Build rows carrying `k` (0 for NULL and absent keys).
    #[inline]
    fn count_of(&self, k: i64) -> u32 {
        if k == NULL_KEY {
            return 0;
        }
        let mask = self.counts.len() - 1;
        let mut slot = (slot_hash(k) >> self.shift) as usize;
        loop {
            let c = self.counts[slot];
            if c == 0 || self.slot_keys[slot] == k {
                return c;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Adds `by` to key `k`'s count in a counting table with a free slot
/// left; returns whether `k` claimed a new slot.
#[inline]
fn count_add(counts: &mut [u32], slot_keys: &mut [i64], shift: u32, k: i64, by: u32) -> bool {
    let mask = counts.len() - 1;
    let mut slot = (slot_hash(k) >> shift) as usize;
    loop {
        let c = counts[slot];
        if c == 0 {
            slot_keys[slot] = k;
            counts[slot] = by;
            return true;
        }
        if slot_keys[slot] == k {
            counts[slot] = c + by;
            return false;
        }
        slot = (slot + 1) & mask;
    }
}

/// Aggregating build: one slot per distinct non-NULL key holding its
/// duplicate count. Sized from the build-side estimate (clamped to the
/// input and to [`COUNT_TABLE_START_ROWS`]) and quadrupled by rehashing
/// the aggregated entries whenever it fills — the growth path an
/// underestimate pays for.
fn count_build<'a, T: KeyRow>(
    rrows: &[T],
    est_build_rows: usize,
    scratch: &'a mut ExecScratch,
) -> CountTable<'a> {
    debug_assert!(
        rrows.len() < EMPTY as usize,
        "build side exceeds u32 counts"
    );
    let start_rows = est_build_rows
        .clamp(1, rrows.len())
        .min(COUNT_TABLE_START_ROWS);
    let mut cap = table_capacity(start_rows);
    let counts = &mut scratch.heads;
    let slot_keys = &mut scratch.slot_keys;
    let staging = &mut scratch.pairs[2];
    // `slot_keys` keeps stale values: a slot key is only read once its
    // count is nonzero, which this build set together with the key.
    let reset = |counts: &mut Vec<u32>, slot_keys: &mut Vec<i64>, cap: usize| {
        counts.clear();
        counts.resize(cap, 0);
        if slot_keys.len() < cap {
            slot_keys.resize(cap, 0);
        }
        64 - cap.trailing_zeros()
    };
    let mut shift = reset(counts, slot_keys, cap);
    let mut used = 0usize;
    for e in rrows {
        let k = e.key();
        if k == NULL_KEY {
            continue;
        }
        if used == cap / 8 * 7 {
            // Full: move the entries to a table four times the size.
            staging.clear();
            staging.extend(
                counts
                    .iter()
                    .zip(slot_keys.iter())
                    .filter(|&(&c, _)| c != 0)
                    .map(|(&c, &sk)| (sk, c)),
            );
            cap *= 4;
            shift = reset(counts, slot_keys, cap);
            for &(sk, c) in staging.iter() {
                count_add(counts, slot_keys, shift, sk, c);
            }
        }
        used += count_add(counts, slot_keys, shift, k, 1) as usize;
    }
    CountTable {
        counts: &scratch.heads[..cap],
        slot_keys: &scratch.slot_keys[..cap],
        shift,
    }
}

/// Chained build + probe, appending the build-side row id of every
/// match to `out.right` and, when `LEFT`, the probe-side one to
/// `out.left`.
///
/// The build is a single open-addressing table: `slot_keys[slot]` owns a
/// key, `heads[slot]` points at the first build row with that key, and
/// `next[row]` chains duplicates. Sized from `est_build_rows` (clamped
/// to the actual input) and rebuilt at double capacity whenever the
/// estimate proves low — the growth path an underestimate pays for.
fn chain_join<T: KeyRow, const LEFT: bool>(
    lrows: &[T],
    rrows: &[T],
    est_build_rows: usize,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    let n = rrows.len();
    debug_assert!(n < EMPTY as usize, "build side exceeds u32 row ids");
    let mut cap = table_capacity(est_build_rows.clamp(1, n));
    let mut shift;
    'build: loop {
        shift = 64 - cap.trailing_zeros();
        let mask = cap - 1;
        let limit = cap / 8 * 7;
        scratch.heads.clear();
        scratch.heads.resize(cap, EMPTY);
        // `slot_keys` and `next` keep stale values from earlier builds:
        // a slot key is only read once `heads[slot]` is set, and a `next`
        // link only walked for rows this build inserted — both written
        // before any read — so neither needs the memset `heads` pays.
        if scratch.slot_keys.len() < cap {
            scratch.slot_keys.resize(cap, 0);
        }
        if scratch.next.len() < n {
            scratch.next.resize(n, EMPTY);
        }
        let mut used = 0usize;
        // Reverse insertion + prepend-on-duplicate leaves every chain in
        // increasing build-row order, matching the map-based emission
        // order this kernel replaced.
        for (r, e) in rrows.iter().enumerate().rev() {
            let k = e.key();
            if k == NULL_KEY {
                continue;
            }
            let mut slot = (slot_hash(k) >> shift) as usize;
            loop {
                let head = scratch.heads[slot];
                if head == EMPTY {
                    if used == limit {
                        // Estimate too low: double and rebuild.
                        cap *= 2;
                        continue 'build;
                    }
                    scratch.slot_keys[slot] = k;
                    scratch.heads[slot] = r as u32;
                    scratch.next[r] = EMPTY;
                    used += 1;
                    break;
                }
                if scratch.slot_keys[slot] == k {
                    scratch.next[r] = head;
                    scratch.heads[slot] = r as u32;
                    break;
                }
                slot = (slot + 1) & mask;
            }
        }
        break;
    }
    let mask = cap - 1;
    for (l, e) in lrows.iter().enumerate() {
        let k = e.key();
        if k == NULL_KEY {
            continue;
        }
        let mut slot = (slot_hash(k) >> shift) as usize;
        loop {
            let head = scratch.heads[slot];
            if head == EMPTY {
                break;
            }
            if scratch.slot_keys[slot] == k {
                let lrow = e.id(l);
                let mut r = head;
                while r != EMPTY {
                    if LEFT {
                        out.left.push(lrow);
                    }
                    out.right.push(rrows[r as usize].id(r as usize));
                    r = scratch.next[r as usize];
                }
                break;
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Maps a hash to `0..parts` using its high bits (Lemire's fast range
/// reduction). A low-bit modulo would correlate with key alignment and
/// skew partition sizes.
#[inline]
fn partition_of(k: i64, parts: usize) -> usize {
    (((hash64(k) >> 32) * parts as u64) >> 32) as usize
}

/// Histogram-partitions the non-NULL `(key, row-id)` pairs of `keys`
/// into one contiguous run of `buf` per partition (count → prefix-sum →
/// scatter). Afterwards partition `p` is `buf[ends[p - 1]..ends[p]]`
/// (from 0 for the first) and `ends[parts - 1]` is the pair count.
fn partition_pairs(keys: &[i64], parts: usize, buf: &mut Vec<(i64, u32)>, ends: &mut Vec<usize>) {
    ends.clear();
    ends.resize(parts, 0);
    for &k in keys {
        if k != NULL_KEY {
            ends[partition_of(k, parts)] += 1;
        }
    }
    // Counts → start offsets; the scatter advances each start to its
    // partition's end.
    let mut total = 0;
    for e in ends.iter_mut() {
        total += std::mem::replace(e, total);
    }
    if buf.len() < total {
        buf.resize(total, (0, 0));
    }
    for (i, &k) in keys.iter().enumerate() {
        if k != NULL_KEY {
            let at = &mut ends[partition_of(k, parts)];
            buf[*at] = (k, i as u32);
            *at += 1;
        }
    }
}

/// Multi-batch hash join: partitions both inputs by the high bits of the
/// key hash so each batch's build side fits the memory budget, then
/// flat-joins per batch, in place.
fn partitioned_hash_join(
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    parts: usize,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    // The partition buffers leave the arena while the per-batch joins
    // borrow it.
    let [lbuf, rbuf, _] = &mut scratch.pairs;
    let (mut lbuf, mut rbuf) = (std::mem::take(lbuf), std::mem::take(rbuf));
    let [mut lends, mut rends] = std::mem::take(&mut scratch.part_ends);
    partition_pairs(lkeys, parts, &mut lbuf, &mut lends);
    partition_pairs(rkeys, parts, &mut rbuf, &mut rends);
    let (mut lstart, mut rstart) = (0, 0);
    for (&lend, &rend) in lends.iter().zip(&rends) {
        let (ls, rs) = (&lbuf[lstart..lend], &rbuf[rstart..rend]);
        flat_hash_join(ls, rs, emit, rs.len(), scratch, out);
        (lstart, rstart) = (lend, rend);
    }
    out.transient_bytes = ((lstart + rstart) * PAIR_BYTES) as u64;
    scratch.pairs[0] = lbuf;
    scratch.pairs[1] = rbuf;
    scratch.part_ends = [lends, rends];
}

/// Widest radix digit: 2048 `u32` counters stay L1-resident.
const RADIX_BITS: u32 = 11;

/// Inputs below this many rows are comparison-sorted: the histograms
/// cost more than the sort.
const RADIX_MIN_ROWS: usize = 64;

/// Writes the non-NULL `(key, position)` pairs of `keys`, sorted, to
/// `dst[..n]` and returns `n`.
///
/// The sort is a stable LSD radix over `key − min` with as many digit
/// passes as the key range has bits (digits of at most [`RADIX_BITS`],
/// evened out over the passes); the first pass scatters straight from
/// `keys`, so no unsorted pair copy is ever made. Stable passes over
/// position-ordered input leave equal keys in position order — exactly
/// the order of sorting `(key, position)` tuples. Already-sorted input
/// (a scan's key column in row order) is copied through; tiny inputs
/// and ranges wider than 63 bits fall back to `sort_unstable`.
fn sorted_pairs(
    keys: &[i64],
    dst: &mut Vec<(i64, u32)>,
    tmp: &mut Vec<(i64, u32)>,
    hist: &mut Vec<u32>,
) -> usize {
    let (mut n, mut min, mut max) = (0usize, i64::MAX, i64::MIN);
    let mut ascending = true;
    for &k in keys {
        if k != NULL_KEY {
            ascending &= k >= max;
            n += 1;
            min = min.min(k);
            max = max.max(k);
        }
    }
    if dst.len() < n {
        dst.resize(n, (0, 0));
    }
    if n == 0 {
        return 0;
    }
    let pairs = keys
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k != NULL_KEY)
        .map(|(i, &k)| (k, i as u32));
    // `max ≥ min`, so the wrapped difference is the true one, unsigned.
    let range = max.wrapping_sub(min) as u64;
    let bits = u64::BITS - range.leading_zeros();
    if ascending || n < RADIX_MIN_ROWS || bits > 63 {
        for (slot, pair) in dst.iter_mut().zip(pairs) {
            *slot = pair;
        }
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
    for &k in keys {
        if k != NULL_KEY {
            for pass in 0..passes {
                hist[pass as usize * buckets + digit(k, pass)] += 1;
            }
        }
    }
    // Counts → start offsets, per pass.
    for h in hist.chunks_exact_mut(buckets) {
        let mut total = 0;
        for c in h {
            total += std::mem::replace(c, total);
        }
    }
    if passes > 1 && tmp.len() < n {
        tmp.resize(n, (0, 0));
    }
    // One stable pass: every pair goes to the next free place of its
    // digit's bucket.
    fn scatter(
        from: impl Iterator<Item = (i64, u32)>,
        to: &mut [(i64, u32)],
        starts: &mut [u32],
        digit: impl Fn(i64) -> usize,
    ) {
        for pair in from {
            let at = &mut starts[digit(pair.0)];
            to[*at as usize] = pair;
            *at += 1;
        }
    }
    // Passes alternate buffers; start so that the last one lands in dst.
    let (mut to, mut from) = if passes % 2 == 1 {
        (&mut dst[..n], &mut tmp[..])
    } else {
        (&mut tmp[..n], &mut dst[..n])
    };
    let mut starts = hist.chunks_exact_mut(buckets);
    scatter(pairs, to, starts.next().expect("passes ≥ 1"), |k| {
        digit(k, 0)
    });
    for (pass, starts) in (1..passes).zip(starts) {
        std::mem::swap(&mut to, &mut from);
        scatter(from[..n].iter().copied(), to, starts, |k| digit(k, pass));
    }
    n
}

/// The non-NULL `(key, position)` pairs of `keys` in sorted order — the
/// merge / INL sort kernel, exposed for micro-benchmarks and
/// differential tests. The slice lives in the arena.
pub fn sort_key_pairs<'s>(keys: &[i64], scratch: &'s mut ExecScratch) -> &'s [(i64, u32)] {
    let [dst, _, tmp] = &mut scratch.pairs;
    let n = sorted_pairs(keys, dst, tmp, &mut scratch.radix_hist);
    &dst[..n]
}

/// End of the run of pairs keyed `k` that starts at `sorted[start]`:
/// gallops, then binary-searches the last doubling — O(log run).
#[inline]
fn run_end(sorted: &[(i64, u32)], start: usize, k: i64) -> usize {
    let mut step = 1;
    while start + step < sorted.len() && sorted[start + step].0 == k {
        step *= 2;
    }
    let lo = start + step / 2;
    let hi = (start + step).min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&(v, _)| v == k)
}

/// Sort-merge join: sorts both inputs by key then merges duplicate groups.
fn merge_join(
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    let [lbuf, rbuf, tmp] = &mut scratch.pairs;
    let nl = sorted_pairs(lkeys, lbuf, tmp, &mut scratch.radix_hist);
    let nr = sorted_pairs(rkeys, rbuf, tmp, &mut scratch.radix_hist);
    out.transient_bytes = ((nl + nr) * PAIR_BYTES) as u64;
    let (ls, rs) = (&lbuf[..nl], &rbuf[..nr]);
    let (mut i, mut j) = (0usize, 0usize);
    while i < ls.len() && j < rs.len() {
        let (lk, rk) = (ls[i].0, rs[j].0);
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            // The cross product of the two duplicate groups.
            let i_end = run_end(ls, i, lk);
            let j_end = run_end(rs, j, rk);
            out.len += ((i_end - i) * (j_end - j)) as u64;
            if emit != Emit::Count {
                for &(_, lrow) in &ls[i..i_end] {
                    if emit.left() {
                        out.left.resize(out.left.len() + (j_end - j), lrow);
                    }
                    if emit.right() {
                        out.right.extend(rs[j..j_end].iter().map(|&(_, r)| r));
                    }
                }
            }
            i = i_end;
            j = j_end;
        }
    }
}

/// Indexed nested-loop join: builds a transient sorted index on the inner
/// (right) and probes per outer row.
fn inl_join(
    lkeys: &[i64],
    rkeys: &[i64],
    emit: Emit,
    scratch: &mut ExecScratch,
    out: &mut Matches,
) {
    let [_, rbuf, tmp] = &mut scratch.pairs;
    let nr = sorted_pairs(rkeys, rbuf, tmp, &mut scratch.radix_hist);
    out.transient_bytes = (nr * PAIR_BYTES) as u64;
    let idx = &rbuf[..nr];
    for (l, &k) in lkeys.iter().enumerate() {
        if k == NULL_KEY {
            continue;
        }
        let start = idx.partition_point(|&(v, _)| v < k);
        if start == idx.len() || idx[start].0 != k {
            continue;
        }
        let end = run_end(idx, start, k);
        out.len += (end - start) as u64;
        if emit.left() {
            out.left.resize(out.left.len() + (end - start), l as u32);
        }
        if emit.right() {
            out.right.extend(idx[start..end].iter().map(|&(_, r)| r));
        }
    }
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
        // keys) forces repeated capacity doubling (chained table) and
        // quadrupling (counting table); matches stay exact.
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
        // More distinct keys than the counting table starts with room
        // for: the rehash path must keep every aggregated count.
        let distinct = COUNT_TABLE_START_ROWS as i64 * 3;
        let rkeys: Vec<i64> = (0..distinct).chain(0..distinct / 2).collect();
        let lkeys: Vec<i64> = (0..distinct + 10).collect();
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let m = join_emit_with(
            JoinAlgo::Hash,
            &lkeys,
            &rkeys,
            Emit::Count,
            usize::MAX,
            &mut stats,
            &mut scratch,
        );
        assert_eq!(m.len, (distinct + distinct / 2) as u64);
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
        // but not the merge plan over the same live set: its sorted
        // pairs (4 + 4 non-NULL keys at 16 B) are charged on top.
        let live = stats.peak_intermediate_bytes;
        assert!(try_execute_with(&p, &bound, &db, &mut scratch, Some(live)).is_ok());
        let merge = plan(JoinAlgo::Merge);
        let err = try_execute_with(&merge, &bound, &db, &mut scratch, Some(live))
            .expect_err("sort pairs exceed the live-only budget");
        assert_eq!(
            err,
            ExecError::BudgetExceeded {
                peak_bytes: live + 8 * PAIR_BYTES as u64,
                budget_bytes: live,
            }
        );
        let (_, unbudgeted) = try_execute_with(&merge, &bound, &db, &mut scratch, None).unwrap();
        assert_eq!(unbudgeted.peak_intermediate_bytes, live);
    }
}
