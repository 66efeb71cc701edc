//! The backward earliest-arrival dynamic program.
//!
//! This is the algorithm sketched in Section 5 of the paper: *"a dynamic
//! programming scheme going backward in time: at one step, knowing all the
//! minimal trips of the series starting not before time k+1, the algorithm
//! computes the minimal trips starting exactly at time k, their duration and
//! their minimum number of hops"*, with total complexity `O(nM)`.
//!
//! # State
//!
//! For every ordered pair `(u, v)` (with `v` restricted to the
//! [`TargetSet`]), the engine maintains while sweeping steps `k = K-1 .. 0`:
//!
//! * `ea[u][v]` — earliest arrival step among temporal paths departing at a
//!   step `>= k`,
//! * `hops[u][v]` — minimum hop count among paths achieving that arrival,
//! * `set_at[u][v]` — the step at which the current `(ea, hops)` value was
//!   installed (used both to deduplicate work inside a step and to flush
//!   distance sums over the departure-time ranges where the value was valid).
//!
//! # Memory & layout invariants (the [`EngineArena`])
//!
//! The sweep calls this engine once per aggregation scale, with identical
//! table dimensions `n × |targets|` every time. All engine state therefore
//! lives in a caller-owned [`EngineArena`] that each worker thread allocates
//! once and reuses for every scale it processes. The invariants:
//!
//! * **Structure-of-arrays rows.** Cell values live in three `u32` tables,
//!   `ea`, `hops` and `set_at`, each `n × |targets|` in row-major order, so
//!   one row's arrivals are contiguous and a whole row can be offered a
//!   word at a time (the dense kernel below). Tables are never cleared
//!   between runs — `sweep_sparse`-sized inputs carry a 1394 × 1394 table
//!   per arena — and carry no per-cell stamp.
//! * **Liveness is the frontier bit.** A per-row bitmap (one bit per
//!   column) marks the cells whose earliest arrival is finite; a cell's
//!   bit is set together with its first write of the run, and the bitmap
//!   (1/32nd the size of one value table) is cleared per run, so stale
//!   values from earlier scales are never read. Backward in time,
//!   reachability only grows, so bits are set-only within a run. Snapshots
//!   and the sparse kernel iterate set bits in ascending column order; on
//!   a sparse row whole 64-column words are skipped per `trailing_zeros`
//!   step, which is decisive for early backward steps, where nearly every
//!   pair is still unreachable. The dense kernel reads every lane, so a
//!   row's dead lanes are filled with `NONE_EA` on its first dense use in
//!   a run (one masked pass, `row_ready`); only rows that may go dense pay
//!   it.
//! * **Two chain kernels, one crossover.** A continuation row is read
//!   over the words changed since the consumer's watermark (word marks,
//!   delta invariants below; the whole row on a first firing). It is
//!   *dense* when the entries the consumer may read there (live,
//!   `set_at <= last`) reach `1 / DENSE_ROW_DIVISOR` of those words'
//!   columns: its chain offers are then one straight, branchless loop over
//!   those columns that the compiler vectorizes, building each 64-column
//!   word of the step's change bitmaps from per-lane compare masks
//!   (`valid = live' & set_at' <= last & c != diag`, `better = valid & ea'
//!   < ea`, `tie = valid & ea' == ea & hops' + 1 < hops`) and counting
//!   `popcount(valid)` offers. Other rows take the *sparse* kernel: a walk
//!   of their read entries with one scalar update per entry. Rows whose
//!   live count alone already reaches the share are counted exactly, in
//!   one vectorized pass per word that also hands the sparse walk its
//!   entry bits when the row stays sparse; sparser rows are never counted.
//!   The crossover counts readable entries, not live cells, because the
//!   dense kernel costs per column read and the sparse one per entry, and
//!   delta filtering can leave a full row with a handful of entries (the
//!   `sparse_burst` bench workload); it is relative to the width read and
//!   was measured, not guessed (`CHANGES.md`). Distance runs always take
//!   the sparse kernel, which flushes a cell's distance contribution on its
//!   first change of a step; sweeps never collect distances.
//! * **Frontier snapshots.** At each step, rows that can be read as
//!   continuations are snapshotted before any edge of the step is applied:
//!   a sparse row appends its read entries (`(col, ea, hops, set_at)`
//!   records in one flat buffer), a dense row copies its three value rows
//!   over the words read (dead lanes reading `NONE_EA`). Freezing pre-step
//!   values is exactly the strict inequality of Remark 1 — same-step
//!   values can never be read back (see the ablation test
//!   `remark1_ablation.rs` for the naive in-place variant's failure).
//! * **CSR timelines.** Steps arrive as [`StepView`] slices into the
//!   timeline's flat `edge_src` / `edge_dst` arrays ([`Timeline`] docs);
//!   the engine walks them with zero per-step allocation.
//! * **Tile locality.** The recurrence `ea[u][v] ← 1 + ea'[w][v]` never
//!   reads a column other than `v`, so the engine can run on any contiguous
//!   *column range* of the [`TargetSet`] in complete isolation
//!   ([`earliest_arrival_dp_tile_in`]): the arena's tables, frontier bitmap
//!   and snapshot slots are all sized `n × tile` (better cache residency at
//!   large `n`), columns are tile-local (`global − col_start`), and reported
//!   trips / distance sums / per-tile `OccupancyHistogram`s partition the
//!   untiled run exactly — merging tiles in ascending column order
//!   reproduces the untiled output bit for bit. Traversal counts are
//!   per-edge, not per-column, so `DpStats::traversals` repeats per tile.
//! * **Degree-1 snapshot bypass.** A step carrying a single edge `(u, w)`
//!   skips the slot machinery entirely: direction `u → w` reads row `w`
//!   *live* (nothing has written it yet this step — offers only touch the
//!   reader's own row), and for undirected timelines row `u` alone is
//!   snapshotted before direction `u → w` dirties it, so direction
//!   `w → u` still sees pre-step values. Both directions take the same two
//!   kernels as the general path, so results are bit-identical; what is
//!   saved is one row snapshot, all `slot_of` bookkeeping, and (directed)
//!   every snapshot write. This attacks the snapshot-bound fine-scale tail
//!   where nearly every non-empty window holds one edge.
//!   [`DpOptions::no_degree1_fast_path`] forces the general path for
//!   differential tests and benches.
//!
//! # Delta propagation invariants
//!
//! The fine-scale tail is *offer-bound*: the same few edges fire step after
//! step, and each firing re-offers every live column of its continuation
//! row even though almost none of them changed since the previous firing.
//! The engine therefore tracks change, and only emits chain offers for
//! columns that actually changed:
//!
//! * **Per-(edge, direction) watermarks.** The timeline assigns every
//!   distinct `(src, dst)` pair a stable id ([`crate::StepView::pair`]); the arena
//!   keeps, at `wm[2 · pair + direction]`, the step at which that traversal
//!   direction last consumed its continuation row. Watermarks are reset
//!   to `NEVER` ("not fired") at the start of every run (`O(pairs)`, less
//!   than the run's traversals), so arena reuse across scales/tiles (whose
//!   pair ids mean different edges) never leaks one.
//! * **Change record = `set_at`.** A cell's `set_at` is by construction the
//!   step of its most recent `(ea, hops)` change. With the backward sweep
//!   running `k = K-1 .. 0`, "cell changed since direction `d` last fired
//!   at step `L`" is exactly `set_at <= L` (snapshot values always have
//!   `set_at >= k + 1`, so same-step writes never leak in). Alongside, a
//!   mark per row and 64-column word (`word_changed_at`, the minimum live
//!   `set_at` of the word, set by the report walk at the end of a step and
//!   so always pre-step while the step runs) lets a consumer skip a whole
//!   word when its mark is `> L`, and the whole row when every word's is.
//!   Both kernels skip such words, so a row's work follows its changed
//!   words, not its width.
//! * **Correctness (why skipped offers are no-ops).** Inductive invariant:
//!   after direction `(u, w)` fires at step `L`, every chain candidate
//!   `(ea'[w][v], hops'[w][v] + 1)` built from row `w`'s pre-step-`L`
//!   values has been offered to `(u, v)`, so `cell[u][v]` is at least as
//!   good (first on `ea`, then `hops`) as that candidate — and cells only
//!   improve monotonically. At a later (smaller) step `k`, an entry with
//!   `set_at > L` still holds the *same* value it held at step `L`, so its
//!   candidate is already dominated and cannot pass the strict
//!   improvement test. Offers that cannot improve have *zero* side effects
//!   (no value change, no change bit, no distance flush), hence the
//!   filtered run's cell states, trip stream, and distance sums are
//!   bit-identical to the unfiltered run's — enforced differentially
//!   against both the frontier engine with delta off and [`baseline`] in
//!   `proptest_frontier.rs`, and across delta × tile × thread combinations
//!   in `core/tests/tiling_determinism.rs`. The single-hop offer
//!   `(k, 1)` is never filtered: its candidate is new every step.
//! * **Filtered snapshots.** Remark-1 snapshots stay the value source, but
//!   are built *already filtered*: a pre-pass over the step's edges
//!   computes, per slotted row, the most permissive consumer watermark
//!   (`slot_maxlast`), and the snapshot keeps only entries with
//!   `set_at <= slot_maxlast` (each direction then re-filters by its own
//!   watermark). A dense row's snapshot copies the words whose mark is at
//!   most `slot_maxlast` (no consumer reads the others); its consumers
//!   apply the same `set_at' <= last` filter per lane inside the kernel's
//!   `valid` mask, so a dense and a sparse consumer emit exactly the same
//!   offers and every delta invariant above holds for both kernels. Rows
//!   with no consumer in the step — e.g. directed tails —
//!   and rows unchanged since every consumer's last visit skip the
//!   frontier scan outright. This composes with the degree-1 bypass: a
//!   single-edge step whose rows are unchanged since the edge last fired
//!   does no snapshot work and no chain scan at all, which is the common
//!   case on bursty contact trains.
//! * **Interaction with Remark 1 and the degree-1 bypass.** Filters only
//!   ever *remove* offers whose values are pre-step by the existing
//!   snapshot discipline; they never change which values are read, so the
//!   strict inequality of Remark 1 is untouched. In the degree-1 forward
//!   direction the row is read live (nothing has written it this step) and
//!   its live `word_changed_at` / `set_at` are therefore pre-step exact; the
//!   reverse-direction snapshot is taken before the forward offers dirty
//!   row `eu`, watermark filtering included.
//! * [`DpOptions::no_delta_propagation`] is a watermark override only:
//!   every watermark reads as `NEVER`, which passes every `set_at <= last`
//!   and word-mark test, so every live column is offered at every firing.
//!   The kernels and the change bitmaps are the same in both settings;
//!   results are bit-identical with the flag on or off.
//!
//! The pre-rework engine (full-row snapshots, per-run table allocation,
//! `O(ncols)` chain scans) is preserved in [`baseline`] as the comparison
//! oracle for differential tests and the speedup benches.
//!
//! # Recurrence at step `k`
//!
//! For every edge `(u, w)` of step `k` (plus the reverse traversal when
//! undirected): the single hop yields candidate `(arrival = k, hops = 1)` for
//! target `w`, and chaining through `w` yields, for every target `v`,
//! candidate `(arrival = ea'[w][v], hops = 1 + hops'[w][v])` — where primed
//! values are **pre-step** values (rows read as continuations are snapshotted
//! first), so two edges of the same step can never chain, enforcing the
//! strict inequality of Remark 1.
//!
//! # Minimal trips
//!
//! A minimal trip is exactly a strict improvement of `ea`: `(u, v, k, a)` is
//! a minimal trip iff `a = ea_k[u][v] < ea_{k+1}[u][v]`. *Proof.* If
//! `ea_{k+1} = ea_k` then the same trip fits in `[k+1, a] ⊊ [k, a]`, so
//! `[k, a]` is not minimal; conversely if `ea_k < ea_{k+1}` then no trip fits
//! in `[k+1, a'] ⊆ [k, a]` with `a' <= a` (it would force
//! `ea_{k+1} <= a < ea_{k+1}`), and no trip fits in `[k, a']` with `a' < a`
//! (it would contradict `ea_k = a`); hence `[k, a]` is minimal. Trips are
//! reported once per step, after all its edges are processed (in ascending
//! `(row, target-column)` order within the step), so the sink always sees
//! final values.

use crate::cancel::CancelToken;
use crate::{TargetSet, Timeline};

/// Sentinel for "no path".
const NONE_EA: u32 = u32::MAX;
/// Sentinel for "value never set" / "no slot".
const NEVER: u32 = u32::MAX;
/// Steps between cancellation polls in the main DP loop: a fired
/// [`CancelToken`] stops a run within this many steps of one tile. Chosen so
/// the poll is amortized to nothing even on degree-1 timelines where a step
/// costs a handful of instructions.
pub const CANCEL_STRIDE: u32 = 512;

/// Receives every minimal trip discovered by the engine.
///
/// `dep` and `arr` are *step indices* of the timeline (window indices for
/// aggregated timelines, timestamp ranks for exact ones); `hops` is the
/// minimum hop count among temporal paths departing exactly at `dep` and
/// arriving exactly at `arr`.
pub trait TripSink {
    /// Called once per minimal trip, in non-increasing `dep` order.
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32);
}

/// A sink that discards trips (useful when only distances are wanted).
pub struct NullSink;

impl TripSink for NullSink {
    fn minimal_trip(&mut self, _: u32, _: u32, _: u32, _: u32, _: u32) {}
}

impl<F: FnMut(u32, u32, u32, u32, u32)> TripSink for F {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self(u, v, dep, arr, hops)
    }
}

/// Engine options.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpOptions {
    /// Accumulate the exact sums needed for mean `d_time` / `d_hops` over all
    /// departure steps (Figure 2, bottom row). Such runs take the sparse
    /// chain kernel for every row (module docs).
    pub collect_distances: bool,
    /// Force single-edge steps through the general snapshot path instead of
    /// the degree-1 bypass (module docs). Results are bit-identical either
    /// way; the flag exists for differential tests and the
    /// `degree1_fast_path` bench. Ignored by [`baseline`], which has no
    /// fast path.
    pub no_degree1_fast_path: bool,
    /// Disable delta propagation: every delta watermark reads as `NEVER`,
    /// so every live column is offered at every step instead of only those
    /// whose source-row value changed since the same (edge, direction) last
    /// consumed the row (module docs). Nothing else changes. Results are
    /// bit-identical either way — skipped offers are provably
    /// non-improving — so the flag exists purely for differential tests and
    /// the `delta_propagation` bench/ablation. Ignored by [`baseline`],
    /// which keeps no watermarks.
    pub no_delta_propagation: bool,
}

/// Raw distance sums over every `(u, v, departure step)` triple with a finite
/// distance. Durations are counted in *steps* (`arr - dep + 1`), matching the
/// paper's graph-series definition of `d_time`.
#[derive(Clone, Copy, Debug, Default)]
pub struct DistanceSums {
    /// `Σ (arr - dep + 1)` over finite triples.
    pub sum_dtime_steps: i128,
    /// `Σ hops` over the same triples.
    pub sum_dhops: i128,
    /// Number of finite `(u, v, dep)` triples.
    pub finite_triples: i128,
}

/// Summary of one engine run.
#[derive(Clone, Copy, Debug, Default)]
pub struct DpStats {
    /// Number of minimal trips reported.
    pub trips: u64,
    /// Total edge traversals processed (`M`, doubled for undirected).
    pub traversals: u64,
    /// Chain offers actually emitted (after delta filtering; excludes the
    /// per-traversal single-hop offer). The delta bench reports this next
    /// to wall time: it is the work the watermark filters eliminate. The
    /// dense kernel sweeps whole rows but counts only its `valid` lanes —
    /// live, changed since the watermark, off the diagonal — which are
    /// exactly the entries the sparse kernel would offer, so the count
    /// does not depend on which kernel ran.
    pub chain_offers: u64,
    /// Snapshot entries taken across all steps (after snapshot-side delta
    /// filtering). A dense row's snapshot is a whole-row copy, but it
    /// counts only the live entries some consumer of the step may read
    /// (`set_at` at most the consumers' most permissive watermark) — the
    /// entries a sparse snapshot would append — so the figure keeps its
    /// meaning across kernels.
    pub snap_entries: u64,
    /// Steps taken through the degree-1 fast path (single-edge steps with
    /// no slot machinery — the fine-scale tail's dominant step shape).
    /// Always 0 for the baseline engine, which has no such path.
    pub degree1_steps: u64,
    /// Distance sums, if requested.
    pub distances: Option<DistanceSums>,
}

/// A continuation row takes the dense chain kernel when the entries its
/// consumer may read fill at least `1 / DENSE_ROW_DIVISOR` of the columns
/// read (see [`row_is_dense`]). Measured on the `sweep_dense`,
/// `sweep_sparse` and `serve_mixed` inputs; the sweep of candidates is
/// recorded in `CHANGES.md`.
const DENSE_ROW_DIVISOR: usize = 3;

/// Whether a continuation row with `live` entries among the `lanes` columns
/// a consumer reads is processed by the dense (word-parallel) chain kernel
/// rather than the sparse frontier walk. An empty row is never dense.
#[inline]
fn row_is_dense(live: usize, lanes: usize) -> bool {
    live * DENSE_ROW_DIVISOR >= lanes
}

/// One snapshotted frontier entry of a sparse continuation row. `set_at` is
/// the pre-step install step of the value — consumers with a live delta
/// watermark `L` skip entries with `set_at > L` (unchanged since they last
/// consumed the row; module docs). 16 bytes keeps the flat snapshot buffer
/// quarter-cache-line aligned.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
struct Snap {
    col: u32,
    ea: u32,
    hops: u32,
    set_at: u32,
}

/// The Remark-1 snapshot of one slotted row for the current step.
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Delta-filtered frontier entries `snap[start .. start + len]`.
    Sparse { start: u32, len: u32 },
    /// A row copy of `node` at `dense_snap[base ..]`: `ncols` arrivals, then
    /// `ncols` hop counts, then `ncols` install steps. Only the words some
    /// consumer may read (change mark at most the consumers' most
    /// permissive watermark) are copied; their dead lanes read
    /// [`NONE_EA`].
    Dense { base: u32, node: u32 },
}

/// Reusable per-worker engine state; see the module docs for the layout and
/// frontier invariants. One arena serves any number of sequential runs; the
/// sweep gives each worker thread its own.
#[derive(Clone, Debug, Default)]
pub struct EngineArena {
    nrows: usize,
    ncols: usize,
    /// Cell values as three `nrows × ncols` rows-of-columns tables: earliest
    /// arrival, min hops at that arrival, and the step the pair was
    /// installed. A cell's values mean something only while its frontier
    /// bit is set; the tables are never cleared between runs.
    ea: Vec<u32>,
    hops: Vec<u32>,
    set_at: Vec<u32>,
    /// Per-row frontier bitmap (one bit per column): bit set = live cell,
    /// i.e. finite earliest arrival this run. Set together with the cell's
    /// first write and cleared per run, it is the only liveness record.
    frontier: Vec<u64>,
    /// Words per frontier row: `ceil(ncols / 64)`.
    words_per_row: usize,
    /// Per row: its dead lanes hold [`NONE_EA`] in `ea`, as the dense kernel
    /// reads every lane. Set on the row's first dense use in a run (one
    /// masked fill), cleared per run; cells only ever go live, so the
    /// property holds until the next run.
    row_ready: Vec<bool>,
    /// Flat per-step snapshot of sparse rows' frontier entries.
    snap: Vec<Snap>,
    /// Per-step row copies of dense rows (`Slot::Dense`); never shrunk,
    /// so a step writes only the words its consumers read.
    dense_snap: Vec<u32>,
    /// Per snapshot slot: where its pre-step values live.
    slots: Vec<Slot>,
    /// Per snapshot slot: the most permissive delta watermark among the
    /// step's consumers of the row (`0` = no consumer, `NEVER` = some
    /// consumer needs everything). Snapshots keep (sparse) or count (dense)
    /// the entries with `set_at <= slot_maxlast[slot]`.
    slot_maxlast: Vec<u32>,
    /// node -> snapshot slot (`NEVER` = none), plus the slotted-node list.
    slot_of: Vec<u32>,
    slotted: Vec<u32>,
    /// The step's dirty-column set: one `words_per_row` bitmap tile per
    /// snapshot slot, bit set iff the cell changed this step. Iterating set
    /// bits (slots in ascending node order) reproduces the canonical
    /// ascending `(row, col)` report order with no sort at all.
    dirty_bits: Vec<u64>,
    /// Same geometry: bit set iff the cell's `ea` strictly improved this
    /// step — exactly the minimal-trip condition, so trip reporting is a
    /// walk of these bits.
    ea_bits: Vec<u64>,
    /// Reporting scratch: the step's `(node, slot)` pairs, sorted ascending
    /// by node before the report walk.
    report_order: Vec<(u32, u32)>,
    /// Per row and 64-column word: step of the word's most recent cell
    /// change (`NEVER` = never changed this run; reset per run). Equals the
    /// minimum `set_at` over the word's live cells, so a consumer watermark
    /// `L < word_changed_at` proves the whole word unchanged since that
    /// consumer's last visit: both kernels skip such words, and a row with
    /// no word left is skipped outright.
    word_changed_at: Vec<u32>,
    /// Scratch of one row's per-word read set (`Table::classify`).
    read_bits: Vec<u64>,
    /// Delta watermarks, indexed `2 * pair_id + direction` over the
    /// timeline's distinct edge pairs: the step at which that (edge,
    /// direction) last consumed its continuation row (`NEVER` = not fired
    /// this run). Reset per run, so pair ids of other timelines never leak.
    wm: Vec<u32>,
}

/// The cell tables and frontier of one run, split out of the arena so the
/// kernels can write them while the step's snapshots are borrowed.
struct Table<'a> {
    ncols: usize,
    words_per_row: usize,
    ea: &'a mut [u32],
    hops: &'a mut [u32],
    set_at: &'a mut [u32],
    frontier: &'a mut [u64],
    row_ready: &'a mut [bool],
    word_changed_at: &'a mut [u32],
    /// [`classify`](Self::classify)'s per-word result for the last row it
    /// classified (`words_per_row` words).
    read_bits: &'a mut [u64],
}

/// One row's values: arrivals, hop counts, install steps (`ncols` each).
type RowRef<'r> = (&'r [u32], &'r [u32], &'r [u32]);

impl Table<'_> {
    /// The frontier words of `row`.
    #[inline(always)]
    fn frontier_row(&self, row: usize) -> &[u64] {
        &self.frontier[row * self.words_per_row..][..self.words_per_row]
    }

    /// The change marks of `row`'s words.
    #[inline(always)]
    fn marks(&self, row: usize) -> &[u32] {
        &self.word_changed_at[row * self.words_per_row..][..self.words_per_row]
    }

    /// Classifies `row` for a consumer with watermark `last`, over the
    /// words it reads (change mark `<= last`), and leaves in `read_bits`
    /// the candidate entries of each word (zero for the other words).
    /// `None`: no word is read, the row is unchanged since the consumer's
    /// last visit. Otherwise whether the row takes the dense kernel: when
    /// `dense_ok` and the live count reaches the [`row_is_dense`] share of
    /// the columns read, the row is readied and `read_bits` narrowed, by
    /// one vectorized pass, to the exact entries the consumer may read
    /// (live, `set_at <= last`), whose count decides; otherwise
    /// `read_bits` holds the live bits and the row is sparse.
    #[inline]
    fn classify(&mut self, row: usize, last: u32, dense_ok: bool) -> Option<bool> {
        let wpr = self.words_per_row;
        let (mut live, mut lanes) = (0, 0);
        for wi in 0..wpr {
            let (word, mark) =
                (self.frontier[row * wpr + wi], self.word_changed_at[row * wpr + wi]);
            self.read_bits[wi] = if mark <= last { word } else { 0 };
            if mark <= last {
                live += word.count_ones() as usize;
                lanes += (self.ncols - wi * 64).min(64);
            }
        }
        if lanes == 0 {
            return None;
        }
        if !(dense_ok && row_is_dense(live, lanes)) {
            return Some(false);
        }
        self.ready(row);
        let r = row * self.ncols..(row + 1) * self.ncols;
        let (ea, set_at) = (&self.ea[r.clone()], &self.set_at[r]);
        let mut entries = 0;
        for (wi, (ea, set_at)) in ea.chunks(64).zip(set_at.chunks(64)).enumerate() {
            if self.read_bits[wi] != 0 {
                let mut flags = [0u8; 64];
                for (f, (&a, &s)) in flags.iter_mut().zip(ea.iter().zip(set_at)) {
                    *f = u8::from(a != NONE_EA) & u8::from(s <= last);
                }
                self.read_bits[wi] = pack_lanes(&flags, 0);
                entries += self.read_bits[wi].count_ones() as usize;
            }
        }
        Some(row_is_dense(entries, lanes))
    }

    /// Makes `row`'s dead lanes read [`NONE_EA`] (once per row per run).
    #[inline]
    fn ready(&mut self, row: usize) {
        if self.row_ready[row] {
            return;
        }
        self.row_ready[row] = true;
        let live = &self.frontier[row * self.words_per_row..][..self.words_per_row];
        let ea = &mut self.ea[row * self.ncols..][..self.ncols];
        for (chunk, &word) in ea.chunks_mut(64).zip(live) {
            for (j, a) in chunk.iter_mut().enumerate() {
                if word >> j & 1 == 0 {
                    *a = NONE_EA;
                }
            }
        }
    }

    /// `row`'s value slices.
    #[inline(always)]
    fn row(&self, row: usize) -> RowRef<'_> {
        let r = row * self.ncols..(row + 1) * self.ncols;
        (&self.ea[r.clone()], &self.hops[r.clone()], &self.set_at[r])
    }

    /// The sparse kernel: the DP update for one candidate `(arr, h)` at
    /// cell `(row, col)` during step `k`, recording a change in the written
    /// row's `dirty` / `ea_bits` tiles. On the cell's first change of the
    /// step its old value's distance contribution is flushed (if collected).
    #[allow(clippy::too_many_arguments)] // hot inner call; a params struct costs moves
    #[inline(always)]
    fn offer(
        &mut self,
        row: usize,
        col: u32,
        k: u32,
        arr: u32,
        h: u32,
        dirty: &mut [u64],
        ea_bits: &mut [u64],
        collect: Option<&mut DistanceSums>,
    ) {
        let idx = row * self.ncols + col as usize;
        let wi = col as usize >> 6;
        let bit = 1u64 << (col & 63);
        let fw = &mut self.frontier[row * self.words_per_row + wi];
        let live = *fw & bit != 0;
        let cur = if live { self.ea[idx] } else { NONE_EA };
        if arr < cur {
            if !live {
                // first touch this run: enters the frontier
                *fw |= bit;
                self.set_at[idx] = k;
            } else if self.set_at[idx] != k {
                if let Some(sums) = collect {
                    flush_distances(cur, self.hops[idx], self.set_at[idx], k, sums);
                }
                self.set_at[idx] = k;
            }
            self.ea[idx] = arr;
            self.hops[idx] = h;
            dirty[wi] |= bit;
            ea_bits[wi] |= bit;
        } else if arr == cur && arr != NONE_EA && h < self.hops[idx] {
            if self.set_at[idx] != k {
                if let Some(sums) = collect {
                    flush_distances(cur, self.hops[idx], self.set_at[idx], k, sums);
                }
                self.set_at[idx] = k;
            }
            self.hops[idx] = h;
            dirty[wi] |= bit;
        }
    }

    /// The dense kernel: offers every lane of row `src`'s pre-step values
    /// whose value changed since the consumer's watermark `last` (`set_at
    /// <= last`), except the diagonal column `diag`, to row `row` at step
    /// `k`. The values are read from `copy` when given, else live from the
    /// table (sound only when no offer of the step writes row `src` first:
    /// the degree-1 forward direction). Words whose change mark exceeds
    /// `last` are skipped whole. `row` must be [`ready`](Self::ready) and
    /// the source's dead lanes must read [`NONE_EA`]. Returns the number of
    /// offers (valid lanes).
    #[allow(clippy::too_many_arguments)] // one call per traversal
    #[inline]
    fn offer_row(
        &mut self,
        row: usize,
        src: usize,
        copy: Option<RowRef<'_>>,
        last: u32,
        diag: u32,
        k: u32,
        dirty: &mut [u64],
        ea_bits: &mut [u64],
    ) -> u64 {
        let n = self.ncols;
        let r = row * n..(row + 1) * n;
        let ((ea, s_ea), (hops, s_hops), (set_at, s_set)) = match copy {
            Some((a, h, s)) => (
                (&mut self.ea[r.clone()], a),
                (&mut self.hops[r.clone()], h),
                (&mut self.set_at[r], s),
            ),
            None => (
                row_pair(self.ea, n, row, src),
                row_pair(self.hops, n, row, src),
                row_pair(self.set_at, n, row, src),
            ),
        };
        let wpr = self.words_per_row;
        let marks = &self.word_changed_at[src * wpr..][..wpr];
        let frontier = &mut self.frontier[row * wpr..][..wpr];
        let mut offers = 0u64;
        for (wi, (((((ea, hops), set_at), s_ea), s_hops), s_set)) in ea
            .chunks_mut(64)
            .zip(hops.chunks_mut(64))
            .zip(set_at.chunks_mut(64))
            .zip(s_ea.chunks(64))
            .zip(s_hops.chunks(64))
            .zip(s_set.chunks(64))
            .enumerate()
        {
            if marks[wi] > last {
                continue;
            }
            let (valid, better, changed) = offer_word(
                ea,
                hops,
                set_at,
                (s_ea, s_hops, s_set),
                last,
                diag.wrapping_sub(wi as u32 * 64),
                k,
            );
            offers += u64::from(valid.count_ones());
            frontier[wi] |= better;
            ea_bits[wi] |= better;
            dirty[wi] |= changed;
        }
        offers
    }
}

/// Row `dst` of the row-major table `v` (`ncols` wide), mutably, beside its
/// row `src != dst`.
#[inline(always)]
fn row_pair(v: &mut [u32], ncols: usize, dst: usize, src: usize) -> (&mut [u32], &[u32]) {
    debug_assert_ne!(dst, src);
    let (lo, hi) = v.split_at_mut(dst.max(src) * ncols);
    if dst < src {
        (&mut lo[dst * ncols..][..ncols], &hi[..ncols])
    } else {
        (&mut hi[..ncols], &lo[src * ncols..][..ncols])
    }
}

/// All-ones when `b`, else zero.
#[inline(always)]
fn lane_mask(b: bool) -> u32 {
    0u32.wrapping_sub(u32::from(b))
}

/// Bit `flag` of each of 64 lane flags, packed into one word (lane `j` to
/// bit `j`): eight lanes per multiply, which gathers the low bit of each of
/// eight bytes into the top byte.
#[inline(always)]
fn pack_lanes(flags: &[u8; 64], flag: u32) -> u64 {
    let mut word = 0;
    for (i, chunk) in flags.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(chunk.try_into().expect("chunks of 8")) >> flag;
        word |=
            ((x & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    word
}

/// One 64-column word of the dense kernel: per lane `j`,
/// `valid = live' & set_at' <= last & j != diag`, `better = valid & ea' <
/// ea` and `tie = valid & ea' == ea & hops' + 1 < hops`; `better` installs
/// `(ea', hops' + 1, k)`, `tie` installs `(hops' + 1, k)`. Branchless, so
/// the loop vectorizes at the default target. Returns the `valid`,
/// `better` and `better | tie` lane bits.
#[inline(always)]
fn offer_word(
    ea: &mut [u32],
    hops: &mut [u32],
    set_at: &mut [u32],
    src: RowRef<'_>,
    last: u32,
    diag: u32,
    k: u32,
) -> (u64, u64, u64) {
    let n = ea.len().min(64);
    let (ea, hops, set_at) = (&mut ea[..n], &mut hops[..n], &mut set_at[..n]);
    let (s_ea, s_hops, s_set) = (&src.0[..n], &src.1[..n], &src.2[..n]);
    // bit 0: valid, bit 1: better, bit 2: better | tie
    let mut flags = [0u8; 64];
    for j in 0..n {
        let a = s_ea[j];
        let h = s_hops[j].wrapping_add(1);
        let valid =
            lane_mask(a != NONE_EA) & lane_mask(s_set[j] <= last) & lane_mask(j as u32 != diag);
        let cur = ea[j];
        let better = valid & lane_mask(a < cur);
        let changed = better | (valid & lane_mask(a == cur) & lane_mask(h < hops[j]));
        ea[j] = (a & better) | (cur & !better);
        hops[j] = (h & changed) | (hops[j] & !changed);
        set_at[j] = (k & changed) | (set_at[j] & !changed);
        flags[j] = ((valid & 1) | (better & 2) | (changed & 4)) as u8;
    }
    (pack_lanes(&flags, 0), pack_lanes(&flags, 1), pack_lanes(&flags, 2))
}

/// Flushes the distance contribution of a live cell's value `(ea, hops)`,
/// valid for departure steps `[new_k + 1, set_at]`, before replacement.
#[inline]
fn flush_distances(ea: u32, hops: u32, set_at: u32, new_k: u32, sums: &mut DistanceSums) {
    debug_assert!(ea != NONE_EA);
    let hi = set_at as i128; // inclusive
    let lo = new_k as i128 + 1; // inclusive
    if hi < lo {
        return;
    }
    let cnt = hi - lo + 1;
    // Σ_{t=lo..hi} (a - t + 1) = cnt·(a + 1) - Σ t
    let sum_t = (lo + hi) * cnt / 2;
    sums.sum_dtime_steps += cnt * (ea as i128 + 1) - sum_t;
    sums.sum_dhops += cnt * hops as i128;
    sums.finite_triples += cnt;
}

impl EngineArena {
    /// An empty arena; tables materialize on first use and are reused when
    /// dimensions repeat (the whole point: a sweep's scales all share
    /// `n × |targets|`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Readies the arena for a run over an `nrows × ncols` table.
    ///
    /// The cell tables are only grown, never cleared: liveness is the
    /// frontier bit, and the frontier, row marks and readiness flags are
    /// reset here, so values left by earlier runs — under any `(nrows,
    /// ncols)` mapping — are never read. Workers of a tiled sweep alternate
    /// between full tiles and the remainder tile, and must not reallocate
    /// per item.
    fn prepare(&mut self, nrows: usize, ncols: usize) {
        let n_cells = nrows.checked_mul(ncols).expect("state table size overflow");
        if n_cells > self.ea.len() {
            self.ea.resize(n_cells, NONE_EA);
            self.hops.resize(n_cells, 0);
            self.set_at.resize(n_cells, NEVER);
        }
        if self.nrows != nrows || self.ncols != ncols {
            self.words_per_row = ncols.div_ceil(64);
            let words = nrows * self.words_per_row;
            if words > self.frontier.len() {
                self.frontier.resize(words, 0);
            }
            if nrows > self.slot_of.len() {
                self.slot_of.resize(nrows, NEVER);
                self.row_ready.resize(nrows, false);
            }
            if words > self.word_changed_at.len() {
                self.word_changed_at.resize(words, NEVER);
            }
            self.read_bits.resize(self.words_per_row, 0);
            self.nrows = nrows;
            self.ncols = ncols;
        }
        self.frontier[..nrows * self.words_per_row].fill(0);
        self.word_changed_at[..nrows * self.words_per_row].fill(NEVER);
        self.row_ready.fill(false);
        self.slotted.clear();
        self.slots.clear();
        self.slot_maxlast.clear();
        self.snap.clear();
        // normally already zero (the report walk clears the words it
        // visits), but a sink panic can abandon a run mid-step
        self.dirty_bits.fill(0);
        self.ea_bits.fill(0);
        self.report_order.clear();
        // normally all NEVER already (step 5 of run releases slots), but a
        // sink panic caught by the caller can abandon a run mid-step and
        // leave stale slot indices behind; O(nrows) is noise next to the
        // table itself
        self.slot_of.fill(NEVER);
    }

    fn run(
        &mut self,
        timeline: &Timeline,
        targets: &TargetSet,
        col_start: u32,
        sink: &mut impl TripSink,
        options: DpOptions,
        cancel: Option<&CancelToken>,
    ) -> DpStats {
        // Field-split the arena so the kernels can hold a shared borrow of
        // the snapshot buffers while mutating the tables.
        let EngineArena {
            nrows,
            ncols,
            ea,
            hops,
            set_at,
            frontier,
            words_per_row,
            row_ready,
            snap,
            dense_snap,
            slots,
            slot_maxlast,
            slot_of,
            slotted,
            dirty_bits,
            ea_bits,
            report_order,
            word_changed_at,
            read_bits,
            wm,
        } = self;
        let (nrows, ncols, words_per_row) = (*nrows, *ncols, *words_per_row);
        let mut table = Table {
            ncols,
            words_per_row,
            ea: &mut ea[..nrows * ncols],
            hops: &mut hops[..nrows * ncols],
            set_at: &mut set_at[..nrows * ncols],
            frontier: &mut frontier[..nrows * words_per_row],
            row_ready: &mut row_ready[..nrows],
            word_changed_at: &mut word_changed_at[..nrows * words_per_row],
            read_bits,
        };
        let undirected = !timeline.is_directed();
        let collect = options.collect_distances;
        let degree1 = !options.no_degree1_fast_path;
        // Distance runs keep to the sparse kernel, which flushes a cell's
        // old value on its first change of a step; the sweep never collects
        // distances.
        let dense_ok = !collect;
        // Watermarks: two (one per direction) for each distinct edge pair of
        // this timeline, reset to "not fired" every run.
        wm.clear();
        wm.resize(timeline.distinct_pairs() as usize * 2, NEVER);
        let overridden = options.no_delta_propagation;

        // Tile-local column of node `v`, if `v` is a destination inside
        // `[col_start, col_start + ncols)` — one array read plus a wrapping
        // range compare on the hot path.
        let col_end = col_start as usize + ncols;
        let local_col = |v: u32| -> Option<u32> {
            match targets.col_of(v) {
                Some(c) if (c as usize) >= col_start as usize && (c as usize) < col_end => {
                    Some(c - col_start)
                }
                _ => None,
            }
        };
        let mut sums = DistanceSums::default();
        let mut trips = 0u64;
        let mut traversals = 0u64;
        let mut chain_offers = 0u64;
        let mut snap_entries = 0u64;
        let mut degree1_steps = 0u64;

        /// Snapshots `node`'s pre-step row for consumers whose most
        /// permissive watermark is `maxlast`, over the words changed since
        /// then: a dense row (when `dense_ok`) copies those words into the
        /// step's next `dense_snap` block and counts the entries some
        /// consumer may read, a sparse row appends their frontier entries
        /// with `set_at <= maxlast`. A row unchanged since every consumer's
        /// last visit yields an empty slot without a scan.
        #[allow(clippy::too_many_arguments)] // split-out arena parts
        fn snapshot(
            table: &mut Table<'_>,
            node: usize,
            maxlast: u32,
            dense_ok: bool,
            snap: &mut Vec<Snap>,
            dense_snap: &mut Vec<u32>,
            dense_len: &mut usize,
            entries: &mut u64,
        ) -> Slot {
            let start = snap.len() as u32;
            let Some(dense) = table.classify(node, maxlast, dense_ok) else {
                return Slot::Sparse { start, len: 0 };
            };
            let n = table.ncols;
            let (ea, hops, set_at) = table.row(node);
            if dense {
                let base = *dense_len;
                *dense_len += 3 * n;
                if dense_snap.len() < *dense_len {
                    dense_snap.resize(*dense_len, 0);
                }
                let block = &mut dense_snap[base..*dense_len];
                for (wi, &mark) in table.marks(node).iter().enumerate() {
                    if mark > maxlast {
                        continue;
                    }
                    let w = wi * 64..(wi * 64 + 64).min(n);
                    block[w.clone()].copy_from_slice(&ea[w.clone()]);
                    block[n + w.start..n + w.end].copy_from_slice(&hops[w.clone()]);
                    block[2 * n + w.start..2 * n + w.end].copy_from_slice(&set_at[w]);
                    *entries += u64::from(table.read_bits[wi].count_ones());
                }
                return Slot::Dense { base: base as u32, node: node as u32 };
            }
            for (wi, &word) in table.read_bits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let c = (wi as u32) * 64 + bits.trailing_zeros();
                    bits &= bits - 1;
                    let s = set_at[c as usize];
                    if s <= maxlast {
                        snap.push(Snap {
                            col: c,
                            ea: ea[c as usize],
                            hops: hops[c as usize],
                            set_at: s,
                        });
                    }
                }
            }
            *entries += (snap.len() as u32 - start) as u64;
            Slot::Sparse { start, len: snap.len() as u32 - start }
        }

        /// One traversal's chain offers from the snapshot `slot` into row
        /// `row`, filtered by the traversal's watermark `last`.
        #[allow(clippy::too_many_arguments)] // split-out arena parts
        #[inline(always)]
        fn chain(
            table: &mut Table<'_>,
            row: usize,
            slot: Slot,
            snap: &[Snap],
            dense_snap: &[u32],
            last: u32,
            diag: u32,
            k: u32,
            dirty: &mut [u64],
            ea_bits: &mut [u64],
            sums: Option<&mut DistanceSums>,
        ) -> u64 {
            match slot {
                Slot::Dense { base, node } => {
                    let n = table.ncols;
                    let src = &dense_snap[base as usize..][..3 * n];
                    table.ready(row);
                    table.offer_row(
                        row,
                        node as usize,
                        Some((&src[..n], &src[n..2 * n], &src[2 * n..])),
                        last,
                        diag,
                        k,
                        dirty,
                        ea_bits,
                    )
                }
                Slot::Sparse { start, len } => {
                    let mut offers = 0;
                    let mut sums = sums;
                    for s in &snap[start as usize..(start + len) as usize] {
                        if s.col == diag || s.set_at > last {
                            continue;
                        }
                        offers += 1;
                        table.offer(
                            row,
                            s.col,
                            k,
                            s.ea,
                            s.hops + 1,
                            dirty,
                            ea_bits,
                            sums.as_deref_mut(),
                        );
                    }
                    offers
                }
            }
        }

        // The delta watermark of one (edge, direction): the step at which it
        // last consumed its continuation row, or `NEVER` ("offer
        // everything") when it has not fired this run — or always, under
        // `no_delta_propagation`.
        let wm_last = |wm: &[u32], idx: usize| if overridden { NEVER } else { wm[idx] };

        // Cooperative cancellation: polled once per CANCEL_STRIDE steps —
        // coarse enough to stay invisible in the hot loop, fine enough that
        // an abandoned sweep stops in bounded time. Breaking between steps
        // leaves the arena in the same state a caught sink panic would;
        // `prepare` resets it, and the partial stats are discarded upstream.
        let mut cancel_countdown = CANCEL_STRIDE;
        for step in timeline.steps_desc() {
            if let Some(token) = cancel {
                cancel_countdown -= 1;
                if cancel_countdown == 0 {
                    cancel_countdown = CANCEL_STRIDE;
                    if token.is_cancelled() {
                        break;
                    }
                }
            }
            let k = step.index;
            if degree1 && step.len() == 1 {
                // Degree-1 fast path (module docs): one edge `(eu, ew)`,
                // no slot machinery. Direction `eu -> ew` writes only row
                // `eu`, so row `ew` stays pre-step and is read live; for the
                // undirected reverse direction, row `eu` is snapshotted
                // *before* the forward direction dirties it — the strict
                // inequality of Remark 1, with half the snapshot writes and
                // zero bookkeeping. Delta propagation applies per direction:
                // a continuation row unchanged since the direction's last
                // visit is skipped outright (for the reverse direction that
                // skips building the snapshot at all — the tail's dominant
                // cost), and a changed row only offers the entries installed
                // since.
                let (eu, ew) = (step.src[0], step.dst[0]);
                degree1_steps += 1;
                debug_assert_ne!(eu, ew, "streams never carry self-loops");
                debug_assert!(snap.is_empty() && slotted.is_empty());
                // fixed dirty-bitmap slots: row eu -> 0, row ew -> 1
                let need = 2 * words_per_row;
                if dirty_bits.len() < need {
                    dirty_bits.resize(need, 0);
                    ea_bits.resize(need, 0);
                }
                report_order.push((eu, 0));
                if undirected {
                    report_order.push((ew, 1));
                }
                let (dirty_fwd, dirty_rev) = dirty_bits[..need].split_at_mut(words_per_row);
                let (ea_fwd, ea_rev) = ea_bits[..need].split_at_mut(words_per_row);
                let wi_fwd = step.pair[0] as usize * 2;
                let last_fwd = wm_last(wm, wi_fwd);
                wm[wi_fwd] = k;
                let rev_slot = if undirected {
                    let last_rev = wm_last(wm, wi_fwd + 1);
                    wm[wi_fwd + 1] = k;
                    let slot = snapshot(
                        &mut table,
                        eu as usize,
                        last_rev,
                        dense_ok,
                        snap,
                        dense_snap,
                        &mut 0,
                        &mut snap_entries,
                    );
                    Some((slot, last_rev))
                } else {
                    None
                };
                // forward direction eu -> ew: chains over row ew, read live
                traversals += 1;
                if let Some(c) = local_col(ew) {
                    table.offer(
                        eu as usize,
                        c,
                        k,
                        k,
                        1,
                        dirty_fwd,
                        ea_fwd,
                        collect.then_some(&mut sums),
                    );
                }
                if let Some(dense) = table.classify(ew as usize, last_fwd, dense_ok) {
                    let diag = local_col(eu).unwrap_or(u32::MAX);
                    let (row_u, row_w) = (eu as usize, ew as usize);
                    if dense {
                        table.ready(row_u);
                        chain_offers += table.offer_row(
                            row_u, row_w, None, last_fwd, diag, k, dirty_fwd, ea_fwd,
                        );
                    } else {
                        for wi in 0..words_per_row {
                            // copy the word: offers touch row eu's words
                            // only, never row ew's, so each entry read is
                            // the pre-step value
                            let mut bits = table.read_bits[wi];
                            while bits != 0 {
                                let c = (wi as u32) * 64 + bits.trailing_zeros();
                                bits &= bits - 1;
                                let src = row_w * ncols + c as usize;
                                if c == diag || table.set_at[src] > last_fwd {
                                    continue;
                                }
                                chain_offers += 1;
                                let (s_ea, s_hops) = (table.ea[src], table.hops[src]);
                                table.offer(
                                    row_u,
                                    c,
                                    k,
                                    s_ea,
                                    s_hops + 1,
                                    dirty_fwd,
                                    ea_fwd,
                                    collect.then_some(&mut sums),
                                );
                            }
                        }
                    }
                }
                // reverse direction ew -> eu: chains over the (already
                // delta-filtered) snapshot
                if let Some((slot, last_rev)) = rev_slot {
                    traversals += 1;
                    if let Some(c) = local_col(eu) {
                        table.offer(
                            ew as usize,
                            c,
                            k,
                            k,
                            1,
                            dirty_rev,
                            ea_rev,
                            collect.then_some(&mut sums),
                        );
                    }
                    chain_offers += chain(
                        &mut table,
                        ew as usize,
                        slot,
                        snap,
                        dense_snap,
                        last_rev,
                        local_col(ew).unwrap_or(u32::MAX),
                        k,
                        dirty_rev,
                        ea_rev,
                        collect.then_some(&mut sums),
                    );
                }
            } else {
                // 1. Assign snapshot slots to every endpoint of the step. Reads
                //    go through edge heads, but in a directed timeline a tail
                //    `u` can be the head of another edge of the same step, so
                //    both endpoints are slotted uniformly.
                debug_assert!(slotted.is_empty());
                for &node in step.src.iter().chain(step.dst.iter()) {
                    if slot_of[node as usize] == NEVER {
                        let slot = slotted.len() as u32;
                        slot_of[node as usize] = slot;
                        slotted.push(node);
                        // 0 = "no consumer yet": watermarks and row marks at
                        // step k are always >= k + 1 >= 1, so 0 filters
                        // everything out
                        slot_maxlast.push(0);
                        report_order.push((node, slot));
                    }
                }
                let need = slotted.len() * words_per_row;
                if dirty_bits.len() < need {
                    dirty_bits.resize(need, 0);
                    ea_bits.resize(need, 0);
                }
                // 1b. Per slot, the most permissive consumer watermark: the
                //     snapshot below keeps exactly the entries at least one
                //     of the step's consuming directions still needs.
                for e in 0..step.len() {
                    let wi = step.pair[e] as usize * 2;
                    let heads: [(usize, u32); 2] = [(wi, step.dst[e]), (wi + 1, step.src[e])];
                    let nheads = if undirected { 2 } else { 1 };
                    for &(wi, head) in &heads[..nheads] {
                        let slot = slot_of[head as usize] as usize;
                        slot_maxlast[slot] = slot_maxlast[slot].max(wm_last(wm, wi));
                    }
                }
                // 2. Snapshot the pre-step row of every slotted node — only
                //    pre-step values are ever read, which is exactly the
                //    strict inequality of Remark 1 — as a row copy (dense)
                //    or the frontier entries installed since some consumer's
                //    last visit (sparse).
                let mut dense_len = 0;
                for (si, &node) in slotted.iter().enumerate() {
                    let slot = snapshot(
                        &mut table,
                        node as usize,
                        slot_maxlast[si],
                        dense_ok,
                        snap,
                        dense_snap,
                        &mut dense_len,
                        &mut snap_entries,
                    );
                    slots.push(slot);
                }

                // 3. Process every traversal of the step against the snapshots,
                //    each direction filtering by its own watermark (the shared
                //    snapshot was filtered by the *max* over consumers).
                for e in 0..step.len() {
                    let (eu, ew) = (step.src[e], step.dst[e]);
                    let wi = step.pair[e] as usize * 2;
                    let dirs: [(u32, u32, usize); 2] = [(eu, ew, wi), (ew, eu, wi + 1)];
                    let ndirs = if undirected { 2 } else { 1 };
                    for &(u, w, wi) in &dirs[..ndirs] {
                        traversals += 1;
                        // dirty-bitmap tile of the written row (= row u)
                        let base = slot_of[u as usize] as usize * words_per_row;
                        let dirty = &mut dirty_bits[base..base + words_per_row];
                        let eab = &mut ea_bits[base..base + words_per_row];
                        // single hop: u -> w at step k (never delta-filtered —
                        // its candidate `(k, 1)` is new every step)
                        if let Some(c) = local_col(w) {
                            table.offer(
                                u as usize,
                                c,
                                k,
                                k,
                                1,
                                dirty,
                                eab,
                                collect.then_some(&mut sums),
                            );
                        }
                        let last = wm_last(wm, wi);
                        wm[wi] = k;
                        // chain: u -(k)-> w, then w's pre-step entries changed
                        // since this direction last consumed them; the
                        // diagonal column is skipped (no u -> u trips)
                        chain_offers += chain(
                            &mut table,
                            u as usize,
                            slots[slot_of[w as usize] as usize],
                            snap,
                            dense_snap,
                            last,
                            local_col(u).unwrap_or(u32::MAX),
                            k,
                            dirty,
                            eab,
                            collect.then_some(&mut sums),
                        );
                    }
                }
            }

            // 4. Report the minimal trips of this step with final values,
            //    in ascending (row, target-column) order — deterministic
            //    regardless of frontier insertion order. (Equal to (u, v)
            //    order when the TargetSet's columns are node-sorted, which
            //    all built-in constructors guarantee except a caller-ordered
            //    TargetSet::from_nodes.) Walk the per-slot dirty bitmaps with
            //    slots in ascending node order: set bits ascend within a
            //    row, so the canonical order falls out with no per-step
            //    sort. An `ea_bits` bit is set iff the cell's ea strictly
            //    improved this step — exactly the minimal-trip condition —
            //    while `dirty_bits` (any change, hops ties included) feeds
            //    the per-word change marks the delta filters read.
            report_order.sort_unstable();
            for &(node, slot) in report_order.iter() {
                let base = slot as usize * words_per_row;
                let row = node as usize * ncols;
                for (wi, dirty_word) in
                    dirty_bits[base..base + words_per_row].iter_mut().enumerate()
                {
                    if *dirty_word == 0 {
                        continue;
                    }
                    *dirty_word = 0;
                    table.word_changed_at[node as usize * words_per_row + wi] = k;
                    let ea_word = &mut ea_bits[base + wi];
                    let mut bits = *ea_word;
                    *ea_word = 0;
                    while bits != 0 {
                        let c = (wi as u32) * 64 + bits.trailing_zeros();
                        bits &= bits - 1;
                        let idx = row + c as usize;
                        let v = targets.node_of(col_start + c);
                        sink.minimal_trip(node, v, k, table.ea[idx], table.hops[idx]);
                        trips += 1;
                    }
                }
            }
            report_order.clear();

            // 5. Release snapshot slots and buffers (capacity kept).
            for &node in slotted.iter() {
                slot_of[node as usize] = NEVER;
            }
            slotted.clear();
            slots.clear();
            slot_maxlast.clear();
            snap.clear();
        }

        // Final distance flush: each surviving value is valid for departure
        // steps [0, set_at]. Only frontier cells carry finite values.
        let distances = if collect {
            for node in 0..nrows {
                let (ea, hops, set_at) = table.row(node);
                for (wi, &word) in table.frontier_row(node).iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let c = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        debug_assert!(ea[c] != NONE_EA);
                        let hi = set_at[c] as i128;
                        let cnt = hi + 1; // steps 0..=hi
                        let sum_t = hi * (hi + 1) / 2;
                        sums.sum_dtime_steps += cnt * (ea[c] as i128 + 1) - sum_t;
                        sums.sum_dhops += cnt * hops[c] as i128;
                        sums.finite_triples += cnt;
                    }
                }
            }
            Some(sums)
        } else {
            None
        };

        DpStats { trips, traversals, chain_offers, snap_entries, degree1_steps, distances }
    }
}

/// Runs the backward DP over `timeline`, reporting every minimal trip whose
/// destination lies in `targets` to `sink`. Allocates a fresh arena; sweeps
/// should hold an [`EngineArena`] per worker and call
/// [`earliest_arrival_dp_in`].
///
/// Complexity: `O(|targets| · M)` time worst-case — with the frontier
/// pruning, each traversal pays for *reachable* columns only — and
/// `O(n · |targets|)` memory, where `M` is the total edge count of the
/// timeline.
pub fn earliest_arrival_dp(
    timeline: &Timeline,
    targets: &TargetSet,
    sink: &mut impl TripSink,
    options: DpOptions,
) -> DpStats {
    let mut arena = EngineArena::new();
    earliest_arrival_dp_in(&mut arena, timeline, targets, sink, options)
}

/// [`earliest_arrival_dp`] against caller-owned state: the arena's tables
/// are reused (grown, never cleared) when consecutive runs share
/// dimensions — the hot configuration of the Δ sweep.
pub fn earliest_arrival_dp_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    sink: &mut impl TripSink,
    options: DpOptions,
) -> DpStats {
    earliest_arrival_dp_tile_in(arena, timeline, targets, 0, targets.len(), sink, options)
}

/// Runs the backward DP over a contiguous *column range* of `targets`:
/// destinations `targets.node_of(c)` for `c` in
/// `col_start .. col_start + col_len`. Because the recurrence never reads
/// across columns, tile runs are completely independent: the per-tile trips
/// (reported with their global node ids), distance sums, and histograms
/// partition the untiled run exactly, and merging tiles in ascending
/// `col_start` order reproduces its output bit for bit. Arena state is
/// sized `n × col_len` — the tiled sweep's memory/cache lever.
///
/// `DpStats::traversals` counts every edge traversal of the timeline and is
/// therefore repeated per tile, not partitioned.
///
/// # Panics
/// Panics if the range is empty or exceeds `targets.len()`.
pub fn earliest_arrival_dp_tile_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    col_start: u32,
    col_len: usize,
    sink: &mut impl TripSink,
    options: DpOptions,
) -> DpStats {
    earliest_arrival_dp_tile_cancel_in(
        arena, timeline, targets, col_start, col_len, sink, options, None,
    )
}

/// [`earliest_arrival_dp_tile_in`] with a cooperative [`CancelToken`],
/// polled every [`CANCEL_STRIDE`] steps. A `None` (or never-fired) token
/// takes the exact same code path and produces bit-identical output; once
/// the token fires the run stops within one stride, its partial sink output
/// and stats are meaningless, and the caller must discard them. The arena
/// stays reusable either way.
#[allow(clippy::too_many_arguments)] // mirror of the tile entry + one token
pub fn earliest_arrival_dp_tile_cancel_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    col_start: u32,
    col_len: usize,
    sink: &mut impl TripSink,
    options: DpOptions,
    cancel: Option<&CancelToken>,
) -> DpStats {
    assert!(col_len > 0, "empty target tile");
    assert!(
        col_start as usize + col_len <= targets.len(),
        "tile [{col_start}, {col_start}+{col_len}) out of range for {} targets",
        targets.len()
    );
    arena.prepare(timeline.n() as usize, col_len);
    arena.run(timeline, targets, col_start, sink, options, cancel)
}

pub mod baseline {
    //! The pre-rework engine: fresh `O(n·|targets|)` tables per run,
    //! full-row `copy_from_slice` snapshots, `O(ncols)` chain scans.
    //!
    //! Kept as (a) the oracle for differential property tests of the
    //! frontier-pruned engine and (b) the baseline side of the speedup
    //! benches in `crates/bench` — `BENCH_sweep.json` tracks the ratio.

    use super::{DistanceSums, DpOptions, DpStats, TripSink, NEVER, NONE_EA};
    use crate::{TargetSet, Timeline};

    /// [`super::earliest_arrival_dp`]'s behavior-identical slow twin.
    pub fn earliest_arrival_dp(
        timeline: &Timeline,
        targets: &TargetSet,
        sink: &mut impl TripSink,
        options: DpOptions,
    ) -> DpStats {
        Engine::new(timeline, targets, options).run(timeline, sink)
    }

    struct Engine<'a> {
        targets: &'a TargetSet,
        ncols: usize,
        ea: Vec<u32>,
        hops: Vec<u32>,
        set_at: Vec<u32>,
        scratch_ea: Vec<u32>,
        scratch_hops: Vec<u32>,
        slot_of: Vec<u32>,
        slotted: Vec<u32>,
        dirty: Vec<(usize, u32)>,
        collect_distances: bool,
        sums: DistanceSums,
    }

    impl<'a> Engine<'a> {
        fn new(timeline: &Timeline, targets: &'a TargetSet, options: DpOptions) -> Self {
            let n = timeline.n() as usize;
            let ncols = targets.len();
            let cells = n.checked_mul(ncols).expect("state table size overflow");
            Engine {
                targets,
                ncols,
                ea: vec![NONE_EA; cells],
                hops: vec![0; cells],
                set_at: vec![NEVER; cells],
                scratch_ea: Vec::new(),
                scratch_hops: Vec::new(),
                slot_of: vec![NEVER; n],
                slotted: Vec::new(),
                dirty: Vec::new(),
                collect_distances: options.collect_distances,
                sums: DistanceSums::default(),
            }
        }

        #[inline]
        fn flush_distances(&mut self, idx: usize, new_k: u32) {
            if !self.collect_distances {
                return;
            }
            let a = self.ea[idx];
            if a == NONE_EA {
                return;
            }
            let hi = self.set_at[idx] as i128;
            let lo = new_k as i128 + 1;
            if hi < lo {
                return;
            }
            let cnt = hi - lo + 1;
            let sum_t = (lo + hi) * cnt / 2;
            self.sums.sum_dtime_steps += cnt * (a as i128 + 1) - sum_t;
            self.sums.sum_dhops += cnt * self.hops[idx] as i128;
            self.sums.finite_triples += cnt;
        }

        #[inline]
        fn offer(&mut self, idx: usize, k: u32, arr: u32, h: u32) {
            let cur = self.ea[idx];
            if arr < cur {
                if self.set_at[idx] != k {
                    self.flush_distances(idx, k);
                    self.dirty.push((idx, cur));
                    self.set_at[idx] = k;
                }
                self.ea[idx] = arr;
                self.hops[idx] = h;
            } else if arr == cur && arr != NONE_EA && h < self.hops[idx] {
                if self.set_at[idx] != k {
                    self.flush_distances(idx, k);
                    self.dirty.push((idx, cur));
                    self.set_at[idx] = k;
                }
                self.hops[idx] = h;
            }
        }

        fn run(mut self, timeline: &Timeline, sink: &mut impl TripSink) -> DpStats {
            let undirected = !timeline.is_directed();
            let ncols = self.ncols;
            let mut trips = 0u64;
            let mut traversals = 0u64;
            let mut chain_offers = 0u64;
            let mut snap_entries = 0u64;

            for step in timeline.steps_desc() {
                let k = step.index;
                debug_assert!(self.slotted.is_empty());
                for &node in step.src.iter().chain(step.dst.iter()) {
                    if self.slot_of[node as usize] == NEVER {
                        let slot = self.slotted.len();
                        self.slot_of[node as usize] = slot as u32;
                        self.slotted.push(node);
                        let need = (slot + 1) * ncols;
                        if self.scratch_ea.len() < need {
                            self.scratch_ea.resize(need, NONE_EA);
                            self.scratch_hops.resize(need, 0);
                        }
                        let src = node as usize * ncols;
                        self.scratch_ea[slot * ncols..need]
                            .copy_from_slice(&self.ea[src..src + ncols]);
                        self.scratch_hops[slot * ncols..need]
                            .copy_from_slice(&self.hops[src..src + ncols]);
                        snap_entries += ncols as u64;
                    }
                }

                for e in 0..step.len() {
                    let (eu, ew) = (step.src[e], step.dst[e]);
                    let dirs: [(u32, u32); 2] = [(eu, ew), (ew, eu)];
                    let ndirs = if undirected { 2 } else { 1 };
                    for &(u, w) in &dirs[..ndirs] {
                        traversals += 1;
                        let row = u as usize * ncols;
                        if let Some(c) = self.targets.col_of(w) {
                            self.offer(row + c as usize, k, k, 1);
                        }
                        let slot = self.slot_of[w as usize] as usize;
                        let su_col = self.targets.col_of(u);
                        let base = slot * ncols;
                        for c in 0..ncols {
                            let a = self.scratch_ea[base + c];
                            if a == NONE_EA {
                                continue;
                            }
                            if su_col == Some(c as u32) {
                                continue;
                            }
                            chain_offers += 1;
                            let h = 1 + self.scratch_hops[base + c];
                            self.offer(row + c, k, a, h);
                        }
                    }
                }

                self.dirty.sort_unstable_by_key(|&(idx, _)| idx);
                for &(idx, pre_ea) in &self.dirty {
                    let a = self.ea[idx];
                    if a < pre_ea {
                        let u = (idx / ncols) as u32;
                        let v = self.targets.node_of((idx % ncols) as u32);
                        sink.minimal_trip(u, v, k, a, self.hops[idx]);
                        trips += 1;
                    }
                }
                self.dirty.clear();

                for &node in &self.slotted {
                    self.slot_of[node as usize] = NEVER;
                }
                self.slotted.clear();
            }

            let distances = if self.collect_distances {
                for idx in 0..self.ea.len() {
                    let a = self.ea[idx];
                    if a == NONE_EA {
                        continue;
                    }
                    let hi = self.set_at[idx] as i128;
                    let cnt = hi + 1;
                    let sum_t = hi * (hi + 1) / 2;
                    self.sums.sum_dtime_steps += cnt * (a as i128 + 1) - sum_t;
                    self.sums.sum_dhops += cnt * self.hops[idx] as i128;
                    self.sums.finite_triples += cnt;
                }
                Some(self.sums)
            } else {
                None
            };

            DpStats {
                trips,
                traversals,
                chain_offers,
                snap_entries,
                degree1_steps: 0,
                distances,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::Directedness;

    /// Collects trips into a vector for inspection.
    #[derive(Default)]
    struct Collect(Vec<(u32, u32, u32, u32, u32)>);

    impl TripSink for Collect {
        fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
            self.0.push((u, v, dep, arr, hops));
        }
    }

    fn run(
        stream_text: &str,
        directedness: Directedness,
        k: u64,
    ) -> Vec<(u32, u32, u32, u32, u32)> {
        let s = saturn_linkstream::io::read_str(stream_text, directedness).unwrap();
        let t = Timeline::aggregated(&s, k);
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(t.n()), &mut sink, DpOptions::default());
        let mut out = sink.0;
        out.sort_unstable();
        out
    }

    #[test]
    fn single_link_single_trip() {
        // a-b at t=0; a-c at t=5
        let trips = run("a b 0\na c 5\n", Directedness::Undirected, 5);
        // Δ = 1: a-b in window 0 (both directions), a-c in window 4
        // trips: (a,b,0,0,1), (b,a,0,0,1), (a,c,4,4,1), (c,a,4,4,1), and
        // b -> c via a: edge ab at w0, ac at w4: b dep 0 arr 4 hops 2
        // c -> b: needs ca before ab: impossible.
        assert!(trips.contains(&(0, 1, 0, 0, 1)));
        assert!(trips.contains(&(1, 0, 0, 0, 1)));
        assert!(trips.contains(&(0, 2, 4, 4, 1)));
        assert!(trips.contains(&(1, 2, 0, 4, 2)));
        assert!(!trips.iter().any(|&(u, v, ..)| u == 2 && v == 1));
    }

    #[test]
    fn same_window_links_cannot_chain() {
        // Both links in one window (K = 1): no two-hop path (Remark 1 / Fig 1).
        let trips = run("a b 0\nb c 5\n", Directedness::Undirected, 1);
        // only the four single-link trips inside window 0
        assert_eq!(trips.len(), 4);
        assert!(trips.iter().all(|&(.., hops)| hops == 1));
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (0, 2)));
    }

    #[test]
    fn two_window_chain_exists() {
        let trips = run("a b 0\nb c 5\n", Directedness::Undirected, 2);
        // windows: ab in w0, bc in w1; a->c = (0, 2, dep 0, arr 1, hops 2)
        assert!(trips.contains(&(0, 2, 0, 1, 2)));
        // c->a would need cb then ba: cb is in w1, ba would need w>1: absent
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (2, 0)));
    }

    #[test]
    fn directed_edges_are_one_way() {
        let s =
            saturn_linkstream::io::read_str("a b 0\nb c 5\n", Directedness::Directed).unwrap();
        let t = Timeline::aggregated(&s, 2);
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(3), &mut sink, DpOptions::default());
        let trips = sink.0;
        assert!(trips.contains(&(0, 2, 0, 1, 2)));
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (1, 0))); // no b->a
        assert!(!trips.iter().any(|&(u, v, ..)| (u, v) == (2, 1)));
    }

    #[test]
    fn minimality_no_nested_trip() {
        // a-b at w0 and w2; b-c at w3.
        // a->c trips: dep 0: ab@0 then bc@3 -> arr 3. But ab@2 then bc@3 is
        // strictly inside: the minimal trips must be (2,3), not (0,3).
        let text = "a b 0\na b 20\nb c 30\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 4); // Δ=7.5: t=0->w0, 20->w2, 30->w3
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(3), &mut sink, DpOptions::default());
        let ac: Vec<_> = sink.0.iter().filter(|&&(u, v, ..)| (u, v) == (0, 2)).collect();
        assert_eq!(ac.len(), 1);
        assert_eq!(*ac[0], (0, 2, 2, 3, 2));
    }

    #[test]
    fn hops_are_minimum_at_earliest_arrival() {
        // Two routes a->d arriving at the same window 2:
        //   long: a-b@0, b-c@1, c-d@2 (3 hops)
        //   short: direct a-d@2 (1 hop)
        let text = "a b 0\nb c 10\nc d 20\na d 20\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 3); // windows of 20/3: w0={ab}, w1={bc}, w2={cd, ad}
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(4), &mut sink, DpOptions::default());
        let ad: Vec<_> = sink.0.iter().filter(|&&(u, v, ..)| (u, v) == (0, 3)).collect();
        // minimal trip dep 0..: earliest arrival w2 via either route; but the
        // direct link at w2 gives trip (2,2) which dominates (0,2): minimal
        // trips are (2,2,1 hop).
        assert_eq!(ad.len(), 1);
        assert_eq!(*ad[0], (0, 3, 2, 2, 1));
    }

    #[test]
    fn same_step_improvement_keeps_min_hops() {
        // Two paths arriving at the same step, both departing at step 0:
        // a-b@w0,b-d@w1 (2 hops) and a-c@w0,c-d@w1 (2 hops). Ensure hops
        // reported is 2 and a single trip per pair.
        let text = "a b 0\na c 0\nb d 10\nc d 10\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 2);
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &TargetSet::all(4), &mut sink, DpOptions::default());
        let ad: Vec<_> = sink.0.iter().filter(|&&(u, v, ..)| (u, v) == (0, 3)).collect();
        assert_eq!(ad.len(), 1);
        assert_eq!(*ad[0], (0, 3, 0, 1, 2));
    }

    #[test]
    fn target_sampling_restricts_destinations() {
        let text = "a b 0\nb c 10\nc d 20\n";
        let s = saturn_linkstream::io::read_str(text, Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 3);
        let targets = TargetSet::from_nodes(4, &[3]); // only destination d
        let mut sink = Collect::default();
        earliest_arrival_dp(&t, &targets, &mut sink, DpOptions::default());
        assert!(!sink.0.is_empty());
        assert!(sink.0.iter().all(|&(_, v, ..)| v == 3));
    }

    #[test]
    fn distance_sums_match_manual_enumeration() {
        // Tiny stream; enumerate d_time by hand.
        // Windows (K=2): w0 = {ab}, w1 = {bc}. Pairs with finite distances:
        // (a,b): dep 0 -> arr 0 (d=1); dep 1 -> none.
        // (b,a): dep 0 -> arr 0 (d=1).
        // (b,c): dep 0 -> arr 1 (d=2); dep 1 -> arr 1 (d=1).
        // (c,b): cb exists at w1 only: dep 0 -> arr 1 (d=2), dep 1 -> d=1.
        // (a,c): dep 0 -> ab@0, bc@1, arr 1, d=2, hops 2.
        // (c,a): none.
        // Σ d_time = 1+1+ (2+1) + (2+1) + 2 = 10 ; triples = 7
        // Σ hops  = 1+1+ (1+1) + (1+1) + 2 = 8
        let s = saturn_linkstream::io::read_str("a b 0\nb c 10\n", Directedness::Undirected)
            .unwrap();
        let t = Timeline::aggregated(&s, 2);
        let stats = earliest_arrival_dp(
            &t,
            &TargetSet::all(3),
            &mut NullSink,
            DpOptions { collect_distances: true, ..Default::default() },
        );
        let d = stats.distances.unwrap();
        assert_eq!(d.finite_triples, 7);
        assert_eq!(d.sum_dtime_steps, 10);
        assert_eq!(d.sum_dhops, 8);
    }

    #[test]
    fn closure_sink_works() {
        let s = saturn_linkstream::io::read_str("a b 0\nb c 10\n", Directedness::Undirected)
            .unwrap();
        let t = Timeline::aggregated(&s, 2);
        let mut count = 0u32;
        let mut sink = |_u: u32, _v: u32, _d: u32, _a: u32, _h: u32| count += 1;
        let stats =
            earliest_arrival_dp(&t, &TargetSet::all(3), &mut sink, DpOptions::default());
        assert_eq!(stats.trips as u32, count);
    }

    /// An arena reused across runs of *different* scales and dimensions must
    /// behave exactly like fresh allocation.
    #[test]
    fn arena_reuse_is_transparent() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\n",
            Directedness::Undirected,
        )
        .unwrap();
        let mut arena = EngineArena::new();
        for &k in &[1u64, 2, 5, 9, 33, 9, 2] {
            let t = Timeline::aggregated(&s, k);
            let mut fresh_sink = Collect::default();
            let fresh = earliest_arrival_dp(
                &t,
                &TargetSet::all(4),
                &mut fresh_sink,
                DpOptions { collect_distances: true, ..Default::default() },
            );
            let mut reused_sink = Collect::default();
            let reused = earliest_arrival_dp_in(
                &mut arena,
                &t,
                &TargetSet::all(4),
                &mut reused_sink,
                DpOptions { collect_distances: true, ..Default::default() },
            );
            assert_eq!(fresh_sink.0, reused_sink.0, "k={k}");
            assert_eq!(fresh.trips, reused.trips, "k={k}");
            assert_eq!(fresh.traversals, reused.traversals, "k={k}");
            let (df, dr) = (fresh.distances.unwrap(), reused.distances.unwrap());
            assert_eq!(df.sum_dtime_steps, dr.sum_dtime_steps, "k={k}");
            assert_eq!(df.sum_dhops, dr.sum_dhops, "k={k}");
            assert_eq!(df.finite_triples, dr.finite_triples, "k={k}");
        }
        // dimension change mid-stream: arena must transparently reallocate
        let t = Timeline::aggregated(&s, 3);
        let targets = TargetSet::from_nodes(4, &[0, 2]);
        let mut a_sink = Collect::default();
        earliest_arrival_dp_in(&mut arena, &t, &targets, &mut a_sink, DpOptions::default());
        let mut f_sink = Collect::default();
        earliest_arrival_dp(&t, &targets, &mut f_sink, DpOptions::default());
        assert_eq!(a_sink.0, f_sink.0);
    }

    /// Tile runs partition the untiled run exactly: for every tile size,
    /// concatenating per-tile trips (each tile's stream re-sorted) and
    /// summing distance stats reproduces the full run.
    #[test]
    fn tiled_runs_partition_the_untiled_run() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nc d 3\nb c 7\nd e 9\na e 14\nb d 18\nc e 21\na c 25\n",
            Directedness::Undirected,
        )
        .unwrap();
        let targets = TargetSet::all(5);
        let mut arena = EngineArena::new();
        for &k in &[1u64, 3, 9, 25] {
            let t = Timeline::aggregated(&s, k);
            let mut full_sink = Collect::default();
            let full = earliest_arrival_dp(
                &t,
                &targets,
                &mut full_sink,
                DpOptions { collect_distances: true, ..Default::default() },
            );
            let mut full_trips = full_sink.0;
            full_trips.sort_unstable();
            for tile in [1usize, 2, 3, 5] {
                let mut trips = Vec::new();
                let mut trip_count = 0u64;
                let mut sums = DistanceSums::default();
                for (start, len) in targets.tile_ranges(tile) {
                    let mut sink = Collect::default();
                    let stats = earliest_arrival_dp_tile_in(
                        &mut arena,
                        &t,
                        &targets,
                        start,
                        len as usize,
                        &mut sink,
                        DpOptions { collect_distances: true, ..Default::default() },
                    );
                    assert_eq!(stats.traversals, full.traversals, "k={k} tile={tile}");
                    trip_count += stats.trips;
                    let d = stats.distances.unwrap();
                    sums.sum_dtime_steps += d.sum_dtime_steps;
                    sums.sum_dhops += d.sum_dhops;
                    sums.finite_triples += d.finite_triples;
                    trips.extend(sink.0);
                }
                trips.sort_unstable();
                assert_eq!(trips, full_trips, "k={k} tile={tile}");
                assert_eq!(trip_count, full.trips, "k={k} tile={tile}");
                let fd = full.distances.unwrap();
                assert_eq!(sums.sum_dtime_steps, fd.sum_dtime_steps, "k={k} tile={tile}");
                assert_eq!(sums.sum_dhops, fd.sum_dhops, "k={k} tile={tile}");
                assert_eq!(sums.finite_triples, fd.finite_triples, "k={k} tile={tile}");
            }
        }
    }

    /// A single tile over a middle column range must equal the column
    /// restriction of the full run, with global node ids in the reports.
    #[test]
    fn middle_tile_reports_global_node_ids() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nb c 5\nc d 10\nd e 15\n",
            Directedness::Undirected,
        )
        .unwrap();
        let targets = TargetSet::all(5);
        let t = Timeline::aggregated(&s, 4);
        let mut full = Collect::default();
        earliest_arrival_dp(&t, &targets, &mut full, DpOptions::default());
        let expected: Vec<_> =
            full.0.iter().copied().filter(|&(_, v, ..)| v == 2 || v == 3).collect();
        let mut tile = Collect::default();
        let mut arena = EngineArena::new();
        earliest_arrival_dp_tile_in(
            &mut arena,
            &t,
            &targets,
            2,
            2,
            &mut tile,
            DpOptions::default(),
        );
        assert_eq!(tile.0, expected);
    }

    /// The degree-1 bypass must be invisible: identical trip streams (order
    /// included), stats, and distance sums with the fast path on and off,
    /// on directed and undirected timelines alike.
    #[test]
    fn degree1_fast_path_is_invisible() {
        let text = "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\nc e 41\ne a 47\n";
        for directedness in [Directedness::Undirected, Directedness::Directed] {
            let s = saturn_linkstream::io::read_str(text, directedness).unwrap();
            for &k in &[2u64, 5, 13, 47] {
                let t = Timeline::aggregated(&s, k);
                assert!(
                    k < 13 || t.steps_desc().any(|step| step.len() == 1),
                    "fine scales must exercise single-edge steps (k={k})"
                );
                let mut fast = Collect::default();
                let fs = earliest_arrival_dp(
                    &t,
                    &TargetSet::all(5),
                    &mut fast,
                    DpOptions { collect_distances: true, ..Default::default() },
                );
                let mut general = Collect::default();
                let gs = earliest_arrival_dp(
                    &t,
                    &TargetSet::all(5),
                    &mut general,
                    DpOptions {
                        collect_distances: true,
                        no_degree1_fast_path: true,
                        ..Default::default()
                    },
                );
                assert_eq!(fast.0, general.0, "{directedness:?} k={k}");
                assert_eq!(fs.trips, gs.trips, "{directedness:?} k={k}");
                assert_eq!(fs.traversals, gs.traversals, "{directedness:?} k={k}");
                let (fd, gd) = (fs.distances.unwrap(), gs.distances.unwrap());
                assert_eq!(fd.sum_dtime_steps, gd.sum_dtime_steps, "{directedness:?} k={k}");
                assert_eq!(fd.sum_dhops, gd.sum_dhops, "{directedness:?} k={k}");
                assert_eq!(fd.finite_triples, gd.finite_triples, "{directedness:?} k={k}");
            }
        }
    }

    /// Delta propagation must be invisible: identical trip streams (order
    /// included), stats, and distance sums with the watermark filters on
    /// and off, across directednesses, scales, and one arena reused for
    /// all runs (watermark state from earlier scales must stay dead).
    #[test]
    fn delta_propagation_is_invisible() {
        let text = "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\nc e 41\ne a 47\n\
                    a b 50\nb c 57\nc d 63\nd a 70\n";
        let mut arena = EngineArena::new();
        for directedness in [Directedness::Undirected, Directedness::Directed] {
            let s = saturn_linkstream::io::read_str(text, directedness).unwrap();
            for &k in &[1u64, 2, 5, 13, 29, 70] {
                let t = Timeline::aggregated(&s, k);
                let mut on = Collect::default();
                let on_stats = earliest_arrival_dp_in(
                    &mut arena,
                    &t,
                    &TargetSet::all(5),
                    &mut on,
                    DpOptions { collect_distances: true, ..Default::default() },
                );
                let mut off = Collect::default();
                let off_stats = earliest_arrival_dp_in(
                    &mut arena,
                    &t,
                    &TargetSet::all(5),
                    &mut off,
                    DpOptions {
                        collect_distances: true,
                        no_delta_propagation: true,
                        ..Default::default()
                    },
                );
                assert_eq!(on.0, off.0, "{directedness:?} k={k}");
                assert_eq!(on_stats.trips, off_stats.trips, "{directedness:?} k={k}");
                assert_eq!(on_stats.traversals, off_stats.traversals, "{directedness:?} k={k}");
                let (od, fd) = (on_stats.distances.unwrap(), off_stats.distances.unwrap());
                assert_eq!(od.sum_dtime_steps, fd.sum_dtime_steps, "{directedness:?} k={k}");
                assert_eq!(od.sum_dhops, fd.sum_dhops, "{directedness:?} k={k}");
                assert_eq!(od.finite_triples, fd.finite_triples, "{directedness:?} k={k}");
            }
        }
    }

    /// Delta filtering composes with tiling: every tile cover with delta on
    /// merges to the delta-off untiled run.
    #[test]
    fn delta_propagation_composes_with_tiles() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nc d 3\nb c 7\nd e 9\na e 14\nb d 18\nc e 21\na c 25\nb c 31\nd e 37\n",
            Directedness::Undirected,
        )
        .unwrap();
        let targets = TargetSet::all(5);
        let mut arena = EngineArena::new();
        for &k in &[3u64, 9, 37] {
            let t = Timeline::aggregated(&s, k);
            let mut full_sink = Collect::default();
            earliest_arrival_dp(
                &t,
                &targets,
                &mut full_sink,
                DpOptions { no_delta_propagation: true, ..Default::default() },
            );
            let mut full_trips = full_sink.0;
            full_trips.sort_unstable();
            for tile in [1usize, 2, 5] {
                let mut trips = Vec::new();
                for (start, len) in targets.tile_ranges(tile) {
                    let mut sink = Collect::default();
                    earliest_arrival_dp_tile_in(
                        &mut arena,
                        &t,
                        &targets,
                        start,
                        len as usize,
                        &mut sink,
                        DpOptions::default(),
                    );
                    trips.extend(sink.0);
                }
                trips.sort_unstable();
                assert_eq!(trips, full_trips, "k={k} tile={tile}");
            }
        }
    }

    /// The frontier-pruned engine and the baseline full-scan engine must be
    /// indistinguishable, including trip report order.
    #[test]
    fn frontier_engine_matches_baseline() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nc d 3\nb c 7\nd e 9\na e 14\nb d 18\nc e 21\na c 25\n",
            Directedness::Undirected,
        )
        .unwrap();
        for &k in &[1u64, 2, 4, 7, 13, 25] {
            let t = Timeline::aggregated(&s, k);
            let mut fast = Collect::default();
            let f = earliest_arrival_dp(
                &t,
                &TargetSet::all(5),
                &mut fast,
                DpOptions { collect_distances: true, ..Default::default() },
            );
            let mut slow = Collect::default();
            let b = baseline::earliest_arrival_dp(
                &t,
                &TargetSet::all(5),
                &mut slow,
                DpOptions { collect_distances: true, ..Default::default() },
            );
            assert_eq!(fast.0, slow.0, "k={k}");
            assert_eq!(f.trips, b.trips, "k={k}");
            assert_eq!(f.traversals, b.traversals, "k={k}");
            let (df, db) = (f.distances.unwrap(), b.distances.unwrap());
            assert_eq!(df.sum_dtime_steps, db.sum_dtime_steps, "k={k}");
            assert_eq!(df.sum_dhops, db.sum_dhops, "k={k}");
            assert_eq!(df.finite_triples, db.finite_triples, "k={k}");
        }
    }

    /// A timeline whose hub row `w` holds exactly `live` columns of the first
    /// tile (`0..width`) when its consumers read it. Latest steps: `w` reaches
    /// `x_1..x_live` (distinct first-tile nodes). Then: `(w, x_1)` again in
    /// the same step as consumer `(u1, w)`, and `(u1, w)` alone one step
    /// earlier — the entry installed in the consumer's own step sits exactly
    /// at its watermark (`set_at == last`). Then a multi-edge consumer step
    /// and single-edge consumers that are themselves hub targets, whose own
    /// column is the diagonal. Earliest steps: seeded noise, which can only
    /// touch rows after the hub's consumers have read it.
    fn crossover_stream(
        directedness: Directedness,
        width: u32,
        live: u32,
        seed: u64,
    ) -> saturn_linkstream::LinkStream {
        let n = width + 6;
        let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |bound: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(bound)) as u32
        };
        let mut first_tile: Vec<u32> = (0..width).collect();
        for i in (1..first_tile.len()).rev() {
            first_tile.swap(i, next(i as u32 + 1) as usize);
        }
        let xs = &first_tile[..live as usize];
        let (w, u1, u2, u3) = (width, width + 1, width + 2, width + 3);
        let mut b = saturn_linkstream::LinkStreamBuilder::indexed(directedness, n);
        for (j, &x) in xs.iter().enumerate() {
            b.add_indexed(w, x, 2000 + j as i64);
        }
        if let Some(&x1) = xs.first() {
            b.add_indexed(w, x1, 1500);
        }
        b.add_indexed(u1, w, 1500);
        b.add_indexed(u1, w, 1499);
        b.add_indexed(u2, w, 1498);
        b.add_indexed(u3, w, 1498);
        b.add_indexed(u1, u2, 1498);
        for &x in xs.iter().take(3) {
            b.add_indexed(x, w, 1400 + i64::from(x % 90));
            b.add_indexed(u3, x, 1300 + i64::from(x % 90));
        }
        for _ in 0..3 * n {
            let (u, v) = (next(n), next(n));
            if u != v {
                b.add_indexed(u, v, i64::from(next(40)));
            }
        }
        b.build().expect("non-empty")
    }

    /// Continuation rows at the dense crossover's popcount threshold − 1,
    /// threshold and threshold + 1 (where the width allows), on tile widths
    /// around the 64-column word, directed and undirected, with distances
    /// on (sparse kernel only) and off: every tile's trip stream equals the
    /// baseline's stream restricted to the tile's columns, in order, and
    /// traversals and summed distances match. One arena serves every case,
    /// so geometry changes are covered too.
    #[test]
    fn dense_crossover_matches_baseline() {
        let mut arena = EngineArena::new();
        for width in [1u32, 63, 64, 65, 130] {
            let threshold = (0..=width)
                .find(|&p| row_is_dense(p as usize, width as usize))
                .expect("a full row is dense");
            assert!(threshold >= 1, "an empty row is never dense");
            for live in threshold - 1..=(threshold + 1).min(width) {
                for directedness in [Directedness::Directed, Directedness::Undirected] {
                    for seed in 1..=2 {
                        let stream = crossover_stream(directedness, width, live, seed);
                        let t = Timeline::exact(&stream);
                        let targets = TargetSet::all(t.n());
                        for collect in [false, true] {
                            let case = format!(
                                "width={width} live={live} {directedness:?} seed={seed} \
                                 collect={collect}"
                            );
                            let options =
                                DpOptions { collect_distances: collect, ..Default::default() };
                            let mut full = Collect::default();
                            let b =
                                baseline::earliest_arrival_dp(&t, &targets, &mut full, options);
                            let mut sums = DistanceSums::default();
                            for (start, len) in targets.tile_ranges(width as usize) {
                                let mut tile = Collect::default();
                                let s = earliest_arrival_dp_tile_in(
                                    &mut arena,
                                    &t,
                                    &targets,
                                    start,
                                    len as usize,
                                    &mut tile,
                                    options,
                                );
                                let cols = start..start + len;
                                let expected: Vec<_> = full
                                    .0
                                    .iter()
                                    .copied()
                                    .filter(|&(_, v, ..)| {
                                        cols.contains(&targets.col_of(v).unwrap())
                                    })
                                    .collect();
                                assert_eq!(tile.0, expected, "{case} tile={start}");
                                assert_eq!(s.traversals, b.traversals, "{case} tile={start}");
                                if let Some(d) = s.distances {
                                    sums.sum_dtime_steps += d.sum_dtime_steps;
                                    sums.sum_dhops += d.sum_dhops;
                                    sums.finite_triples += d.finite_triples;
                                }
                            }
                            if let Some(bd) = b.distances {
                                assert_eq!(sums.sum_dtime_steps, bd.sum_dtime_steps, "{case}");
                                assert_eq!(sums.sum_dhops, bd.sum_dhops, "{case}");
                                assert_eq!(sums.finite_triples, bd.finite_triples, "{case}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// A present-but-never-fired token must be invisible: identical trip
    /// stream and stats as the `None` path (the knob-matrix invariant at the
    /// engine level).
    #[test]
    fn unfired_token_is_invisible() {
        let s = saturn_linkstream::io::read_str(
            "a b 0\nb c 7\nc d 13\nd a 20\na c 27\nb d 33\n",
            Directedness::Undirected,
        )
        .unwrap();
        let t = Timeline::aggregated(&s, 17);
        let targets = TargetSet::all(4);
        let mut plain = Collect::default();
        let ps = earliest_arrival_dp(&t, &targets, &mut plain, DpOptions::default());
        let token = CancelToken::new();
        let mut arena = EngineArena::new();
        let mut with_token = Collect::default();
        let ts = earliest_arrival_dp_tile_cancel_in(
            &mut arena,
            &t,
            &targets,
            0,
            targets.len(),
            &mut with_token,
            DpOptions::default(),
            Some(&token),
        );
        assert_eq!(plain.0, with_token.0);
        assert_eq!(ps.trips, ts.trips);
        assert_eq!(ps.traversals, ts.traversals);
    }

    /// A pre-fired token stops the run within one `CANCEL_STRIDE` of steps,
    /// and the arena remains reusable for a full run afterwards.
    #[test]
    fn fired_token_stops_early_and_arena_survives() {
        // > 3×CANCEL_STRIDE single-edge steps so several polls happen.
        let mut text = String::new();
        for i in 0..(3 * CANCEL_STRIDE + 100) {
            text.push_str(&format!("a b {i}\n"));
        }
        let s = saturn_linkstream::io::read_str(&text, Directedness::Undirected).unwrap();
        let k = u64::from(3 * CANCEL_STRIDE + 100);
        let t = Timeline::aggregated(&s, k);
        let targets = TargetSet::all(2);
        let mut full = Collect::default();
        let fs = earliest_arrival_dp(&t, &targets, &mut full, DpOptions::default());

        let token = CancelToken::new();
        token.cancel();
        let mut arena = EngineArena::new();
        let mut partial = Collect::default();
        let ps = earliest_arrival_dp_tile_cancel_in(
            &mut arena,
            &t,
            &targets,
            0,
            targets.len(),
            &mut partial,
            DpOptions::default(),
            Some(&token),
        );
        // The backward DP walks steps newest-first; a pre-fired token lets at
        // most one stride of steps run before the poll breaks out.
        assert!(
            ps.trips <= u64::from(2 * CANCEL_STRIDE),
            "cancelled run did too much work: {} trips vs {} full",
            ps.trips,
            fs.trips
        );
        assert!(ps.trips < fs.trips, "cancellation had no effect");

        // Reusing the arena after an abandoned run must be sound and exact.
        let mut again = Collect::default();
        let rs = earliest_arrival_dp_tile_cancel_in(
            &mut arena,
            &t,
            &targets,
            0,
            targets.len(),
            &mut again,
            DpOptions::default(),
            None,
        );
        assert_eq!(again.0, full.0);
        assert_eq!(rs.trips, fs.trips);
    }
}
