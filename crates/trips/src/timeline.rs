//! Step sequences consumed by the dynamic program, in a flat CSR layout.
//!
//! The backward DP is agnostic to whether its steps are aggregation windows
//! of `G_Δ` or distinct timestamps of the raw stream `L`; both are "a finite
//! sequence of edge sets at strictly increasing steps". [`Timeline`] captures
//! that common shape, prepared once so the engine can iterate it in
//! descending order.
//!
//! # Layout
//!
//! A timeline is compressed-sparse-row over its non-empty steps: the edges
//! of all steps live in two contiguous parallel arrays (`edge_src`,
//! `edge_dst`), and `step_offsets[i]..step_offsets[i + 1]` delimits the
//! edges of the `i`-th non-empty step (`step_index[i]` holds its step
//! number). This replaces the earlier one-`Vec` -per-step layout: the DP
//! touches one flat allocation instead of chasing per-step vectors, and the
//! sweep stops paying an allocator round-trip per window.
//!
//! # The shared sorted event view
//!
//! Aggregating at scale `Δ = T/K` needs, per window, the *distinct* pairs
//! linked inside it. The naive route (bucket events per window, sort, dedup
//! — what this module did before the CSR rework) re-sorts every window of
//! every swept scale. [`EventView`] instead sorts the stream **once** by
//! `(u, v, t)`; for any `K`, scanning that view yields each pair's windows
//! in non-decreasing order, so per-window dedup degenerates to comparing
//! neighbors, and grouping by window is a stable two-pass radix scatter —
//! `O(E)` per scale, no comparison sort, no per-window allocation. The
//! occupancy sweep builds one `EventView` and feeds it to every scale (see
//! [`Timeline::aggregated_from_view`]).
//!
//! # Absorbed appends (session refresh reuse)
//!
//! A streaming session re-analyzes a stream that only grows, inside a study
//! period pinned at creation. The aggregated timeline of scale `K` depends
//! only on the node count, the directedness, the period, `K`, and the set of
//! *occupied cells*: a cell is one node pair inside one window, occupied
//! when at least one event of that pair falls in that window. Each step lists
//! its window's occupied pairs, and pair ids are ranks among the occupied
//! pairs. So when a grown view keeps the node count, directedness and period
//! of an old one and its events are a superset of the old events, the
//! timeline at `K` is unchanged exactly when every appended event lands in a
//! cell an old event already occupies — the append is *absorbed* at `K`.
//! [`EventView::append_since`] checks the preconditions in one merge walk
//! over the two `(u, v, t)`-sorted views and records each appended event
//! with the ticks of its nearest old events of the same pair.
//! [`Append::is_absorbed`] then decides any `K` with at most two window
//! lookups per appended event: an occupied cell holding the event contains
//! one of those two neighbors. The node-count condition matters: a
//! self-loop with a fresh label interns a node without adding an event, and
//! the timelines (and sampled target sets) still change.

use saturn_linkstream::{LinkStream, WindowPartition};

/// A borrowed view of one non-empty step: its index in `0..num_steps` and
/// its deduplicated edge slices (`u <= v` holds per edge if undirected;
/// edges are in ascending `(u, v)` order).
#[derive(Clone, Copy, Debug)]
pub struct StepView<'a> {
    /// Step index (window index, or rank of the distinct timestamp).
    pub index: u32,
    /// Source endpoints of the step's distinct edges.
    pub src: &'a [u32],
    /// Destination endpoints, parallel to `src`.
    pub dst: &'a [u32],
    /// Stable pair id of each edge, parallel to `src`: every distinct
    /// `(src, dst)` pair of the timeline gets one id in
    /// `0..`[`Timeline::distinct_pairs`], identical across all the steps in
    /// which the pair recurs. The delta-propagation engine keys its
    /// per-(edge, direction) watermarks on these.
    pub pair: &'a [u32],
}

impl<'a> StepView<'a> {
    /// The step's edges as `(u, v)` pairs.
    #[inline]
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.src.iter().copied().zip(self.dst.iter().copied())
    }

    /// Number of distinct edges in the step.
    #[inline]
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the step carries no edge (never true for stored steps).
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// The stream's events re-sorted by `(u, v, t)`, shared by every scale of a
/// sweep. Building one costs a single `O(E log E)` sort; each
/// [`Timeline::aggregated_from_view`] is then `O(E)`.
#[derive(Clone, Debug)]
pub struct EventView {
    n: u32,
    directed: bool,
    t_begin: saturn_linkstream::Time,
    t_end: saturn_linkstream::Time,
    /// Event endpoints and instants, sorted by `(src, dst, tick)`.
    src: Vec<u32>,
    dst: Vec<u32>,
    ticks: Vec<i64>,
}

impl EventView {
    /// Sorts `stream`'s events by `(u, v, t)`.
    ///
    /// # Panics
    /// Panics if the stream holds `>= u32::MAX` events (the view and the
    /// CSR timelines built from it index with `u32`).
    pub fn new(stream: &LinkStream) -> Self {
        let events = stream.events();
        assert!(events.len() < u32::MAX as usize, "event count exceeds engine limit");
        let mut order: Vec<u32> = (0..events.len() as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let l = &events[i as usize];
            (l.u.raw(), l.v.raw(), l.t.ticks())
        });
        let mut src = Vec::with_capacity(events.len());
        let mut dst = Vec::with_capacity(events.len());
        let mut ticks = Vec::with_capacity(events.len());
        for &i in &order {
            let l = &events[i as usize];
            src.push(l.u.raw());
            dst.push(l.v.raw());
            ticks.push(l.t.ticks());
        }
        EventView {
            n: stream.node_count() as u32,
            directed: stream.is_directed(),
            t_begin: stream.t_begin(),
            t_end: stream.t_end(),
            src,
            dst,
            ticks,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the view holds no event (never true for built streams).
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// The events this view adds to `old`, or `None` when this view is not
    /// an append-only extension of `old`: a different node count,
    /// directedness or study period, or an old event missing here (module
    /// docs, "Absorbed appends"). One merge walk over both sorted views.
    pub fn append_since(&self, old: &EventView) -> Option<Append> {
        let shape = |v: &EventView| (v.n, v.directed, v.t_begin, v.t_end);
        if shape(self) != shape(old) {
            return None;
        }
        let key = |v: &EventView, i: usize| (v.src[i], v.dst[i], v.ticks[i]);
        let mut events = Vec::with_capacity(self.len().saturating_sub(old.len()));
        let mut j = 0;
        for i in 0..self.len() {
            let (u, v, t) = key(self, i);
            if j < old.len() {
                let o = key(old, j);
                if o == (u, v, t) {
                    j += 1;
                    continue;
                }
                if o < (u, v, t) {
                    return None; // `old` holds an event this view lacks
                }
            }
            // old[j - 1] < (u, v, t) < old[j]: the pair's nearest old ticks
            let same_pair = |k: usize| old.src[k] == u && old.dst[k] == v;
            let prev = (j > 0 && same_pair(j - 1)).then(|| old.ticks[j - 1]);
            let next = (j < old.len() && same_pair(j)).then(|| old.ticks[j]);
            events.push((t, prev, next));
        }
        (j == old.len()).then_some(Append { t_begin: self.t_begin, t_end: self.t_end, events })
    }
}

/// The events a grown [`EventView`] adds to an older one, from
/// [`EventView::append_since`].
#[derive(Clone, Debug)]
pub struct Append {
    t_begin: saturn_linkstream::Time,
    t_end: saturn_linkstream::Time,
    /// Per appended event: its tick, and the ticks of the nearest old
    /// events of the same pair before and after it.
    events: Vec<(i64, Option<i64>, Option<i64>)>,
}

impl Append {
    /// Whether nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether every appended event lands in a `(pair, window)` cell of
    /// scale `k` that an old event already occupies — exactly when the
    /// timeline of `k` windows is unchanged by the append (module docs,
    /// "Absorbed appends").
    ///
    /// # Panics
    /// Panics if `k` is invalid for the study period.
    pub fn is_absorbed(&self, k: u64) -> bool {
        let partition =
            WindowPartition::new(self.t_begin, self.t_end, k).expect("invalid window count");
        let window = |t: i64| partition.index(saturn_linkstream::Time::new(t));
        self.events.iter().all(|&(t, prev, next)| {
            let w = window(t);
            prev.is_some_and(|p| window(p) == w) || next.is_some_and(|q| window(q) == w)
        })
    }
}

/// A prepared sequence of steps for the DP engine (see the module docs for
/// the CSR layout). `PartialEq` is field-for-field — two equal timelines
/// are interchangeable for the engine; tests use it as the oracle of
/// [`Append::is_absorbed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    n: u32,
    directed: bool,
    num_steps: u32,
    /// Indices of the non-empty steps, **ascending**.
    step_index: Vec<u32>,
    /// CSR offsets into the edge arrays; `len = step_index.len() + 1`.
    step_offsets: Vec<u32>,
    /// Edge sources, grouped by step, ascending `(u, v)` within a step.
    edge_src: Vec<u32>,
    /// Edge destinations, parallel to `edge_src`.
    edge_dst: Vec<u32>,
    /// Stable pair id of each edge, parallel to `edge_src` (see
    /// [`StepView::pair`]).
    edge_pair: Vec<u32>,
    /// Number of distinct `(src, dst)` pairs across all steps.
    distinct_pairs: u32,
    /// For exact timelines: tick of each step index (ascending). Empty for
    /// aggregated timelines.
    ticks: Vec<i64>,
}

/// Radix bucket width for the window-grouping scatter (16 bits keeps the
/// count array at 256 KiB and means a single pass for any sweep with
/// `K <= 65536`; a second pass covers the full `u32` step range).
const RADIX_BITS: u32 = 16;
const RADIX_SIZE: usize = 1 << RADIX_BITS;

impl Timeline {
    /// Builds the timeline of the aggregated series `G_Δ` with `Δ = T/k`:
    /// step `w` holds the distinct pairs linked inside window `w`.
    ///
    /// Sorts a fresh [`EventView`] internally; sweeps analyzing many scales
    /// of one stream should build the view once and call
    /// [`aggregated_from_view`](Timeline::aggregated_from_view).
    ///
    /// # Panics
    /// Panics if `k` is invalid for the stream's study period or exceeds
    /// `u32::MAX - 1` (the engine stores step indices as `u32`).
    pub fn aggregated(stream: &LinkStream, k: u64) -> Self {
        Self::aggregated_from_view(&EventView::new(stream), k)
    }

    /// Builds the aggregated timeline from a prepared [`EventView`] in
    /// `O(E)` — no comparison sort, no per-window allocation.
    ///
    /// # Panics
    /// As [`aggregated`](Timeline::aggregated).
    pub fn aggregated_from_view(view: &EventView, k: u64) -> Self {
        assert!(k < u32::MAX as u64, "window count {k} exceeds engine limit");
        let partition =
            WindowPartition::new(view.t_begin, view.t_end, k).expect("invalid window count");

        // 1. One pass over the pair-sorted view: map each event to its
        //    window and drop same-pair-same-window repeats (within a pair,
        //    ticks ascend, so repeats are adjacent). The same sort order
        //    makes all occurrences of one pair adjacent, so stable pair ids
        //    are assigned here by neighbor comparison — no hashing.
        let len = view.len();
        let mut win: Vec<u32> = Vec::with_capacity(len);
        let mut src: Vec<u32> = Vec::with_capacity(len);
        let mut dst: Vec<u32> = Vec::with_capacity(len);
        let mut pair: Vec<u32> = Vec::with_capacity(len);
        let mut next_pair = 0u32;
        for i in 0..len {
            let w = partition.index(saturn_linkstream::Time::new(view.ticks[i])) as u32;
            if let Some(last) = win.last() {
                let j = src.len() - 1;
                let same_pair = src[j] == view.src[i] && dst[j] == view.dst[i];
                if *last == w && same_pair {
                    continue;
                }
                if !same_pair {
                    next_pair += 1;
                }
            }
            win.push(w);
            src.push(view.src[i]);
            dst.push(view.dst[i]);
            pair.push(next_pair);
        }
        let distinct_pairs = if pair.is_empty() { 0 } else { next_pair + 1 };

        // 2. Stable LSD radix scatter by window. Stability preserves the
        //    pair-sorted order within each window, so every step's edges end
        //    up in ascending (u, v) order — the order the per-window sort
        //    used to produce. (The u32 bound is guaranteed by EventView::new,
        //    asserted here too since the radix offsets are u32 arithmetic.)
        assert!(src.len() < u32::MAX as usize, "edge count exceeds engine limit");
        let (win, src, dst, pair) = radix_by_window(win, src, dst, pair, k as u32);

        // 3. Fold runs of equal windows into the CSR arrays.
        let mut step_index = Vec::new();
        let mut step_offsets = vec![0u32];
        for (i, &w) in win.iter().enumerate() {
            if step_index.last() != Some(&w) {
                if !step_index.is_empty() {
                    step_offsets.push(i as u32);
                }
                step_index.push(w);
            }
        }
        if !step_index.is_empty() {
            step_offsets.push(win.len() as u32);
        }

        Timeline {
            n: view.n,
            directed: view.directed,
            num_steps: k as u32,
            step_index,
            step_offsets,
            edge_src: src,
            edge_dst: dst,
            edge_pair: pair,
            distinct_pairs,
            ticks: Vec::new(),
        }
    }

    /// Builds the exact timeline of the raw stream `L`: one step per distinct
    /// timestamp (links sharing an instant cannot be chained — Remark 1 — so
    /// an instant behaves exactly like one snapshot).
    ///
    /// # Panics
    /// Panics if the stream has `>= u32::MAX` distinct timestamps.
    pub fn exact(stream: &LinkStream) -> Self {
        // edges <= events, so this bounds the u32 CSR offsets below
        assert!(stream.events().len() < u32::MAX as usize, "edge count exceeds engine limit");
        let mut ticks = Vec::new();
        let mut step_index = Vec::new();
        let mut step_offsets = vec![0u32];
        let mut edge_src = Vec::new();
        let mut edge_dst = Vec::new();
        let mut edge_pair = Vec::new();
        // events are (t, u, v)-sorted, so one pair's occurrences are NOT
        // adjacent here (unlike the aggregated path) — a build-time hash
        // assigns the stable pair ids
        let mut pair_ids: rustc_hash::FxHashMap<(u32, u32), u32> =
            rustc_hash::FxHashMap::default();
        for (t, links) in stream.timestamp_groups() {
            let index = ticks.len() as u32;
            assert!(index < u32::MAX, "too many distinct timestamps");
            ticks.push(t.ticks());
            // events are stream-sorted by (t, u, v): within a timestamp
            // group they are already in (u, v) order, so dedup is a
            // neighbor comparison
            for l in links {
                let (u, v) = (l.u.raw(), l.v.raw());
                let start = *step_offsets.last().expect("non-empty offsets") as usize;
                if edge_src.len() > start {
                    let j = edge_src.len() - 1;
                    if edge_src[j] == u && edge_dst[j] == v {
                        continue;
                    }
                }
                let next = pair_ids.len() as u32;
                edge_pair.push(*pair_ids.entry((u, v)).or_insert(next));
                edge_src.push(u);
                edge_dst.push(v);
            }
            step_index.push(index);
            step_offsets.push(edge_src.len() as u32);
        }
        Timeline {
            n: stream.node_count() as u32,
            directed: stream.is_directed(),
            num_steps: ticks.len() as u32,
            step_index,
            step_offsets,
            edge_src,
            edge_dst,
            edge_pair,
            distinct_pairs: pair_ids.len() as u32,
            ticks,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Whether edges are directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Total number of steps (windows `K`, or distinct timestamps).
    pub fn num_steps(&self) -> u32 {
        self.num_steps
    }

    /// Number of non-empty steps.
    pub fn nonempty_steps(&self) -> usize {
        self.step_index.len()
    }

    /// The `i`-th non-empty step in **ascending** index order.
    #[inline]
    pub fn step(&self, i: usize) -> StepView<'_> {
        let lo = self.step_offsets[i] as usize;
        let hi = self.step_offsets[i + 1] as usize;
        StepView {
            index: self.step_index[i],
            src: &self.edge_src[lo..hi],
            dst: &self.edge_dst[lo..hi],
            pair: &self.edge_pair[lo..hi],
        }
    }

    /// The non-empty steps in **descending** index order (DP iteration
    /// order).
    pub fn steps_desc(&self) -> impl Iterator<Item = StepView<'_>> {
        (0..self.nonempty_steps()).rev().map(|i| self.step(i))
    }

    /// The non-empty steps in ascending index order.
    pub fn steps_asc(&self) -> impl Iterator<Item = StepView<'_>> {
        (0..self.nonempty_steps()).map(|i| self.step(i))
    }

    /// Total number of edges `M` over all steps.
    pub fn total_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Number of distinct `(src, dst)` pairs across all steps — the id
    /// space of [`StepView::pair`]. The DP engine sizes its per-(edge,
    /// direction) delta watermarks as `2 × distinct_pairs`.
    pub fn distinct_pairs(&self) -> u32 {
        self.distinct_pairs
    }

    /// For exact timelines, the tick of step `index`; for aggregated
    /// timelines, `None`.
    pub fn tick_of(&self, index: u32) -> Option<i64> {
        self.ticks.get(index as usize).copied()
    }

    /// Whether this timeline is an exact (timestamp-indexed) one.
    pub fn is_exact(&self) -> bool {
        !self.ticks.is_empty()
    }
}

/// Stable counting-sort of the `(win, src, dst, pair)` quads by `win`: one
/// pass when every window index fits 16 bits, else a classic two-pass LSD
/// radix (low 16 bits, then high bits). Returns the reordered arrays.
fn radix_by_window(
    win: Vec<u32>,
    src: Vec<u32>,
    dst: Vec<u32>,
    pair: Vec<u32>,
    k: u32,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    if win.is_empty() {
        return (win, src, dst, pair);
    }
    if (k as usize) <= RADIX_SIZE {
        let mut counts = vec![0u32; k.max(1) as usize];
        radix_pass((win, src, dst, pair), &mut counts, |w| w as usize)
    } else {
        let mut lo_counts = vec![0u32; RADIX_SIZE];
        let cur = radix_pass((win, src, dst, pair), &mut lo_counts, |w| {
            (w as usize) & (RADIX_SIZE - 1)
        });
        let mut hi_counts = vec![0u32; (((k - 1) as usize) >> RADIX_BITS) + 1];
        radix_pass(cur, &mut hi_counts, |w| (w >> RADIX_BITS) as usize)
    }
}

fn radix_pass(
    (win, src, dst, pair): (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>),
    counts: &mut [u32],
    bucket: impl Fn(u32) -> usize,
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    for &w in &win {
        counts[bucket(w)] += 1;
    }
    let mut offset = 0u32;
    for c in counts.iter_mut() {
        let n = *c;
        *c = offset;
        offset += n;
    }
    let len = win.len();
    let mut out_win = vec![0u32; len];
    let mut out_src = vec![0u32; len];
    let mut out_dst = vec![0u32; len];
    let mut out_pair = vec![0u32; len];
    for i in 0..len {
        let b = bucket(win[i]);
        let pos = counts[b] as usize;
        counts[b] += 1;
        out_win[pos] = win[i];
        out_src[pos] = src[i];
        out_dst[pos] = dst[i];
        out_pair[pos] = pair[i];
    }
    (out_win, out_src, out_dst, out_pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    fn stream() -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.add("a", "b", 0);
        b.add("a", "b", 1); // same pair again
        b.add("b", "c", 1);
        b.add("c", "d", 9);
        b.build().unwrap()
    }

    #[test]
    fn aggregated_timeline_dedups_per_window() {
        let s = stream();
        let t = Timeline::aggregated(&s, 3); // Δ = 3: [0,3), [3,6), [6,9]
        assert_eq!(t.num_steps(), 3);
        assert!(!t.is_exact());
        let steps: Vec<(u32, usize)> = t.steps_desc().map(|s| (s.index, s.len())).collect();
        // window 0: {ab, bc}; window 2: {cd}; descending order
        assert_eq!(steps, vec![(2, 1), (0, 2)]);
        assert_eq!(t.total_edges(), 3);
    }

    #[test]
    fn exact_timeline_steps_are_distinct_timestamps() {
        let s = stream();
        let t = Timeline::exact(&s);
        assert!(t.is_exact());
        assert_eq!(t.num_steps(), 3); // t = 0, 1, 9
        assert_eq!(t.tick_of(0), Some(0));
        assert_eq!(t.tick_of(1), Some(1));
        assert_eq!(t.tick_of(2), Some(9));
        // descending
        let idx: Vec<u32> = t.steps_desc().map(|s| s.index).collect();
        assert_eq!(idx, vec![2, 1, 0]);
        // step at t=1 holds both ab (duplicate event collapses) and bc
        let mid: Vec<(u32, u32)> = t.steps_desc().nth(1).unwrap().edges().collect();
        assert_eq!(mid, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn total_aggregation_single_step() {
        let s = stream();
        let t = Timeline::aggregated(&s, 1);
        assert_eq!(t.num_steps(), 1);
        assert_eq!(t.nonempty_steps(), 1);
        assert_eq!(t.step(0).len(), 3); // ab, bc, cd
    }

    #[test]
    fn directed_edges_are_kept_oriented() {
        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.add("a", "b", 0);
        b.add("b", "a", 0);
        let s = b.build().unwrap();
        let t = Timeline::exact(&s);
        assert!(t.is_directed());
        let edges: Vec<(u32, u32)> = t.step(0).edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 0)]);
    }

    #[test]
    fn view_reuse_matches_fresh_aggregation() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 9);
        for i in 0..200i64 {
            b.add_indexed((i % 9) as u32, ((i * 5 + 1) % 9) as u32, (i * 13) % 997);
        }
        let s = b.build().unwrap();
        let view = EventView::new(&s);
        for k in [1u64, 2, 7, 100, 996, 997] {
            let fresh = Timeline::aggregated(&s, k);
            let shared = Timeline::aggregated_from_view(&view, k);
            assert_eq!(fresh.nonempty_steps(), shared.nonempty_steps(), "k={k}");
            for (a, b) in fresh.steps_desc().zip(shared.steps_desc()) {
                assert_eq!(a.index, b.index, "k={k}");
                assert_eq!(a.src, b.src, "k={k}");
                assert_eq!(a.dst, b.dst, "k={k}");
            }
        }
    }

    #[test]
    fn csr_edges_are_sorted_within_each_step() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 12);
        for i in 0..300i64 {
            b.add_indexed((i * 7 % 12) as u32, (i * 11 % 12) as u32, i % 50);
        }
        let s = b.build().unwrap();
        for k in [1u64, 3, 17, 50] {
            let t = Timeline::aggregated(&s, k);
            for step in t.steps_desc() {
                let edges: Vec<(u32, u32)> = step.edges().collect();
                assert!(edges.windows(2).all(|w| w[0] < w[1]), "k={k} step={}", step.index);
            }
        }
    }

    /// Pair ids are a bijection with the distinct `(src, dst)` pairs: the
    /// same pair carries the same id in every step it recurs in, different
    /// pairs never share an id, and ids cover `0..distinct_pairs` — on both
    /// the aggregated and the exact construction paths.
    #[test]
    fn pair_ids_are_stable_across_steps() {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 10);
        for i in 0..400i64 {
            b.add_indexed((i * 3 % 10) as u32, (i * 7 % 10) as u32, i % 83);
        }
        let s = b.build().unwrap();
        let timelines =
            [Timeline::exact(&s), Timeline::aggregated(&s, 5), Timeline::aggregated(&s, 80)];
        for t in &timelines {
            let mut id_of = std::collections::HashMap::new();
            for step in t.steps_asc() {
                for ((u, v), &p) in step.edges().zip(step.pair.iter()) {
                    assert!(p < t.distinct_pairs());
                    assert_eq!(*id_of.entry((u, v)).or_insert(p), p, "pair ({u},{v})");
                }
            }
            assert_eq!(id_of.len(), t.distinct_pairs() as usize);
            let distinct_ids: std::collections::HashSet<u32> =
                id_of.values().copied().collect();
            assert_eq!(distinct_ids.len(), t.distinct_pairs() as usize);
        }
    }

    fn pinned(events: &[(&str, &str, i64)]) -> LinkStream {
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.period(0, 99);
        for &(u, v, t) in events {
            b.add(u, v, t);
        }
        b.build().unwrap()
    }

    #[test]
    fn absorbed_appends_are_exactly_the_unchanged_timelines() {
        let base = [("a", "b", 10), ("a", "b", 60), ("b", "c", 30)];
        let old = EventView::new(&pinned(&base));
        let grown = |extra: &[(&str, &str, i64)]| {
            let events: Vec<_> = base.iter().chain(extra).copied().collect();
            EventView::new(&pinned(&events))
        };
        // a repeat of a-b at t=15 is absorbed wherever 10 or 60 shares its
        // window; a new pair never is
        for (extra, what) in [
            (vec![("a", "b", 15)], "repeat"),
            (vec![("a", "b", 15), ("b", "c", 99)], "two repeats"),
            (vec![("a", "c", 30)], "new pair"),
            (vec![("a", "b", 10)], "exact duplicate"),
        ] {
            let new = grown(&extra);
            let append = new.append_since(&old).expect("append-only");
            for k in [1u64, 2, 3, 5, 10, 50, 99] {
                let same = Timeline::aggregated_from_view(&old, k)
                    == Timeline::aggregated_from_view(&new, k);
                assert_eq!(append.is_absorbed(k), same, "{what} k={k}");
            }
        }
        assert!(grown(&[("a", "b", 10)]).append_since(&old).unwrap().is_empty());
    }

    #[test]
    fn append_since_rejects_non_extensions() {
        let old = EventView::new(&pinned(&[("a", "b", 10), ("b", "c", 30)]));
        // an old event is missing
        assert!(EventView::new(&pinned(&[("a", "b", 10)])).append_since(&old).is_none());
        // a fresh-label self-loop interns a node but adds no event
        let loop_only = pinned(&[("a", "b", 10), ("b", "c", 30), ("z", "z", 10)]);
        assert_eq!(loop_only.len(), 2);
        assert!(EventView::new(&loop_only).append_since(&old).is_none());
        // another study period
        let mut b = LinkStreamBuilder::new(Directedness::Undirected);
        b.period(0, 100).add("a", "b", 10).add("b", "c", 30);
        assert!(EventView::new(&b.build().unwrap()).append_since(&old).is_none());
        // another directedness
        let mut b = LinkStreamBuilder::new(Directedness::Directed);
        b.period(0, 99).add("a", "b", 10).add("b", "c", 30);
        assert!(EventView::new(&b.build().unwrap()).append_since(&old).is_none());
        // the view itself is a (trivial) extension
        assert!(old.append_since(&old).unwrap().is_empty());
    }

    #[test]
    fn radix_handles_many_windows() {
        // force the two-pass path: K > 65536
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 4);
        for i in 0..120i64 {
            b.add_indexed((i % 4) as u32, ((i + 1) % 4) as u32, i * 1_000);
        }
        let s = b.build().unwrap();
        let k = 100_000u64;
        let t = Timeline::aggregated(&s, k);
        assert_eq!(t.num_steps(), k as u32);
        // all step indices strictly ascending
        let idx: Vec<u32> = t.steps_asc().map(|s| s.index).collect();
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.total_edges(), 120); // every event lands in its own window
    }
}
