//! The occupancy method driver (Section 4 of the paper).

use crate::control::{SweepControl, TileSpan};
use crate::parallel::{auto_tile_cols, sweep_queue, WorkerPool};
use crate::report::OccupancyReport;
use crate::SweepGrid;
use rustc_hash::FxHashMap;
use saturn_distrib::{SelectionMetric, WeightedDist};
use saturn_linkstream::LinkStream;
use saturn_trips::{
    earliest_arrival_dp_in, Cancelled, DpOptions, EngineArena, EventView, HistogramSink,
    OccupancyHistogram, TargetSet, Timeline,
};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Slot counts at which the Shannon-entropy score is always evaluated
/// (the paper discusses k ∈ {5, 10, 20, 100}).
pub const SHANNON_SLOTS: [usize; 4] = [5, 10, 20, 100];

/// How destinations are chosen for the trip computations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TargetSpec {
    /// Every node is a destination — the paper's exact method,
    /// `O(n²)` memory.
    #[default]
    All,
    /// A deterministic sample of destinations — bounds memory to
    /// `O(n · size)` for very large networks; the occupancy distribution is
    /// estimated over trips toward the sampled destinations.
    Sample {
        /// Number of destination nodes.
        size: u32,
        /// Sampling seed.
        seed: u64,
    },
}

impl TargetSpec {
    /// Builds the concrete target set for a stream with `n` nodes.
    pub fn build(&self, n: u32) -> TargetSet {
        match *self {
            TargetSpec::All => TargetSet::all(n),
            TargetSpec::Sample { size, seed } => TargetSet::sample(n, size, seed),
        }
    }
}

/// Whether per-scale occupancy distributions are retained in the report
/// (needed to plot the ICDs of Figures 3, 4 and 7; costs memory).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KeepPolicy {
    /// Drop distributions, keep only their scores (the default).
    #[default]
    ScoresOnly,
    /// Keep the full distribution of every swept scale.
    All,
}

/// Telemetry of the latest successful [`OccupancyMethod::try_refresh_on`]
/// call: how much of the sweep the session cache absorbed. Never feeds
/// report bytes or fingerprints — observability only.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct RefreshStats {
    /// Scales the refresh analyzed.
    pub scales_total: u64,
    /// Scales whose cached histogram was served without any DP work,
    /// because the append was absorbed at that scale.
    pub scales_reused: u64,
    /// `(scale, tile)` work items skipped by histogram reuse, under the
    /// full sweep's tile layout.
    pub tiles_skipped: u64,
}

/// Per-session sweep memory for [`OccupancyMethod::try_refresh_on`]: the
/// event view of the last successful refresh and its merged histogram per
/// window count `K`. An ingest session owns one cache per stream and feeds
/// every re-analysis through it; the cache never changes report bytes — it
/// only decides how much work a refresh can skip.
///
/// A refresh reuses the histogram of scale `K` if and only if the new
/// stream's view extends the cached one by an append that is absorbed at
/// `K`: every appended event lands in a `(pair, window)` cell an old event
/// already occupies, so the timeline of `K`, and with it the histogram, is
/// unchanged (the timeline module's "Absorbed appends"). Any other stream —
/// another node count, directedness or study period, or a stale snapshot
/// missing cached events — reuses nothing, as does another target spec.
///
/// A refresh builds its view and histograms on the side and swaps them in
/// only when the whole sweep succeeds, refinement rounds included. A
/// cancelled refresh therefore leaves the cache exactly as it was, and
/// scales that left the grid are dropped on the next success.
#[derive(Clone, Debug, Default)]
pub struct SweepCache {
    /// Target spec the cached histograms were computed under; histograms
    /// are per-target-set.
    targets: Option<TargetSpec>,
    /// The event view of the last successful refresh.
    view: Option<EventView>,
    /// Merged histogram per window count `K`. Each is one sorted vector
    /// of reduced rates (see [`OccupancyHistogram`]) whose heap size
    /// [`SweepCache::heap_bytes`] counts exactly.
    hists: FxHashMap<u64, OccupancyHistogram>,
    /// Telemetry of the latest successful refresh.
    pub stats: RefreshStats,
}

impl SweepCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached scales.
    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// Whether the cache holds no scale.
    pub fn is_empty(&self) -> bool {
        self.hists.is_empty()
    }

    /// Heap bytes held by the cache: the event view, the histograms, and
    /// the table's entry slots (control bytes aside).
    pub fn heap_bytes(&self) -> usize {
        let view = self.view.as_ref().map_or(0, EventView::heap_bytes);
        let slots = self.hists.capacity() * std::mem::size_of::<(u64, OccupancyHistogram)>();
        view + slots + self.hists.values().map(OccupancyHistogram::heap_bytes).sum::<usize>()
    }
}

/// All Section 7 uniformity scores of one occupancy distribution, computed
/// together (each is cheap once the distribution is materialized).
#[derive(Clone, Debug, Serialize)]
pub struct UniformityScores {
    /// M-K proximity `1/2 - dist_MK` (the paper's reference method).
    pub mk_proximity: f64,
    /// Weighted standard deviation.
    pub std_dev: f64,
    /// Variation coefficient `σ/µ`.
    pub variation_coefficient: f64,
    /// Shannon entropy at each slot count of [`SHANNON_SLOTS`].
    pub shannon: Vec<(usize, f64)>,
    /// Cumulative residual entropy.
    pub cre: f64,
}

impl UniformityScores {
    /// Scores `dist` under every metric.
    pub fn of(dist: &WeightedDist) -> Self {
        UniformityScores {
            mk_proximity: saturn_distrib::mk_proximity(dist),
            std_dev: saturn_distrib::std_dev(dist),
            variation_coefficient: saturn_distrib::variation_coefficient(dist),
            shannon: SHANNON_SLOTS
                .iter()
                .map(|&s| (s, saturn_distrib::shannon_entropy(dist, s)))
                .collect(),
            cre: saturn_distrib::cumulative_residual_entropy(dist),
        }
    }

    /// The score under `metric`. Shannon slot counts outside
    /// [`SHANNON_SLOTS`] return `NaN`.
    pub fn get(&self, metric: SelectionMetric) -> f64 {
        match metric {
            SelectionMetric::MkProximity => self.mk_proximity,
            SelectionMetric::StdDev => self.std_dev,
            SelectionMetric::VariationCoefficient => self.variation_coefficient,
            SelectionMetric::ShannonEntropy { slots } => self
                .shannon
                .iter()
                .find(|&&(s, _)| s == slots)
                .map(|&(_, v)| v)
                .unwrap_or(f64::NAN),
            SelectionMetric::Cre => self.cre,
        }
    }
}

/// The analysis of one aggregation scale.
#[derive(Clone, Debug, Serialize)]
pub struct DeltaResult {
    /// Window count `K`.
    pub k: u64,
    /// Window length `Δ = T/K` in ticks.
    pub delta_ticks: f64,
    /// Number of minimal trips of `G_Δ`.
    pub trips: u64,
    /// Number of distinct occupancy rates.
    pub distinct_rates: usize,
    /// Mean occupancy rate.
    pub mean_rate: f64,
    /// Fraction of trips with occupancy rate exactly 1.
    pub fraction_at_one: f64,
    /// All uniformity scores.
    pub scores: UniformityScores,
    /// The full distribution, under [`KeepPolicy::All`].
    pub distribution: Option<WeightedDist>,
}

/// Configurable driver for the occupancy method.
///
/// The defaults reproduce the paper's setting: exact all-pairs trips,
/// geometric `Δ` grid from the tick resolution to `T`, M-K proximity
/// selection, local refinement around the coarse maximum, and all available
/// cores.
#[derive(Clone, Debug, Serialize)]
pub struct OccupancyMethod {
    grid: SweepGrid,
    metric: SelectionMetric,
    targets: TargetSpec,
    threads: usize,
    delta_min: i64,
    keep: KeepPolicy,
    refine_rounds: usize,
    refine_points: usize,
    tile: usize,
}

impl Default for OccupancyMethod {
    fn default() -> Self {
        OccupancyMethod {
            grid: SweepGrid::default(),
            metric: SelectionMetric::MkProximity,
            targets: TargetSpec::All,
            threads: 0,
            delta_min: 1,
            keep: KeepPolicy::ScoresOnly,
            refine_rounds: 2,
            refine_points: 8,
            tile: 0,
        }
    }
}

impl OccupancyMethod {
    /// Creates a driver with the paper's defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `Δ` grid strategy.
    pub fn grid(mut self, grid: SweepGrid) -> Self {
        self.grid = grid;
        self
    }

    /// Sets the selection metric (default: M-K proximity).
    pub fn metric(mut self, metric: SelectionMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the destination policy (default: all nodes).
    pub fn targets(mut self, targets: TargetSpec) -> Self {
        self.targets = targets;
        self
    }

    /// Sets the worker thread count (0 = all cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the smallest aggregation period in ticks (default 1, the
    /// resolution of integer timestamps).
    pub fn delta_min(mut self, ticks: i64) -> Self {
        self.delta_min = ticks.max(1);
        self
    }

    /// Sets whether full distributions are kept in the report.
    pub fn keep(mut self, keep: KeepPolicy) -> Self {
        self.keep = keep;
        self
    }

    /// Configures local refinement around the coarse-grid maximum:
    /// `rounds` passes inserting up to `points` scales between the current
    /// maximum's neighbors. `rounds = 0` disables refinement.
    pub fn refine(mut self, rounds: usize, points: usize) -> Self {
        self.refine_rounds = rounds;
        self.refine_points = points;
        self
    }

    /// Sets the target-tile width in columns (default 0 = automatic).
    /// Tiling splits each scale's DP into independent column ranges so
    /// single scales and narrow refinement rounds can use the whole pool;
    /// reports are bit-identical for every tile width (per-tile histograms
    /// merge exactly, in deterministic order), so this is purely an
    /// execution knob — it does not enter content fingerprints.
    pub fn tile(mut self, tile: usize) -> Self {
        self.tile = tile;
        self
    }

    /// Scores one scale's merged histogram.
    fn delta_result(&self, span: i64, k: u64, hist: &OccupancyHistogram) -> DeltaResult {
        let dist = WeightedDist::from_pairs(hist.sorted_rates());
        DeltaResult {
            k,
            delta_ticks: span as f64 / k as f64,
            trips: hist.total_trips(),
            distinct_rates: hist.distinct_rates(),
            mean_rate: hist.mean(),
            fraction_at_one: hist.fraction_at_one(),
            scores: UniformityScores::of(&dist),
            distribution: matches!(self.keep, KeepPolicy::All).then_some(dist),
        }
    }

    /// Target-tile width for a sweep of `scales` scales over `ncols`
    /// columns on `parallelism` workers.
    fn tile_cols(&self, ncols: usize, scales: usize, parallelism: usize) -> usize {
        if self.tile == 0 {
            auto_tile_cols(ncols, scales, parallelism)
        } else {
            self.tile.max(1)
        }
    }

    /// Analyzes and scores `ks` scales on `pool`, returning each scale's
    /// merged histogram with its [`DeltaResult`]: builds the `(scale, tile)`
    /// queue (finest scales first) and fans it across the workers. Each
    /// finished tile parks its histogram in its scale's slot; the worker
    /// whose tile completes a scale merges the scale's tiles in one k-way
    /// pass and scores the result, so the whole per-scale tail runs on the
    /// pool and the histograms are bit-identical for every thread count and
    /// tile width.
    ///
    /// Every scale's timeline is built from scratch off the shared event
    /// view by the first of its tiles to run. The scale's tiles share it
    /// through one lazily filled `Arc<Timeline>` slot, and the tile that
    /// completes the scale clears the slot, so only the scales in flight
    /// hold a timeline.
    ///
    /// Cancellation (`ctl.cancel`): workers poll the token before each queue
    /// item — an already-fired token turns the remaining items into no-ops —
    /// and thread it into the DP, which polls at a coarse step stride. A
    /// fired token makes this return [`Cancelled`] and every partial
    /// histogram and scored scale of the call is dropped. Progress
    /// (`ctl.progress`) advances by one when a scale is scored, after the
    /// observer has seen its last tile — so `scales_done` counts scales
    /// whose result exists.
    #[allow(clippy::too_many_arguments)] // the sweep's shared inputs
    fn sweep_histograms(
        &self,
        pool: &mut WorkerPool,
        arenas: &[Mutex<EngineArena>],
        view: &EventView,
        targets: &TargetSet,
        span: i64,
        ks: &[u64],
        ctl: &SweepControl,
    ) -> Result<Vec<(OccupancyHistogram, DeltaResult)>, Cancelled> {
        let tile_cols = self.tile_cols(targets.len(), ks.len(), pool.parallelism());
        let items = sweep_queue(ks, &targets.tile_ranges(tile_cols));
        let tiles_in_scale = items.first().map_or(1, |item| item.tiles_in_scale);

        let timelines: Vec<Mutex<Option<Arc<Timeline>>>> =
            (0..ks.len()).map(|_| Mutex::new(None)).collect();
        // One histogram slot per `(scale, tile)`, at `scale * tiles_in_scale
        // + tile`; the worker that completes a scale empties its slots.
        let tile_hists: Vec<Mutex<Option<OccupancyHistogram>>> =
            (0..ks.len() * tiles_in_scale).map(|_| Mutex::new(None)).collect();
        // One countdown per scale; the worker that completes a scale's last
        // tile frees its timeline, merges and scores the scale.
        let tiles_left: Vec<AtomicUsize> =
            (0..ks.len()).map(|_| AtomicUsize::new(tiles_in_scale)).collect();

        let scored = pool.map(&items, |wid, item| {
            if ctl.cancel.is_cancelled() {
                return None;
            }
            let mut arena = arenas[wid].lock().expect("arena poisoned");
            // holding the slot lock across the build makes the scale's other
            // tiles wait for the one build instead of duplicating it
            let timeline = Arc::clone(
                timelines[item.scale]
                    .lock()
                    .expect("timeline slot poisoned")
                    .get_or_insert_with(|| {
                        Arc::new(Timeline::aggregated_from_view(view, ks[item.scale]))
                    }),
            );
            let started = Instant::now();
            let mut sink = HistogramSink::default();
            let options = DpOptions {
                cols: Some((item.col_start, item.col_len)),
                cancel: Some(&ctl.cancel),
                ..Default::default()
            };
            let stats =
                earliest_arrival_dp_in(&mut arena, &timeline, targets, &mut sink, options);
            let hist = sink.finish();
            let seconds = started.elapsed().as_secs_f64();
            drop(timeline);
            // A token fired mid-DP leaves `hist` partial; the guard keeps a
            // partial tile out of its scale (and its garbage stats from
            // reaching the observer).
            if ctl.cancel.is_cancelled() {
                return None;
            }
            let first_slot = item.scale * tiles_in_scale;
            *tile_hists[first_slot + item.tile].lock().expect("tile slot poisoned") =
                Some(hist);
            let last_tile_of_scale = tiles_left[item.scale].fetch_sub(1, Ordering::AcqRel) == 1;
            let mut score_seconds = 0.0;
            let done = last_tile_of_scale.then(|| {
                *timelines[item.scale].lock().expect("timeline slot poisoned") = None;
                let started = Instant::now();
                // one k-way pass; a single-tile scale keeps its histogram as is
                let merged = OccupancyHistogram::merge_all(
                    tile_hists[first_slot..first_slot + tiles_in_scale].iter().map(|slot| {
                        slot.lock().expect("tile slot poisoned").take().expect("tile done")
                    }),
                );
                let result = self.delta_result(span, ks[item.scale], &merged);
                score_seconds = started.elapsed().as_secs_f64();
                (merged, result)
            });
            if let Some(observer) = &ctl.observer {
                observer.tile_done(&TileSpan {
                    k: ks[item.scale],
                    col_start: item.col_start,
                    col_len: item.col_len,
                    seconds,
                    score_seconds,
                    trips: stats.trips,
                    traversals: stats.traversals,
                    chain_offers: stats.chain_offers,
                    snap_entries: stats.snap_entries,
                    degree1_steps: stats.degree1_steps,
                    last_tile_of_scale,
                });
            }
            if done.is_some() {
                ctl.progress.add_done(1);
            }
            done
        });
        if ctl.cancel.is_cancelled() {
            return Err(Cancelled);
        }
        let mut by_scale: Vec<Option<(OccupancyHistogram, DeltaResult)>> =
            (0..ks.len()).map(|_| None).collect();
        for (item, done) in items.iter().zip(scored) {
            if done.is_some() {
                by_scale[item.scale] = done;
            }
        }
        Ok(by_scale.into_iter().map(|done| done.expect("every scale is scored")).collect())
    }

    /// Runs the method: sweeps the grid, optionally refines around the
    /// maximum, and returns the full report. The saturation scale is
    /// [`OccupancyReport::gamma`].
    ///
    /// Execution layout: one [`WorkerPool`] owns the worker threads for the
    /// coarse sweep *and* every refinement round; each worker keeps an
    /// [`EngineArena`] for the pool's lifetime (DP tables allocated once,
    /// never cleared; liveness is reset per scale), all scales aggregate
    /// from one shared [`EventView`] sorted once up front, and work is queued as
    /// `(scale, target tile)` items (finest scales first) so that even a
    /// single scale — or a narrow refinement round — fans out across the
    /// whole pool. The per-scale tail runs on the pool too: the worker that
    /// finishes a scale's last tile merges its tiles and scores it, so the
    /// calling thread only scores the scales a [`SweepCache`] serves and
    /// orders the results.
    pub fn run(&self, stream: &LinkStream) -> OccupancyReport {
        // no longer capped by the grid size: target tiling feeds pools wider
        // than the scale count
        let mut pool = WorkerPool::new(self.threads);
        self.run_on(stream, &mut pool)
    }

    /// [`run`](OccupancyMethod::run) on a caller-owned pool. The analysis
    /// service keeps one [`WorkerPool`] alive across requests and dispatches
    /// every sweep onto it, so worker threads are spawned once per process
    /// rather than once per request; `self.threads` is ignored here — the
    /// pool's parallelism governs.
    pub fn run_on(&self, stream: &LinkStream, pool: &mut WorkerPool) -> OccupancyReport {
        self.try_run_on(stream, pool, &SweepControl::new())
            .expect("a sweep whose token never fires cannot be cancelled")
    }

    /// [`run_on`](OccupancyMethod::run_on) under a caller-held
    /// [`SweepControl`]: firing `ctl.cancel` stops the sweep at the next
    /// `(scale, tile)` boundary (or within one DP stride inside a tile) and
    /// returns [`Cancelled`]; `ctl.progress` tracks completed scales while
    /// the sweep runs. With a never-fired token the report is bit-identical
    /// to [`run_on`](OccupancyMethod::run_on) — cancellation is an execution
    /// knob and never enters report bytes or cache fingerprints.
    ///
    /// A scratch analysis is a refresh through an empty [`SweepCache`].
    pub fn try_run_on(
        &self,
        stream: &LinkStream,
        pool: &mut WorkerPool,
        ctl: &SweepControl,
    ) -> Result<OccupancyReport, Cancelled> {
        self.analyze(stream, pool, ctl, &mut SweepCache::new())
    }

    /// [`try_run_on`](Self::try_run_on) through a per-session [`SweepCache`]:
    /// the incremental re-analysis primitive of ingest sessions. Scales the
    /// cache can serve (see [`SweepCache`] for the exact rule) skip the DP;
    /// every other scale is computed as in a cold sweep. Refinement rounds
    /// run through the cache too, so the refined scales of consecutive
    /// refreshes reuse each other.
    ///
    /// Reports are **byte-identical** to a scratch [`try_run_on`] over the
    /// same stream — the cache is pure execution state. On success the
    /// cache holds exactly this refresh's view and scales, and
    /// `cache.stats` describes the work split; a cancelled refresh leaves
    /// the cache untouched.
    ///
    /// [`try_run_on`]: Self::try_run_on
    pub fn try_refresh_on(
        &self,
        stream: &LinkStream,
        pool: &mut WorkerPool,
        ctl: &SweepControl,
        cache: &mut SweepCache,
    ) -> Result<OccupancyReport, Cancelled> {
        self.analyze(stream, pool, ctl, cache)
    }

    /// The sweep engine: grid, coarse sweep, refinement rounds, report,
    /// reusing the histograms `cache` can serve and committing this run's
    /// view and histograms to it on success.
    fn analyze(
        &self,
        stream: &LinkStream,
        pool: &mut WorkerPool,
        ctl: &SweepControl,
        cache: &mut SweepCache,
    ) -> Result<OccupancyReport, Cancelled> {
        let view = EventView::new(stream);
        let append = match &cache.view {
            Some(old) if cache.targets == Some(self.targets) => view.append_since(old),
            _ => None,
        };
        let cached = |k: u64| {
            let hist = cache.hists.get(&k)?;
            append.as_ref()?.is_absorbed(k).then_some(hist)
        };
        let targets = self.targets.build(stream.node_count() as u32);
        let span = stream.span();
        let mut ks = self.grid.k_values(stream, self.delta_min);
        ctl.progress.set_total(ks.len() as u64);

        // One arena per worker id; a worker only ever locks its own slot, so
        // the mutexes are uncontended — they exist to satisfy `Sync`.
        let arenas: Vec<Mutex<EngineArena>> =
            (0..pool.parallelism()).map(|_| Mutex::new(EngineArena::new())).collect();
        let mut stats = RefreshStats::default();
        // every analyzed scale with its fresh histogram (`None` = reused)
        let mut swept: Vec<(u64, Option<OccupancyHistogram>)> = Vec::new();

        // One round: score the cached scales, sweep and score the rest on
        // the pool.
        let mut sweep_round = |round: &[u64]| -> Result<Vec<DeltaResult>, Cancelled> {
            let served: Vec<Option<DeltaResult>> = round
                .iter()
                .map(|&k| cached(k).map(|hist| self.delta_result(span, k, hist)))
                .collect();
            let compute: Vec<u64> = round
                .iter()
                .zip(&served)
                .filter(|(_, r)| r.is_none())
                .map(|(&k, _)| k)
                .collect();
            let reused = (round.len() - compute.len()) as u64;
            let tile_cols = self.tile_cols(targets.len(), round.len(), pool.parallelism());
            stats.scales_total += round.len() as u64;
            stats.scales_reused += reused;
            stats.tiles_skipped += reused * targets.tile_ranges(tile_cols).len() as u64;
            ctl.progress.add_done(reused);
            let mut fresh = self
                .sweep_histograms(pool, &arenas, &view, &targets, span, &compute, ctl)?
                .into_iter();
            let mut results = Vec::with_capacity(round.len());
            for (&k, served) in round.iter().zip(served) {
                let (hist, result) = match served {
                    Some(result) => (None, result),
                    None => {
                        let (hist, result) = fresh.next().expect("one result per fresh scale");
                        (Some(hist), result)
                    }
                };
                results.push(result);
                swept.push((k, hist));
            }
            Ok(results)
        };

        let mut results = sweep_round(&ks)?;
        for _ in 0..self.refine_rounds {
            // current argmax under the selection metric
            let Some(best_pos) = argmax(&results, self.metric) else { break };
            let best_k = results[best_pos].k;
            // neighbors of best_k in the sorted (descending) k list
            let pos = ks.binary_search_by(|a| best_k.cmp(a)).unwrap_or_else(|p| p);
            let k_above = if pos > 0 { ks[pos - 1] } else { best_k }; // finer (larger K)
            let k_below = ks.get(pos + 1).copied().unwrap_or(best_k); // coarser
            let mut extra = Vec::new();
            if best_k < k_above {
                extra.extend(SweepGrid::refine_between(best_k, k_above, self.refine_points));
            }
            if k_below < best_k {
                extra.extend(SweepGrid::refine_between(k_below, best_k, self.refine_points));
            }
            extra.retain(|k| !ks.contains(k));
            extra.sort_unstable_by(|a, b| b.cmp(a));
            extra.dedup();
            if extra.is_empty() {
                break;
            }
            ctl.progress.add_total(extra.len() as u64);
            results.extend(sweep_round(&extra)?);
            ks.extend(extra);
            ks.sort_unstable_by(|a, b| b.cmp(a));
        }
        // Δ ascending (K descending)
        results.sort_unstable_by_key(|r| std::cmp::Reverse(r.k));

        // commit: only a complete run replaces the cache's contents
        let mut old = std::mem::take(&mut cache.hists);
        cache.hists = swept
            .into_iter()
            .map(|(k, hist)| {
                (k, hist.unwrap_or_else(|| old.remove(&k).expect("reused scales are cached")))
            })
            .collect();
        cache.view = Some(view);
        cache.targets = Some(self.targets);
        cache.stats = stats;
        Ok(OccupancyReport::new(self.metric, results))
    }
}

/// Index of the maximum finite score under `metric`, ties resolved toward
/// the smaller `Δ` (= larger `K`), the more conservative scale. One pass, no
/// allocation — this runs once per refinement round.
pub(crate) fn argmax(results: &[DeltaResult], metric: SelectionMetric) -> Option<usize> {
    let mut best: Option<(usize, f64, u64)> = None;
    for (i, r) in results.iter().enumerate() {
        let s = r.scores.get(metric);
        if !s.is_finite() {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, bs, bk)) => s > bs || (s == bs && r.k > bk),
        };
        if better {
            best = Some((i, s, r.k));
        }
    }
    best.map(|(i, ..)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{Directedness, LinkStreamBuilder};

    /// A stream with one link every `gap` ticks along a ring.
    fn ring_stream(n: u32, links: usize, gap: i64) -> LinkStream {
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
        for i in 0..links {
            let u = (i as u32) % n;
            b.add_indexed(u, (u + 1) % n, i as i64 * gap);
        }
        b.build().unwrap()
    }

    #[test]
    fn run_produces_sorted_results_and_gamma() {
        let s = ring_stream(8, 80, 7);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 16 })
            .threads(2)
            .refine(1, 4)
            .run(&s);
        let deltas: Vec<f64> = report.results().iter().map(|r| r.delta_ticks).collect();
        assert!(deltas.windows(2).all(|w| w[0] < w[1]), "Δ ascending");
        let gamma = report.gamma().expect("gamma exists");
        assert!(gamma.delta_ticks >= 1.0);
        assert!(gamma.score.is_finite());
        // gamma is the max of the curve
        for r in report.results() {
            assert!(r.scores.mk_proximity <= gamma.score + 1e-12);
        }
    }

    #[test]
    fn extreme_scales_have_extreme_distributions() {
        let s = ring_stream(6, 120, 13);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![1, s.span() as u64]))
            .threads(1)
            .refine(0, 0)
            .keep(KeepPolicy::All)
            .run(&s);
        let results = report.results();
        // Δ = T (K = 1): every trip has rate 1
        let coarse = results.last().unwrap();
        assert_eq!(coarse.k, 1);
        assert_eq!(coarse.fraction_at_one, 1.0);
        // Δ = 1 tick: low occupancy dominates; mean rate well below 1
        let fine = results.first().unwrap();
        assert!(fine.mean_rate < coarse.mean_rate);
        // both kept distributions present
        assert!(fine.distribution.is_some() && coarse.distribution.is_some());
    }

    #[test]
    fn sampled_targets_run() {
        let s = ring_stream(10, 60, 11);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .targets(TargetSpec::Sample { size: 4, seed: 7 })
            .threads(1)
            .refine(0, 0)
            .run(&s);
        assert!(report.gamma().is_some());
        assert!(report.results().iter().all(|r| r.trips > 0));
    }

    #[test]
    fn refinement_adds_scales_around_maximum() {
        let s = ring_stream(8, 80, 7);
        let coarse = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .threads(1)
            .refine(0, 0)
            .run(&s);
        let refined = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 8 })
            .threads(1)
            .refine(2, 6)
            .run(&s);
        assert!(refined.results().len() > coarse.results().len());
        // refinement can only improve (or keep) the best score
        assert!(refined.gamma().unwrap().score >= coarse.gamma().unwrap().score - 1e-12);
    }

    #[test]
    fn run_on_shared_pool_matches_run() {
        use crate::parallel::WorkerPool;
        let s = ring_stream(8, 80, 7);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 4);
        let baseline = method.clone().threads(2).run(&s);
        let mut pool = WorkerPool::new(2);
        // the same pool serves consecutive analyses, as in the service
        for _ in 0..2 {
            let shared = method.run_on(&s, &mut pool);
            assert_eq!(shared.results().len(), baseline.results().len());
            for (x, y) in shared.results().iter().zip(baseline.results()) {
                assert_eq!(x.k, y.k);
                assert_eq!(x.trips, y.trips);
                assert_eq!(x.scores.mk_proximity.to_bits(), y.scores.mk_proximity.to_bits());
            }
        }
    }

    #[test]
    fn tiled_sweeps_are_bit_identical_to_untiled() {
        let s = ring_stream(9, 90, 6);
        let reference = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .threads(1)
            .refine(1, 4)
            .tile(usize::MAX) // explicit untiled
            .run(&s);
        let ref_json = reference.to_json();
        for tile in [1usize, 3, 4, 9, 0] {
            for threads in [1usize, 3] {
                let tiled = OccupancyMethod::new()
                    .grid(SweepGrid::Geometric { points: 10 })
                    .threads(threads)
                    .refine(1, 4)
                    .tile(tile)
                    .run(&s);
                assert_eq!(
                    tiled.to_json(),
                    ref_json,
                    "tile={tile} threads={threads} must not change the report"
                );
            }
        }
    }

    #[test]
    fn single_scale_fans_out_over_tiles() {
        // a one-scale sweep on a multi-worker pool: only tiling can feed it
        let s = ring_stream(24, 120, 7);
        let untiled = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![40]))
            .threads(1)
            .refine(0, 0)
            .tile(usize::MAX)
            .run(&s);
        let tiled = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![40]))
            .threads(4)
            .refine(0, 0)
            .tile(5) // 24 columns -> 5 tiles
            .run(&s);
        assert_eq!(tiled.to_json(), untiled.to_json());
    }

    #[test]
    fn prefired_token_cancels_before_any_work() {
        let s = ring_stream(8, 80, 7);
        let ctl = SweepControl::new();
        ctl.cancel.cancel();
        let mut pool = WorkerPool::new(2);
        let method = OccupancyMethod::new().grid(SweepGrid::Geometric { points: 12 });
        assert!(matches!(method.try_run_on(&s, &mut pool, &ctl), Err(Cancelled)));
        let (done, total) = ctl.progress.snapshot();
        assert_eq!(done, 0);
        assert!(total > 0, "total is set before the sweep fans out");
    }

    #[test]
    fn token_fired_mid_sweep_stops_the_run() {
        // Many scales on a single worker: a watcher fires the token as soon
        // as the first scale completes, and the per-item poll turns the long
        // remaining tail into no-ops.
        let s = ring_stream(12, 360, 5);
        let ks: Vec<u64> = (2..=250).map(|i| 2 * i).collect();
        let method = OccupancyMethod::new().grid(SweepGrid::ExplicitK(ks.clone())).refine(0, 0);
        let ctl = Arc::new(SweepControl::new());
        let watcher = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || loop {
                let (done, _) = ctl.progress.snapshot();
                if done >= 1 {
                    ctl.cancel.cancel();
                    return;
                }
                if ctl.cancel.is_cancelled() {
                    return;
                }
                std::hint::spin_loop();
            })
        };
        let mut pool = WorkerPool::new(1);
        let result = method.try_run_on(&s, &mut pool, &ctl);
        // unblock the watcher in the (theoretical) case nothing completed
        ctl.cancel.cancel();
        watcher.join().unwrap();
        assert!(matches!(result, Err(Cancelled)));
        let (done, total) = ctl.progress.snapshot();
        assert!(done < total, "cancellation must leave scales unfinished ({done}/{total})");
    }

    #[test]
    fn unfired_control_is_bit_identical_to_plain_run() {
        let s = ring_stream(9, 90, 6);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 4);
        let mut pool = WorkerPool::new(2);
        let plain = method.run_on(&s, &mut pool).to_json();
        let ctl = SweepControl::new();
        let controlled = method.try_run_on(&s, &mut pool, &ctl).unwrap().to_json();
        assert_eq!(plain, controlled, "an unfired token must not change the report");
        let (done, total) = ctl.progress.snapshot();
        assert_eq!(done, total, "all scales accounted for");
        assert!(total > 0);
    }

    /// An attached observer sees every tile exactly once, tallies the
    /// scales through `last_tile_of_scale`, and — because it runs strictly
    /// after each tile's histogram is sealed — cannot change report bytes.
    #[test]
    fn observer_sees_every_tile_and_never_changes_bytes() {
        use crate::control::{SweepObserver, TileSpan};
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Debug, Default)]
        struct CountingObserver {
            tiles: AtomicU64,
            scales: AtomicU64,
            trips: AtomicU64,
        }
        impl SweepObserver for CountingObserver {
            fn tile_done(&self, span: &TileSpan) {
                self.tiles.fetch_add(1, Ordering::Relaxed);
                if span.last_tile_of_scale {
                    self.scales.fetch_add(1, Ordering::Relaxed);
                }
                self.trips.fetch_add(span.trips, Ordering::Relaxed);
            }
        }

        let s = ring_stream(9, 90, 6);
        // tile(2) splits scales into several spans each; refinement rounds
        // exercise repeated sweeps under one control
        let method = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .tile(2)
            .refine(1, 4);
        let mut pool = WorkerPool::new(2);
        let plain = method.run_on(&s, &mut pool).to_json();
        let observer = Arc::new(CountingObserver::default());
        let ctl = SweepControl::with_observer(Arc::clone(&observer) as _);
        let observed = method.try_run_on(&s, &mut pool, &ctl).unwrap().to_json();
        assert_eq!(plain, observed, "an observer must not change the report");
        let (done, total) = ctl.progress.snapshot();
        assert_eq!(done, total);
        assert_eq!(
            observer.scales.load(Ordering::Relaxed),
            total,
            "one last-tile span per scale"
        );
        assert!(
            observer.tiles.load(Ordering::Relaxed) >= total,
            "tiled scales emit at least one span each"
        );
        // the spans carry the DP's own numbers: summed trips match the
        // report's per-scale trip counts across coarse sweep + refinement
        let report = method.try_run_on(&s, &mut pool, &SweepControl::new()).unwrap();
        let coarse_trips: u64 = report.results().iter().map(|r| r.trips).sum();
        assert!(observer.trips.load(Ordering::Relaxed) >= coarse_trips);
    }

    /// Builds a pinned-period ring stream plus a grown twin with `extra`
    /// appended events landing strictly after the base activity.
    fn ring_with_appends(extra: usize) -> (LinkStream, LinkStream) {
        let mut base = LinkStreamBuilder::indexed(Directedness::Undirected, 8);
        base.period(0, 1200);
        for i in 0..90usize {
            let u = (i as u32) % 8;
            base.add_indexed(u, (u + 1) % 8, i as i64 * 10); // t in [0, 890]
        }
        let old = base.clone().build().unwrap();
        let mut grown = base;
        for i in 0..extra {
            let u = (i as u32 * 3) % 8;
            grown.add_indexed(u, (u + 5) % 8, 900 + (i as i64 * 7) % 300);
        }
        (old, grown.build().unwrap())
    }

    #[test]
    fn refresh_is_byte_identical_to_scratch_and_reuses_scales() {
        let (old, new) = ring_with_appends(40);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 12 }).refine(1, 4);
        let mut pool = WorkerPool::new(2);
        let mut cache = SweepCache::new();
        // cold refresh == scratch run on the base stream
        let cold = method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache);
        assert_eq!(cold.unwrap().to_json(), method.run_on(&old, &mut pool).to_json());
        assert_eq!(cache.stats.scales_reused, 0);
        assert!(!cache.is_empty());
        assert!(cache.heap_bytes() > SweepCache::new().heap_bytes());
        // warm refresh after appends == scratch run on the grown stream
        let warm =
            method.try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(
            warm.to_json(),
            method.run_on(&new, &mut pool).to_json(),
            "refresh must be byte-identical to scratch"
        );
        assert!(
            cache.stats.scales_reused < cache.stats.scales_total,
            "appends of new pairs recompute: {:?}",
            cache.stats
        );
        // identical re-refresh with no appends: everything reuses
        let again =
            method.try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(again.to_json(), warm.to_json());
        assert_eq!(cache.stats.scales_reused, cache.stats.scales_total, "{:?}", cache.stats);
        assert!(cache.stats.tiles_skipped > 0);
    }

    #[test]
    fn repeated_appends_refresh_through_one_cache() {
        // three rounds of growth through one session cache, each checked
        // against a scratch sweep of the concatenated stream
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 6);
        b.period(0, 600);
        for i in 0..40i64 {
            b.add_indexed((i % 6) as u32, ((i + 1) % 6) as u32, i * 5);
        }
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 3);
        let mut pool = WorkerPool::new(1);
        let mut cache = SweepCache::new();
        let first = b.clone().build().unwrap();
        let cold =
            method.try_refresh_on(&first, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(cold.to_json(), method.run_on(&first, &mut pool).to_json());
        let mut t = 200i64;
        for round in 0..3 {
            for i in 0..15i64 {
                b.add_indexed((i % 6) as u32, ((i * 5 + 2) % 6) as u32, t);
                t += 7;
            }
            let grown = b.clone().build().unwrap();
            let refreshed = method
                .try_refresh_on(&grown, &mut pool, &SweepControl::new(), &mut cache)
                .unwrap();
            assert_eq!(
                refreshed.to_json(),
                method.run_on(&grown, &mut pool).to_json(),
                "round {round}"
            );
        }
    }

    #[test]
    fn refresh_invalidates_on_target_change_and_prunes_dropped_scales() {
        let (old, _) = ring_with_appends(0);
        let mut pool = WorkerPool::new(1);
        let mut cache = SweepCache::new();
        let wide =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 12 }).refine(0, 0);
        wide.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        let cached_wide = cache.len();
        assert!(cached_wide > 0);
        // a narrower grid prunes the scales that left it
        let narrow =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 5 }).refine(0, 0);
        narrow.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert!(cache.len() < cached_wide, "{} -> {}", cached_wide, cache.len());
        // a different target spec voids the cache: nothing reuses
        let sampled = narrow.targets(TargetSpec::Sample { size: 4, seed: 1 });
        let report =
            sampled.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(cache.stats.scales_reused, 0);
        assert_eq!(report.to_json(), sampled.run_on(&old, &mut pool).to_json());
    }

    #[test]
    fn cancelled_refresh_leaves_the_cache_untouched() {
        let (old, new) = ring_with_appends(30);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 3);
        let mut pool = WorkerPool::new(1);
        let mut cache = SweepCache::new();
        method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        let before = format!("{cache:?}");
        let ctl = SweepControl::new();
        ctl.cancel.cancel();
        assert!(matches!(
            method.try_refresh_on(&new, &mut pool, &ctl, &mut cache),
            Err(Cancelled)
        ));
        assert_eq!(
            format!("{cache:?}"),
            before,
            "a cancelled refresh must not touch the cache"
        );
        // the retry is still byte-identical
        let retry =
            method.try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(retry.to_json(), method.run_on(&new, &mut pool).to_json());
    }

    /// Counts `tile_done` calls and fires the token at the `fire_at`-th.
    #[derive(Debug)]
    struct FireAfter {
        seen: AtomicUsize,
        fire_at: usize,
        token: saturn_trips::CancelToken,
    }

    impl crate::control::SweepObserver for FireAfter {
        fn tile_done(&self, _: &TileSpan) {
            if self.seen.fetch_add(1, Ordering::AcqRel) + 1 == self.fire_at {
                self.token.cancel();
            }
        }
    }

    /// The scales a worker scored in a round that is cancelled later must
    /// reach neither the cache nor a report: a token fired after any tile
    /// of a refresh, on pools where a scale's last tile lands on any
    /// worker, cancels the refresh and leaves the cache as it was.
    #[test]
    fn a_token_fired_after_any_tile_leaves_the_cache_untouched() {
        let (old, new) = ring_with_appends(30);
        // 8 columns in tiles of 3: every scale has 3 tiles
        let method = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .refine(1, 3)
            .tile(3);
        for threads in [2usize, 4] {
            let mut pool = WorkerPool::new(threads);
            let scratch = method.try_run_on(&new, &mut pool, &SweepControl::new()).unwrap();
            let mut warm = SweepCache::new();
            method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut warm).unwrap();
            let before = format!("{warm:?}");
            // the tiles an uncancelled refresh from the warm cache runs
            let counter = Arc::new(FireAfter {
                seen: AtomicUsize::new(0),
                fire_at: usize::MAX,
                token: Default::default(),
            });
            let ctl = SweepControl::with_observer(Arc::clone(&counter) as _);
            method.try_refresh_on(&new, &mut pool, &ctl, &mut warm.clone()).unwrap();
            let tiles = counter.seen.load(Ordering::Acquire);
            assert!(tiles > 3, "the refresh sweeps several multi-tile scales ({tiles} tiles)");
            for fire_at in 0..=tiles {
                let mut cache = warm.clone();
                let observer = Arc::new(FireAfter {
                    seen: AtomicUsize::new(0),
                    fire_at,
                    token: Default::default(),
                });
                let ctl = SweepControl {
                    cancel: observer.token.clone(),
                    ..SweepControl::with_observer(Arc::clone(&observer) as _)
                };
                if fire_at == 0 {
                    ctl.cancel.cancel();
                }
                assert!(
                    matches!(
                        method.try_refresh_on(&new, &mut pool, &ctl, &mut cache),
                        Err(Cancelled)
                    ),
                    "threads={threads} fire_at={fire_at}"
                );
                assert_eq!(format!("{cache:?}"), before, "threads={threads} fire_at={fire_at}");
                let retry = method
                    .try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache)
                    .unwrap();
                assert_eq!(
                    retry.to_json(),
                    scratch.to_json(),
                    "threads={threads} fire_at={fire_at}"
                );
            }
        }
    }

    /// `scales_done` counts scored scales: each scale's last-tile span
    /// (sent after scoring, with its merge + scoring time) comes before
    /// progress counts the scale, and progress reaches the total only when
    /// every scale is scored.
    #[test]
    fn progress_counts_a_scale_only_once_it_is_scored() {
        use std::sync::{OnceLock, Weak};

        #[derive(Default)]
        struct ProgressProbe {
            ctl: OnceLock<Weak<SweepControl>>,
            scored: AtomicUsize,
            /// `(scored so far, done)` at each last-tile span
            marks: Mutex<Vec<(u64, u64)>>,
            /// score seconds of the spans that are not a scale's last tile
            other_score_seconds: Mutex<Vec<f64>>,
        }
        impl crate::control::SweepObserver for ProgressProbe {
            fn tile_done(&self, span: &TileSpan) {
                if !span.last_tile_of_scale {
                    self.other_score_seconds.lock().unwrap().push(span.score_seconds);
                    return;
                }
                assert!(span.score_seconds > 0.0, "the last tile carries the scoring time");
                let scored = self.scored.fetch_add(1, Ordering::AcqRel) as u64 + 1;
                let ctl = self.ctl.get().and_then(Weak::upgrade).expect("control alive");
                let (done, _) = ctl.progress.snapshot();
                self.marks.lock().unwrap().push((scored, done));
            }
        }

        let s = ring_stream(9, 90, 6);
        let method = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 10 })
            .refine(1, 4)
            .tile(4);
        for threads in [1usize, 2, 4] {
            let mut pool = WorkerPool::new(threads);
            let probe = Arc::new(ProgressProbe::default());
            let ctl = Arc::new(SweepControl::with_observer(Arc::clone(&probe) as _));
            probe.ctl.set(Arc::downgrade(&ctl)).unwrap();
            let report = method.try_run_on(&s, &mut pool, &ctl).unwrap();
            let marks = probe.marks.lock().unwrap();
            assert_eq!(marks.len(), report.results().len());
            for &(scored, done) in marks.iter() {
                assert!(done < scored, "a scale counted before it was scored: {marks:?}");
                if threads == 1 {
                    assert_eq!(done + 1, scored, "{marks:?}");
                }
            }
            assert_eq!(ctl.progress.snapshot(), (marks.len() as u64, marks.len() as u64));
            assert!(probe.other_score_seconds.lock().unwrap().iter().all(|&s| s == 0.0));
        }
    }

    #[test]
    fn refresh_of_an_inconsistent_snapshot_falls_back_to_scratch() {
        // simulates the executor race: a refresh of an OLDER snapshot
        // executes after a refresh of a newer one already advanced the
        // cache (concurrent refreshes of one session cut their snapshots
        // before queueing, so they can run out of snapshot order)
        let (old, new) = ring_with_appends(30);
        let method =
            OccupancyMethod::new().grid(SweepGrid::Geometric { points: 10 }).refine(1, 3);
        let mut pool = WorkerPool::new(2);
        let mut cache = SweepCache::new();
        method.try_refresh_on(&new, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        // the stale snapshot lacks events the cache was built from: reusing
        // its histograms would serve the newer stream's bytes
        let stale =
            method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(stale.to_json(), method.run_on(&old, &mut pool).to_json());
        assert_eq!(cache.stats.scales_reused, 0, "{:?}", cache.stats);
        // the successful fallback committed the old stream's state: an
        // identical follow-up refresh is fully reusable again
        let again =
            method.try_refresh_on(&old, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(again.to_json(), stale.to_json());
        assert_eq!(cache.stats.scales_reused, cache.stats.scales_total, "{:?}", cache.stats);

        // a stream over another study period shares no window boundaries:
        // nothing reuses, and the bytes are still right
        let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, 8);
        b.period(0, 1300);
        for l in old.events() {
            b.add_indexed(l.u.raw(), l.v.raw(), l.t);
        }
        let moved = b.build().unwrap();
        let report =
            method.try_refresh_on(&moved, &mut pool, &SweepControl::new(), &mut cache).unwrap();
        assert_eq!(report.to_json(), method.run_on(&moved, &mut pool).to_json());
        assert_eq!(cache.stats.scales_reused, 0, "{:?}", cache.stats);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let s = ring_stream(7, 70, 5);
        let a =
            OccupancyMethod::new().threads(1).grid(SweepGrid::Geometric { points: 12 }).run(&s);
        let b =
            OccupancyMethod::new().threads(4).grid(SweepGrid::Geometric { points: 12 }).run(&s);
        assert_eq!(a.results().len(), b.results().len());
        for (x, y) in a.results().iter().zip(b.results()) {
            assert_eq!(x.k, y.k);
            assert_eq!(x.trips, y.trips);
            assert_eq!(x.scores.mk_proximity.to_bits(), y.scores.mk_proximity.to_bits());
        }
    }
}
