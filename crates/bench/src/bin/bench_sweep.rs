//! Emits `BENCH_sweep.json`: the sweep engine's performance trajectory,
//! committed to the repository so future PRs can track speedups/regressions
//! without re-running the whole suite.
//!
//! Three workloads bracket the engine's regimes:
//!
//! * `dense_uniform` — all-pairs activity on 60 nodes: rows saturate almost
//!   immediately, so the frontier bitmap degenerates to a sequential row
//!   walk (this bounds the *overhead* of the pruning machinery);
//! * `sparse_ring` — 600 nodes on a ring: per-row reachability stays far
//!   below `n` for most of the backward sweep (the regime of the paper's
//!   sparse contact datasets), where the pruning pays off outright;
//! * `sparse_burst` — 600 nodes with bursty contact trains (face-to-face
//!   dataset texture): the same edge recurs across consecutive fine-scale
//!   windows with unchanged continuation rows, the regime the engine's
//!   delta propagation targets.
//!
//! Per scale, both the pre-rework pipeline (per-call timeline build + the
//! retained baseline engine with fresh tables) and the current pipeline
//! (shared sorted event view + frontier/arena engine) are timed, one rep of
//! each in turn so that drifts in machine speed land on both sides; the
//! scale's `speedup` is the median of the per-rep ratios. The two engines'
//! results are hard-asserted equal at every scale (`checksum_match`): trip
//! streams with and without distance collection, and the distance sums.
//!
//! The `sink` section times the trip sink on all three workloads at three
//! scales each: an occupancy-histogram run against the same DP feeding a
//! null sink, again in turn. End-to-end `OccupancyMethod::run` timings and
//! a peak-RSS proxy (`VmHWM`) round out the record.
//!
//! ```sh
//! cargo run --release -p saturn-bench --bin bench_sweep           # full
//! SATURN_FAST=1 cargo run --release -p saturn-bench --bin bench_sweep
//! SATURN_BENCH_OUT=BENCH_sweep.json  # output path (default)
//! ```

use saturn_core::parallel::WorkerPool;
use saturn_core::{OccupancyMethod, SweepCache, SweepControl, SweepGrid};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_synth::TimeUniform;
use saturn_trips::dp::{baseline, NullSink};
use saturn_trips::{
    earliest_arrival_dp_in, occupancy_histogram_tile_in, DpOptions, DpStats, EngineArena,
    EventView, OccupancyHistogram, TargetSet, Timeline, TripSink,
};
use serde_json::Value;
use std::time::Instant;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Wall time of one call of `f`, in seconds.
fn timed<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64()
}

fn median(mut times: Vec<f64>) -> f64 {
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Median-of-`reps` wall time of `f`, in seconds.
fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    median((0..reps).map(|_| timed(&mut f)).collect())
}

/// Times `a` and `b` in turn for `reps` pairs, alternating which side runs
/// first. Returns the median seconds of `a`, of `b`, and the median of the
/// per-pair ratios `a / b`.
fn time_pairs<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64, f64) {
    let (mut ta, mut tb, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..reps {
        let (x, y) = if rep % 2 == 0 {
            let x = timed(&mut a);
            (x, timed(&mut b))
        } else {
            let y = timed(&mut b);
            (timed(&mut a), y)
        };
        ta.push(x);
        tb.push(y);
        ratios.push(x / y);
    }
    (median(ta), median(tb), median(ratios))
}

/// Peak resident set size in kilobytes, read from `/proc/self/status`
/// (`VmHWM`). `None` off Linux — the field is then absent from the JSON.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn sparse_ring(n: u32, reps: i64) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for rep in 0..reps {
        for i in 0..n {
            b.add_indexed(i, (i + 1) % n, rep * 1000 + (i as i64 % 997));
        }
    }
    b.build().unwrap()
}

/// Bursty contact trains: every ring pair is active in short trains of
/// closely spaced events separated by long silences — the temporal texture
/// of face-to-face contact datasets (and the regime `dense_uniform` /
/// `sparse_ring` don't cover). Within a train the same edge fires in many
/// consecutive fine-scale windows while the rest of the graph is quiet, so
/// its continuation rows almost never change between firings: the workload
/// where delta propagation should shine.
fn sparse_burst(n: u32, trains: i64, burst: i64) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for train in 0..trains {
        for i in 0..n {
            // deterministic per-pair jitter desynchronizes train starts
            let start = train * 10_000 + (i as i64 * 389) % 7_919;
            for e in 0..burst {
                b.add_indexed(i, (i + 1) % n, start + e * 3);
            }
        }
    }
    b.build().unwrap()
}

/// Folds a trip stream, in report order, into one word.
#[derive(Default)]
struct ChecksumSink(u64);

impl TripSink for ChecksumSink {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        let mut x = self.0 ^ (u as u64 | (v as u64) << 32);
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        x ^= dep as u64 | (arr as u64) << 20 | (hops as u64) << 44;
        self.0 = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
}

/// A full-result checksum of one engine, driven by `run`: the trip-stream
/// folds of a plain run (the sweep's kernels) and of a distance run (the
/// sparse kernel only), plus the distance run's exact sums. Also returns
/// the plain run's traversal count. The current engine claims results
/// bit-identical to the baseline's, so any divergence is a correctness bug,
/// not noise.
fn engine_checksum(
    mut run: impl FnMut(&mut ChecksumSink, DpOptions<'static>) -> DpStats,
) -> ((u64, u64, i128, i128, i128), u64) {
    let (mut plain, mut dist) = (ChecksumSink::default(), ChecksumSink::default());
    let stats = run(&mut plain, DpOptions::default());
    let d = run(&mut dist, DpOptions { collect_distances: true, ..Default::default() })
        .distances
        .expect("distances collected");
    let checksum =
        (plain.0 ^ stats.trips, dist.0, d.sum_dtime_steps, d.sum_dhops, d.finite_triples);
    (checksum, stats.traversals)
}

/// Times one workload across `scales`; returns `(json, Σ legacy, Σ current)`.
fn measure_workload(
    name: &str,
    stream: &LinkStream,
    scales: &[u64],
    reps: usize,
) -> (Value, f64, f64) {
    let n = stream.node_count() as u32;
    let targets = TargetSet::all(n);
    let view = EventView::new(stream);
    println!("workload {name}: n={n} events={} span={}", stream.len(), stream.span());

    let mut per_scale = Vec::new();
    let mut all_match = true;
    let mut total_legacy = 0.0f64;
    let mut total_current = 0.0f64;
    let mut arena = EngineArena::new();
    for &k in scales {
        let timeline = Timeline::aggregated_from_view(&view, k);
        let (current, traversals) = engine_checksum(|sink, options| {
            earliest_arrival_dp_in(&mut arena, &timeline, &targets, sink, options)
        });
        let (legacy, _) = engine_checksum(|sink, options| {
            baseline::earliest_arrival_dp(&timeline, &targets, sink, options)
        });
        let ok = current == legacy;
        all_match &= ok;
        assert!(ok, "current vs baseline engine checksum diverged: {name} k={k}");

        // pre-rework pipeline: per-call timeline build + fresh-table engine;
        // current pipeline: shared view + frontier/arena engine
        let (t_legacy, t_current, speedup) = time_pairs(
            reps,
            || {
                let t = Timeline::aggregated(stream, k);
                baseline::earliest_arrival_dp(&t, &targets, &mut NullSink, DpOptions::default())
            },
            || {
                let t = Timeline::aggregated_from_view(&view, k);
                earliest_arrival_dp_in(
                    &mut arena,
                    &t,
                    &targets,
                    &mut NullSink,
                    DpOptions::default(),
                )
            },
        );
        total_legacy += t_legacy;
        total_current += t_current;
        println!(
            "  k={k:>7}  legacy {:>9.3} ms  current {:>9.3} ms  ({speedup:.2}x)  \
             {:.1}M traversals/s",
            t_legacy * 1e3,
            t_current * 1e3,
            traversals as f64 / t_current / 1e6,
        );
        per_scale.push(obj(vec![
            ("k", Value::Int(k as i128)),
            ("edges", Value::Int(timeline.total_edges() as i128)),
            ("traversals", Value::Int(traversals as i128)),
            ("legacy_pipeline_seconds", Value::Float(t_legacy)),
            ("current_pipeline_seconds", Value::Float(t_current)),
            ("speedup", Value::Float(speedup)),
            ("traversals_per_second", Value::Float(traversals as f64 / t_current)),
            ("checksum_match", Value::Bool(ok)),
        ]));
    }
    let json = obj(vec![
        ("nodes", Value::Int(n as i128)),
        ("events", Value::Int(stream.len() as i128)),
        ("span_ticks", Value::Int(stream.span() as i128)),
        ("checksums_match", Value::Bool(all_match)),
        ("per_scale", Value::Array(per_scale)),
        ("workload_speedup", Value::Float(total_legacy / total_current)),
    ]);
    (json, total_legacy, total_current)
}

/// Merges the tiles of `ranges` into one histogram with a shared arena.
fn tiled_histogram(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    ranges: &[(u32, u32)],
) -> OccupancyHistogram {
    OccupancyHistogram::merge_all(ranges.iter().map(|&(start, len)| {
        occupancy_histogram_tile_in(arena, timeline, targets, start, len as usize)
    }))
}

/// Histogram equality strong enough for a checksum: totals and the full
/// sorted (rate, multiplicity) sequence.
fn histograms_match(a: &OccupancyHistogram, b: &OccupancyHistogram) -> bool {
    a.total_trips() == b.total_trips()
        && a.distinct_rates() == b.distinct_rates()
        && a.sorted_rates() == b.sorted_rates()
}

/// The `sink` section: what counting trips into the occupancy histogram
/// costs on top of the DP. Per workload and scale, one untiled histogram run
/// is timed in turn with the same DP feeding a [`NullSink`], each side on
/// its own arena; `trips_per_s` is trips over the histogram run's seconds.
fn measure_sink(workloads: &[(&str, &LinkStream)], scales: &[u64], reps: usize) -> Value {
    let mut sections = Vec::new();
    for &(name, stream) in workloads {
        let targets = TargetSet::all(stream.node_count() as u32);
        let ncols = targets.len();
        let view = EventView::new(stream);
        let (mut hist_arena, mut null_arena) = (EngineArena::new(), EngineArena::new());
        let mut per_scale = Vec::new();
        for &k in scales {
            let timeline = Timeline::aggregated_from_view(&view, k);
            let hist =
                occupancy_histogram_tile_in(&mut hist_arena, &timeline, &targets, 0, ncols);
            let (t_hist, t_null, _) = time_pairs(
                reps,
                || occupancy_histogram_tile_in(&mut hist_arena, &timeline, &targets, 0, ncols),
                || {
                    earliest_arrival_dp_in(
                        &mut null_arena,
                        &timeline,
                        &targets,
                        &mut NullSink,
                        DpOptions::default(),
                    )
                },
            );
            let trips = hist.total_trips();
            let trips_per_s = trips as f64 / t_hist;
            println!(
                "  sink {name} k={k:>7}  {trips} trips on {} rates  histogram {:>9.3} ms  \
                 null sink {:>9.3} ms  {:.1}M trips/s",
                hist.distinct_rates(),
                t_hist * 1e3,
                t_null * 1e3,
                trips_per_s / 1e6,
            );
            per_scale.push(obj(vec![
                ("k", Value::Int(k as i128)),
                ("trips", Value::Int(trips as i128)),
                ("distinct_rates", Value::Int(hist.distinct_rates() as i128)),
                ("histogram_seconds", Value::Float(t_hist)),
                ("null_sink_seconds", Value::Float(t_null)),
                ("trips_per_s", Value::Float(trips_per_s)),
            ]));
        }
        sections.push((name, Value::Array(per_scale)));
    }
    obj(sections)
}

/// The `intra_scale` section: what the second parallel axis costs and buys.
/// Tiled-vs-untiled checksums are hard-asserted — a mismatch aborts the
/// bench (and CI) rather than recording garbage trend data.
fn measure_intra_scale(dense: &LinkStream, fast: bool, reps: usize) -> Value {
    // --- tile-size sensitivity on one dense scale, single-threaded --------
    let k = if fast { 1_000u64 } else { 10_000 };
    let targets = TargetSet::all(dense.node_count() as u32);
    let ncols = targets.len();
    let view = EventView::new(dense);
    let timeline = Timeline::aggregated_from_view(&view, k);
    let mut arena = EngineArena::new();
    let t_untiled = time_median(reps, || {
        occupancy_histogram_tile_in(&mut arena, &timeline, &targets, 0, ncols)
    });
    let reference = occupancy_histogram_tile_in(&mut arena, &timeline, &targets, 0, ncols);

    let mut checksums_match = true;
    let mut tile_sensitivity = Vec::new();
    let mut overhead_at_two_tiles = f64::NAN;
    for tiles in [2usize, 4, 8] {
        let tile = ncols.div_ceil(tiles).max(1);
        let ranges = targets.tile_ranges(tile);
        let t = time_median(reps, || tiled_histogram(&mut arena, &timeline, &targets, &ranges));
        let merged = tiled_histogram(&mut arena, &timeline, &targets, &ranges);
        let ok = histograms_match(&merged, &reference);
        checksums_match &= ok;
        assert!(ok, "tiled histogram (tile={tile}) diverges from untiled");
        let overhead = t / t_untiled;
        if tiles == 2 {
            overhead_at_two_tiles = overhead;
        }
        println!(
            "  intra_scale dense k={k} tile={tile} ({} tiles): {:.3} ms ({overhead:.3}x untiled)",
            ranges.len(),
            t * 1e3,
        );
        tile_sensitivity.push(obj(vec![
            ("tile_cols", Value::Int(tile as i128)),
            ("tiles", Value::Int(ranges.len() as i128)),
            ("seconds", Value::Float(t)),
            ("overhead_vs_untiled", Value::Float(overhead)),
        ]));
    }

    // --- single-scale wall time vs worker count (auto tiling) -------------
    let mut single_scale_threads = Vec::new();
    for threads in [1usize, 2, 4] {
        let t = time_median(reps.min(3), || {
            OccupancyMethod::new()
                .grid(SweepGrid::ExplicitK(vec![k]))
                .threads(threads)
                .refine(0, 0)
                .run(dense)
        });
        println!("  intra_scale single-scale threads={threads}: {:.3} ms", t * 1e3);
        single_scale_threads.push(obj(vec![
            ("threads", Value::Int(threads as i128)),
            ("run_seconds", Value::Float(t)),
        ]));
    }

    obj(vec![
        ("dense_scale_k", Value::Int(k as i128)),
        ("untiled_seconds", Value::Float(t_untiled)),
        ("tiled_single_thread_overhead", Value::Float(overhead_at_two_tiles)),
        ("checksums_match", Value::Bool(checksums_match)),
        ("tile_sensitivity", Value::Array(tile_sensitivity)),
        ("single_scale_threads", Value::Array(single_scale_threads)),
    ])
}

/// The `streaming` section: what an ingest session's sweep cache buys. A
/// pinned-period ring stream grows through append rounds landing in the
/// late suffix (the `/v1/streams` access pattern), and each round times a
/// warm [`OccupancyMethod::try_refresh_on`] against a scratch sweep of the
/// same grown stream. Refresh-vs-scratch reports are hard-asserted
/// byte-identical (`to_json`) — the session cache must be invisible in
/// report bytes, visible only in wall time. A final append-free refresh
/// records the full-reuse path (every scale served from cached histograms).
fn measure_streaming(fast: bool, reps: usize) -> Value {
    let n: u32 = if fast { 100 } else { 150 };
    let span: i64 = if fast { 40_000 } else { 100_000 };
    let comb: i64 = if fast { 250 } else { 500 };
    let rounds: i64 = 4;
    // small poll-between-batches appends: a live feed delivers a handful of
    // contact continuations between re-analyzes, not bulk backfills
    let batch: i64 = if fast { 12 } else { 24 };
    let points = if fast { 8 } else { 12 };
    let reps = reps.min(3);

    // base ring activity is a per-pair comb covering the whole pinned
    // period: every window at least `comb` wide provably holds every ring
    // edge. Append rounds then re-fire existing pairs 1-3 ticks after one
    // of their late comb events — the contact-train texture of streamed
    // face-to-face data, where a live edge keeps firing at closely spaced
    // timestamps. At every scale whose windows absorb that spacing each
    // appended event lands in a (pair, window) cell its comb already
    // occupies, the append is absorbed, and the cached histogram is served
    // with zero DP work; only the tick-finest scales recompute.
    let append_from = span * 9 / 10;
    let mut builder = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    builder.period(0, span);
    for u in 0..n {
        let mut t = (u as i64 * 37) % comb;
        while t <= span {
            builder.add_indexed(u, (u + 1) % n, t);
            t += comb;
        }
    }
    let base = builder.snapshot().expect("non-empty base");

    // the method configuration `/v1/streams/<id>/analyze` runs: geometric
    // grid, default refinement
    let method = OccupancyMethod::new().grid(SweepGrid::Geometric { points }).threads(1);
    let mut pool = WorkerPool::new(1);
    let ctl = SweepControl::new();
    let mut cache = SweepCache::new();
    let cold_start = Instant::now();
    let cold =
        method.try_refresh_on(&base, &mut pool, &ctl, &mut cache).expect("never cancelled");
    let cold_seconds = cold_start.elapsed().as_secs_f64();
    assert!(
        cold.to_json() == method.run_on(&base, &mut pool).to_json(),
        "streaming cold refresh diverged from scratch"
    );
    println!(
        "  streaming n={n} events_base={} points={points}: cold refresh {:.3} ms",
        base.len(),
        cold_seconds * 1e3,
    );

    let mut per_round = Vec::new();
    let mut all_identical = true;
    let (mut total_scratch, mut total_refresh) = (0.0f64, 0.0f64);
    let (mut reused, mut tiles_skipped) = (0u64, 0u64);
    let mut scales = 0u64;
    let mut clean_refresh_seconds = 0.0f64;
    // round `rounds` appends nothing: the clean full-reuse refresh
    for r in 0..=rounds {
        if r < rounds {
            let lo = append_from + (span - append_from) * r / rounds;
            for i in 0..batch {
                let u = ((i * 13 + r * 7) % n as i64) as u32;
                // the first comb event of pair u at or after `lo`, continued
                // one tick later (comb spacing keeps t off the comb itself)
                let t0 = lo + ((u as i64 * 37) % comb - lo).rem_euclid(comb);
                let t = (t0 + 1).min(span);
                builder.add_indexed(u, (u + 1) % n, t);
            }
        }
        let grown = builder.snapshot().expect("non-empty");
        let t_scratch = time_median(reps, || method.run_on(&grown, &mut pool));
        // each rep refreshes a clone of the pre-round cache, so every rep
        // does the same (warm) work; the clone cost lands on the refresh
        // side, making the reported speedup conservative
        let t_refresh = time_median(reps, || {
            let mut warm = cache.clone();
            method.try_refresh_on(&grown, &mut pool, &ctl, &mut warm)
        });
        let refreshed = method
            .try_refresh_on(&grown, &mut pool, &ctl, &mut cache)
            .expect("never cancelled");
        let stats = cache.stats;
        let ok = refreshed.to_json() == method.run_on(&grown, &mut pool).to_json();
        all_identical &= ok;
        assert!(ok, "streaming round {r}: refresh diverged from scratch");
        let speedup = t_scratch / t_refresh;
        println!(
            "  streaming round {r}: events={:>6}  scratch {:>8.3} ms  refresh {:>8.3} ms  \
             ({speedup:.2}x)  reused {}/{}",
            grown.len(),
            t_scratch * 1e3,
            t_refresh * 1e3,
            stats.scales_reused,
            stats.scales_total,
        );
        if r < rounds {
            total_scratch += t_scratch;
            total_refresh += t_refresh;
        } else {
            clean_refresh_seconds = t_refresh;
        }
        reused += stats.scales_reused;
        tiles_skipped += stats.tiles_skipped;
        scales = stats.scales_total;
        per_round.push(obj(vec![
            ("round", Value::Int(r as i128)),
            ("events", Value::Int(grown.len() as i128)),
            ("scratch_seconds", Value::Float(t_scratch)),
            ("refresh_seconds", Value::Float(t_refresh)),
            ("speedup", Value::Float(speedup)),
            ("scales_total", Value::Int(stats.scales_total as i128)),
            ("scales_reused", Value::Int(stats.scales_reused as i128)),
            ("tiles_skipped", Value::Int(stats.tiles_skipped as i128)),
            ("reports_identical", Value::Bool(ok)),
        ]));
    }
    let events_appended = builder.len() as i64 - base.len() as i64;
    let speedup = total_scratch / total_refresh;
    println!(
        "  streaming totals: scratch {:.3} s  refresh {:.3} s  ({speedup:.2}x over append \
         rounds, clean refresh {:.3} ms)",
        total_scratch,
        total_refresh,
        clean_refresh_seconds * 1e3,
    );
    obj(vec![
        ("workload", Value::String("streaming_ring".to_string())),
        ("nodes", Value::Int(n as i128)),
        ("span_ticks", Value::Int(span as i128)),
        ("points", Value::Int(points as i128)),
        ("events_base", Value::Int(base.len() as i128)),
        ("events_appended", Value::Int(events_appended as i128)),
        ("append_rounds", Value::Int(rounds as i128)),
        ("cold_refresh_seconds", Value::Float(cold_seconds)),
        ("scales", Value::Int(scales as i128)),
        ("scales_reused", Value::Int(reused as i128)),
        ("tiles_skipped", Value::Int(tiles_skipped as i128)),
        ("scratch_seconds", Value::Float(total_scratch)),
        ("refresh_seconds", Value::Float(total_refresh)),
        ("clean_refresh_seconds", Value::Float(clean_refresh_seconds)),
        ("speedup", Value::Float(speedup)),
        ("reports_identical", Value::Bool(all_identical)),
        ("per_round", Value::Array(per_round)),
    ])
}

fn main() {
    let fast = saturn_bench::fast_mode();
    let reps = if fast { 3 } else { 5 };

    let dense = if fast {
        TimeUniform { nodes: 24, links_per_pair: 4, span: 20_000, seed: 7 }.generate()
    } else {
        TimeUniform { nodes: 60, links_per_pair: 6, span: 100_000, seed: 7 }.generate()
    };
    let sparse = if fast { sparse_ring(120, 10) } else { sparse_ring(600, 40) };
    let burst = if fast { sparse_burst(120, 4, 6) } else { sparse_burst(600, 8, 8) };
    let scales: Vec<u64> = if fast {
        vec![100, 1_000, 10_000]
    } else {
        vec![1_000, 2_000, 10_000, 20_000, 100_000]
    };

    let (dense_json, dl, dc) = measure_workload("dense_uniform", &dense, &scales, reps);
    let (sparse_json, sl, sc) = measure_workload("sparse_ring", &sparse, &scales, reps);
    let (burst_json, bl, bc) = measure_workload("sparse_burst", &burst, &scales, reps);

    println!("trip sink (occupancy histogram vs null sink):");
    let sink_scales = [scales[0], scales[scales.len() / 2], scales[scales.len() - 1]];
    let sink = measure_sink(
        &[("dense_uniform", &dense), ("sparse_ring", &sparse), ("sparse_burst", &burst)],
        &sink_scales,
        reps,
    );

    println!("intra-scale parallelism (target tiling):");
    let intra_scale = measure_intra_scale(&dense, fast, reps);

    println!("streaming ingest refresh (session sweep cache) vs scratch sweeps:");
    let streaming = measure_streaming(fast, reps);

    // --- end-to-end method timings on the dense workload ------------------
    let grid = SweepGrid::Geometric { points: if fast { 10 } else { 16 } };
    let mut end_to_end = Vec::new();
    for threads in [1usize, 2, 4] {
        let t = time_median(reps.min(3), || {
            OccupancyMethod::new().grid(grid.clone()).threads(threads).refine(2, 6).run(&dense)
        });
        println!("method threads={threads}: {t:.3} s");
        end_to_end.push(obj(vec![
            ("threads", Value::Int(threads as i128)),
            ("run_seconds", Value::Float(t)),
        ]));
    }

    let aggregate = (dl + sl + bl) / (dc + sc + bc);
    println!("aggregate pipeline speedup over all workloads: {aggregate:.2}x");

    let mut top = vec![
        (
            "description",
            Value::String(
                "Sweep-engine perf trajectory: per-scale wall time of the pre-rework \
                 pipeline (per-call timeline build + fresh-table baseline engine) vs the \
                 current pipeline (shared sorted event view + frontier/arena engine), timed \
                 in turn, with their results checked equal; traversal throughput, \
                 end-to-end method timings. Regenerate: cargo run \
                 --release -p saturn-bench --bin bench_sweep"
                    .to_string(),
            ),
        ),
        (
            "host",
            obj(vec![
                (
                    "available_parallelism",
                    Value::Int(
                        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
                            as i128,
                    ),
                ),
                ("fast_mode", Value::Bool(fast)),
            ]),
        ),
        ("dense_uniform", dense_json),
        ("sparse_ring", sparse_json),
        ("sparse_burst", burst_json),
        ("sink", sink),
        ("intra_scale", intra_scale),
        ("streaming", streaming),
        ("end_to_end", Value::Array(end_to_end)),
        ("aggregate_pipeline_speedup", Value::Float(aggregate)),
    ];
    if let Some(kb) = peak_rss_kb() {
        top.push(("peak_rss_kb", Value::Int(kb as i128)));
    }

    let out_path =
        std::env::var("SATURN_BENCH_OUT").unwrap_or_else(|_| "BENCH_sweep.json".to_string());
    std::fs::write(&out_path, obj(top).to_string_pretty()).expect("cannot write bench output");
    println!("wrote {out_path}");
}
