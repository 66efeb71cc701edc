//! Micro-benchmarks of the computational substrates: the `O(nM)` backward
//! DP (the paper's Section 5 complexity claim), aggregation, and the exact
//! M-K distance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saturn_distrib::{mk_distance_to_uniform, WeightedDist};
use saturn_graphseries::GraphSeries;
use saturn_synth::TimeUniform;
use saturn_trips::dp::{baseline, NullSink};
use saturn_trips::{
    earliest_arrival_dp_in, occupancy_histogram_on, DpOptions, EngineArena, EventView,
    TargetSet, Timeline,
};

/// DP cost vs n at fixed per-pair activity: the paper's O(nM) means cost per
/// edge grows linearly with n (M itself grows with n² here, so total is
/// ~n³ — the throughput metric below normalizes by n·M).
fn bench_dp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_nm_scaling");
    group.sample_size(10);
    for n in [20u32, 40, 80] {
        let stream =
            TimeUniform { nodes: n, links_per_pair: 6, span: 50_000, seed: 1 }.generate();
        let timeline = Timeline::aggregated(&stream, 2_000);
        let work = (n as u64) * timeline.total_edges() as u64; // n·M units
        group.throughput(Throughput::Elements(work));
        group.bench_with_input(BenchmarkId::from_parameter(n), &timeline, |b, t| {
            b.iter(|| occupancy_histogram_on(t, &TargetSet::all(n)))
        });
    }
    group.finish();
}

/// DP cost vs the number of windows K at fixed data: K only changes step
/// bookkeeping, so cost should stay nearly flat.
fn bench_dp_vs_k(c: &mut Criterion) {
    let stream =
        TimeUniform { nodes: 40, links_per_pair: 8, span: 100_000, seed: 2 }.generate();
    let mut group = c.benchmark_group("dp_vs_k");
    group.sample_size(10);
    for k in [100u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            let timeline = Timeline::aggregated(&stream, k);
            b.iter(|| occupancy_histogram_on(&timeline, &TargetSet::all(40)))
        });
    }
    group.finish();
}

/// Aggregation throughput (events/s) across window counts.
fn bench_aggregation(c: &mut Criterion) {
    let stream =
        TimeUniform { nodes: 60, links_per_pair: 10, span: 100_000, seed: 3 }.generate();
    let mut group = c.benchmark_group("aggregation");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for k in [10u64, 1_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| GraphSeries::aggregate(&stream, k))
        });
    }
    group.finish();
}

/// Exact M-K distance vs support size (closed-form segment integration).
fn bench_mk_distance(c: &mut Criterion) {
    let mut group = c.benchmark_group("mk_distance");
    for support in [100usize, 10_000, 100_000] {
        let dist = WeightedDist::from_pairs(
            (1..=support).map(|i| (i as f64 / support as f64, 1 + (i % 7) as u64)).collect(),
        );
        group.throughput(Throughput::Elements(support as u64));
        group.bench_with_input(BenchmarkId::from_parameter(support), &dist, |b, d| {
            b.iter(|| mk_distance_to_uniform(d))
        });
    }
    group.finish();
}

/// A large sparse ring: temporal reachability per row stays far below `n`
/// for most of the backward sweep, which is where the frontier bitmap prunes
/// hardest (sparse contact networks — the paper's datasets — look like this,
/// not like the dense all-pairs `TimeUniform`).
fn sparse_ring(n: u32, reps: i64) -> saturn_linkstream::LinkStream {
    use saturn_linkstream::{Directedness, LinkStreamBuilder};
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for rep in 0..reps {
        for i in 0..n {
            b.add_indexed(i, (i + 1) % n, rep * 1000 + (i as i64 % 997));
        }
    }
    b.build().unwrap()
}

/// The headline comparison: the pre-rework engine (fresh tables, full-row
/// snapshots, O(ncols) chain scans) vs the frontier-pruned arena engine on
/// the same timelines — one dense workload (frontier ≈ baseline locality)
/// and one sparse workload (frontier prunes, ≥3× expected). The
/// `BENCH_sweep.json` emitter records the same ratios; this group isolates
/// the DP itself.
fn bench_baseline_vs_frontier(c: &mut Criterion) {
    let dense = TimeUniform { nodes: 60, links_per_pair: 6, span: 100_000, seed: 7 }.generate();
    let sparse = sparse_ring(600, 40);
    let workloads =
        [("dense60", &dense, TargetSet::all(60)), ("ring600", &sparse, TargetSet::all(600))];
    let mut group = c.benchmark_group("engine_baseline_vs_frontier");
    group.sample_size(10);
    for (label, stream, targets) in workloads {
        for k in [2_000u64, 20_000] {
            let timeline = Timeline::aggregated(stream, k);
            group.throughput(Throughput::Elements(timeline.total_edges() as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/baseline"), k),
                &timeline,
                |b, t| {
                    b.iter(|| {
                        baseline::earliest_arrival_dp(
                            t,
                            &targets,
                            &mut NullSink,
                            DpOptions::default(),
                        )
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{label}/frontier"), k),
                &timeline,
                |b, t| {
                    let mut arena = EngineArena::new();
                    b.iter(|| {
                        earliest_arrival_dp_in(
                            &mut arena,
                            t,
                            &targets,
                            &mut NullSink,
                            DpOptions::default(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// Aggregation from the shared sorted event view vs per-call sorting — the
/// CSR timeline's second half.
fn bench_view_aggregation(c: &mut Criterion) {
    let stream =
        TimeUniform { nodes: 60, links_per_pair: 10, span: 100_000, seed: 8 }.generate();
    let view = EventView::new(&stream);
    let mut group = c.benchmark_group("aggregation_shared_view");
    group.throughput(Throughput::Elements(stream.len() as u64));
    for k in [100u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("fresh_sort", k), &k, |b, &k| {
            b.iter(|| Timeline::aggregated(&stream, k))
        });
        group.bench_with_input(BenchmarkId::new("shared_view", k), &k, |b, &k| {
            b.iter(|| Timeline::aggregated_from_view(&view, k))
        });
    }
    group.finish();
}

/// Exact-timeline (stream) trip enumeration, the Section 8 reference.
fn bench_stream_trips(c: &mut Criterion) {
    let stream =
        TimeUniform { nodes: 40, links_per_pair: 10, span: 100_000, seed: 4 }.generate();
    c.bench_function("stream_minimal_trips", |b| {
        b.iter(|| saturn_trips::stream_minimal_trips(&stream, &TargetSet::all(40), true))
    });
}

criterion_group!(
    benches,
    bench_dp_scaling,
    bench_dp_vs_k,
    bench_baseline_vs_frontier,
    bench_view_aggregation,
    bench_aggregation,
    bench_mk_distance,
    bench_stream_trips
);
criterion_main!(benches);
