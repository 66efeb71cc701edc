//! End-to-end cost of the occupancy method: grid size, parallelism, and the
//! per-scale cost profile ("the most costly computations are the ones made
//! for small values of Δ" — Section 5).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use saturn_core::{OccupancyMethod, SweepGrid, TargetSpec};
use saturn_synth::TimeUniform;
use saturn_trips::{occupancy_histogram_on, TargetSet, Timeline};

fn workload() -> saturn_linkstream::LinkStream {
    TimeUniform { nodes: 30, links_per_pair: 8, span: 50_000, seed: 5 }.generate()
}

/// Full method vs grid density.
fn bench_method_grid(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("method_grid_points");
    group.sample_size(10);
    for points in [8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(points), &points, |b, &p| {
            b.iter(|| {
                OccupancyMethod::new()
                    .grid(SweepGrid::Geometric { points: p })
                    .threads(1)
                    .refine(0, 0)
                    .run(&stream)
            })
        });
    }
    group.finish();
}

/// Thread scaling of the sweep.
fn bench_method_threads(c: &mut Criterion) {
    let stream = workload();
    let mut group = c.benchmark_group("method_threads");
    group.sample_size(10);
    for threads in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                OccupancyMethod::new()
                    .grid(SweepGrid::Geometric { points: 24 })
                    .threads(t)
                    .refine(0, 0)
                    .run(&stream)
            })
        });
    }
    group.finish();
}

/// Per-scale cost: fine Δ vs coarse Δ on the same stream (the fine end
/// carries more distinct edges M, hence more work).
fn bench_per_scale_cost(c: &mut Criterion) {
    let stream = workload();
    let span = stream.span() as u64;
    let mut group = c.benchmark_group("per_scale_cost");
    for (label, k) in [("fine", span), ("mid", span / 100), ("coarse", 4u64)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &k, |b, &k| {
            b.iter(|| {
                occupancy_histogram_on(&Timeline::aggregated(&stream, k), &TargetSet::all(30))
            })
        });
    }
    group.finish();
}

/// Exact all-pairs vs sampled destinations.
fn bench_target_sampling(c: &mut Criterion) {
    let stream =
        TimeUniform { nodes: 100, links_per_pair: 4, span: 50_000, seed: 6 }.generate();
    let mut group = c.benchmark_group("target_sampling");
    group.sample_size(10);
    for (label, spec) in
        [("all_100", TargetSpec::All), ("sample_20", TargetSpec::Sample { size: 20, seed: 1 })]
    {
        group.bench_with_input(BenchmarkId::from_parameter(label), &spec, |b, spec| {
            b.iter(|| {
                OccupancyMethod::new()
                    .grid(SweepGrid::Geometric { points: 12 })
                    .targets(*spec)
                    .threads(1)
                    .refine(0, 0)
                    .run(&stream)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_method_grid,
    bench_method_threads,
    bench_per_scale_cost,
    bench_target_sampling
);
criterion_main!(benches);
