//! Tiling must be invisible: an [`OccupancyMethod`] run split into target
//! tiles of any width, on any thread count, must serialize to the *same
//! bytes* as the untiled single-threaded run — the property that keeps the
//! analysis service's content-addressed cache correct while the executor
//! re-tiles work per hardware. Tile widths 1, 3, `ncols`, and a
//! proptest-chosen random width are exercised across 1/2/4/8 threads, with
//! refinement rounds on (the narrow rounds are where auto-tiling matters
//! most).

use proptest::prelude::*;
use saturn_core::parallel::WorkerPool;
use saturn_core::{KeepPolicy, OccupancyMethod, SweepControl, SweepGrid, TargetSpec};
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};

/// A small random-ish stream driven by proptest-chosen parameters.
fn build_stream(n: u32, events: usize, gap: i64, twist: u32) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for i in 0..events {
        let u = (i as u32).wrapping_mul(twist | 1) % n;
        let v = (u + 1 + (i as u32 % (n - 1))) % n;
        if u != v {
            b.add_indexed(u, v, i as i64 * gap + (i as i64 % 5));
        }
    }
    b.build().expect("non-empty stream")
}

fn method(threads: usize, tile: usize) -> OccupancyMethod {
    OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points: 8 })
        .threads(threads)
        .refine(1, 4)
        .keep(KeepPolicy::ScoresOnly)
        .tile(tile)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance matrix: tile ∈ {1, 3, ncols, random} × threads ∈
    /// {1, 2, 4, 8}, every cell byte-identical to the untiled
    /// single-threaded reference.
    #[test]
    fn reports_are_bit_identical_across_threads_and_tiles(
        n in 5u32..10,
        events in 40usize..90,
        gap in 3i64..9,
        twist in 1u32..64,
        random_tile in 1usize..16,
    ) {
        let stream = build_stream(n, events, gap, twist);
        let ncols = n as usize;
        let reference = method(1, ncols).run(&stream).to_json();
        for &tile in &[1usize, 3, ncols, random_tile] {
            for &threads in &[1usize, 2, 4, 8] {
                let report = method(threads, tile).run(&stream).to_json();
                prop_assert_eq!(
                    &report,
                    &reference,
                    "tile={} threads={} diverged",
                    tile,
                    threads
                );
            }
        }
    }

    /// Same property under sampled destinations (tile ranges then cover a
    /// strict subset of nodes, exercising the col_start offset mapping).
    #[test]
    fn sampled_targets_tile_identically(
        n in 6u32..12,
        events in 40usize..80,
        sample in 2u32..5,
        tile in 1usize..6,
    ) {
        let stream = build_stream(n, events, 5, 7);
        let mk = |threads: usize, t: usize| {
            OccupancyMethod::new()
                .grid(SweepGrid::Geometric { points: 6 })
                .targets(TargetSpec::Sample { size: sample, seed: 3 })
                .threads(threads)
                .refine(1, 3)
                .tile(t)
                .run(&stream)
                .to_json()
        };
        let reference = mk(1, usize::MAX);
        prop_assert_eq!(mk(4, tile), reference.clone());
        prop_assert_eq!(mk(2, 1), reference.clone());
        prop_assert_eq!(mk(2, tile), reference);
    }

    /// The cancellation axis of the knob matrix: running under a
    /// [`SweepControl`] whose token never fires must serialize to the same
    /// bytes as the plain no-token run, across thread counts and tile
    /// widths — cancellation plumbing is an execution knob like tiling and
    /// must never reach report bytes or cache fingerprints.
    #[test]
    fn unfired_cancel_token_is_byte_identical(
        n in 5u32..10,
        events in 40usize..90,
        gap in 3i64..9,
        twist in 1u32..64,
        tile in 1usize..8,
    ) {
        let stream = build_stream(n, events, gap, twist);
        let reference = method(1, n as usize).run(&stream).to_json();
        for &threads in &[1usize, 4] {
            let ctl = SweepControl::new();
            let mut pool = WorkerPool::new(threads);
            let report = method(threads, tile)
                .try_run_on(&stream, &mut pool, &ctl)
                .expect("token never fires")
                .to_json();
            prop_assert_eq!(
                &report,
                &reference,
                "threads={} tile={}: an unfired token changed the report",
                threads,
                tile
            );
            let (done, total) = ctl.progress.snapshot();
            prop_assert_eq!(done, total);
        }
    }
}

/// The auto tile width (tile = 0) must also be invisible, including on
/// pools wider than the scale count — the configuration the feature exists
/// for.
#[test]
fn auto_tiling_is_bit_identical_on_wide_pools() {
    let stream = build_stream(20, 160, 4, 11);
    let reference = OccupancyMethod::new()
        .grid(SweepGrid::ExplicitK(vec![1, 17, 170]))
        .threads(1)
        .refine(0, 0)
        .tile(usize::MAX)
        .run(&stream)
        .to_json();
    for threads in [2usize, 8] {
        let auto = OccupancyMethod::new()
            .grid(SweepGrid::ExplicitK(vec![1, 17, 170]))
            .threads(threads)
            .refine(0, 0)
            .tile(0)
            .run(&stream)
            .to_json();
        assert_eq!(auto, reference, "threads={threads}");
    }
}
