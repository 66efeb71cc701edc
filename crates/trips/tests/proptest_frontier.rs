//! Property-based validation of the frontier-pruned, arena-reused engine:
//! on random small streams it must agree with (a) the retained baseline
//! engine (full-row snapshots, fresh tables) and (b) the brute-force
//! earliest-arrival reference — on trips, hops, and distance sums alike.

use proptest::prelude::*;
use saturn_linkstream::{Directedness, LinkStreamBuilder};
use saturn_trips::dp::{baseline, DpStats, NullSink};
use saturn_trips::reference::earliest_arrival_bruteforce;
use saturn_trips::{
    earliest_arrival_dp_in, DpOptions, EngineArena, TargetSet, Timeline, TripSink,
};

#[derive(Default)]
struct Collect(Vec<(u32, u32, u32, u32, u32)>);

impl TripSink for Collect {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        self.0.push((u, v, dep, arr, hops));
    }
}

/// The distance sums of `stats` as a comparable tuple (`None` when the run
/// collected none).
fn sums(stats: &DpStats) -> Option<(i128, i128, i128)> {
    stats.distances.map(|d| (d.sum_dtime_steps, d.sum_dhops, d.finite_triples))
}

/// A random stream over <= 6 nodes and <= 14 events in [0, 40].
fn arb_stream(directed: bool) -> impl Strategy<Value = saturn_linkstream::LinkStream> {
    let d = if directed { Directedness::Directed } else { Directedness::Undirected };
    proptest::collection::vec((0u32..6, 0u32..6, 0i64..41), 1..14).prop_filter_map(
        "needs at least one non-loop event",
        move |events| {
            let mut b = LinkStreamBuilder::indexed(d, 6);
            for (u, v, t) in events {
                if u != v {
                    b.add_indexed(u, v, t);
                }
            }
            if b.is_empty() {
                return None;
            }
            Some(b.build().expect("non-empty"))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Frontier engine == baseline engine: identical trip streams (same
    /// order), traversal counts, and distance sums — undirected. Runs
    /// without distances take the dense kernel where rows qualify, so both
    /// kernels and the degree-1 bypass face the oracle.
    #[test]
    fn frontier_equals_baseline_undirected(stream in arb_stream(false), k in 1u64..24) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let targets = TargetSet::all(6);
        for collect_distances in [true, false] {
            let options = DpOptions { collect_distances, ..Default::default() };
            let mut slow = Collect::default();
            let bs = baseline::earliest_arrival_dp(&timeline, &targets, &mut slow, options);
            let mut fast = Collect::default();
            let fs = earliest_arrival_dp_in(
                &mut EngineArena::new(), &timeline, &targets, &mut fast, options,
            );
            prop_assert_eq!(&fast.0, &slow.0, "collect_distances={}", collect_distances);
            prop_assert_eq!(fs.trips, bs.trips);
            prop_assert_eq!(fs.traversals, bs.traversals);
            prop_assert_eq!(sums(&fs), sums(&bs));
        }
    }

    /// Same equivalence for directed streams on the exact timeline.
    #[test]
    fn frontier_equals_baseline_directed_exact(stream in arb_stream(true)) {
        let timeline = Timeline::exact(&stream);
        let targets = TargetSet::all(6);
        for collect_distances in [true, false] {
            let options = DpOptions { collect_distances, ..Default::default() };
            let mut slow = Collect::default();
            let bs = baseline::earliest_arrival_dp(&timeline, &targets, &mut slow, options);
            let mut fast = Collect::default();
            let fs = earliest_arrival_dp_in(
                &mut EngineArena::new(), &timeline, &targets, &mut fast, options,
            );
            prop_assert_eq!(&fast.0, &slow.0, "collect_distances={}", collect_distances);
            prop_assert_eq!(fs.trips, bs.trips);
            prop_assert_eq!(sums(&fs), sums(&bs));
        }
    }

    /// Frontier engine == naive earliest-arrival reference: earliest
    /// arrivals, minimum hops, and the three distance sums all match the
    /// per-departure-step brute-force function.
    #[test]
    fn frontier_matches_naive_reference(stream in arb_stream(false), k in 1u64..20) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let ea = earliest_arrival_bruteforce(&timeline, 3_000_000);

        // reference distance sums from the sampled EA functions
        let mut ref_dtime: i128 = 0;
        let mut ref_dhops: i128 = 0;
        let mut ref_triples: i128 = 0;
        for per_step in ea.values() {
            for (t, entry) in per_step.iter().enumerate() {
                if let Some((arr, hops)) = entry {
                    ref_dtime += (*arr as i128) - (t as i128) + 1;
                    ref_dhops += *hops as i128;
                    ref_triples += 1;
                }
            }
        }

        let stats = earliest_arrival_dp_in(&mut EngineArena::new(),
            &timeline,
            &TargetSet::all(6),
            &mut NullSink,
            DpOptions { collect_distances: true, ..Default::default() },
        );
        let d = stats.distances.unwrap();
        prop_assert_eq!(d.sum_dtime_steps, ref_dtime);
        prop_assert_eq!(d.sum_dhops, ref_dhops);
        prop_assert_eq!(d.finite_triples, ref_triples);
    }

    /// One arena carried across runs over random streams and scales is
    /// indistinguishable from fresh allocation every run — values left in
    /// the never-cleared cell tables by earlier scales are never read,
    /// since liveness (the frontier) is reset per run. Distance collection
    /// is toggled per run, so rows readied by a dense run stay consistent
    /// for the sparse-only distance run after it, and stale watermarks /
    /// row marks / dirty bitmaps from a previous scale (whose pair ids mean
    /// different edges) must stay dead too.
    #[test]
    fn arena_epoch_reuse_never_leaks(
        stream in arb_stream(false),
        ks in proptest::collection::vec(1u64..24, 1..6),
    ) {
        let mut arena = EngineArena::new();
        for (i, &k) in ks.iter().enumerate() {
            let k = if stream.span() == 0 { 1 } else { k };
            let timeline = Timeline::aggregated(&stream, k);
            let options = DpOptions { collect_distances: i % 2 == 1, ..Default::default() };

            let mut reused = Collect::default();
            let rs = earliest_arrival_dp_in(
                &mut arena, &timeline, &TargetSet::all(6), &mut reused, options,
            );
            let mut fresh = Collect::default();
            let fs = earliest_arrival_dp_in(&mut EngineArena::new(), &timeline, &TargetSet::all(6), &mut fresh, options);

            prop_assert_eq!(reused.0, fresh.0);
            prop_assert_eq!(rs.trips, fs.trips);
            prop_assert_eq!(sums(&rs), sums(&fs));
        }
    }

    /// Sampled target sets agree between the two engines as well (frontier
    /// bookkeeping is per-column and must respect the restriction).
    #[test]
    fn frontier_equals_baseline_with_sampled_targets(
        stream in arb_stream(true),
        k in 1u64..16,
        targets in proptest::collection::btree_set(0u32..6, 1..4),
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let nodes: Vec<u32> = targets.into_iter().collect();
        let tset = TargetSet::from_nodes(6, &nodes);

        let mut fast = Collect::default();
        earliest_arrival_dp_in(&mut EngineArena::new(), &timeline, &tset, &mut fast, DpOptions::default());
        let mut slow = Collect::default();
        baseline::earliest_arrival_dp(&timeline, &tset, &mut slow, DpOptions::default());
        prop_assert_eq!(fast.0, slow.0);
    }

    /// Target-tiled execution partitions the untiled run exactly: for any
    /// tile size, one arena carried across all tiles yields trips, trip
    /// counts, and (when collected) distance sums that merge to the
    /// baseline engine's untiled run. The tiles collect distances or not as
    /// sampled, so the dense kernel is tiled too.
    #[test]
    fn tiled_runs_merge_to_the_untiled_run(
        stream in arb_stream(false),
        k in 1u64..24,
        tile in 1usize..7,
        collect_distances in any::<bool>(),
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = Timeline::aggregated(&stream, k);
        let targets = TargetSet::all(6);
        let options = DpOptions { collect_distances: true, ..Default::default() };

        let mut full_sink = Collect::default();
        let full = baseline::earliest_arrival_dp(&timeline, &targets, &mut full_sink, options);
        let mut full_trips = full_sink.0;
        full_trips.sort_unstable();

        let mut arena = EngineArena::new();
        let mut trips = Vec::new();
        let mut count = 0u64;
        let (mut dtime, mut dhops, mut triples) = (0i128, 0i128, 0i128);
        for cols in targets.tile_ranges(tile) {
            let mut sink = Collect::default();
            let tile_options = DpOptions { collect_distances, cols: Some(cols), cancel: None };
            let stats =
                earliest_arrival_dp_in(&mut arena, &timeline, &targets, &mut sink, tile_options);
            trips.extend(sink.0);
            count += stats.trips;
            if let Some((t, h, n)) = sums(&stats) {
                dtime += t;
                dhops += h;
                triples += n;
            }
        }
        trips.sort_unstable();
        prop_assert_eq!(trips, full_trips);
        prop_assert_eq!(count, full.trips);
        if collect_distances {
            prop_assert_eq!(Some((dtime, dhops, triples)), sums(&full));
        }
    }

    /// The degree-1 snapshot bypass and the delta filters are invisible on
    /// random streams, both directednesses and both kernels: every run
    /// yields the baseline engine's trip stream (order included) and stats.
    #[test]
    fn degree1_bypass_and_delta_filters_match_baseline(
        stream in arb_stream(true),
        k in 1u64..24,
        directed_timeline in any::<bool>(),
    ) {
        let k = if stream.span() == 0 { 1 } else { k };
        let timeline = if directed_timeline {
            Timeline::exact(&stream)
        } else {
            Timeline::aggregated(&stream, k)
        };
        let targets = TargetSet::all(6);
        for collect_distances in [true, false] {
            let options = DpOptions { collect_distances, ..Default::default() };
            let mut reference = Collect::default();
            let rs = baseline::earliest_arrival_dp(&timeline, &targets, &mut reference, options);
            let mut run = Collect::default();
            let os = earliest_arrival_dp_in(
                &mut EngineArena::new(), &timeline, &targets, &mut run, options,
            );
            prop_assert_eq!(&run.0, &reference.0, "collect_distances={}", collect_distances);
            prop_assert_eq!(os.trips, rs.trips);
            prop_assert_eq!(os.traversals, rs.traversals);
            prop_assert_eq!(sums(&os), sums(&rs));
        }
    }
}
