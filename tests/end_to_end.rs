//! Integration tests: the full pipeline across crates, from raw text to the
//! saturation scale.

use saturn::core::{classic_sweep, validation_sweep};
use saturn::linkstream::io;
use saturn::prelude::*;

/// A periodic stream where the "right" scale is knowable: links repeat every
/// `gap` ticks along a path, so aggregation beyond a few `gap`s saturates.
fn periodic_chain(n: u32, repetitions: usize, gap: i64) -> LinkStream {
    let mut b = LinkStreamBuilder::indexed(Directedness::Undirected, n);
    for rep in 0..repetitions {
        for i in 0..(n - 1) {
            let t = rep as i64 * (n as i64 - 1) * gap + i as i64 * gap;
            b.add_indexed(i, i + 1, t);
        }
    }
    b.build().unwrap()
}

#[test]
fn gamma_tracks_the_intrinsic_scale() {
    // Two identical topologies, one running 8x faster: γ must scale ~8x.
    let slow = periodic_chain(6, 60, 80);
    let fast = periodic_chain(6, 60, 10);
    let gamma = |s: &LinkStream| {
        OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 24 })
            .threads(2)
            .run(s)
            .gamma()
            .unwrap()
            .delta_ticks
    };
    let gs = gamma(&slow);
    let gf = gamma(&fast);
    let ratio = gs / gf;
    assert!(
        (4.0..16.0).contains(&ratio),
        "slow/fast γ ratio {ratio} should be near 8 (γ_slow={gs}, γ_fast={gf})"
    );
}

#[test]
fn parse_analyze_report_roundtrip() {
    // text -> stream -> method -> JSON report
    let mut text = String::from("% synthetic trace\n");
    for i in 0..400i64 {
        text.push_str(&format!("u{} u{} {}\n", i % 7, (i + 1) % 7, i * 13));
    }
    let stream = io::read_str(&text, Directedness::Directed).unwrap();
    assert_eq!(stream.node_count(), 7);

    let report = OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points: 16 })
        .threads(2)
        .run(&stream);
    let gamma = report.gamma().expect("gamma");
    assert!(gamma.delta_ticks >= 1.0 && gamma.delta_ticks <= stream.span() as f64);

    let json = report.to_json();
    let v: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(v["results"].as_array().unwrap().len(), report.results().len());
    // the serialized scores carry the M-K proximity used for gamma
    let max_prox = v["results"]
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r["scores"]["mk_proximity"].as_f64().unwrap())
        .fold(f64::MIN, f64::max);
    assert!((max_prox - gamma.score).abs() < 1e-12);
}

#[test]
fn aggregation_preserves_every_event_in_some_window() {
    let stream = periodic_chain(5, 40, 17);
    for k in [1u64, 3, 10, 100, stream.span() as u64] {
        let series = GraphSeries::aggregate(&stream, k);
        // every event's pair appears in its window's snapshot
        let partition = stream.partition(k).unwrap();
        for l in stream.events() {
            let w = partition.index(l.t);
            let snap = series.snapshot_at(w).expect("window with an event is non-empty");
            assert!(
                snap.has_edge(l.u.raw(), l.v.raw()),
                "event {l:?} missing from window {w} at k={k}"
            );
        }
        // and M never exceeds the event count
        assert!(series.total_edges() <= stream.len());
    }
}

#[test]
fn stream_trips_upper_bound_series_trips_durations() {
    // Any trip of the aggregated series corresponds to a real propagation
    // opportunity: the underlying stream must connect the same pair within
    // the same real-time range (soundness of aggregation analysis).
    let stream = periodic_chain(6, 50, 23);
    let targets = TargetSet::all(6);
    let reference = stream_minimal_trips(&stream, &targets, false);
    let k = 50u64;
    let partition = stream.partition(k).unwrap();
    let timeline = Timeline::aggregated(&stream, k);

    struct Check<'a> {
        reference: &'a saturn::trips::StreamTrips,
        partition: WindowPartition,
        checked: usize,
    }
    impl saturn::trips::TripSink for Check<'_> {
        fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, _hops: u32) {
            let trips = self.reference.pair(u, v).expect("series trip implies stream trip");
            let ok = trips.iter().any(|&(d, a)| {
                self.partition.index(Time::new(d)) >= dep as u64
                    && self.partition.index(Time::new(a)) <= arr as u64
            });
            assert!(ok, "aggregated trip ({u},{v},{dep},{arr}) has no stream counterpart");
            self.checked += 1;
        }
    }
    let mut check = Check { reference: &reference, partition, checked: 0 };
    saturn::trips::earliest_arrival_dp_in(
        &mut saturn::trips::EngineArena::new(),
        &timeline,
        &targets,
        &mut check,
        saturn::trips::DpOptions::default(),
    );
    assert!(check.checked > 0);
}

#[test]
fn classic_and_validation_sweeps_run_end_to_end() {
    let stream = periodic_chain(6, 40, 19);
    let grid = SweepGrid::Geometric { points: 10 };

    let classic = classic_sweep(&stream, &grid, TargetSpec::All, 2, 1);
    assert!(classic.len() >= 8);
    assert!(classic.windows(2).all(|w| w[0].delta_ticks < w[1].delta_ticks));

    let validation = validation_sweep(
        &stream,
        &grid,
        TargetSpec::All,
        &saturn::core::ValidationOptions { threads: 2, ..Default::default() },
    );
    assert_eq!(validation.points.len(), classic.len());
    // loss is 1 at Δ = T
    assert!((validation.points.last().unwrap().lost_transitions - 1.0).abs() < 1e-12);
}

#[test]
fn dataset_standins_run_scaled() {
    // All four profiles, scaled small, through the full method.
    for profile in DatasetProfile::all() {
        let p = profile.scaled(0.03);
        let stream = p.generate(5);
        let report = OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 12 })
            .threads(0)
            .refine(0, 0)
            .run(&stream);
        let gamma = report.gamma().unwrap_or_else(|| panic!("{}: no gamma", p.name));
        assert!(
            gamma.delta_ticks > 0.0 && gamma.delta_ticks <= stream.span() as f64,
            "{}: γ out of range",
            p.name
        );
        // extremes behave per Section 4
        let coarse = report.results().last().unwrap();
        assert!(coarse.fraction_at_one > 0.99, "{}: Δ=T not saturated", p.name);
    }
}

#[test]
fn sampled_and_exact_gamma_agree_on_dense_streams() {
    let stream =
        TimeUniform { nodes: 40, links_per_pair: 10, span: 20_000, seed: 3 }.generate();
    let run = |targets| {
        OccupancyMethod::new()
            .grid(SweepGrid::Geometric { points: 16 })
            .targets(targets)
            .threads(2)
            .run(&stream)
            .gamma()
            .unwrap()
            .delta_ticks
    };
    let exact = run(TargetSpec::All);
    let sampled = run(TargetSpec::Sample { size: 10, seed: 9 });
    let ratio = exact.max(sampled) / exact.min(sampled);
    assert!(ratio < 3.0, "sampled γ {sampled} too far from exact {exact}");
}
