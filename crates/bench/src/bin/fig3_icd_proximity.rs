//! Figure 3 — the occupancy method on the Irvine stand-in:
//! (left) inverse cumulative distributions of the occupancy rates for
//! several Δ across the whole range; (right) M-K proximity vs Δ with its
//! maximum at the saturation scale γ.
//!
//! The sweep runs scores-only; the full distributions (which hold millions
//! of distinct rates at fine scales) are recomputed for just the displayed
//! scales and downsampled for plotting.

use saturn_bench::{ascii_curve, dataset, downsample, grid_points, write_series, HOUR};
use saturn_core::{OccupancyMethod, SweepGrid};
use saturn_distrib::WeightedDist;
use saturn_synth::DatasetProfile;
use saturn_trips::{occupancy_histogram_on, TargetSet, Timeline};

fn main() {
    let profile = dataset(DatasetProfile::irvine());
    println!("Figure 3 — occupancy ICDs and M-K proximity ({} stand-in)", profile.name);
    let stream = profile.generate(1);

    let report = OccupancyMethod::new()
        .grid(SweepGrid::Geometric { points: grid_points(48) })
        .run(&stream);
    let gamma = report.gamma().expect("non-degenerate stream");

    // Left panel: ICDs for ~8 scales spanning the range plus the selected one.
    let n = report.results().len();
    let mut picks: Vec<usize> = (0..8).map(|i| i * (n - 1) / 7).collect();
    if let Some(gpos) = report.results().iter().position(|r| r.k == gamma.k) {
        picks.push(gpos);
    }
    picks.sort_unstable();
    picks.dedup();
    let targets = TargetSet::all(stream.node_count() as u32);
    for &i in &picks {
        let r = &report.results()[i];
        let hist = occupancy_histogram_on(&Timeline::aggregated(&stream, r.k), &targets);
        let dist = WeightedDist::from_pairs(hist.sorted_rates());
        let icd = downsample(&dist.icd_points(), 2_000);
        let tag = if r.k == gamma.k { "_gamma" } else { "" };
        write_series(
            &format!("fig3_icd_delta_{:.0}s{tag}.dat", r.delta_ticks),
            &format!("occupancy_rate P(X>=x) at Δ = {:.1} h", r.delta_ticks / HOUR),
            &icd,
        );
    }

    // Right panel: the M-K proximity curve.
    let curve: Vec<(f64, f64)> =
        report.score_curve().iter().map(|&(d, s)| (d / HOUR, s)).collect();
    write_series("fig3_mk_proximity.dat", "delta_h mk_proximity", &curve);

    println!("\nM-K proximity vs Δ (h):\n{}", ascii_curve(&curve, 18));
    println!(
        "γ = {:.1} h (paper reports {:.0} h on the real Irvine trace)",
        gamma.delta_ticks / HOUR,
        profile.paper_gamma_hours
    );

    // Qualitative checks of Section 4: the distribution stretches then
    // re-concentrates at 1.
    let first = report.results().first().unwrap();
    let last = report.results().last().unwrap();
    assert!(first.mean_rate < 0.5, "fine scales concentrate near 0");
    assert!(last.fraction_at_one > 0.99, "Δ = T concentrates at 1");
    assert!(
        gamma.score >= first.scores.mk_proximity && gamma.score >= last.scores.mk_proximity
    );

    saturn_bench::append_summary(
        "Figure 3 (Irvine stand-in)",
        &format!(
            "γ = {:.1} h (paper: {:.0} h on the real trace); proximity unimodal: \
             {:.4} (fine) -> {:.4} (γ) -> {:.4} (Δ=T)",
            gamma.delta_ticks / HOUR,
            profile.paper_gamma_hours,
            first.scores.mk_proximity,
            gamma.score,
            last.scores.mk_proximity
        ),
    );
}
