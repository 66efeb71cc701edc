//! Figure 7 — comparison of the selection methods of Section 7 on the Irvine
//! stand-in: the Δ each method selects, the ICD of each selected
//! distribution (left panel), and the normalized score curves (right panel).
//!
//! The paper's findings to reproduce: M-K, standard deviation, Shannon(10)
//! and CRE select nearly the same scale (14.5 h – 18.7 h on the real trace);
//! the variation coefficient degenerates to (almost) no aggregation; Shannon
//! is sensitive to its slot count, drifting fine-ward as slots increase.

use saturn_bench::{dataset, downsample, grid_points, write_series, HOUR};
use saturn_core::{compare_selection_methods, KeepPolicy, SweepGrid, TargetSpec};
use saturn_distrib::{SelectionMetric, WeightedDist};
use saturn_synth::DatasetProfile;
use saturn_trips::{occupancy_histogram_on, TargetSet, Timeline};

fn main() {
    let profile = dataset(DatasetProfile::irvine());
    println!("Figure 7 — selection-method comparison ({} stand-in)\n", profile.name);
    let stream = profile.generate(1);
    let cmp = compare_selection_methods(
        &stream,
        SweepGrid::Geometric { points: grid_points(40) },
        TargetSpec::All,
        0,
        KeepPolicy::ScoresOnly,
    );

    println!("{:>32} {:>12}", "method", "selected Δ (h)");
    let mut summary = Vec::new();
    for (metric, gamma) in &cmp.gammas {
        let delta_h = gamma.map(|g| g.delta_ticks / HOUR);
        println!(
            "{:>32} {:>12}",
            metric.to_string(),
            delta_h.map_or("—".into(), |d| format!("{d:.2}"))
        );
        if let Some(d) = delta_h {
            summary.push(format!("{metric}: {d:.2}h"));
        }

        // right panel: normalized curves
        let curve: Vec<(f64, f64)> =
            cmp.normalized_curve(*metric).into_iter().map(|(d, s)| (d / HOUR, s)).collect();
        if !curve.is_empty() {
            let slug = metric.to_string().replace([' ', '(', ')', '-'], "_").to_lowercase();
            write_series(&format!("fig7_curve_{slug}.dat"), "delta_h normalized_score", &curve);
        }

        // left panel: ICD of the selected distribution (recomputed for just
        // this scale; keeping every sweep distribution would hold millions
        // of rates per fine scale in memory)
        if let Some(g) = gamma {
            let hist = occupancy_histogram_on(
                &Timeline::aggregated(&stream, g.k),
                &TargetSet::all(stream.node_count() as u32),
            );
            let dist = WeightedDist::from_pairs(hist.sorted_rates());
            let slug = metric.to_string().replace([' ', '(', ')', '-'], "_").to_lowercase();
            write_series(
                &format!("fig7_icd_{slug}.dat"),
                &format!("ICD selected by {metric} at Δ = {:.2} h", g.delta_ticks / HOUR),
                &downsample(&dist.icd_points(), 2_000),
            );
        }
    }

    // Quantified claims.
    let delta = |m: SelectionMetric| {
        cmp.gammas
            .iter()
            .find(|(mm, _)| *mm == m)
            .and_then(|(_, g)| *g)
            .map(|g| g.delta_ticks)
            .expect("selected")
    };
    let mk = delta(SelectionMetric::MkProximity);
    let sd = delta(SelectionMetric::StdDev);
    let sh10 = delta(SelectionMetric::ShannonEntropy { slots: 10 });
    let cre = delta(SelectionMetric::Cre);
    let cv = delta(SelectionMetric::VariationCoefficient);
    let sh100 = delta(SelectionMetric::ShannonEntropy { slots: 100 });

    let close = |a: f64, b: f64| a.max(b) / a.min(b) <= 4.0;
    println!(
        "\nM-K ≈ std-dev ≈ Shannon(10) ≈ CRE: {}",
        close(mk, sd) && close(mk, sh10) && close(mk, cre)
    );
    println!("variation coefficient degenerates fine-ward: {}", cv <= mk);
    println!("Shannon(100) selects a finer scale than Shannon(10): {}", sh100 <= sh10);

    assert!(close(mk, sd) && close(mk, sh10) && close(mk, cre), "reasonable methods disagree");
    assert!(cv <= mk, "cv should select a (much) finer scale");

    saturn_bench::append_summary(
        "Figure 7 (selection methods, Irvine stand-in)",
        &summary.join("; "),
    );
}
