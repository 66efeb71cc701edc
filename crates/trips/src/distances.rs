//! Mean temporal distances of an aggregated series (Figure 2, bottom row).
//!
//! For every ordered pair `(u, v)` and every departure step `t` with a finite
//! distance, the paper considers:
//!
//! * `d_time(u, v, t) = t_arr - t + 1` — distance in time, in steps;
//! * `d_hops(u, v, t)` — minimum hops among paths realizing `d_time`;
//! * `d_abstime(u, v, t) = Δ · d_time(u, v, t)` — distance in absolute time,
//!   which cancels the `1/Δ` dependence of `d_time`.
//!
//! The sums over **all** departure steps are accumulated inside the DP in
//! `O(1)` per table update (arithmetic series between change points), so the
//! cost stays `O(nM)` even when the series has millions of windows.

use crate::{
    dp::NullSink, earliest_arrival_dp_in, DpOptions, EngineArena, TargetSet, Timeline,
};
use saturn_linkstream::LinkStream;
use serde::Serialize;

/// Mean temporal distances of `G_Δ` at one scale.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct DistanceMeans {
    /// Number of windows `K`.
    pub k: u64,
    /// Window length `Δ` in ticks.
    pub delta_ticks: f64,
    /// Mean `d_time` in steps, over all finite `(u, v, t)` triples.
    pub mean_dtime_steps: f64,
    /// Mean `d_abstime` in ticks (`Δ ·` mean `d_time`).
    pub mean_dabstime_ticks: f64,
    /// Mean `d_hops` over the same triples.
    pub mean_dhops: f64,
    /// Number of finite `(u, v, t)` triples.
    pub finite_triples: u128,
}

/// Computes the mean distances of the series `G_Δ` with `Δ = T/k`, over
/// destinations in `targets`.
pub fn distance_means(stream: &LinkStream, k: u64, targets: &TargetSet) -> DistanceMeans {
    let timeline = Timeline::aggregated(stream, k);
    distance_means_on(&timeline, stream.span(), k, targets)
}

/// Same as [`distance_means`], for an already-built aggregated timeline —
/// sweeps build the timeline once per scale from a shared
/// [`crate::EventView`] and pass it here. `span` is the stream's study
/// period length in ticks.
pub fn distance_means_on(
    timeline: &Timeline,
    span: i64,
    k: u64,
    targets: &TargetSet,
) -> DistanceMeans {
    let stats = earliest_arrival_dp_in(
        &mut EngineArena::new(),
        timeline,
        targets,
        &mut NullSink,
        DpOptions { collect_distances: true, ..Default::default() },
    );
    let sums = stats.distances.expect("collect_distances was set");
    let delta = span as f64 / k as f64;
    let cnt = sums.finite_triples.max(1) as f64;
    let mean_dtime = sums.sum_dtime_steps as f64 / cnt;
    DistanceMeans {
        k,
        delta_ticks: delta,
        mean_dtime_steps: mean_dtime,
        mean_dabstime_ticks: mean_dtime * delta,
        mean_dhops: sums.sum_dhops as f64 / cnt,
        finite_triples: sums.finite_triples as u128,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{io, Directedness};

    #[test]
    fn matches_hand_computation() {
        // Same example as the dp module's distance test: K = 2.
        let s = io::read_str("a b 0\nb c 10\n", Directedness::Undirected).unwrap();
        let d = distance_means(&s, 2, &TargetSet::all(3));
        assert_eq!(d.finite_triples, 7);
        assert!((d.mean_dtime_steps - 10.0 / 7.0).abs() < 1e-12);
        assert!((d.mean_dhops - 8.0 / 7.0).abs() < 1e-12);
        assert!((d.delta_ticks - 5.0).abs() < 1e-12);
        assert!((d.mean_dabstime_ticks - 5.0 * 10.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn total_aggregation_every_reachable_pair_at_distance_one() {
        let s = io::read_str("a b 0\nb c 10\n", Directedness::Undirected).unwrap();
        let d = distance_means(&s, 1, &TargetSet::all(3));
        // single window: pairs (a,b),(b,a),(b,c),(c,b) reachable with d=1;
        // a->c impossible (one window, Remark 1)
        assert_eq!(d.finite_triples, 4);
        assert!((d.mean_dtime_steps - 1.0).abs() < 1e-12);
        assert!((d.mean_dhops - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dhops_decreases_with_aggregation() {
        // a chain: at fine scales reaching the far node takes many hops; at
        // K=1... the chain is not traversable at K=1, but mean hops over
        // reachable pairs still drops.
        let text = "a b 0\nb c 10\nc d 20\nd e 30\n";
        let s = io::read_str(text, Directedness::Undirected).unwrap();
        let fine = distance_means(&s, 30, &TargetSet::all(5));
        let coarse = distance_means(&s, 2, &TargetSet::all(5));
        assert!(coarse.mean_dhops <= fine.mean_dhops);
        // and d_time in steps shrinks roughly like 1/Δ
        assert!(coarse.mean_dtime_steps < fine.mean_dtime_steps);
    }
}
