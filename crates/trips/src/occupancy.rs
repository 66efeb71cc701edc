//! Occupancy-rate distributions of minimal trips (Definition 7).
//!
//! The occupancy rate of a minimal trip is `hops/duration` where the duration
//! is counted in steps (`arr - dep + 1` for a graph series): the proportion
//! of time steps the trip spends hopping rather than waiting. Rates are exact
//! rationals; the histogram therefore keys on the reduced `(hops, duration)`
//! pair so no two distinct rates are ever merged by floating-point rounding.
//!
//! The trip sink counts trips on the *unreduced* `(hops, duration)` pair —
//! no division per trip — and reduces each distinct pair once, when the tile
//! finishes. Minimal trips are far more numerous than their distinct pairs
//! (tens of millions of trips on a few million pairs), so the `gcd` leaves
//! the per-trip path.

use crate::{earliest_arrival_dp_in, DpOptions, EngineArena, TargetSet, Timeline, TripSink};
use rustc_hash::FxHashMap;

/// Exact histogram of minimal-trip occupancy rates.
///
/// Stored as one vector sorted by the reduced `(hops, duration)` key, so
/// [`merge_all`](Self::merge_all) merges sorted runs, [`mean`](Self::mean)
/// sums in key order without sorting, [`fraction_at_one`](Self::fraction_at_one)
/// is a binary search, and the heap size is exact.
#[derive(Clone, Debug, Default)]
pub struct OccupancyHistogram {
    /// `(hops, duration, multiplicity)` with `hops/duration` in lowest
    /// terms, strictly increasing in `(hops, duration)`.
    rates: Vec<(u32, u32, u64)>,
    total: u64,
}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl OccupancyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of recorded trips.
    pub fn total_trips(&self) -> u64 {
        self.total
    }

    /// Whether no trip was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of distinct occupancy rates.
    pub fn distinct_rates(&self) -> usize {
        self.rates.len()
    }

    /// Heap bytes held by the histogram (its vector's capacity).
    pub fn heap_bytes(&self) -> usize {
        self.rates.capacity() * std::mem::size_of::<(u32, u32, u64)>()
    }

    /// The rates and their multiplicities, sorted by increasing rate.
    /// Every rate lies in `(0, 1]` (Remark 2 of the paper).
    pub fn sorted_rates(&self) -> Vec<(f64, u64)> {
        let mut entries = self.rates.clone();
        // exact rational comparison: h1/d1 < h2/d2  <=>  h1*d2 < h2*d1
        entries.sort_unstable_by(|&(h1, d1, _), &(h2, d2, _)| {
            (h1 as u64 * d2 as u64).cmp(&(h2 as u64 * d1 as u64))
        });
        entries.into_iter().map(|(h, d, c)| (h as f64 / d as f64, c)).collect()
    }

    /// Mean occupancy rate.
    ///
    /// Summation runs in stored `(hops, duration)` key order, which depends
    /// only on the histogram's contents: a tiled sweep's merged histogram
    /// sums exactly like an untiled run's, so reports stay bit-identical
    /// across tilings.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let s: f64 = self.rates.iter().map(|&(h, d, c)| c as f64 * h as f64 / d as f64).sum();
        s / self.total as f64
    }

    /// Fraction of trips with occupancy rate exactly 1 (fully saturated
    /// trips — the mass that grows past the saturation scale).
    pub fn fraction_at_one(&self) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let at_one = match self.rates.binary_search_by_key(&(1, 1), |&(h, d, _)| (h, d)) {
            Ok(i) => self.rates[i].2,
            Err(_) => 0,
        };
        at_one as f64 / self.total as f64
    }

    /// Merges histograms, such as the tiles of one scale, into one. The
    /// result does not depend on their order.
    pub fn merge_all(hists: impl IntoIterator<Item = OccupancyHistogram>) -> Self {
        let mut hists: Vec<OccupancyHistogram> = hists.into_iter().collect();
        if hists.len() == 1 {
            return hists.pop().expect("one histogram");
        }
        let mut rates = Vec::with_capacity(hists.iter().map(|h| h.rates.len()).sum());
        for hist in hists {
            rates.extend_from_slice(&hist.rates);
        }
        // one k-way pass: the stable sort merges the concatenated sorted runs
        rates.sort_by_key(|&(h, d, _)| (h, d));
        Self::coalesced(rates)
    }

    /// The histogram of `rates` sorted by key, summing the multiplicities
    /// of equal keys.
    fn coalesced(mut rates: Vec<(u32, u32, u64)>) -> Self {
        rates.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
        rates.shrink_to_fit();
        let total = rates.iter().map(|&(_, _, c)| c).sum();
        OccupancyHistogram { rates, total }
    }
}

/// The [`TripSink`] that builds an [`OccupancyHistogram`]: hand it to
/// [`earliest_arrival_dp_in`] (any column range, any token), then
/// [`finish`](Self::finish) it. Counts trips on unreduced
/// `(hops, duration)` keys. If the run's token fired, the partial sink
/// must be discarded.
#[derive(Default)]
pub struct HistogramSink(FxHashMap<(u32, u32), u64>);

impl TripSink for HistogramSink {
    // inlinable into the engine loop monomorphized in the caller's crate
    #[inline]
    fn minimal_trip(&mut self, _u: u32, _v: u32, dep: u32, arr: u32, hops: u32) {
        *self.0.entry((hops, arr - dep + 1)).or_insert(0) += 1;
    }
}

impl HistogramSink {
    /// The histogram of the trips counted: reduces each distinct pair once,
    /// sorts by reduced key and coalesces the pairs that reduce to the same
    /// rate.
    pub fn finish(self) -> OccupancyHistogram {
        let mut rates: Vec<(u32, u32, u64)> = self
            .0
            .into_iter()
            .map(|((hops, duration), c)| {
                debug_assert!(hops >= 1 && duration >= hops, "0 < hops <= duration violated");
                let g = gcd(hops, duration).max(1);
                (hops / g, duration / g, c)
            })
            .collect();
        rates.sort_unstable_by_key(|&(h, d, _)| (h, d));
        OccupancyHistogram::coalesced(rates)
    }
}

/// The occupancy-rate histogram of all minimal trips of `timeline` (for the
/// series `G_Δ` with `Δ = T/k`, `Timeline::aggregated(stream, k)`), for
/// destinations in `targets`.
pub fn occupancy_histogram_on(timeline: &Timeline, targets: &TargetSet) -> OccupancyHistogram {
    occupancy_histogram_tile_in(&mut EngineArena::new(), timeline, targets, 0, targets.len())
}

/// The histogram of one *target tile* — minimal trips toward destinations
/// `col_start .. col_start + col_len` of `targets` only (see
/// [`DpOptions::cols`]) — reusing a caller-owned [`EngineArena`]. Tiles
/// partition the trips of the untiled run exactly, so
/// [`OccupancyHistogram::merge_all`]-ing the tiles of a
/// [`TargetSet::tile_ranges`] cover reproduces [`occupancy_histogram_on`].
pub fn occupancy_histogram_tile_in(
    arena: &mut EngineArena,
    timeline: &Timeline,
    targets: &TargetSet,
    col_start: u32,
    col_len: usize,
) -> OccupancyHistogram {
    let mut sink = HistogramSink::default();
    let cols = Some((col_start, col_len as u32));
    earliest_arrival_dp_in(
        arena,
        timeline,
        targets,
        &mut sink,
        DpOptions { cols, ..Default::default() },
    );
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{io, Directedness};
    use std::collections::BTreeMap;

    /// The histogram of one tile holding the given `(hops, duration)` trips,
    /// counted through the trip sink.
    fn tile(trips: &[(u32, u32)]) -> OccupancyHistogram {
        let mut sink = HistogramSink::default();
        for &(hops, duration) in trips {
            sink.minimal_trip(0, 1, 0, duration - 1, hops);
        }
        sink.finish()
    }

    #[test]
    fn rates_are_reduced_and_sorted() {
        let h = tile(&[(1, 2), (2, 4), (1, 1), (1, 3)]); // 2/4 is the rate 1/2
        assert_eq!(h.total_trips(), 4);
        assert_eq!(h.distinct_rates(), 3);
        let rates = h.sorted_rates();
        assert_eq!(rates[0], (1.0 / 3.0, 1));
        assert_eq!(rates[1], (0.5, 2));
        assert_eq!(rates[2], (1.0, 1));
        assert!((h.fraction_at_one() - 0.25).abs() < 1e-12);
        assert!((h.mean() - (1.0 / 3.0 + 0.5 + 0.5 + 1.0) / 4.0).abs() < 1e-12);
        assert_eq!(h.heap_bytes(), 3 * 16, "finished tiles hold no spare capacity");
    }

    #[test]
    fn total_aggregation_all_rates_one() {
        // With K = 1 every minimal trip is a single link: occupancy 1
        // (Section 4: "when the aggregation period reaches its maximum
        // value... their occupation rate is 1").
        let s = io::read_str("a b 0\nb c 5\nc d 9\n", Directedness::Undirected).unwrap();
        let h = occupancy_histogram_on(&Timeline::aggregated(&s, 1), &TargetSet::all(4));
        assert!(h.total_trips() > 0);
        assert_eq!(h.fraction_at_one(), 1.0);
    }

    #[test]
    fn fine_aggregation_has_low_rates() {
        // Chain spread over a long period: at fine scales trips wait a lot.
        let s = io::read_str("a b 0\nb c 50\nc d 100\n", Directedness::Undirected).unwrap();
        let h = occupancy_histogram_on(&Timeline::aggregated(&s, 100), &TargetSet::all(4));
        // a->d trip: 3 hops over 100 steps => rate ~0.03 exists
        let min_rate = h.sorted_rates().first().unwrap().0;
        assert!(min_rate < 0.1, "min rate {min_rate}");
    }

    #[test]
    fn merge_adds_counts() {
        let a = OccupancyHistogram::merge_all([tile(&[(1, 2)]), tile(&[(2, 4), (1, 1)])]);
        assert_eq!(a.total_trips(), 3);
        assert_eq!(a.sorted_rates(), vec![(0.5, 2), (1.0, 1)]);
        assert_eq!(a.heap_bytes(), 2 * 16);
    }

    #[test]
    fn empty_histogram_statistics() {
        let h = OccupancyHistogram::new();
        assert!(h.is_empty());
        assert!(h.mean().is_nan());
        assert!(h.fraction_at_one().is_nan());
        assert!(h.sorted_rates().is_empty());
        assert_eq!(tile(&[]).heap_bytes(), 0);
    }

    /// SplitMix64: a seeded generator for the differential test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One random `(hops, duration)` trip, drawn so that equal rates arise
    /// from different pairs, `hops == duration` is common, and durations
    /// reach `u32::MAX - 1`.
    fn random_trip(rng: &mut Rng) -> (u32, u32) {
        const MAX_DURATION: u32 = u32::MAX - 1;
        match rng.below(5) {
            0 => {
                let hops = 1 + rng.below(8) as u32;
                (hops, hops + rng.below(12) as u32)
            }
            1 => {
                let (h, d) =
                    [(1, 2), (2, 4), (7, 14), (1, 3), (3, 9), (2, 3)][rng.below(6) as usize];
                let m = 1 + rng.below(20) as u32;
                (h * m, d * m)
            }
            2 => {
                let d = 1 + rng.below(40) as u32;
                (d, d)
            }
            3 => {
                let duration = MAX_DURATION - rng.below(3) as u32;
                let hops = match rng.below(3) {
                    0 => duration,
                    1 => duration / 2,
                    _ => 1 + rng.below(1000) as u32,
                };
                (hops, duration)
            }
            _ => {
                let duration = 1 + rng.below(1 << 20) as u32;
                (1 + rng.below(duration as u64) as u32, duration)
            }
        }
    }

    /// Tiles `trips` into `tiles` random parts, finishes each through the
    /// sink and merges them, listed in ascending tile order.
    fn tiled(trips: &[(u32, u32)], tiles: usize, rng: &mut Rng) -> OccupancyHistogram {
        let mut parts = vec![Vec::new(); tiles];
        for &trip in trips {
            parts[rng.below(tiles as u64) as usize].push(trip);
        }
        OccupancyHistogram::merge_all(parts.iter().map(|part| tile(part)))
    }

    #[test]
    fn tiled_histograms_match_a_reduced_key_oracle() {
        fn reduce(h: u64, d: u64) -> (u32, u32) {
            let (mut a, mut b) = (h, d);
            while b != 0 {
                (a, b) = (b, a % b);
            }
            ((h / a) as u32, (d / a) as u32)
        }
        for seed in 0..200 {
            let mut rng = Rng(seed);
            let trips: Vec<(u32, u32)> =
                (0..rng.below(400)).map(|_| random_trip(&mut rng)).collect();
            let mut oracle: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for &(h, d) in &trips {
                *oracle.entry(reduce(h as u64, d as u64)).or_insert(0) += 1;
            }
            let total = trips.len() as u64;
            let mut by_rate: Vec<((u32, u32), u64)> =
                oracle.iter().map(|(&k, &c)| (k, c)).collect();
            by_rate.sort_by(|&((h1, d1), _), &((h2, d2), _)| {
                (h1 as u128 * d2 as u128).cmp(&(h2 as u128 * d1 as u128))
            });
            let expected_rates: Vec<(f64, u64)> =
                by_rate.iter().map(|&((h, d), c)| (h as f64 / d as f64, c)).collect();
            let sum: f64 =
                oracle.iter().map(|(&(h, d), &c)| c as f64 * h as f64 / d as f64).sum();
            let at_one = oracle.get(&(1, 1)).copied().unwrap_or(0);

            let first = tiled(&trips, 1 + rng.below(5) as usize, &mut rng);
            let again = tiled(&trips, 1 + rng.below(5) as usize, &mut rng);
            assert_eq!(first.rates, again.rates, "seed {seed}: result depends on the tiling");
            assert_eq!(first.total_trips(), total, "seed {seed}");
            assert_eq!(first.distinct_rates(), oracle.len(), "seed {seed}");
            assert_eq!(first.sorted_rates(), expected_rates, "seed {seed}");
            if total == 0 {
                assert!(first.mean().is_nan() && first.fraction_at_one().is_nan());
                continue;
            }
            assert_eq!(first.mean().to_bits(), (sum / total as f64).to_bits(), "seed {seed}");
            assert_eq!(first.fraction_at_one(), at_one as f64 / total as f64, "seed {seed}");
        }
    }
}
