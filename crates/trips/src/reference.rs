//! Brute-force reference implementations, by literal application of the
//! paper's definitions.
//!
//! These enumerate every temporal path of a timeline by depth-first search —
//! exponential in the worst case, so they are only suitable for the tiny
//! inputs used in tests and property-based validation of the `O(nM)` engine.

use crate::Timeline;
use std::collections::HashMap;

/// A `(u, v, dep, arr, hops)` record.
pub type TripRecord = (u32, u32, u32, u32, u32);

/// Enumerates every temporal path of `timeline` (Definition 3) and returns,
/// for each realized `(u, v, dep, arr)` quadruple, the minimum hop count.
///
/// # Panics
/// Panics if more than `path_budget` paths are generated, to protect tests
/// from accidental blow-ups.
pub fn all_paths_min_hops(
    timeline: &Timeline,
    path_budget: usize,
) -> HashMap<(u32, u32, u32, u32), u32> {
    // traversals[s] = list of directed (u, w) available at ascending step s
    let steps: Vec<(u32, Vec<(u32, u32)>)> = timeline
        .steps_asc()
        .map(|s| {
            let mut tr: Vec<(u32, u32)> = Vec::new();
            for (u, w) in s.edges() {
                tr.push((u, w));
                if !timeline.is_directed() {
                    tr.push((w, u));
                }
            }
            (s.index, tr)
        })
        .collect();

    let mut best: HashMap<(u32, u32, u32, u32), u32> = HashMap::new();
    let mut generated = 0usize;

    // DFS stack: (start node, current node, dep step, current step, hops)
    struct Frame {
        start: u32,
        node: u32,
        dep: u32,
        arr: u32,
        hops: u32,
        next_step: usize, // index into `steps` to continue from
    }

    let mut stack: Vec<Frame> = Vec::new();
    for (si, (step, traversals)) in steps.iter().enumerate() {
        for &(u, w) in traversals {
            stack.push(Frame {
                start: u,
                node: w,
                dep: *step,
                arr: *step,
                hops: 1,
                next_step: si + 1,
            });
        }
    }

    while let Some(f) = stack.pop() {
        generated += 1;
        assert!(generated <= path_budget, "path budget exceeded: use a smaller input");
        if f.start != f.node {
            let key = (f.start, f.node, f.dep, f.arr);
            let e = best.entry(key).or_insert(f.hops);
            if f.hops < *e {
                *e = f.hops;
            }
        }
        for (si, (step, traversals)) in steps.iter().enumerate().skip(f.next_step) {
            for &(u, w) in traversals {
                if u == f.node {
                    stack.push(Frame {
                        start: f.start,
                        node: w,
                        dep: f.dep,
                        arr: *step,
                        hops: f.hops + 1,
                        next_step: si + 1,
                    });
                }
            }
        }
    }
    best
}

/// Computes all minimal trips of `timeline` by literal application of
/// Definition 5: a `(dep, arr)` interval of a pair is minimal iff no realized
/// interval of the same pair is strictly included in it. Returns sorted
/// `(u, v, dep, arr, min_hops)` records.
pub fn minimal_trips_bruteforce(timeline: &Timeline, path_budget: usize) -> Vec<TripRecord> {
    let realized = all_paths_min_hops(timeline, path_budget);

    // group intervals per pair
    let mut per_pair: HashMap<(u32, u32), Vec<(u32, u32)>> = HashMap::new();
    for &(u, v, dep, arr) in realized.keys() {
        per_pair.entry((u, v)).or_default().push((dep, arr));
    }

    let mut out = Vec::new();
    for ((u, v), intervals) in &per_pair {
        for &(dep, arr) in intervals {
            let strictly_inside = intervals
                .iter()
                .any(|&(d2, a2)| d2 >= dep && a2 <= arr && (d2, a2) != (dep, arr));
            if !strictly_inside {
                // minimum hops among paths departing exactly at dep and
                // arriving exactly at arr
                let hops = realized[&(*u, *v, dep, arr)];
                out.push((*u, *v, dep, arr, hops));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Per-pair earliest-arrival function: `value[t] = Some((arr, hops))` for
/// every departure step `t` with a finite distance.
pub type EaFunction = Vec<Option<(u32, u32)>>;

/// Brute-force earliest arrival: `ea(u, v, t)` = minimum `arr` among realized
/// quadruples with `dep >= t`, plus the hop count of Definition 4's
/// `d_hops`. Returns, for each `(u, v)`, a function sampled at every step:
/// `result[(u,v)][t] = Some((arr, hops))`.
pub fn earliest_arrival_bruteforce(
    timeline: &Timeline,
    path_budget: usize,
) -> HashMap<(u32, u32), EaFunction> {
    let realized = all_paths_min_hops(timeline, path_budget);
    let k = timeline.num_steps() as usize;
    let mut out: HashMap<(u32, u32), EaFunction> = HashMap::new();
    for (&(u, v, dep, arr), &hops) in &realized {
        let entry = out.entry((u, v)).or_insert_with(|| vec![None; k]);
        for slot in entry.iter_mut().take(dep as usize + 1) {
            match *slot {
                None => *slot = Some((arr, hops)),
                Some((a, h)) => {
                    if arr < a || (arr == a && hops < h) {
                        *slot = Some((arr, hops));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{earliest_arrival_dp_in, DpOptions, EngineArena, TargetSet, TripSink};
    use saturn_linkstream::{io, Directedness};

    #[derive(Default)]
    struct Collect(Vec<TripRecord>);
    impl TripSink for Collect {
        fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
            self.0.push((u, v, dep, arr, hops));
        }
    }

    fn check_agreement(text: &str, directedness: Directedness, ks: &[u64]) {
        let s = io::read_str(text, directedness).unwrap();
        for &k in ks {
            let t = Timeline::aggregated(&s, k);
            let brute = minimal_trips_bruteforce(&t, 2_000_000);
            let mut sink = Collect::default();
            earliest_arrival_dp_in(
                &mut EngineArena::new(),
                &t,
                &TargetSet::all(t.n()),
                &mut sink,
                DpOptions::default(),
            );
            let mut fast = sink.0;
            fast.sort_unstable();
            assert_eq!(fast, brute, "k={k} text={text:?}");
        }
    }

    #[test]
    fn engine_matches_bruteforce_on_small_examples() {
        check_agreement("a b 0\nb c 5\nc d 9\n", Directedness::Undirected, &[1, 2, 3, 5, 9]);
        check_agreement("a b 0\nb a 1\na c 2\nc b 3\n", Directedness::Directed, &[1, 2, 3]);
        check_agreement(
            "a b 0\na c 0\nb d 4\nc d 4\nd a 8\n",
            Directedness::Undirected,
            &[1, 2, 4, 8],
        );
    }

    #[test]
    fn figure_one_example() {
        // The link stream of Figure 1 of the paper (5 nodes a..e, 3 windows).
        // Links (reading the figure; times chosen so that K=3 gives the
        // paper's windows): within window 1: (c,d), (b,e); window 2: (a,b),
        // (d,e); window 3: (a,c), (c,d), (d,b).
        let text = "c d 1\nb e 2\na b 4\nd e 5\na c 7\nc d 7\nd b 8\n";
        let s = io::read_str(text, Directedness::Undirected).unwrap();
        // period [1,8], span 7... use explicit K=3 windows of 7/3
        let t = Timeline::aggregated(&s, 3);
        let brute = minimal_trips_bruteforce(&t, 1_000_000);
        let mut sink = Collect::default();
        earliest_arrival_dp_in(
            &mut EngineArena::new(),
            &t,
            &TargetSet::all(5),
            &mut sink,
            DpOptions::default(),
        );
        let mut fast = sink.0;
        fast.sort_unstable();
        assert_eq!(fast, brute);

        // Paper's dark-blue temporal path e->b exists in the series:
        // e-b? e@w0 via (b,e): that IS e->b directly... the figure's path is
        // e -(w1 d,e)- d -(w2 d,b)- b; either way a trip e->b must exist.
        let e = 4u32; // labels: c=0,d=1,b=2,e=3,a=4 by first appearance
        let b = 2u32;
        assert!(
            fast.iter().any(|&(u, v, ..)| (u, v) == (e, b))
                || fast.iter().any(|&(u, v, ..)| (u, v) == (3, 2))
        );
    }

    #[test]
    fn bruteforce_ea_consistent_with_trips() {
        let s = io::read_str("a b 0\nb c 3\na c 9\n", Directedness::Undirected).unwrap();
        let t = Timeline::aggregated(&s, 10);
        let ea = earliest_arrival_bruteforce(&t, 100_000);
        let trips = minimal_trips_bruteforce(&t, 100_000);
        // every trip's (dep, arr) must equal the EA at its departure step
        for (u, v, dep, arr, _) in trips {
            let f = &ea[&(u, v)];
            assert_eq!(f[dep as usize], Some((arr, f[dep as usize].unwrap().1)));
        }
    }
}
