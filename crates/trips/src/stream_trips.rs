//! Minimal trips of the raw link stream `L`.
//!
//! Running the earliest-arrival DP on the *exact* timeline (one step per
//! distinct timestamp) yields the minimal trips of the original stream. They
//! serve two purposes in Section 8 of the paper: the two-hop ones are the
//! *shortest transitions* (loss measure, Figure 8 left), and the per-pair
//! trip lists are the reference against which aggregated trips are compared
//! by the *elongation factor* (Figure 8 right).

use crate::{
    earliest_arrival_dp_in, DpOptions, EngineArena, ShortestTransitions, TargetSet, Timeline,
    TripSink,
};
use saturn_linkstream::LinkStream;
use std::collections::{HashMap, HashSet};

/// The minimal trips of one ordered pair, as `(departure tick, arrival
/// tick)`, ascending in both components (minimal trips of a pair are nested
/// like a staircase: an earlier departure always has a strictly earlier
/// arrival).
pub type PairTrips = Vec<(i64, i64)>;

/// All minimal trips of a link stream, grouped by ordered pair, plus the
/// shortest transitions.
#[derive(Clone, Debug, Default)]
pub struct StreamTrips {
    per_pair: HashMap<(u32, u32), PairTrips>,
    /// The two-hop minimal trips, weighted by their number of middle nodes.
    pub transitions: ShortestTransitions,
    total: u64,
}

impl StreamTrips {
    /// The minimal trips of pair `(u, v)`, if any.
    pub fn pair(&self, u: u32, v: u32) -> Option<&[(i64, i64)]> {
        self.per_pair.get(&(u, v)).map(|v| v.as_slice())
    }

    /// Total number of minimal trips.
    pub fn total_trips(&self) -> u64 {
        self.total
    }

    /// Number of ordered pairs with at least one trip.
    pub fn pair_count(&self) -> usize {
        self.per_pair.len()
    }

    /// Iterates over `((u, v), trips)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&(u32, u32), &PairTrips)> {
        self.per_pair.iter()
    }
}

struct StreamSink<'a> {
    timeline: &'a Timeline,
    trips: StreamTrips,
    /// Raw two-hop trips pending multiplicity resolution:
    /// `(u, v, t1, t2)`.
    two_hop: Vec<(u32, u32, i64, i64)>,
}

impl TripSink for StreamSink<'_> {
    fn minimal_trip(&mut self, u: u32, v: u32, dep: u32, arr: u32, hops: u32) {
        let t1 = self.timeline.tick_of(dep).expect("exact timeline");
        let t2 = self.timeline.tick_of(arr).expect("exact timeline");
        self.trips.per_pair.entry((u, v)).or_default().push((t1, t2));
        self.trips.total += 1;
        if hops == 2 {
            self.two_hop.push((u, v, t1, t2));
        }
    }
}

/// Computes all minimal trips of `stream` toward destinations in `targets`.
///
/// When `weighted_transitions` is set, each two-hop minimal trip is counted
/// with its exact number of distinct middle nodes (the multiset of shortest
/// transitions of Definition 6); otherwise each two-hop trip counts once,
/// which only rescales the loss curve.
pub fn stream_minimal_trips(
    stream: &LinkStream,
    targets: &TargetSet,
    weighted_transitions: bool,
) -> StreamTrips {
    let timeline = Timeline::exact(stream);
    let mut sink =
        StreamSink { timeline: &timeline, trips: StreamTrips::default(), two_hop: Vec::new() };
    earliest_arrival_dp_in(
        &mut EngineArena::new(),
        &timeline,
        targets,
        &mut sink,
        DpOptions::default(),
    );

    let StreamSink { trips: mut out, two_hop, .. } = sink;

    // The DP visits steps in descending order, so per-pair lists arrived in
    // descending departure order; flip them to ascending for binary search.
    for trips in out.per_pair.values_mut() {
        trips.reverse();
        debug_assert!(trips.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
    }

    // Resolve transition multiplicities.
    if weighted_transitions && !two_hop.is_empty() {
        // successor lists per (node, instant) and membership set
        let mut succ: HashMap<(u32, i64), Vec<u32>> = HashMap::new();
        let mut member: HashSet<(u32, u32, i64)> = HashSet::new();
        for l in stream.events() {
            let (u, v, t) = (l.u.raw(), l.v.raw(), l.t.ticks());
            succ.entry((u, t)).or_default().push(v);
            member.insert((u, v, t));
            if !stream.is_directed() {
                succ.entry((v, t)).or_default().push(u);
                member.insert((v, u, t));
            }
        }
        for (u, v, t1, t2) in two_hop {
            let mut weight = 0u64;
            if let Some(mids) = succ.get(&(u, t1)) {
                for &b in mids {
                    if b != v && member.contains(&(b, v, t2)) {
                        weight += 1;
                    }
                }
            }
            debug_assert!(weight >= 1, "a 2-hop minimal trip must have a middle node");
            out.transitions.push(t1, t2, weight.max(1));
        }
    } else {
        for (_, _, t1, t2) in two_hop {
            out.transitions.push(t1, t2, 1);
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use saturn_linkstream::{io, Directedness};

    #[test]
    fn chain_produces_expected_trips() {
        // a-b@1, b-c@5: minimal trips include (a,c,1,5) with 2 hops.
        let s = io::read_str("a b 1\nb c 5\n", Directedness::Undirected).unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), true);
        assert_eq!(trips.pair(0, 2), Some(&[(1i64, 5i64)][..]));
        assert_eq!(trips.transitions.len(), 1);
        assert_eq!(trips.transitions.items[0].weight, 1);
        // single-link trips exist too
        assert_eq!(trips.pair(0, 1), Some(&[(1i64, 1i64)][..]));
        // no c -> a trip
        assert!(trips.pair(2, 0).is_none());
    }

    #[test]
    fn multiplicity_counts_middle_nodes() {
        // two middle nodes b, d: a-b@0, a-d@0, b-c@5, d-c@5
        let s = io::read_str("a b 0\na d 0\nb c 5\nd c 5\n", Directedness::Undirected).unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(4), true);
        let tr: Vec<_> =
            trips.transitions.items.iter().filter(|t| (t.t1, t.t2) == (0, 5)).collect();
        // the (a,c,0,5) trip has weight 2; (b,d)/(d,b) trips via a->? ...
        // check at least the a->c one carries weight 2
        assert!(tr.iter().any(|t| t.weight == 2), "transitions: {tr:?}");
    }

    #[test]
    fn unweighted_mode_counts_once() {
        let s = io::read_str("a b 0\na d 0\nb c 5\nd c 5\n", Directedness::Undirected).unwrap();
        let w = stream_minimal_trips(&s, &TargetSet::all(4), true);
        let u = stream_minimal_trips(&s, &TargetSet::all(4), false);
        assert_eq!(w.transitions.len(), u.transitions.len());
        assert!(w.transitions.total_weight > u.transitions.total_weight);
    }

    #[test]
    fn pair_lists_are_ascending_staircases() {
        let s = io::read_str(
            "a b 0\nb c 2\na b 10\nb c 12\na b 20\nb c 30\n",
            Directedness::Undirected,
        )
        .unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), false);
        let ac = trips.pair(0, 2).unwrap();
        assert!(ac.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        // trips: dep 0 -> arr 2, dep 10 -> arr 12, dep 20 -> arr 30
        assert_eq!(ac, &[(0, 2), (10, 12), (20, 30)]);
    }

    #[test]
    fn same_instant_links_cannot_form_transitions() {
        let s = io::read_str("a b 5\nb c 5\n", Directedness::Undirected).unwrap();
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), true);
        assert!(trips.pair(0, 2).is_none());
        assert!(trips.transitions.is_empty());
    }

    #[test]
    fn directed_transitions_follow_arrows() {
        let s = io::read_str("a b 0\nc b 5\n", Directedness::Directed).unwrap();
        // a->b then b has no outgoing link: no a->? transition; c->b@5 only.
        let trips = stream_minimal_trips(&s, &TargetSet::all(3), true);
        assert!(trips.transitions.is_empty());
        assert!(trips.pair(0, 2).is_none());
    }
}
