//! Correctness gates. They run outside the timed path; every failed gate or
//! mismatched response counts as one failed operation.

use crate::client::Response;
use saturn_core::fingerprint::{hex, Digest};
use saturn_core::{OccupancyReport, UniformityScores};
use saturn_distrib::WeightedDist;
use saturn_linkstream::LinkStream;
use saturn_trips::{occupancy_histogram_on, TargetSet, Timeline};

/// Operations attempted and failed in one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A response is correct only with status `status` and exactly the
/// `expected` bytes.
pub fn response_ok(response: &Response, status: u16, expected: &[u8]) -> bool {
    response.status == status && response.body == expected
}

/// Digest of a report's JSON bytes.
pub fn report_digest(json: &str) -> String {
    let mut d = Digest::new("perfbench.report.v1");
    d.write_str(json);
    hex(d.finish())
}

/// Digest over a workload's report digests, in corpus order.
pub fn corpus_digest(report_digests: &[String]) -> String {
    let mut d = Digest::new("perfbench.corpus.v1");
    for digest in report_digests {
        d.write_str(digest);
    }
    hex(d.finish())
}

/// Corpus digests of the sweep workloads at [`crate::inputs::DEFAULT_SEED`].
/// A change that moves report bytes must update these on purpose.
pub const PINNED: &[(&str, &str)] = &[
    ("sweep_dense", "b854420b81ce2571449ca091cf18a66f"),
    ("sweep_sparse", "6a6fcc473c8571157c7f442798961f50"),
];

pub fn pinned(workload: &str) -> Option<&'static str> {
    PINNED.iter().find(|(name, _)| *name == workload).map(|&(_, digest)| digest)
}

/// Recomputes the finest, the selected (γ) and the coarsest scale of
/// `report` through the trips and distrib layers directly, and checks the
/// report's trip count, distinct-rate count and M-K proximity at each.
pub fn spot_check(stream: &LinkStream, report: &OccupancyReport) -> bool {
    let rows = report.results();
    let (Some(first), Some(last), Some(gamma)) = (rows.first(), rows.last(), report.gamma())
    else {
        return false;
    };
    let targets = TargetSet::all(stream.node_count() as u32);
    [first.k, gamma.k, last.k].iter().all(|&k| {
        let Some(row) = rows.iter().find(|r| r.k == k) else { return false };
        let hist = occupancy_histogram_on(&Timeline::aggregated(stream, k), &targets);
        let scores = UniformityScores::of(&WeightedDist::from_pairs(hist.sorted_rates()));
        hist.total_trips() == row.trips
            && hist.distinct_rates() == row.distinct_rates
            && scores.mk_proximity.to_bits() == row.scores.mk_proximity.to_bits()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mutated_body_counts_as_a_failure() {
        let expected = b"{\"results\": [1, 2]}".to_vec();
        let mut tally = Tally::default();
        let good = Response { status: 200, body: expected.clone() };
        tally.record(response_ok(&good, 200, &expected));
        let mut mutated = good.clone();
        mutated.body[12] = b'9';
        tally.record(response_ok(&mutated, 200, &expected));
        let truncated = Response { status: 200, body: expected[..5].to_vec() };
        tally.record(response_ok(&truncated, 200, &expected));
        let refused = Response { status: 503, body: expected.clone() };
        tally.record(response_ok(&refused, 200, &expected));
        assert_eq!(tally, Tally { attempted: 4, failed: 3 });
    }

    #[test]
    fn digests_separate_reports_and_corpora() {
        let (a, b) = (report_digest("{\"k\":1}"), report_digest("{\"k\":2}"));
        assert_ne!(a, b);
        assert_ne!(corpus_digest(&[a.clone(), b.clone()]), corpus_digest(&[b, a]));
    }

    #[test]
    fn spot_check_accepts_the_method_and_rejects_a_tampered_report() {
        use saturn_core::{OccupancyMethod, SweepGrid};
        let text = crate::inputs::stand_in(&saturn_synth::DatasetProfile::irvine(), 0.02, 3);
        let stream = crate::layers::parse(&text);
        let method = OccupancyMethod::new().grid(SweepGrid::Geometric { points: 8 }).threads(1);
        let report = method.run(&stream);
        assert!(spot_check(&stream, &report));
        let other = crate::layers::parse(&crate::inputs::stand_in(
            &saturn_synth::DatasetProfile::irvine(),
            0.02,
            4,
        ));
        assert!(!spot_check(&other, &report));
    }
}
