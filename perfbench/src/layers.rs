//! The traced analysis: one trace analyzed with spans around the calls into
//! each layer, then decomposed scale by scale into the sweep's layers.
//!
//! Spans come from the benchmark's own code. The method layer is observed
//! through its public `SweepObserver` hook (one span per `(scale, tile)`);
//! the decomposition calls the lower layers' public entry points directly,
//! one after the other on one thread, over the report's own scale list.

use crate::checks::Tally;
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::Figures;
use saturn_core::parallel::WorkerPool;
use saturn_core::{OccupancyMethod, SweepControl, SweepObserver, TileSpan, UniformityScores};
use saturn_distrib::WeightedDist;
use saturn_linkstream::{io, Directedness, LinkStream};
use saturn_trips::dp::NullSink;
use saturn_trips::{
    earliest_arrival_dp_in, occupancy_histogram_tile_in, DpOptions, EngineArena, EventView,
    TargetSet, Timeline,
};
use std::sync::Arc;
use std::time::Instant;

/// Untraced analyses timed before the traced one, as its reference.
const REFERENCE_RUNS: usize = 2;

/// parse → run → to_json: the analysis a caller waits for.
pub fn analyze(text: &str, method: &OccupancyMethod, pool: &mut WorkerPool) -> String {
    let stream = parse(text);
    method.run_on(&stream, pool).to_json()
}

/// Parses a generated trace. Generated inputs always parse; a failure here
/// is a bug in the benchmark.
pub fn parse(text: &str) -> LinkStream {
    io::read_str(text, Directedness::Directed).expect("generated traces parse")
}

/// Mirrors every finished `(scale, tile)` of a sweep as a `tile` span.
struct TileRecorder {
    tracer: Arc<Tracer>,
    parent: u32,
    request: u64,
}

impl SweepObserver for TileRecorder {
    fn tile_done(&self, span: &TileSpan) {
        let end = self.tracer.now();
        self.tracer.record("tile", Some(self.parent), self.request, end - span.seconds, end);
    }
}

/// Analyzes `text` untraced (the reference), traced, scale by scale, and on
/// one thread; fills the per-layer figures of the sweep layers. `expected`
/// is the report the untraced analysis produced; every analysis here must
/// reproduce it, and every scale of the decomposition must reproduce its
/// row of the report.
#[allow(clippy::too_many_arguments)] // one traced run's inputs and sinks
pub fn trace_analysis(
    tracer: &Arc<Tracer>,
    request: u64,
    text: &str,
    method: &OccupancyMethod,
    pool: &mut WorkerPool,
    expected: &str,
    tally: &mut Tally,
    figures: &mut Figures,
) {
    // untraced reference, in this process, for the tracing overhead
    let mut reference = Vec::new();
    let mut reference_run = Vec::new();
    for _ in 0..REFERENCE_RUNS {
        let start = Instant::now();
        let stream = parse(text);
        let run_start = Instant::now();
        let report = method.run_on(&stream, pool);
        reference_run.push(run_start.elapsed().as_secs_f64());
        let json = report.to_json();
        reference.push(start.elapsed().as_secs_f64());
        tally.record(json == expected);
    }

    // traced: analysis → {io.parse, method.sweep → tile*, report.to_json}
    let root = tracer.begin("analysis", None, request);
    let (stream, _) = tracer.time("io.parse", Some(root.id), request, || parse(text));
    let sweep = tracer.begin("method.sweep", Some(root.id), request);
    let control = SweepControl::with_observer(Arc::new(TileRecorder {
        tracer: Arc::clone(tracer),
        parent: sweep.id,
        request,
    }));
    let report = method
        .try_run_on(&stream, pool, &control)
        .expect("a sweep whose token never fires cannot be cancelled");
    let sweep_s = tracer.end(sweep);
    let (json, _) = tracer.time("report.to_json", Some(root.id), request, || report.to_json());
    let traced_s = tracer.end(root);
    tally.record(json == expected);

    // one thread, no tracing: the 2-versus-1 speed-up of the sweep
    let mut single = WorkerPool::new(1);
    let start = Instant::now();
    let single_report = method.run_on(&stream, &mut single);
    let single_s = start.elapsed().as_secs_f64();
    tally.record(single_report.to_json() == expected);

    // scale by scale through the layers' own entry points
    let decomp = tracer.begin("decomposition", None, request + 1);
    let req = request + 1;
    let (view, _) =
        tracer.time("timeline.view", Some(decomp.id), req, || EventView::new(&stream));
    let targets = TargetSet::all(stream.node_count() as u32);
    let mut arena = EngineArena::new();
    let (mut edges, mut traversals, mut offers, mut snaps, mut degree1) = (0, 0, 0, 0, 0);
    let (mut trips, mut rates, mut support) = (0u64, 0usize, 0usize);
    for row in report.results() {
        let scale = tracer.begin("scale", Some(decomp.id), req);
        let (timeline, _) = tracer.time("timeline.build", Some(scale.id), req, || {
            Timeline::aggregated_from_view(&view, row.k)
        });
        edges += timeline.total_edges() as u64;
        let (stats, _) = tracer.time("dp", Some(scale.id), req, || {
            earliest_arrival_dp_in(
                &mut arena,
                &timeline,
                &targets,
                &mut NullSink,
                DpOptions::default(),
            )
        });
        traversals += stats.traversals;
        offers += stats.chain_offers;
        snaps += stats.snap_entries;
        degree1 += stats.degree1_steps;
        let (hist, _) = tracer.time("occupancy", Some(scale.id), req, || {
            occupancy_histogram_tile_in(&mut arena, &timeline, &targets, 0, targets.len())
        });
        let ((scores, scored_support), _) =
            tracer.time("distrib.score", Some(scale.id), req, || {
                let dist = WeightedDist::from_pairs(hist.sorted_rates());
                (UniformityScores::of(&dist), dist.support_size())
            });
        tracer.end(scale);
        trips += hist.total_trips();
        rates += hist.distinct_rates();
        support += scored_support;
        // the decomposition must reproduce the report's row for this scale
        tally.record(
            hist.total_trips() == row.trips
                && stats.trips == row.trips
                && hist.distinct_rates() == row.distinct_rates
                && scores.mk_proximity.to_bits() == row.scores.mk_proximity.to_bits(),
        );
    }
    let decomp_s = tracer.end(decomp);

    let log = tracer.spans();
    let mine = |name: &str| -> f64 {
        log.iter()
            .filter(|s| s.name == name && (s.request == request || s.request == req))
            .map(|s| s.seconds())
            .sum()
    };
    let tiles: Vec<&spans::Span> =
        log.iter().filter(|s| s.name == "tile" && s.request == request).collect();
    let tile_busy: f64 = tiles.iter().map(|s| s.seconds()).sum();
    let reference_s = median(&reference);
    let (dp_s, hist_s, score_s) = (mine("dp"), mine("occupancy"), mine("distrib.score"));

    figures.insert("io.parse_s", mine("io.parse"));
    figures.insert("io.events", stream.len() as f64);
    figures.insert("timeline.view_s", mine("timeline.view"));
    figures.insert("timeline.build_s", mine("timeline.build"));
    figures.insert("timeline.edges", edges as f64);
    figures.insert("dp.busy_s", dp_s);
    figures.insert("dp.traversals", traversals as f64);
    figures.insert("dp.chain_offers", offers as f64);
    figures.insert("dp.snap_entries", snaps as f64);
    figures.insert("dp.degree1_steps", degree1 as f64);
    figures.insert("occupancy.sink_s", hist_s - dp_s);
    figures.insert("occupancy.trips", trips as f64);
    figures.insert("occupancy.distinct_rates", rates as f64);
    figures.insert("occupancy.trips_per_rate", trips as f64 / rates.max(1) as f64);
    figures.insert("distrib.score_s", score_s);
    figures.insert("distrib.support", support as f64);
    figures.insert("method.sweep_s", sweep_s);
    figures.insert("method.scales", report.results().len() as f64);
    figures.insert("method.tiles", tiles.len() as f64);
    figures.insert("method.tile_busy_s", tile_busy);
    figures.insert("method.serial_s", own_of(&log, "method.sweep", request));
    figures.insert("parallel.utilization", tile_busy / (sweep_s * pool.parallelism() as f64));
    figures.insert("parallel.speedup_2v1", single_s / median(&reference_run));
    figures.insert("report.to_json_s", mine("report.to_json"));
    figures.insert("report.bytes", json.len() as f64);
    figures.insert("trace.analysis_s", traced_s);
    figures.insert("trace.reference_s", reference_s);
    figures.insert("trace.overhead_frac", traced_s / reference_s - 1.0);
    figures.insert("trace.unattributed_s", own_of(&log, "analysis", request));
    figures.insert("decomp.total_s", decomp_s);
    // what the one-thread decomposition spends outside the named layers
    figures.insert(
        "decomp.unattributed_s",
        own_of(&log, "decomposition", req) + own_of(&log, "scale", req),
    );
    let layered = hist_s + score_s; // dp + sink + scoring
    figures.insert("decomp.dp_share", dp_s / layered);
    figures.insert("decomp.sink_share", (hist_s - dp_s) / layered);
    figures.insert("decomp.score_share", score_s / layered);
}

/// Self time of the spans named `name` in `request`.
fn own_of(log: &[spans::Span], name: &str, request: u64) -> f64 {
    let of_request: Vec<spans::Span> =
        log.iter().filter(|s| s.request == request).cloned().collect();
    spans::self_times(&of_request).get(name).copied().unwrap_or(0.0)
}
