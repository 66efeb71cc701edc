//! The `sweep_*` workloads: `saturn analyze` defaults on a corpus of
//! dataset stand-ins, driven in-process through `OccupancyMethod`.

use crate::checks::{self, corpus_digest, report_digest, response_ok, spot_check, Tally};
use crate::inputs::{self, derive, DEFAULT_SEED};
use crate::layers::{self, analyze, parse};
use crate::serve::{self, Feed, Harness, BATCH};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::{peak_rss_mb, Figures, Outcome};
use saturn_core::parallel::WorkerPool;
use saturn_core::{OccupancyMethod, SweepGrid};
use saturn_synth::DatasetProfile;
use serde_json::Value;
use std::sync::Arc;
use std::time::Instant;

/// `saturn analyze` defaults.
const POINTS: usize = 48;
const THREADS: usize = 2;
/// Set-ups timed before the first analysis; one more follows each analysis.
const SETUPS_BEFORE: usize = 3;
/// Append+refresh rounds of the traced run's stream session. The session is
/// seeded with all but `PROBE_ROUNDS + 1` batches of the trace, so its final
/// stream differs from the posted trace and its refreshes really sweep.
const PROBE_ROUNDS: usize = 2;

/// Seeded candidates per corpus slot after the first (see
/// [`SweepWorkload::corpus`]).
const STRATUM: usize = 3;

/// One sweep workload: a profile, its scale, and how many stand-ins a run
/// analyzes. Stand-ins of one profile differ a lot in trip count from seed
/// to seed, so a run averages over a corpus of them.
pub struct SweepWorkload {
    pub name: &'static str,
    pub profile: fn() -> DatasetProfile,
    pub factor: f64,
    pub corpus: u64,
}

fn method() -> OccupancyMethod {
    OccupancyMethod::new().grid(SweepGrid::Geometric { points: POINTS })
}

impl SweepWorkload {
    /// The corpus of the run seeded `seed`. The first stand-in is exactly
    /// what `saturn synth <profile> --seed <seed> --scale <factor>` writes.
    /// The others are stratified: `STRATUM` seeded candidates per slot are
    /// sorted by active node count, which tracks trip count (facebook ×0.5:
    /// 1,314 active nodes gave 25M trips, 1,446 gave 7.9M), and each run of
    /// `STRATUM` gives its middle one. Every seed still gets its own
    /// stand-ins, but each corpus spans the profile's range evenly: over
    /// seeds 1–10 the coefficient of variation of a facebook ×0.5 corpus'
    /// mean trip count fell from 7.0% (plain seeded draws) to 5.0%.
    fn corpus(&self, seed: u64) -> Vec<String> {
        let profile = (self.profile)();
        let mut candidates: Vec<(usize, String)> = (1..=STRATUM as u64 * (self.corpus - 1))
            .map(|i| {
                let text = inputs::stand_in(&profile, self.factor, derive(seed, i));
                (parse(&text).node_count(), text)
            })
            .collect();
        candidates.sort_by_key(|&(nodes, _)| nodes);
        let mut corpus = vec![inputs::stand_in(&profile, self.factor, seed)];
        corpus.extend(
            candidates.chunks_mut(STRATUM).map(|c| std::mem::take(&mut c[STRATUM / 2].1)),
        );
        corpus
    }

    /// The untraced run: whole passes over the corpus, another one only if
    /// it should end by `seconds` (give or take a tenth); at least one.
    pub fn run(&self, seed: u64, seconds: f64, trace: Option<&Arc<Tracer>>) -> Outcome {
        let corpus = self.corpus(seed);
        // set-up: the state `saturn analyze` reaches before its sweep starts,
        // the pool spawned and the first trace loaded. The run keeps the
        // first pool; the other set-ups are timed and dropped.
        let setup = || {
            let start = Instant::now();
            let ready = (WorkerPool::new(THREADS), parse(&corpus[0]));
            (start.elapsed().as_secs_f64(), ready.0)
        };
        let (first, mut pool) = setup();
        let mut setups = vec![first];
        setups.extend((1..SETUPS_BEFORE).map(|_| setup().0));
        let method = method();
        let mut tally = Tally::default();

        if let Some(tracer) = trace {
            return Self::traced(&corpus[0], &method, &mut pool, tracer, tally);
        }

        // warm-up, untimed
        let warm = analyze(&corpus[0], &method, &mut pool);

        let mut times = Vec::new();
        let mut first_pass: Vec<String> = Vec::new();
        let mut to_check = Vec::new();
        let start = Instant::now();
        let mut passes = 0u32;
        loop {
            for (i, text) in corpus.iter().enumerate() {
                let t = Instant::now();
                let stream = parse(text);
                let report = method.run_on(&stream, &mut pool);
                let json = report.to_json();
                times.push(t.elapsed().as_secs_f64());
                setups.push(setup().0);
                let digest = report_digest(&json);
                match first_pass.get(i) {
                    Some(first) => tally.record(*first == digest),
                    None => {
                        tally.record(i != 0 || json == warm);
                        first_pass.push(digest);
                        to_check.push((stream, report));
                    }
                }
            }
            passes += 1;
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed * f64::from(passes + 1) / f64::from(passes) > seconds * 1.1 {
                break;
            }
        }

        // gates, untimed: the default seed's corpus digest, and every
        // stand-in's report recomputed at three scales through the layers
        let corpus_hex = corpus_digest(&first_pass);
        if seed == DEFAULT_SEED {
            tally.record(checks::pinned(self.name) == Some(corpus_hex.as_str()));
        }
        for (stream, report) in &to_check {
            tally.record(spot_check(stream, report));
        }

        let mut metrics = Figures::new();
        metrics.insert("setup_s", mean(&setups));
        metrics.insert("analyze_s", times.iter().sum::<f64>() / times.len() as f64);
        metrics.insert("ops_per_s", times.len() as f64 / times.iter().sum::<f64>());
        metrics.insert("peak_rss_mb", peak_rss_mb());
        let detail = vec![
            ("corpus".to_string(), Value::Int(corpus.len() as i128)),
            ("analyses".to_string(), Value::Int(times.len() as i128)),
            ("analyze_median_s".to_string(), Value::Float(median(&times))),
            ("corpus_digest".to_string(), Value::String(corpus_hex)),
        ];
        Outcome { tally, metrics, figures: Figures::new(), detail }
    }

    /// The traced run on the corpus' first stand-in: the sweep layers in
    /// process, then the server layers on the same trace (a cold and a
    /// cached `/v1/analyze`, and a stream session with two append+refresh
    /// rounds).
    fn traced(
        text: &str,
        method: &OccupancyMethod,
        pool: &mut WorkerPool,
        tracer: &Arc<Tracer>,
        mut tally: Tally,
    ) -> Outcome {
        let expected = analyze(text, method, pool);
        let mut figures = Figures::new();
        layers::trace_analysis(
            tracer,
            1,
            text,
            method,
            pool,
            &expected,
            &mut tally,
            &mut figures,
        );

        let mut harness = Harness::start();
        let before = harness.scrape();
        let target = format!("/v1/analyze?points={POINTS}&directed=1");
        for (request, name) in [(10, "request.cold"), (11, "request.hit")] {
            let (response, _) = tracer
                .time(name, None, request, || harness.conn.post(&target, text.as_bytes()));
            tally.record(response.is_ok_and(|r| response_ok(&r, 200, expected.as_bytes())));
        }

        let events = inputs::event_lines(text).len();
        let mut feed = Feed::new(text, events - (PROBE_ROUNDS + 1) * BATCH);
        let opened = tracer.time("request.open", None, 12, || feed.open(&mut harness.conn)).0;
        tally.record(opened.is_some());
        let mut append_ms = Vec::new();
        let mut scales = 0.0;
        let mut last = None;
        if let Some(id) = opened {
            for round in 0..PROBE_ROUNDS as u64 {
                let request = 13 + 2 * round;
                let (ok, seconds) = tracer.time("request.append", None, request, || {
                    feed.append(&mut harness.conn, id, BATCH)
                });
                append_ms.push(seconds * 1e3);
                tally.record(ok);
                let target = format!("/v1/streams/{id}/analyze?points={POINTS}");
                let (response, _) = tracer.time("request.refresh", None, request + 1, || {
                    harness.conn.post(&target, &[])
                });
                if let Ok(response) = response {
                    scales += serve::scales_in(&response.body) as f64;
                    last = Some(response);
                }
            }
        }
        std::thread::sleep(serve::SETTLE);
        let after = harness.scrape();
        harness.stop();
        let expected_refresh = method.run_on(&feed.stream(feed.accepted()), pool).to_json();
        tally.record(last.is_some_and(|r| response_ok(&r, 200, expected_refresh.as_bytes())));
        serve::server_figures(&before, &after, &append_ms, scales, &mut figures);

        Outcome { tally, metrics: Figures::new(), figures, detail: Vec::new() }
    }
}
