//! The HTTP side: an in-process `saturn_server::Server` driven over real
//! sockets, the `serve_mixed` traffic mix, and the server-layer figures
//! read from `/v1/metrics`.

use crate::checks::{response_ok, Tally};
use crate::client::{Conn, Response};
use crate::inputs::{self, derive, Rng};
use crate::layers::{self, analyze};
use crate::spans::Tracer;
use crate::stats::{mean, median, tail};
use crate::{peak_rss_mb, Figures, Outcome};
use saturn_core::parallel::WorkerPool;
use saturn_core::{OccupancyMethod, SweepGrid};
use saturn_linkstream::io::parse_line;
use saturn_linkstream::{Directedness, LinkStream, LinkStreamBuilder};
use saturn_server::{Server, ServerConfig, ServerHandle};
use saturn_synth::DatasetProfile;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pool threads of the server, and of the in-process oracle.
pub const THREADS: usize = 2;
/// Grid points of `serve_mixed` analyses.
const POINTS: usize = 16;
/// Scale factor of the irvine stand-ins `serve_mixed` posts.
const IRVINE_FACTOR: f64 = 0.06;
/// Distinct bodies the analyst repeats.
const HOT_SET: u64 = 4;
/// Every fifth analyst request is a fresh body, the others repeat the hot
/// set: 80% hits, in a fixed pattern so the mix does not vary by seed.
const COLD_EVERY: u64 = 5;
/// Events per append batch.
pub const BATCH: usize = 8;
/// Append batches per session before the feeder opens the next one, so
/// every session covers the same share of its stand-in's period.
const SESSION_BATCHES: usize = 64;
/// One set-up is timed after every this many cold checks, spreading the
/// set-up samples over the verification phase.
const SETUP_EVERY: usize = 10;
/// Fewest set-ups per run; `setup_s` is their mean.
const SETUPS_MIN: usize = 5;
/// Wait for the server's per-request counters, which bump after the
/// response is written, before the closing scrape.
pub const SETTLE: Duration = Duration::from_millis(200);

const ANALYZE: &str = "/v1/analyze?points=16&directed=1";

fn irvine(seed: u64) -> String {
    inputs::stand_in(&DatasetProfile::irvine(), IRVINE_FACTOR, seed)
}

fn method(points: usize) -> OccupancyMethod {
    OccupancyMethod::new().grid(SweepGrid::Geometric { points })
}

/// A running server and one keep-alive connection to it.
pub struct Harness {
    pub conn: Conn,
    handle: ServerHandle,
}

impl Harness {
    /// Bind, spawn, and wait for the first healthy `/v1/health`.
    pub fn start() -> Harness {
        let config =
            ServerConfig { addr: "127.0.0.1:0".into(), threads: THREADS, ..Default::default() };
        let handle = Server::bind(&config)
            .and_then(Server::spawn)
            .expect("an ephemeral local port binds");
        let mut conn = Conn::open(handle.addr()).expect("the server accepts");
        let health = conn.get("/v1/health").expect("health answers");
        assert_eq!(health.status, 200, "server not healthy");
        Harness { conn, handle }
    }

    pub fn connect(&self) -> Conn {
        Conn::open(self.handle.addr()).expect("the server accepts")
    }

    /// Closes the connection, then stops the server.
    pub fn stop(self) {
        drop(self.conn);
        self.handle.stop();
    }

    /// The `/v1/metrics` samples, keyed by name with labels.
    pub fn scrape(&mut self) -> Scrape {
        let response = self.conn.get("/v1/metrics").expect("metrics answer");
        let text = String::from_utf8_lossy(&response.body);
        Scrape(
            text.lines()
                .filter(|line| !line.starts_with('#'))
                .filter_map(|line| {
                    let (name, value) = line.rsplit_once(' ')?;
                    Some((name.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }
}

/// One `/v1/metrics` scrape.
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One stand-in fed to a stream session: the first half of its events
/// seed the session, the rest are appended in batches.
pub struct Feed {
    lines: Vec<String>,
    period: (i64, i64),
    seeded: usize,
    accepted: usize,
}

impl Feed {
    /// A feed over `text` whose first `seeded` events seed the session.
    pub fn new(text: &str, seeded: usize) -> Feed {
        let events = inputs::event_lines(text);
        let period = (events[0].1, events[events.len() - 1].1);
        let lines: Vec<String> = events.iter().map(|(line, _)| line.to_string()).collect();
        let seeded = seeded.min(lines.len());
        Feed { lines, period, seeded, accepted: seeded }
    }

    fn create_target(&self) -> String {
        format!("/v1/streams?t_begin={}&t_end={}&directed=1", self.period.0, self.period.1)
    }

    /// Opens a session seeded with the early events; returns its id.
    pub fn open(&mut self, conn: &mut Conn) -> Option<u64> {
        self.accepted = self.seeded;
        let body = self.lines[..self.seeded].join("\n");
        let response = conn.post(&self.create_target(), body.as_bytes()).ok()?;
        let id = json(&response.body)?.get("stream")?.as_u64()?;
        (response.status == 201).then_some(id)
    }

    fn next_batch(&self, n: usize) -> Option<String> {
        self.has_batch(n).then(|| self.lines[self.accepted..self.accepted + n].join("\n"))
    }

    /// Appends the next `n` events to session `id`; true when the server
    /// accepted exactly them.
    pub fn append(&mut self, conn: &mut Conn, id: u64, n: usize) -> bool {
        let Some(batch) = self.next_batch(n) else { return false };
        let response = conn.post(&format!("/v1/streams/{id}/events"), batch.as_bytes());
        let ok = response.is_ok_and(|r| append_ok(&r, id, n, self.accepted + n));
        if ok {
            self.accepted += n;
        }
        ok
    }

    /// Events the session holds so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Whether `n` more events are left to append.
    fn has_batch(&self, n: usize) -> bool {
        self.accepted + n <= self.lines.len()
    }

    /// The session's events after `accepted` of them, as the server holds
    /// them: same period, same order.
    pub fn stream(&self, accepted: usize) -> LinkStream {
        let mut builder = LinkStreamBuilder::new(Directedness::Directed);
        builder.period(self.period.0, self.period.1);
        for (i, line) in self.lines[..accepted].iter().enumerate() {
            let event =
                parse_line(line, i + 1).expect("generated lines parse").expect("an event");
            builder.add(event.u, event.v, event.t);
        }
        builder.build().expect("a non-empty stream builds")
    }
}

fn json(body: &[u8]) -> Option<Value> {
    serde_json::from_slice(body).ok()
}

/// Whether `response` accepts an append of `appended` events to session
/// `id`, leaving it with `events`.
fn append_ok(response: &Response, id: u64, appended: usize, events: usize) -> bool {
    let expected = Value::Object(vec![
        ("stream".into(), Value::Int(id as i128)),
        ("appended".into(), Value::Int(appended as i128)),
        ("events".into(), Value::Int(events as i128)),
    ]);
    response.status == 200 && json(&response.body) == Some(expected)
}

/// Scales in a report body.
pub fn scales_in(body: &[u8]) -> usize {
    json(body).and_then(|v| v.get("results")?.as_array().map(Vec::len)).unwrap_or(0)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Hit,
    Cold,
    Open,
    Append,
    Refresh,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::Hit => "request.hit",
            Class::Cold => "request.cold",
            Class::Open => "request.open",
            Class::Append => "request.append",
            Class::Refresh => "request.refresh",
        }
    }
}

/// One completed request.
struct Sample {
    class: Class,
    start: Instant,
    end: Instant,
    ok: bool,
}

impl Sample {
    fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records `sample`, as a span too when tracing.
fn note(
    samples: &mut Vec<Sample>,
    tracer: Option<(&Tracer, u32, u64)>,
    class: Class,
    start: Instant,
    ok: bool,
) {
    let end = Instant::now();
    if let Some((tracer, parent, request)) = tracer {
        tracer.record(
            class.span_name(),
            Some(parent),
            request,
            tracer.at(start),
            tracer.at(end),
        );
    }
    samples.push(Sample { class, start, end, ok });
}

/// A cold request left to verify after the loop: its sample, the fresh
/// body's index, and the response.
struct ColdCheck {
    sample: usize,
    index: u64,
    response: Response,
}

/// The analyst: posts hot-set repeats and fresh stand-ins, closed loop.
fn analyst(
    mut conn: Conn,
    seed: u64,
    deadline: Instant,
    hot: &[(String, String)],
    trace: Option<(&Tracer, u64)>,
) -> (Vec<Sample>, Vec<ColdCheck>) {
    let mut rng = Rng::new(derive(seed, 7));
    let (mut samples, mut colds) = (Vec::new(), Vec::new());
    let root =
        trace.map(|(tracer, request)| (tracer, tracer.begin("client.analyst", None, request)));
    let mut request = trace.map_or(0, |(_, r)| r);
    let mut fresh = 0u64;
    let mut sent = 0u64;
    while Instant::now() < deadline {
        request += 1;
        sent += 1;
        let span = root.map(|(tracer, open)| (tracer, open.id, request));
        if !sent.is_multiple_of(COLD_EVERY) {
            let (body, expected) = &hot[(rng.next_u64() % HOT_SET) as usize];
            let start = Instant::now();
            let response = conn.post(ANALYZE, body.as_bytes());
            let ok = response.is_ok_and(|r| response_ok(&r, 200, expected.as_bytes()));
            note(&mut samples, span, Class::Hit, start, ok);
        } else {
            let body = fresh_body(seed, fresh);
            let start = Instant::now();
            let response = conn.post(ANALYZE, body.as_bytes());
            // correct only once verified against the in-process report
            note(&mut samples, span, Class::Cold, start, false);
            if let Ok(response) = response {
                colds.push(ColdCheck { sample: samples.len() - 1, index: fresh, response });
            }
            fresh += 1;
        }
    }
    if let Some((tracer, open)) = root {
        tracer.end(open);
    }
    (samples, colds)
}

/// A session's last refresh, kept to compare with a scratch analysis.
struct RefreshCheck {
    sample: usize,
    feed: usize,
    accepted: usize,
    response: Response,
}

/// What the feeder did.
struct Fed {
    samples: Vec<Sample>,
    /// The last refresh of each session.
    checks: Vec<RefreshCheck>,
    /// Every session's feed, in order.
    feeds: Vec<Feed>,
    /// Scales reported by all refreshes (counted only when tracing).
    scales_refreshed: usize,
}

/// The feeder: owns one session at a time; appends a batch, refreshes,
/// repeats; opens the next stand-in's session after [`SESSION_BATCHES`].
fn feeder(
    mut conn: Conn,
    seed: u64,
    deadline: Instant,
    mut feed: Feed,
    mut id: u64,
    trace: Option<(&Tracer, u64)>,
) -> Fed {
    let mut fed =
        Fed { samples: Vec::new(), checks: Vec::new(), feeds: Vec::new(), scales_refreshed: 0 };
    let samples = &mut fed.samples;
    let root =
        trace.map(|(tracer, request)| (tracer, tracer.begin("client.feeder", None, request)));
    let mut request = trace.map_or(0, |(_, r)| r);
    let mut batches = 0;
    while Instant::now() < deadline {
        request += 1;
        let span = root.map(|(tracer, open)| (tracer, open.id, request));
        if batches == SESSION_BATCHES || !feed.has_batch(BATCH) {
            let next = session_feed(seed, fed.feeds.len() as u64 + 1);
            fed.feeds.push(std::mem::replace(&mut feed, next));
            let start = Instant::now();
            let opened = feed.open(&mut conn);
            note(samples, span, Class::Open, start, opened.is_some());
            let Some(new_id) = opened else { break };
            id = new_id;
            batches = 0;
            continue;
        }
        let start = Instant::now();
        let ok = feed.append(&mut conn, id, BATCH);
        note(samples, span, Class::Append, start, ok);
        if !ok {
            break;
        }
        batches += 1;

        request += 1;
        let span = root.map(|(tracer, open)| (tracer, open.id, request));
        let start = Instant::now();
        let response = conn.post(&format!("/v1/streams/{id}/analyze?points={POINTS}"), &[]);
        // status only here; each session's last refresh is byte-checked
        // against a scratch analysis after the loop
        note(
            samples,
            span,
            Class::Refresh,
            start,
            response.as_ref().is_ok_and(|r| r.status == 200),
        );
        if let Ok(response) = response {
            if trace.is_some() {
                fed.scales_refreshed += scales_in(&response.body);
            }
            let check = RefreshCheck {
                sample: samples.len() - 1,
                feed: fed.feeds.len(),
                accepted: feed.accepted,
                response,
            };
            match fed.checks.last_mut() {
                Some(last) if last.feed == check.feed => *last = check,
                _ => fed.checks.push(check),
            }
        }
    }
    if let Some((tracer, open)) = root {
        tracer.end(open);
    }
    fed.feeds.push(feed);
    fed
}

/// Fresh analyst body number `index` of a run.
fn fresh_body(seed: u64, index: u64) -> String {
    irvine(derive(seed, 100 + index))
}

/// The stand-in of the run's session number `index`, seeded with the
/// first half of its events.
fn session_feed(seed: u64, index: u64) -> Feed {
    let text = irvine(derive(seed, 1000 + index));
    let events = inputs::event_lines(&text).len();
    Feed::new(&text, events / 2)
}

/// The `serve_mixed` workload.
pub fn run(seed: u64, seconds: f64, trace: Option<&Arc<Tracer>>) -> Outcome {
    let mut tally = Tally::default();
    let mut pool = WorkerPool::new(THREADS);
    let method = method(POINTS);

    // set-up: bind, spawn, first healthy /v1/health, session opened and
    // seeded. The run keeps the first server; later set-ups are timed and
    // stopped.
    let setup = || {
        let mut feed = session_feed(seed, 0);
        let start = Instant::now();
        let mut harness = Harness::start();
        let id = feed.open(&mut harness.conn).expect("the first session opens");
        (start.elapsed().as_secs_f64(), harness, feed, id)
    };
    let timed_setup = || {
        let (seconds, harness, _, _) = setup();
        harness.stop();
        seconds
    };
    let (first, mut harness, feed, id) = setup();
    let mut setups = vec![first];

    // warm the hot set (outside the timed loop) and keep its oracle bytes
    let hot: Vec<(String, String)> = (1..=HOT_SET)
        .map(|i| {
            let body = irvine(derive(seed, i));
            let expected = analyze(&body, &method, &mut pool);
            let response = harness.conn.post(ANALYZE, body.as_bytes());
            tally.record(response.is_ok_and(|r| response_ok(&r, 200, expected.as_bytes())));
            (body, expected)
        })
        .collect();

    let mut figures = Figures::new();
    if let Some(tracer) = trace {
        let (body, expected) = &hot[0];
        layers::trace_analysis(
            tracer,
            1,
            body,
            &method,
            &mut pool,
            expected,
            &mut tally,
            &mut figures,
        );
    }

    let before = harness.scrape();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (analyst_conn, feeder_conn) = (harness.connect(), harness.connect());
    let ((mut samples, colds), fed) = std::thread::scope(|s| {
        let hot = &hot;
        let a = s.spawn(move || {
            analyst(analyst_conn, seed, deadline, hot, trace.map(|t| (&**t, 1_000_000)))
        });
        let f = s.spawn(move || {
            feeder(feeder_conn, seed, deadline, feed, id, trace.map(|t| (&**t, 2_000_000)))
        });
        (a.join().expect("analyst thread"), f.join().expect("feeder thread"))
    });
    std::thread::sleep(SETTLE);
    let after = harness.scrape();

    // verification, outside the timed loop
    for (i, check) in colds.iter().enumerate() {
        let expected = analyze(&fresh_body(seed, check.index), &method, &mut pool);
        samples[check.sample].ok = response_ok(&check.response, 200, expected.as_bytes());
        if i % SETUP_EVERY == 0 {
            setups.push(timed_setup());
        }
    }
    while setups.len() < SETUPS_MIN {
        setups.push(timed_setup());
    }
    let mut fed_samples = fed.samples;
    for check in &fed.checks {
        let stream = fed.feeds[check.feed].stream(check.accepted);
        let expected = method.run_on(&stream, &mut pool).to_json();
        fed_samples[check.sample].ok = response_ok(&check.response, 200, expected.as_bytes());
    }
    samples.extend(fed_samples);
    for sample in &samples {
        tally.record(sample.ok);
    }
    let window = samples.iter().map(|s| s.end).max().unwrap_or(start) - start;

    let latencies = |class: Class| -> Vec<f64> {
        samples.iter().filter(|s| s.class == class).map(|s| s.seconds() * 1e3).collect()
    };
    let mut detail = Vec::new();
    for (name, class) in
        [("hit", Class::Hit), ("cold", Class::Cold), ("refresh", Class::Refresh)]
    {
        let ms = latencies(class);
        detail.push((format!("{name}_p50_ms"), Value::Float(median(&ms))));
        if let Some((percent, value)) = tail(&ms) {
            detail.push((format!("{name}_tail_ms"), Value::Float(value)));
            detail.push((format!("{name}_tail_percentile"), Value::Int(percent as i128)));
        }
        detail.push((format!("{name}_samples"), Value::Int(ms.len() as i128)));
    }
    detail.push(("sessions".into(), Value::Int(fed.feeds.len() as i128)));

    if trace.is_some() {
        let append_ms = latencies(Class::Append);
        server_figures(&before, &after, &append_ms, fed.scales_refreshed as f64, &mut figures);
    }
    harness.stop();

    let mut metrics = Figures::new();
    metrics.insert("setup_s", mean(&setups));
    metrics.insert("analyze_s", median(&latencies(Class::Cold)) / 1e3);
    metrics.insert("ops_per_s", samples.len() as f64 / window.as_secs_f64());
    metrics.insert("peak_rss_mb", peak_rss_mb());
    Outcome { tally, metrics, figures, detail }
}

/// Server-layer figures from the `/v1/metrics` deltas across a stretch of
/// traffic. `append_ms` are the client-side append latencies and
/// `scales_refreshed` the scales the stretch's refreshes reported.
pub fn server_figures(
    before: &Scrape,
    after: &Scrape,
    append_ms: &[f64],
    scales_refreshed: f64,
    figures: &mut Figures,
) {
    let delta = |name: &str| after.get(name) - before.get(name);
    let mean = |family: &str| {
        delta(&format!("{family}_sum")) / delta(&format!("{family}_count")).max(1.0)
    };
    figures.insert("http.parse_s", mean("saturn_parse_seconds"));
    figures.insert("http.handle_s", mean("saturn_handle_seconds"));
    figures.insert("http.serialize_s", mean("saturn_serialize_seconds"));
    figures.insert("http.requests", delta("saturn_request_seconds_count"));
    figures.insert("jobs.queue_wait_s", mean("saturn_queue_wait_seconds"));
    figures.insert("jobs.sweep_s", mean("saturn_sweep_seconds"));
    figures.insert("jobs.executed", delta("saturn_jobs_executed_total"));
    figures.insert("jobs.coalesced", delta("saturn_jobs_coalesced_total"));
    figures.insert("jobs.rejected", delta("saturn_jobs_rejected_total"));
    let (hits, misses) = (delta("saturn_cache_hits_total"), delta("saturn_cache_misses_total"));
    figures.insert("cache.hit_ratio", hits / (hits + misses).max(1.0));
    figures.insert("cache.bytes", after.get("saturn_cache_bytes"));
    figures.insert("streams.append_p50_ms", median(append_ms));
    figures.insert("streams.events_appended", delta("saturn_stream_events_appended_total"));
    figures.insert(
        "streams.reuse_ratio",
        delta("saturn_stream_scales_reused_total") / scales_refreshed.max(1.0),
    );
    figures.insert("streams.tiles_skipped", delta("saturn_stream_tiles_skipped_total"));
    figures.insert(
        "streams.suffix_windows_rebuilt",
        delta("saturn_stream_suffix_windows_rebuilt_total"),
    );
}
