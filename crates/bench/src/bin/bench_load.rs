//! `bench_load` — open-loop Poisson load against the analysis service.
//!
//! The other service bench (`bench_serve`) is *closed-loop*: each client
//! waits for its response before sending the next request, so a slow server
//! silently throttles the offered load and latency percentiles flatter the
//! service (coordinated omission). This driver is *open-loop*: arrival times
//! are drawn up front from a Poisson process (exponential inter-arrival
//! gaps on a deterministic splitmix64 stream) and each request fires at its
//! absolute slot on the wall clock regardless of how earlier requests are
//! faring — exactly the arrival pattern under which admission control,
//! the bounded queue, and `Retry-After` earn their keep.
//!
//! Every response is kept, not just the 200s: latencies are bucketed
//! per-status through the server's own
//! [`saturn_server::metrics::Histogram`], so a 503 that came back in 300µs
//! and a cold 200 that took 80ms land in different rows of the report
//! instead of averaging into a meaningless blur.
//!
//! ```sh
//! cargo run --release -p saturn-bench --bin bench_load            # full
//! SATURN_FAST=1 cargo run --release -p saturn-bench --bin bench_load
//! ```
//!
//! Writes `bench_load.json` under the results directory (`SATURN_OUT`).

use saturn_bench::{dataset, fast_mode, out_dir};
use saturn_linkstream::io as stream_io;
use saturn_server::metrics::Histogram;
use saturn_server::{Server, ServerConfig};
use saturn_synth::DatasetProfile;
use serde_json::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Deterministic splitmix64 stream (same generator the fault plan uses).
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with rate `rate_hz` (inter-arrival gap of a Poisson
    /// process), via inversion.
    fn next_exp(&mut self, rate_hz: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.next_f64()).ln() / rate_hz)
    }
}

/// One blocking request; returns the status code and body length.
fn post_analyze(addr: SocketAddr, target: &str, body: &[u8]) -> (u16, usize) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("write head");
    stream.write_all(body).expect("write body");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 =
        status_line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("drain");
    (status, rest.len())
}

/// Drives the pre-drawn arrival schedule against a fresh server; returns
/// the run's JSON fields.
fn run(
    bodies: &[Arc<String>],
    gaps: &[Duration],
    rate_hz: f64,
    target: &str,
) -> Vec<(&'static str, Value)> {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        queue_depth: 16,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let server = server.spawn().expect("spawn");

    let started = Instant::now();
    let mut due = Duration::ZERO;
    let mut handles = Vec::with_capacity(bodies.len());
    for (body, gap) in bodies.iter().zip(gaps) {
        due += *gap;
        // open loop: wait for the arrival's absolute slot, never for the
        // previous request — a backed-up server still sees the full rate
        if let Some(wait) = due.checked_sub(started.elapsed()) {
            std::thread::sleep(wait);
        }
        let body = Arc::clone(body);
        let target = target.to_string();
        handles.push(std::thread::spawn(move || {
            let sent = Instant::now();
            let (status, _) = post_analyze(addr, &target, body.as_bytes());
            (status, sent.elapsed())
        }));
    }
    let mut by_status: BTreeMap<u16, Histogram> = BTreeMap::new();
    for handle in handles {
        let (status, latency) = handle.join().expect("request thread");
        by_status.entry(status).or_default().observe(latency);
    }
    let wall = started.elapsed().as_secs_f64();
    server.stop();

    let answered: u64 = by_status.values().map(Histogram::count).sum();
    assert_eq!(answered, bodies.len() as u64, "every arrival must be answered");
    let ok = by_status.get(&200).map_or(0, Histogram::count);
    assert!(ok > 0, "the service must complete at least one sweep under load");

    println!("  {answered} arrivals at {rate_hz:.0}/s offered, {wall:.3}s wall, {ok} × 200");
    let statuses: Vec<Value> = by_status
        .iter()
        .map(|(status, latency)| {
            let (p50, p90, p99) = latency.percentiles().expect("non-empty histogram");
            println!(
                "    {status}: count={} p50≤{p50}µs p90≤{p90}µs p99≤{p99}µs",
                latency.count()
            );
            obj(vec![
                ("status", Value::Int(*status as i128)),
                ("count", Value::Int(latency.count() as i128)),
                ("p50_us", Value::Int(p50 as i128)),
                ("p90_us", Value::Int(p90 as i128)),
                ("p99_us", Value::Int(p99 as i128)),
            ])
        })
        .collect();
    vec![
        ("wall_seconds", Value::Float(wall)),
        ("completed_200", Value::Int(ok as i128)),
        ("by_status", Value::Array(statuses)),
    ]
}

fn main() {
    let fast = fast_mode();
    let (arrivals, rate_hz, points, distinct) =
        if fast { (60, 40.0, 8, 12) } else { (240, 60.0, 16, 48) };
    let profile = dataset(DatasetProfile::irvine());
    println!(
        "bench_load — {} stand-in, {arrivals} Poisson arrivals at {rate_hz:.0}/s, \
         points={points}",
        profile.name
    );

    // the trace pool is rendered before the clock starts: a quarter of the
    // arrivals repeat one hot body (cache hits), the rest cycle `distinct`
    // cold bodies (full sweeps) — enough compute to back up the executor at
    // the offered rate
    let hot: Arc<String> = Arc::new(stream_io::to_string(&profile.generate(7)));
    let cold: Vec<Arc<String>> = (0..distinct)
        .map(|seed| Arc::new(stream_io::to_string(&profile.generate(2000 + seed as u64))))
        .collect();
    let bodies: Vec<Arc<String>> = (0..arrivals)
        .map(|i| if i % 4 == 0 { Arc::clone(&hot) } else { Arc::clone(&cold[i % distinct]) })
        .collect();
    // the schedule is drawn up front from a fixed seed: every run sees
    // byte- and time-identical offered load
    let mut rng = SplitMix(0x10ad_5eed_0ff0_0d00);
    let gaps: Vec<Duration> = (0..arrivals).map(|_| rng.next_exp(rate_hz)).collect();
    let target = format!("/v1/analyze?points={points}&directed=1");

    let mut fields = vec![
        ("workload", Value::String(profile.name.to_string())),
        ("fast_mode", Value::Bool(fast)),
        ("points", Value::Int(points as i128)),
        ("arrivals", Value::Int(arrivals as i128)),
        ("offered_rate_hz", Value::Float(rate_hz)),
    ];
    fields.extend(run(&bodies, &gaps, rate_hz, &target));
    let record = obj(fields);
    let path = out_dir().join("bench_load.json");
    std::fs::write(&path, record.to_string_pretty()).expect("write bench_load.json");
    println!("  wrote {}", path.display());
}
