//! perfbench — the repository's benchmark.
//!
//! ```text
//! perfbench --workload <sweep_dense|sweep_sparse|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! time, checks every output, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` the
//! run records spans around the calls into each layer and the metrics are
//! the per-layer ones ([`PER_LAYER`]). The line before it is a `detail`
//! object: seed, host, and workload-specific figures. Spans of a traced run
//! are written to `perfbench/out/`. See `perfbench/README.md`.

mod checks;
mod client;
mod inputs;
mod layers;
mod serve;
mod spans;
mod stats;
mod sweep;

use checks::Tally;
use saturn_synth::DatasetProfile;
use serde_json::Value;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use sweep::SweepWorkload;

/// Metric values by name.
pub type Figures = BTreeMap<&'static str, f64>;

/// End-to-end metrics `(name, unit)`, printed by every workload untraced.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("analyze_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics `(name, unit)`, printed by every workload traced.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_s", "s"),
    ("io.events", "count"),
    ("timeline.view_s", "s"),
    ("timeline.build_s", "s"),
    ("timeline.edges", "count"),
    ("dp.busy_s", "s"),
    ("dp.traversals", "count"),
    ("dp.chain_offers", "count"),
    ("dp.snap_entries", "count"),
    ("dp.degree1_steps", "count"),
    ("occupancy.sink_s", "s"),
    ("occupancy.trips", "count"),
    ("occupancy.distinct_rates", "count"),
    ("occupancy.trips_per_rate", "ratio"),
    ("distrib.score_s", "s"),
    ("distrib.support", "count"),
    ("method.sweep_s", "s"),
    ("method.scales", "count"),
    ("method.tiles", "count"),
    ("method.tile_busy_s", "s"),
    ("method.serial_s", "s"),
    ("parallel.utilization", "ratio"),
    ("parallel.speedup_2v1", "ratio"),
    ("report.to_json_s", "s"),
    ("report.bytes", "bytes"),
    ("http.parse_s", "s"),
    ("http.handle_s", "s"),
    ("http.serialize_s", "s"),
    ("http.requests", "count"),
    ("jobs.queue_wait_s", "s"),
    ("jobs.sweep_s", "s"),
    ("jobs.executed", "count"),
    ("jobs.coalesced", "count"),
    ("jobs.rejected", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.bytes", "bytes"),
    ("streams.append_p50_ms", "ms"),
    ("streams.events_appended", "count"),
    ("streams.reuse_ratio", "ratio"),
    ("streams.tiles_skipped", "count"),
    ("streams.suffix_windows_rebuilt", "count"),
    ("trace.analysis_s", "s"),
    ("trace.reference_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
    ("decomp.total_s", "s"),
    ("decomp.unattributed_s", "s"),
    ("decomp.dp_share", "ratio"),
    ("decomp.sink_share", "ratio"),
    ("decomp.score_share", "ratio"),
];

pub const WORKLOADS: &[&str] = &["sweep_dense", "sweep_sparse", "serve_mixed"];

const SWEEP_DENSE: SweepWorkload = SweepWorkload {
    name: "sweep_dense",
    profile: DatasetProfile::manufacturing,
    factor: 0.5,
    corpus: 8,
};
const SWEEP_SPARSE: SweepWorkload = SweepWorkload {
    name: "sweep_sparse",
    profile: DatasetProfile::facebook,
    factor: 0.5,
    corpus: 20,
};

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics (untraced runs).
    pub metrics: Figures,
    /// Per-layer metrics (traced runs).
    pub figures: Figures,
    /// Workload-specific figures for the detail line.
    pub detail: Vec<(String, Value)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(parsed)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Online CPUs, as `nproc --all` counts them.
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The result line: exactly the metrics named in `names`, each with its
/// unit. A metric the run did not produce, or produced as a non-finite
/// number, makes the run incorrect.
fn result_line(tally: Tally, values: &Figures, names: &[(&str, &str)]) -> String {
    let mut correct = tally.failed == 0 && tally.attempted > 0;
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = values.get(name).copied().filter(|v| v.is_finite());
        correct &= value.is_some();
        metrics.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            value.unwrap_or(0.0)
        ));
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = args.trace.then(|| Arc::new(Tracer::new()));
    let trace = tracer.as_ref();
    let outcome = match args.workload.as_str() {
        "sweep_dense" => SWEEP_DENSE.run(args.seed, args.seconds, trace),
        "sweep_sparse" => SWEEP_SPARSE.run(args.seed, args.seconds, trace),
        _ => serve::run(args.seed, args.seconds, trace),
    };

    if let Some(tracer) = &tracer {
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = spans::write_jsonl(&tracer.spans(), &path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }

    let host = Value::Object(vec![
        ("nproc".into(), Value::Int(online_cpus() as i128)),
        (
            "available_parallelism".into(),
            Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
        ),
    ]);
    let mut detail = vec![
        ("workload".to_string(), Value::String(args.workload.clone())),
        ("seed".to_string(), Value::Int(args.seed as i128)),
        ("seconds".to_string(), Value::Float(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        ("host".to_string(), host),
    ];
    detail.extend(outcome.detail);
    let detail = Value::Object(vec![("detail".to_string(), Value::Object(detail))]);
    println!("{}", detail.to_string_compact());
    let line = if args.trace {
        result_line(outcome.tally, &outcome.figures, PER_LAYER)
    } else {
        result_line(outcome.tally, &outcome.metrics, END_TO_END)
    };
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root.
    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json exists");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(list: &str) -> Vec<(String, String)> {
        benchmark_json()
            .get(list)
            .and_then(Value::as_array)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| match m.get(k) {
                    Some(Value::String(s)) => s.clone(),
                    other => panic!("{list} entry without a string {k}: {other:?}"),
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn ours(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json_exactly() {
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = benchmark_json()
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::String(s)) => s.clone(),
                other => panic!("workload without a name: {other:?}"),
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn the_result_line_names_every_metric_and_flags_missing_ones() {
        let mut values = Figures::new();
        for &(name, _) in END_TO_END {
            values.insert(name, 1.5);
        }
        let tally = Tally { attempted: 3, failed: 0 };
        let line: Value =
            serde_json::from_str(&result_line(tally, &values, END_TO_END)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        let metrics = line.get("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let metric = metrics.get(name).expect("metric printed");
            assert_eq!(metric.get("unit"), Some(&Value::String(unit.into())));
            assert_eq!(metric.get("value").and_then(Value::as_f64), Some(1.5));
        }
        values.remove("analyze_s");
        let line: Value =
            serde_json::from_str(&result_line(tally, &values, END_TO_END)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        let failed = Tally { attempted: 3, failed: 1 };
        values.insert("analyze_s", 1.5);
        let line: Value =
            serde_json::from_str(&result_line(failed, &values, END_TO_END)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok =
            parse_args(&args("--workload serve_mixed --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (9, 3.0, true));
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload serve_mixed --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve_mixed --seed")).is_err());
        assert!(parse_args(&args("--workload serve_mixed --seconds 0")).is_err());
    }
}
