//! End-to-end tests of the `saturn` binary.

use std::process::Command;

fn saturn(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_saturn")).args(args).output().expect("binary runs")
}

fn tmp_trace() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("saturn-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace-{}.txt", std::process::id()));
    let mut text = String::new();
    for i in 0..300i64 {
        text.push_str(&format!("n{} n{} {}\n", i % 6, (i + 1) % 6, i * 40));
    }
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn help_and_unknown_commands() {
    let out = saturn(&["help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));

    let out = saturn(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = saturn(&[]);
    assert!(!out.status.success());
}

#[test]
fn stats_reports_counts() {
    let path = tmp_trace();
    let out = saturn(&["stats", path.to_str().unwrap(), "--directed"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes                6"), "{text}");
    assert!(text.contains("links                300"), "{text}");
}

#[test]
fn analyze_finds_gamma_and_json_is_valid() {
    let path = tmp_trace();
    let out = saturn(&["analyze", path.to_str().unwrap(), "--points", "10", "--unit", "s"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("γ ="), "{text}");

    let out = saturn(&["analyze", path.to_str().unwrap(), "--points", "10", "--json"]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON report");
    assert!(v["results"].as_array().unwrap().len() >= 5);
}

#[test]
fn validate_prints_loss_table() {
    let path = tmp_trace();
    let out = saturn(&["validate", path.to_str().unwrap(), "--points", "8", "--unit", "s"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lost"), "{text}");
    assert!(text.contains("elongation"), "{text}");
}

#[test]
fn synth_writes_parseable_stream() {
    let dir = std::env::temp_dir().join("saturn-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("synth-{}.txt", std::process::id()));
    let out = saturn(&[
        "synth",
        "manufacturing",
        "--scale",
        "0.05",
        "--seed",
        "3",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // the generated file round-trips through analyze
    let out = saturn(&["analyze", path.to_str().unwrap(), "--directed", "--points", "8"]);
    assert!(out.status.success());

    let out = saturn(&["synth", "atlantis"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown profile"));
}

#[test]
fn synth_analyze_json_end_to_end() {
    // generate a trace, analyze it, and assert on the parsed report
    let dir = std::env::temp_dir().join("saturn-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("e2e-{}.txt", std::process::id()));
    let out = saturn(&["synth", "irvine", "--scale", "0.04", "--out", path.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = saturn(&[
        "analyze",
        path.to_str().unwrap(),
        "--directed",
        "--points",
        "8",
        "--threads",
        "2",
        "--json",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let results = v["results"].as_array().unwrap();
    assert!(results.len() >= 8, "coarse grid plus refinement");
    for r in results {
        assert!(r["delta_ticks"].as_f64().unwrap() > 0.0);
        assert!(r["k"].as_u64().unwrap() >= 1);
        assert!(
            r["scores"]["mk_proximity"].is_null()
                || r["scores"]["mk_proximity"].as_f64().is_some()
        );
    }
    // deterministic across thread counts: --threads 1 gives the same bytes
    let again = saturn(&[
        "analyze",
        path.to_str().unwrap(),
        "--directed",
        "--points",
        "8",
        "--threads",
        "1",
        "--json",
    ]);
    assert_eq!(out.stdout, again.stdout, "thread count must not change the report");
}

/// The execution-knob matrix the CI job scripts: every combination of
/// `--tile` and thread count must emit
/// byte-identical JSON — the property that lets ops flip any knob on a
/// live deployment without reports moving.
#[test]
fn execution_knobs_do_not_change_report_bytes() {
    let path = tmp_trace();
    let path = path.to_str().unwrap();
    let baseline = saturn(&["analyze", path, "--points", "8", "--threads", "2", "--json"]);
    assert!(baseline.status.success(), "{}", String::from_utf8_lossy(&baseline.stderr));
    for knobs in [&["--tile", "7"][..], &["--threads", "1"], &["--tile", "3", "--threads", "1"]]
    {
        let mut args = vec!["analyze", path, "--points", "8", "--threads", "2", "--json"];
        args.extend_from_slice(knobs);
        let out = saturn(&args);
        assert!(out.status.success(), "{knobs:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(baseline.stdout, out.stdout, "{knobs:?} must not change the report bytes");
    }
}

#[test]
fn stats_json_is_machine_readable() {
    let path = tmp_trace();
    let out = saturn(&["stats", path.to_str().unwrap(), "--directed", "--json"]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["nodes"].as_u64(), Some(6));
    assert_eq!(v["links"].as_u64(), Some(300));
    assert_eq!(v["dropped_self_loops"].as_u64(), Some(0));
    assert!(v["span"].as_i64().unwrap() > 0);
    assert!(v["mean_inter_contact"].as_f64().unwrap() > 0.0);
}

#[test]
fn threads_env_var_is_honored() {
    let path = tmp_trace();
    let out = Command::new(env!("CARGO_BIN_EXE_saturn"))
        .args(["analyze", path.to_str().unwrap(), "--points", "8", "--json"])
        .env("SATURN_THREADS", "1")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let baseline = saturn(&["analyze", path.to_str().unwrap(), "--points", "8", "--json"]);
    assert_eq!(out.stdout, baseline.stdout);
}

#[test]
fn serve_answers_an_analyze_request() {
    use std::io::{BufRead, BufReader, Read, Write};

    let mut child = Command::new(env!("CARGO_BIN_EXE_saturn"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--cache-mb", "8"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve starts");
    let mut lines = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut first = String::new();
    lines.read_line(&mut first).expect("banner line");
    let addr = first.trim().rsplit("http://").next().expect("address in banner").to_string();

    let trace = "a b 1\nb c 5\nc d 9\na c 13\nb d 17\na d 21\n".repeat(20);
    let body: String = trace
        .lines()
        .enumerate()
        .map(|(i, l)| {
            let mut parts = l.split_whitespace();
            let (u, v) = (parts.next().unwrap(), parts.next().unwrap());
            format!("{u}{} {v}{} {}\n", i % 3, i % 3, i * 4)
        })
        .collect();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to served addr");
    write!(
        stream,
        "POST /v1/analyze?points=8 HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    child.kill().ok();
    child.wait().ok();

    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    let json_start = response.find("\r\n\r\n").expect("header/body split") + 4;
    let v: serde_json::Value =
        serde_json::from_str(&response[json_start..]).expect("valid JSON report");
    assert!(!v["results"].as_array().unwrap().is_empty());
}

#[test]
fn missing_file_fails_cleanly() {
    let out = saturn(&["analyze", "/no/such/file.txt"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("/no/such/file.txt"), "{err}");
}
