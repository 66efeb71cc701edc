#!/usr/bin/env python3
"""CI gate over a `/v1/metrics` scrape: Prometheus-text validation.

The telemetry contract: the exposition parses line by line (`# HELP` /
`# TYPE` comments and `name[{labels}] value` samples only), every sample
belongs to a declared family, histograms are internally consistent
(cumulative buckets never decrease, the `+Inf` bucket equals `_count`),
and the declared families are exactly the ones the server documents. `--min` assertions
let the smoke job prove specific counters actually moved after its curl
round-trips — explicit counters, not timing inference.

Usage:
    python3 ci/check_metrics.py --file /tmp/metrics.txt \
        --min 'saturn_requests_total{route="analyze",status="2xx"}=4'
    python3 ci/check_metrics.py --self-test
"""

import argparse
import re
import sys

SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})? (?P<value>\S+)$"
)
LABEL = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"$')

# Every family crates/server/src/lib.rs documents, with its declared type.
EXPECTED_FAMILIES = {
    "saturn_requests_total": "counter",
    "saturn_queue_depth": "gauge",
    "saturn_cache_bytes": "gauge",
    "saturn_cache_entries": "gauge",
    "saturn_cache_hits_total": "counter",
    "saturn_cache_misses_total": "counter",
    "saturn_cache_evictions_total": "counter",
    "saturn_cache_disk_bytes": "gauge",
    "saturn_cache_disk_hits_total": "counter",
    "saturn_cache_disk_misses_total": "counter",
    "saturn_cache_disk_writes_total": "counter",
    "saturn_cache_disk_evictions_total": "counter",
    "saturn_cache_disk_corrupt_total": "counter",
    "saturn_cache_disk_errors_total": "counter",
    "saturn_jobs_executed_total": "counter",
    "saturn_jobs_completed_total": "counter",
    "saturn_jobs_cancelled_total": "counter",
    "saturn_jobs_panicked_total": "counter",
    "saturn_jobs_coalesced_total": "counter",
    "saturn_jobs_rejected_total": "counter",
    "saturn_jobs_deadline_rejected_total": "counter",
    "saturn_job_ewma_seconds": "gauge",
    "saturn_stream_sessions_open": "gauge",
    "saturn_stream_cache_bytes": "gauge",
    "saturn_stream_sessions_opened_total": "counter",
    "saturn_stream_sessions_expired_total": "counter",
    "saturn_stream_events_appended_total": "counter",
    "saturn_stream_refreshes_total": "counter",
    "saturn_stream_scales_reused_total": "counter",
    "saturn_stream_tiles_skipped_total": "counter",
    "saturn_stream_stale_refreshes_total": "counter",
    "saturn_sweep_tiles_total": "counter",
    "saturn_sweep_scales_total": "counter",
    "saturn_dp_trips_total": "counter",
    "saturn_dp_traversals_total": "counter",
    "saturn_dp_chain_offers_total": "counter",
    "saturn_dp_snap_entries_total": "counter",
    "saturn_dp_degree1_steps_total": "counter",
    "saturn_parse_seconds": "histogram",
    "saturn_handle_seconds": "histogram",
    "saturn_serialize_seconds": "histogram",
    "saturn_request_seconds": "histogram",
    "saturn_queue_wait_seconds": "histogram",
    "saturn_sweep_seconds": "histogram",
    "saturn_tile_seconds": "histogram",
}


class GateFailure(Exception):
    """A named, human-actionable gate violation."""


def require(condition, message):
    if not condition:
        raise GateFailure(message)


def family_of(name, types):
    """The declared family a sample name belongs to, accounting for the
    histogram suffixes."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        base = name.removesuffix(suffix)
        if base != name and types.get(base) == "histogram":
            return base
    return None


def parse(text):
    """Parses an exposition into (types, samples, sampled_families).

    types: family name -> declared type.
    samples: full sample key (name plus label set, verbatim) -> float value.
    sampled_families: set of family names that have at least one sample.
    """
    types = {}
    samples = {}
    sampled_families = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        where = f"line {lineno}: `{line}`"
        require(line.strip() == line and line, f"{where}: blank or padded line")
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            require(len(parts) == 4, f"{where}: malformed TYPE comment")
            _, _, name, kind = parts
            require(name not in types, f"{where}: duplicate TYPE for {name}")
            require(
                kind in ("counter", "gauge", "histogram"),
                f"{where}: unknown type {kind}",
            )
            types[name] = kind
            continue
        require(not line.startswith("#"), f"{where}: unknown comment form")
        m = SAMPLE.match(line)
        require(m, f"{where}: not `name[{{labels}}] value`")
        if m.group("labels"):
            inner = m.group("labels")[1:-1]
            for pair in inner.split(","):
                require(LABEL.match(pair), f"{where}: malformed label `{pair}`")
        try:
            value = float(m.group("value"))
        except ValueError:
            raise GateFailure(f"{where}: non-numeric value")
        name = m.group("name")
        family = family_of(name, types)
        require(
            family is not None,
            f"{where}: sample without a preceding TYPE declaration",
        )
        sampled_families.add(family)
        key = name + (m.group("labels") or "")
        require(key not in samples, f"{where}: duplicate sample {key}")
        samples[key] = value
    return types, samples, sampled_families


def check_histograms(types, samples):
    """Bucket consistency: `le` bounds increase, cumulative counts never
    decrease, `+Inf` equals `_count`, and `_sum` is present."""
    for name, kind in types.items():
        if kind != "histogram":
            continue
        buckets = []
        for key, value in samples.items():
            m = re.match(rf'^{re.escape(name)}_bucket{{le="([^"]+)"}}$', key)
            if m:
                bound = float("inf") if m.group(1) == "+Inf" else float(m.group(1))
                buckets.append((bound, value))
        require(buckets, f"{name}: no buckets")
        bounds = [b for b, _ in buckets]
        require(bounds == sorted(bounds), f"{name}: bucket bounds out of order")
        require(bounds[-1] == float("inf"), f"{name}: missing +Inf bucket")
        counts = [c for _, c in buckets]
        require(
            all(a <= b for a, b in zip(counts, counts[1:])),
            f"{name}: cumulative bucket counts decrease",
        )
        count = samples.get(f"{name}_count")
        require(count is not None, f"{name}: missing _count")
        require(f"{name}_sum" in samples, f"{name}: missing _sum")
        require(
            counts[-1] == count,
            f"{name}: +Inf bucket {counts[-1]} != _count {count}",
        )


def check_scrape(text, minimums=()):
    types, samples, sampled_families = parse(text)
    for family, kind in EXPECTED_FAMILIES.items():
        require(family in types, f"expected family {family} is missing")
        require(
            types[family] == kind,
            f"{family}: declared {types[family]}, expected {kind}",
        )
        require(family in sampled_families, f"{family}: declared but has no samples")
    for family in types:
        require(family in EXPECTED_FAMILIES, f"undocumented family {family}")
    check_histograms(types, samples)
    for spec in minimums:
        key, _, want = spec.rpartition("=")
        require(key and want, f"--min `{spec}`: expected `sample=value`")
        require(key in samples, f"--min {key}: sample not in scrape")
        require(
            samples[key] >= float(want),
            f"--min {key}: {samples[key]} < {want}",
        )
    return types, samples


# ---------------------------------------------------------------------------


def synthetic_scrape(hits=3.0, analyze=4.0, inf_count=2.0):
    """A minimal well-formed scrape covering every expected family."""
    lines = []
    for family, kind in EXPECTED_FAMILIES.items():
        lines.append(f"# HELP {family} test")
        lines.append(f"# TYPE {family} {kind}")
        if kind == "histogram":
            lines.append(f'{family}_bucket{{le="0.001"}} 1')
            lines.append(f'{family}_bucket{{le="+Inf"}} {inf_count:g}')
            lines.append(f"{family}_sum 0.5")
            lines.append(f"{family}_count {inf_count:g}")
        elif family == "saturn_requests_total":
            lines.append(
                f'saturn_requests_total{{route="analyze",status="2xx"}} {analyze:g}'
            )
            lines.append('saturn_requests_total{route="other",status="other"} 0')
        elif family == "saturn_cache_hits_total":
            lines.append(f"saturn_cache_hits_total {hits:g}")
        else:
            lines.append(f"{family} 0")
    return "\n".join(lines) + "\n"


def expect_failure(text, fragment, minimums=()):
    try:
        check_scrape(text, minimums)
    except GateFailure as failure:
        assert fragment in str(failure), f"wrong failure: {failure}"
        return
    raise AssertionError(f"gate accepted a scrape that should fail ({fragment})")


def self_test():
    good = synthetic_scrape()
    check_scrape(
        good,
        minimums=[
            'saturn_requests_total{route="analyze",status="2xx"}=4',
            "saturn_cache_hits_total=3",
            "saturn_job_ewma_seconds=0",
        ],
    )
    # minimum not met
    expect_failure(
        good,
        "< 5",
        minimums=['saturn_requests_total{route="analyze",status="2xx"}=5'],
    )
    # unknown sample name
    expect_failure(good + "mystery_metric 1\n", "without a preceding TYPE")
    # a declared family the server does not document (a labeled one here)
    expect_failure(
        good
        + "# TYPE saturn_mystery_depth gauge\n"
        + 'saturn_mystery_depth{queue="0"} 0\n',
        "undocumented family saturn_mystery_depth",
    )
    # non-numeric value
    expect_failure(good + "saturn_cache_hits_total x\n", "non-numeric")
    # missing family
    broken = good.replace("# TYPE saturn_queue_depth gauge\nsaturn_queue_depth 0\n", "")
    broken = broken.replace("# HELP saturn_queue_depth test\n", "")
    expect_failure(broken, "saturn_queue_depth is missing")
    # +Inf bucket disagreeing with _count
    broken = synthetic_scrape().replace(
        'saturn_sweep_seconds_bucket{le="+Inf"} 2', 'saturn_sweep_seconds_bucket{le="+Inf"} 1'
    )
    expect_failure(broken, "+Inf bucket")
    # decreasing cumulative counts
    broken = synthetic_scrape().replace(
        'saturn_tile_seconds_bucket{le="0.001"} 1', 'saturn_tile_seconds_bucket{le="0.001"} 9'
    )
    expect_failure(broken, "decrease")
    print("check_metrics self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--file", help="scrape of GET /v1/metrics to validate")
    ap.add_argument(
        "--min",
        action="append",
        default=[],
        metavar="SAMPLE=N",
        help="require a sample (labels verbatim) to be >= N; repeatable",
    )
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.file:
        ap.error("--file or --self-test required")
    with open(args.file, encoding="utf-8") as handle:
        text = handle.read()
    try:
        types, samples = check_scrape(text, args.min)
    except GateFailure as failure:
        print(f"check_metrics: FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print(
        f"check_metrics: OK — {len(types)} families, {len(samples)} samples, "
        f"{len(args.min)} minimum(s) held"
    )


if __name__ == "__main__":
    main()
