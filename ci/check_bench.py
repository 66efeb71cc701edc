#!/usr/bin/env python3
"""CI gate over BENCH_sweep.json: per-section schema validation.

The sweep bench is the repository's perf trajectory record *and* its
cross-engine correctness oracle: every workload scale carries a hard
checksum comparison of the current engine against the retained baseline
engine, the intra_scale section one of tiled vs untiled runs, and the
streaming section a refresh-vs-scratch report comparison, which must all
hold — a divergence is a correctness bug, not benchmark noise. The sink
section's trip
and rate counts must be consistent (`0 < distinct_rates <= trips`); its
timings are not gated. This script fails loudly, naming the workload and
scale that diverged, if any section is missing, any checksum mismatches,
or a section's shape degenerates (empty scale lists, zero timings).

Usage:
    python3 ci/check_bench.py --file /tmp/bench_sweep.json
    python3 ci/check_bench.py --self-test
"""

import argparse
import json
import sys

WORKLOADS = ("dense_uniform", "sparse_ring", "sparse_burst")


class GateFailure(Exception):
    """A named, human-actionable gate violation."""


def require(condition, message):
    if not condition:
        raise GateFailure(message)


def section(bench, name):
    require(name in bench, f"section `{name}` is missing from the bench JSON")
    return bench[name]


def check_workloads(bench):
    """The per-workload pipeline sections: legacy vs current per scale,
    results checked equal at every scale."""
    for workload in WORKLOADS:
        rows = section(bench, workload).get("per_scale")
        require(rows, f"{workload}: per_scale is missing or empty")
        require(
            bench[workload].get("checksums_match") is True,
            f"{workload}: current vs baseline engine checksum mismatch",
        )
        for row in rows:
            k = row.get("k")
            require(
                row.get("checksum_match") is True,
                f"{workload} k={k}: current vs baseline checksum diverged",
            )
            require(
                row.get("current_pipeline_seconds", 0) > 0,
                f"{workload} k={k}: current_pipeline_seconds must be > 0",
            )
            require(
                row.get("legacy_pipeline_seconds", 0) > 0,
                f"{workload} k={k}: legacy_pipeline_seconds must be > 0",
            )


def check_intra_scale(bench):
    """Target tiling: checksums and shape."""
    intra = section(bench, "intra_scale")
    require(
        intra.get("checksums_match") is True,
        "intra_scale: tiled vs untiled checksum mismatch",
    )
    require(intra.get("tile_sensitivity"), "intra_scale: no tile sensitivity points")
    require(
        intra.get("single_scale_threads"), "intra_scale: no single-scale thread points"
    )


def check_streaming(bench):
    """Streaming ingest refresh: a session's warm incremental refresh must
    reproduce the scratch sweep byte-identically at every append round, and
    it must actually be faster — a session cache that loses to scratch (or
    never reuses a scale) is a regression in the whole streaming API's
    reason to exist."""
    streaming = section(bench, "streaming")
    require(
        streaming.get("reports_identical") is True,
        "streaming: refresh vs scratch report mismatch",
    )
    require(
        streaming.get("speedup", 0) > 1.0,
        "streaming: warm refresh must beat the scratch sweep (speedup <= 1)",
    )
    require(
        streaming.get("scales_reused", 0) >= 1,
        "streaming: no scales reused across refreshes",
    )
    rounds = streaming.get("per_round")
    require(rounds, "streaming: per_round is missing or empty")
    for row in rounds:
        where = f"streaming: round {row.get('round')}"
        require(
            row.get("reports_identical") is True,
            f"{where}: refresh report diverged from scratch",
        )
        require(
            row.get("refresh_seconds", 0) > 0,
            f"{where}: refresh_seconds must be > 0",
        )
        require(
            row.get("scratch_seconds", 0) > 0,
            f"{where}: scratch_seconds must be > 0",
        )


def check_sink(bench):
    """Trip sink: per-workload per-scale trip and rate counts. Timings are
    recorded, not gated."""
    sink = section(bench, "sink")
    for workload in WORKLOADS:
        rows = sink.get(workload)
        require(rows, f"sink: section has no {workload} scales")
        for row in rows:
            where = f"sink: {workload} k={row.get('k')}"
            for field in (
                "trips",
                "distinct_rates",
                "histogram_seconds",
                "null_sink_seconds",
                "trips_per_s",
            ):
                require(field in row, f"{where}: `{field}` is missing")
            trips = row["trips"]
            require(trips > 0, f"{where}: trips must be > 0")
            require(
                0 < row["distinct_rates"] <= trips,
                f"{where}: distinct_rates must lie in (0, trips]",
            )


CHECKS = (check_workloads, check_intra_scale, check_sink, check_streaming)


def run_gate(bench):
    for check in CHECKS:
        check(bench)


def self_test():
    """The gate must reject every class of violation it exists to catch."""
    with open("BENCH_sweep.json", encoding="utf-8") as f:
        good = json.load(f)
    run_gate(good)  # the committed record must itself pass

    def failing(mutate, expect):
        bench = json.loads(json.dumps(good))
        mutate(bench)
        try:
            run_gate(bench)
        except GateFailure as e:
            assert expect in str(e), f"wrong message: {e!r} (wanted {expect!r})"
        else:
            raise AssertionError(f"gate accepted a bench violating: {expect}")

    failing(lambda b: b.pop("intra_scale"), "`intra_scale` is missing")
    failing(
        lambda b: b["sparse_ring"]["per_scale"][0].update(checksum_match=False),
        "current vs baseline checksum diverged",
    )
    failing(
        lambda b: b["dense_uniform"].update(checksums_match=False),
        "current vs baseline engine checksum mismatch",
    )
    failing(
        lambda b: b["intra_scale"].update(checksums_match=False),
        "tiled vs untiled checksum mismatch",
    )
    failing(
        lambda b: b["sparse_burst"].update(per_scale=[]),
        "per_scale is missing or empty",
    )
    failing(lambda b: b.pop("sink"), "`sink` is missing")
    failing(
        lambda b: b["sink"]["sparse_ring"][0].update(
            distinct_rates=b["sink"]["sparse_ring"][0]["trips"] + 1
        ),
        "distinct_rates must lie in (0, trips]",
    )
    failing(lambda b: b.pop("streaming"), "`streaming` is missing")
    failing(
        lambda b: b["streaming"].update(reports_identical=False),
        "refresh vs scratch report mismatch",
    )
    failing(
        lambda b: b["streaming"].update(speedup=0.97),
        "warm refresh must beat the scratch sweep",
    )
    failing(
        lambda b: b["streaming"].update(scales_reused=0),
        "no scales reused",
    )
    failing(
        lambda b: b["streaming"]["per_round"][0].update(reports_identical=False),
        "refresh report diverged from scratch",
    )
    failing(
        lambda b: b["streaming"]["per_round"][1].update(refresh_seconds=0),
        "refresh_seconds must be > 0",
    )
    failing(lambda b: b["streaming"].update(per_round=[]), "per_round is missing or empty")
    print("check_bench self-test: all violation classes rejected")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--file",
        default="BENCH_sweep.json",
        help="bench JSON to validate (default: the committed BENCH_sweep.json)",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the gate rejects known-bad mutations of the committed record",
    )
    args = parser.parse_args()
    if args.self_test:
        self_test()
        return
    with open(args.file, encoding="utf-8") as f:
        bench = json.load(f)
    try:
        run_gate(bench)
    except GateFailure as e:
        print(f"check_bench: FAIL: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench: {args.file} passes all section gates")


if __name__ == "__main__":
    main()
