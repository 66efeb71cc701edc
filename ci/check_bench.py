#!/usr/bin/env python3
"""CI gate over BENCH_sweep.json: per-section schema validation.

The sweep bench is the repository's perf trajectory record *and* its
cross-engine correctness oracle: the intra_scale and delta sections each
carry hard checksum comparisons (tiled vs untiled, delta-on vs delta-off)
and the streaming section a refresh-vs-scratch report comparison, which
must all hold — a divergence is a correctness bug in an execution knob that claims to be
invisible, not benchmark noise. This script fails loudly, naming the
workload and scale that diverged, if any section is missing, any checksum
mismatches, or a section's shape degenerates (empty scale lists, zero
timings).

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
    """The per-workload pipeline sections: legacy vs current per scale."""
    for workload in WORKLOADS:
        rows = section(bench, workload).get("per_scale")
        require(rows, f"{workload}: per_scale is missing or empty")
        for row in rows:
            k = row.get("k")
            require(
                row.get("current_pipeline_seconds", 0) > 0,
                f"{workload} k={k}: current_pipeline_seconds must be > 0",
            )
            require(
                row.get("legacy_pipeline_seconds", 0) > 0,
                f"{workload} k={k}: legacy_pipeline_seconds must be > 0",
            )


def check_intra_scale(bench):
    """Target tiling + degree-1 fast path: checksums and shape."""
    intra = section(bench, "intra_scale")
    require(
        intra.get("checksums_match") is True,
        "intra_scale: tiled vs untiled checksum mismatch",
    )
    require(intra.get("tile_sensitivity"), "intra_scale: no tile sensitivity points")
    require(
        intra.get("single_scale_threads"), "intra_scale: no single-scale thread points"
    )
    degree1 = intra.get("degree1") or {}
    require(
        degree1.get("fast_path_seconds", 0) > 0,
        "intra_scale.degree1: fast_path_seconds must be > 0",
    )
    require(
        degree1.get("single_edge_steps", 0) > 0,
        "intra_scale.degree1: no single-edge steps measured",
    )


def check_delta(bench):
    """Delta propagation ablation: per-workload per-scale checksums."""
    delta = section(bench, "delta")
    require(
        delta.get("checksums_match") is True,
        "delta: delta-on vs delta-off checksum mismatch",
    )
    for workload in WORKLOADS:
        rows = delta.get(workload)
        require(rows, f"delta: section has no {workload} scales")
        for row in rows:
            k = row.get("k")
            require(
                row.get("checksum_match") is True,
                f"delta: {workload} k={k} checksum diverged",
            )
            require(
                row.get("delta_on_seconds", 0) > 0,
                f"delta: {workload} k={k} delta_on_seconds must be > 0",
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


CHECKS = (check_workloads, check_intra_scale, check_delta, check_streaming)


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

    failing(lambda b: b.pop("delta"), "`delta` is missing")
    failing(lambda b: b.pop("intra_scale"), "`intra_scale` is missing")
    failing(
        lambda b: b["delta"]["sparse_ring"][0].update(checksum_match=False),
        "checksum diverged",
    )
    failing(
        lambda b: b["intra_scale"].update(checksums_match=False),
        "tiled vs untiled checksum mismatch",
    )
    failing(
        lambda b: b["sparse_burst"].update(per_scale=[]),
        "per_scale is missing or empty",
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
