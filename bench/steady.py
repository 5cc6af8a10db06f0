"""Steadiness check: run one workload N times with seeds S, S+1, ... and
print each end-to-end metric's median, quartiles and spread beside its bound.
Every run lasts BENCHMARK.json's run_seconds, the length the bounds apply to.

    python3 bench/steady.py --workload dense-mixed --runs 10 [--first-seed 1]

The spread is (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). A spread at or above the metric's bound in
BENCHMARK.json cannot tell a regression of that size from noise; the
benchmark aims for spreads below a third of their bound. The reported
figures are at reference speed; the spread of the raw ones is shown beside
them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    reported: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details = json.loads(
            (ROOT / "bench" / "out" / f"{args.workload}-seed{seed}-e2e.json").read_text()
        )
        shares.append(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            reported.setdefault(name, []).append(metric["value"])
            raw.setdefault(name, []).append(details["raw"][name])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s; failed share per run: "
          f"{sorted(set(shares))}")
    print(f"{'metric':14s} {'median':>10s} {'Q1':>10s} {'Q3':>10s} {'spread':>7s} "
          f"{'bound':>6s}  {'raw spread':>10s}")
    for name, values in reported.items():
        med, q1, q3, sp = spread(values)
        bound = bounds.get(name, float("nan"))
        flag = "" if sp < bound / 3 else "  above bound/3" if sp < bound else "  ABOVE BOUND"
        print(f"{name:14s} {med:10.5g} {q1:10.5g} {q3:10.5g} {sp:7.3f} {bound:6.3f}  "
              f"{spread(raw[name])[3]:10.3f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
