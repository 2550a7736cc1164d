"""Steadiness report: repeat the benchmark and summarise each end-to-end metric.

    python3 perfbench/steady.py --runs 10 --sets 2

Runs `run.py --trace 0` once per seed, one run at a time, each set on fresh
seeds, for every workload in BENCHMARK.json at its `run_seconds`.  For every
workload and end-to-end metric it prints the median, the quartiles, the
spread (q3 - q1) / median and the sample count of each set, and, for two or
more sets, how far each later set's median moved from the first set's in the
worse direction.  Each figure is compared with the metric's bound in
BENCHMARK.json: spreads should stay within a third of it and median shifts
within it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          check=True, cwd=ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def worse_shift(first: float, later: float, better: str) -> float:
    """Relative change of `later` against `first`, positive when worse."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    metrics = bench["end_to_end"]
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        medians: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for k in range(args.sets):
            seeds = range(args.first_seed + k * args.runs,
                          args.first_seed + (k + 1) * args.runs)
            results = [run_once(workload, seed, bench["run_seconds"]) for seed in seeds]
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            print(f"{workload} set {k + 1}: seeds {seeds.start}..{seeds.stop - 1}, "
                  f"{failed}/{attempted} operations failed")
            steady &= failed == 0
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                q1, med, q3, spread = summarise(values)
                medians[m["name"]].append(med)
                ok = spread <= m["bound"] / 3
                steady &= ok
                print(f"  {m['name']:<14} median={med:<12.6g} q1={q1:<12.6g} "
                      f"q3={q3:<12.6g} spread={spread:.4f} n={len(values)} "
                      f"bound={m['bound']} {'ok' if ok else 'TOO WIDE'}")
        for m in metrics:
            meds = medians[m["name"]]
            for k, med in enumerate(meds[1:], start=2):
                shift = worse_shift(meds[0], med, m["better"])
                ok = shift <= m["bound"]
                steady &= ok
                print(f"  {m['name']:<14} set {k} vs set 1: worse by {shift:+.4f} "
                      f"(bound {m['bound']}) {'ok' if ok else 'REGRESSED'}")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
