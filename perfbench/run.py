"""projlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload sharpness --seed 1 --seconds 40 --trace 0

Run from the repository root; projlab is imported from `src/`.  One process,
one thread, closed loop: a pass runs the workload's operations back to back
and passes repeat until `--seconds` is used up.  With `--trace 0` the last
stdout line is a JSON object with the end-to-end metrics; with `--trace 1`
it carries the per-layer metrics of a traced run instead.  Human-readable
lines with medians, quartiles and sample counts come before it.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads: the timings are single-threaded.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = {"full": 21, "tiny": 2}  # fresh interpreters timed per run for setup_s

# On a shared machine the speed drifts by tens of percent over minutes, and
# every timing moves with it.  A fixed kernel that does not touch projlab is
# timed between the passes, and the end-to-end times are scaled to the speed
# at which the kernel takes CAL_REF_S: the ratio to the kernel stays steady
# when the machine's speed does not.
CAL_REF_S = 0.011
CAL_SHARE = 0.05  # share of the run spent in the calibration kernel

# End-to-end metrics in the result line: (name, unit).
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("items_per_s", "1/s"),
              ("peak_rss_mb", "MB")]


def load_library():
    """Import projlab from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import projlab
    except ImportError as e:
        sys.exit(f"perfbench: cannot import projlab from {SRC}: {e}")
    if not Path(projlab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: projlab loaded from {projlab.__file__}, not {SRC}")
    return projlab


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sharpness", "esets", "entropy"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small instances, for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(pl) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "projlab": pl.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


def setup_probe(args):
    """A function that launches a fresh interpreter and returns the time from
    the launch to the end of the workload's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])

    def probe() -> float:
        t0 = perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        return float(done.stdout.split()[-1]) - t0
    return probe


@functools.cache
def _calibration_values():
    import numpy as np

    # Scrambled by the golden ratio; numpy.random would add its own pages
    # to peak_rss_mb on the workloads that never load it.
    return np.arange(1 << 15) * 0.6180339887498949 % 1.0


def calibration_kernel() -> float:
    """Seconds for a fixed mix of numpy sorting and searching and a Python
    loop, the two kinds of work projlab's layers do."""
    import numpy as np

    values = _calibration_values()
    t0 = perf_counter()
    ordered = np.sort(values)
    np.unique((ordered * 4096.0).astype(np.int64))
    np.searchsorted(ordered, values)
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return perf_counter() - t0


def run_pass(ops, tracer=None) -> dict:
    """One pass over the operations; checks run untimed after each one."""
    state: dict = {}
    wall = 0.0
    items = failed = 0
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            with tracer.op(op.name) if tracer else nullcontext():
                out = op.run(state)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            print(f"perfbench: {op.name} raised; the rest of the pass is skipped",
                  file=sys.stderr)
            return {"wall": wall, "items": items, "attempted": len(ops),
                    "failed": failed + len(ops) - i}
        wall += perf_counter() - t0
        items += out["items"]
        try:
            problems = op.check(out)
        except Exception as e:
            traceback.print_exc(file=sys.stderr)
            problems = [f"check raised {e!r}"]
        for p in problems:
            print(f"perfbench: {op.name}: {p}", file=sys.stderr)
        failed += bool(problems)
    return {"wall": wall, "items": items, "attempted": len(ops), "failed": failed}


def measure(ops, seconds: float, probe, probes: int, tracer=None):
    """Untraced passes until the time is used up (at least one).  With a
    tracer, each untraced pass is paired with a traced one.  The `probes`
    set-up launches and the calibration kernels are spread between the
    passes in proportion to the time used, so they sample the machine over
    the same span as the passes."""
    runs, setups, cal = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        res = run_pass(ops)
        if tracer is not None:
            with tracer.installed():
                res["traced"] = run_pass(ops, tracer)
            res["spans"] = tracer.take()
        res["elapsed"] = perf_counter() - t0
        runs.append(res)
        while len(setups) < probes * min(1.0, (perf_counter() - start) / seconds):
            setups.append(probe())
        while sum(cal) < CAL_SHARE * (perf_counter() - start):
            cal.append(calibration_kernel())
        typical = statistics.median(r["elapsed"] for r in runs)
        if perf_counter() - start + typical > seconds:
            while len(setups) < probes:
                setups.append(probe())
            return runs, setups, cal


def print_stat(name, values, unit):
    q1, med, q3 = quartiles(values)
    print(f"  {name:<28} {med:>14.6g} {unit:<6} q1={q1:.6g} q3={q3:.6g} n={len(values)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pl = load_library()
    import spans
    import workloads

    size = "tiny" if args.tiny else "full"
    if args.setup_probe:
        workloads.WORKLOADS[args.workload](args.seed, size)
        print(repr(perf_counter()))
        return 0

    print("env " + json.dumps(environment(pl), sort_keys=True))
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        with tracer.installed(), tracer.op("setup"):
            wl = workloads.WORKLOADS[args.workload](args.seed, size)
        traced_setup = tracer.take()
    else:
        wl = workloads.WORKLOADS[args.workload](args.seed, size)
    runs, setups, cal = measure(wl.ops, args.seconds, setup_probe(args),
                           SETUP_PROBES[size], tracer)
    passes = runs + [r["traced"] for r in runs if "traced" in r]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    walls = [r["wall"] for r in runs]
    rates = [r["items"] / r["wall"] for r in runs if r["wall"] > 0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed = CAL_REF_S / statistics.median(cal)

    print(f"workload={args.workload} seed={args.seed} size={size} "
          f"passes={len(runs)} ops/pass={len(wl.ops)} trace={args.trace}")
    print_stat("wall_s", walls, "s")
    print_stat("setup_s", setups, "s")
    print_stat("items_per_s", rates or [0.0], "1/s")
    print_stat("peak_rss_mb", [peak_rss_mb], "MB")
    print(f"  {'fail_ratio':<28} {failed / attempted:>14.6g} {'ratio':<6} "
          f"failed={failed} attempted={attempted}")
    print(f"  {'speed':<28} {speed:>14.6g} {'ratio':<6} calibration kernel "
          f"{statistics.median(cal) * 1e3:.4g} ms, reference {CAL_REF_S * 1e3:.4g} ms, "
          f"n={len(cal)}; times above are raw, the result line scales them")

    if tracer is None:
        values = {"wall_s": statistics.median(walls) * speed,
                  "setup_s": statistics.median(setups) * speed,
                  "items_per_s": statistics.median(rates) / speed if rates else 0.0,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        traced_walls = [r["traced"]["wall"] for r in runs]
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = spans.layer_metrics(traced_setup, [r["spans"] for r in runs], overhead)
        print("per-layer (traced passes: %d)" % len(runs))
        for name, m in metrics.items():
            print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
