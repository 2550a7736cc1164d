"""Tests of the benchmark itself, on tiny instances."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for p in (ROOT / "src", BENCH_DIR):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))

import projlab as pl  # noqa: E402
from projlab import cli  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    human = "\n".join(lines[:-1])
    for name in ("wall_s", "setup_s", "items_per_s", "peak_rss_mb", "fail_ratio"):
        assert name in human
    assert '"OPENBLAS_NUM_THREADS": "1"' in human


def test_declared_per_layer_metrics_match_the_tracer():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(spans.metric_units())


@pytest.mark.parametrize("index", [0, 1, 2])
def test_sharpness_op_prints_what_the_cli_prints(tmp_path, index):
    a, s, b, full = workloads.SHARPNESS_TRIPLES["tiny"][index]
    out = workloads.Sharpness(seed=0, size="tiny").ops[index].run({})
    dest = tmp_path / "sharpness.json"
    argv = ["sharpness", "--log2delta", str(a), "--s", s, "--log2r", str(b),
            "--out", str(dest)] + ([] if full else ["--skip-full-set"])
    assert cli.main(argv) == 0
    assert dest.read_text() == out["json"]


def test_esets_and_incidence_ops_print_what_the_cli_prints(tmp_path):
    wl = workloads.Esets(seed=0, size="tiny")
    a, s, b, sweep = workloads.ESETS["tiny"]
    pset = tmp_path / "grid3.pset"
    with open(pset, "w") as f:
        pl.write_pset(wl.grid, f)
    state: dict = {}
    for op, cmd in zip(wl.ops[:2], ["esets", "incidence"]):
        out = op.run(state)
        dest = tmp_path / f"{cmd}.json"
        argv = [cmd, "--in", str(pset), "--log2delta", str(a), "--s", s,
                "--log2r", str(b), "--sweep", str(sweep), "--out", str(dest)]
        assert cli.main(argv) == 0
        assert dest.read_text() == out["json"]


def test_checks_flag_wrong_outputs():
    sharp = workloads.Sharpness(seed=0, size="tiny")
    op = sharp.ops[1]
    out = op.run({})
    assert op.check(out) == []
    out["report"].per_slope[:] = [(n, d, h, pc + 1) for n, d, h, pc in out["report"].per_slope]
    assert any("cardinality" in p for p in op.check(out))

    esets = workloads.Esets(seed=0, size="tiny")
    op = esets.ops[2]
    out = op.run({})
    assert op.check(out) == []
    out["es"].sweep_counts[:] -= 1
    assert any("vs reference" in p for p in op.check(out))


def test_tracer_restores_the_library():
    original = pl.projections.project
    tracer = spans.Tracer()
    with tracer.installed():
        assert pl.sharpness.project is not original
        with tracer.op("probe"):
            pl.project(pl.gen_segment(pl.Scale(4)), pl.Direction(0.5))
    assert pl.sharpness.project is original and pl.projections.project is original
    agg = tracer.take()
    assert agg["calls"]["projections.project"] == 1
    assert agg["calls"]["projections.cover"] == 1
    assert agg["counts"]["projections.cover_values"] == 16
