"""The benchmark's workloads: seeded inputs, timed operations, output checks.

A workload object builds its inputs when constructed; that is the set-up
the benchmark times.  `ops` lists the operations a pass runs back to back.
Each operation calls projlab's public entry points the way the matching CLI
subcommand does and returns the record JSON that subcommand would print,
the number of work items it completed, and whatever its check needs.  A
check returns a list of problems; it runs outside the timed region.

Exact results are compared with values frozen in expected.json; the seeded
inputs are checked only by identities and by the pure-Python references.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import projlab as pl
import reference as ref

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())

# Sizes: the benchmark runs "full"; "tiny" keeps the benchmark's own tests fast.
SHARPNESS_TRIPLES = {  # (a, s, b, project the full set K)
    "full": [(16, "3/4", 12, False), (14, "3/4", 13, True), (16, "5/8", 16, True)],
    "tiny": [(8, "3/4", 6, False), (8, "3/4", 8, True), (8, "5/8", 8, True)],
}
ESETS = {  # (a, s, b, sweep)
    "full": (12, "3/4", 10, 4096),
    "tiny": (8, "3/4", 6, 256),
}
ENTROPY = {  # (L, marstrand m, multiscale m, cef fine, cef coarse, adreg p list)
    "full": (6, 10, 2, 12, 6, [2, 8, 16]),
    "tiny": (3, 5, 2, 6, 3, [2, 8, 16]),
}
ADREG_S = 0.75
SAMPLES = 3  # directions or slopes per operation checked against the references


@dataclass
class Op:
    name: str
    run: Callable[[dict], dict]  # shared pass state -> outputs
    check: Callable[[dict], list[str]]  # outputs -> problems


def _triple(a: int, s: str, b: int) -> pl.ParamTriple:
    return pl.ParamTriple(pl.Scale(a), Fraction(s), b)


def _pset_round_trip(ps: pl.LatticePointSet) -> pl.LatticePointSet:
    buf = io.StringIO()
    pl.write_pset(ps, buf)
    buf.seek(0)
    return pl.read_pset(buf)


def _expect(problems: list[str], label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _hard_assertions(problems: list[str], rec: pl.ExperimentRecord) -> None:
    for a in rec.assertions:
        if a.status == "fail":
            problems.append(f"hard assertion {a.name} failed in {rec.name}")


def _check_cover(problems, label, sorted_values, width, library_count) -> None:
    want = ref.greedy_cover_count(list(sorted_values), width)
    _expect(problems, f"{label} cover count vs reference", library_count, want)


def esets_record(es, params: pl.ParamTriple, n_cov: int) -> pl.ExperimentRecord:
    """The record `projlab esets` prints for this sweep."""
    kaufman_target = min(
        params.delta_pow(-params.s) * math.sqrt(params.delta / params.r),
        1.0 / params.r,
    )
    rec = pl.ExperimentRecord(
        "esets",
        params={
            "log2delta": params.a,
            "log2r": params.b,
            "s": str(params.s),
            "sweep": len(es.sweep_thetas),
        },
        results={
            "threshold": es.threshold,
            "n_members": len(es.members),
            "covering_at_r": n_cov,
            "target": kaufman_target,
            "ratio_to_target": (n_cov / kaufman_target) if kaufman_target else None,
            "member_arcs": es.member_arcs(),
        },
    )
    rec.soft("covering_vs_target", n_cov, kaufman_target)
    return rec


class Sharpness:
    """Three `projlab sharpness` runs: the flagship without the full-set
    covering sweep, and two smaller triples with it."""

    def __init__(self, seed: int, size: str = "full"):
        self.rng = random.Random(seed)
        self.expected = EXPECTED[size]["sharpness"]
        self.triples = [(_triple(a, s, b), full, f"{a},{s},{b}")
                        for a, s, b, full in SHARPNESS_TRIPLES[size]]
        # The full sets K the covering check projects again, built by the
        # first check that needs one: the program's own set-up builds none.
        self.full_sets: dict[str, pl.LatticePointSet] = {}
        self.ops = [
            Op(f"run_sharpness({key})", self._runner(p, full),
               self._checker(p, key, full))
            for p, full, key in self.triples
        ]

    @staticmethod
    def _runner(params, full):
        def run(state):
            report = pl.run_sharpness(params, project_full_set=full)
            return {"report": report, "json": report.record.to_json(),
                    "items": report.slope_count}
        return run

    def _checker(self, params, key, full):
        def check(out):
            problems: list[str] = []
            rep = out["report"]
            want = self.expected[key]
            for field in ("slope_count", "max_proj_cardinality", "covering_max_K"):
                _expect(problems, f"{key} {field}", getattr(rep, field), want[field])
            _hard_assertions(problems, rep.record)
            _expect(problems, f"{key} printed slope_count",
                    json.loads(out["json"])["results"]["slope_count"], want["slope_count"])
            spec = pl.grid_parameters(params)
            for num, den, hits, pc in self.rng.sample(rep.per_slope, SAMPLES):
                _expect(problems, f"{key} slope {num}/{den} cardinality", pc,
                        ref.distinct_keys(spec.m, spec.n_g, num, den))
                _expect(problems, f"{key} slope {num}/{den} line hits", hits,
                        ref.line_hits(spec.m, spec.n_g, num, den))
            if full:
                if key not in self.full_sets:
                    self.full_sets[key] = pl.gen_grid_example(params)
                K = self.full_sets[key]
                for num, den, _, _ in self.rng.sample(rep.per_slope, SAMPLES):
                    e = pl.perpendicular_direction(Fraction(num, den))
                    vals = pl.project(K, e).values
                    count = pl.covering_number_1d(vals, params.delta)
                    _check_cover(problems, f"{key} slope {num}/{den}", vals,
                                 params.delta, count)
                    if count > rep.covering_max_K:
                        problems.append(f"{key} slope {num}/{den} covers above the max")
            return problems
        return check


class Esets:
    """`projlab esets` and `projlab incidence` on the grid3 set, read back
    from PSET text, and the same sweep on a seeded random set of equal size."""

    def __init__(self, seed: int, size: str = "full"):
        a, s, b, self.sweep = ESETS[size]
        self.params = _triple(a, s, b)
        self.rng = random.Random(seed)
        self.expected = EXPECTED[size]["esets"]
        self.grid = _pset_round_trip(pl.gen_grid_example(self.params))
        cells = np.random.default_rng(seed).choice(
            1 << (2 * a), size=len(self.grid), replace=False)
        self.random = _pset_round_trip(pl.LatticePointSet(
            pl.Scale(a), np.column_stack([cells >> a, cells & ((1 << a) - 1)])))
        self.ops = [
            Op("esets grid3", self._esets_runner(self.grid, "es"),
               self._esets_checker(self.grid, frozen=True)),
            Op("incidence grid3", self._incidence, self._incidence_check),
            Op("esets random", self._esets_runner(self.random, None),
               self._esets_checker(self.random, frozen=False)),
        ]

    def _esets_runner(self, ps, keep):
        def run(state):
            es = pl.compute_E_s(ps, self.params, sweep=self.sweep)
            n_cov = pl.covering_number_directions(es, self.params.r)
            rec = esets_record(es, self.params, n_cov)
            if keep:
                state[keep] = es
            return {"es": es, "record": rec, "json": rec.to_json(),
                    "items": len(es.sweep_thetas)}
        return run

    def _esets_checker(self, ps, frozen):
        def check(out):
            problems: list[str] = []
            es, rec = out["es"], out["record"]
            _hard_assertions(problems, rec)
            if frozen:
                _expect(problems, "n_members", rec.results["n_members"],
                        self.expected["n_members"])
                _expect(problems, "covering_at_r", rec.results["covering_at_r"],
                        self.expected["covering_at_r"])
            _expect(problems, "printed n_members",
                    json.loads(out["json"])["results"]["n_members"], len(es.members))
            _expect(problems, "sweep size", len(es.sweep_thetas), self.sweep)
            t_int = self.params.floor_delta_pow(self.params.s)
            members = [i for i, ok in enumerate(es.sweep_is_member) if ok]
            others = [i for i, ok in enumerate(es.sweep_is_member) if not ok]
            picks = (self.rng.sample(members, min(SAMPLES, len(members)))
                     + self.rng.sample(others, min(SAMPLES, len(others))))
            for i in picks:
                theta = float(es.sweep_thetas[i])
                vals = ref.projection_values(ps.points, self.params.delta, theta)
                want = min(ref.greedy_cover_count(vals, self.params.delta), t_int + 1)
                _expect(problems, f"sweep {i} count vs reference",
                        int(es.sweep_counts[i]), want)
                _expect(problems, f"sweep {i} membership",
                        bool(es.sweep_is_member[i]), want <= t_int)
            return problems
        return check

    def _incidence(self, state):
        tubes = pl.build_tubes(self.grid, state["es"])
        rec = pl.upper_bound_report(self.grid, tubes, self.params)
        return {"tubes": tubes, "record": rec, "json": rec.to_json(), "items": 0}

    def _incidence_check(self, out):
        problems: list[str] = []
        tubes, rec = out["tubes"], out["record"]
        _hard_assertions(problems, rec)
        _expect(problems, "n_tubes", tubes.total, self.expected["n_tubes"])
        _expect(problems, "incidences == |P| * #directions", rec.results["incidences"],
                len(self.grid) * len(tubes.directions))
        for d in self.rng.sample(tubes.directions, min(SAMPLES, len(tubes.directions))):
            vals = pl.project(self.grid, d).values
            _check_cover(problems, f"tubes at {d.theta!r}", vals,
                         self.params.delta, len(tubes.starts[d.theta]))
        return problems


class Entropy:
    """The four-corners measure through regularity, the Marstrand average,
    the multiscale check at a seeded direction, conditional entropy and the
    adreg table, called as `projlab entropy` and `projlab adreg` would."""

    def __init__(self, seed: int, size: str = "full"):
        (self.L, self.m_marstrand, self.m_multi, self.fine, self.coarse,
         self.p_list) = ENTROPY[size]
        self.rng = random.Random(seed)
        self.expected = EXPECTED[size]["entropy"]
        self.theta = self.rng.uniform(0.0, math.pi)
        self.mu = pl.from_pointset(pl.gen_four_corners(self.L, pl.Scale(2 * self.L)))
        self.ops = [
            Op("regularity", self._regularity, self._regularity_check),
            Op("marstrand", self._marstrand, self._marstrand_check),
            Op("multiscale", self._multiscale, self._record_check),
            Op("cef", self._cef, self._record_check),
            Op("adreg", self._adreg, self._adreg_check),
        ]

    def _regularity(self, state):
        state["regularity"] = pl.ad_regularity_check(self.mu)
        return {"report": state["regularity"], "items": 0}

    def _regularity_check(self, out):
        problems: list[str] = []
        adr = out["report"]
        if not (math.isfinite(adr.A) and adr.A >= 1.0):
            problems.append(f"regularity constant A={adr.A!r} is not finite and >= 1")
        _expect(problems, "atoms at the finest level",
                adr.per_level_counts[self.mu.level], len(self.mu))
        return problems

    def _marstrand(self, state):
        rec = pl.marstrand_average(self.mu, self.m_marstrand, A=state["regularity"].A)
        return {"record": rec, "json": rec.to_json(), "items": 1 << self.m_marstrand}

    def _marstrand_check(self, out):
        problems: list[str] = []
        rec = out["record"]
        _hard_assertions(problems, rec)
        res = rec.results
        if not (0.0 <= res["per_direction_min"] <= res["average_normalized_entropy"]
                <= res["per_direction_max"]):
            problems.append("marstrand average outside its per-direction range")
        m = self.m_marstrand
        dirs = pl.direction_grid(1 << m)
        centers = self.mu.centers().tolist()
        for e in self.rng.sample(dirs, SAMPLES):
            _expect(problems, f"projected bins at {e.theta!r}",
                    len(pl.project_measure(self.mu, e, m)),
                    ref.projected_bins(centers, e.theta, m))
        return problems

    def _multiscale(self, state):
        rec = pl.multiscale_check(self.mu, pl.Direction(self.theta), self.m_multi)
        return {"record": rec, "json": rec.to_json(), "items": 1}

    def _record_check(self, out):
        problems: list[str] = []
        _hard_assertions(problems, out["record"])
        return problems

    def _cef(self, state):
        direct = pl.conditional_entropy(self.mu, self.fine, self.coarse)
        diff = pl.entropy(self.mu, self.fine).raw - pl.entropy(self.mu, self.coarse).raw
        rec = pl.ExperimentRecord(
            "entropy_conditional",
            params={"fine": self.fine, "coarse": self.coarse},
            results={"direct": direct, "difference": diff},
        )
        rec.check("conditional_entropy_identity", abs(direct - diff) <= 1e-9, direct, diff)
        return {"record": rec, "json": rec.to_json(), "items": 0}

    def _adreg(self, state):
        rec = pl.theorem_main2_experiment(self.L, self.p_list, ADREG_S)
        adr = state["regularity"]
        rec.results["A_lower"] = adr.A_lower
        rec.results["A_upper"] = adr.A_upper
        rec.results["A"] = adr.A
        rec.results["per_level_counts"] = {
            str(k): v for k, v in adr.per_level_counts.items()}
        return {"record": rec, "json": rec.to_json(), "items": sum(self.p_list)}

    def _adreg_check(self, out):
        problems: list[str] = []
        rec = out["record"]
        _hard_assertions(problems, rec)
        _expect(problems, "adreg table", rec.results["table"],
                self.expected["adreg_table"])
        ps = pl.gen_four_corners(self.L, pl.Scale(2 * self.L))
        p = max(self.p_list)
        for e in self.rng.sample(pl.direction_grid(p), SAMPLES):
            prof = pl.project(ps, e)
            _check_cover(problems, f"adreg direction {e.theta!r}", prof.values,
                         ps.scale.delta, pl.covering_number_1d(prof.values, ps.scale.delta))
        return problems


WORKLOADS = {"sharpness": Sharpness, "esets": Esets, "entropy": Entropy}
