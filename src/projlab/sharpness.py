"""Worst-case pipeline: exact slope family of the grid example and its
small-projection verification.

For valid (delta, s, r) with delta <= r <= delta^s, the grid-of-segments set
admits a family of slopes

    S = { l / (k n_g) : 1 <= k <= delta^s/r,
                        0 <= l <= k * delta^(-3s+1/2) r^(3/2) }

whose members are pairwise r-separated (an exact integrality statement:
|l1 k2 - l2 k1| < 1 forces equality) and number at least about
delta^-s (delta/r)^(1/2).  Projecting the grid G perpendicular to any slope
in S yields at most about delta^-s distinct values, via the sum-set bound

    |proj(A1 x A2)| * |line cap (A1 x A2)| <= 4 |A1| |A2|.

Everything in this module is exact: slopes are `Fraction`s, separations are
compared by cross-multiplication, and distinct projected values are counted
as integer keys l*den - num*k*n_g over a shared denominator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    ExactSlope,
    InvalidParameterError,
    ParamTriple,
    floor_pow2,
    perpendicular_direction,
)
from .pointsets import GridSpec, gen_grid_example, grid_parameters
from .projections import project
from .records import ExperimentRecord


@dataclass(frozen=True)
class SlopeSet:
    params: ParamTriple
    slopes: list[ExactSlope]  # sorted, deduplicated, exact
    k_max: int  # floor(delta^s / r)
    l_bound_factor: Fraction  # delta^(-3s+1/2) r^(3/2), exact power of two

    def __len__(self) -> int:
        return len(self.slopes)


def _slope_grid_data(
    params: ParamTriple, exploratory: bool = False
) -> tuple[GridSpec, int, Fraction]:
    spec = grid_parameters(params)
    a, b, s = params.a, params.b, params.s
    if b < a * s:
        if not exploratory:
            raise InvalidParameterError(
                f"r = 2^-{b} exceeds delta^s = 2^-({a * s}): slope family needs "
                "delta <= r <= delta^s"
            )
        k_max = 1  # exploratory: keep the k = 1 row, no claims attached
    else:
        k_max = floor_pow2(b - a * s)
    l_exp = a - 3 * spec.e_m  # delta^(-3s+1/2) r^(3/2) = 2^(a - 3 e_m)
    l_bound_factor = (
        Fraction(1 << l_exp) if l_exp >= 0 else Fraction(1, 1 << (-l_exp))
    )
    return spec, k_max, l_bound_factor


def build_slope_set(params: ParamTriple, exploratory: bool = False) -> SlopeSet:
    """Enumerate all admissible (k, l), reduce, deduplicate, sort."""
    spec, k_max, l_bound_factor = _slope_grid_data(params, exploratory)
    n_g = spec.n_g
    slopes = set()
    for k in range(1, k_max + 1):
        l_max = int(k * l_bound_factor)  # floor, exact
        kn = k * n_g
        for l in range(l_max + 1):
            slopes.add(Fraction(l, kn))
    return SlopeSet(params, sorted(slopes), k_max, l_bound_factor)


def verify_separation(S: SlopeSet) -> bool:
    """Consecutive distinct slopes differ by at least r, compared exactly."""
    r = Fraction(1, 1 << S.params.b)
    sl = S.slopes
    return all(sl[i + 1] - sl[i] >= r for i in range(len(sl) - 1))


def count_line_hits(G_params: ParamTriple, slope: ExactSlope) -> int:
    """|G cap line through the origin with the given slope|, exact.

    Counts columns k' in [0, m) whose line point (k'/m, slope * k'/m) lands
    on a grid row, i.e. l' = k' * n_g * slope is an integer in [0, n_g).
    """
    spec = grid_parameters(G_params)
    sigma = Fraction(slope)
    hits = 0
    for kp in range(spec.m):
        lp = kp * spec.n_g * sigma
        if lp.denominator == 1 and 0 <= lp.numerator < spec.n_g:
            hits += 1
    return hits


def projected_cardinality(G_params: ParamTriple, slope: ExactSlope) -> int:
    """Number of distinct values of the functional y - slope*x over the grid
    G, counted exactly via integer keys over the shared denominator."""
    spec = grid_parameters(G_params)
    sigma = Fraction(slope)
    num, den = sigma.numerator, sigma.denominator
    m, n_g = spec.m, spec.n_g
    # keys l*den - num*k*n_g; check int64 headroom before going through numpy
    bound = n_g * den + num * m * n_g
    if bound < (1 << 62):
        l_keys = np.arange(n_g, dtype=np.int64) * den
        k_keys = np.arange(m, dtype=np.int64) * (num * n_g)
        return len(np.unique((l_keys[None, :] - k_keys[:, None]).ravel()))
    return len({l * den - num * k * n_g for k in range(m) for l in range(n_g)})


@dataclass
class SharpnessReport:
    params: ParamTriple
    slope_count: int
    target: float  # delta^-s (delta/r)^(1/2)
    separation_ok: bool
    max_proj_cardinality: int
    proj_target: float  # delta^-s
    line_hit_min: int
    segment_proj_max: Fraction  # max over S of slope * h, exact
    covering_max_K: int | None  # max over S of N(proj of K, delta), if computed
    per_slope: list[tuple[int, int, int, int]]  # (num, den, line_hits, proj_card)
    record: ExperimentRecord = field(repr=False, default=None)


def run_sharpness(
    params: ParamTriple,
    exploratory: bool = False,
    project_full_set: bool = True,
) -> SharpnessReport:
    """Full worst-case verification at one parameter triple.

    Hard assertions (exact statements): r-separation of S, the grid
    projection bound per slope, and max slope * h <= delta.  Soft reports:
    the slope-count constant against delta^-s (delta/r)^(1/2) and the
    covering constant of the full set K against delta^-s.

    Outside delta <= r <= delta^s the slope family is not defined; with
    `exploratory` the run proceeds for r > delta^s without any assertions,
    otherwise that range is rejected.
    """
    a, b, s = params.a, params.b, params.s
    if b < a * s and not exploratory:
        raise InvalidParameterError(
            f"r = 2^-{b} > delta^s = 2^-({a * s}); the construction is only "
            "claimed for delta <= r <= delta^s (pass exploratory=True to poke around)"
        )
    spec = grid_parameters(params)
    S = build_slope_set(params, exploratory=exploratory)
    sep_ok = verify_separation(S)
    G_size = spec.m * spec.n_g

    per_slope = []
    lemma_ok = True
    for sigma in S.slopes:
        hits = count_line_hits(params, sigma)
        pc = projected_cardinality(params, sigma)
        lemma_ok &= pc * max(hits, 1) <= 4 * G_size
        per_slope.append((sigma.numerator, sigma.denominator, hits, pc))

    target = params.delta_pow(-s) * math.sqrt(params.delta / params.r)
    proj_target = params.delta_pow(-s)
    max_pc = max(pc for _, _, _, pc in per_slope)
    min_hits = min(h for _, _, h, _ in per_slope)
    seg_proj_max = S.slopes[-1] * spec.h
    delta_exact = Fraction(1, 1 << a)
    # floor((r/delta)^(1/2) / 2) = floor(2^((a-b-2)/2)), exact
    hit_floor = floor_pow2(Fraction(a - b - 2, 2)) if a - b >= 2 else 0

    covering_max = None
    if project_full_set:
        K = gen_grid_example(params)
        covering_max = max(
            project(K, perpendicular_direction(sigma)).covering_number
            for sigma in S.slopes
        )

    rec = ExperimentRecord(
        "sharpness",
        params={
            "log2delta": a,
            "s": str(s),
            "log2r": b,
            "exploratory": exploratory,
        },
        results={
            "m": spec.m,
            "n_g": spec.n_g,
            "h": float(spec.h),
            "G_size": G_size,
            "slope_count": len(S),
            "k_max": S.k_max,
            "target": target,
            "slope_count_over_target": len(S) / target,
            "max_proj_cardinality": max_pc,
            "proj_target": proj_target,
            "max_proj_over_target": max_pc / proj_target,
            "line_hit_min": min_hits,
            "line_hit_target": math.sqrt(params.r / params.delta) / 2.0,
            "segment_proj_max": float(seg_proj_max),
            "covering_max_K": covering_max,
        },
    )
    if not exploratory:
        rec.check("slope_separation_exact", sep_ok, 1.0 if sep_ok else 0.0, 1.0)
        rec.check("grid_projection_bound", lemma_ok, max_pc, 4.0 * G_size)
        rec.check(
            "segment_projection_at_most_delta",
            seg_proj_max <= delta_exact,
            float(seg_proj_max),
            float(delta_exact),
        )
        rec.check(
            "slope_count_constant",
            len(S) >= target / 64.0,
            len(S) / target,
            1.0 / 64.0,
        )
        rec.check("min_line_hits", min_hits >= hit_floor, float(min_hits), hit_floor)
        rec.soft("max_proj_constant", max_pc / proj_target, 64.0)
        if covering_max is not None:
            rec.soft("covering_K_constant", covering_max / proj_target, 64.0)

    return SharpnessReport(
        params=params,
        slope_count=len(S),
        target=target,
        separation_ok=sep_ok,
        max_proj_cardinality=max_pc,
        proj_target=proj_target,
        line_hit_min=min_hits,
        segment_proj_max=seg_proj_max,
        covering_max_K=covering_max,
        per_slope=per_slope,
        record=rec,
    )


def per_slope_csv(report: SharpnessReport, stream) -> None:
    stream.write("num,den,line_hits,proj_cardinality\n")
    for num, den, hits, pc in report.per_slope:
        stream.write(f"{num},{den},{hits},{pc}\n")
