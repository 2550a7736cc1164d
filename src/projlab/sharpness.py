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

Everything in this module is exact, in Python ints: slopes are `Fraction`s,
separations are compared by cross-multiplication, and distinct projected
values are counted without listing them.  Over a shared denominator each
grid column projects to a run of n_g consecutive integers inside one residue
class mod den, so the count is the size of a union of m equal-length runs:
O(m log m) per slope instead of O(m n_g), with no int64 limit on the keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

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
                "delta <= r <= delta^s (pass exploratory=True to poke around)"
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

    Column k' in [0, m) is hit when l' = k' n_g num / den is an integer in
    [0, n_g): k' is a multiple of g = den / gcd(den, n_g) and k' num < den.
    A negative slope hits only column 0; otherwise the multiples of g below
    L = min(m, ceil(den / num)) number ceil(L / g).
    """
    spec = grid_parameters(G_params)
    sigma = Fraction(slope)
    num, den = sigma.numerator, sigma.denominator
    if num < 0:
        return 1
    L = spec.m if num == 0 else min(spec.m, (den - 1) // num + 1)
    g = den // math.gcd(den, spec.n_g)
    return -(-L // g)


def projected_cardinality(G_params: ParamTriple, slope: ExactSlope) -> int:
    """Number of distinct values of the functional y - slope*x over the grid
    G, counted exactly as a union of integer runs.

    Over the shared denominator the values are the keys l*den - k*num*n_g
    (0 <= k < m, 0 <= l < n_g).  With k*num*n_g = q*den + r, column k's keys
    are (j*den - r) for j in the run [-q, n_g - q): runs in different residue
    classes r are disjoint, and runs in one class, sorted by start, add
    min(gap, n_g) each after the first.
    """
    spec = grid_parameters(G_params)
    sigma = Fraction(slope)
    num, den = sigma.numerator, sigma.denominator
    n_g = spec.n_g
    runs = sorted(
        (r, -q) for q, r in (divmod(k * num * n_g, den) for k in range(spec.m))
    )
    count, prev_r, prev_start = 0, None, None
    for r, start in runs:
        count += n_g if r != prev_r else min(start - prev_start, n_g)
        prev_r, prev_start = r, start
    return count


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
