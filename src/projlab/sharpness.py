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

The one float step is the full-set check: the covering number N(pi_e K, delta)
of the segment set K at every slope of S, counted by `project`'s greedy.  That
count needs no sweep over S.  Every slope has sigma * h <= delta (the exact
`segment_projection_at_most_delta` check), so each segment of K projects into
one delta-interval below its node's value, and N(pi_e K, delta) <= |pi_e G| =
`projected_cardinality(sigma)`, which the per-slope pass already holds
(`_cover_within_cardinality` carries the proof through float rounding).
`run_sharpness` projects K at the slopes in order of falling cardinality and
stops once the largest count so far reaches the next cardinality: no later
slope can raise the maximum, so the reported maximum is exact.
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


def _cover_within_cardinality(a: int, e_m: int) -> bool:
    """Whether float rounding keeps the greedy count of K at or below
    `projected_cardinality` at every slope 0 <= sigma <= 1/m of S, for
    delta = 2^-a and m = 2^e_m.  An exact integer test.

    Along e = `perpendicular_direction(sigma)`, the m + 1 samples of the
    segment at a node of G project exactly into [p - w, p], with p the node's
    value and w = m delta sigma / sqrt(1 + sigma^2) <= delta / sqrt(1 + 1/m^2)
    <= delta - delta / (4 m^2), as (1 + x)^(-1/2) <= 1 - x/4 on [0, 1].  The
    segments whose nodes share one value form a cluster; there are
    `projected_cardinality(sigma)` clusters.

    Float error of one value of `_raw_projection`, in unit coordinates
    (|x|, |y| < 1), taking `atan2`, `cos` and `sin` within 1 ulp:
    - `float(sigma)` is off by at most 2^-54, and |d theta / d sigma| <= 1;
      `atan2` adds 1 ulp of theta < 4, so theta is off by at most 9 * 2^-54;
    - `cos` and `sin` are 1-Lipschitz and add 1 ulp of a value below 1, so
      each component of e is off by at most 11 * 2^-54, which moves a value
      by less than 11 * 2^-53;
    - the two products and the sum round values below 1 in magnitude, at
      most 3 * 2^-54 in all; scaling by delta is exact.
    So each value is within eps = 12.5 * 2^-53 of the exact one.  The
    greedy's right end fl(v + reach) >= v + delta - 2^-53, since reach >=
    delta and |v + reach| < 2.  A start v inside a cluster therefore covers
    the rest of it once w + 2 eps <= delta - 2^-53, which holds when
    delta / (4 m^2) = 2^-(a + 2 e_m + 2) >= 2^-48 > 26 * 2^-53.  Each cluster
    then holds at most one greedy start, and the count is at most the number
    of clusters.  As e_m <= a/2 the test holds for every a <= 23, and at
    a = 24 fails only at r = delta, s = 1/2, where K has 2^24 points.
    """
    return a + 2 * e_m <= 46


@dataclass
class SharpnessReport:
    params: ParamTriple
    slope_count: int
    max_proj_cardinality: int
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

    The full-set maximum `covering_max_K` rests on N(pi_e K, delta) <=
    `projected_cardinality(sigma)` (see `_cover_within_cardinality`): K is
    projected at the slopes in order of falling cardinality, only while the
    maximum so far is below the slope's cardinality.  Where max slope * h
    exceeds delta or the float test fails, every slope is projected.

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
        bounded = seg_proj_max <= delta_exact and _cover_within_cardinality(
            a, spec.e_m
        )
        cards = (pc for _, _, _, pc in per_slope)
        covering_max = 0
        for pc, sigma in sorted(zip(cards, S.slopes), reverse=True):
            if bounded and covering_max >= pc:
                break  # no slope left can raise the maximum
            e = perpendicular_direction(sigma)
            covering_max = max(covering_max, project(K, e).covering_number)

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
        max_proj_cardinality=max_pc,
        covering_max_K=covering_max,
        per_slope=per_slope,
        record=rec,
    )


def per_slope_csv(report: SharpnessReport, stream) -> None:
    stream.write("num,den,line_hits,proj_cardinality\n")
    for num, den, hits, pc in report.per_slope:
        stream.write(f"{num},{den},{hits},{pc}\n")
