"""Worst-case pipeline: exact slope family of the grid example and its
small-projection verification.

The pipeline takes valid (delta, s, r) in the one range delta <= r <= delta^s,
where the abstract constructs its examples, and refuses r > delta^s.  There
the grid-of-segments set admits a family of slopes

    S = { l / (k n_g) : 1 <= k <= delta^s/r,
                        0 <= l <= k * delta^(-3s+1/2) r^(3/2) }

whose members are pairwise r-separated (an exact integrality statement:
|l1 k2 - l2 k1| < 1 forces equality) and number at least about
delta^-s (delta/r)^(1/2).  Projecting the grid G perpendicular to any slope
in S yields at most about delta^-s distinct values, via the sum-set bound

    |proj(A1 x A2)| * |line cap (A1 x A2)| <= 4 |A1| |A2|.

Scaled by n_g, S is the set of reduced fractions c/d in [0, 2^l_exp] with
d <= k_max, where k_max = floor(delta^s/r) and 2^l_exp = delta^(-3s+1/2)
r^(3/2): the Farey fractions of order k_max up to 2^l_exp.  (A reduced c/d
in that range is l/k with k = d, l = c; each l/k reduces to one.)

Everything in this module is exact, in Python ints: slopes are `Fraction`s,
enumerated once each, in increasing order, by the Farey neighbour step,
separations are compared by cross-multiplication, and distinct projected
values are counted without listing them.  Over a shared denominator each
grid column projects to a run of n_g consecutive integers inside one residue
class mod den; the columns fall into min(P, m) classes, P = den/gcd(n_g, den),
and the runs within a class start an equal step apart, so the count is a
closed form in O(1) per slope, with no int64 limit on the keys.

The full-set check, the covering number N(pi_e K, delta) of the segment set K
at the slopes of S, is exact too: `covering_number_at_slope` counts it on K's
integer keys.  Every slope num/den has sigma * h <= delta (the exact
`segment_projection_at_most_delta` check), that is num m <= den, so a
segment's m + 1 keys lie within num m <= den <= isqrt(num^2 + den^2), one
interval width, below its node's key.  Each cluster of segments whose nodes
share a key then holds at most one greedy start, so N(pi_e K, delta) <=
|pi_e G| = `projected_cardinality(sigma)`, which the per-slope pass already
holds.  `run_sharpness` counts K at the slopes in order of falling
cardinality and stops once the largest count so far reaches the next
cardinality: no later slope can raise the maximum, so the reported maximum
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from operator import itemgetter

from .core import ExactSlope, InvalidParameterError, ParamTriple, floor_pow2
from .pointsets import LatticePointSet, gen_grid_example, grid_parameters
# `project` is unused here, but the benchmark's own test
# `test_tracer_restores_the_library` reads `sharpness.project`.
from .projections import covering_number_1d, project  # noqa: F401
from .records import ExperimentRecord


@dataclass(frozen=True)
class SlopeSet:
    params: ParamTriple
    slopes: list[ExactSlope]  # sorted, deduplicated, exact
    k_max: int  # floor(delta^s / r)

    def __len__(self) -> int:
        return len(self.slopes)


# The most slopes `build_slope_set` lists, about 0.5 GB of `Fraction`s.  The
# largest family the tests build has 10,369 slopes, at (20, 3/4, 20).
MAX_SLOPES = 2**22


def _farey_walk(k_max: int, l_exp: int):
    """The reduced fractions c/d in [0, 2^l_exp] with d <= k_max, as pairs
    (c, d) in increasing order.

    0/1 and 1/k_max are consecutive Farey fractions of order k_max.  After
    consecutive p/q < c/d the next is (j c - p)/(j d - q) with
    j = floor((k_max + q)/d), the step that holds on all of [0, inf) as on
    [0, 1].  The walk stops at the first c/d > 2^l_exp, compared in ints.
    """
    lo, hi = max(-l_exp, 0), max(l_exp, 0)
    p, q, c, d = 0, 1, 1, k_max
    yield 0, 1
    while c << lo <= d << hi:
        yield c, d
        j = (k_max + q) // d
        p, q, c, d = c, d, j * c - p, j * d - q


def build_slope_set(params: ParamTriple) -> SlopeSet:
    """The slopes l/(k n_g), 1 <= k <= k_max, 0 <= l <= k 2^l_exp, sorted and
    distinct: n_g times each Farey fraction c/d of order k_max in
    [0, 2^l_exp], one `Fraction` per term of `_farey_walk`.

    The family is defined for delta <= r <= delta^s only, with
    k_max = floor(delta^s / r) >= 1; r > delta^s is refused.

    A family of more than MAX_SLOPES slopes is refused before any slope is
    built.  |S| is at least floor(2^l_exp) + 1, the k = 1 row, which alone
    refuses a family with l_exp >= 22 before any walk.  |S| is at most the
    number of pairs (k, l), and that is at most
    pairs = k_max + floor(k_max (k_max + 1) 2^l_exp / 2); only when pairs is
    above the budget does a walk that only counts run first.
    """
    spec = grid_parameters(params)
    a, b, s = params.a, params.b, params.s
    if b < a * s:
        raise InvalidParameterError(
            f"r = 2^-{b} exceeds delta^s = 2^-({a * s}): slope family needs "
            "delta <= r <= delta^s"
        )
    k_max = floor_pow2(b - a * s)
    l_exp = a - 3 * spec.e_m  # delta^(-3s+1/2) r^(3/2) = 2^(a - 3 e_m)
    row = (1 << max(l_exp, 0) >> max(-l_exp, 0)) + 1  # the slopes l/n_g, k = 1
    pairs = k_max + (k_max * (k_max + 1) // 2 << max(l_exp, 0) >> max(-l_exp, 0))
    if row > MAX_SLOPES or pairs > MAX_SLOPES and next(
            islice(_farey_walk(k_max, l_exp), MAX_SLOPES, None), None) is not None:
        raise InvalidParameterError(
            f"the slope family at (a, s, b) = ({a}, {s}, {b}) has more than 2^22 slopes"
        )
    n_g = spec.n_g
    return SlopeSet(params, [Fraction(c, d * n_g) for c, d in _farey_walk(k_max, l_exp)], k_max)


def verify_separation(S: SlopeSet) -> bool:
    """Consecutive distinct slopes differ by at least r, compared exactly:
    n2/d2 - n1/d1 >= 2^-b exactly when (n2 d1 - n1 d2) 2^b >= d1 d2."""
    b = S.params.b
    pairs = [(x.numerator, x.denominator) for x in S.slopes]
    return all(
        (n2 * d1 - n1 * d2) << b >= d1 * d2
        for (n1, d1), (n2, d2) in zip(pairs, pairs[1:])
    )


def count_line_hits(G_params: ParamTriple, slope: ExactSlope) -> int:
    """|G cap line through the origin with the given slope|, exact.

    Column k' in [0, m) is hit when l' = k' n_g num / den is an integer in
    [0, n_g): k' is a multiple of g = den / gcd(den, n_g) and k' num < den.
    A negative slope hits only column 0; otherwise the multiples of g below
    L = min(m, ceil(den / num)) number ceil(L / g).
    """
    spec = grid_parameters(G_params)
    num, den = slope.numerator, slope.denominator
    if num < 0:
        return 1
    L = spec.m if num == 0 else min(spec.m, (den - 1) // num + 1)
    g = den // math.gcd(den, spec.n_g)
    return -(-L // g)


def projected_cardinality(G_params: ParamTriple, slope: ExactSlope) -> int:
    """Number of distinct values of the functional y - slope*x over the grid
    G, counted exactly in closed form.

    Over the shared denominator the values are the keys l*den - k*num*n_g
    (0 <= k < m, 0 <= l < n_g).  With k*num*n_g = q_k*den + r_k, column k's
    keys are j*den - r_k for j in the run [-q_k, n_g - q_k) of n_g
    consecutive integers, all in the residue class of -r_k mod den.

    Let g = gcd(n_g, den), which equals gcd(num*n_g, den) as num/den is
    reduced, and P = den/g.  Columns k and k' share a class exactly when den
    divides (k - k')*num*n_g, that is when P divides k - k'.  So the columns
    in [0, m) fall into c = min(P, m) classes, the class of k holding
    k, k + P, k + 2P, ...  Runs in different classes are disjoint.  Within a
    class, (k + P)*num*n_g = k*num*n_g + (num*n_g/g)*den with the same
    remainder, so consecutive run starts differ by t = |num|*n_g/g (t = 0
    when num = 0).  Sorted by start, each run after the first adds the
    min(t, n_g) integers past the previous one's end.  A class of size
    c_i then covers n_g + (c_i - 1)*min(t, n_g), and summing over the c
    classes, whose sizes add to m, gives

        c*n_g + (m - c)*min(t, n_g).
    """
    spec = grid_parameters(G_params)
    num, den = slope.numerator, slope.denominator
    m, n_g = spec.m, spec.n_g
    g = math.gcd(n_g, den)
    c = min(den // g, m)
    return c * n_g + (m - c) * min(abs(num) * n_g // g, n_g)


def covering_number_at_slope(ps: LatticePointSet, slope: ExactSlope) -> int:
    """N(pi_e P, delta) along e = `perpendicular_direction(slope)`, on P's
    integer keys.

    At slope num/den a point (u, v) projects to
    (den v - num u) delta / sqrt(num^2 + den^2), so a closed delta-interval
    holds exactly the integer keys den v - num u within
    w = isqrt(num^2 + den^2) of its left end: `covering_number_1d` counts
    the keys at width w.

    The count is exact when den v_max + |num| u_max + w < 2^52 and
    w < 2^38; any other input is refused before a key is formed.  The
    coordinates are non-negative, so every key and every start + w lies in
    (-2^52, 2^52).  Then num and den, both at most w, fit int64, the int64
    keys do not wrap, and each key is an exact float64.  Floats in that
    range lie at most 1/2 apart, and the reach slack w * COVER_RTOL is below
    2^38 * 1e-12 < 0.3, so start + reach rounds into [start + w,
    start + w + 1): each comparison with a right end is the integer
    comparison key <= start + w.  The points are sorted, so u_max is the
    last point's u.  The grid example is inside both bounds at every triple
    that `build_slope_set` and `gen_grid_example` accept with s = p/q,
    q <= 16: the largest bound, at (28, 6/7, 26), is just below 2^50.
    """
    num, den = slope.numerator, slope.denominator
    w = math.isqrt(num * num + den * den)
    pts = ps.points
    u_max = int(pts[-1, 0]) if len(pts) else 0
    v_max = int(pts[:, 1].max(initial=0))
    if w >= 1 << 38 or den * v_max + abs(num) * u_max + w >= 1 << 52:
        raise InvalidParameterError(
            f"slope {slope} on points up to ({u_max}, {v_max}): the keys "
            "den*v - num*u and the width must stay below 2^52 and 2^38"
        )
    keys = den * pts[:, 1] - num * pts[:, 0]
    return covering_number_1d(keys, w)


@dataclass
class SharpnessReport:
    slope_count: int
    max_proj_cardinality: int
    covering_max_K: int | None  # max over S of N(proj of K, delta), if computed
    per_slope: list[tuple[int, int, int, int]]  # (num, den, line_hits, proj_card)
    record: ExperimentRecord = field(repr=False, default=None)


def run_sharpness(params: ParamTriple, project_full_set: bool = True) -> SharpnessReport:
    """Full worst-case verification at one triple with delta <= r <= delta^s;
    r > delta^s is refused, as the slope family is not defined there.

    Hard assertions (exact statements): r-separation of S, the grid
    projection bound per slope, and max slope * h <= delta.  Soft reports:
    the slope-count constant against delta^-s (delta/r)^(1/2) and the
    covering constant of the full set K against delta^-s.

    The full-set maximum `covering_max_K` rests on N(pi_e K, delta) <=
    `projected_cardinality(sigma)` (see the module docstring): K is counted
    at the slopes in order of falling cardinality, only while the maximum so
    far is below the slope's cardinality.  Were max slope * h above delta,
    every slope would be counted; it is not, as every slope is at most 1/m.
    """
    a, b, s = params.a, params.b, params.s
    spec = grid_parameters(params)
    S = build_slope_set(params)
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
    seg_ok = seg_proj_max <= delta_exact  # sigma * h <= delta at every slope
    # floor((r/delta)^(1/2) / 2) = floor(2^((a-b-2)/2)), exact
    hit_floor = floor_pow2(Fraction(a - b - 2, 2)) if a - b >= 2 else 0

    covering_max = None
    if project_full_set:
        K = gen_grid_example(params)
        cards = (pc for _, _, _, pc in per_slope)
        covering_max = 0
        by_card = sorted(zip(cards, S.slopes), key=itemgetter(0), reverse=True)
        for pc, sigma in by_card:
            if seg_ok and covering_max >= pc:
                break  # no slope left can raise the maximum
            covering_max = max(covering_max, covering_number_at_slope(K, sigma))

    rec = ExperimentRecord(
        "sharpness",
        params={"log2delta": a, "s": str(s), "log2r": b},
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
    rec.check("slope_separation_exact", sep_ok, 1.0 if sep_ok else 0.0, 1.0)
    rec.check("grid_projection_bound", lemma_ok, max_pc, 4.0 * G_size)
    rec.check("segment_projection_at_most_delta", seg_ok, float(seg_proj_max), float(delta_exact))
    rec.check("slope_count_constant", len(S) >= target / 64.0, len(S) / target, 1.0 / 64.0)
    rec.check("min_line_hits", min_hits >= hit_floor, float(min_hits), hit_floor)
    rec.soft("max_proj_constant", max_pc / proj_target, 64.0)
    if covering_max is not None:
        rec.soft("covering_K_constant", covering_max / proj_target, 64.0)

    return SharpnessReport(
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
