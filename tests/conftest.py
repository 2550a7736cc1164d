"""Shared brute-force oracles and random generators for the test suite.

The oracles are deliberately naive (exhaustive enumeration, direct sums) and
independent of the library's code paths; tests freeze expected values
computed with them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from projlab import (
    ADRegularityReport,
    Direction,
    DyadicMeasure,
    ExperimentRecord,
    InvalidParameterError,
    direction_grid,
    entropy,
    project_measure,
)
from projlab.entropy import REGULARITY_ALARM_A


def brute_min_cover(values, width: float) -> int:
    """Exact minimum number of closed length-`width` intervals covering the
    values.  Some optimal cover has every interval anchored at a value, so
    enumerate anchor subsets by increasing size.  Values count <= ~12."""
    vs = sorted(set(float(v) for v in values))
    k = len(vs)
    if k == 0:
        return 0
    reach = width * (1.0 + 1e-12)
    masks = []
    for a in vs:
        m = 0
        for j, u in enumerate(vs):
            if a <= u <= a + reach:
                m |= 1 << j
        masks.append(m)
    full = (1 << k) - 1
    for size in range(1, k + 1):
        for combo in itertools.combinations(masks, size):
            acc = 0
            for c in combo:
                acc |= c
            if acc == full:
                return size
    return k


def searchsorted_cover_starts(sorted_values, width: float) -> np.ndarray:
    """Greedy cover starts found one interval at a time: each step binary
    searches for the first value past the current interval's right end."""
    vals = np.asarray(sorted_values, dtype=np.float64)
    reach = width * (1.0 + 1e-12)
    starts = []
    i = 0
    while i < len(vals):
        starts.append(vals[i])
        i = int(np.searchsorted(vals, vals[i] + reach, side="right"))
    return np.array(starts, dtype=np.float64)


def raw_projection_ref(ps, e) -> np.ndarray:
    """Projection values of a lattice point set along e, in point order, as
    (u cos + v sin) delta straight from the int64 lattice columns: the sum
    is formed before the scaling, unlike the library's float unit
    coordinates, which must still agree with it bit for bit."""
    c, s = e.unit
    return (ps.points[:, 0] * c + ps.points[:, 1] * s) * ps.scale.delta


def distinct_keys_ref(m: int, n_g: int, num: int, den: int) -> int:
    """Distinct values of y - (num/den)*x over the m x n_g slope grid, as the
    set of integer keys l*den - k*num*n_g over the shared denominator."""
    return len({l * den - k * num * n_g for k in range(m) for l in range(n_g)})


def slope_set_ref(params) -> list[Fraction]:
    """The slope family S of a triple with delta <= r <= delta^s, as the
    sorted set of the Fractions l/(k n_g) over every admissible pair:
    1 <= k <= delta^s/r = 2^(b - a s), tested as k^q <= 2^p for
    b - a s = p/q, and 0 <= l <= k delta^(-3s+1/2) r^(3/2) = k 2^(a - 3 e_m)
    with e_m = (a + b)/2 - a s."""
    a, b, s = params.a, params.b, params.s
    n_g = 1 << int(2 * a * s - b)
    l_factor = Fraction(2) ** int(a - 3 * (Fraction(a + b, 2) - a * s))
    k_expo = b - a * s
    slopes = set()
    k = 1
    while k**k_expo.denominator <= 2**k_expo.numerator:
        for l in range(int(k * l_factor) + 1):
            slopes.add(Fraction(l, k * n_g))
        k += 1
    return sorted(slopes)


def line_hits_ref(m: int, n_g: int, slope) -> int:
    """Columns k' in [0, m) whose point on the line y = slope * x lands on a
    grid row: l' = k' * n_g * slope is an integer in [0, n_g)."""
    hits = 0
    for kp in range(m):
        lp = kp * n_g * Fraction(slope)
        if lp.denominator == 1 and 0 <= lp.numerator < n_g:
            hits += 1
    return hits


def brute_min_arc_cover(angles, r: float, circumference: float) -> int:
    """Exact minimum number of closed arcs of length r covering circle
    points; arcs anchored at points, subsets by increasing size."""
    th = sorted(set(float(a) % circumference for a in angles))
    k = len(th)
    if k == 0:
        return 0
    if r >= circumference:
        return 1
    reach = r * (1.0 + 1e-12)
    masks = []
    for a in th:
        m = 0
        for j, u in enumerate(th):
            if (u - a) % circumference <= reach:
                m |= 1 << j
        masks.append(m)
    full = (1 << k) - 1
    for size in range(1, k + 1):
        for combo in itertools.combinations(masks, size):
            acc = 0
            for c in combo:
                acc |= c
            if acc == full:
                return size
    return k


def shannon_ref(masses) -> float:
    """Reference entropy: plain Python sum, natural log, 0 log 0 = 0."""
    total = 0.0
    for p in masses:
        if p > 0.0:
            total -= p * math.log(p)
    return total


def random_measure(rng: np.random.Generator, dim: int, level: int, max_atoms: int) -> DyadicMeasure:
    side = 1 << level
    cells = side if dim == 1 else side * side
    n_atoms = int(rng.integers(1, min(max_atoms, cells) + 1))
    flat = rng.choice(cells, size=n_atoms, replace=False)
    idx = flat if dim == 1 else np.column_stack([flat // side, flat % side])
    mass = rng.random(n_atoms) + 1e-3
    mass /= mass.sum()
    return DyadicMeasure(dim, level, idx, mass)


def clustered_measure(rng: np.random.Generator, level: int, n_atoms: int) -> DyadicMeasure:
    """Planar measure at any level up to 62 whose atoms sit in small clusters
    spread over the square, with rows and columns offset by the dyadic radii
    2^(level - j) and by one more or less, so that ball tests at every radius
    see atoms on both sides of the boundary."""
    side = 1 << level
    n_atoms = min(n_atoms, side * side)
    atoms = set()
    while len(atoms) < n_atoms:
        i, j = (int(v) for v in rng.integers(0, side, size=2))
        step = 1 << int(rng.integers(0, level + 1))
        for di in (0, step - 1, step, step + 1):
            dj = int(rng.integers(-2, 3))
            if 0 <= i + di < side and 0 <= j + dj < side:
                atoms.add((i + di, j + dj))
    idx = np.array(sorted(atoms)[:n_atoms], dtype=np.int64)
    mass = rng.random(len(idx)) + 1e-3
    return DyadicMeasure(2, level, idx, mass / mass.sum())


# Text for fuzzing the PSET and DMEAS readers: a header of the reader's form
# with integer fields that are small, negative or far beyond 64 bits, or
# arbitrary text; then lines of integer-like, float-like or arbitrary words.
_CHARS = st.characters(blacklist_categories=("Cs",))
_FIELD = st.one_of(st.integers(-2, 64), st.integers(-(2**80), 2**80))
_WORD = st.one_of(
    _FIELD.map(str),
    st.sampled_from(["0.5", "1", "0.25", "nan", "inf", "1e400", "-0", "0x1"]),
    st.text(_CHARS, max_size=6),
)
_LINE = st.one_of(st.lists(_WORD, min_size=1, max_size=3).map(" ".join),
                  st.text(_CHARS, max_size=20))


def parser_text(header: str, first=_FIELD, second=_FIELD):
    """Reader input whose header is `header` formatted with the two fields,
    or arbitrary text, followed by up to six body lines."""
    head = st.one_of(st.builds(header.format, first, second), st.text(_CHARS, max_size=30))
    return st.builds(lambda h, body: "\n".join([h, *body]) + "\n", head,
                     st.lists(_LINE, max_size=6))


def measure_mix(t: float, mu: DyadicMeasure, nu: DyadicMeasure) -> DyadicMeasure:
    """t*mu + (1-t)*nu for measures at the same level and dimension."""
    assert mu.dim == nu.dim and mu.level == nu.level
    accum: dict = {}
    for i, w in zip(mu.idx.tolist(), mu.mass.tolist()):
        key = tuple(i)
        accum[key] = accum.get(key, 0.0) + t * w
    for i, w in zip(nu.idx.tolist(), nu.mass.tolist()):
        key = tuple(i)
        accum[key] = accum.get(key, 0.0) + (1.0 - t) * w
    keys = sorted(accum)
    idx = np.array(keys)
    mass = np.array([accum[k] for k in keys])
    return DyadicMeasure(mu.dim, mu.level, idx, mass / mass.sum())


# ---------------------------------------------------------------------------
# The entropy layer's per-cube and per-direction evaluations, kept as the
# references for the vectorised versions in projlab.entropy.
# ---------------------------------------------------------------------------


def regularity_ref(mu: DyadicMeasure) -> ADRegularityReport:
    """`ad_regularity_check` with every block compared against every atom."""
    rows_per_block = 512
    if mu.dim != 2:
        raise InvalidParameterError("ad_regularity_check needs a planar measure")
    pts = mu.centers()
    mass = mu.mass
    n = mu.level
    radii = 2.0 ** (-np.arange(n + 1))
    worst_lower = 0.0
    worst_upper = 0.0
    for lo in range(0, len(pts), rows_per_block):
        block = pts[lo : lo + rows_per_block]
        d2 = (
            (block[:, None, 0] - pts[None, :, 0]) ** 2
            + (block[:, None, 1] - pts[None, :, 1]) ** 2
        )
        for j, r in enumerate(radii):
            inside = d2 < r * r  # open balls
            ball_mass = inside @ mass
            worst_lower = max(worst_lower, float((r / ball_mass).max()))
            worst_upper = max(worst_upper, float((ball_mass / r).max()))
    counts = {}
    for j in range(n + 1):
        uniq, _ = mu.coarsen(j)
        counts[j] = len(uniq)
    return ADRegularityReport(worst_lower, worst_upper, counts)


def coarsen_ref(mu: DyadicMeasure, m: int) -> tuple[np.ndarray, np.ndarray]:
    """`DyadicMeasure.coarsen` through numpy's `unique` of the level-m
    ancestor rows, the grouping it used before its column lexsort."""
    keys = mu.idx >> (mu.level - m)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    return uniq, np.bincount(inv.ravel(), weights=mu.mass)


def l2_energy_1d_ref(nu: DyadicMeasure, m: int) -> float:
    """2^m * sum of squared level-m interval masses."""
    if nu.dim != 1:
        raise InvalidParameterError("l2_energy_1d needs a line measure")
    _, agg = nu.coarsen(m)
    return float(2.0**m * (agg * agg).sum())


def marstrand_ref(
    mu: DyadicMeasure,
    m: int,
    A: float | None = None,
    s_values: tuple[float, ...] = (0.5, 0.75, 0.9),
) -> ExperimentRecord:
    """`marstrand_average` through one projected `DyadicMeasure` per
    direction."""
    if not (0 < m <= mu.level):
        raise InvalidParameterError(f"need 0 < m <= {mu.level}, got m = {m}")
    if A is None:
        A = regularity_ref(mu).A
    dirs = direction_grid(1 << m)
    hs = []
    energies = []
    for e in dirs:
        nu = project_measure(mu, e, m)
        hs.append(entropy(nu, m).normalized)
        energies.append(l2_energy_1d_ref(nu, m))
    avg_h = float(np.mean(hs))
    avg_energy = float(np.mean(energies))
    rec = ExperimentRecord(
        "entropy_marstrand_average",
        params={"m": m, "n_directions": 1 << m, "A": A},
        results={
            "average_normalized_entropy": avg_h,
            "average_l2_energy": avg_energy,
            "A": A,
            "per_direction_min": float(np.min(hs)),
            "per_direction_max": float(np.max(hs)),
        },
    )
    for s in s_values:
        bound_term = m * 2.0 ** ((s - 1.0) * m) + 1.0 / m
        rec.results[f"deficit_s_{s}"] = s - avg_h
        rec.soft(f"deficit_vs_A_bound_s_{s}", s - avg_h, A * bound_term)
    rec.soft("l2_energy_vs_Am", avg_energy, A * m)
    rec.soft("regularity_alarm_A", A, REGULARITY_ALARM_A)
    return rec


def blow_up_ref(mu: DyadicMeasure, q, k: int) -> DyadicMeasure:
    """Renormalized, rescaled restriction of mu to the level-k cube q, an
    index row of `mu.coarsen(k)`: a measure at level mu.level - k on
    [0,1)^d."""
    shift = mu.level - k
    sel = ((mu.idx >> shift) == q).all(axis=1)
    sub_mass = mu.mass[sel]
    return DyadicMeasure(mu.dim, shift, mu.idx[sel] & ((1 << shift) - 1), sub_mass / sub_mass.sum())


def multiscale_ref(mu: DyadicMeasure, e: Direction, m: int) -> ExperimentRecord:
    """`multiscale_check` through one `blow_up_ref` per cube."""
    n = mu.level
    if not (0 < m < n):
        raise InvalidParameterError(f"need 0 < m < n = {n}, got m = {m}")
    lhs = entropy(project_measure(mu, e, n), n).normalized
    k0 = n // m
    block_sum = 0.0
    for k in range(k0):
        cubes, weights = mu.coarsen(k * m)
        for q, w in zip(cubes, weights):
            piece = blow_up_ref(mu, q, k * m)
            block_sum += w * entropy(project_measure(piece, e, m), m).normalized
    rhs = (m / n) * block_sum
    slack = lhs - (rhs - 10.0 / m)
    rec = ExperimentRecord(
        "entropy_multiscale",
        params={"theta": e.theta, "m": m, "n": n},
        results={"lhs": lhs, "rhs_sum": rhs, "allowance": 10.0 / m, "slack": slack},
    )
    rec.check("multiscale_inequality", slack >= -1e-12, lhs, rhs - 10.0 / m)
    return rec
