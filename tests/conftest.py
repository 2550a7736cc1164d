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

from projlab import DyadicMeasure


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


def distinct_keys_ref(m: int, n_g: int, num: int, den: int) -> int:
    """Distinct values of y - (num/den)*x over the m x n_g slope grid, as the
    set of integer keys l*den - k*num*n_g over the shared denominator."""
    return len({l * den - k * num * n_g for k in range(m) for l in range(n_g)})


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


def measure_mix(t: float, mu: DyadicMeasure, nu: DyadicMeasure) -> DyadicMeasure:
    """t*mu + (1-t)*nu for measures at the same level and dimension."""
    assert mu.dim == nu.dim and mu.level == nu.level
    accum: dict = {}
    for i, w in zip(mu.idx, mu.mass):
        key = int(i) if mu.dim == 1 else (int(i[0]), int(i[1]))
        accum[key] = accum.get(key, 0.0) + t * float(w)
    for i, w in zip(nu.idx, nu.mass):
        key = int(i) if nu.dim == 1 else (int(i[0]), int(i[1]))
        accum[key] = accum.get(key, 0.0) + (1.0 - t) * float(w)
    keys = sorted(accum)
    idx = np.array(keys)
    mass = np.array([accum[k] for k in keys])
    return DyadicMeasure(mu.dim, mu.level, idx, mass / mass.sum())
