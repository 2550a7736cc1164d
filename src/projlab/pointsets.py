"""Generators for the worst-case example sets, stored on the dyadic lattice.

A `LatticePointSet` holds integer pairs (u, v) meaning (u*delta, v*delta) in
[0,1)^2 at scale delta = 2^-n, so distinct points are automatically
delta-separated.  Three constructions are provided:

  * `gen_segment`        -- the horizontal unit segment, 2^n points;
  * `gen_four_corners`   -- level-L four-corner Cantor iteration, 4^L points;
  * `gen_grid_example`   -- the squashed grid of short horizontal segments
                            parametrized by (delta, s, r), the worst-case set
                            whose projections are small along an r-separated
                            slope family (see `projlab.sharpness`).

`extract_delta_one_set` thins any set to one satisfying a dyadic Frostman
condition |P cap Q| <= C0 * side(Q)/delta on every dyadic square Q, the
discrete analogue of linear ball growth.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import InvalidParameterError, ParamTriple, Scale


class ParseError(ValueError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class LatticePointSet:
    scale: Scale
    points: np.ndarray  # (N, 2) int64, lexicographically sorted, no duplicates
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64).reshape(-1, 2)
        if pts.size and (pts.min() < 0 or pts.max() >= self.scale.side):
            raise InvalidParameterError(
                f"lattice coordinates outside [0, 2^{self.scale.n})"
            )
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        pts = pts[order]
        if len(pts) > 1:
            dup = np.all(pts[1:] == pts[:-1], axis=1)
            if dup.any():
                pts = np.concatenate([pts[:1], pts[1:][~dup]])
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def gen_segment(scale: Scale) -> LatticePointSet:
    """The horizontal unit segment sampled at spacing delta: {(u, 0)}."""
    side = scale.side
    pts = np.zeros((side, 2), dtype=np.int64)
    pts[:, 0] = np.arange(side)
    return LatticePointSet(scale, pts)


def gen_four_corners(level: int, scale: Scale) -> LatticePointSet:
    """Level-`level` four-corner Cantor iteration: 4^level corner sums.

    Coordinates are sums c_1 + c_2/4 + ... + c_L/4^(L-1) with each digit in
    {0, 3/4}; the lattice must resolve the finest digit, hence n >= 2*level.
    """
    if level < 0:
        raise InvalidParameterError(f"level={level} must be >= 0")
    if scale.n < 2 * level:
        raise InvalidParameterError(
            f"lattice level n={scale.n} too coarse for four-corners level "
            f"{level}: need n >= {2 * level}"
        )
    axis = np.array([0], dtype=np.int64)
    for i in range(level):
        step = 3 * (1 << (scale.n - 2)) >> (2 * i)  # 3 * 2^(n-2) / 4^i
        axis = (axis[:, None] + np.array([0, step], dtype=np.int64)).ravel()
    u = np.repeat(axis, len(axis))
    v = np.tile(axis, len(axis))
    return LatticePointSet(
        scale, np.column_stack([u, v]), meta={"level": level}
    )


@dataclass(frozen=True)
class GridSpec:
    """Exact integer data of the squashed-grid construction.

    m   = delta^(s-1/2) r^(-1/2) = 2^e_m   columns
    n_g = delta^(-2s) r          = 2^e_n   rows
    h   = delta^s (delta/r)^(1/2)          segment length = 1/(m*n_g)

    The identity h/delta = m holds whenever the integrality constraints do,
    so each short segment carries m+1 lattice samples.
    """

    e_m: int
    e_n: int

    @property
    def m(self) -> int:
        return 1 << self.e_m

    @property
    def n_g(self) -> int:
        return 1 << self.e_n

    @property
    def h(self) -> Fraction:
        return Fraction(1, self.m * self.n_g)


@functools.cache
def grid_parameters(params: ParamTriple) -> GridSpec:
    """Validate integrality of (m, n_g, h/delta) and return exact exponents."""
    a, b, s = params.a, params.b, params.s
    e_m = Fraction(a + b, 2) - a * s
    if e_m.denominator != 1 or e_m < 0:
        raise InvalidParameterError(
            f"m = delta^(s-1/2) r^(-1/2) = 2^({e_m}) is not a positive integer"
        )
    e_n = 2 * a * s - b
    if e_n.denominator != 1 or e_n < 0:
        raise InvalidParameterError(
            f"n_g = delta^(-2s) r = 2^({e_n}) is not a positive integer"
        )
    return GridSpec(int(e_m), int(e_n))


def gen_grid_example(params: ParamTriple) -> LatticePointSet:
    """The grid-of-segments worst-case set at (delta, s, r).

    Columns at x = k/m, rows at y = l/(m*n_g); from each grid node a
    horizontal segment of length h sampled at spacing delta.  The vertical
    gap equals h exactly, the horizontal gap 1/m dominates the column width.
    Samples landing on x = 1 (possible only in the degenerate r = delta,
    s = 1/2 tiling) are dropped to keep coordinates in [0, 1).
    """
    spec = grid_parameters(params)
    n = params.scale.n
    m, n_g = spec.m, spec.n_g
    col_step = 1 << (n - spec.e_m)  # lattice gap between columns, 2^n / m
    u = (np.arange(m, dtype=np.int64) * col_step)[:, None] + np.arange(
        m + 1, dtype=np.int64
    )[None, :]
    u = u.ravel()
    u = u[u < (1 << n)]
    v = np.arange(n_g, dtype=np.int64) * m  # y = l*h, and h*2^n = m
    pts = np.column_stack(
        [np.repeat(u, n_g), np.tile(v, len(u))]
    )
    return LatticePointSet(
        params.scale,
        pts,
        meta={
            "m": m,
            "n_g": n_g,
            "h": float(spec.h),
            "points_per_segment": m + 1,
            "cardinality_before_dedup": m * n_g * (m + 1),
        },
    )


def _dyadic_ratio(pts: np.ndarray, n: int) -> float:
    """Achieved dyadic Frostman ratio max |P cap Q| * delta / side(Q)."""
    best = 0.0
    for j in range(n + 1):
        _, counts = np.unique(pts >> (n - j), axis=0, return_counts=True)
        best = max(best, float(counts.max()) * 2.0 ** (j - n))
    return best


def extract_delta_one_set(
    input_set: LatticePointSet, capacity_constant: float
) -> tuple[LatticePointSet, float]:
    """Greedy dyadic Frostman thinning.

    Scans points in lexicographic (u, v) order and admits a point iff every
    dyadic square containing it stays within its budget
    floor(C0 * side/delta).  The output therefore satisfies
    |P cap Q| <= C0 * side(Q)/delta for every dyadic square Q with
    side >= delta.  The ratio max |P cap Q| * delta / side(Q) actually
    achieved is returned with it.
    """
    if len(input_set) == 0:
        raise InvalidParameterError("cannot extract from an empty point set")
    if capacity_constant < 1:
        raise InvalidParameterError(
            f"capacity constant C0={capacity_constant} must be >= 1"
        )
    n = input_set.scale.n
    caps = [int(capacity_constant * (1 << (n - j))) for j in range(n + 1)]
    counts: list[dict] = [dict() for _ in range(n + 1)]
    kept = []
    for u, v in input_set.points:  # already lexicographic
        u = int(u)
        v = int(v)
        keys = [((u >> (n - j)), (v >> (n - j))) for j in range(n + 1)]
        if all(counts[j].get(keys[j], 0) < caps[j] for j in range(n + 1)):
            kept.append((u, v))
            for j in range(n + 1):
                counts[j][keys[j]] = counts[j].get(keys[j], 0) + 1
    out = LatticePointSet(
        input_set.scale,
        np.array(kept, dtype=np.int64).reshape(-1, 2),
        meta=dict(input_set.meta, frostman_C0=capacity_constant),
    )
    return out, _dyadic_ratio(out.points, n)


# ---------------------------------------------------------------------------
# PSET v1 text format: header "PSET v1 n=<level> count=<k>", then k lines
# "<u> <v>" with decimal integers, single space, LF endings.  Bit exact.
# ---------------------------------------------------------------------------


def write_pset(ps: LatticePointSet, stream) -> None:
    stream.write(f"PSET v1 n={ps.scale.n} count={len(ps)}\n")
    for u, v in ps.points:
        stream.write(f"{u} {v}\n")


def read_pset(stream) -> LatticePointSet:
    header = stream.readline()
    parts = header.split()
    if len(parts) != 4 or parts[0] != "PSET" or parts[1] != "v1":
        raise ParseError(f"bad PSET header {header!r}", 1)
    try:
        n = int(parts[2].removeprefix("n="))
        count = int(parts[3].removeprefix("count="))
    except ValueError:
        raise ParseError(f"bad PSET header fields {header!r}", 1) from None
    if count < 0:
        raise ParseError(f"negative point count in {header!r}", 1)
    try:
        scale = Scale(n)
    except InvalidParameterError as e:
        raise ParseError(str(e), 1) from None
    try:
        pts = np.empty((count, 2), dtype=np.int64)
    except (ValueError, MemoryError):
        raise ParseError(f"point count too large in {header!r}", 1) from None
    for i in range(count):
        line = stream.readline()
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"expected '<u> <v>', got {line!r}", i + 2)
        try:
            pts[i, 0] = int(fields[0])
            pts[i, 1] = int(fields[1])
        except (ValueError, OverflowError):
            raise ParseError(f"coordinate not a 64-bit integer in {line!r}", i + 2) from None
    for lineno, line in enumerate(stream, start=count + 2):
        if line.strip():
            raise ParseError(f"line after the {count} declared points: {line!r}", lineno)
    try:
        return LatticePointSet(scale, pts)
    except InvalidParameterError as e:
        # the only per-point error: point i, on line i + 2, is off the lattice
        i = int(np.argmax(((pts < 0) | (pts >= scale.side)).any(axis=1)))
        raise ParseError(str(e), i + 2) from None
