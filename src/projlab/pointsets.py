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

import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import InvalidParameterError, ParamTriple, Scale, _group_rows, _row_starts


class ParseError(ValueError):
    """Malformed text input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _read_header(stream, magic: str, key1: str, key2: str) -> tuple[int, int]:
    """The two integers of the header line "<magic> v1 <key1>=<int>
    <key2>=<int>" that opens the PSET and DMEAS formats, in ASCII; any
    other first line is a `ParseError` on line 1."""
    header = stream.readline()
    found = header.isascii() and re.fullmatch(
        rf"{magic} v1 {key1}=(-?[0-9]+) {key2}=(-?[0-9]+)", " ".join(header.split()))
    if not found:
        raise ParseError(f"bad {magic} header {header!r}", 1)
    return int(found[1]), int(found[2])


def _header_scale(n: int) -> Scale:
    """The scale of a header's level n, or a `ParseError` on line 1."""
    try:
        return Scale(n)
    except InvalidParameterError as e:
        raise ParseError(str(e), 1) from None


# The most points a generator builds or a PSET file may declare: 16 GiB as
# int64 pairs.  The largest set the experiments use has 4^12 points.
MAX_POINTS = 2**30


def _check_point_count(count: int, what: str) -> None:
    """Refuse a set of more than MAX_POINTS points before allocating it."""
    if count > MAX_POINTS:
        raise InvalidParameterError(f"{what} has {count} points, above 2^30")


@dataclass(frozen=True)
class LatticePointSet:
    scale: Scale
    points: np.ndarray  # (N, 2) int64, lexicographically sorted, no duplicates

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64).reshape(-1, 2)
        if pts.size and (pts.min() < 0 or pts.max() >= self.scale.side):
            raise InvalidParameterError(
                f"lattice coordinates outside [0, 2^{self.scale.n})"
            )
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
        starts = _row_starts(pts)
        if not starts.all():  # copy again only to drop duplicates
            pts = pts[starts]
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)


def gen_segment(scale: Scale) -> LatticePointSet:
    """The horizontal unit segment sampled at spacing delta: {(u, 0)}."""
    side = scale.side
    _check_point_count(side, f"the segment at n={scale.n}")
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
    _check_point_count(4**level, f"four-corners level {level}")
    axis = np.array([0], dtype=np.int64)
    for i in range(level):
        step = 3 * (1 << (scale.n - 2)) >> (2 * i)  # 3 * 2^(n-2) / 4^i
        axis = (axis[:, None] + np.array([0, step], dtype=np.int64)).ravel()
    u = np.repeat(axis, len(axis))
    v = np.tile(axis, len(axis))
    return LatticePointSet(scale, np.column_stack([u, v]))


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


def grid_parameters(params: ParamTriple) -> GridSpec:
    """Validate integrality of (m, n_g, h/delta) and return exact exponents.

    With s = p/q, 2q e_m = (a + b) q - 2 a p and q e_n = 2 a p - b q, so
    both checks are on ints.
    """
    a, b = params.scale.n, params.log2r
    p, q = params.s.numerator, params.s.denominator
    m2q = (a + b) * q - 2 * a * p  # 2q e_m
    if m2q < 0 or m2q % (2 * q):
        raise InvalidParameterError(
            f"m = delta^(s-1/2) r^(-1/2) = 2^({Fraction(m2q, 2 * q)}) is not a positive integer"
        )
    nq = 2 * a * p - b * q  # q e_n
    if nq < 0 or nq % q:
        raise InvalidParameterError(
            f"n_g = delta^(-2s) r = 2^({Fraction(nq, q)}) is not a positive integer"
        )
    return GridSpec(m2q // (2 * q), nq // q)


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
    _check_point_count(
        m * n_g * (m + 1), f"the grid example at (a, s, b) = ({n}, {params.s}, {params.b})"
    )
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
    return LatticePointSet(params.scale, pts)


def _dyadic_ratio(pts: np.ndarray, n: int) -> float:
    """Achieved dyadic Frostman ratio max |P cap Q| * delta / side(Q)."""
    best = 0.0
    for j in range(n + 1):
        _, inv = _group_rows(pts >> (n - j))
        best = max(best, float(np.bincount(inv).max()) * 2.0 ** (j - n))
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
    out = LatticePointSet(input_set.scale, np.array(kept, dtype=np.int64).reshape(-1, 2))
    return out, _dyadic_ratio(out.points, n)


# ---------------------------------------------------------------------------
# PSET v1 text format: header "PSET v1 n=<level> count=<k>", then k lines
# "<u> <v>" with decimal integers, single space, LF endings.  Bit exact.
# ---------------------------------------------------------------------------


def write_pset(ps: LatticePointSet, stream) -> None:
    stream.write(f"PSET v1 n={ps.scale.n} count={len(ps)}\n")
    stream.writelines(f"{u} {v}\n" for u, v in ps.points.tolist())


def read_pset(stream) -> LatticePointSet:
    """Read a PSET v1 file; blank lines after the header are skipped.

    Each point line is checked as it is read, so a `ParseError` names the
    line of the first bad point in file order: a field count other than two,
    a field that is not a decimal integer in ASCII digits, or a coordinate
    outside [0, 2^n).  So is a point line after the declared points.  Line 1
    is named only for the header: its format, the level n, and a count
    outside [0, MAX_POINTS].  A file that ends early fails on the line after
    its end.
    """
    n, count = _read_header(stream, "PSET", "n", "count")
    scale = _header_scale(n)
    side = scale.side
    if not 0 <= count <= MAX_POINTS:
        raise ParseError(f"point count {count} outside [0, 2^30]", 1)
    coords = []  # u0, v0, u1, v1, ...
    lineno = 1
    for lineno, line in enumerate(stream, start=2):
        fields = line.split()
        if not fields:
            continue
        if len(coords) == 2 * count:
            raise ParseError(f"line after the {count} declared points: {line!r}", lineno)
        # ASCII digits after an optional minus: `int` alone also takes a '+',
        # '_' between digits and the digits of other scripts
        if not (len(fields) == 2 and line.isascii() and fields[0].removeprefix("-").isdigit()
                and fields[1].removeprefix("-").isdigit()):
            raise ParseError(f"expected '<u> <v>', got {line!r}", lineno)
        u, v = int(fields[0]), int(fields[1])
        if not (0 <= u < side and 0 <= v < side):
            raise ParseError(f"point {line.strip()!r} outside [0, 2^{n})^2", lineno)
        coords += u, v
    if len(coords) < 2 * count:
        raise ParseError(f"file ends after {len(coords) // 2} of {count} points", lineno + 1)
    return LatticePointSet(scale, np.array(coords, dtype=np.int64).reshape(-1, 2))
