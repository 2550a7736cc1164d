"""Dyadic scales, directions on the half-circle, and exact slope arithmetic.

Everything downstream works on the quotient circle [0, pi): a direction and
its antipode produce the same projection covering numbers, so directions are
stored as angles theta in [0, pi) and all direction sweeps run over that
half-circle.  Arc lengths on the quotient are half the corresponding full
S^1 arc lengths.

Angles are ordinary doubles.  Slopes that feed the exact grid construction
are `fractions.Fraction` values (alias `ExactSlope`), compared by
cross-multiplication, never through floats.

`_group_rows` groups integer rows, such as the level-k cube indices of the
dyadic coarsenings, by one lexsort of their columns; `_row_starts` marks
where the runs of equal rows of an already sorted array start.  It is the
one consecutive-row test: of `_group_rows`, of the duplicate scans in
`LatticePointSet` and `DyadicMeasure`, and of the cube runs in
`ad_regularity_check` and `multiscale_check`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

PI = math.pi

# Exact rational slope: reduced, positive denominator, exact ordering.
ExactSlope = Fraction


class InvalidParameterError(ValueError):
    """A parameter fails a documented range or integrality constraint."""


@dataclass(frozen=True)
class Scale:
    """Dyadic scale delta = 2^-n."""

    n: int

    def __post_init__(self):
        if not (0 <= self.n <= 62):
            raise InvalidParameterError(f"dyadic level n={self.n} outside [0, 62]")

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.n)

    @property
    def side(self) -> int:
        """Number of lattice cells per axis, 2^n."""
        return 1 << self.n


@dataclass(frozen=True)
class Direction:
    """Unit direction identified with its antipode, stored as theta in [0, pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise InvalidParameterError(f"theta={self.theta} must be finite")
        t = math.fmod(self.theta, PI) + 0.0  # + 0.0 turns -0.0 into 0.0
        if t < 0.0:
            t += PI
        if t >= PI:  # fmod roundoff can land exactly on pi
            t -= PI
        object.__setattr__(self, "theta", t)

    @property
    def unit(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))


@dataclass(frozen=True)
class ParamTriple:
    """The parameter triple (delta, s, r) = (2^-a, s, 2^-b) with 0 <= b <= a.

    s is kept as an exact rational in [1/2, 1); tau = b/a satisfies
    r = delta^tau exactly.
    """

    scale: Scale
    s: Fraction
    log2r: int

    def __post_init__(self):
        s = Fraction(self.s)
        object.__setattr__(self, "s", s)
        if not (Fraction(1, 2) <= s < 1):
            raise InvalidParameterError(f"s={s} outside [1/2, 1)")
        if not (0 <= self.log2r <= self.scale.n):
            raise InvalidParameterError(
                f"log2r={self.log2r} outside [0, {self.scale.n}]: need delta <= r <= 1"
            )

    @property
    def a(self) -> int:
        return self.scale.n

    @property
    def b(self) -> int:
        return self.log2r

    @property
    def delta(self) -> float:
        return self.scale.delta

    @property
    def r(self) -> float:
        return 2.0 ** (-self.log2r)

    @property
    def tau(self) -> Fraction:
        if self.a == 0:
            raise InvalidParameterError("tau undefined at scale n=0")
        return Fraction(self.b, self.a)

    def delta_pow(self, expo: Fraction) -> float:
        """delta^expo as a float, exponent handled exactly as a rational."""
        return 2.0 ** (-self.a * float(Fraction(expo)))

    def floor_delta_pow(self, expo: Fraction) -> int:
        """floor(delta^-expo) for expo = p/q >= 0, exact."""
        return floor_pow2(self.a * Fraction(expo))


def integer_root(x: int, k: int) -> int:
    """floor(x^(1/k)) for nonnegative integer x, exact."""
    if x < 0 or k < 1:
        raise InvalidParameterError("integer_root needs x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    hi = 1 << (x.bit_length() // k + 1)
    lo = 0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def floor_pow2(expo: Fraction) -> int:
    """floor(2^expo) for a nonnegative rational exponent, exact."""
    e = Fraction(expo)
    if e < 0:
        raise InvalidParameterError(f"floor_pow2 needs a nonnegative exponent, got {e}")
    return integer_root(1 << e.numerator, e.denominator)


# The largest direction grid: the default E_s sweep 4 * 2^a at a = 20.  A
# `Direction` takes about 113 bytes, so such a grid takes about 0.5 GB.
MAX_DIRECTIONS = 2**22


def _check_grid_size(p: int) -> None:
    """Refuse a direction grid of fewer than 1 or more than MAX_DIRECTIONS
    directions."""
    if p < 1:
        raise InvalidParameterError(f"direction grid size p={p} must be >= 1")
    if p > MAX_DIRECTIONS:
        raise InvalidParameterError(f"direction grid size p={p} is above 2^22")


def direction_angles(p: int) -> np.ndarray:
    """The angles theta_k = pi k / p, k = 0..p-1, of `direction_grid(p)` as a
    float64 array.  numpy rounds pi * k and the division by p as Python
    does, so these are the grid's thetas bit for bit, at 8 bytes a
    direction.  A grid of more than MAX_DIRECTIONS directions is refused."""
    _check_grid_size(p)
    return PI * np.arange(p) / p


def direction_grid(p: int) -> list[Direction]:
    """p equidistributed directions theta_k = pi k / p, k = 0..p-1, ascending.

    Consecutive (cyclic) gaps on the quotient circle are exactly pi/p.
    A grid of more than MAX_DIRECTIONS directions is refused.
    """
    return [Direction(t) for t in direction_angles(p).tolist()]


def perpendicular_direction(slope: ExactSlope | int) -> Direction:
    """Direction perpendicular to lines of the given slope.

    The returned e is proportional to (-slope, 1); projection onto e computes
    the functional y - slope*x up to the normalization 1/sqrt(1 + slope^2).
    """
    sigma = float(slope)
    return Direction(math.atan2(1.0, -sigma))


def _row_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a sorted 2-D array that start a run of equal
    rows: the first row, and each row that differs from its predecessor."""
    starts = np.zeros(len(rows), dtype=bool)
    starts[:1] = True
    for col in rows.T:
        starts[1:] |= col[1:] != col[:-1]
    return starts


def _group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a 2-D integer array in lexicographic order, and the
    index of each input row among them: the same arrays as numpy's row-wise
    `unique` with `return_inverse`, whose sort of the rows as a structured
    dtype is about ten times slower than a lexsort of the integer columns.
    A group starts at each sorted row that differs from its predecessor."""
    order = np.lexsort(keys.T[::-1])
    rows = keys[order]
    starts = _row_starts(rows)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return rows[starts], inverse
