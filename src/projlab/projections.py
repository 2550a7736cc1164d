"""Projections, 1D covering numbers, and the small-projection direction sets.

The covering primitive is the greedy sweep: sort the values, start a closed
interval of the requested width at the leftmost uncovered value, repeat.
For fixed-length intervals this greedy is exactly optimal, which the test
suite re-verifies against exhaustive enumeration on small instances.

A count runs in up to three passes:
- a capped count first tries a sort-free lower bound, a parity packing of
  bins just wider than one interval's reach;
- after the sort, one numpy pass splits the values at every gap wider than
  the reach w(1 + COVER_RTOL).  The greedy restarts at each such gap, since
  it compares with the same float expression and rounding is monotone.  A
  component whose span is within reach costs exactly one interval, so those
  are counted without a walk;
- the values of the wider components, concatenated, are walked in one
  call.  The walk bisects from each start to the first value past its
  interval, trying the previous stride first, so it reads only the values
  near the starts.  A gap between two components restarts the walk, as a
  separate call per component would.

`compute_E_s` evaluates the direction set

    E_s = { e : N(projection of the set along e, delta) <= delta^-s }

on a finite sweep grid of the half-circle.  The threshold comparison is done
in exact integer arithmetic (count^q <= 2^(a p) for s = p/q), so membership
at the threshold never depends on float rounding.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import Direction, InvalidParameterError, ParamTriple, direction_grid
from .pointsets import LatticePointSet

# Closed-interval coverage tolerance, relative to the interval width.
COVER_RTOL = 1e-12


def _sorted_values(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size > 1:
        if arr[0] > arr[-1]:
            arr = arr[::-1]
        # A comparison, not np.diff: inf - inf would be NaN.  A NaN beside
        # any value fails it, so NaN inputs are sorted too.
        if not (arr[1:] >= arr[:-1]).all():
            arr = np.sort(arr)
    return np.ascontiguousarray(arr)


def greedy_cover_starts(
    sorted_values: np.ndarray, width: float, stop_after: int | None = None
) -> np.ndarray:
    """Left endpoints of the greedy cover of sorted values by closed
    width-intervals.  If `stop_after` is given, gives up once that many
    intervals have been started (the true count is then >= stop_after).

    Each step starts an interval at value i and moves to the first value
    past v[i] + reach, reach = width * (1 + COVER_RTOL), with `bisect_right`
    on a memoryview: the walk reads only the values near the starts.
    Python float addition is numpy's float64 addition, and `bisect_right`
    finds the index `searchsorted(side="right")` finds, so the starts are
    those of a per-interval numpy search.  The previous stride is tried
    first: on lattice projections the strides mostly repeat, and two
    comparisons confirm a hit."""
    arr = np.asarray(sorted_values, dtype=np.float64)
    mv = memoryview(arr)
    n = len(mv)
    reach = width * (1.0 + COVER_RTOL)
    limit = n if stop_after is None else stop_after
    # Memory: the walk flags starts rather than append them to a list.
    # Walks over arrays whose sizes change from call to call otherwise raise
    # a sweep's peak RSS.
    started = bytearray(n)
    k = i = 0
    stride = 1
    while i < n and k < limit:
        started[i] = 1
        k += 1
        end = mv[i] + reach
        # A miss bisects the stride below the guess, or the stride above it
        # before the rest of the array.
        j = i + stride
        if j >= n:
            j = n if mv[n - 1] <= end else bisect_right(mv, end, i + 1, n - 1)
        elif mv[j] <= end:
            hi = j + stride
            j = bisect_right(mv, end, j + 1, hi if hi < n and end < mv[hi] else n)
        elif not mv[j - 1] <= end:
            j = bisect_right(mv, end, i + 1, j - 1)
        stride = j - i
        i = j
    return arr[np.frombuffer(started, dtype=bool)]


def covering_number_1d(values, width: float, stop_after: int | None = None) -> int:
    """Minimum number of closed length-`width` intervals covering the values.

    The values may come in any order.  Empty input gives 0.  Ties (a value
    exactly at an interval end) count as covered, up to a relative 1e-12
    slack.  A NaN value raises `InvalidParameterError`; an infinite value is
    a point of its own, and equal infinities share one interval.  With
    `stop_after` the result is min(count, stop_after): a lower bound that
    already reaches it decides before any sort, otherwise counting stops
    there.  The lower bound of non-empty input is at least 1, so a
    `stop_after` of 1 or less returns `stop_after` after that one pass.

    After the sort the values split into gap components, broken wherever
    v[i+1] > v[i] + reach with the walk's own reach = w(1 + COVER_RTOL).
    Rounding is monotone, so no interval started left of such a gap reaches
    past it, and the greedy restarts at each component.  A component with
    v[last] <= v[first] + reach costs exactly one interval; only the wider
    ones are walked, in one `greedy_cover_starts` call over their
    concatenation that bisects from start to start, and whose gaps still
    restart the walk.  With `stop_after`, the component count, and then that
    count plus one per wide component, are lower bounds that may decide
    before the walk.
    """
    if not 0 < width < np.inf:
        raise InvalidParameterError(f"width={width} must be positive and finite")
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0
    if stop_after is not None and covering_lower_bound(arr, width) >= stop_after:
        return stop_after
    arr = _sorted_values(arr)
    if np.isnan(arr[-1]):  # the sort puts any NaN last
        raise InvalidParameterError("values must not be NaN")
    reach = width * (1.0 + COVER_RTOL)
    heads = np.flatnonzero(arr[1:] > arr[:-1] + reach) + 1
    comps = heads.size + 1
    if stop_after is not None and comps >= stop_after:
        return stop_after
    first = np.concatenate(([0], heads))
    last = np.concatenate((heads - 1, [arr.size - 1]))
    wide = ~(arr[last] <= arr[first] + reach)
    ones = comps - int(np.count_nonzero(wide))
    if ones == comps:
        return ones
    if stop_after is not None and 2 * comps - ones >= stop_after:
        return stop_after  # a wide component takes two intervals or more
    cap = None if stop_after is None else stop_after - ones
    walked = arr if ones == 0 else arr[np.repeat(wide, last - first + 1)]
    return ones + len(greedy_cover_starts(walked, width, stop_after=cap))


def covering_lower_bound(values, width: float) -> int:
    """Cheap certified lower bound, in any order: a parity packing.  Values
    are binned up from their minimum at width w(1 + COVER_RTOL) + 2^-48 max|v|,
    past one interval's reach by a margin for the rounding of the bins and of
    the greedy's right ends, so occupied bins of one parity are pairwise out
    of reach.  Bins are marked in a table of 2n slots, folded modulo its even
    size, which keeps parity; a collision only lowers the count.  A NaN
    value raises `InvalidParameterError`, as in `covering_number_1d`."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0
    lo, hi = float(arr.min()), float(arr.max())
    if np.isnan(hi):  # min and max both propagate a NaN
        raise InvalidParameterError("values must not be NaN")
    if not hi - lo < np.inf:  # an infinite value
        return 1
    bw = width * (1.0 + COVER_RTOL) + 2.0**-48 * max(-lo, hi)
    bins = arr - lo
    bins /= bw  # at most 2^49, as bw >= 2^-48 max|v|
    bins = bins.astype(np.intp)  # truncation is floor: v - lo >= 0
    table = np.zeros(2 * arr.size, dtype=bool)
    if (hi - lo) / bw >= table.size:
        bins %= table.size
    table[bins] = True
    occupied = int(np.count_nonzero(table))
    odd = int(np.count_nonzero(table[1::2]))
    return max(odd, occupied - odd)


@dataclass(frozen=True)
class ProjectionProfile:
    direction: Direction
    values: np.ndarray  # sorted ascending
    covering_number: int  # at the set's own delta


def _raw_projection(ps: LatticePointSet, e: Direction) -> np.ndarray:
    """Orthogonal projection values of the set along e in point order, in the
    set's unit coordinates (lattice points times its own delta)."""
    c, s = e.unit
    return (ps.points[:, 0] * c + ps.points[:, 1] * s) * ps.scale.delta


def projection_values(ps: LatticePointSet, e: Direction) -> np.ndarray:
    """`_raw_projection` sorted ascending.  Direction sweeps count with
    `covering_number_1d` at the width they need."""
    return _sorted_values(_raw_projection(ps, e))


def project(ps: LatticePointSet, e: Direction) -> ProjectionProfile:
    """`projection_values` along e, with the covering number at the set's
    own delta attached."""
    vals = projection_values(ps, e)
    return ProjectionProfile(e, vals, covering_number_1d(vals, ps.scale.delta))


@dataclass(frozen=True)
class DirectionSetES:
    """Sweep-grid approximation of E_s, with the full sweep table retained.

    `sweep_counts` are exact covering numbers for members; for non-members
    they are min(count, floor(threshold) + 1), since the sweep stops
    counting once membership is decided.
    """

    params: ParamTriple
    members: list[Direction]
    threshold: float  # delta^-s, for display; membership used exact arithmetic
    sweep_thetas: np.ndarray = field(repr=False)
    sweep_counts: np.ndarray = field(repr=False)
    sweep_is_member: np.ndarray = field(repr=False)

    def member_arcs(self) -> list[tuple[float, float]]:
        """Membership as maximal runs [theta_lo, theta_hi] of consecutive
        sweep gridpoints, merged across the 0 ~ pi wrap."""
        flags = self.sweep_is_member
        if not flags.any():
            return []
        th = self.sweep_thetas
        arcs = []
        start = None
        for i, f in enumerate(flags):
            if f and start is None:
                start = i
            elif not f and start is not None:
                arcs.append((th[start], th[i - 1]))
                start = None
        if start is not None:
            arcs.append((th[start], th[-1]))
        if len(arcs) > 1 and flags[0] and flags[-1]:
            first = arcs.pop(0)
            last = arcs.pop()
            arcs.append((last[0], first[1]))  # wraps through theta = 0
        return arcs


def compute_E_s(
    ps: LatticePointSet,
    params: ParamTriple,
    sweep: int | None = None,
) -> DirectionSetES:
    """Evaluate E_s membership on direction_grid(sweep).

    The sweep defaults to 4 * 2^n gridpoints so the angular resolution is
    finer than delta.  Each direction is the unsorted projection handed to
    `covering_number_1d` at width params.delta.  The count stops at
    floor(delta^-s) + 1, where membership is decided, and the projection is
    sorted only when the lower bound leaves it open.
    """
    if sweep is None:
        sweep = 4 * ps.scale.side
    if sweep < 1:
        raise InvalidParameterError(f"sweep={sweep} must be >= 1")
    t_int = params.floor_delta_pow(params.s)  # floor(delta^-s), exact
    grid = direction_grid(sweep)
    counts = np.array(
        [covering_number_1d(_raw_projection(ps, d), params.delta, stop_after=t_int + 1)
         for d in grid],
        dtype=np.int64,
    )
    is_member = counts <= t_int
    members = [d for d, ok in zip(grid, is_member) if ok]
    return DirectionSetES(
        params=params,
        members=members,
        threshold=params.delta_pow(-params.s),
        sweep_thetas=np.array([d.theta for d in grid]),
        sweep_counts=counts,
        sweep_is_member=is_member,
    )


def covering_number_directions(E: DirectionSetES | list[Direction], r: float) -> int:
    """Minimal number of closed arcs of length r covering the member angles
    on the quotient circle [0, pi), wrap-around included."""
    dirs = E.members if isinstance(E, DirectionSetES) else E
    thetas = np.array([d.theta for d in dirs])
    return covering_number_circle(thetas, r, circumference=np.pi)


def covering_number_circle(points, r: float, circumference: float) -> int:
    """Exact minimal covering of circle points by closed arcs of length r.

    Some optimal cover has every arc's left end anchored at a point.  Fix
    the pivot point right after the largest cyclic gap; the arc covering the
    pivot is anchored at a point within distance r behind it, and given that
    first arc the rest of the circle is covered optimally by the linear
    greedy.  Minimizing over the (few) admissible anchors is exact.
    """
    if not 0 < r < np.inf:
        raise InvalidParameterError(f"arc length r={r} must be positive and finite")
    th = np.unique(np.asarray(points, dtype=np.float64) % circumference)
    k = len(th)
    if k == 0:
        return 0
    if r >= circumference:
        return 1
    lifted = np.concatenate([th, th + circumference])  # th, then th one turn on
    gaps = np.diff(lifted[:k + 1])
    reach = r * (1.0 + COVER_RTOL)
    pivot = (int(np.argmax(gaps)) + 1) % k
    # the linear greedy over the k points unrolled from each anchor th[idx]
    # whose arc reaches the pivot (idx = pivot always does)
    return min(
        len(greedy_cover_starts(lifted[idx:idx + k], r))
        for idx in range(k)
        if (th[pivot] - th[idx]) % circumference <= reach
    )


def esets_csv(es: DirectionSetES, stream) -> None:
    """Emit the sweep table: columns theta,covering_number,is_member."""
    stream.write("theta,covering_number,is_member\n")
    for th, cnt, ok in zip(es.sweep_thetas, es.sweep_counts, es.sweep_is_member):
        stream.write(f"{th:.17g},{int(cnt)},{int(ok)}\n")
