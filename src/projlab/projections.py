"""Projections, 1D covering numbers, and the small-projection direction sets.

The covering primitive is the greedy sweep: sort the values, start a closed
interval of the requested width at the leftmost uncovered value, repeat.
For fixed-length intervals this greedy is exactly optimal, which the test
suite re-verifies against exhaustive enumeration on small instances.

The sweep runs on next pointers: one vectorized `searchsorted` gives, for
every sorted value, the index of the first value past the interval that
starts there, and the greedy walks those pointers from index 0.  A capped
count first tries a sort-free lower bound, half the number of occupied
2w-bins, marked in a boolean table; only when that bound stays below the
cap are the values sorted and walked.

`compute_E_s` evaluates the direction set

    E_s = { e : N(projection of the set along e, delta) <= delta^-s }

on a finite sweep grid of the half-circle.  The threshold comparison is done
in exact integer arithmetic (count^q <= 2^(a p) for s = p/q), so membership
at the threshold never depends on float rounding.
"""

from __future__ import annotations

import math
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
        d = np.diff(arr)
        if (d < 0).any():
            arr = np.sort(arr, kind="stable")
    return np.ascontiguousarray(arr)


def greedy_cover_starts(
    sorted_values: np.ndarray, width: float, stop_after: int | None = None
) -> np.ndarray:
    """Left endpoints of the greedy cover of sorted values by closed
    width-intervals.  If `stop_after` is given, gives up once that many
    intervals have been started (the true count is then >= stop_after).

    The walk follows next pointers: nxt[i] is the index of the first value
    past the interval that starts at value i, where the greedy starts its
    next interval."""
    arr = np.asarray(sorted_values, dtype=np.float64)
    n = len(arr)
    nxt = np.searchsorted(arr, arr + width * (1.0 + COVER_RTOL), side="right")
    limit = n if stop_after is None else stop_after
    starts = []
    i = 0
    while i < n and len(starts) < limit:
        starts.append(i)
        i = nxt.item(i)
    return arr[np.asarray(starts, dtype=np.intp)]


def covering_number_1d(values, width: float, stop_after: int | None = None) -> int:
    """Minimum number of closed length-`width` intervals covering the values.

    The values may come in any order.  Empty input gives 0.  Ties (a value
    exactly at an interval end) count as covered, up to a relative 1e-12
    slack.  With `stop_after` the result is min(count, stop_after): a lower
    bound that already reaches it decides before any sort, otherwise
    counting stops there.
    """
    if width <= 0:
        raise InvalidParameterError(f"width={width} must be positive")
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0
    if stop_after is not None and covering_lower_bound(arr, width) >= stop_after:
        return stop_after
    return len(greedy_cover_starts(_sorted_values(arr), width, stop_after=stop_after))


def covering_lower_bound(values, width: float) -> int:
    """Cheap certified lower bound, in any order: ceil(B/2) where B counts
    occupied bins of width 2w, since one closed w-interval meets at most two
    such bins.  Bins are marked in a table of 2n slots, folded modulo its
    size; a collision only lowers B, so the bound stays certified."""
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        return 0
    with np.errstate(over="ignore"):
        bins = np.floor(arr / (2.0 * width))
    bins -= bins.min()
    top = float(bins.max())
    if not math.isfinite(top):  # the width is too small to bin the values
        return 1
    table = np.zeros(2 * arr.size, dtype=bool)
    if top >= table.size:  # float modulo costs more than the rest of the bound
        bins %= table.size
    table[bins.astype(np.intp)] = True
    occupied = int(np.count_nonzero(table))
    return (occupied + 1) // 2


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
    they may be clipped to threshold+1 (the sweep stops counting once
    membership is decided) unless the set was built with full_counts=True.
    """

    params: ParamTriple
    members: list[Direction]
    threshold: float  # delta^-s, for display; membership used exact arithmetic
    sweep_thetas: np.ndarray = field(repr=False)
    sweep_counts: np.ndarray = field(repr=False)
    sweep_is_member: np.ndarray = field(repr=False)

    def member_thetas(self) -> np.ndarray:
        return np.array([d.theta for d in self.members])

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
    full_counts: bool = False,
) -> DirectionSetES:
    """Evaluate E_s membership on direction_grid(sweep).

    The sweep defaults to 4 * 2^n gridpoints so the angular resolution is
    finer than delta.  Each direction is the unsorted projection handed to
    `covering_number_1d` at width params.delta; unless `full_counts`, the
    count stops at floor(delta^-s) + 1, where membership is decided, and the
    projection is sorted only when the lower bound leaves it open.
    """
    if sweep is None:
        sweep = 4 * ps.scale.side
    if sweep < 1:
        raise InvalidParameterError(f"sweep={sweep} must be >= 1")
    t_int = params.floor_delta_pow(params.s)  # floor(delta^-s), exact
    stop = None if full_counts else t_int + 1
    grid = direction_grid(sweep)
    counts = np.array(
        [covering_number_1d(_raw_projection(ps, d), params.delta, stop_after=stop)
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
    if isinstance(E, DirectionSetES):
        thetas = E.member_thetas()
    else:
        thetas = np.array([d.theta for d in E])
    return covering_number_circle(thetas, r, circumference=np.pi)


def covering_number_circle(points, r: float, circumference: float) -> int:
    """Exact minimal covering of circle points by closed arcs of length r.

    Some optimal cover has every arc's left end anchored at a point.  Fix
    the pivot point right after the largest cyclic gap; the arc covering the
    pivot is anchored at a point within distance r behind it, and given that
    first arc the rest of the circle is covered optimally by the linear
    greedy.  Minimizing over the (few) admissible anchors is exact.
    """
    if r <= 0:
        raise InvalidParameterError(f"arc length r={r} must be positive")
    th = np.unique(np.asarray(points, dtype=np.float64) % circumference)
    k = len(th)
    if k == 0:
        return 0
    if r >= circumference:
        return 1
    gaps = np.diff(np.concatenate([th, [th[0] + circumference]]))
    reach = r * (1.0 + COVER_RTOL)

    def greedy_from(idx: int) -> int:
        # cover all k points going cyclically from the arc anchored at th[idx]
        count = 0
        pos = 0  # points consumed, counted from idx
        while pos < k:
            count += 1
            i = idx + pos
            start = th[i % k] + (circumference if i >= k else 0.0)
            limit = start + reach
            while pos < k:
                j = idx + pos
                val = th[j % k] + (circumference if j >= k else 0.0)
                if val <= limit:
                    pos += 1
                else:
                    break
        return count

    pivot = (int(np.argmax(gaps)) + 1) % k
    best = None
    for idx in range(k):
        back = (th[pivot] - th[idx]) % circumference
        if back <= reach:  # the arc anchored at th[idx] reaches the pivot
            cnt = greedy_from(idx)
            best = cnt if best is None else min(best, cnt)
    return best


def esets_csv(es: DirectionSetES, stream) -> None:
    """Emit the sweep table: columns theta,covering_number,is_member."""
    stream.write("theta,covering_number,is_member\n")
    for th, cnt, ok in zip(es.sweep_thetas, es.sweep_counts, es.sweep_is_member):
        stream.write(f"{th:.17g},{int(cnt)},{int(ok)}\n")
