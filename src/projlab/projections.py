"""Projections, 1D covering numbers, and the small-projection direction sets.

The covering primitive is the greedy sweep: sort the values, start a closed
interval of the requested width at the leftmost uncovered value, repeat.
For fixed-length intervals this greedy is exactly optimal, which the test
suite re-verifies against exhaustive enumeration on small instances.

`greedy_cover_starts` is the walk, and the one function that takes a cap.
It bisects from each start to the first value past its interval, trying the
previous stride first, so it reads only the values near the starts.
`covering_number_1d` counts without a cap and walks less:
- one numpy pass splits the sorted values at every gap wider than the reach
  w(1 + COVER_RTOL).  The greedy restarts at each such gap, since it
  compares with the same float expression and rounding is monotone.  A
  component whose span is within reach costs exactly one interval, so those
  are counted without a walk;
- the values of the wider components, concatenated, are walked in one
  call.  A gap between two components restarts the walk, as a separate call
  per component would.

The sweep in `compute_E_s` needs each count only up to a cap, and tries one
sort-free lower bound first, on the set rather than on a projection:
`_BoxBins` shifts the unit coordinates to the corners of their bounding box
once per set and counts a parity packing of bins just wider than one
interval's reach, straight from those columns.  Widened by the diameter of
the box times an angular spread, the same bins bound every direction within
that spread, so one evaluation at a run's mid-angle decides a whole run of
consecutive sweep angles, and a run it leaves open is halved.  A
direction a bound decides is never projected; a single direction left open
is projected, sorted and walked by `greedy_cover_starts` with the cap.  The
sweep builds a `Direction` only for the angles it evaluates and for its
members.  A member's walk ends below the cap, so
its starts are the full greedy cover: they are the member's delta-tubes,
and `incidence.build_tubes` returns them as they are.  No other path walks
a direction for tubes.

`compute_E_s` evaluates the direction set

    E_s = { e : N(projection of the set along e, delta) <= delta^-s }

on a finite sweep grid of the half-circle.  The threshold comparison is done
in exact integer arithmetic (count^q <= 2^(a p) for s = p/q), so membership
at the threshold never depends on float rounding.  Direction loops, here and
in `incidence`, convert the set to float unit coordinates once, above the
loop, and project those per direction with the same values as `project`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .core import PI, Direction, InvalidParameterError, ParamTriple, direction_angles
from .pointsets import LatticePointSet

# Closed-interval coverage tolerance, relative to the interval width.
COVER_RTOL = 1e-12


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


def covering_number_1d(values, width: float) -> int:
    """Minimum number of closed length-`width` intervals covering the values.

    The values may come in any order.  Empty input gives 0.  Ties (a value
    exactly at an interval end) count as covered, up to a relative 1e-12
    slack.  A NaN value raises `InvalidParameterError`; an infinite value is
    a point of its own, and equal infinities share one interval.

    The sorted values split into gap components, broken wherever
    v[i+1] > v[i] + reach with the walk's own reach = w(1 + COVER_RTOL).
    Rounding is monotone, so no interval started left of such a gap reaches
    past it, and the greedy restarts at each component.  A component with
    v[last] <= v[first] + reach costs exactly one interval; only the wider
    ones are walked, in one `greedy_cover_starts` call over their
    concatenation that bisects from start to start, and whose gaps still
    restart the walk.
    """
    if not 0 < width < np.inf:
        raise InvalidParameterError(f"width={width} must be positive and finite")
    arr = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if arr.size == 0:
        return 0
    if np.isnan(arr[-1]):  # the sort puts any NaN last
        raise InvalidParameterError("values must not be NaN")
    reach = width * (1.0 + COVER_RTOL)
    heads = np.flatnonzero(arr[1:] > arr[:-1] + reach) + 1
    first = np.concatenate(([0], heads))
    last = np.concatenate((heads - 1, [arr.size - 1]))
    wide = ~(arr[last] <= arr[first] + reach)
    ones = first.size - int(np.count_nonzero(wide))
    if ones == first.size:
        return ones
    walked = arr if ones == 0 else arr[np.repeat(wide, last - first + 1)]
    return ones + len(greedy_cover_starts(walked, width))


# Bin width margin of `_BoxBins`, relative to the largest |unit coordinate|.
BOX_MARGIN = 2.0**-46
# Margin that rounds the box diameter of `_BoxBins` up.
DIAM_RTOL = 2.0**-40


class _BoxBins:
    """The sort-free parity bound of `compute_E_s`, on columns prepared once
    per set: the unit coordinates shifted to the corners of their bounding
    box, X0 = x - x_min, X1 = x - x_max and Y0 = y - y_min.

    Along e = (c, s), s >= 0 on [0, pi), the bin of a point is t truncated,
    with t = X (c/W) + Y0 (s/W) and X = X0 if c >= 0, else X1, for the bin
    width W (bw, below, unless a spread widens it).  Both terms are
    non-negative, so t >= 0 needs no min or offset pass, and t is at most
    the box span T = Xspan |c/W| + Yspan (s/W), computed with the same
    rounded operations, as rounding is monotone and symmetric.

    The bound is max(odd, occupied - odd) over the occupied bins.  It holds
    when no greedy interval reaches from one bin to the next-but-one, since
    each interval then meets at most one occupied bin of each parity.  The
    bins are marked in a table of 2n slots for n points, folded modulo its
    even size once the span T reaches it, which keeps parity; a collision
    only lowers the count.

    `lower_bound(e, spread)` bounds the greedy count along every direction
    e' = (c', s') whose angle theta' has fl(|theta' - theta|) <= spread,
    where theta is e's angle: one evaluation decides a run of sweep angles
    around its mid-angle.  It bins at the widened width
    W = fl(bw + fl(D spread)).  D = fl(hypot(Xspan, Yspan)) (1 + DIAM_RTOL),
    rounded, is at least the set's diameter D0 times 1 + 2^-41.  At
    spread 0, W is bw bit for bit and e' = e: the single-direction bound.

    The bin width is bw = reach + BOX_MARGIN M, with reach = w(1 + COVER_RTOL)
    the greedy's own and M the largest |unit coordinate|.  Soundness, with
    u = 2^-53 and every operation rounded to nearest (a subnormal result
    adds at most 2^-1075, far inside the uM of slack left below, as a
    nonzero M is at least 2^-62):
    - the greedy along e' counts v = fl(fl(x c') + fl(y s')), within 3uM of
      the exact p' = x c' + y s', since |c'| + |s'| <= 1.42;
    - two values v_a <= v_b of one greedy interval started at v_0 satisfy
      v_b - v_a <= fl(v_0 + reach) - v_0 <= reach(1 + u) + 1.5uM, so
      |p'_b - p'_a| <= reach(1 + u) + 7.5uM;
    - along e the exact p = x c + y s differs by the rest:
      |p_b - p_a| <= |p'_b - p'_a| + D0 |e - e'|.  With cos and sin within
      one ulp (at most 2u) of the true values, |e - e'| is at most
      |theta - theta'| + 5.7u <= spread(1 + u) + 5.7u, and D0 <= 2.83M, so
      |p_b - p_a| <= reach(1 + u) + 23.6uM + D0 spread(1 + u);
    - X carries one rounding (the shifted columns are not always exact, for
      example at `Scale(62)` above 2^53), c/W one, the product one and the
      sum one.  Both summands are non-negative, so these relative errors
      bound |t - tau| <= 4.01u tau <= 11.7uM/W, where tau = (p - p0)/W for
      the box corner's exact p0, and tau <= 2M 1.42/W;
    - so W |t_b - t_a| <= reach(1 + u) + 47uM + D0 spread(1 + u).  Here
      D0 spread(1 + u) <= fl(D spread)(1 - u), and W >= (bw + fl(D spread))
      (1 - u), so the sum is at most W when reach(1 + u) + 47uM <= bw(1 - u).
      That holds when reach <= 24M, as bw >= (reach + 128uM)(1 - u).
      Otherwise W |t_b - t_a| <= |p_b - p_a| + 23.4uM <= 3M < bw <= W anyway.
    Hence |t_b - t_a| <= 1, their bins differ by at most one, and each
    interval meets at most one occupied bin of each parity.  t stays below
    2^48, as W >= bw >= 2^-46 M.
    """

    def __init__(self, xy: tuple[np.ndarray, np.ndarray], width: float):
        x, y = xy
        if x.size:
            x_lo, x_hi = float(x.min()), float(x.max())
            y_lo, y_hi = float(y.min()), float(y.max())
        else:
            x_lo = x_hi = y_lo = y_hi = 0.0
        self.x0, self.x1, self.y0 = x - x_lo, x - x_hi, y - y_lo
        self.x_span, self.y_span = x_hi - x_lo, y_hi - y_lo
        big = max(-x_lo, x_hi, -y_lo, y_hi)
        self.bw = width * (1.0 + COVER_RTOL) + BOX_MARGIN * big
        self.diam = math.hypot(self.x_span, self.y_span) * (1.0 + DIAM_RTOL)

    def lower_bound(self, e: Direction, spread: float = 0.0) -> int:
        bin_w = self.bw + self.diam * spread
        c, s = e.unit
        cb, sb = c / bin_w, s / bin_w
        t = (self.x0 if c >= 0 else self.x1) * cb
        t += self.y0 * sb
        bins = t.astype(np.intp)
        table = np.zeros(2 * bins.size, dtype=bool)
        if self.x_span * abs(cb) + self.y_span * sb >= table.size:
            bins %= table.size
        table[bins] = True
        occupied = int(np.count_nonzero(table))
        # each little-endian slot pair is one uint16, its odd slot the high byte
        odd = int(np.count_nonzero(table.view("<u2") > 0xFF))
        return max(odd, occupied - odd)


@dataclass(frozen=True)
class ProjectionProfile:
    values: np.ndarray  # sorted ascending
    covering_number: int  # at the set's own delta


def _unit_coords(ps: LatticePointSet) -> tuple[np.ndarray, np.ndarray]:
    """The set's unit coordinates, lattice points times its own delta, as two
    contiguous float64 columns.  A direction loop computes them once and
    hands them to `_project_coords` per direction.

    Projecting them gives the values of (u c + v s) delta bit for bit.
    delta = 2^-n is a power of two, and scaling by a power of two commutes
    with round-to-nearest unless something underflows.  Nothing does:
    |cos| and |sin| of a direction are 0 or at least about 6e-17, and
    delta >= 2^-62.  Each coordinate still goes through one int64 to float64
    conversion, here instead of inside the product."""
    delta = ps.scale.delta
    return ps.points[:, 0] * delta, ps.points[:, 1] * delta


def _project_coords(xy: tuple[np.ndarray, np.ndarray], e: Direction) -> np.ndarray:
    """Projection values x c + y s along e, in point order.  Plain elementwise
    multiply and add, which no product routine may fuse or reorder."""
    c, s = e.unit
    x, y = xy
    v = x * c
    v += y * s
    return v


def projection_values(ps: LatticePointSet, e: Direction) -> np.ndarray:
    """Orthogonal projection values of the set along e, in the set's unit
    coordinates (lattice points times its own delta), sorted ascending."""
    return np.sort(_project_coords(_unit_coords(ps), e))


def project(ps: LatticePointSet, e: Direction) -> ProjectionProfile:
    """`projection_values` along e, with the covering number at the set's
    own delta attached."""
    vals = projection_values(ps, e)
    return ProjectionProfile(vals, covering_number_1d(vals, ps.scale.delta))


@dataclass(frozen=True)
class DirectionSetES:
    """Sweep-grid approximation of E_s, with the full sweep table retained.

    `sweep_counts` are exact covering numbers for members; for non-members
    they are min(count, floor(threshold) + 1), since the sweep stops
    counting once membership is decided.  `member_starts[i]` holds the
    ascending greedy starts of the delta-cover along `members[i]`, one per
    counted interval, in the unit coordinates of the swept set.
    """

    params: ParamTriple
    members: list[Direction]
    threshold: float  # delta^-s, for display; membership used exact arithmetic
    sweep_thetas: np.ndarray = field(repr=False)
    sweep_counts: np.ndarray = field(repr=False)
    sweep_is_member: np.ndarray = field(repr=False)
    member_starts: list[np.ndarray] = field(repr=False)

    def member_arcs(self) -> list[tuple[float, float]]:
        """Membership as maximal runs [theta_lo, theta_hi] of consecutive
        sweep gridpoints, merged across the 0 ~ pi wrap."""
        flags = self.sweep_is_member
        th = self.sweep_thetas
        edges = np.diff(flags.astype(np.int8), prepend=0, append=0)
        arcs = list(zip(th[edges[:-1] == 1].tolist(), th[edges[1:] == -1].tolist()))
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
    """Evaluate E_s membership on the angles of direction_grid(sweep).

    The sweep defaults to 4 * 2^a gridpoints, a = params.a, so the angular
    resolution is finer than delta = 2^-a whatever the set's own scale.
    Each direction's count stops at stop = floor(delta^-s) + 1, where
    membership is decided.

    The parity bound of `_BoxBins`, on box columns prepared once per set,
    decides most directions without their projection, and one evaluation
    can decide a whole run of consecutive sweep angles.  The sweep walks
    the angles left to right and tries the run [i, i + n) at its
    mid-angle, its bins widened by the spread, the largest float distance
    from the mid-angle to an angle of the run.  A bound of at least stop
    decides every direction of the run.  A run of one is a single
    direction, at spread 0, and if the bound leaves it open it is
    projected, sorted and walked by `greedy_cover_starts` up to the cap.
    Either way the count is min(count, stop), and a member's greedy starts
    are kept in `member_starts`.  Runs only ever decide non-members, so the
    counts do not depend on which runs are tried.

    The run length n follows three rules and one flag, `probe`: no run has
    been left open since the last walked direction.
    - After a decided run, n is `fit`, the longest run whose widened width
      is at most W L / stop, as a bound L at width W falls about as 1/width
      while the bins are dense.  While `probe` holds, n is at least twice
      the decided run's length.
    - After an open run of two or more angles, `probe` is cleared and n is
      halved.
    - After a walked direction, `probe` is set and n stays 1.
    """
    if sweep is None:
        sweep = 4 * params.scale.side
    if sweep < 1:
        raise InvalidParameterError(f"sweep={sweep} must be >= 1")
    t_int = params.floor_delta_pow(params.s)  # floor(delta^-s), exact
    stop = t_int + 1
    thetas = direction_angles(sweep)
    th = thetas.tolist()
    xy = _unit_coords(ps)
    box = _BoxBins(xy, params.delta)
    counts = np.full(sweep, stop, dtype=np.int64)
    member_starts = []
    widening = box.diam * PI / sweep  # the widened width grows this much per angle step
    i, n = 0, 1  # the next run is [i, i + n); a run of one is at spread 0
    probe = True  # no run left open since the last walked direction
    while i < sweep:
        j = min(i + n, sweep) - 1
        d = Direction((th[i] + th[j]) / 2)
        spread = max(d.theta - th[i], th[j] - d.theta)
        bound = box.lower_bound(d, spread)
        n = j + 1 - i
        if bound >= stop:
            # the longest run whose widened width, about bw + widening (fit - 1)/2,
            # is at most W L / stop
            room = (box.bw + box.diam * spread) * bound / stop - box.bw
            fit = 1 + int(2 * room / widening) if room > 0 else 1
            i = j + 1
            n = max(fit, 2 * n) if probe else fit
        elif n > 1:
            probe = False
            n //= 2
        else:
            starts = greedy_cover_starts(np.sort(_project_coords(xy, d)), params.delta, stop)
            counts[i] = len(starts)
            if len(starts) < stop:
                member_starts.append(starts)
            i += 1
            probe = True
    is_member = counts <= t_int
    return DirectionSetES(
        params=params,
        members=[Direction(t) for t in thetas[is_member].tolist()],
        threshold=params.delta_pow(-params.s),
        sweep_thetas=thetas,
        sweep_counts=counts,
        sweep_is_member=is_member,
        member_starts=member_starts,
    )


def covering_number_directions(es: DirectionSetES, r: float) -> int:
    """Minimal number of closed arcs of length r covering the member angles
    of the sweep on the quotient circle [0, pi), wrap-around included."""
    return covering_number_circle(es.sweep_thetas[es.sweep_is_member], r)


def covering_number_circle(points, r: float) -> int:
    """Exact minimal covering of angles on the quotient circle [0, pi) by
    closed arcs of length r.

    Some optimal cover has every arc's left end anchored at a point.  Fix
    the pivot point right after the largest cyclic gap; the arc covering the
    pivot is anchored at a point within distance r behind it, and given that
    first arc the rest of the circle is covered optimally by the linear
    greedy.  Minimizing over the (few) admissible anchors is exact.
    """
    if not 0 < r < np.inf:
        raise InvalidParameterError(f"arc length r={r} must be positive and finite")
    th = np.asarray(points, dtype=np.float64)
    if not np.isfinite(th).all():
        raise InvalidParameterError("angles must be finite")
    th = np.unique(th % np.pi)
    k = len(th)
    if k == 0:
        return 0
    if r >= np.pi:
        return 1
    lifted = np.concatenate([th, th + np.pi])  # th, then th one turn on
    gaps = np.diff(lifted[:k + 1])
    reach = r * (1.0 + COVER_RTOL)
    pivot = (int(np.argmax(gaps)) + 1) % k
    # the linear greedy over the k points unrolled from each anchor th[idx]
    # whose arc reaches the pivot (idx = pivot always does)
    return min(
        covering_number_1d(lifted[idx:idx + k], r)
        for idx in range(k)
        if (th[pivot] - th[idx]) % np.pi <= reach
    )


def esets_csv(es: DirectionSetES, stream) -> None:
    """Emit the sweep table: columns theta,covering_number,is_member."""
    stream.write("theta,covering_number,is_member\n")
    for th, cnt, ok in zip(es.sweep_thetas, es.sweep_counts, es.sweep_is_member):
        stream.write(f"{th:.17g},{int(cnt)},{int(ok)}\n")
