"""Point-tube incidence counting over per-direction tube families.

For each member e of an E_s sweep, the projection of the point set is
covered greedily by disjoint closed intervals of length delta, the triple's
delta; the tubes are the preimages of those intervals.  The sweep has
already walked that cover and kept its starts, so `build_tubes` reads them
and projects nothing.  Disjointness makes the count exact: every point lies
in exactly one tube per direction, so

    |I(P, T)| = |P| * #directions

always, which strengthens the generic lower bound >= |P| * #directions.
The three-term upper bound

    |P| |T|^(1/2) + |T| + sqrt(delta^-tau |P| |T|)

is a theorem for (delta,1)-sets and r-separated directions; it is emitted as
a measured ratio, never hard-asserted, because its absolute constant is a
log-factor away from the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Direction, InvalidParameterError, ParamTriple
from .pointsets import LatticePointSet
from .projections import COVER_RTOL, DirectionSetES, _project_coords, _unit_coords
from .records import ExperimentRecord


@dataclass(frozen=True)
class TubeFamily:
    scale_delta: float
    directions: list[Direction]
    starts: dict[float, np.ndarray]  # theta -> sorted interval starts

    @property
    def total(self) -> int:
        return sum(len(s) for s in self.starts.values())


@dataclass(frozen=True)
class IncidenceCount:
    count: int


def build_tubes(ps: LatticePointSet, es: DirectionSetES) -> TubeFamily:
    """The greedy disjoint delta-tubes of the set along every member of its
    E_s sweep, at the triple's delta = es.params.delta: the members' greedy
    starts the sweep kept.  Nothing is projected again."""
    if not es.members:
        raise InvalidParameterError("E_s is empty at this threshold; nothing to count")
    if not len(ps):
        raise InvalidParameterError("point set is empty")
    return TubeFamily(es.params.delta, list(es.members),
                      {d.theta: s for d, s in zip(es.members, es.member_starts)})


def count_incidences(ps: LatticePointSet, tubes: TubeFamily) -> IncidenceCount:
    """Exact count of the (point, tube) pairs with the point in the tube.

    Per direction the projection values are sorted, and each tube's closed
    interval [start, start + reach] counts the values in it by rank: the
    values up to its right end, by `searchsorted(side="right")`, less those
    below its start, by `searchsorted(side="left")`.  It projects the set
    again rather than reuse the values the sweep sorted, so that the
    `exact_lower_bound_equality` check in `upper_bound_report` stays an
    independent count: a point the tube build missed, or placed in two
    tubes (a start listed twice, say), shows up here.  The unit
    coordinates are computed once, above the direction loop."""
    reach = tubes.scale_delta * (1.0 + COVER_RTOL)
    xy = _unit_coords(ps)
    total = 0
    for d in tubes.directions:
        starts = tubes.starts[d.theta]
        vals = np.sort(_project_coords(xy, d))
        inside = (np.searchsorted(vals, starts + reach, side="right")
                  - np.searchsorted(vals, starts, side="left"))
        total += int(inside.sum())
    return IncidenceCount(total)


def upper_bound_report(
    ps: LatticePointSet,
    tubes: TubeFamily,
    params: ParamTriple,
) -> ExperimentRecord:
    """Exact incidence count against the three-term bound, as a measured ratio.

    The bound assumes a dyadic Frostman set, which nothing here certifies,
    so the record's `frostman_certified` reads false.
    """
    counts = count_incidences(ps, tubes)
    n_points = len(ps)
    n_tubes = tubes.total
    tau = float(params.tau)
    t1 = n_points * math.sqrt(n_tubes)
    t2 = float(n_tubes)
    t3 = math.sqrt(params.delta ** (-tau) * n_points * n_tubes)
    rhs = t1 + t2 + t3
    ratio = counts.count / rhs
    log_factor = 100.0 * math.log(1.0 / params.delta)

    rec = ExperimentRecord(
        "incidence_upper_bound",
        params={
            "delta": params.delta,
            "tau": tau,
            "s": str(params.s),
            "frostman_certified": False,
        },
        results={
            "delta": params.delta,
            "tau": tau,
            "s": float(params.s),
            "n_points": n_points,
            "n_tubes": n_tubes,
            "incidences": counts.count,
            "bound_terms": [t1, t2, t3],
            "ratio": ratio,
        },
    )
    expected = n_points * len(tubes.directions)
    rec.check(
        "exact_lower_bound_equality",
        counts.count == expected,
        counts.count,
        expected,
    )
    rec.soft("three_term_ratio_vs_100log", ratio, log_factor)
    return rec
