"""Point-tube incidence counting over per-direction tube families.

For each direction e in a direction family, the projection of the point set
is covered greedily by disjoint closed intervals of length delta; the tubes
are the preimages of those intervals.  Disjointness makes the count exact:
every point lies in exactly one tube per direction, so

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
from .projections import (
    COVER_RTOL,
    DirectionSetES,
    _raw_projection,
    greedy_cover_starts,
    projection_values,
)
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


def build_tubes(ps: LatticePointSet, E: DirectionSetES | list[Direction]) -> TubeFamily:
    """Greedy disjoint delta-tube family covering the set in every direction."""
    dirs = E.members if isinstance(E, DirectionSetES) else list(E)
    if not dirs:
        raise InvalidParameterError("direction family is empty")
    delta = ps.scale.delta
    starts: dict[float, np.ndarray] = {}
    for d in dirs:
        starts[d.theta] = greedy_cover_starts(projection_values(ps, d), delta)
    return TubeFamily(delta, list(dirs), starts)


def count_incidences(ps: LatticePointSet, tubes: TubeFamily) -> IncidenceCount:
    """Exact incidence count by binary search of each projection value, in
    point order, into the sorted disjoint intervals of its direction."""
    delta = tubes.scale_delta
    reach = delta * (1.0 + COVER_RTOL)
    total = 0
    for d in tubes.directions:
        starts = tubes.starts[d.theta]
        vals = _raw_projection(ps, d)
        idx = np.searchsorted(starts, vals, side="right") - 1
        idx = np.clip(idx, 0, len(starts) - 1)
        inside = (vals >= starts[idx]) & (vals <= starts[idx] + reach)
        total += int(np.count_nonzero(inside))
    return IncidenceCount(total)


def upper_bound_report(
    ps: LatticePointSet,
    tubes: TubeFamily,
    params: ParamTriple,
    assumed_frostman: bool = False,
) -> ExperimentRecord:
    """Exact incidence count against the three-term bound, as a measured ratio.

    The caller is responsible for having thinned the set to a dyadic
    Frostman set; `assumed_frostman` is recorded so downstream consumers can
    tell whether the bound's hypothesis was certified.
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
            "frostman_certified": assumed_frostman,
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
