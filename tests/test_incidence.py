import math
from fractions import Fraction

import numpy as np
import pytest

from projlab import (
    Direction,
    InvalidParameterError,
    LatticePointSet,
    ParamTriple,
    Scale,
    build_tubes,
    compute_E_s,
    count_incidences,
    covering_number_1d,
    direction_grid,
    gen_four_corners,
    gen_segment,
    project,
    upper_bound_report,
)
from projlab.projections import COVER_RTOL

PI = math.pi


def tube_members(ps, d, start):
    """Points of the closed tube over [start, start + delta] along d, with
    the covering slack."""
    c, s = d.unit
    xy = ps.points * ps.scale.delta
    t = xy[:, 0] * c + xy[:, 1] * s
    delta = ps.scale.delta
    slack = delta * COVER_RTOL
    return (start - slack <= t) & (t <= start + delta + slack)


def random_set(rng, n, count):
    flat = rng.choice(4**n, size=min(count, 4**n), replace=False)
    return LatticePointSet(
        Scale(n), np.column_stack([flat >> n, flat & ((1 << n) - 1)])
    )


class TestBuildTubes:
    def test_single_point_three_directions(self):
        ps = LatticePointSet(Scale(4), np.array([[7, 3]]))
        fam = build_tubes(ps, direction_grid(3))
        assert fam.total == 3
        for d in fam.directions:
            assert len(fam.starts[d.theta]) == 1

    def test_segment_vertical_single_tube(self):
        ps = gen_segment(Scale(4))
        fam = build_tubes(ps, [Direction(PI / 2)])
        assert fam.total == 1
        (d,) = fam.directions
        (start,) = fam.starts[d.theta]
        assert tube_members(ps, d, start).all()

    def test_four_corners_axis_tubes(self):
        ps = gen_four_corners(2, Scale(4))
        fam = build_tubes(ps, [Direction(0.0)])
        assert fam.total == 4  # 2^2 projected values, spacing 3/16 > 1/16

    def test_tube_count_equals_covering_number(self):
        rng = np.random.default_rng(12)
        ps = random_set(rng, 6, 80)
        dirs = direction_grid(16)
        fam = build_tubes(ps, dirs)
        for d in dirs:
            prof = project(ps, d)
            assert len(fam.starts[d.theta]) == covering_number_1d(
                prof.values, ps.scale.delta
            )

    def test_disjoint_intervals(self):
        rng = np.random.default_rng(13)
        ps = random_set(rng, 6, 120)
        fam = build_tubes(ps, direction_grid(8))
        for d in fam.directions:
            starts = fam.starts[d.theta]
            assert (np.diff(starts) > fam.scale_delta).all()

    def test_empty_directions_rejected(self):
        with pytest.raises(InvalidParameterError):
            build_tubes(gen_segment(Scale(2)), [])


class TestCountIncidences:
    def test_single_point_five_directions(self):
        ps = LatticePointSet(Scale(3), np.array([[1, 2]]))
        fam = build_tubes(ps, direction_grid(5))
        assert count_incidences(ps, fam).count == 5

    def test_segment_one_direction(self):
        ps = gen_segment(Scale(4))
        fam = build_tubes(ps, [Direction(PI / 2)])
        counts = count_incidences(ps, fam)
        assert counts.count == 16

    def test_four_corners_two_directions(self):
        ps = gen_four_corners(2, Scale(4))
        fam = build_tubes(ps, [Direction(0.0), Direction(PI / 2)])
        counts = count_incidences(ps, fam)
        assert counts.count == 32
        # brute-force membership scan
        brute = sum(
            int(np.count_nonzero(tube_members(ps, d, start)))
            for d in fam.directions
            for start in fam.starts[d.theta]
        )
        assert brute == 32

    def test_exact_equality_random(self):
        # |I(P, T)| = |P| * #directions under disjoint greedy tubes
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            ps = random_set(rng, n, int(rng.integers(1, 100)))
            dirs = direction_grid(int(rng.integers(1, 24)))
            fam = build_tubes(ps, dirs)
            counts = count_incidences(ps, fam)
            assert counts.count == len(ps) * len(dirs)


class TestPairCountingConsistency:
    def test_shared_tube_direction_counts(self):
        # For each pair, the directions whose tube family holds both points
        # lie in one quotient-circle band of width about 2 delta/|p-q|, so on
        # an M-point grid the count is at most about M*min(1, delta/|p-q|).
        # With tau chosen so that delta^tau = 1/M, that is the pair weight
        # times delta^-tau.  Verified by brute force over the sweep grid.
        rng = np.random.default_rng(15)
        n = 6
        scale = Scale(n)
        m_exp = 5
        M = 2**m_exp  # grid spacing pi/M; delta^tau = 2^-m_exp
        tau = m_exp / n
        dirs = direction_grid(M)
        units = np.array([d.unit for d in dirs])  # (M, 2)
        for trial in range(10):
            ps = random_set(rng, n, int(rng.integers(8, 65)))
            fam = build_tubes(ps, dirs)
            delta = scale.delta
            xy = ps.points * delta
            t = (xy[:, 0, None] * units[:, 0] + xy[:, 1, None] * units[:, 1]) * (1 + 1e-15)
            # tube index of every point in every direction, (points, M)
            tube = np.column_stack([
                np.searchsorted(fam.starts[d.theta], t[:, k], side="right") - 1
                for k, d in enumerate(dirs)
            ])
            i, j = np.triu_indices(len(xy), k=1)
            shared = np.count_nonzero(tube[i] == tube[j], axis=1)
            dist = np.hypot(*(xy[i] - xy[j]).T)
            geometric = M * np.minimum(1.0, 2 * delta / dist) + 2
            assert (shared <= geometric).all()
            weight = np.minimum(1.0, delta ** (1.0 - tau) / dist)  # pair weight
            total_bound = np.sum(weight * 2.0**m_exp + 2)
            assert shared.sum() <= 4 * total_bound


class TestUpperBoundReport:
    def test_single_point_single_direction(self):
        ps = LatticePointSet(Scale(6), np.array([[10, 20]]))
        params = ParamTriple(Scale(6), Fraction(1, 2), 3)
        fam = build_tubes(ps, [Direction(0.3)])
        rec = upper_bound_report(ps, fam, params)
        assert rec.results["incidences"] == 1
        t1, t2, t3 = rec.results["bound_terms"]
        assert (t1, t2) == (1.0, 1.0)
        assert t3 == pytest.approx(math.sqrt(2.0**3))
        assert rec.results["ratio"] < 1.0
        assert not rec.failed

    def test_segment_sweep(self):
        n = 10
        ps = gen_segment(Scale(n))
        params = ParamTriple(Scale(n), Fraction(1, 2), n)
        es = compute_E_s(ps, params, sweep=2 * 2**n)
        fam = build_tubes(ps, es)
        rec = upper_bound_report(ps, fam, params)
        assert not rec.failed
        assert rec.results["incidences"] == len(ps) * len(es.members)
        assert rec.results["ratio"] <= 100 * math.log(1 / params.delta)

    def test_four_corners_direction_grid(self):
        ps = gen_four_corners(4, Scale(8))
        params = ParamTriple(Scale(8), Fraction(17, 20), 6)
        es = compute_E_s(ps, params, sweep=64)
        fam = build_tubes(ps, es)
        rec = upper_bound_report(ps, fam, params)
        assert not rec.failed
        assert rec.results["ratio"] <= 100 * math.log(1 / params.delta)
