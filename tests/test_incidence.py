import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import raw_projection_ref, searchsorted_cover_starts
from projlab import (
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
    gen_grid_example,
    gen_segment,
    project,
    upper_bound_report,
)
from projlab.incidence import TubeFamily
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


def own_sweep(ps, sweep, s=Fraction(1, 2)):
    """The E_s sweep of a set at its own delta, r = delta."""
    return compute_E_s(ps, ParamTriple(ps.scale, s, ps.scale.n), sweep=sweep)


def reference_tubes(ps, dirs, delta):
    """Tubes along any directions, the greedy starts found one interval at
    a time over the sorted projection values."""
    return TubeFamily(delta, dirs, {
        d.theta: searchsorted_cover_starts(np.sort(raw_projection_ref(ps, d)), delta) for d in dirs
    })


def random_set(rng, n, count):
    flat = rng.choice(4**n, size=min(count, 4**n), replace=False)
    return LatticePointSet(
        Scale(n), np.column_stack([flat >> n, flat & ((1 << n) - 1)])
    )


class TestBuildTubes:
    def test_single_point_three_directions(self):
        ps = LatticePointSet(Scale(4), np.array([[7, 3]]))
        fam = build_tubes(ps, own_sweep(ps, 3))
        assert fam.directions == direction_grid(3)
        assert fam.total == 3
        for d in fam.directions:
            assert len(fam.starts[d.theta]) == 1

    def test_segment_vertical_single_tube(self):
        # of the directions 0 and pi/2 only pi/2 is in E_s: 8 tubes along 0
        ps = gen_segment(Scale(4))
        fam = build_tubes(ps, own_sweep(ps, 2))
        assert fam.total == 1
        (d,) = fam.directions
        assert d.theta == PI / 2
        (start,) = fam.starts[d.theta]
        assert tube_members(ps, d, start).all()

    def test_four_corners_axis_tubes(self):
        ps = gen_four_corners(2, Scale(4))
        fam = build_tubes(ps, own_sweep(ps, 2))
        assert [d.theta for d in fam.directions] == [0.0, PI / 2]
        # 2^2 projected values on each axis, spacing 3/16 > 1/16
        assert [len(fam.starts[d.theta]) for d in fam.directions] == [4, 4]

    def test_tube_count_equals_covering_number(self):
        rng = np.random.default_rng(12)
        ps = random_set(rng, 6, 80)
        fam = build_tubes(ps, own_sweep(ps, 16, Fraction(15, 16)))
        assert fam.directions == direction_grid(16)
        for d in fam.directions:
            prof = project(ps, d)
            assert len(fam.starts[d.theta]) == covering_number_1d(
                prof.values, ps.scale.delta
            )

    def test_disjoint_intervals(self):
        rng = np.random.default_rng(13)
        ps = random_set(rng, 6, 120)
        fam = build_tubes(ps, own_sweep(ps, 8, Fraction(15, 16)))
        assert len(fam.directions) == 8
        for d in fam.directions:
            starts = fam.starts[d.theta]
            assert (np.diff(starts) > fam.scale_delta).all()

    def test_sweep_tubes_equal_the_per_interval_search(self):
        # the starts the sweep kept, at the triple's delta, for sets at
        # n = a and, for the last two, n > a: there a walk at the set's own
        # delta would give other, narrower tubes
        params = ParamTriple(Scale(8), Fraction(3, 4), 6)
        coarse = ParamTriple(Scale(6), Fraction(3, 4), 4)
        rng = np.random.default_rng(16)
        grid = gen_grid_example(params)
        for ps, p in ((grid, params), (gen_four_corners(4, Scale(8)), params),
                      (random_set(rng, 8, 60), params),
                      (grid, coarse), (gen_four_corners(4, Scale(10)), params)):
            es = compute_E_s(ps, p, sweep=256)
            assert es.members
            fam = build_tubes(ps, es)
            want = reference_tubes(ps, es.members, p.delta)
            assert fam.scale_delta == p.delta
            assert fam.directions == es.members
            assert fam.starts.keys() == want.starts.keys()
            for th, starts in want.starts.items():
                assert np.array_equal(fam.starts[th], starts)
            if ps.scale.n > p.a:
                finer = reference_tubes(ps, es.members, ps.scale.delta)
                assert fam.total < finer.total

    def test_empty_directions_rejected(self):
        # along 0 alone, 8 tubes > delta^-1/2 = 4
        ps = gen_segment(Scale(4))
        with pytest.raises(InvalidParameterError, match="E_s is empty"):
            build_tubes(ps, own_sweep(ps, 1))

    def test_empty_point_set_rejected(self):
        # the three-term bound of an empty set is 0, so no ratio exists
        empty = LatticePointSet(Scale(8), np.empty((0, 2), dtype=np.int64))
        es = own_sweep(empty, 4)
        assert len(es.members) == 4
        with pytest.raises(InvalidParameterError, match="point set is empty"):
            build_tubes(empty, es)


class TestCountIncidences:
    def test_single_point_five_directions(self):
        ps = LatticePointSet(Scale(3), np.array([[1, 2]]))
        fam = build_tubes(ps, own_sweep(ps, 5))
        assert len(fam.directions) == 5
        assert count_incidences(ps, fam).count == 5

    def test_segment_one_direction(self):
        ps = gen_segment(Scale(4))
        fam = build_tubes(ps, own_sweep(ps, 2))
        assert [d.theta for d in fam.directions] == [PI / 2]
        counts = count_incidences(ps, fam)
        assert counts.count == 16

    def test_four_corners_two_directions(self):
        ps = gen_four_corners(2, Scale(4))
        fam = build_tubes(ps, own_sweep(ps, 2))
        assert [d.theta for d in fam.directions] == [0.0, PI / 2]
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
            es = own_sweep(ps, int(rng.integers(1, 24)), Fraction(15, 16))
            assert es.members
            counts = count_incidences(ps, build_tubes(ps, es))
            assert counts.count == len(ps) * len(es.members)


class TestPairCountingConsistency:
    def test_shared_tube_direction_counts(self):
        # For each pair, the directions whose tube family holds both points
        # lie in one quotient-circle band of width about 2 delta/|p-q|, so on
        # an M-point grid the count is at most about M*min(1, delta/|p-q|).
        # With tau chosen so that delta^tau = 1/M, that is the pair weight
        # times delta^-tau.  Verified by brute force over the sweep grid,
        # every direction of it, so with tubes from the reference walk.
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
            delta = scale.delta
            fam = reference_tubes(ps, dirs, delta)
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
        fam = build_tubes(ps, compute_E_s(ps, params, sweep=1))
        assert len(fam.directions) == 1
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

    def test_dropped_start_fails_the_exact_equality(self):
        params = ParamTriple(Scale(8), Fraction(3, 4), 6)
        ps = gen_grid_example(params)
        es = compute_E_s(ps, params, sweep=256)
        assert not upper_bound_report(ps, build_tubes(ps, es), params).failed
        i = len(es.members) // 2
        es.member_starts[i] = np.delete(es.member_starts[i], len(es.member_starts[i]) // 2)
        rec = upper_bound_report(ps, build_tubes(ps, es), params)
        assert [a.name for a in rec.assertions if a.status == "fail"] == [
            "exact_lower_bound_equality"]
        assert rec.results["incidences"] < len(ps) * len(es.members)

    def test_duplicated_start_fails_the_exact_equality(self):
        # a start listed twice puts the points of its interval in two tubes
        params = ParamTriple(Scale(8), Fraction(3, 4), 6)
        ps = gen_grid_example(params)
        es = compute_E_s(ps, params, sweep=256)
        i = len(es.members) // 2
        starts = es.member_starts[i]
        es.member_starts[i] = np.insert(starts, len(starts) // 2, starts[len(starts) // 2])
        rec = upper_bound_report(ps, build_tubes(ps, es), params)
        assert [a.name for a in rec.assertions if a.status == "fail"] == [
            "exact_lower_bound_equality"]
        assert rec.results["incidences"] > len(ps) * len(es.members)

    def test_four_corners_direction_grid(self):
        ps = gen_four_corners(4, Scale(8))
        params = ParamTriple(Scale(8), Fraction(17, 20), 6)
        es = compute_E_s(ps, params, sweep=64)
        fam = build_tubes(ps, es)
        rec = upper_bound_report(ps, fam, params)
        assert not rec.failed
        assert rec.results["ratio"] <= 100 * math.log(1 / params.delta)
