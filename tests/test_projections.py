import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_min_arc_cover, brute_min_cover, searchsorted_cover_starts
from projlab import (
    Direction,
    LatticePointSet,
    ParamTriple,
    Scale,
    build_tubes,
    compute_E_s,
    covering_number_1d,
    covering_number_directions,
    direction_grid,
    gen_four_corners,
    gen_grid_example,
    gen_segment,
    project,
)
from projlab.projections import (
    covering_lower_bound,
    covering_number_circle,
    esets_csv,
    projection_values,
)

PI = math.pi


class TestCovering1D:
    def test_empty(self):
        assert covering_number_1d([], 0.3) == 0

    def test_three_values(self):
        vals = [0.0, 0.3, 0.61]
        assert covering_number_1d(vals, 0.3) == 2
        assert brute_min_cover(vals, 0.3) == 2

    def test_single_value(self):
        for v in (0.0, -3.7, 1e9):
            assert covering_number_1d([v], 0.123) == 1

    def test_tie_is_covered(self):
        assert covering_number_1d([0.0, 0.125], 0.125) == 1

    def test_greedy_equals_brute_force(self):
        # exhaustive-minimum oracle on 10^4 random instances of <= 10 points
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            k = int(rng.integers(1, 11))
            vals = rng.random(k) * rng.choice([0.1, 1.0, 10.0])
            width = float(rng.uniform(0.01, 1.5))
            assert covering_number_1d(vals, width) == brute_min_cover(vals, width)

    def test_monotone_in_width(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            vals = rng.random(int(rng.integers(1, 40)))
            widths = np.sort(rng.uniform(0.01, 2.0, size=5))
            counts = [covering_number_1d(vals, w) for w in widths]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-20.0, 20.0), max_size=20),
        st.floats(0.01, 4.0),
        st.integers(1, 16),
    )
    # values 3 widths apart sit in distinct 2w-bins: the lower bound 3 decides
    @example([0.0, 3.0, 6.0, 9.0, 12.0, 15.0], 1.0, 2)
    @example([0.0, 3.0, 6.0, 9.0, 12.0, 15.0], 1.0, 3)
    # lower bound 1 equals the count, one below stop_after: it must not decide
    @example([0.0, 0.5], 1.0, 2)
    def test_stop_after_is_min_of_full_count(self, values, width, stop):
        full = covering_number_1d(values, width)
        assert covering_number_1d(values, width, stop_after=stop) == min(full, stop)
        if len(values) <= 12:
            assert full == brute_min_cover(values, width)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-20.0, 20.0), max_size=30),
        st.floats(0.01, 4.0),
        st.none() | st.integers(1, 16),
        st.data(),
    )
    def test_count_ignores_input_order(self, values, width, stop, data):
        want = covering_number_1d(sorted(values), width, stop_after=stop)
        shuffled = data.draw(st.permutations(values))
        for order in (shuffled, values[::-1], sorted(values, reverse=True), values):
            assert covering_number_1d(np.array(order), width, stop_after=stop) == want

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=12),
        # tiny widths put the values' 2w-bins far more than 2n slots apart
        st.floats(1e-9, 1e-3) | st.floats(0.01, 4.0),
    )
    # bins 0, 6 and 12 fold onto one slot of the 6-slot table
    @example([0.0, 3.0, 6.0], 0.25)
    @example([0.0, 1e-9, 2e-9, 3e-9], 1e-9)
    # a subnormal width overflows the bin index to inf
    @example([0.0, 1.0], 1e-310)
    def test_lower_bound_never_exceeds_the_minimum(self, values, width):
        assert covering_lower_bound(values, width) <= brute_min_cover(values, width)
        assert covering_lower_bound(values[::-1], width) <= brute_min_cover(values, width)

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            vals = rng.random(20)
            w = float(rng.uniform(0.05, 0.5))
            base = covering_number_1d(vals, w)
            for shift in rng.normal(scale=5.0, size=3):
                assert covering_number_1d(vals + shift, w) == base


class TestProject:
    def test_segment_vertical(self):
        prof = project(gen_segment(Scale(3)), Direction(PI / 2))
        assert np.allclose(prof.values, 0.0)
        assert covering_number_1d(prof.values, 1 / 8) == 1

    def test_segment_horizontal(self):
        # 8 values {k/8}; greedy pairs them up: 4 intervals (oracle-checked)
        prof = project(gen_segment(Scale(3)), Direction(0.0))
        assert np.allclose(prof.values, np.arange(8) / 8)
        assert covering_number_1d(prof.values, 1 / 8) == 4
        assert brute_min_cover(np.arange(8) / 8, 1 / 8) == 4

    def test_four_corners_axis(self):
        ps = gen_four_corners(3, Scale(6))
        assert covering_number_1d(project(ps, Direction(0.0)).values, ps.scale.delta) == 2**3

    def test_four_corners_diagonal(self):
        ps = gen_four_corners(3, Scale(6))
        assert covering_number_1d(project(ps, Direction(PI / 4)).values, ps.scale.delta) == 3**3

    def test_values_sorted(self):
        ps = gen_four_corners(2, Scale(4))
        for th in (0.3, 1.2, 2.9):
            vals = project(ps, Direction(th)).values
            assert (np.diff(vals) >= 0).all()

    def test_attached_count_is_the_cover_at_the_sets_delta(self):
        ps = gen_four_corners(3, Scale(6))
        for th in (0.0, 0.7, PI / 4, 2.2):
            prof = project(ps, Direction(th))
            assert np.array_equal(prof.values, projection_values(ps, Direction(th)))
            assert prof.covering_number == covering_number_1d(prof.values, ps.scale.delta)


class TestComputeES:
    def test_segment_members_cluster_near_vertical(self):
        params = ParamTriple(Scale(10), Fraction(1, 2), 10)
        es = compute_E_s(gen_segment(Scale(10)), params)
        assert len(es.members) > 0
        root_delta = math.sqrt(params.delta)
        # all members nearly vertical; everything sufficiently vertical is in
        for d in es.members:
            assert abs(math.cos(d.theta)) <= 2.5 * root_delta
        for th, member in zip(es.sweep_thetas, es.sweep_is_member):
            if abs(math.cos(th)) <= 0.4 * root_delta:
                assert member
        # single contiguous arc around pi/2 of angular width about 2 delta^(1/2)
        arcs = es.member_arcs()
        assert len(arcs) == 1
        lo, hi = arcs[0]
        assert lo < PI / 2 < hi
        assert (hi - lo) == pytest.approx(2 * root_delta, rel=0.35)

    def test_all_members_when_threshold_exceeds_cardinality(self):
        # 3 points, delta^-s = 2^3 = 8 >= 3: every direction qualifies
        ps = gen_segment(Scale(2))  # 4 points
        params = ParamTriple(Scale(6), Fraction(1, 2), 6)
        small = compute_E_s(
            type(ps)(Scale(6), np.array([[0, 0], [13, 40], [50, 7]])),
            params,
            sweep=64,
        )
        assert len(small.members) == 64

    def test_four_corners_special_directions(self):
        # L=5, delta = 4^-5, s = 0.85: covering numbers 32, 243, 32 pass the
        # exact threshold floor(2^8.5) = 362
        ps = gen_four_corners(5, Scale(10))
        params = ParamTriple(Scale(10), Fraction(17, 20), 10)
        es = compute_E_s(ps, params, sweep=64, full_counts=True)
        counts = {
            round(th, 12): c for th, c in zip(es.sweep_thetas, es.sweep_counts)
        }
        assert counts[round(0.0, 12)] == 32
        assert counts[round(PI / 4, 12)] == 243
        assert counts[round(PI / 2, 12)] == 32
        member_set = {round(d.theta, 12) for d in es.members}
        assert {round(0.0, 12), round(PI / 4, 12), round(PI / 2, 12)} <= member_set

    def test_set_level_finer_than_delta(self):
        # 64 points at spacing 2^-6 swept at delta = 2^-8: no two values
        # share a delta-interval at theta = 0, so the count is 64
        params = ParamTriple(Scale(8), Fraction(3, 4), 8)
        es = compute_E_s(gen_segment(Scale(6)), params, sweep=4)
        assert es.sweep_thetas[0] == 0.0
        assert es.sweep_counts[0] == 64


class TestAgainstPerIntervalSearch:
    """Sweep counts and tube starts against `searchsorted_cover_starts`."""

    @staticmethod
    def _sets():
        params = ParamTriple(Scale(8), Fraction(3, 4), 6)
        grid = gen_grid_example(params)
        cells = np.random.default_rng(11).choice(1 << 16, size=len(grid), replace=False)
        rand = LatticePointSet(Scale(8), np.column_stack([cells >> 8, cells & 255]))
        return params, [grid, rand]

    def test_full_counts(self):
        params, sets = self._sets()
        for ps in sets:
            es = compute_E_s(ps, params, sweep=256, full_counts=True)
            for th, count in zip(es.sweep_thetas, es.sweep_counts):
                vals = projection_values(ps, Direction(th))
                assert count == len(searchsorted_cover_starts(vals, params.delta))

    def test_tube_starts(self):
        params, sets = self._sets()
        dirs = direction_grid(64)
        for ps in sets:
            fam = build_tubes(ps, dirs)
            for d in dirs:
                want = searchsorted_cover_starts(projection_values(ps, d), ps.scale.delta)
                assert np.array_equal(fam.starts[d.theta], want)


class TestDirectionCovering:
    def test_single_direction(self):
        assert covering_number_directions([Direction(0.7)], 0.01) == 1

    def test_grid16_quarter_arcs(self):
        dirs = direction_grid(16)
        got = covering_number_directions(dirs, PI / 4)
        assert got == 4
        assert brute_min_arc_cover([d.theta for d in dirs], PI / 4, PI) == 4

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            k = int(rng.integers(1, 10))
            angles = rng.uniform(0, PI, size=k)
            r = float(rng.uniform(0.05, 2.5))
            got = covering_number_circle(angles, r, PI)
            assert got == brute_min_arc_cover(angles, r, PI)

    def test_wraparound(self):
        # points hugging both ends of [0, pi) are one arc across the seam
        angles = [0.01, 0.02, PI - 0.02, PI - 0.01]
        assert covering_number_circle(angles, 0.1, PI) == 1

    def test_monotone_in_r(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(0, PI, size=40)
        rs = np.sort(rng.uniform(0.01, 1.0, size=6))
        counts = [covering_number_circle(angles, r, PI) for r in rs]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_segment_kaufman_scale(self):
        # N(E_s, delta) within a log factor of delta^(-1/2) for the segment
        n = 10
        params = ParamTriple(Scale(n), Fraction(1, 2), n)
        es = compute_E_s(gen_segment(Scale(n)), params)
        cov = covering_number_directions(es, params.delta)
        target = params.delta**-0.5
        assert cov <= 100 * math.log(1 / params.delta) * target
        assert cov >= target / 100


class TestEsetsCsv:
    def test_columns(self):
        ps = gen_segment(Scale(4))
        params = ParamTriple(Scale(4), Fraction(1, 2), 4)
        es = compute_E_s(ps, params, sweep=8)
        buf = io.StringIO()
        esets_csv(es, buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "theta,covering_number,is_member"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[2] in ("0", "1")
