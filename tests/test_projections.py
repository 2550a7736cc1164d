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
    InvalidParameterError,
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
from projlab import projections
from projlab.projections import (
    COVER_RTOL,
    _raw_projection,
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
    # values 3 widths apart: the lower bound reaches stop_after and decides
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
        # tiny widths put the values' bins far more than 2n slots apart
        st.floats(1e-9, 1e-3) | st.floats(0.01, 4.0),
    )
    # bins 0, 11 and 23 fold onto slots 0, 5 and 5 of the 6-slot table
    @example([0.0, 3.0, 6.0], 0.25)
    @example([0.0, 1e-9, 2e-9, 3e-9], 1e-9)
    # a subnormal width: the 2^-48 max|v| margin sets the bin width
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


class TestLowerBound:
    """The parity packing against the exhaustive minimum."""

    @pytest.mark.parametrize("k", [1, 2, 7, 12])
    @pytest.mark.parametrize("w", [0.1, 0.125, 1e-9])
    def test_spacing_past_two_widths_is_tight(self, k, w):
        # every value sits alone in an even bin; half the 2w-bins gave ceil(k/2)
        vals = np.arange(k) * 2.01 * w
        assert covering_lower_bound(vals, w) == brute_min_cover(vals, w) == k

    @pytest.mark.parametrize("k", [2, 5, 11, 12])
    @pytest.mark.parametrize("w", [0.1, 0.125, 3e-7])
    def test_spacing_at_the_reach(self, k, w):
        for step in (w, w * (1.0 + COVER_RTOL)):
            vals = np.arange(k) * step
            want = brute_min_cover(vals, w)
            assert want == covering_number_1d(vals, w)
            assert covering_lower_bound(vals, w) <= want
            assert covering_lower_bound(vals[::-1], w) <= want

    @pytest.mark.parametrize("offset", [1e6, -1e6])
    @pytest.mark.parametrize("spacing", [1.0, 1.0 + COVER_RTOL, 2.01, 3.0])
    def test_offset_far_beyond_the_width(self, offset, spacing):
        # at 1e6 one ulp is about 1.2e-10, so w = 1e-9 spans only a few ulps
        w = 1e-9
        vals = offset + np.arange(10) * spacing * w
        assert covering_lower_bound(vals, w) <= brute_min_cover(vals, w)

    def test_pairs_within_reach_across_two_bins(self):
        # each pair is 1 + 5e-13 apart, inside the reach 1 + 1e-12, and
        # would straddle two bins of width 1 + 2^-48 max|v|
        vals = np.array([0.0, 2 - 2e-13, 3 + 3e-13, 6 - 2e-13, 7 + 3e-13])
        assert covering_lower_bound(vals, 1.0) <= brute_min_cover(vals, 1.0) == 3

    def test_right_end_rounded_up_to_a_tie(self):
        # the reach is exactly half an ulp of x, and x + reach rounds to the
        # even neighbor x + ulp, so one interval covers both values
        reach = 2.0**-33
        w = reach / (1.0 + COVER_RTOL)
        while w * (1.0 + COVER_RTOL) != reach:
            w = math.nextafter(w, 0.0 if w * (1.0 + COVER_RTOL) > reach else 1.0)
        x = 2.0**20 + 2.0**-32  # odd last mantissa bit
        vals = np.array([x, x + 2.0**-32])
        assert covering_lower_bound(vals, w) <= brute_min_cover(vals, w) == 1

    @pytest.mark.parametrize("vals", [[0.0, np.inf], [-np.inf, 0.0, 5.0, np.inf]])
    def test_infinite_values(self, vals):
        assert covering_lower_bound(vals, 1.0) <= brute_min_cover(vals, 1.0)
        assert covering_number_1d(vals, 1.0, stop_after=2) == 2

    def test_folded_table(self):
        # 6 values over 49 bins: the 12-slot table folds, and bins 0, 12, 24,
        # 36 and 48 share slot 0 (the 1e-9 stretch keeps each value in the
        # bin of its integer part)
        w, stretch = 1.0, 1.0 + 1e-9
        vals = np.array([0.0, 12.0, 24.0, 36.0, 48.0, 5.0]) * stretch
        assert covering_lower_bound(vals, w) == 1
        assert brute_min_cover(vals, w) == 6
        # folding keeps parity: odd bins 1, 15 and 29 land on odd slots 1, 3, 5
        vals = np.array([0.0, 1.0, 15.0, 29.0, 0.5, 0.25]) * stretch
        assert covering_lower_bound(vals, w) == 3
        assert brute_min_cover(vals, w) == 4


# Values on a lattice of half and whole widths, shifted by an offset: the
# gaps and component spans land exactly on the width, so both the break test
# and the one-interval test meet ties.
def _tied_values(max_size):
    return st.tuples(
        st.lists(st.integers(0, 60), max_size=max_size),
        st.sampled_from([0.125, 0.1, 1.0 / 3.0, 0.7, 1e-9]),
        st.sampled_from([0.0, 1.0, -7.5, 1e3]),
    ).map(lambda t: ([t[2] + k * 0.5 * t[1] for k in t[0]], t[1]))


def _walk_count(values, width):
    return len(searchsorted_cover_starts(np.sort(np.asarray(values, dtype=float)), width))


class TestGapComponents:
    """The component pass against the oracles, and the walks it leaves out."""

    @settings(max_examples=300, deadline=None)
    @given(_tied_values(12), st.none() | st.integers(1, 14))
    @example(([0, 2, 4, 6], 1.0), None)  # spans and gaps all exactly w
    @example(([0, 3, 6, 9, 12, 13], 0.125), 4)  # comps reach the cap
    # one narrow component and a wide one of 4 intervals: the walk's cap is 3
    @example(([0.0, 0.6, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 100.0], 1.0), 4)
    def test_small_inputs_against_the_exhaustive_minimum(self, case, stop):
        values, width = case
        want = brute_min_cover(values, width)
        assert want == _walk_count(values, width)
        capped = want if stop is None else min(want, stop)
        assert covering_number_1d(values, width, stop_after=stop) == capped

    @settings(max_examples=200, deadline=None)
    @given(_tied_values(200), st.none() | st.integers(1, 40), st.data())
    def test_large_inputs_against_the_per_interval_search(self, case, stop, data):
        values, width = case
        values = data.draw(st.permutations(values))
        want = _walk_count(values, width)
        capped = want if stop is None else min(want, stop)
        assert covering_number_1d(values, width, stop_after=stop) == capped

    @staticmethod
    def _no_walk(monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("greedy_cover_starts ran")
        monkeypatch.setattr(projections, "greedy_cover_starts", boom)

    def test_narrow_clusters_count_without_a_walk(self, monkeypatch):
        self._no_walk(monkeypatch)
        w = 0.125
        reach = w * (1.0 + COVER_RTOL)
        # 12 clusters 3w apart (gaps of 2w) of span 0, w/2, w and the full
        # reach, where the last value ties the interval's right end
        shapes = [[0.0], [0.0, 0.5 * w], [0.0, 0.3 * w, w], [0.0, reach]]
        vals = [3 * w * c + x for c in range(12) for x in shapes[c % 4]]
        assert brute_min_cover(vals[:8], w) == 4
        assert covering_number_1d(vals, w) == 12
        assert covering_number_1d(vals[::-1], w, stop_after=13) == 12

    def test_one_walk_over_every_wide_component(self, monkeypatch):
        calls = []
        walk = projections.greedy_cover_starts

        def spy(sorted_values, width, stop_after=None):
            calls.append(len(sorted_values))
            return walk(sorted_values, width, stop_after=stop_after)

        monkeypatch.setattr(projections, "greedy_cover_starts", spy)
        w = 1.0
        # three wide components of 3, 3 and 4 values, two narrow ones
        vals = [0.0, 1.0, 2.0, 5.0, 10.0, 10.8, 11.6, 20.0, 20.5, 21.0, 21.5, 30.0, 30.9]
        assert covering_number_1d(vals, w) == _walk_count(vals, w) == 8
        assert calls == [10]
        assert covering_number_1d(vals[::-1], w, stop_after=9) == 8
        assert calls == [10, 10]

    def test_a_capped_count_decided_by_the_components(self, monkeypatch):
        self._no_walk(monkeypatch)
        w = 1.0
        # 8 singletons 1.5w apart: the parity bound finds 4, the components 8
        vals = np.arange(8) * 1.5 * w
        assert covering_lower_bound(vals, w) < 6
        assert covering_number_1d(vals, w, stop_after=6) == 6

    def test_a_capped_count_decided_by_two_per_wide_component(self, monkeypatch):
        self._no_walk(monkeypatch)
        w = 1.0
        # 4 components {5k, 5k + 0.6, 5k + 1.2}: each takes two intervals
        vals = np.array([[5.0 * k, 5.0 * k + 0.6, 5.0 * k + 1.2] for k in range(4)]).ravel()
        assert covering_lower_bound(vals, w) < 7
        assert covering_number_1d(vals, w, stop_after=7) == 7
        assert brute_min_cover(vals, w) == 8

    @pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_width_is_rejected(self, width):
        with pytest.raises(InvalidParameterError):
            covering_number_1d([0.0, 1.0], width)
        with pytest.raises(InvalidParameterError):
            covering_number_circle([0.0, 1.0], width, PI)


# Sorted runs of copies on the half-width lattice offset + k·w/2: steps of
# one to three half-widths put ties exactly at the reach, and the copies set
# each interval's stride.  Up to 40 copies give long strides that keep
# changing, single copies dense inputs of a few values per interval.
# With `tail`, a last value lands exactly at the last start's right end.
def _lattice_runs(max_copies):
    def build(t):
        runs, w, offset, tail = t
        steps, copies = zip(*runs)
        vals = np.repeat(offset + np.cumsum(steps) * 0.5 * w, copies)
        if tail:
            last = searchsorted_cover_starts(vals, w)[-1]
            vals = np.append(vals, last + w * (1.0 + COVER_RTOL))
        return vals, w

    return st.tuples(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, max_copies)),
                 min_size=1, max_size=60),
        st.sampled_from([0.125, 0.1, 1.0 / 3.0, 0.7, 1e-9]),
        st.sampled_from([0.0, 1.0, -7.5, 1e3]),
        st.booleans(),
    ).map(build)


class TestWalks:
    """The greedy walk against `searchsorted_cover_starts`."""

    @settings(max_examples=300, deadline=None)
    @given(_lattice_runs(40) | _lattice_runs(1), st.none() | st.integers(0, 50))
    # strides of 3, 12, 48, 48, 12 and 3 values: they grow, then shrink
    @example((np.repeat(np.arange(12.0), [1, 2, 4, 8, 16, 32, 32, 16, 8, 4, 2, 1]), 1.0), None)
    @example((np.repeat(np.arange(12.0), [1, 2, 4, 8, 16, 32, 32, 16, 8, 4, 2, 1]), 1.0), 4)
    # every value a tie at the previous start's reach: 40 values of stride 1
    @example((np.arange(40) * (1.0 + COVER_RTOL), 1.0), None)
    def test_both_walks_match_the_per_interval_search(self, case, stop):
        vals, width = case
        want = searchsorted_cover_starts(vals, width)
        if stop is not None:
            want = want[:stop]
        got = projections.greedy_cover_starts(vals, width, stop_after=stop)
        assert np.array_equal(got, want)


class TestNonFiniteValues:
    @pytest.mark.parametrize("stop", [None, 0, 1, 2, 5])
    @pytest.mark.parametrize("vals", [
        [0.0, 5.0, np.nan], [np.nan, 0.0, 5.0], [0.0, np.nan, 5.0], [np.nan],
        [np.inf, np.nan, -np.inf], [5.0, 0.0, np.nan, np.nan],
    ])
    def test_nan_is_rejected_in_any_order(self, vals, stop):
        with pytest.raises(InvalidParameterError):
            covering_number_1d(vals, 1.0, stop_after=stop)
        with pytest.raises(InvalidParameterError):
            covering_number_1d(np.array(vals[::-1]), 1.0, stop_after=stop)

    @pytest.mark.parametrize("stop", [None, 1, 2, 3, 4, 9])
    def test_infinities_count_the_same_in_any_order(self, stop):
        # each infinity is a point of its own; equal infinities share one
        vals = [np.inf, 0.0, -np.inf, 5.0, 0.5, np.inf, -np.inf]
        want = brute_min_cover(vals, 1.0)
        assert want == 4
        capped = want if stop is None else min(want, stop)
        rng = np.random.default_rng(5)
        orders = [vals, vals[::-1], sorted(vals), sorted(vals, reverse=True)]
        orders += [list(rng.permutation(vals)) for _ in range(6)]
        for order in orders:
            assert covering_number_1d(order, 1.0, stop_after=stop) == capped
        # sorted, with equal infinities side by side
        for order in ([0.0, np.inf, np.inf], [-np.inf, -np.inf, 0.0, 0.5],
                      [-np.inf, -np.inf, np.inf, np.inf]):
            want = brute_min_cover(order, 1.0)
            capped = want if stop is None else min(want, stop)
            assert covering_number_1d(order, 1.0, stop_after=stop) == capped
            assert covering_number_1d(order[::-1], 1.0, stop_after=stop) == capped


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
        es = compute_E_s(ps, params, sweep=64)
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
        # uncapped counts along the sweep, and the sweep's counts capped
        params, sets = self._sets()
        stop = params.floor_delta_pow(params.s) + 1
        for ps in sets:
            es = compute_E_s(ps, params, sweep=256)
            for th, count in zip(es.sweep_thetas, es.sweep_counts):
                vals = projection_values(ps, Direction(th))
                full = len(searchsorted_cover_starts(vals, params.delta))
                assert covering_number_1d(vals, params.delta) == full
                assert count == min(full, stop)

    def test_tube_starts(self):
        params, sets = self._sets()
        dirs = direction_grid(64)
        for ps in sets:
            fam = build_tubes(ps, dirs)
            for d in dirs:
                want = searchsorted_cover_starts(projection_values(ps, d), ps.scale.delta)
                assert np.array_equal(fam.starts[d.theta], want)

    @pytest.mark.parametrize("width", [1e-4, 3e-4, 1.0 / 8192])
    def test_starts_across_pointer_chunks(self, width):
        # long inputs, uncapped and capped; at width 1/8192 the grid spacing
        # puts a value exactly at every interval's right end
        n = 3 * 8192 + 1
        rng = np.random.default_rng(3)
        for vals in (np.sort(rng.random(n)), np.arange(n) / 8192.0):
            want = searchsorted_cover_starts(vals, width)
            assert np.array_equal(projections.greedy_cover_starts(vals, width), want)
            got = projections.greedy_cover_starts(vals, width, stop_after=len(want) // 2)
            assert np.array_equal(got, want[:len(want) // 2])


class TestCappedSweep:
    def test_counts_are_the_full_counts_capped(self):
        params, sets = TestAgainstPerIntervalSearch._sets()
        stop = params.floor_delta_pow(params.s) + 1
        for ps in sets:
            capped = compute_E_s(ps, params, sweep=256)
            full = np.array([
                len(searchsorted_cover_starts(projection_values(ps, d), params.delta))
                for d in direction_grid(256)
            ])
            assert np.array_equal(capped.sweep_counts, np.minimum(full, stop))
            assert np.array_equal(capped.sweep_is_member, full < stop)
        # the random set's directions are all decided by the bound alone
        rand = sets[1]
        assert all(
            covering_lower_bound(_raw_projection(rand, d), params.delta) >= stop
            for d in direction_grid(256)
        )


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
