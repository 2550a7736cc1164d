import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_min_arc_cover,
    brute_min_cover,
    raw_projection_ref,
    searchsorted_cover_starts,
)
from projlab import (
    Direction,
    DirectionSetES,
    InvalidParameterError,
    LatticePointSet,
    ParamTriple,
    Scale,
    compute_E_s,
    count_incidences,
    covering_number_1d,
    covering_number_directions,
    direction_grid,
    gen_four_corners,
    gen_grid_example,
    gen_segment,
    project,
)
from projlab import projections
from projlab.incidence import TubeFamily
from projlab.projections import (
    COVER_RTOL,
    _BoxBins,
    _project_coords,
    _unit_coords,
    covering_number_circle,
    esets_csv,
)

PI = math.pi


def _count_sorted(arr, width, stop_after):
    """The walk's count of sorted values, capped at `stop_after`."""
    return len(projections.greedy_cover_starts(arr, width, stop_after))


def _assert_starts_below_cap(values, width, stop):
    """Below the cap, the walk's starts are the per-interval search's."""
    arr = np.sort(np.asarray(values, dtype=float))
    starts = projections.greedy_cover_starts(arr, width, stop)
    if stop is None or len(starts) < stop:
        assert np.array_equal(starts, searchsorted_cover_starts(arr, width))


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
    # values 3 widths apart: the walk stops at stop_after
    @example([0.0, 3.0, 6.0, 9.0, 12.0, 15.0], 1.0, 2)
    @example([0.0, 3.0, 6.0, 9.0, 12.0, 15.0], 1.0, 3)
    # one interval, one below stop_after
    @example([0.0, 0.5], 1.0, 2)
    def test_stop_after_is_min_of_full_count(self, values, width, stop):
        full = covering_number_1d(values, width)
        assert _count_sorted(np.sort(values), width, stop) == min(full, stop)
        if len(values) <= 12:
            assert full == brute_min_cover(values, width)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-20.0, 20.0), max_size=30),
        st.floats(0.01, 4.0),
        st.data(),
    )
    def test_count_ignores_input_order(self, values, width, data):
        want = covering_number_1d(sorted(values), width)
        shuffled = data.draw(st.permutations(values))
        for order in (shuffled, values[::-1], sorted(values, reverse=True), values):
            assert covering_number_1d(np.array(order), width) == want

    def test_translation_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            vals = rng.random(20)
            w = float(rng.uniform(0.05, 0.5))
            base = covering_number_1d(vals, w)
            for shift in rng.normal(scale=5.0, size=3):
                assert covering_number_1d(vals + shift, w) == base


def _assert_capped_counts(vals, w, want):
    """`covering_number_1d` is want, and the walk at every cap up to
    want + 1 is min(want, cap)."""
    arr = np.sort(np.asarray(vals, dtype=float))
    assert covering_number_1d(arr, w) == want
    for cap in range(1, want + 2):
        assert _count_sorted(arr, w, cap) == min(want, cap)


class TestLowerBound:
    """Spacings at and past the reach, where the gap components and the
    walk meet ties, against the exhaustive minimum: uncapped, and at every
    cap of the walk."""

    @pytest.mark.parametrize("k", [1, 2, 7, 12])
    @pytest.mark.parametrize("w", [0.1, 0.125, 1e-9])
    def test_spacing_past_two_widths_is_tight(self, k, w):
        # every value a component of its own
        vals = np.arange(k) * 2.01 * w
        assert brute_min_cover(vals, w) == covering_number_1d(vals[::-1], w) == k
        _assert_capped_counts(vals, w, k)

    @pytest.mark.parametrize("k", [2, 5, 11, 12])
    @pytest.mark.parametrize("w", [0.1, 0.125, 3e-7])
    def test_spacing_at_the_reach(self, k, w):
        for step in (w, w * (1.0 + COVER_RTOL)):
            vals = np.arange(k) * step
            want = brute_min_cover(vals, w)
            assert want == covering_number_1d(vals, w)
            _assert_capped_counts(vals, w, want)

    @pytest.mark.parametrize("offset", [1e6, -1e6])
    @pytest.mark.parametrize("spacing", [1.0, 1.0 + COVER_RTOL, 2.01, 3.0])
    def test_offset_far_beyond_the_width(self, offset, spacing):
        # at 1e6 one ulp is about 1.2e-10, so w = 1e-9 spans only a few ulps
        w = 1e-9
        vals = offset + np.arange(10) * spacing * w
        _assert_capped_counts(vals, w, brute_min_cover(vals, w))

    def test_pairs_within_reach_across_two_bins(self):
        # each pair is 1 + 5e-13 apart, inside the reach 1 + 1e-12: three
        # narrow components
        vals = np.array([0.0, 2 - 2e-13, 3 + 3e-13, 6 - 2e-13, 7 + 3e-13])
        assert brute_min_cover(vals, 1.0) == 3
        _assert_capped_counts(vals, 1.0, 3)

    def test_right_end_rounded_up_to_a_tie(self):
        # the reach is exactly half an ulp of x, and x + reach rounds to the
        # even neighbor x + ulp, so one interval covers both values
        reach = 2.0**-33
        w = reach / (1.0 + COVER_RTOL)
        while w * (1.0 + COVER_RTOL) != reach:
            w = math.nextafter(w, 0.0 if w * (1.0 + COVER_RTOL) > reach else 1.0)
        x = 2.0**20 + 2.0**-32  # odd last mantissa bit
        vals = np.array([x, x + 2.0**-32])
        assert brute_min_cover(vals, w) == 1
        _assert_capped_counts(vals, w, 1)

    @pytest.mark.parametrize("vals", [[0.0, np.inf], [-np.inf, 0.0, 5.0, np.inf]])
    def test_infinite_values(self, vals):
        assert covering_number_1d(vals, 1.0) == brute_min_cover(vals, 1.0)
        assert _count_sorted(np.sort(vals), 1.0, 2) == 2


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
    @example(([0, 3, 6, 9, 12, 13], 0.125), 4)  # five components, capped at 4
    # a wide component of 4 intervals and a narrow one
    @example(([0.0, 0.6, 1.2, 1.8, 2.4, 3.0, 3.6, 4.2, 100.0], 1.0), 4)
    def test_small_inputs_against_the_exhaustive_minimum(self, case, stop):
        values, width = case
        want = brute_min_cover(values, width)
        assert want == _walk_count(values, width) == covering_number_1d(values, width)
        capped = want if stop is None else min(want, stop)
        assert _count_sorted(np.sort(values), width, stop) == capped
        _assert_starts_below_cap(values, width, stop)

    @settings(max_examples=200, deadline=None)
    @given(_tied_values(200), st.none() | st.integers(1, 40), st.data())
    def test_large_inputs_against_the_per_interval_search(self, case, stop, data):
        values, width = case
        values = data.draw(st.permutations(values))
        want = _walk_count(values, width)
        assert covering_number_1d(values, width) == want
        capped = want if stop is None else min(want, stop)
        assert _count_sorted(np.sort(values), width, stop) == capped
        _assert_starts_below_cap(values, width, stop)

    def test_narrow_clusters_count_without_a_walk(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("greedy_cover_starts ran")

        monkeypatch.setattr(projections, "greedy_cover_starts", boom)
        w = 0.125
        reach = w * (1.0 + COVER_RTOL)
        # 12 clusters 3w apart (gaps of 2w) of span 0, w/2, w and the full
        # reach, where the last value ties the interval's right end
        shapes = [[0.0], [0.0, 0.5 * w], [0.0, 0.3 * w, w], [0.0, reach]]
        vals = [3 * w * c + x for c in range(12) for x in shapes[c % 4]]
        assert brute_min_cover(vals[:8], w) == 4
        assert covering_number_1d(vals, w) == 12

    def test_one_walk_over_every_wide_component(self, monkeypatch):
        calls = []
        walk = projections.greedy_cover_starts

        def spy(sorted_values, width):
            calls.append(len(sorted_values))
            return walk(sorted_values, width)

        monkeypatch.setattr(projections, "greedy_cover_starts", spy)
        w = 1.0
        # three wide components of 3, 3 and 4 values, two narrow ones
        vals = [0.0, 1.0, 2.0, 5.0, 10.0, 10.8, 11.6, 20.0, 20.5, 21.0, 21.5, 30.0, 30.9]
        assert covering_number_1d(vals, w) == _walk_count(vals, w) == 8
        assert calls == [10]

    @pytest.mark.parametrize("width", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_width_is_rejected(self, width):
        with pytest.raises(InvalidParameterError):
            covering_number_1d([0.0, 1.0], width)
        with pytest.raises(InvalidParameterError):
            covering_number_circle([0.0, 1.0], width)


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
    def test_walk_matches_the_per_interval_search(self, case, stop):
        vals, width = case
        want = searchsorted_cover_starts(vals, width)
        if stop is not None:
            want = want[:stop]
        got = projections.greedy_cover_starts(vals, width, stop_after=stop)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("width", [1e-4, 3e-4, 1.0 / 8192])
    def test_long_inputs_match_the_per_interval_search(self, width):
        # uncapped and capped; at width 1/8192 the grid spacing puts a value
        # exactly at every interval's right end
        n = 3 * 8192 + 1
        rng = np.random.default_rng(3)
        for vals in (np.sort(rng.random(n)), np.arange(n) / 8192.0):
            want = searchsorted_cover_starts(vals, width)
            assert np.array_equal(projections.greedy_cover_starts(vals, width), want)
            got = projections.greedy_cover_starts(vals, width, stop_after=len(want) // 2)
            assert np.array_equal(got, want[:len(want) // 2])


class TestNonFiniteValues:
    @pytest.mark.parametrize("stop", [None, 0, 1, 2, 5])
    @pytest.mark.parametrize("vals", [
        [0.0, 5.0, np.nan], [np.nan, 0.0, 5.0], [0.0, np.nan, 5.0], [np.nan],
        [np.inf, np.nan, -np.inf], [5.0, 0.0, np.nan, np.nan],
    ])
    def test_nan_is_rejected_in_any_order(self, vals, stop):
        with pytest.raises(InvalidParameterError):
            covering_number_1d(vals, 1.0)
        with pytest.raises(InvalidParameterError):
            covering_number_1d(np.array(vals[::-1]), 1.0)
        # without its NaNs the input counts as usual, at any cap
        rest = [v for v in vals if not math.isnan(v)]
        want = brute_min_cover(rest, 1.0)
        capped = want if stop is None else min(want, stop)
        assert _count_sorted(np.sort(rest), 1.0, stop) == capped

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
            assert covering_number_1d(order, 1.0) == want
        assert _count_sorted(np.sort(vals), 1.0, stop) == capped
        # sorted, with equal infinities side by side
        for order in ([0.0, np.inf, np.inf], [-np.inf, -np.inf, 0.0, 0.5],
                      [-np.inf, -np.inf, np.inf, np.inf]):
            want = brute_min_cover(order, 1.0)
            capped = want if stop is None else min(want, stop)
            assert covering_number_1d(order, 1.0) == covering_number_1d(order[::-1], 1.0) == want
            assert _count_sorted(np.array(order), 1.0, stop) == capped


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
            assert np.array_equal(prof.values, np.sort(raw_projection_ref(ps, Direction(th))))
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

    def test_empty_sweep_is_rejected(self):
        params = ParamTriple(Scale(6), Fraction(3, 4), 6)
        with pytest.raises(InvalidParameterError, match="sweep=0"):
            compute_E_s(gen_segment(Scale(6)), params, sweep=0)


def _member_arcs_loop(thetas, flags):
    """Membership arcs by one pass over the sweep flags: the reference for
    `DirectionSetES.member_arcs`."""
    arcs = []
    start = None
    for i, f in enumerate(flags):
        if f and start is None:
            start = i
        elif not f and start is not None:
            arcs.append((thetas[start], thetas[i - 1]))
            start = None
    if start is not None:
        arcs.append((thetas[start], thetas[-1]))
    if len(arcs) > 1 and flags[0] and flags[-1]:
        first = arcs.pop(0)
        last = arcs.pop()
        arcs.append((last[0], first[1]))  # wraps through theta = 0
    return arcs


def _sweep_with_flags(flags) -> DirectionSetES:
    flags = np.array(flags, dtype=bool)
    thetas = PI * np.arange(len(flags)) / max(len(flags), 1)
    params = ParamTriple(Scale(4), Fraction(3, 4), 2)
    return DirectionSetES(params, [], 0.0, thetas, np.zeros(len(flags), dtype=np.int64),
                          flags, [])


class TestMemberArcs:
    @pytest.mark.parametrize("flags", [
        [0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 1, 0, 0, 1, 0, 1, 1],  # wraps through theta = 0
        [0, 0, 0, 0, 0, 1],  # a lone last flag
        [1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 1],  # two lone flags merged across the wrap
        [0, 1, 1, 0, 1, 0, 1, 0],
        [1],
        [0],
        [],
    ])
    def test_runs_equal_the_loop(self, flags):
        es = _sweep_with_flags(flags)
        assert es.member_arcs() == _member_arcs_loop(es.sweep_thetas, es.sweep_is_member)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=24))
    def test_random_flags_equal_the_loop(self, flags):
        es = _sweep_with_flags(flags)
        assert es.member_arcs() == _member_arcs_loop(es.sweep_thetas, es.sweep_is_member)


class TestAgainstPerIntervalSearch:
    """Sweep counts and member starts against `searchsorted_cover_starts`."""

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
                vals = np.sort(raw_projection_ref(ps, Direction(th)))
                full = len(searchsorted_cover_starts(vals, params.delta))
                assert covering_number_1d(vals, params.delta) == full
                assert count == min(full, stop)

    def test_member_starts(self):
        # the starts the sweep keeps for each member, bit for bit
        params, sets = self._sets()
        n_members = 0
        for ps in sets:
            es = compute_E_s(ps, params, sweep=256)
            assert len(es.member_starts) == len(es.members)
            for d, starts in zip(es.members, es.member_starts):
                want = searchsorted_cover_starts(np.sort(raw_projection_ref(ps, d)), params.delta)
                assert np.array_equal(starts, want)
            n_members += len(es.members)
        assert n_members > 0


class TestUnitCoordinates:
    """The loops project precomputed float unit coordinates; every value
    must equal `raw_projection_ref` bit for bit."""

    @staticmethod
    def _large_sets():
        grid = gen_grid_example(ParamTriple(Scale(12), Fraction(3, 4), 10))
        cells = np.random.default_rng(12).choice(1 << 24, size=5120, replace=False)
        rand = LatticePointSet(Scale(12), np.column_stack([cells >> 12, cells & 4095]))
        return [grid, rand]

    def test_every_sweep_direction(self):
        for ps in self._large_sets():
            xy = _unit_coords(ps)
            for d in direction_grid(4096):
                assert np.array_equal(_project_coords(xy, d), raw_projection_ref(ps, d))

    def test_direction_next_to_vertical(self):
        d = Direction(np.nextafter(PI / 2, 0))
        assert 0 < d.unit[0] < 1e-15
        for ps in self._large_sets():
            assert np.array_equal(_project_coords(_unit_coords(ps), d), raw_projection_ref(ps, d))

    def test_finest_scale_and_inexact_coordinates(self):
        # 2^62 - 1 and 2^53 + 1 both round on conversion to float64
        big, odd = (1 << 62) - 1, (1 << 53) + 1
        ps = LatticePointSet(Scale(62), np.array([[big, odd], [odd, big], [big, big],
                                                  [odd, 0], [1, odd]]))
        dirs = [*direction_grid(256), Direction(np.nextafter(PI / 2, 0))]
        xy = _unit_coords(ps)
        for d in dirs:
            assert np.array_equal(_project_coords(xy, d), raw_projection_ref(ps, d))

    def test_sweep_counts(self):
        params, sets = TestAgainstPerIntervalSearch._sets()
        stop = params.floor_delta_pow(params.s) + 1
        for ps in sets:
            want = [
                min(len(searchsorted_cover_starts(np.sort(raw_projection_ref(ps, d)),
                                                  params.delta)), stop)
                for d in direction_grid(256)
            ]
            got = compute_E_s(ps, params, sweep=256).sweep_counts
            assert np.array_equal(got, want)

    def test_member_starts(self):
        params = ParamTriple(Scale(12), Fraction(3, 4), 10)
        n_members = 0
        for ps in self._large_sets():
            es = compute_E_s(ps, params, sweep=1024)
            assert len(es.member_starts) == len(es.members)
            for d, starts in zip(es.members, es.member_starts):
                want = searchsorted_cover_starts(np.sort(raw_projection_ref(ps, d)),
                                                 params.delta)
                assert np.array_equal(starts, want)
            n_members += len(es.members)
        assert n_members > 0

    def test_incidence_count(self):
        # tubes placed over half the points from the reference values, so
        # the count depends on where each other point's value falls
        params, sets = TestAgainstPerIntervalSearch._sets()
        dirs = direction_grid(256)
        reach = params.delta * (1.0 + COVER_RTOL)
        for ps in sets:
            half = LatticePointSet(ps.scale, ps.points[::2])
            starts = {
                d.theta: searchsorted_cover_starts(np.sort(raw_projection_ref(half, d)),
                                                   params.delta)
                for d in dirs
            }
            want = 0
            for d in dirs:
                vals = raw_projection_ref(ps, d)[:, None]
                lo = starts[d.theta][None, :]
                want += int(((lo <= vals) & (vals <= lo + reach)).any(axis=1).sum())
            got = count_incidences(ps, TubeFamily(params.delta, dirs, starts)).count
            assert len(half) * len(dirs) < want < len(ps) * len(dirs)
            assert got == want


class TestCappedSweep:
    def test_counts_are_the_full_counts_capped(self):
        params, sets = TestAgainstPerIntervalSearch._sets()
        stop = params.floor_delta_pow(params.s) + 1
        for ps in sets:
            capped = compute_E_s(ps, params, sweep=256)
            full = np.array([
                len(searchsorted_cover_starts(np.sort(raw_projection_ref(ps, d)), params.delta))
                for d in direction_grid(256)
            ])
            assert np.array_equal(capped.sweep_counts, np.minimum(full, stop))
            assert np.array_equal(capped.sweep_is_member, full < stop)
        # the random set's directions are all decided by the box bound alone
        box = _BoxBins(_unit_coords(sets[1]), params.delta)
        assert all(box.lower_bound(d) >= stop for d in direction_grid(256))

    @staticmethod
    def _projected(monkeypatch):
        seen = []
        project = projections._project_coords

        def spy(xy, e):
            seen.append(e.theta)
            return project(xy, e)

        monkeypatch.setattr(projections, "_project_coords", spy)
        return seen

    def test_decided_directions_are_never_projected(self, monkeypatch):
        params, (grid, rand) = TestAgainstPerIntervalSearch._sets()
        stop = params.floor_delta_pow(params.s) + 1
        seen = self._projected(monkeypatch)
        compute_E_s(rand, params, sweep=256)
        assert seen == []
        box = _BoxBins(_unit_coords(grid), params.delta)
        open_ = [d.theta for d in direction_grid(256) if box.lower_bound(d) < stop]
        assert 0 < len(open_) < 256
        es = compute_E_s(grid, params, sweep=256)
        # a run's bound can decide a direction that its own bound leaves
        # open, never the reverse; each direction is projected at most once
        assert set(seen) <= set(open_) and len(set(seen)) == len(seen)
        assert {d.theta for d in es.members} <= set(seen)

    def test_default_sweep_counts_are_the_full_counts_capped(self):
        # 1024 directions, where runs of two and more angles are decided
        params, sets = TestAgainstPerIntervalSearch._sets()
        stop = params.floor_delta_pow(params.s) + 1
        for ps in sets:
            es = compute_E_s(ps, params)
            full = np.array([
                len(searchsorted_cover_starts(np.sort(raw_projection_ref(ps, d)), params.delta))
                for d in direction_grid(1024)
            ])
            assert np.array_equal(es.sweep_counts, np.minimum(full, stop))
            assert [d.theta for d in es.members] == es.sweep_thetas[full < stop].tolist()

    def test_runs_decide_the_random_set_in_fewer_evaluations(self, monkeypatch):
        params, (_, rand) = TestAgainstPerIntervalSearch._sets()
        spreads = []
        bound = _BoxBins.lower_bound

        def spy(box, e, spread=0.0):
            spreads.append(spread)
            return bound(box, e, spread)

        monkeypatch.setattr(_BoxBins, "lower_bound", spy)
        es = compute_E_s(rand, params, sweep=1024)
        assert not es.members
        assert len(spreads) < 1024 and max(spreads) > 0

    @pytest.mark.parametrize(
        "a, b, random, sweep, max_bounds, max_walks",
        [
            (8, 6, False, 256, 262, 92),
            (8, 6, False, 1024, 889, 370),
            (12, 10, False, 4096, 3629, 872),
            (12, 10, True, 4096, 2050, 0),
        ],
    )
    def test_sweep_work_stays_within_its_counts(
        self, monkeypatch, a, b, random, sweep, max_bounds, max_walks
    ):
        # bound evaluations and walks on the grid3 set, or on a seed-1 random
        # set of its size as in the benchmark; a run schedule that does more
        # work fails, one that does less passes
        params = ParamTriple(Scale(a), Fraction(3, 4), b)
        ps = gen_grid_example(params)
        if random:
            cells = np.random.default_rng(1).choice(1 << (2 * a), size=len(ps), replace=False)
            ps = LatticePointSet(Scale(a), np.column_stack([cells >> a, cells & ((1 << a) - 1)]))
        work = {"bounds": 0, "walks": 0}
        bound, walk = _BoxBins.lower_bound, projections.greedy_cover_starts

        def bound_spy(box, e, spread=0.0):
            work["bounds"] += 1
            return bound(box, e, spread)

        def walk_spy(*args, **kwargs):
            work["walks"] += 1
            return walk(*args, **kwargs)

        monkeypatch.setattr(_BoxBins, "lower_bound", bound_spy)
        monkeypatch.setattr(projections, "greedy_cover_starts", walk_spy)
        compute_E_s(ps, params, sweep=sweep)
        assert work["bounds"] <= max_bounds and work["walks"] <= max_walks

    def test_empty_set(self):
        params = ParamTriple(Scale(8), Fraction(3, 4), 6)
        es = compute_E_s(LatticePointSet(Scale(8), np.zeros((0, 2), dtype=np.int64)),
                         params, sweep=16)
        assert es.sweep_counts.tolist() == [0] * 16
        assert es.sweep_is_member.all() and len(es.members) == 16


_BIG, _ODD = (1 << 62) - 1, (1 << 53) + 1
_NEAR_VERTICAL = [np.nextafter(PI / 2, 0.0), np.nextafter(PI / 2, 4.0)]


@st.composite
def _box_cases(draw):
    """A lattice set, a sweep width 2^-a and a direction.  The set is spread
    over its whole square, clustered near the origin or around any point,
    an equal-step run, or made of the finest scale's inexact coordinates;
    its scale may be finer or coarser than the width's."""
    kind = draw(st.sampled_from(["spread", "origin", "cluster", "run", "finest"]))
    # fine scales with points far from the origin: there the rounding of
    # the coordinates is comparable to the width
    n = 62 if kind == "finest" else draw(st.integers(0, 62) | st.integers(50, 62))
    top = (1 << n) - 1
    anywhere = st.integers(0, top) | st.integers(0, top).map(lambda v: top - v)
    if kind == "finest":
        coord = st.sampled_from([_BIG, _ODD, _ODD - 2, _BIG - 1024, 0, 1, 1 << 52])
    elif kind == "cluster":  # a few lattice steps around any point
        x, y = draw(anywhere), draw(anywhere)
        near = st.integers(-8, 8)
        pts = draw(st.lists(st.tuples(near, near), min_size=1, max_size=60))
        pts = np.clip(np.array(pts) + [x, y], 0, top)
    elif kind == "run":  # equal small steps from any point: projections tie
        x, y = draw(anywhere), draw(anywhere)
        step = np.array([draw(st.integers(-4, 4)), draw(st.integers(-4, 4))])
        k = np.arange(draw(st.integers(1, 60)))[:, None]
        pts = np.clip(k * step + [x, y], 0, top)
    else:
        coord = st.integers(0, top if kind == "spread" else min(top, 7))
    if kind in ("spread", "origin", "finest"):
        pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=60))
    a = draw(st.integers(0, 62) | st.integers(n - 4, n + 4).map(lambda a: min(max(a, 0), 62)))
    theta = draw(st.sampled_from([0.0, PI / 2, *_NEAR_VERTICAL, 2.5])
                 | st.floats(0.0, PI, exclude_max=True))
    return LatticePointSet(Scale(n), np.array(pts, dtype=np.int64)), 2.0**-a, theta


class TestBoxBound:
    """The sweep's lattice parity bound never exceeds the greedy count."""

    @staticmethod
    def _check(ps, width, theta):
        d = Direction(theta)
        bound = _BoxBins(_unit_coords(ps), width).lower_bound(d)
        assert 1 <= bound <= covering_number_1d(np.sort(raw_projection_ref(ps, d)), width)
        return bound

    @settings(max_examples=500, deadline=None)
    @given(_box_cases())
    # the finest scale: coordinates that round on conversion and on the shift
    @example((LatticePointSet(Scale(62), np.array([[_BIG, _ODD], [_ODD, _BIG], [_BIG, _BIG],
                                                   [_ODD, 0], [1, _ODD]])), 2.0**-62, 0.7))
    # a width four times finer and four times coarser than the set's spacing
    @example((gen_segment(Scale(6)), 2.0**-8, 0.0))
    @example((gen_segment(Scale(6)), 2.0**-4, 0.0))
    # every value at exactly the reach of the last: cos < 0, and next to vertical
    @example((gen_segment(Scale(5)), 2.0**-5, PI - 1e-9))
    @example((LatticePointSet(Scale(5), np.array([[0, k] for k in range(32)])),
              2.0**-5, _NEAR_VERTICAL[1]))
    def test_never_exceeds_the_greedy_count(self, case):
        self._check(*case)

    def test_sparse_set_folds_the_table(self):
        # 4 points over about 2^20 bins: the 8-slot table folds
        ps = LatticePointSet(Scale(20), np.array([[0, 0], [1 << 19, 5], [(1 << 20) - 1, 9],
                                                  [77, (1 << 20) - 1]]))
        for theta in (0.0, 1.1, _NEAR_VERTICAL[0], _NEAR_VERTICAL[1], 2.9):
            assert self._check(ps, 2.0**-20, theta) >= 2

    def test_folded_table(self):
        # width 2^-6 is 16 lattice steps of Scale(10), and bw sits just above
        # it.  Positions are in widths from the box corner; all but bin 0's
        # lie mid-bin, so position p falls in bin floor(p)
        def bound(positions, theta):
            steps = [round(16 * p) for p in positions]
            pts = [[v, 3] for v in steps] if theta == 0.0 else [[3, v] for v in steps]
            return self._check(LatticePointSet(Scale(10), np.array(pts)), 2.0**-6, theta)

        for theta in (0.0, PI / 2):
            # 6 points over 49 bins: the 12-slot table folds, and bins 0, 12,
            # 24, 36 and 48 share slot 0
            assert bound([0, 12.5, 24.5, 36.5, 48.5, 5.5], theta) == 1
            # folding keeps parity: odd bins 1, 15 and 29 land on odd slots
            # 1, 3 and 5 beside bin 0's three points; the count is 4
            assert bound([0, 0.25, 0.5, 1.5, 15.5, 29.5], theta) == 3

    @pytest.mark.parametrize("theta, step", [
        (0.0, (129, 0)), (_NEAR_VERTICAL[0], (0, 129)), (_NEAR_VERTICAL[1], (0, 129)),
        (PI / 4, (92, 92)), (3 * PI / 4, (-92, 92)),
    ])
    def test_spacing_past_two_widths_is_tight(self, theta, step):
        # 12 points about 2.02 widths apart along the direction, starting at
        # the box corner: every point sits alone in an even bin
        k = np.arange(12)
        ps = LatticePointSet(Scale(20), np.column_stack([(1 << 19) + step[0] * k, step[1] * k]))
        assert self._check(ps, 2.0**-14, theta) == 12


@st.composite
def _run_cases(draw):
    """A `_box_cases` set and width, and a run of angles in [0, pi): its
    mid-angle, its spread, the largest float distance from the mid-angle
    to an angle of the run, and its two ends and an angle inside.  The run
    lies anywhere, starts at theta = 0, or crosses pi/2, where cos changes
    sign."""
    ps, width, theta = draw(_box_cases())
    half = draw(st.sampled_from([PI / 2**23, PI / 2**12, PI / 2**9, 0.1, 0.5])
                | st.floats(0.0, 0.5))
    where = draw(st.sampled_from(["anywhere", "zero", "vertical"]))
    if where == "zero":
        mid = half
    elif where == "vertical":
        mid = PI / 2 + draw(st.floats(-1.0, 1.0)) * half
    else:
        mid = min(max(theta, half), PI - 2 * half)
    lo, hi = mid - half, mid + half
    assume(0.0 <= lo and hi < PI)
    spread = max(mid - lo, hi - mid)
    inside = min(max(lo + draw(st.floats(0.0, 1.0)) * (hi - lo), lo), hi)
    return ps, width, mid, spread, [lo, hi, inside]


class TestRunBound:
    """One widened bound at a run's mid-angle never exceeds the greedy
    count at any angle of the run."""

    @settings(max_examples=300, deadline=None)
    @given(_run_cases())
    # runs of two and of five sweep angles at the benchmark's step, next to
    # 0 and across pi/2, on a set spread over its square
    @example((gen_grid_example(ParamTriple(Scale(8), Fraction(3, 4), 6)), 2.0**-8,
              PI / 8192, PI / 8192, [0.0, PI / 4096, PI / 8192]))
    @example((gen_grid_example(ParamTriple(Scale(8), Fraction(3, 4), 6)), 2.0**-8,
              PI / 2, PI / 2048, [PI / 2 - PI / 2048, PI / 2 + PI / 2048, PI / 2]))
    def test_never_exceeds_the_greedy_count_in_the_run(self, case):
        ps, width, mid, spread, angles = case
        bound = _BoxBins(_unit_coords(ps), width).lower_bound(Direction(mid), spread)
        assert 1 <= bound
        for theta in angles:
            assert Direction(theta).theta == theta
            vals = np.sort(raw_projection_ref(ps, Direction(theta)))
            assert bound <= covering_number_1d(vals, width)

    @pytest.mark.parametrize("start", [0.0, PI / 2])
    def test_pairs_across_the_spread_are_tight(self, start):
        # Two pairs of points a full side apart across the direction at the
        # run's start, where each pair projects to one value.  At the
        # mid-angle, where the bound bins them, a pair's values lie about
        # D * spread apart, just under one widened bin, so a pair whose
        # first point sits near the end of a bin would reach the
        # next-but-one bin if the widening fell short of D * spread.  The
        # second pair sweeps through every place in its bin.
        n, width = 20, 2.0**-14
        side = (1 << n) - 1

        def pairs(gap):
            pts = np.array([[0, 0], [side, 0], [0, gap], [side, gap]])
            return LatticePointSet(Scale(n), pts if start else pts[:, ::-1])

        box = _BoxBins(_unit_coords(pairs(1)), width)
        spread = 200 * box.bw / box.diam
        run = Direction(start + spread)
        step = (box.bw + box.diam * spread) / np.cos(spread) * 2.0**n
        for place in np.linspace(0.025, 0.975, 20):
            ps = pairs(round((4 + place) * step))
            assert covering_number_1d(np.sort(raw_projection_ref(ps, Direction(start))), width) == 2
            assert _BoxBins(_unit_coords(ps), width).lower_bound(run, spread) == 2

    def test_bound_falls_as_the_spread_grows(self):
        # the bound falls as the bins widen, down to 1 for a spread past pi
        ps = gen_grid_example(ParamTriple(Scale(8), Fraction(3, 4), 6))
        box = _BoxBins(_unit_coords(ps), 2.0**-8)
        d = Direction(0.3)
        bounds = [box.lower_bound(d, spread) for spread in (0.0, 1e-3, 1e-2, 1e-1, 4.0)]
        assert bounds[0] <= covering_number_1d(np.sort(raw_projection_ref(ps, d)), 2.0**-8)
        assert bounds[-1] == 1 and bounds[0] > bounds[-1]


class TestDirectionCovering:
    def test_single_direction(self):
        assert covering_number_circle([0.7], 0.01) == 1

    def test_grid16_quarter_arcs(self):
        # one point has a single projection value: all 16 directions are in E_s
        ps = LatticePointSet(Scale(4), np.array([[5, 9]]))
        es = compute_E_s(ps, ParamTriple(Scale(4), Fraction(1, 2), 4), sweep=16)
        assert es.members == direction_grid(16)
        assert covering_number_directions(es, PI / 4) == 4
        assert brute_min_arc_cover(es.sweep_thetas, PI / 4, PI) == 4

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            k = int(rng.integers(1, 10))
            angles = rng.uniform(0, PI, size=k)
            r = float(rng.uniform(0.05, 2.5))
            got = covering_number_circle(angles, r)
            assert got == brute_min_arc_cover(angles, r, PI)

    @pytest.mark.parametrize("r", [PI, 4.0])
    def test_an_arc_of_length_pi_covers_the_circle(self, r):
        assert covering_number_circle([0.1, 1.0, 2.0, 3.0], r) == 1

    @pytest.mark.parametrize("angles", [[0.1, np.nan], [0.1, np.inf], [-np.inf]])
    def test_non_finite_angles_are_rejected(self, angles):
        with pytest.raises(InvalidParameterError, match="angles must be finite"):
            covering_number_circle(angles, 0.1)

    def test_wraparound(self):
        # points hugging both ends of [0, pi) are one arc across the seam
        angles = [0.01, 0.02, PI - 0.02, PI - 0.01]
        assert covering_number_circle(angles, 0.1) == 1

    def test_monotone_in_r(self):
        rng = np.random.default_rng(3)
        angles = rng.uniform(0, PI, size=40)
        rs = np.sort(rng.uniform(0.01, 1.0, size=6))
        counts = [covering_number_circle(angles, r) for r in rs]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_segment_kaufman_scale(self):
        # N(E_s, delta) within a log factor of delta^(-1/2) for the segment
        n = 10
        params = ParamTriple(Scale(n), Fraction(1, 2), n)
        es = compute_E_s(gen_segment(Scale(n)), params)
        cov = covering_number_directions(es, params.delta)
        assert 0 < len(es.members) < len(es.sweep_thetas)
        assert cov == covering_number_circle([d.theta for d in es.members], params.delta)
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
