import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import distinct_keys_ref, line_hits_ref, slope_set_ref
from projlab import (
    InvalidParameterError,
    LatticePointSet,
    ParamTriple,
    Scale,
    build_slope_set,
    count_line_hits,
    gen_grid_example,
    grid_parameters,
    perpendicular_direction,
    projected_cardinality,
    run_sharpness,
    verify_separation,
)
from projlab import sharpness
from projlab.projections import covering_number_1d, projection_values
from projlab.sharpness import SlopeSet


def valid_triples(max_count=None, max_a=20):
    """Dyadic triples (a, s, b) passing the integrality constraints, with
    delta <= r <= delta^s."""
    found = []
    for s in (Fraction(1, 2), Fraction(5, 8), Fraction(2, 3), Fraction(3, 4)):
        for a in range(6, max_a + 1):
            for b in range(a + 1):
                if b < a * s:
                    continue
                params = ParamTriple(Scale(a), s, b)
                try:
                    grid_parameters(params)
                except InvalidParameterError:
                    continue
                found.append(params)
                if max_count and len(found) >= max_count:
                    return found
    return found


# small-G triples where the full per-slope pipeline is cheap
PIPELINE_TRIPLES = [
    (8, Fraction(1, 2), 4),
    (8, Fraction(1, 2), 8),
    (10, Fraction(1, 2), 6),
    (12, Fraction(3, 4), 10),
    (12, Fraction(2, 3), 10),
    (16, Fraction(3, 4), 16),
]

FLAGSHIP = (16, Fraction(3, 4), 12)
K_MAX_2 = (20, Fraction(3, 4), 16)  # k_max = 2, |K| = 1,179,648

# every valid triple with a <= 12; each grid has m * n_g <= 1024 points
SMALL_TRIPLES = valid_triples(max_a=12)
G12 = ParamTriple(Scale(12), Fraction(3, 4), 10)  # m = 4, n_g = 256

# arbitrary exact slopes: negative, above 1, small denominators (where
# columns collide), and numerators and denominators far beyond 2^62
SLOPES = st.one_of(
    st.fractions(-4, 4, max_denominator=64),
    st.builds(Fraction, st.integers(-(2**10), 2**10), st.integers(1, 2**10)),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
)


class TestBuildSlopeSet:
    def test_flagship_enumeration(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        S = build_slope_set(params)
        assert S.k_max == 1
        assert len(S) == 1025  # l runs over 0..1024 at k = 1
        assert S.slopes[0] == 0 and S.slopes[-1] == Fraction(1, 4)
        r = Fraction(1, 2**12)
        gaps = {b - a for a, b in zip(S.slopes, S.slopes[1:])}
        assert gaps == {r}  # consecutive gaps exactly r

    def test_k2_dedup(self):
        # k_max = 2: even-l slopes at k = 2 coincide with k = 1 slopes
        params = ParamTriple(Scale(20), Fraction(3, 4), 16)
        S = build_slope_set(params)
        assert S.k_max == 2
        n_g = grid_parameters(params).n_g
        k1 = {Fraction(l, n_g) for l in range(2**11 + 1)}
        k2 = {Fraction(l, 2 * n_g) for l in range(2**12 + 1)}
        assert set(S.slopes) == k1 | k2
        assert len(S) == 2**12 + 1  # dedup removed the even-l overlap

    def test_matches_fraction_enumeration(self):
        # every valid triple with a <= 20, and three with k_max = 2^14 to 2^16
        deep = [ParamTriple(Scale(a), Fraction(1, 2), b) for a, b in ((28, 28), (32, 30), (32, 32))]
        for params in valid_triples(max_a=20) + deep:
            slopes = build_slope_set(params).slopes
            assert slopes == slope_set_ref(params), (params.a, str(params.s), params.b)
            assert all(type(x) is Fraction for x in slopes)
        assert slopes == [0, Fraction(1, 2**16)]

    @pytest.mark.parametrize("a, s, b, size", [
        (*FLAGSHIP, 1025),  # 1025 pairs (k, l), all distinct
        (*K_MAX_2, 2**12 + 1),  # 6146 pairs (k, l): the family is counted by a walk
    ])
    def test_family_above_max_slopes_is_refused(self, monkeypatch, a, s, b, size):
        params = ParamTriple(Scale(a), s, b)
        monkeypatch.setattr(sharpness, "MAX_SLOPES", size)
        assert len(build_slope_set(params)) == size
        monkeypatch.setattr(sharpness, "MAX_SLOPES", size - 1)
        with pytest.raises(InvalidParameterError, match=rf"\({a}, {s}, {b}\)"):
            build_slope_set(params)

    @pytest.mark.parametrize("a, s, b, budget", [
        (62, Fraction(3, 4), 47, 2**22),  # k_max = 1, l_exp = 38: 2^38 + 1 slopes
        (8, Fraction(3, 4), 6, 2**5),  # k_max = 1, l_exp = 5: 2^5 + 1 slopes
    ])
    def test_long_k1_row_is_refused_before_any_walk(self, monkeypatch, a, s, b, budget):
        params = ParamTriple(Scale(a), s, b)
        walks = []
        walk = sharpness._farey_walk
        monkeypatch.setattr(sharpness, "_farey_walk", lambda *args: walks.append(args) or walk(*args))
        monkeypatch.setattr(sharpness, "MAX_SLOPES", budget)
        with pytest.raises(InvalidParameterError,
                           match=rf"^the slope family at \(a, s, b\) = \({a}, {s}, {b}\) "
                                 r"has more than 2\^22 slopes$"):
            build_slope_set(params)
        assert walks == []
        if budget < 2**22:
            monkeypatch.setattr(sharpness, "MAX_SLOPES", budget + 1)
            assert len(build_slope_set(params)) == budget + 1

    def test_zero_and_nonzero_always_present(self):
        # S always holds a nonzero slope besides 0 in the valid range
        for params in valid_triples(max_count=12):
            S = build_slope_set(params)
            assert S.slopes[0] == 0
            assert len(S) >= 2

    def test_out_of_range_rejected(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 10)  # r > delta^s
        with pytest.raises(InvalidParameterError, match="delta"):
            build_slope_set(params)


class TestSeparation:
    def test_single_slope(self):
        params = ParamTriple(Scale(8), Fraction(1, 2), 8)
        S = SlopeSet(params, [Fraction(0)], 1)
        assert verify_separation(S)

    def test_flagship_exact_gaps(self):
        S = build_slope_set(ParamTriple(Scale(*[16][:1]), Fraction(3, 4), 12))
        assert verify_separation(S)

    def test_adversarial_violation(self):
        params = ParamTriple(Scale(8), Fraction(1, 2), 4)
        r_half = Fraction(1, 2**5)
        S = SlopeSet(params, [Fraction(0), r_half], 1)
        assert not verify_separation(S)

    # consecutive gaps r + j 2^-60: j = 0 is exactly r, j = -1 just below it,
    # and |j| <= 2^39 keeps every gap positive for r >= 2^-20
    @settings(max_examples=300, deadline=None)
    @given(
        params=st.sampled_from(SMALL_TRIPLES + [ParamTriple(Scale(20), Fraction(3, 4), 16)]),
        start=SLOPES,
        shifts=st.lists(
            st.one_of(st.sampled_from([0, -1, 1]), st.integers(-(2**39), 2**39)),
            max_size=6,
        ),
    )
    @example(params=G12, start=Fraction(0), shifts=[0])
    @example(params=G12, start=Fraction(0), shifts=[-1])
    @example(params=G12, start=Fraction(2**62 + 1, 3), shifts=[0, 0, -1])
    @example(params=G12, start=Fraction(-5, 3), shifts=[1, 0])
    def test_matches_fraction_differences(self, params, start, shifts):
        r = Fraction(1, 2**params.b)
        slopes = [start]
        for j in shifts:
            slopes.append(slopes[-1] + r + Fraction(j, 2**60))
        want = all(y - x >= r for x, y in zip(slopes, slopes[1:]))
        assert verify_separation(SlopeSet(params, slopes, 1)) == want

    def test_twenty_plus_valid_triples(self):
        triples = valid_triples(max_count=24)
        assert len(triples) >= 20
        for params in triples:
            S = build_slope_set(params)
            assert verify_separation(S), (params.a, str(params.s), params.b)
            target = params.delta_pow(-params.s) * math.sqrt(
                params.delta / params.r
            )
            assert len(S) >= target / 64


class TestLineHits:
    def test_slope_zero_hits_whole_row(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        assert count_line_hits(params, Fraction(0)) == 4  # m = 4

    def test_flagship_min_slope(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        assert count_line_hits(params, Fraction(1, 4096)) >= 2

    def test_extreme_slope(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        S = build_slope_set(params)
        hits = count_line_hits(params, S.slopes[-1])
        assert hits >= 2  # floor((r/delta)^(1/2)/2) = 2

    @settings(max_examples=300, deadline=None)
    @given(params=st.sampled_from(SMALL_TRIPLES), slope=SLOPES)
    @example(params=G12, slope=Fraction(0))
    @example(params=G12, slope=Fraction(-1, 3))
    @example(params=G12, slope=Fraction(1, 1024))  # g = 4 = m: column 0 only
    @example(params=G12, slope=Fraction(3, 512))  # (den - 1) // num + 1 = 171
    @example(params=G12, slope=Fraction(2**62 + 1, 3))
    def test_matches_column_loop(self, params, slope):
        spec = grid_parameters(params)
        assert count_line_hits(params, slope) == line_hits_ref(spec.m, spec.n_g, slope)

    def test_all_slopes_meet_floor(self):
        for a, s, b in PIPELINE_TRIPLES:
            params = ParamTriple(Scale(a), s, b)
            floor_target = (
                int(math.isqrt(2 ** (a - b - 2))) if a - b >= 2 else 0
            )
            S = build_slope_set(params)
            for sigma in S.slopes:
                assert count_line_hits(params, sigma) >= max(floor_target, 1)


class TestProjectedCardinality:
    def test_slope_zero_gives_rows(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        assert projected_cardinality(params, Fraction(0)) == 4096  # n_g

    def test_tiny_grid_all_distinct(self):
        # m = n_g = 2; a generic slope separates all four grid points
        params = ParamTriple(Scale(3), Fraction(1, 2), 2)
        spec = grid_parameters(params)
        assert (spec.m, spec.n_g) == (2, 2)
        assert projected_cardinality(params, Fraction(1, 3)) == 4

    def test_flagship_lemma_instance(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        pc = projected_cardinality(params, Fraction(512, 4096))
        hits = count_line_hits(params, Fraction(512, 4096))
        assert pc * hits <= 4 * 4 * 4096
        assert pc <= 64 * 2**12

    @settings(max_examples=300, deadline=None)
    @given(params=st.sampled_from(SMALL_TRIPLES), slope=SLOPES)
    @example(params=G12, slope=Fraction(2**62 + 1, 3))
    @example(params=G12, slope=Fraction(-(2**62 + 1)))
    @example(params=G12, slope=Fraction(-5, 3))
    @example(params=G12, slope=Fraction(3, 512))
    @example(params=G12, slope=Fraction(1, 2048))  # P = 8 > m = 4
    @example(params=G12, slope=Fraction(5, 256))  # P = 1
    @example(params=G12, slope=Fraction(0))  # num = 0
    @example(params=G12, slope=Fraction(-7, 1024))  # num < 0, P = m
    def test_matches_key_set(self, params, slope):
        spec = grid_parameters(params)
        want = distinct_keys_ref(spec.m, spec.n_g, slope.numerator, slope.denominator)
        assert projected_cardinality(params, slope) == want

    # m = 64 at (16, 5/8, 16), so many residue classes hold several columns
    @pytest.mark.parametrize("a,s,b", [(16, Fraction(5, 8), 16), (14, Fraction(3, 4), 13)])
    def test_matches_key_set_on_every_slope_of_wide_grids(self, a, s, b):
        params = ParamTriple(Scale(a), s, b)
        spec = grid_parameters(params)
        periods = []
        for sigma in build_slope_set(params).slopes:
            num, den = sigma.numerator, sigma.denominator
            periods.append(den // math.gcd(den, spec.n_g))
            want = distinct_keys_ref(spec.m, spec.n_g, num, den)
            assert projected_cardinality(params, sigma) == want, sigma
        assert min(periods) < spec.m

    @pytest.mark.parametrize("a,s,b", PIPELINE_TRIPLES + [K_MAX_2])
    def test_lemma_every_slope(self, a, s, b):
        params = ParamTriple(Scale(a), s, b)
        spec = grid_parameters(params)
        G_size = spec.m * spec.n_g
        for sigma in build_slope_set(params).slopes:
            pc = projected_cardinality(params, sigma)
            hits = count_line_hits(params, sigma)
            assert pc * hits <= 4 * G_size


class TestRunSharpness:
    def test_flagship_report(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        rep = run_sharpness(params)
        assert rep.slope_count == 1025
        S = build_slope_set(params)
        assert verify_separation(S)
        assert rep.record.results["line_hit_min"] >= 2
        assert S.slopes[-1] * grid_parameters(params).h == Fraction(1, 2**16)  # exactly delta
        assert rep.max_proj_cardinality <= 64 * 2**12
        assert rep.covering_max_K <= 64 * 2**12
        assert not rep.record.failed

    def test_kaufman_degenerate_r_equals_delta(self):
        # r = delta, s = 1/2: target collapses to delta^-s, set to the segment
        params = ParamTriple(Scale(8), Fraction(1, 2), 8)
        rep = run_sharpness(params)
        assert rep.record.results["target"] == pytest.approx(2.0**4)
        assert not rep.record.failed

    def test_boundary_r_equals_delta_s(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 16)
        rep = run_sharpness(params, project_full_set=False)
        assert not rep.record.failed

    @pytest.mark.parametrize("a,s,b", PIPELINE_TRIPLES + [K_MAX_2])
    def test_pipeline_triples(self, a, s, b):
        params = ParamTriple(Scale(a), s, b)
        rep = run_sharpness(params)
        assert not rep.record.failed
        # end-to-end: every perpendicular projection of the full set is small
        assert rep.covering_max_K <= 64 * params.delta_pow(-s)

    def test_range_violation(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 10)
        with pytest.raises(InvalidParameterError, match="delta <= r <= delta\\^s"):
            run_sharpness(params)

    def test_grid_matches_slope_parameters(self):
        params = ParamTriple(Scale(12), Fraction(3, 4), 10)
        ps = gen_grid_example(params)
        spec = grid_parameters(params)
        u, v = ps.points[:, 0], ps.points[:, 1]
        assert len(np.unique(u >> (params.a - spec.e_m))) == spec.m  # columns
        assert len(np.unique(v)) == spec.n_g  # rows


def _all_slopes_max(params):
    K = gen_grid_example(params)
    return max(
        covering_number_1d(
            projection_values(K, perpendicular_direction(sigma)), params.delta
        )
        for sigma in build_slope_set(params).slopes
    )


def _spy_on_full_set_count(monkeypatch) -> list:
    """Slopes at which `run_sharpness` counts K, in call order."""
    calls = []
    real = sharpness.covering_number_at_slope

    def spy(ps, slope):
        calls.append(slope)
        return real(ps, slope)

    monkeypatch.setattr(sharpness, "covering_number_at_slope", spy)
    return calls


class TestFullSetCoverBound:
    """`run_sharpness` counts K only while the maximum can still rise:
    N(pi_e K, delta) <= projected_cardinality(sigma) at every slope of S."""

    def test_cover_at_most_cardinality_every_slope(self):
        for params in SMALL_TRIPLES:
            K = gen_grid_example(params)
            for sigma in build_slope_set(params).slopes:
                vals = projection_values(K, perpendicular_direction(sigma))
                n = covering_number_1d(vals, params.delta)
                pc = projected_cardinality(params, sigma)
                where = (params.a, str(params.s), params.b, sigma)
                assert n <= pc, where
                assert sharpness.covering_number_at_slope(K, sigma) == n, where

    def test_key_width_ties_at_a_pythagorean_slope(self):
        # at slope 3/4 the key width isqrt(3^2 + 4^2) = 5 is exact, so keys
        # 4v - 3u five apart project exactly delta apart
        def count(*points):
            K = LatticePointSet(Scale(4), np.array(points))
            return sharpness.covering_number_at_slope(K, Fraction(3, 4))

        assert count((0, 0), (1, 2)) == 1  # keys 0 and 5 share an interval
        assert count((0, 0), (2, 3)) == 2  # keys 0 and 6 do not
        assert count((0, 0), (1, 2), (2, 4)) == 2  # keys 0, 5, 10

    @pytest.mark.parametrize("n, points, slope", [
        (62, [(0, 2**53 + 3), (0, 2**53 + 5)], Fraction(0)),  # float64 keys: 1, not 2
        (62, [(0, (2**63 - 1) // 3), (0, (2**63 - 1) // 3 + 1)], Fraction(1, 3)),  # int64 wraps
        (2, [(1, 0), (0, 1)], Fraction(1, 2**40)),  # slack w * COVER_RTOL > 1: 1, not 2
    ], ids=["float-keys", "int64-wrap", "wide-slack"])
    def test_keys_it_cannot_count_exactly_are_refused(self, n, points, slope):
        K = LatticePointSet(Scale(n), np.array(points))
        with pytest.raises(InvalidParameterError, match=r"below 2\^52 and 2\^38$"):
            sharpness.covering_number_at_slope(K, slope)

    def test_the_width_bound_is_2_38(self):
        # keys -1 and den lie w + 1 apart, w = den: counted below 2^38, refused at it
        K = LatticePointSet(Scale(2), np.array([(1, 0), (0, 1)]))
        assert sharpness.covering_number_at_slope(K, Fraction(1, 2**38 - 1)) == 2
        with pytest.raises(InvalidParameterError):
            sharpness.covering_number_at_slope(K, Fraction(1, 2**38))

    @pytest.mark.parametrize(
        "params", SMALL_TRIPLES + [ParamTriple(Scale(14), Fraction(3, 4), 13)],
        ids=lambda p: f"{p.a}-{p.s}-{p.b}",
    )
    def test_max_equals_all_slopes_max(self, monkeypatch, params):
        calls = _spy_on_full_set_count(monkeypatch)
        rep = run_sharpness(params)
        assert rep.covering_max_K == _all_slopes_max(params)
        # every slope left out has a cardinality the maximum already reaches
        for num, den, _, pc in rep.per_slope:
            if Fraction(num, den) not in calls:
                assert pc <= rep.covering_max_K

    @pytest.mark.parametrize(
        "a,s,b", [(14, Fraction(3, 4), 13), (16, Fraction(5, 8), 16)]
    )
    def test_few_projections(self, monkeypatch, a, s, b):
        calls = _spy_on_full_set_count(monkeypatch)
        rep = run_sharpness(ParamTriple(Scale(a), s, b))
        assert not rep.record.failed
        assert 1 <= len(calls) < 10
