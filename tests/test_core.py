import math
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from projlab import (
    Direction,
    InvalidParameterError,
    ParamTriple,
    Scale,
    direction_grid,
    perpendicular_direction,
)
from projlab import core
from projlab.core import _group_rows, floor_pow2, integer_root
from projlab.projections import covering_number_circle

PI = math.pi


def brute_arc_distance(t1, t2):
    # minimum over antipodal lifts theta + k*pi
    return min(abs(t1 - t2 + k * PI) for k in range(-3, 4))


class TestScale:
    def test_delta_exact(self):
        for n in (0, 1, 10, 52, 62):
            assert Scale(n).delta == 2.0 ** (-n)
            assert Scale(n).side == 2**n

    def test_range(self):
        with pytest.raises(InvalidParameterError):
            Scale(-1)
        with pytest.raises(InvalidParameterError):
            Scale(63)


class TestDirection:
    @pytest.mark.parametrize("theta", [0.0, -0.0, PI, -PI, 2 * PI, -1e-17])
    def test_zero_angle_is_positive_zero(self, theta):
        # fmod keeps the sign of a zero, and -0.0 would print as "-0.0";
        # -1e-17 + pi rounds to pi, which wraps to 0
        t = Direction(theta).theta
        assert t == 0.0 and math.copysign(1.0, t) == 1.0

    def test_negative_angle_wraps_by_pi(self):
        assert Direction(-0.5).theta == PI - 0.5

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_refused(self, theta):
        with pytest.raises(InvalidParameterError, match="must be finite"):
            Direction(theta)


def fits_one_arc(t1, t2, r):
    return covering_number_circle([Direction(t1).theta, Direction(t2).theta], r) == 1


class TestArcDistance:
    # The quotient-circle distance as the library applies it: two directions
    # share one arc of length r exactly when their distance is at most r.
    def test_identity(self):
        assert fits_one_arc(0.0, 0.0, 1e-12)

    def test_quarter(self):
        assert fits_one_arc(0.0, PI / 4, PI / 4)
        assert not fits_one_arc(0.0, PI / 4, PI / 4 - 1e-9)

    def test_antipodal_identification(self):
        # nearly-horizontal directions on both sides of theta = 0
        assert brute_arc_distance(0.01, PI - 0.01) == pytest.approx(0.02)
        assert fits_one_arc(0.01, PI - 0.01, 0.02 + 1e-9)
        assert not fits_one_arc(0.01, PI - 0.01, 0.02 - 1e-9)

    def test_metric_properties(self):
        rng = np.random.default_rng(7)
        for t1, t2 in rng.uniform(0.0, PI, size=(2_000, 2)):
            a = brute_arc_distance(t1, t2)
            assert 0.0 <= a <= PI / 2
            assert fits_one_arc(t1, t2, a + 1e-9) and fits_one_arc(t2, t1, a + 1e-9)
            if a > 2e-9:
                assert not fits_one_arc(t1, t2, a - 1e-9)


class TestDirectionGrid:
    def test_p1(self):
        assert [d.theta for d in direction_grid(1)] == [0.0]

    def test_p4(self):
        assert [d.theta for d in direction_grid(4)] == pytest.approx(
            [0.0, PI / 4, PI / 2, 3 * PI / 4]
        )

    def test_equidistribution(self):
        for p in (2, 3, 8, 32, 256):
            grid = direction_grid(p)
            thetas = [d.theta for d in grid]
            assert thetas == sorted(thetas)
            gaps = np.diff(thetas + [thetas[0] + PI])
            assert np.allclose(gaps, PI / p, atol=1e-12)
            # pairwise separation at least pi/p
            for i in range(p):
                for j in range(i + 1, min(i + 4, p)):
                    diff = grid[j].theta - grid[i].theta
                    assert min(diff, PI - diff) >= PI / p - 1e-12

    def test_dyadic_spacing(self):
        grid = direction_grid(2**5)
        assert np.allclose(np.diff([d.theta for d in grid]), PI * 2.0**-5, atol=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            direction_grid(0)

    @pytest.mark.parametrize("p", [1, 3, 256, 1000, 4096, 65536])
    def test_angles_are_the_python_thetas(self, p):
        # the E_s sweep's angle array: the same doubles as pi * k / p
        angles = core.direction_angles(p)
        assert angles.dtype == np.float64
        assert angles.tolist() == [PI * k / p for k in range(p)]
        assert angles.tolist() == [d.theta for d in direction_grid(p)]

    def test_grid_above_max_directions_is_refused(self, monkeypatch):
        with pytest.raises(InvalidParameterError, match="above 2"):
            direction_grid(core.MAX_DIRECTIONS + 1)
        monkeypatch.setattr(core, "MAX_DIRECTIONS", 8)
        assert len(direction_grid(8)) == 8
        with pytest.raises(InvalidParameterError, match="p=9"):
            direction_grid(9)


class TestPerpendicular:
    def test_horizontal_line(self):
        assert perpendicular_direction(Fraction(0)).theta == pytest.approx(PI / 2)

    def test_diagonal(self):
        assert perpendicular_direction(Fraction(1)).theta == pytest.approx(3 * PI / 4)

    def test_small_slope(self):
        got = perpendicular_direction(Fraction(1, 4096)).theta
        assert got == pytest.approx(PI / 2 + math.atan(1.0 / 4096.0))

    def test_projection_functional(self):
        # projecting along the perpendicular computes y - sigma*x, normalized
        sigma = Fraction(3, 7)
        e = perpendicular_direction(sigma)
        x, y = 0.2, 0.9
        expected = (y - float(sigma) * x) / math.hypot(1.0, float(sigma))
        c, s = e.unit
        assert x * c + y * s == pytest.approx(expected)


class TestExactSlope:
    def test_comparisons_match_high_precision(self):
        getcontext().prec = 50
        rng = np.random.default_rng(11)
        nums = rng.integers(-(2**63), 2**63, size=(10_000, 2))
        dens = rng.integers(1, 2**63, size=(10_000, 2))
        for (n1, n2), (d1, d2) in zip(nums, dens):
            a = Fraction(int(n1), int(d1))
            b = Fraction(int(n2), int(d2))
            da = Decimal(a.numerator) / Decimal(a.denominator)
            db = Decimal(b.numerator) / Decimal(b.denominator)
            assert (a < b) == (da < db)
            assert (a == b) == (da == db)

    def test_reduced_form(self):
        s = Fraction(6, 4)
        assert s.numerator == 3 and s.denominator == 2


class TestParamTriple:
    def test_tau_exact(self):
        p = ParamTriple(Scale(16), Fraction(3, 4), 12)
        assert p.tau == Fraction(12, 16) == Fraction(3, 4)
        assert p.delta == 2.0**-16 and p.r == 2.0**-12

    def test_range_checks(self):
        with pytest.raises(InvalidParameterError):
            ParamTriple(Scale(10), Fraction(1, 4), 5)  # s < 1/2
        with pytest.raises(InvalidParameterError):
            ParamTriple(Scale(10), Fraction(1, 2), 11)  # r < delta
        with pytest.raises(InvalidParameterError):
            ParamTriple(Scale(10), Fraction(1, 2), -1)  # r > 1

    def test_exact_threshold(self):
        p = ParamTriple(Scale(10), Fraction(17, 20), 10)
        # delta^-s = 2^8.5 = 362.03...; 362 passes, 363 fails
        assert p.floor_delta_pow(p.s) == 362
        for a in (0, 1, 10, 24):
            for s in (Fraction(1, 2), Fraction(3, 4), Fraction(17, 20), Fraction(0)):
                x = ParamTriple(Scale(a), Fraction(1, 2), 0).floor_delta_pow(s)
                assert x ** s.denominator <= 2 ** (a * s.numerator) < (x + 1) ** s.denominator


class TestExactPowers:
    def test_integer_root(self):
        assert integer_root(8, 3) == 2
        assert integer_root(26, 3) == 2
        assert integer_root(27, 3) == 3
        assert integer_root(0, 5) == 0
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = int(rng.integers(0, 10**12))
            k = int(rng.integers(1, 6))
            r = integer_root(x, k)
            assert r**k <= x < (r + 1) ** k

    def test_floor_pow2(self):
        assert floor_pow2(Fraction(0)) == 1
        assert floor_pow2(Fraction(1, 2)) == 1
        assert floor_pow2(Fraction(3, 2)) == 2
        assert floor_pow2(Fraction(5)) == 32
        for p in range(0, 40):
            for q in (1, 2, 3, 5):
                v = floor_pow2(Fraction(p, q))
                assert v**q <= 2**p < (v + 1) ** q


@st.composite
def _int_rows(draw):
    """int64 matrices of 1-3 columns and 1-300 rows whose entries come from
    a pool of at most six values in [0, 2^62 - 1], so rows repeat often."""
    pool = draw(st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=6, unique=True))
    shape = (draw(st.integers(1, 300)), draw(st.integers(1, 3)))
    return draw(hnp.arrays(np.int64, shape, elements=st.sampled_from(pool)))


class TestGroupRows:
    @settings(max_examples=300, deadline=None)
    @given(_int_rows())
    @example(np.array([[2**62 - 1, 0, 7]], dtype=np.int64))
    @example(np.full((57, 2), 3, dtype=np.int64))
    def test_equals_numpy_row_unique(self, keys):
        want, want_inverse = np.unique(keys, axis=0, return_inverse=True)
        got, inverse = _group_rows(keys)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert np.array_equal(inverse, want_inverse.ravel())
