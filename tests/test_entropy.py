import importlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    blow_up_ref,
    clustered_measure,
    coarsen_ref,
    marstrand_ref,
    measure_mix,
    multiscale_ref,
    parser_text,
    random_measure,
    regularity_ref,
    shannon_ref,
)
from projlab import (
    Direction,
    DyadicMeasure,
    InvalidParameterError,
    ParseError,
    Scale,
    ad_regularity_check,
    conditional_entropy,
    direction_grid,
    entropy,
    from_pointset,
    gen_four_corners,
    marstrand_average,
    multiscale_check,
    project_measure,
    projections,
    read_dmeas,
    theorem_main2_experiment,
    write_dmeas,
)
from projlab.entropy import MASS_TOL, _annulus, _projected_bins, shannon

EXPECTED = Path(__file__).parents[1] / "perfbench" / "expected.json"

LEVEL = 6


def _measure(seed: int, dim: int):
    return random_measure(np.random.default_rng(seed), dim, LEVEL, 40)


def _aggregate_ref(mu, m: int) -> list[float]:
    """Masses of the level-m ancestors, summed in a plain dict."""
    shift = mu.level - m
    agg: dict = {}
    for i, w in zip(mu.idx.tolist(), mu.mass.tolist()):
        key = tuple(v >> shift for v in i)
        agg[key] = agg.get(key, 0.0) + w
    return list(agg.values())


class TestDmeasFormat:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_mass_is_a_parse_error(self, bad):
        text = f"DMEAS v1 d=1 n=2\n0 1\n1 {bad}\n"
        with pytest.raises(ParseError, match="line 3"):
            read_dmeas(io.StringIO(text))

    @pytest.mark.parametrize("text, line", [
        ("DMEAS v1 d=1 n=2\n99999999999999999999999 1\n", 2),
        ("DMEAS v1 d=2 n=2\n0 0 0.5\n\n1 -9223372036854775809 0.5\n", 4),
        ("DMEAS v1 d=1 n=2\n\n0 0.5\n\n\n9223372036854775808 0.5\n", 6),
    ])
    def test_index_beyond_64_bits_is_a_parse_error(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}:"):
            read_dmeas(io.StringIO(text))

    def test_dimension_outside_1_2_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 1"):
            read_dmeas(io.StringIO("DMEAS v1 d=0 n=2\n5\n"))

    @pytest.mark.parametrize("text, line, message", [
        ("DMEAS v1 d=1 n=2\n0 0.125\n1 0.125\n2 0.25\n7 0.5\n", 5, "outside"),
        ("DMEAS v1 d=2 n=2\n0 0 0.5\n\n1 -1 0.5\n", 4, "outside"),
        ("DMEAS v1 d=1 n=2\n0 0.5\n1 0.75\n", 1, "sum to 1.25,"),
        ("DMEAS v1 d=2 n=2\n1 1 0.25\n\n0 0 0.25\n1 1 0.25\n0 0 0.25\n", 5, "duplicate"),
        # the zero-mass cube is dropped before the duplicate check
        ("DMEAS v1 d=1 n=2\n0 0.5\n0 0\n3 0\n0 0.5\n", 5, "duplicate"),
        ("DMEAS v1 d=1 n=2\n0 1.5\n\n1 -0.5\n", 4, "negative mass"),
        ("DMEAS v1 d=1 n=63\n0 1\n", 1, "level"),
        ("DMEAS v1 d=2 n=2\n0 0 0\n", 1, "no mass"),
    ])
    def test_measure_errors_name_their_line(self, text, line, message):
        with pytest.raises(ParseError, match=f"line {line}: .*{message}"):
            read_dmeas(io.StringIO(text))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(0, 12))
    def test_write_then_read_is_bit_identical(self, seed, dim, level):
        mu = random_measure(np.random.default_rng(seed), dim, level, 200)
        text = io.StringIO()
        write_dmeas(mu, text)
        text.seek(0)
        back = read_dmeas(text)
        assert (back.dim, back.level) == (dim, level)
        assert back.idx.dtype == mu.idx.dtype and np.array_equal(back.idx, mu.idx)
        assert np.array_equal(back.mass.view(np.uint64), mu.mass.view(np.uint64))
        again = io.StringIO()
        write_dmeas(back, again)
        assert again.getvalue() == text.getvalue()

    @settings(max_examples=300, deadline=None)
    @given(parser_text("DMEAS v1 d={} n={}", st.one_of(st.sampled_from([1, 2]), st.integers())))
    def test_any_text_parses_or_raises_a_parse_error(self, text):
        try:
            read_dmeas(io.StringIO(text))
        except ParseError:
            pass


class TestRowLayout:
    def test_flat_line_indices_are_stored_as_rows(self):
        mu = DyadicMeasure(1, 4, [9, 1, 5], [0.5, 0.25, 0.25])
        assert mu.idx.shape == (3, 1) and mu.idx.dtype == np.int64
        assert mu.idx[:, 0].tolist() == [1, 5, 9]
        assert mu.mass.tolist() == [0.25, 0.25, 0.5]

    @pytest.mark.parametrize("mu", [
        _measure(7, 1),
        _measure(7, 2),
        project_measure(from_pointset(gen_four_corners(3, Scale(6))), Direction(0.7), 6),
    ])
    def test_every_dimension_keeps_one_row_per_atom(self, mu):
        assert mu.idx.shape == mu.centers().shape == (len(mu), mu.dim)
        for m in range(mu.level + 1):
            assert mu.coarsen(m)[0].shape[1] == mu.dim

    # `read_dmeas` catches each of these before it builds the measure
    @pytest.mark.parametrize("dim, level, idx, mass, message", [
        (3, 2, [[0, 0, 0]], [1.0], "dim=3"),
        (1, 63, [0], [1.0], "level=63"),
        (1, 2, [0, 1], [1.0], "disagree in length"),
        (1, 2, [0, 1], [1.5, -0.5], "negative mass"),
        (1, 2, [4], [1.0], "outside"),
        (2, 2, [[1, 1], [1, 1]], [0.5, 0.5], "duplicate"),
    ])
    def test_the_constructor_rejects_a_malformed_measure(self, dim, level, idx, mass,
                                                         message):
        with pytest.raises(InvalidParameterError, match=message):
            DyadicMeasure(dim, level, idx, mass)


class TestEntropyAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=50))
    def test_shannon(self, masses):
        want = shannon_ref(masses)
        assert shannon(masses) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(0, LEVEL))
    def test_entropy(self, seed, dim, m):
        mu = _measure(seed, dim)
        ev = entropy(mu, m)
        want = shannon_ref(_aggregate_ref(mu, m))
        assert ev.raw == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert ev.normalized == (ev.raw / (m * math.log(2)) if m else 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
           st.integers(0, LEVEL), st.floats(0.0, 1.0))
    def test_entropy_is_concave(self, seed, dim, m, t):
        rng = np.random.default_rng(seed)
        mu, nu = (random_measure(rng, dim, LEVEL, 40) for _ in range(2))
        mixed = entropy(measure_mix(t, mu, nu), m).raw
        assert mixed >= t * entropy(mu, m).raw + (1.0 - t) * entropy(nu, m).raw - 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
           st.integers(0, LEVEL), st.integers(0, LEVEL))
    def test_chain_rule(self, seed, dim, i, j):
        coarse, fine = sorted((i, j))
        mu = _measure(seed, dim)
        want = entropy(mu, fine).raw - entropy(mu, coarse).raw
        assert abs(conditional_entropy(mu, fine, coarse) - want) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]), st.integers(1, 62))
    def test_coarsen_is_bit_identical_to_the_row_unique_reference(self, seed, dim, level):
        rng = np.random.default_rng(seed)
        for mu in (random_measure(rng, dim, min(level, 8), 300),
                   clustered_measure(rng, level, 200)):
            for m in range(mu.level + 1):
                idx, mass = mu.coarsen(m)
                want_idx, want_mass = coarsen_ref(mu, m)
                assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx)
                assert np.array_equal(mass.view(np.uint64), want_mass.view(np.uint64))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_entropies_are_positive_zero(self, dim):
        # a point mass, and pieces of one atom each (the four-corners cubes
        # conditioned on themselves)
        mu = random_measure(np.random.default_rng(0), dim, LEVEL, 1)
        corners = _four_corners(3)
        for v in (shannon([1.0]), entropy(mu, 0).raw, entropy(mu, LEVEL).raw,
                  entropy(mu, LEVEL).normalized, conditional_entropy(mu, LEVEL, 2),
                  *(conditional_entropy(corners, k, k) for k in range(corners.level + 1))):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0


def _four_corners(L: int):
    return from_pointset(gen_four_corners(L, Scale(2 * L)))


def _one_cube_measure(seed: int, level: int, k: int):
    """A random measure all of whose atoms lie in one level-k cube."""
    rng = np.random.default_rng(seed)
    inner = random_measure(rng, 2, level - k, 40)
    q = rng.integers(0, 1 << k, size=2)
    return DyadicMeasure(2, level, (q << (level - k)) + inner.idx, inner.mass)


def _measures():
    """Planar measures: random at levels 1 to 8, a single atom, or all atoms
    in one cube."""
    seeds = st.integers(0, 2**32 - 1)
    return st.one_of(
        st.builds(lambda seed, level: random_measure(np.random.default_rng(seed), 2, level, 300),
                  seeds, st.integers(1, 8)),
        st.builds(lambda seed, level: random_measure(np.random.default_rng(seed), 2, level, 1),
                  seeds, st.integers(1, 8)),
        st.integers(2, 8).flatmap(lambda level: st.builds(
            _one_cube_measure, seeds, st.just(level), st.integers(1, level - 1))),
    )


_THETAS = st.one_of(st.sampled_from([0.0, math.pi - 1e-12, math.pi / 2]),
                    st.floats(0.0, math.pi, exclude_max=True))


def _same_report(got, want, rel=0.0):
    assert got.per_level_counts == want.per_level_counts
    assert got.A_lower == pytest.approx(want.A_lower, rel=rel, abs=0)
    assert got.A_upper == pytest.approx(want.A_upper, rel=rel, abs=0)


class TestAgainstPerCubeReferences:
    """The vectorised regularity sweep, Marstrand average and multiscale
    check against their per-atom-pair, per-direction and per-cube forms."""

    @pytest.mark.parametrize("L", [3, 4, 5])
    def test_four_corners(self, L):
        mu = _four_corners(L)
        got = ad_regularity_check(mu)
        assert got == regularity_ref(mu)
        assert marstrand_average(mu, L).to_json() == marstrand_ref(mu, L).to_json()
        for theta in (0.0, 0.7, math.pi - 1e-12):
            rec = multiscale_check(mu, Direction(theta), 2)
            want = multiscale_ref(mu, Direction(theta), 2)
            assert rec.results["lhs"] == want.results["lhs"]
            assert rec.results["rhs_sum"] == pytest.approx(want.results["rhs_sum"], rel=1e-12)
            assert [a.status for a in rec.assertions] == ["pass"]

    @pytest.mark.parametrize("m, rhs", [
        (1, "0x1.22092711daf75p-1"), (2, "0x1.820e4e8d4214cp-1"),
        (3, "0x1.5a33a14aa6345p-1"), (5, "0x1.3be4f4094ad63p-1"),
    ])
    def test_multiscale_four_corners_level_6_bit_for_bit(self, m, rhs):
        # the blow-up sums at theta = 0.7, pinned to the last bit: the cube
        # ids read off the sorted pieces must group them as a regrouping of
        # the cube columns would
        rec = multiscale_check(_four_corners(6), Direction(0.7), m)
        assert rec.results["rhs_sum"] == float.fromhex(rhs)
        assert rec.results["lhs"] == float.fromhex("0x1.b81d6b1278c79p-1")

    @settings(max_examples=60, deadline=None)
    @given(_measures())
    def test_regularity(self, mu):
        # the tree adds cube masses in another order than the reference's
        # BLAS matrix-vector product, so the ball masses may round differently
        _same_report(ad_regularity_check(mu), regularity_ref(mu), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_measures(), st.integers(1, 8), st.floats(1.0, 200.0))
    def test_marstrand(self, mu, m, A):
        m = min(m, mu.level)
        assert marstrand_average(mu, m, A=A).to_json() == marstrand_ref(mu, m, A=A).to_json()

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(st.floats(0.5, 1.0, exclude_max=True), st.just(math.nan)))
    def test_marstrand_rejects_a_regularity_constant_below_1(self, A):
        # r/A <= mu(B) <= A r has no solution with A < 1
        with pytest.raises(InvalidParameterError, match="at least 1"):
            marstrand_average(_four_corners(3), 3, A=A)

    @settings(max_examples=60, deadline=None)
    @given(_measures().filter(lambda mu: mu.level >= 2), _THETAS, st.integers(1, 7))
    def test_multiscale(self, mu, theta, m):
        m = min(m, mu.level - 1)
        rec = multiscale_check(mu, Direction(theta), m)
        want = multiscale_ref(mu, Direction(theta), m)
        assert rec.results["lhs"] == want.results["lhs"]
        assert rec.results["rhs_sum"] == pytest.approx(want.results["rhs_sum"], rel=1e-12, abs=0)
        assert [a.status for a in rec.assertions] == [a.status for a in want.assertions]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(27, 62))
    def test_regularity_beyond_exact_squares(self, seed, level):
        # Above level 26 the squared distances round, and above 52 the
        # centers do; the column window must still drop only columns whose
        # tested d^2 < r^2 is false.
        mu = clustered_measure(np.random.default_rng(seed), level, 48)
        _same_report(ad_regularity_check(mu), regularity_ref(mu), rel=1e-12)


class TestRegularityTree:
    """Cases of the dyadic-tree sweep in `ad_regularity_check` that the
    random measures rarely reach."""

    @settings(max_examples=60, deadline=None)
    @given(_measures())
    def test_counts_are_the_occupied_cubes(self, mu):
        counts = ad_regularity_check(mu).per_level_counts
        assert counts == {j: len(mu.coarsen(j)[0]) for j in range(mu.level + 1)}

    @pytest.mark.parametrize("level, j", [(1, 1), (5, 2), (12, 7), (26, 1), (26, 13), (26, 26)])
    def test_an_atom_at_exactly_the_radius_is_outside_the_ball(self, level, j):
        # Two atoms 2^-j apart; the light one's open ball of radius 2^-j
        # holds only itself, so r / mu(B) = 2^-j / 2^-(j+2) = 4.  Counting
        # the heavy atom there would give at most 2.
        light = 2.0 ** -(j + 2)
        mu = DyadicMeasure(2, level, [(0, 0), (0, 1 << (level - j))], [light, 1.0 - light])
        report = ad_regularity_check(mu)
        assert report.A_lower == 4.0
        assert report == regularity_ref(mu)

    @pytest.mark.parametrize("level", [1, 3, 5, 8])
    def test_a_full_row_ties_at_every_radius(self, level):
        # The row's centers are k 2^-level apart.  From an end the open ball
        # of radius 2^-j holds 2^(level-j) atoms, mass exactly 2^-j; from the
        # middle it holds 2^(level-j+1) - 1.  Closed balls would reach 3 r.
        side = 1 << level
        mu = DyadicMeasure(2, level, [(i, 0) for i in range(side)], np.full(side, 1.0 / side))
        report = ad_regularity_check(mu)
        assert (report.A_lower, report.A_upper) == (1.0, 2.0 - 2.0 ** (1 - level))
        assert report == regularity_ref(mu)

    @pytest.mark.parametrize("level", [0, 5, 62])
    def test_a_single_atom(self, level):
        mu = DyadicMeasure(2, level, [((1 << level) - 1, 0)], [1.0])
        report = ad_regularity_check(mu)
        assert (report.A_lower, report.A_upper) == (1.0, 2.0**level)
        assert report.per_level_counts == {j: 1 for j in range(level + 1)}
        assert report == regularity_ref(mu)

    def test_a_full_grid(self):
        # every cube of every level occupied: the deepest frontiers
        rng = np.random.default_rng(5)
        side = 1 << 5
        mass = rng.random(side * side) + 1e-3
        mu = DyadicMeasure(2, 5, [(i, j) for i in range(side) for j in range(side)],
                           mass / mass.sum())
        _same_report(ad_regularity_check(mu), regularity_ref(mu), rel=1e-12)

    def test_four_corners_level_6(self):
        mu = _four_corners(6)
        assert ad_regularity_check(mu) == regularity_ref(mu)

    def test_four_corners_level_7(self):
        report = ad_regularity_check(_four_corners(7))
        assert (report.A_lower, report.A_upper) == (2.0, 1.0)
        assert report.per_level_counts == {j: 4 ** ((j + 1) // 2) for j in range(15)}


def _bins_ref(x, y, e, level):
    """`_projected_bins` as floor(w 2^level) with w = (t - offset)/2."""
    c, s = e.unit
    t = x * c + y * s
    w = (t - min(0.0, math.cos(e.theta))) * 0.5
    return np.floor(w * 2.0**level).astype(np.int64)


_EDGE_THETAS = [0.0, float(np.nextafter(math.pi / 2, -math.inf)),
                float(np.nextafter(math.pi / 2, math.inf)), math.pi - 1e-12,
                float(np.nextafter(math.pi, 0.0))]


class TestExactShortcuts:
    """The exponent-read annulus count and the one-scaling projected bins
    against the searchsorted and floor expressions they stand for."""

    def test_annulus_counts_the_radii_above_the_distance(self):
        powers = [4.0**-j for j in range(64)]
        d2 = np.array([0.0, 5e-324, 2.0**-1022, 1.0, 2.0]
                      + [v for q in powers
                         for v in (np.nextafter(q, 0.0), q, np.nextafter(q, math.inf))])
        for n in range(63):
            ascending = (4.0 ** -np.arange(n + 1))[::-1]
            want = n + 1 - np.searchsorted(ascending, d2, "right")
            assert np.array_equal(_annulus(d2, n), want), n

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 62),
           st.one_of(st.sampled_from(_EDGE_THETAS), st.floats(0.0, math.pi, exclude_max=True)),
           st.data())
    def test_projected_bins_are_the_floor_of_the_similarity(self, level, theta, data):
        top = (1 << level) - 1
        corners = [(0, 0), (0, top), (top, 0), (top, top)]
        drawn = data.draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)),
                                   max_size=30))
        idx = np.unique(np.array(corners + drawn, dtype=np.int64), axis=0)
        mu = DyadicMeasure(2, level, idx, np.full(len(idx), 1.0 / len(idx)))
        x, y = mu.centers().T
        e = Direction(theta)
        got = _projected_bins(x, y, e, level)
        assert np.array_equal(got, _bins_ref(x, y, e, level))
        assert 0 <= got.min() and got.max() < 2**level


class TestBlowUp:
    @settings(max_examples=50, deadline=None)
    @given(_measures(), st.data())
    def test_identities(self, mu, data):
        k = data.draw(st.integers(0, mu.level))
        q = data.draw(st.sampled_from(mu.coarsen(k)[0].tolist()))
        piece = blow_up_ref(mu, q, k)
        assert piece.level == mu.level - k
        assert abs(piece.mass.sum() - 1.0) <= MASS_TOL

    @pytest.mark.parametrize("mu, q", [
        (DyadicMeasure(1, 4, [1, 5, 9], [0.25, 0.25, 0.5]), 0),
        (_four_corners(2), (0, 0)),
    ])
    def test_level_zero_is_the_measure(self, mu, q):
        piece = blow_up_ref(mu, q, 0)
        assert piece.level == mu.level
        assert np.array_equal(piece.idx, mu.idx)
        assert np.abs(piece.mass - mu.mass).max() <= MASS_TOL

    @settings(max_examples=30, deadline=None)
    @given(_measures().filter(lambda mu: mu.level >= 2), _THETAS, st.integers(1, 7))
    def test_weighted_blow_up_entropies_sum_to_the_multiscale_check(self, mu, theta, m):
        m = min(m, mu.level - 1)
        e = Direction(theta)
        total = 0.0
        for k in range(mu.level // m):
            cubes, weights = mu.coarsen(k * m)
            for q, w in zip(cubes, weights):
                total += w * entropy(project_measure(blow_up_ref(mu, q, k * m), e, m), m).normalized
        rhs = (m / mu.level) * total
        assert multiscale_check(mu, e, m).results["rhs_sum"] == pytest.approx(rhs, rel=1e-12, abs=0)
        assert multiscale_ref(mu, e, m).results["rhs_sum"] == rhs


class TestAdregDirections:
    P_LIST = [2, 3, 4, 6, 8, 12, 16]

    def test_each_direction_is_projected_once(self, monkeypatch):
        # the package's `entropy` attribute is the function, not the module
        module = importlib.import_module("projlab.entropy")
        calls = []
        real = module._project_coords

        def spy(xy, e):
            calls.append(e.theta)
            return real(xy, e)

        monkeypatch.setattr(module, "_project_coords", spy)
        rec = theorem_main2_experiment(8, [2, 3, 4, 8, 16], 0.75)
        assert len(calls) == len(set(calls)) == 18
        assert rec.results["table"][0]["average"] == 256.0

    def test_table_matches_a_projection_per_grid_point(self):
        rec = theorem_main2_experiment(5, self.P_LIST, 0.75)
        ps = gen_four_corners(5, Scale(10))
        for row, p in zip(rec.results["table"], self.P_LIST):
            total = sum(projections.project(ps, e).covering_number for e in direction_grid(p))
            assert row["average"] == total / p
        assert [a.status for a in rec.assertions] == ["pass"]

    @pytest.mark.parametrize("size, L", [("tiny", 3), ("full", 6)])
    def test_benchmark_tables(self, size, L):
        expected = json.loads(EXPECTED.read_text())[size]["entropy"]["adreg_table"]
        rec = theorem_main2_experiment(L, [2, 8, 16], 0.75)
        assert json.loads(rec.to_json())["results"]["table"] == expected
        assert [a.status for a in rec.assertions] == ["pass"]


class TestOversizedGridsAreRefusedFirst:
    """A grid of more than MAX_DIRECTIONS directions is refused before any
    work that scales with the measure or the set."""

    def _spy(self, monkeypatch, name):
        module = importlib.import_module("projlab.entropy")
        calls = []
        real = getattr(module, name)

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_marstrand_before_the_regularity_sweep(self, monkeypatch):
        calls = self._spy(monkeypatch, "ad_regularity_check")
        mu = DyadicMeasure(2, 23, [(0, 0), (5, 7)], [0.5, 0.5])
        with pytest.raises(InvalidParameterError, match=f"p={2**23} is above 2\\^22"):
            marstrand_average(mu, 23)
        assert calls == []

    @pytest.mark.parametrize("p_list, message", [
        ([2, 2**23], f"p={2**23} is above 2\\^22"),
        ([0], "p=0 must be >= 1"),
    ])
    def test_adreg_before_the_four_corner_set(self, monkeypatch, p_list, message):
        calls = self._spy(monkeypatch, "gen_four_corners")
        with pytest.raises(InvalidParameterError, match=message):
            theorem_main2_experiment(6, p_list, 0.75)
        assert calls == []
