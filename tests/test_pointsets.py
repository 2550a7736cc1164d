import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parser_text
from projlab import (
    DyadicMeasure,
    InvalidParameterError,
    LatticePointSet,
    ParamTriple,
    ParseError,
    Scale,
    extract_delta_one_set,
    gen_four_corners,
    gen_grid_example,
    gen_segment,
    grid_parameters,
    read_dmeas,
    read_pset,
    write_dmeas,
    write_pset,
)
from projlab.pointsets import MAX_POINTS, GridSpec, _check_point_count


class TestSegment:
    def test_n0(self):
        ps = gen_segment(Scale(0))
        assert len(ps) == 1 and tuple(ps.points[0]) == (0, 0)

    def test_n3(self):
        ps = gen_segment(Scale(3))
        assert len(ps) == 8
        assert set(ps.points[:, 1]) == {0}
        assert list(ps.points[:, 0]) == list(range(8))

    def test_n10(self):
        ps = gen_segment(Scale(10))
        assert len(ps) == 1024 and (ps.points[:, 1] == 0).all()


class TestFourCorners:
    def test_one_step(self):
        ps = gen_four_corners(1, Scale(2))
        assert sorted(map(tuple, ps.points)) == [(0, 0), (0, 3), (3, 0), (3, 3)]

    def test_min_gap_level2(self):
        ps = gen_four_corners(2, Scale(4))
        assert len(ps) == 16
        xy = ps.points * ps.scale.delta
        gaps = [
            math.dist(xy[i], xy[j])
            for i in range(len(xy))
            for j in range(i + 1, len(xy))
        ]
        assert min(gaps) == pytest.approx(3 * 4.0**-2)

    def test_cardinality(self):
        assert len(gen_four_corners(3, Scale(6))) == 64

    def test_lattice_too_coarse(self):
        with pytest.raises(InvalidParameterError):
            gen_four_corners(3, Scale(5))

    @pytest.mark.parametrize("L", range(1, 7))
    def test_functional_counts(self, L):
        # x takes 2^L values, x+y takes 3^L values (brute force on integers)
        ps = gen_four_corners(L, Scale(2 * L))
        u, v = ps.points[:, 0], ps.points[:, 1]
        assert len(set(u.tolist())) == 2**L
        assert len(set((u + v).tolist())) == 3**L


class TestGridExample:
    def test_flagship_parameters(self):
        params = ParamTriple(Scale(16), Fraction(3, 4), 12)
        spec = grid_parameters(params)
        assert (spec.m, spec.n_g) == (4, 4096)
        assert spec.h == Fraction(1, 2**14)
        ps = gen_grid_example(params)
        assert len(ps) == 4 * 4096 * 5
        # columns at k * 2^14, five samples each
        xs = sorted(set(ps.points[:, 0].tolist()))
        assert xs == sorted(k * 2**14 + j for k in range(4) for j in range(5))

    def test_single_row_degenerate(self):
        # s = 1/2, r = delta: the construction degenerates to the full segment
        params = ParamTriple(Scale(8), Fraction(1, 2), 8)
        spec = grid_parameters(params)
        assert spec.n_g == 1 and spec.m == 16
        ps = gen_grid_example(params)
        assert (ps.points[:, 1] == 0).all()
        assert list(ps.points[:, 0]) == list(range(256))

    def test_r_equals_delta_s(self):
        # boundary r = delta^s accepted
        params = ParamTriple(Scale(16), Fraction(3, 4), 16)
        spec = grid_parameters(params)
        assert (spec.m, spec.n_g) == (16, 256)

    def test_non_integral_m_rejected(self):
        params = ParamTriple(Scale(12), Fraction(3, 4), 11)
        with pytest.raises(InvalidParameterError, match="not a positive integer"):
            grid_parameters(params)
        with pytest.raises(InvalidParameterError, match="m ="):
            gen_grid_example(params)

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.integers(0, 62),
        s=st.fractions(Fraction(1, 2), 1, max_denominator=40).filter(lambda s: s < 1),
        data=st.data(),
    )
    def test_exponents_match_their_rational_definitions(self, a, s, data):
        b = data.draw(st.integers(0, a))
        e_m = Fraction(a + b, 2) - a * s
        e_n = 2 * a * s - b
        params = ParamTriple(Scale(a), s, b)
        if e_m.denominator != 1 or e_m < 0:
            message = f"m = delta^(s-1/2) r^(-1/2) = 2^({e_m}) is not a positive integer"
        elif e_n.denominator != 1 or e_n < 0:
            message = f"n_g = delta^(-2s) r = 2^({e_n}) is not a positive integer"
        else:
            assert grid_parameters(params) == GridSpec(int(e_m), int(e_n))
            return
        with pytest.raises(InvalidParameterError) as exc:
            grid_parameters(params)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "a,s,b",
        [(16, Fraction(3, 4), 12), (12, Fraction(3, 4), 10), (10, Fraction(1, 2), 6)],
    )
    def test_gap_identities(self, a, s, b):
        # vertical gap 1/(m n_g) equals h; horizontal gap 1/m >= diam(G_2)
        spec = grid_parameters(ParamTriple(Scale(a), s, b))
        assert Fraction(1, spec.m * spec.n_g) == spec.h
        diam_G2 = (spec.n_g - 1) * spec.h
        assert Fraction(1, spec.m) >= diam_G2


def brute_frostman_ok(pts: np.ndarray, n: int, C0: float) -> bool:
    for j in range(n + 1):
        shift = n - j
        _, counts = np.unique(pts >> shift, axis=0, return_counts=True)
        if counts.max() > C0 * 2 ** (n - j):
            return False
    return True


def brute_max_ratio(pts: np.ndarray, n: int) -> float:
    best = 0.0
    for j in range(n + 1):
        shift = n - j
        _, counts = np.unique(pts >> shift, axis=0, return_counts=True)
        best = max(best, counts.max() * 2.0 ** (j - n))
    return best


class TestExtractDeltaOne:
    def test_single_point(self):
        ps = LatticePointSet(Scale(4), np.array([[5, 9]]))
        out, ratio = extract_delta_one_set(ps, 1.0)
        assert len(out) == 1
        assert ratio == 1.0 == brute_max_ratio(out.points, 4)

    def test_segment_kept_whole(self):
        ps = gen_segment(Scale(10))
        out, ratio = extract_delta_one_set(ps, 4.0)
        assert len(out) == 1024  # already Frostman with constant 1
        assert len(out) >= 512
        assert ratio <= 1.0 + 1e-12
        assert ratio == brute_max_ratio(out.points, 10)

    def test_cluster_capped(self):
        # dense 4x4 cluster plus the bottom-row segment at n = 4, C0 = 1.
        # Hand-run of the lexicographic greedy: the cluster's level-2 square
        # admits its first column (budget 4); the unit-square budget (16)
        # then cuts the segment after u = 11.
        n = 4
        cluster = [(u, v) for u in range(4, 8) for v in range(8, 12)]
        segment = [(u, 0) for u in range(16)]
        ps = LatticePointSet(Scale(n), np.array(cluster + segment))
        out, ratio = extract_delta_one_set(ps, 1.0)
        kept = set(map(tuple, out.points))
        assert kept == {(4, v) for v in range(8, 12)} | {(u, 0) for u in range(12)}
        assert brute_frostman_ok(out.points, n, 1.0)
        assert ratio == brute_max_ratio(out.points, n)

    def test_random_sets_exhaustive_condition(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(3, 8))
            count = int(rng.integers(1, 2 ** (2 * n - 1)))
            flat = rng.choice(4**n, size=count, replace=False)
            pts = np.column_stack([flat >> n, flat & ((1 << n) - 1)])
            C0 = float(rng.choice([1.0, 2.0, 4.0]))
            out, ratio = extract_delta_one_set(LatticePointSet(Scale(n), pts), C0)
            assert brute_frostman_ok(out.points, n, C0)
            assert ratio == brute_max_ratio(out.points, n)
            assert ratio <= C0 + 1e-12

    def test_greedy_is_lexicographic_deterministic(self):
        pts = np.array([[3, 3], [0, 0], [1, 1], [2, 2]])
        ps = LatticePointSet(Scale(2), pts)
        out1, _ = extract_delta_one_set(ps, 1.0)
        out2, _ = extract_delta_one_set(ps, 1.0)
        assert np.array_equal(out1.points, out2.points)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            extract_delta_one_set(gen_segment(Scale(2)), 0.5)

    @pytest.mark.parametrize("c0", [float("nan"), float("inf")])
    def test_non_finite_capacity_is_refused(self, c0):
        with pytest.raises(InvalidParameterError, match="finite"):
            extract_delta_one_set(gen_segment(Scale(2)), c0)


class TestPsetFormat:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(0, 12))
            count = int(rng.integers(1, min(200, 4**n) + 1)) if n else 1
            flat = rng.choice(4**n, size=count, replace=False) if n else np.array([0])
            pts = np.column_stack([flat >> n, flat & ((1 << n) - 1)])
            ps = LatticePointSet(Scale(n), pts)
            text = io.StringIO()
            write_pset(ps, text)
            back = read_pset(io.StringIO(text.getvalue()))
            assert back.scale == ps.scale
            assert np.array_equal(back.points, ps.points)
            # and the re-serialization is byte identical
            text2 = io.StringIO()
            write_pset(back, text2)
            assert text2.getvalue() == text.getvalue()

    def test_header_format(self):
        ps = gen_four_corners(1, Scale(2))
        text = io.StringIO()
        write_pset(ps, text)
        lines = text.getvalue().split("\n")
        assert lines[0] == "PSET v1 n=2 count=4"
        assert lines[1] == "0 0"
        assert text.getvalue().endswith("\n")

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError, match="line 1"):
            read_pset(io.StringIO("WRONG v1 n=2 count=1\n0 0\n"))
        with pytest.raises(ParseError, match="line 3"):
            read_pset(io.StringIO("PSET v1 n=2 count=2\n0 0\n1\n"))
        with pytest.raises(ParseError, match="line 2"):
            read_pset(io.StringIO("PSET v1 n=2 count=1\na b\n"))

    def test_negative_count_is_a_parse_error(self):
        with pytest.raises(ParseError, match="line 1"):
            read_pset(io.StringIO("PSET v1 n=2 count=-1\n"))

    @pytest.mark.parametrize("text, line", [
        ("PSET v1 n=2 count=1\n9223372036854775808 0\n", 2),
        ("PSET v1 n=2 count=2\n0 0\n1 -99999999999999999999\n", 3),
        ("PSET v1 n=2 count=99999999999999999999\n0 0\n", 1),
        ("PSET v1 n=2 count=4611686018427387904\n0 0\n", 1),
    ])
    def test_integers_beyond_64_bits_are_parse_errors(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}:"):
            read_pset(io.StringIO(text))

    @settings(max_examples=300, deadline=None)
    @given(parser_text("PSET v1 n={} count={}", second=st.one_of(
        st.integers(0, 6), st.integers(-(2**80), 2**80))))
    def test_any_text_parses_or_raises_a_parse_error(self, text):
        try:
            read_pset(io.StringIO(text))
        except ParseError:
            pass

    @pytest.mark.parametrize("text, line", [
        ("PSET v1 n=2 count=3\n0 0\n1 1\n9 9\n", 4),
        ("PSET v1 n=2 count=3\n0 0\n1 -1\n4 0\n", 3),
        ("PSET v1 n=63 count=1\n0 0\n", 1),
    ])
    def test_off_lattice_points_are_reported_on_their_line(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}:"):
            read_pset(io.StringIO(text))

    def test_lines_after_count_are_a_parse_error(self):
        with pytest.raises(ParseError, match="line 4"):
            read_pset(io.StringIO("PSET v1 n=2 count=1\n0 0\n\n1 1\n"))
        # blank lines after the points are fine
        ps = read_pset(io.StringIO("PSET v1 n=2 count=1\n0 0\n\n  \n"))
        assert len(ps) == 1

    def test_blank_lines_anywhere_after_the_header_are_skipped(self):
        # the count counts the point lines only, as DMEAS skips blank lines
        ps = read_pset(io.StringIO("PSET v1 n=2 count=2\n\n0 0\n\n \t\n1 1\n\n"))
        assert ps.points.tolist() == [[0, 0], [1, 1]]
        # a file that ends early fails on the line after its last one
        with pytest.raises(ParseError, match="^line 5: .*1 of 2 points"):
            read_pset(io.StringIO("PSET v1 n=2 count=2\n\n0 0\n\n"))
        with pytest.raises(ParseError, match="^line 2: "):
            read_pset(io.StringIO("PSET v1 n=2 count=1\n"))


class TestPointBudget:
    @pytest.mark.parametrize("make", [
        lambda: gen_segment(Scale(62)),
        lambda: gen_four_corners(31, Scale(62)),
        lambda: gen_grid_example(ParamTriple(Scale(40), Fraction(3, 4), 20)),  # 2^41
    ], ids=["segment", "four-corners", "grid"])
    def test_sets_beyond_max_points_are_refused_before_allocating(self, make):
        with pytest.raises(InvalidParameterError, match="points, above 2\\^26"):
            make()

    def test_the_bound_itself_is_allowed(self):
        _check_point_count(MAX_POINTS, "a set")
        with pytest.raises(InvalidParameterError):
            _check_point_count(MAX_POINTS + 1, "a set")

    def test_the_bound_peaks_within_4_gib_at_64_bytes_a_point(self):
        # every path's tracemalloc peak is held below 64 B a point here
        assert MAX_POINTS * 64 <= 4 * 2**30

    def test_a_pset_count_beyond_the_bound_names_the_header(self):
        with pytest.raises(ParseError, match="line 1:"):
            read_pset(io.StringIO(f"PSET v1 n=2 count={MAX_POINTS + 1}\n0 0\n"))

    def test_reading_peaks_below_64_bytes_a_point(self):
        # int64 coordinates as they are read, then LatticePointSet's sort
        n, count = 12, 2**16
        flat = np.random.default_rng(3).choice(4**n, size=count, replace=False).tolist()
        text = io.StringIO(f"PSET v1 n={n} count={count}\n"
                           + "".join(f"{f >> n} {f & (2**n - 1)}\n" for f in flat))
        tracemalloc.start()
        try:
            ps = read_pset(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ps) == count
        assert peak / count < 64

    # peaks measured at about 40, 56 and 41 B a point
    @pytest.mark.parametrize("make", [
        lambda: gen_segment(Scale(16)),
        lambda: gen_four_corners(8, Scale(16)),
        lambda: gen_grid_example(ParamTriple(Scale(16), Fraction(3, 4), 12)),  # 81,920 points
    ], ids=["segment", "four-corners", "grid"])
    def test_generating_peaks_below_64_bytes_a_point(self, make):
        tracemalloc.start()
        try:
            ps = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(ps) < 64


def _fault(draw, row: list[str], n_index: int, side: int, earlier: list[list[str]]):
    """`row` with one fault drawn: a wrong field count, a field that is not a
    decimal integer in ASCII digits, an index outside [0, side), and for DMEAS
    rows (which end in a mass) a mass that `float` reads but the format does
    not, a negative or non-finite mass or the index of an earlier row."""
    faults = ["fields", "number", "range"]
    if len(row) > n_index:
        faults += ["mass", "negative", "non-finite"] + (["repeat"] if earlier else [])
    fault = draw(st.sampled_from(faults))
    k = draw(st.integers(0, n_index - 1))
    row = list(row)
    if fault == "fields":
        return row[:-1] if draw(st.booleans()) else row + ["0"]
    if fault == "number":
        # `int` reads the last four: a sign, '_' and non-ASCII digits
        row[k] = draw(st.sampled_from(["x", "1.5", "1e3", "0x1", "--1",
                                       "+1", "1_0", "\u0663", "\uff11"]))
    elif fault == "mass":
        row[-1] = draw(st.sampled_from(["0.1_25", "1_0", "\u0660.5", "\u0661"]))
    elif fault == "range":
        row[k] = str(draw(st.one_of(st.integers(side, 2**70), st.integers(-(2**70), -1))))
    elif fault == "negative":
        row[-1] = repr(draw(st.floats(max_value=-1e-300, allow_infinity=False)))
    elif fault == "non-finite":
        row[-1] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    else:
        row[:n_index] = draw(st.sampled_from(earlier))[:n_index]
    return row


@st.composite
def _one_bad_row(draw):
    """(reader, text, line) for a valid PSET or DMEAS text, blank lines
    inserted where the format allows them, with the row on `line` made bad."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 8))
        pts = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                                      st.integers(0, (1 << n) - 1)), min_size=1, max_size=8))
        header = f"PSET v1 n={n} count={len(pts)}"
        rows = [[str(u), str(v)] for u, v in pts]
        reader, n_index, side = read_pset, 2, 1 << n
    else:
        dim = draw(st.sampled_from([1, 2]))
        level = draw(st.integers(1, 6))
        cubes = draw(st.lists(st.tuples(*[st.integers(0, (1 << level) - 1)] * dim),
                              min_size=1, max_size=8, unique=True))
        text = io.StringIO()
        write_dmeas(DyadicMeasure(dim, level, cubes, np.full(len(cubes), 1 / len(cubes))), text)
        header, *lines = text.getvalue().splitlines()
        rows = [line.split() for line in lines]
        reader, n_index, side = read_dmeas, dim, 1 << level
    bad = draw(st.integers(0, len(rows) - 1))
    rows[bad] = _fault(draw, rows[bad], n_index, side, rows[:bad])
    blank = st.sampled_from(["", " ", "\t "])
    body = []
    for i, row in enumerate(rows):
        body += draw(st.lists(blank, max_size=2))
        if i == bad:
            line = len(body) + 2
        body.append(" ".join(row))
    body += draw(st.lists(blank, max_size=2))
    return reader, "\n".join([header, *body]) + "\n", line


class TestReadersNameTheBadRow:
    @settings(max_examples=400, deadline=None)
    @given(_one_bad_row())
    def test_one_bad_row_is_named_by_its_line(self, case):
        reader, text, line = case
        with pytest.raises(ParseError) as exc:
            reader(io.StringIO(text))
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("text, line", [
        # a repeated index before a non-finite mass, and the other way round
        ("DMEAS v1 d=1 n=2\n0 0.5\n0 0.25\n1 nan\n", 3),
        ("DMEAS v1 d=1 n=2\n1 nan\n0 0.5\n0 0.25\n", 2),
        # an index outside the grid before a negative mass
        ("DMEAS v1 d=2 n=2\n0 4 0.5\n\n1 1 -0.5\n", 2),
    ])
    def test_the_first_bad_row_in_file_order_is_named(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            read_dmeas(io.StringIO(text))

    @pytest.mark.parametrize("reader, text, line", [
        # each file used to parse: `int` and `float` read every field, and
        # the header split at any whitespace; the first gave the point
        # (10, 3), the fifth a level-3 measure
        (read_pset, "PSET v1 n=+8 count=0_1\n1_0 \u0663\n", 1),
        (read_pset, "PSET\u2003v1 n=8 count=1\n1 0\n", 1),
        (read_pset, "PSET v1 n=8 count=1\n1_0 \u0663\n", 2),
        (read_pset, "PSET v1 n=8 count=2\n1 2\n+1 3\n", 3),
        (read_dmeas, "DMEAS v1 d=+1 n=0_3\n0 1\n", 1),
        (read_dmeas, "DMEAS v1 d=\u0661 n=3\n0 1\n", 1),
        (read_dmeas, "DMEAS v1 d=1 n=3\n0 0.5\n\n\u0661 0.5\n", 4),
        (read_dmeas, "DMEAS v1 d=1 n=3\n0 0.5\n1 0.2_5\n2 0.25\n", 3),
    ], ids=["pset-header", "pset-header-space", "pset-row", "pset-plus", "dmeas-header",
            "dmeas-digit-d", "dmeas-index", "dmeas-mass"])
    def test_text_is_ascii_with_decimal_integers(self, reader, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            reader(io.StringIO(text))
