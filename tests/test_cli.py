"""In-process runs of every `projlab` subcommand on small inputs."""

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parser_text, raw_projection_ref
from projlab import (
    DyadicMeasure,
    ParamTriple,
    ParseError,
    Scale,
    build_tubes,
    compute_E_s,
    covering_number_1d,
    from_pointset,
    gen_four_corners,
    read_dmeas,
    read_pset,
    write_dmeas,
)
from projlab.cli import EXIT_ASSERTION, EXIT_INVALID, EXIT_IO, EXIT_OK, main
from projlab.records import record_from_dict

TRIPLE = ["--log2delta", "8", "--s", "3/4", "--log2r", "6"]
GOLDEN = Path(__file__).with_name("golden")
GOLDEN_GRID3 = GOLDEN / "grid3.pset"


def _run(argv, out):
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


@pytest.fixture
def grid3(tmp_path):
    path = tmp_path / "grid3.pset"
    assert main(["gen", "--shape", "grid3", *TRIPLE, "--out", str(path)]) == EXIT_OK
    return path


@pytest.fixture
def plane_measure(tmp_path):
    path = tmp_path / "plane.dmeas"
    with open(path, "w") as f:
        write_dmeas(from_pointset(gen_four_corners(3, Scale(6))), f)
    return path


@pytest.fixture
def line_measure(tmp_path):
    path = tmp_path / "line.dmeas"
    idx = np.arange(0, 64, 2)
    with open(path, "w") as f:
        write_dmeas(DyadicMeasure(1, 6, idx, np.full(len(idx), 1 / len(idx))), f)
    return path


def test_gen(tmp_path, capsys):
    path = tmp_path / "seg.pset"
    assert main(["gen", "--shape", "segment", "--n", "5", "--out", str(path)]) == EXIT_OK
    assert "count=32" in capsys.readouterr().out
    assert path.read_text().startswith("PSET")


def test_project(grid3, tmp_path):
    payload = _run(["project", "--in", str(grid3), "--theta", "0"], tmp_path / "p.json")
    assert payload["name"] == "project"
    assert payload["params"] == {"theta": 0.0, "width": 2.0**-8}
    assert payload["results"]["covering_number"] >= 1


def test_project_at_negative_zero_prints_the_bytes_of_zero(grid3, tmp_path):
    # "=": argparse reads a separate "-0" as an option
    written = []
    for theta in ("0", "-0"):
        out = tmp_path / f"p{theta}.json"
        assert main(["project", "--in", str(grid3), f"--theta={theta}",
                     "--out", str(out)]) == EXIT_OK
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert math.copysign(1.0, json.loads(written[1])["params"]["theta"]) == 1.0


def test_incidence_on_an_empty_set_is_invalid(tmp_path, capsys):
    path = tmp_path / "empty.pset"
    path.write_text("PSET v1 n=8 count=0\n")
    argv = ["incidence", "--in", str(path), *TRIPLE, "--out", "-"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "point set is empty" in err


@pytest.mark.parametrize("argv", [
    ["project", "--in", str(GOLDEN_GRID3), "--theta", "0", "--width", "0.01"],
    ["entropy", "marstrand", "--in", str(GOLDEN / "corners5.dmeas"), "--m", "3", "--A", "2"],
    ["entropy", "marstrand", "--in", str(GOLDEN / "corners5.dmeas"), "--m", "3",
     "--s-list", "0.5,0.75"],
], ids=["project-width", "marstrand-A", "marstrand-s-list"])
def test_retired_option_is_a_usage_error(capsys, argv):
    # the width is the set's own delta, A is measured, the s are MARSTRAND_S
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", "-"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments" in err
    assert "Traceback" not in err


# every float option, after the other options its command needs
FLOAT_OPTIONS = [
    (["adreg", "--level", "3", "--plist", "2,4"], "--s"),
    (["project", "--in", "unused.pset"], "--theta"),
    (["entropy", "multiscale", "--in", "unused.dmeas", "--m", "2"], "--theta"),
    (["entropy", "cover", "--in", "unused.dmeas"], "--s"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity", "1/0", "1e400"])
@pytest.mark.parametrize("argv, option", FLOAT_OPTIONS,
                         ids=[f"{a[0]}-{a[1]}-{o}" for a, o in FLOAT_OPTIONS])
def test_non_finite_float_option_is_a_usage_error(capsys, argv, option, value):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{option}={value}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: not a" in err and "finite number" in err
    assert "Traceback" not in err


# finite values that would overflow a bound term or a threshold
@pytest.mark.parametrize("argv", [
    ["entropy", "cover", "--in", str(GOLDEN / "line.dmeas"), "--s", "400"],
], ids=["cover-s"])
def test_huge_finite_float_option_is_invalid(capsys, argv):
    assert main([*argv, "--out", "-"]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid parameters" in err


@pytest.mark.parametrize("s", ["abc", "1/0"])
def test_s_that_is_not_a_rational_is_a_usage_error(capsys, s):
    with pytest.raises(SystemExit) as exc:
        main(["sharpness", "--log2delta", "8", f"--s={s}", "--log2r", "6"])
    assert exc.value.code == 2
    assert "argument --s: not a rational" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--shape", "segment"], "segment needs --n"),
    (["--shape", "fourcorners", "--n", "6"], "fourcorners needs --level"),
    (["--shape", "grid3", "--log2delta", "8", "--s", "3/4"], "grid3 needs"),
])
def test_gen_without_the_options_its_shape_needs_is_invalid(tmp_path, capsys, argv, message):
    out_path = tmp_path / "unused.pset"
    assert main(["gen", *argv, "--out", str(out_path)]) == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["project", "--theta", "0", "--in"],
    ["entropy", "H", "--in"],
    ["report"],
])
def test_missing_input_file_is_an_io_error(tmp_path, capsys, argv):
    assert main([*argv, str(tmp_path / "missing"), "--out", "-"]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert "io error" in err


def test_failed_hard_assertion_exits_3(plane_measure, monkeypatch, capsys):
    # a conditional entropy that disagrees with H(fine) - H(coarse)
    monkeypatch.setattr("projlab.cli.conditional_entropy", lambda mu, fine, coarse: 99.0)
    argv = ["entropy", "cef", "--in", str(plane_measure), "--fine", "6", "--coarse", "3"]
    assert main([*argv, "--out", "-"]) == EXIT_ASSERTION
    out, err = capsys.readouterr()
    assert json.loads(out)["assertions"][0]["status"] == "fail"
    assert "hard assertion failed: conditional_entropy_identity" in err


def test_esets(grid3, tmp_path):
    rec = _run(["esets", "--in", str(grid3), *TRIPLE, "--sweep", "64"], tmp_path / "e.json")
    assert rec["params"]["sweep"] == 64


def test_esets_default_sweep_follows_log2delta(tmp_path):
    # a set at n = 6 swept at delta = 2^-8: the default grid is 4 * 2^8
    pset = tmp_path / "segment.pset"
    assert main(["gen", "--shape", "segment", "--n", "6", "--out", str(pset)]) == EXIT_OK
    rec = _run(["esets", "--in", str(pset), *TRIPLE], tmp_path / "e.json")
    assert rec["params"]["sweep"] == 1024


def test_esets_csv_rows_equal_the_sweep_table(grid3, tmp_path):
    csv_path = tmp_path / "e.csv"
    _run(["esets", "--in", str(grid3), *TRIPLE, "--sweep", "64", "--csv", str(csv_path)],
         tmp_path / "e.json")
    params = ParamTriple(Scale(8), Fraction(3, 4), 6)
    with open(grid3) as f:
        es = compute_E_s(read_pset(f), params, sweep=64)
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(es.sweep_thetas) == 64
    for row, th, cnt, ok in zip(rows, es.sweep_thetas, es.sweep_counts,
                                es.sweep_is_member):
        assert float(row["theta"]) == th  # .17g round-trips a float64
        assert int(row["covering_number"]) == cnt
        assert int(row["is_member"]) == ok
    assert any(int(r["is_member"]) for r in rows)
    assert not all(int(r["is_member"]) for r in rows)


def test_incidence(grid3, tmp_path):
    rec = _run(["incidence", "--in", str(grid3), *TRIPLE, "--sweep", "64"],
               tmp_path / "i.json")
    assert rec["results"]["incidences"] > 0


def test_incidence_default_sweep_follows_log2delta(tmp_path):
    # no --sweep: one tube family per member of the 4 * 2^8 grid
    rec = _run(["incidence", "--in", str(GOLDEN_GRID3), *TRIPLE], tmp_path / "i.json")
    with open(GOLDEN_GRID3) as f:
        ps = read_pset(f)
    es = compute_E_s(ps, ParamTriple(Scale(8), Fraction(3, 4), 6), sweep=1024)
    assert rec["results"]["incidences"] == len(ps) * len(es.members)


def test_incidence_tubes_are_delta_wide(tmp_path):
    # an n = 8 set at delta = 2^-6: the tubes are the sweep's 2^-6 covers
    argv = ["--log2delta", "6", "--s", "3/4", "--log2r", "4"]
    rec = _run(["incidence", "--in", str(GOLDEN_GRID3), *argv, "--sweep", "256"],
               tmp_path / "i.json")
    delta = 2.0**-6
    assert rec["results"]["delta"] == delta
    with open(GOLDEN_GRID3) as f:
        ps = read_pset(f)
    assert ps.scale.n == 8
    es = compute_E_s(ps, ParamTriple(Scale(6), Fraction(3, 4), 4), sweep=256)
    assert len(es.members) > 0
    assert rec["results"]["n_tubes"] == int(es.sweep_counts[es.sweep_is_member].sum())
    assert rec["results"]["incidences"] == len(ps) * len(es.members)
    fam = build_tubes(ps, es)
    assert fam.scale_delta == delta
    for d in es.members:
        vals = np.sort(raw_projection_ref(ps, d))
        assert len(fam.starts[d.theta]) == covering_number_1d(vals, delta)


def test_sharpness(tmp_path):
    rec = _run(["sharpness", *TRIPLE, "--skip-full-set"], tmp_path / "s.json")
    assert rec["results"]["covering_max_K"] is None


@pytest.mark.parametrize(
    "sub, args, key",
    [
        ("H", ["--m", "4"], "normalized"),
        ("cef", ["--fine", "6", "--coarse", "2"], "direct"),
        ("multiscale", ["--m", "2", "--theta", "0.7"], "slack"),
        ("marstrand", ["--m", "4"], "average_normalized_entropy"),
    ],
)
def test_entropy_plane(plane_measure, tmp_path, sub, args, key):
    rec = _run(["entropy", sub, "--in", str(plane_measure), *args], tmp_path / "h.json")
    assert key in rec["results"]


@pytest.mark.parametrize("sub, args, key", [
    ("H", [], "normalized"),
    ("cef", ["--fine", "6", "--coarse", "3"], "direct"),
])
def test_entropy_line(line_measure, tmp_path, sub, args, key):
    rec = _run(["entropy", sub, "--in", str(line_measure), *args], tmp_path / "h.json")
    assert key in rec["results"]


@pytest.mark.parametrize("sub, args, key", [
    ("H", ["--m", "0"], "raw_nats"),
    ("cef", ["--fine", "3", "--coarse", "3"], "direct"),
])
def test_zero_entropy_prints_positive_zero(plane_measure, tmp_path, sub, args, key):
    out = tmp_path / "zero.json"
    rec = _run(["entropy", sub, "--in", str(plane_measure), *args], out)
    assert rec["results"][key] == 0.0
    assert math.copysign(1.0, rec["results"][key]) == 1.0
    assert "-0.0" not in out.read_text()


def test_nan_mass_exits_with_a_parse_error(tmp_path, capsys):
    path = tmp_path / "nan.dmeas"
    path.write_text("DMEAS v1 d=1 n=2\n0 1\n1 nan\n")
    assert main(["entropy", "H", "--in", str(path), "--out", str(tmp_path / "h.json")]) == EXIT_IO
    assert "line 3" in capsys.readouterr().err


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(
    st.tuples(st.just("pset"), parser_text("PSET v1 n={} count={}",
                                           second=st.integers(0, 6))),
    st.tuples(st.just("dmeas"), parser_text("DMEAS v1 d={} n={}",
                                            st.sampled_from([1, 2]))),
))
def test_unreadable_input_exits_with_a_parse_error(tmp_path, capsys, kind_text):
    kind, text = kind_text
    path = tmp_path / f"input.{kind}"
    path.write_text(text)
    reader = read_pset if kind == "pset" else read_dmeas
    try:
        with open(path) as f:
            reader(f)
        want = (EXIT_OK, EXIT_INVALID)
    except ParseError:
        want = (EXIT_IO,)
    argv = (["project", "--in", str(path), "--theta", "0"] if kind == "pset"
            else ["entropy", "H", "--in", str(path), "--m", "0"])
    assert main(argv + ["--out", str(tmp_path / "out.json")]) in want
    capsys.readouterr()


def test_oversized_index_exits_with_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.dmeas"
    path.write_text("DMEAS v1 d=1 n=2\n99999999999999999999999 1\n")
    assert main(["entropy", "H", "--in", str(path), "--m", "1"]) == EXIT_IO
    assert "line 2" in capsys.readouterr().err


def test_entropy_blowup_is_a_usage_error(line_measure, capsys):
    # no subcommand exposes a blow-up: `entropy multiscale` takes them all itself
    with pytest.raises(SystemExit) as exc:
        main(["entropy", "blowup", "--in", str(line_measure), "--k", "1", "--i", "0"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid choice: 'blowup'" in err and "Traceback" not in err


def test_entropy_cover(line_measure, tmp_path):
    rec = _run(["entropy", "cover", "--in", str(line_measure), "--s", "0.8"],
               tmp_path / "c.json")
    assert rec["results"]["occupied"] == 32


def test_adreg(tmp_path):
    rec = _run(["adreg", "--level", "3", "--plist", "2,8", "--s", "0.75"],
               tmp_path / "a.json")
    assert rec["results"]["table"][0]["average"] == 8.0


def test_adreg_takes_s_as_a_fraction(tmp_path):
    argv = ["adreg", "--level", "3", "--plist", "2,3,8", "--out"]
    assert main([*argv, str(tmp_path / "fraction.json"), "--s", "3/4"]) == EXIT_OK
    assert main([*argv, str(tmp_path / "decimal.json"), "--s", "0.75"]) == EXIT_OK
    assert (tmp_path / "fraction.json").read_bytes() == (tmp_path / "decimal.json").read_bytes()


def test_adreg_averages_need_not_grow_with_p(tmp_path):
    # the average drops from p = 3 to p = 4, which the paper allows
    rec = _run(["adreg", "--level", "4", "--plist", "2,3,4,8", "--s", "0.75"],
               tmp_path / "a.json")
    averages = [row["average"] for row in rec["results"]["table"]]
    assert averages == pytest.approx([16.0, 448 / 3, 48.5, 121.25])
    assert rec["results"]["first_p_reaching_target"] == 3  # delta^-s = 64
    assert [a["status"] for a in rec["assertions"]] == ["pass"]


def test_adreg_prints_only_json_on_stdout(capsys):
    argv = ["adreg", "--level", "3", "--plist", "2,8", "--s", "0.75", "--out", "-"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out)["name"] == "four_corners_direction_average"
    assert "p=     2" in err


@pytest.mark.parametrize("level", ["-1", "32"])
def test_adreg_level_out_of_range_names_the_typed_level(capsys, level):
    argv = ["adreg", "--level", level, "--plist", "2", "--s", "0.75", "--out", "-"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert f"L={level} outside [0, 31]" in err


def test_adreg_regularity_runs_up_to_the_atom_cap(tmp_path):
    # the check runs up to 4^8 atoms, so at L = 7 and not at L = 9
    ran = _run(["adreg", "--level", "7", "--plist", "2", "--s", "0.75"],
               tmp_path / "ran.json")["results"]
    assert ran["A"] == 2.0
    assert "regularity_note" not in ran
    skipped = _run(["adreg", "--level", "9", "--plist", "2", "--s", "0.75"],
                   tmp_path / "skipped.json")["results"]
    assert skipped["A"] is None
    assert "limit of 65536" in skipped["regularity_note"]


@pytest.mark.parametrize("argv", [
    ["gen", "--shape", "segment", "--n", "62", "--out", "unused.pset"],
    ["gen", "--shape", "fourcorners", "--level", "16", "--out", "unused.pset"],
    ["adreg", "--level", "31", "--plist", "2", "--s", "0.75", "--out", "-"],
])
def test_point_counts_beyond_max_points_are_invalid(capsys, argv):
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "points, above 2^26" in err


def test_first_segment_over_the_point_budget_writes_nothing(tmp_path, capsys):
    # 2^27 points, the first segment level over MAX_POINTS = 2^26
    out = tmp_path / "segment.pset"
    assert main(["gen", "--shape", "segment", "--n", "27", "--out", str(out)]) == EXIT_INVALID
    assert not out.exists()
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"invalid parameters: the segment at n=27 has {2**27} points, above 2^26\n"


DEEP_K_MAX = ["sharpness", "--log2delta", "32", "--s", "1/2", "--log2r", "32", "--out", "-"]


def test_sharpness_at_deep_k_max_fails_its_slope_count(capsys):
    # k_max = 2^16 and two slopes, far below delta^-s (delta/r)^(1/2) / 64
    assert main([*DEEP_K_MAX, "--skip-full-set"]) == EXIT_ASSERTION
    rec = json.loads(capsys.readouterr().out)
    assert rec["results"]["slope_count"] == 2
    failed = [c["name"] for c in rec["assertions"] if c["status"] == "fail"]
    assert failed == ["slope_count_constant"]


def test_sharpness_at_deep_k_max_refuses_the_full_set(capsys):
    assert main(DEEP_K_MAX) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "points, above 2^26" in err


def test_slope_family_beyond_max_slopes_is_invalid(capsys):
    # k_max = 1 and l_exp = 38: 2^38 + 1 slopes
    argv = ["sharpness", "--log2delta", "62", "--s", "3/4", "--log2r", "47", "--out", "-"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "more than 2^22 slopes" in err


ABOVE_DELTA_S = ["sharpness", "--log2delta", "16", "--s", "3/4", "--log2r", "10", "--out", "-"]


def test_sharpness_exploratory_is_a_usage_error(capsys):
    # r > delta^s has no slope family, and no option runs a part of one there
    with pytest.raises(SystemExit) as exc:
        main([*ABOVE_DELTA_S, "--exploratory"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "unrecognized arguments: --exploratory" in err and "Traceback" not in err


def test_sharpness_above_delta_s_is_invalid(capsys):
    assert main(ABOVE_DELTA_S) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("invalid parameters: r = 2^-10 exceeds delta^s = 2^-(12): "
                   "slope family needs delta <= r <= delta^s\n")


@pytest.mark.parametrize("argv", [
    ["esets", "--in", str(GOLDEN_GRID3), "--log2delta", "30", "--s", "3/4", "--log2r", "24"],
    ["incidence", "--in", str(GOLDEN_GRID3), "--log2delta", "30", "--s", "3/4",
     "--log2r", "24"],
    ["esets", "--in", str(GOLDEN_GRID3), *TRIPLE, "--sweep", str(2**22 + 1)],
    ["adreg", "--level", "2", "--plist", f"2,{2**23}", "--s", "0.75"],
], ids=["esets-default-sweep", "incidence-default-sweep", "esets-sweep", "adreg-plist"])
def test_direction_grids_beyond_max_directions_are_invalid(capsys, argv):
    assert main([*argv, "--out", "-"]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "is above 2^22" in err


def test_marstrand_grid_beyond_max_directions_is_invalid(tmp_path, capsys):
    path = tmp_path / "deep.dmeas"
    path.write_text("DMEAS v1 d=2 n=23\n0 0 1.0\n")
    argv = ["entropy", "marstrand", "--in", str(path), "--m", "23"]
    assert main([*argv, "--out", "-"]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert f"p={2**23} is above 2^22" in err


@pytest.mark.parametrize("s", ["1.5", "1", "0.49", "-3/4"])
def test_adreg_s_outside_theorem_2s_range_is_invalid(capsys, s):
    argv = ["adreg", "--level", "3", "--plist", "2", f"--s={s}", "--out", "-"]
    assert main(argv) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert out == ""
    assert "outside [1/2, 1)" in err


@pytest.mark.parametrize("argv", [
    ["adreg", "--level", "3", "--plist", "2,x", "--s", "0.75"],
    ["adreg", "--level", "3", "--plist", "", "--s", "0.75"],
])
def test_bad_number_list_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a comma-separated list" in err
    assert "Traceback" not in err


def test_report(grid3, tmp_path):
    rec_path = tmp_path / "e.json"
    _run(["esets", "--in", str(grid3), *TRIPLE, "--sweep", "16"], rec_path)
    csv_path = tmp_path / "r.csv"
    assert main(["report", str(rec_path), "--out", str(csv_path)]) == EXIT_OK
    with open(csv_path) as f:
        assert [row["name"] for row in csv.DictReader(f)] == ["esets"]


def test_report_cells_equal_each_records_flat_values(grid3, tmp_path):
    paths = [tmp_path / "e.json", tmp_path / "s.json"]
    _run(["esets", "--in", str(grid3), *TRIPLE, "--sweep", "16"], paths[0])
    _run(["sharpness", *TRIPLE, "--skip-full-set"], paths[1])
    csv_path = tmp_path / "r.csv"
    assert main(["report", *map(str, paths), "--out", str(csv_path)]) == EXIT_OK
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    flats = [record_from_dict(json.loads(p.read_text())).flat() for p in paths]
    assert len(rows) == 2
    assert set(rows[0]) == set(flats[0]) | set(flats[1])
    assert set(flats[0]) != set(flats[1])
    for row, flat in zip(rows, flats):
        for key, cell in row.items():
            if key not in flat or flat[key] is None:
                assert cell == "", key
            elif isinstance(flat[key], float):
                assert float(cell) == flat[key], key
            else:
                assert cell == str(flat[key]), key


def test_report_flattens_a_project_record(capsys):
    assert main(["report", str(GOLDEN / "project.json")]) == EXIT_OK
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row.pop("name") == "project"
    assert {key: float(cell) for key, cell in row.items()} == {
        "param.theta": 0.7,
        "param.width": 2.0**-8,
        "result.covering_number": 130,
        "result.n_values": 384,
        "result.value_max": 0.7054723161677053,
        "result.value_min": 0.0,
    }


def test_report_quotes_commas_quotes_and_returns_in_keys_and_cells(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"name": "a\rb", "params": {"a,b": 1, 'q"': 2},
                                "results": {"note": 'x,"y"\r\nz'}}))
    assert main(["report", str(path)]) == EXIT_OK
    flat = record_from_dict(json.loads(path.read_text())).flat()
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == sorted(flat)
    assert rows == [[str(flat[key]) for key in header]]


def test_report_to_stdout(capsys):
    # the default --out is "-"
    argv = ["report", str(GOLDEN / "esets.json"), str(GOLDEN / "incidence.json")]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "report.csv").read_text()


def test_report_on_a_file_that_is_not_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n oops}\n')
    assert main(["report", str(path)]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert f"parse error: line 2: {path}: Expecting property name" in err


@pytest.mark.parametrize("payload", [
    [1, 2],
    {},
    "str",
    {"name": "x", "assertions": [{"name": "a", "measured": 1.0, "threshold": 1.0}]},
    {"name": "x", "params": [1, 2]},
], ids=["list", "empty-object", "string", "assertion-without-status", "params-list"])
def test_report_on_json_that_is_not_a_record_is_a_parse_error(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["report", str(path), "--out", str(tmp_path / "r.csv")]) == EXIT_IO
    assert f"parse error: line 1: {path}" in capsys.readouterr().err


@pytest.mark.parametrize("kind,data", [
    ("pset", b"PSET v1 n=2 count=1\n0 \xff\n"),
    ("dmeas", b"DMEAS v1 d=1 n=2\n\xff 1\n"),
    ("json", b'{"name": "\xff"}\n'),
], ids=["pset", "dmeas", "report"])
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, kind, data):
    path = tmp_path / f"input.{kind}"
    path.write_bytes(data)
    argv = {
        "pset": ["project", "--in", str(path), "--theta", "0"],
        "dmeas": ["entropy", "H", "--in", str(path)],
        "json": ["report", str(path)],
    }[kind]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_IO
    assert "parse error: 'utf-8' codec can't decode" in capsys.readouterr().err
