"""In-process runs of every `projlab` subcommand on small inputs."""

import csv
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parser_text
from projlab import (
    DyadicMeasure,
    ParamTriple,
    ParseError,
    Scale,
    compute_E_s,
    from_pointset,
    gen_four_corners,
    read_dmeas,
    read_pset,
    write_dmeas,
)
from projlab.cli import EXIT_INVALID, EXIT_IO, EXIT_OK, main
from projlab.records import record_from_dict

TRIPLE = ["--log2delta", "8", "--s", "3/4", "--log2r", "6"]


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
    assert payload["covering_number"] >= 1


@pytest.mark.parametrize("width", ["nan", "inf", "-inf"])
def test_project_rejects_a_non_finite_width(grid3, capsys, width):
    # "=": argparse reads a separate "-inf" as an option
    argv = ["project", "--in", str(grid3), "--theta", "0", f"--width={width}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "not a finite number" in err


# every float option but --width (above), each with a finite value it accepts
FLOAT_OPTIONS = [
    (["adreg", "--level", "3", "--plist", "2,4"], "--s", "0.75"),
    (["project", "--in", "unused.pset"], "--theta", "0"),
    (["entropy", "multiscale", "--in", "unused.dmeas", "--m", "2"], "--theta", "0.7"),
    (["entropy", "marstrand", "--in", "unused.dmeas", "--m", "4"], "--A", "2"),
    (["entropy", "marstrand", "--in", "unused.dmeas", "--m", "4"], "--s-list", "0.5,{}"),
    (["entropy", "cover", "--in", "unused.dmeas"], "--s", "0.5"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
@pytest.mark.parametrize("argv, option, finite", FLOAT_OPTIONS,
                         ids=[f"{a[0]}-{a[1]}-{o}" for a, o, _ in FLOAT_OPTIONS])
def test_non_finite_float_option_is_a_usage_error(capsys, argv, option, finite, value):
    bad = finite.format(value) if "{}" in finite else value
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"{option}={bad}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument {option}: not a" in err and "finite number" in err
    assert "Traceback" not in err


def test_esets(grid3, tmp_path):
    rec = _run(["esets", "--in", str(grid3), *TRIPLE, "--sweep", "64"], tmp_path / "e.json")
    assert rec["params"]["sweep"] == 64


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
        ("blowup", ["--k", "2", "--i", "0", "--j", "0"], "atoms"),
    ],
)
def test_entropy_plane(plane_measure, tmp_path, sub, args, key):
    rec = _run(["entropy", sub, "--in", str(plane_measure), *args], tmp_path / "h.json")
    assert key in rec["results"]


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


def test_entropy_cover(line_measure, tmp_path):
    rec = _run(["entropy", "cover", "--in", str(line_measure), "--s", "0.8"],
               tmp_path / "c.json")
    assert rec["results"]["occupied"] == 32


def test_adreg(tmp_path):
    rec = _run(["adreg", "--level", "3", "--plist", "2,8", "--s", "0.75"],
               tmp_path / "a.json")
    assert rec["results"]["table"][0]["average"] == 8.0


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


@pytest.mark.parametrize("argv", [
    ["adreg", "--level", "3", "--plist", "2,x", "--s", "0.75"],
    ["adreg", "--level", "3", "--plist", "", "--s", "0.75"],
    ["entropy", "marstrand", "--in", "unused.dmeas", "--m", "4", "--s-list", "0.5,zz"],
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
