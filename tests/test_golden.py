"""CLI outputs frozen byte for byte in tests/golden/.

Each case reruns one `projlab` command in process and compares every file
it writes with the frozen copy.  A change that alters a count, a float's
last digit or the key order shows up here.
"""

import argparse
import io
from pathlib import Path

import pytest

from projlab import (
    Direction,
    Scale,
    from_pointset,
    gen_four_corners,
    project_measure,
    read_dmeas,
    read_pset,
    write_dmeas,
    write_pset,
)
from projlab.cli import EXIT_OK, build_parser, main

GOLDEN = Path(__file__).with_name("golden")
PSET = GOLDEN / "grid3.pset"
DMEAS = GOLDEN / "corners5.dmeas"
LINE = GOLDEN / "line.dmeas"
TRIPLE = ["--log2delta", "8", "--s", "3/4", "--log2r", "6"]

# name -> argv; "{pset}" is the generated grid3 set, "{dmeas}" the frozen
# level-5 four-corners measure, "{line}" its frozen projection to a line,
# "{golden}" the golden dir, "{out}" the output dir; "--out {out}/<name>.json"
# is appended unless the argv has its own --out
CASES = {
    "adreg": ["adreg", "--level", "5", "--plist", "2,3,4,8,16", "--s", "0.75"],
    "entropy_H": ["entropy", "H", "--in", "{dmeas}"],
    "entropy_cef": ["entropy", "cef", "--in", "{dmeas}", "--fine", "6", "--coarse", "3"],
    "entropy_cover": ["entropy", "cover", "--in", "{line}", "--s", "0.5"],
    # no --A, so the regularity sweep runs and its constant is pinned too
    "entropy_marstrand": ["entropy", "marstrand", "--in", "{dmeas}", "--m", "5"],
    "entropy_multiscale": ["entropy", "multiscale", "--in", "{dmeas}", "--m", "2",
                           "--theta", "0.7"],
    "esets": ["esets", "--in", "{pset}", *TRIPLE, "--sweep", "256",
              "--csv", "{out}/esets.csv"],
    # no --sweep: the default 4·2^8 = 1024 directions
    "esets_default": ["esets", "--in", "{pset}", *TRIPLE, "--csv", "{out}/esets_default.csv"],
    "incidence": ["incidence", "--in", "{pset}", *TRIPLE, "--sweep", "256"],
    "project": ["project", "--in", "{pset}", "--theta", "0.7"],
    "report": ["report", "{golden}/esets.json", "{golden}/incidence.json",
               "--out", "{out}/report.csv"],
    "sharpness_8_6": ["sharpness", *TRIPLE, "--csv", "{out}/sharpness_8_6.csv"],
    "sharpness_14_13": ["sharpness", "--log2delta", "14", "--s", "3/4",
                        "--log2r", "13", "--csv", "{out}/sharpness_14_13.csv"],
}


@pytest.fixture(scope="module")
def pset(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "grid3.pset"
    assert main(["gen", "--shape", "grid3", *TRIPLE, "--out", str(path)]) == EXIT_OK
    return path


def test_gen(pset):
    assert pset.read_bytes() == PSET.read_bytes()


def test_four_corners_measure(tmp_path):
    path = tmp_path / "corners5.dmeas"
    with open(path, "w") as f:
        write_dmeas(from_pointset(gen_four_corners(5, Scale(10))), f)
    assert path.read_bytes() == DMEAS.read_bytes()


def test_line_measure(tmp_path):
    path = tmp_path / "line.dmeas"
    mu = from_pointset(gen_four_corners(3, Scale(6)))
    with open(path, "w") as f:
        write_dmeas(project_measure(mu, Direction(0.7), 6), f)
    assert path.read_bytes() == LINE.read_bytes()


@pytest.mark.parametrize("name, read, write", [
    ("grid3.pset", read_pset, write_pset),
    ("corners5.dmeas", read_dmeas, write_dmeas),
    ("line.dmeas", read_dmeas, write_dmeas),
])
def test_read_then_write_is_byte_identical(name, read, write):
    with open(GOLDEN / name, encoding="utf-8") as f:
        back = read(f)
    text = io.StringIO()
    write(back, text)
    assert text.getvalue().encode() == (GOLDEN / name).read_bytes()


def test_every_golden_file_is_pinned():
    # test_command checks the files "<name>.*" of each case; test_gen,
    # test_four_corners_measure and test_line_measure regenerate the inputs
    written = {path for name in CASES for path in GOLDEN.glob(f"{name}.*")}
    assert sorted(GOLDEN.iterdir()) == sorted(written | {PSET, DMEAS, LINE})


def _leaf_commands(parser, prefix=()):
    """The argv prefix of every subcommand without subcommands of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield prefix
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_commands(sub, (*prefix, name))


def test_every_leaf_command_is_pinned():
    # test_gen pins `gen`; every other command starts some case
    leaves = set(_leaf_commands(build_parser()))
    assert ("entropy", "cover") in leaves
    starts = {tuple(argv[:len(leaf)]) for leaf in leaves for argv in CASES.values()}
    assert sorted(leaves - starts) == [("gen",)]


@pytest.mark.parametrize("name", CASES)
def test_command(name, pset, tmp_path):
    argv = [arg.format(pset=pset, dmeas=DMEAS, line=LINE, golden=GOLDEN, out=tmp_path)
            for arg in CASES[name]]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / f"{name}.json")]
    assert main(argv) == EXIT_OK
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
    for fname in written:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / fname).read_bytes(), fname
