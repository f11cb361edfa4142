"""Frozen command-line outputs, compared byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one command on a
shipped fixture.  The text outputs follow dict insertion order, so they pin
the key order of the reports as well as their values.  A change that alters
any of these bytes must say why.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from resipoly import fixtures
from resipoly.cli import main

GOLDEN = Path(__file__).parent / "golden"

# golden file -> (fixture written to --input or None, the other arguments)
CASES = {
    "verify-seed11-cases4.json": (None, ["verify", "--seed", "11", "--random-cases", "4"]),
    "verify-seed11-cases4.txt": (
        None,
        ["verify", "--seed", "11", "--random-cases", "4", "--format", "text"],
    ),
    "verify-seed11-cases16.json": (None, ["verify", "--seed", "11", "--random-cases", "16"]),
    "verify-skip-random.json": (None, ["verify", "--skip-random"]),
    "info-fig2.json": ("fig2", ["info", "--format", "json"]),
    "info-fig2.txt": ("fig2", ["info", "--format", "text"]),
    "dims-fig2.json": ("fig2", ["dims", "--format", "json"]),
    "dims-fig2.txt": ("fig2", ["dims", "--format", "text"]),
    "basis-fig1.json": ("fig1", ["basis"]),
    "gamma-fig1.json": ("fig1", ["gamma"]),
    "polytope-fig1.json": ("fig1", ["polytope"]),
    "gamma-k4.json": ("k4", ["gamma"]),
    "polytope-k4.json": ("k4", ["polytope"]),
    "faces-k4.json": ("k4", ["faces"]),
    "degenerate-fig1.json": ("fig1", ["degenerate"]),
}


def command_line(golden_name, directory):
    """The argv of a golden case, with its input documents written to
    `directory`.  The degenerate case moves the fixture's levels into
    --fine, so the input is the one-level coarsening."""
    fixture, args = CASES[golden_name]
    if fixture is None:
        return list(args)
    document = fixtures.document(fixture)
    argv = list(args)
    if args[0] == "degenerate":
        fine = directory / f"{fixture}-fine.json"
        fine.write_text(json.dumps({"levels": document.pop("levels")}))
        argv += ["--fine", str(fine)]
    path = directory / f"{fixture}.json"
    path.write_text(json.dumps(document))
    return argv + ["--input", str(path)]


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_output_matches_golden(golden_name, tmp_path):
    code, out = run(command_line(golden_name, tmp_path))
    assert code == 0
    assert out == (GOLDEN / golden_name).read_bytes()


def test_fixture_documents_are_fresh():
    # command_line pops the levels off the document it is given; the next
    # caller must still see them
    document = fixtures.document("fig1")
    document.pop("levels")
    document["vertices"].clear()
    again = fixtures.document("fig1")
    assert "levels" in again
    assert again["vertices"]
