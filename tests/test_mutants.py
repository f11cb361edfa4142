"""The mutation catalogue in tools/mutants.py follows src/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def load_catalogue():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_exactly_once():
    mutants = load_catalogue()
    assert mutants.CATALOGUE
    stale = [m.note for m in mutants.CATALOGUE if not mutants.occurs_once(m)]
    assert stale == []


def test_every_mutant_changes_its_file():
    mutants = load_catalogue()
    for m in mutants.CATALOGUE:
        assert m.old != m.new, m.note
        assert m.path.startswith("src/resipoly/"), m.note
    assert len({(m.path, m.old) for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
