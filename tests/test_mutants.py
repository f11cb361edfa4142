"""The mutation catalogue in tools/mutants.py follows src/ and the tests."""

import importlib.util
import subprocess
import sys
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


def test_every_killer_is_a_collected_test():
    # the runner tries each entry's killer alone before the whole suite
    mutants = load_catalogue()
    killers = {m.killer for m in mutants.CATALOGUE}
    files = sorted({k.split("::")[0] for k in killers})
    assert "tests/test_mutants.py" not in files
    done = subprocess.run(
        [sys.executable, *mutants.PYTEST, "--collect-only", *files],
        cwd=mutants.ROOT,
        env=mutants.env(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    assert sorted(killers - set(done.stdout.splitlines())) == []
