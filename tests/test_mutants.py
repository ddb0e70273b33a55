"""The mutant catalogue (`mutants.py`) still aims at today's source."""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS

SRC = Path(__file__).resolve().parent.parent / "src" / "f2lab"
TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_exactly_once(mutant):
    assert mutant.old != mutant.new
    assert sum(path.read_text().count(mutant.old) for path in SRC.glob("*.py")) == 1
    assert (SRC / mutant.file).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_names_its_killers_or_why_it_is_equivalent(mutant):
    # an equivalent mutant names no test; any other names tests that exist
    assert bool(mutant.kills) != bool(mutant.equivalent)
    for test_id in mutant.kills:
        path, *names = test_id.split("::")
        text = (TESTS.parent / path).read_text()
        assert re.search(rf"^\s*def {names[-1]}\(", text, re.M), test_id
        if len(names) == 2:
            assert re.search(rf"^class {names[0]}\b", text, re.M), test_id


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
