"""The checked-in mutants still apply to the code they were written against.

``mutants/run.py`` applies each entry of ``mutants/mutants.json`` to a copy of
the repo and runs its tests; tier-1 only checks that the list has not rotted.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "mutants" / "mutants.json").read_text())


def test_mutant_ids_are_unique():
    ids = [m["id"] for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant["file"]).read_text()
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["id"])
def test_killing_test_is_defined_in_a_file_the_mutant_runs(mutant):
    path, *names = mutant["killed_by"].split("[")[0].split("::")
    assert path in mutant["tests"] and all((ROOT / f).is_file() for f in mutant["tests"])
    assert "def %s(" % names[-1] in (ROOT / path).read_text()
