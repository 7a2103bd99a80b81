"""The mutant list of tools/mutants.py, on canned text and on the files it names."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

PLANT = mutants.Mutant("halve", "src/pkg/f.py", "x * 2", "x // 2", ("tests/test_f.py",))


def test_a_mutant_replaces_its_one_old_text():
    text = "def f(x):\n    return x * 2\n"
    assert mutants.mutate(text, PLANT) == "def f(x):\n    return x // 2\n"


@pytest.mark.parametrize("text, count", [
    ("def f(x):\n    return x*2\n", 0),                # reformatted: the old text is gone
    ("def f(x):\n    return x * 2 + x * 2\n", 2),      # ambiguous: which one to plant?
])
def test_an_old_text_that_does_not_occur_exactly_once_is_stale(text, count):
    with pytest.raises(ValueError, match=f"^halve: its old text occurs {count} times in "
                                         "src/pkg/f.py, not once$"):
        mutants.mutate(text, PLANT)



@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutants_old_text_occurs_once_in_its_file(mutant):
    # a change that rewrites a mutant's old text fails here, not first at the next
    # run of tools/mutants.py
    mutants.mutate((ROOT / mutant.path).read_text(encoding="utf-8"), mutant)
