"""The mutant list of tools/mutants.py, on canned text."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
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

