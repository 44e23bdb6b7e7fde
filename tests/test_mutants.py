"""scripts/mutants.py lists one-line faults that named tests must catch. Running
them takes minutes, so it stays out of this suite; these checks keep the list
in step with the sources: each old line occurs exactly once, each new line
compiles, and each named test exists."""

import pytest

from conftest import load_script

mutants = load_script("mutants")


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_to_the_current_sources(mutant):
    source = (mutants.ROOT / mutant.path).read_text()
    mutated = mutants.mutate(mutant, source)  # ValueError unless the old line occurs exactly once
    assert mutated != source
    compile(mutated, mutant.path, "exec")
    assert mutant.tests
    for test in mutant.tests:
        path, *_, name = test.split("::")
        assert f"def {name}(" in (mutants.ROOT / path).read_text(), test


def test_an_old_line_must_occur_exactly_once():
    mutant = mutants.MUTANTS[0]
    with pytest.raises(ValueError, match="occurs 2 times"):
        mutants.mutate(mutant, f"{mutant.old}\n    {mutant.old}\n")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutants.mutate(mutant, "pass\n")
