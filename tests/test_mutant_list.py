"""The mutation audit's list stays applicable to the source it mutates."""

from collections import Counter

from mutants import MUTANTS, check_matches


def test_every_mutant_old_text_occurs_once():
    # a source edit that orphans a mutant's old text fails here, not only
    # when ``python3 tests/mutants.py`` runs
    assert check_matches(MUTANTS) == []


def test_mutant_names_are_unique():
    # mutants.main looks mutants up by name, so a repeated name would shadow
    # one of them when mutants are run by name
    counts = Counter(m.name for m in MUTANTS)
    assert [name for name, count in counts.items() if count > 1] == []
