"""The mutation audit's list stays applicable to the source it mutates."""

from mutants import MUTANTS, check_matches


def test_every_mutant_old_text_occurs_once():
    # a source edit that orphans a mutant's old text fails here, not only
    # when ``python3 tests/mutants.py`` runs
    assert check_matches(MUTANTS) == []
