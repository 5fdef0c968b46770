"""The canonical reprint is a fixpoint: printing a parsed file and parsing
the print again gives the same text."""

import pytest

from conftest import DATA
from htsplit.parser import parse_problem, print_problem


def reprint(text: str) -> str:
    return print_problem(parse_problem(text))


@pytest.mark.parametrize("path", sorted(DATA.glob("*.htsplit")), ids=lambda p: p.name)
def test_print_is_a_fixpoint_on_the_corpus(path):
    printed = reprint(path.read_text())
    assert reprint(printed) == printed


def test_a_part_of_only_false_entries_round_trips():
    printed = reprint("pred p. p. #intensional p : #true. #part g { p : #false }.")
    assert "#part g {  }." in printed
    again = parse_problem(printed)
    assert again.part("g").entries == ()
    assert print_problem(again) == printed
