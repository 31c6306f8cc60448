"""Exact counts of the work the witness search does, read by test-side wrappers.

Counts of work do not depend on the host, so they tell a change in what
the search does apart from timing noise.  Each row names one search and
pins three counters:

- ``twists``: the calls of ``moves.dehn_twist``, counted by a wrapper
  patched in for the search;
- ``generated``: the child states the search builds, its ``_witness``
  included: the values that the search's ``children`` generator yields,
  counted by a ``sys.settrace`` observer on that generator's frames;
- ``stored``: the states the search holds where its two sides meet,
  ``len(parents) + len(dist)`` as ``moves._witness`` receives them.

The wrappers only observe, so the search returns its witness as without
them.  A change that moves a count updates its row and says why.  From the
repository root, ``PYTHONPATH=src python -m tests.test_work`` prints the
measured row of every search in ``WORK``'s format, ready to paste; the
test below decides pass or fail.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from unittest import mock

import pytest

from plumbweave import family_word, moves, replay, search_equivalence
from plumbweave.moves import HURWITZ_A, MoveRecord

from .test_moves import _a_d_words

# the reachable pairs of the benchmark's search_family at n = 3, as (j,
# shift): the interior beta of family_word(10, j, 3) pushed by `shift`
# moves, searched at depth `shift`
FAMILY_PAIRS = [(j, 2) for j in (1, 3, 5, 7)] + [(j, 4) for j in range(1, 7)]


def _pushed(m: int, j: int, n: int, shift: int):
    """family_word(m, j, n) and its image under ``hurwitz_a`` at j + 1, ...,
    j + shift, which at even n is no family word."""
    a = family_word(m, j, n)
    return a, replay(a, [MoveRecord(HURWITZ_A, j + 1 + k) for k in range(shift)])


# name -> (source, target, depth)
SEARCHES = {
    f"family 10,{j}->{j + shift}": (family_word(10, j, 3), family_word(10, j + shift, 3), shift)
    for j, shift in FAMILY_PAIRS
}
SEARCHES["D_11->A_11"] = (*_a_d_words(9, 3), 11)
SEARCHES["D_15->A_15"] = (*_a_d_words(13, 3), 15)
# at even n the pairing is antisymmetric, so <x, x> = 0 and T_x(x) = x
for shift in (2, 4):
    SEARCHES[f"family 10,1 n=4 pushed {shift}"] = (*_pushed(10, 1, 4, shift), shift)

# name -> (twists, generated, stored)
WORK = {
    "family 10,1->3": (5, 16, 10),
    "family 10,3->5": (5, 16, 10),
    "family 10,5->7": (5, 16, 10),
    "family 10,7->9": (5, 16, 10),
    "family 10,1->5": (6, 83, 49),
    "family 10,2->6": (6, 83, 49),
    "family 10,3->7": (6, 83, 49),
    "family 10,4->8": (6, 83, 49),
    "family 10,5->9": (6, 83, 49),
    "family 10,6->10": (6, 75, 40),
    "D_11->A_11": (6, 9462, 2520),
    "D_15->A_15": (6, 81706, 19219),
    "family 10,1 n=4 pushed 2": (8, 16, 10),
    "family 10,1 n=4 pushed 4": (20, 83, 49),
}


def measure(name: str) -> tuple[int, ...]:
    """The ``(twists, generated, stored)`` of the search ``name`` in
    ``SEARCHES``, which must find a witness of exactly its depth."""
    source, target, depth = SEARCHES[name]
    twists = generated = 0
    stored = []
    dehn_twist, witness = moves.dehn_twist, moves._witness

    def counting_twist(*args):
        nonlocal twists
        twists += 1
        return dehn_twist(*args)

    def storing_witness(state, parents, dist, *rest):
        stored.append(len(parents) + len(dist))
        return witness(state, parents, dist, *rest)

    def counting_yields(frame, event, arg):
        # a generator's yield is a "return" event with the yielded value;
        # its last return, when it runs out, carries None
        nonlocal generated
        generated += event == "return" and arg is not None
        return counting_yields

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_name == "children" and code.co_filename == moves.__file__:
            return counting_yields
        return None

    with mock.patch.object(moves, "dehn_twist", counting_twist), mock.patch.object(
        moves, "_witness", storing_witness
    ):
        sys.settrace(on_call)
        try:
            wit = search_equivalence(source, target, depth)
        finally:
            sys.settrace(None)
    assert wit is not None and len(wit) == depth
    return (twists, generated, *stored)


def print_rows() -> None:
    """Print the measured row of every search, in ``WORK``'s format."""
    for name in SEARCHES:
        print(f'    "{name}": {measure(name)},')


def test_every_search_has_a_row():
    assert sorted(SEARCHES) == sorted(WORK)


@pytest.mark.parametrize("name", list(SEARCHES))
def test_search_work_counts(name):
    assert measure(name) == WORK[name]


def test_the_printed_rows_are_the_measured_ones():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print_rows()
    printed = ast.literal_eval("{" + out.getvalue() + "}")
    assert printed == {name: measure(name) for name in SEARCHES}


if __name__ == "__main__":
    print_rows()
