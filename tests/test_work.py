"""Exact counts of the work the witness search does, read by test-side wrappers.

Counts of work do not depend on the host, so they tell a change in what
the search does apart from timing noise.  Each row names one search and
pins two counters:

- ``twists``: the calls of ``moves.dehn_twist``, counted by a wrapper
  patched in for the search;
- ``stored``: the states the search holds where its two sides meet,
  ``len(parents) + len(dist)`` as ``moves._witness`` receives them.

The wrappers only observe, so the search returns its witness as without
them.  A change that moves a count updates its row and says why.
"""

from __future__ import annotations

import pytest

from plumbweave import family_word, moves, search_equivalence

from .test_moves import _a_d_words

# the reachable pairs of the benchmark's search_family at n = 3, as (j,
# shift): the interior beta of family_word(10, j, 3) pushed by `shift`
# moves, searched at depth `shift`
FAMILY_PAIRS = [(j, 2) for j in (1, 3, 5, 7)] + [(j, 4) for j in range(1, 7)]

# name -> (source, target, depth)
SEARCHES = {
    f"family 10,{j}->{j + shift}": (family_word(10, j, 3), family_word(10, j + shift, 3), shift)
    for j, shift in FAMILY_PAIRS
}
SEARCHES["D_11->A_11"] = (*_a_d_words(9, 3), 11)

# name -> (twists, stored)
WORK = {
    "family 10,1->3": (8, 10),
    "family 10,3->5": (8, 10),
    "family 10,5->7": (8, 10),
    "family 10,7->9": (8, 10),
    "family 10,1->5": (14, 49),
    "family 10,2->6": (14, 49),
    "family 10,3->7": (14, 49),
    "family 10,4->8": (14, 49),
    "family 10,5->9": (14, 49),
    "family 10,6->10": (16, 40),
    "D_11->A_11": (18, 2520),
}


def test_every_search_has_a_row():
    assert sorted(SEARCHES) == sorted(WORK)


@pytest.mark.parametrize("name", list(SEARCHES))
def test_search_work_counts(monkeypatch, name):
    source, target, depth = SEARCHES[name]
    twists = 0
    stored = []
    dehn_twist, witness = moves.dehn_twist, moves._witness

    def counting_twist(*args):
        nonlocal twists
        twists += 1
        return dehn_twist(*args)

    def storing_witness(state, parents, dist, *rest):
        stored.append(len(parents) + len(dist))
        return witness(state, parents, dist, *rest)

    monkeypatch.setattr(moves, "dehn_twist", counting_twist)
    monkeypatch.setattr(moves, "_witness", storing_witness)
    wit = search_equivalence(source, target, depth)
    assert wit is not None and len(wit) == depth
    assert (twists, *stored) == WORK[name]
