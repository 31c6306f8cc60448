import json
import random
import sys
import tracemalloc
from collections import Counter, deque
from dataclasses import replace
from functools import lru_cache, partial

import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    AbstractLF,
    PlumbingDescriptor,
    VanishingCycle,
    cyclic_permute,
    equal_homology,
    family_tree,
    family_word,
    fibrate,
    hurwitz_a,
    hurwitz_b,
    moves,
    order_tree,
    parse_tree,
    random_tree,
    replay,
    search_equivalence,
    smith_normal_form,
    stabilize,
    total_homology,
    wedge_oracle,
)
from plumbweave.errors import (
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    NonInvertibleTwist,
    PlumbweaveError,
    UnknownVertex,
)
from plumbweave.lattice import _isometric_centre, dehn_twist
from plumbweave.moves import (
    CYCLIC,
    HURWITZ_A,
    HURWITZ_B,
    MoveRecord,
    apply_move,
    _same_fiber,
    moves_from_json,
    moves_to_json,
    parse_move_line,
)
from plumbweave.treecore import UnrootedTree

from .test_lattice import (
    GEOMETRIC_SIGNS,
    PROGRAM_SIGNS,
    ReferenceForm,
    Signs,
    equivalent,
    outcome,
    reference_twist,
    tree_patterns,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def word_of(alf):
    return [c.cls for c in alf.cycles]


# ---------------------------------------------------------------------------
# cyclic permutation


def test_cyclic_rotates_left():
    alf = family_word(1, 1, 5)  # (α, α, β, α, β)
    rolled = cyclic_permute(alf)
    assert word_of(rolled) == word_of(alf)[1:] + word_of(alf)[:1]
    assert rolled.fiber == alf.fiber


def test_cyclic_order_is_word_length(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    cur = alf
    for _ in range(len(alf.cycles)):
        cur = cyclic_permute(cur)
    assert word_of(cur) == word_of(alf)
    assert [c.label for c in cur.cycles] == [c.label for c in alf.cycles]


def test_cyclic_ex_starts_with_v5_cycle(ex_ordered):
    alf = cyclic_permute(fibrate(ex_ordered, 3))
    assert alf.cycles[0].display == "L_{q(v5)}"


# ---------------------------------------------------------------------------
# Hurwitz moves


def test_hurwitz_a_example():
    # (β, α) -> (α, τ_α(β)) = (α, β + α) in the symmetric two-sphere lattice
    alf = family_word(1, 1, 5)  # (α, α, β, α, β); act at index 2
    moved = hurwitz_a(alf, 2)
    assert moved.cycles[2].cls == (1, 0)
    assert moved.cycles[3].cls == (1, 1)
    assert moved.cycles[3].label == alf.cycles[2].label
    assert "τ[" in moved.cycles[3].display


def test_hurwitz_b_example():
    # (α, β) -> (τ_α^{-1}(β), α) = (β + α, α): the twist is its own inverse here
    alf = family_word(1, 1, 5)  # (α, α, β, α, β); act at index 1
    moved = hurwitz_b(alf, 1)
    assert moved.cycles[1].cls == (1, 1)
    assert moved.cycles[2] == alf.cycles[1]
    assert moved.cycles[1].label == alf.cycles[2].label
    assert moved.cycles[1].display == "τ^{-1}[α](β)"
    assert hurwitz_a(alf, 1).cycles[2].display == "τ[β](α)"


def test_hurwitz_inverse_pair(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    for i in (0, 3, 8):
        assert word_of(hurwitz_b(hurwitz_a(alf, i), i)) == word_of(alf)
        assert word_of(hurwitz_a(hurwitz_b(alf, i), i)) == word_of(alf)


def test_hurwitz_pushes_beta_through_four_alphas():
    alf = family_word(6, 1, 5)
    pos = 1 + 1  # the interior β of family_word(6, 1, n) sits at j + 1
    cur = alf
    for k in range(4):
        cur = hurwitz_a(cur, pos + k)
    assert cur.cycles[pos + 4].cls == (0, 1)  # reflection has order two
    cur4 = family_word(6, 1, 4)
    for k in range(4):
        cur4 = hurwitz_a(cur4, pos + k)
    assert cur4.cycles[pos + 4].cls == (-4, 1)  # transvection keeps adding


@pytest.mark.parametrize("n", [3, 4])
def test_no_move_but_stabilize_rebuilds_the_fiber(ex_ordered, n):
    # the fiber is the intersection form, so a move that keeps the fiber
    # passes on the very object and builds no form
    alf = fibrate(ex_ordered, n)
    assert cyclic_permute(alf).fiber is alf.fiber
    for i in (0, 3, len(alf.cycles) - 2):
        assert hurwitz_a(alf, i).fiber is alf.fiber
        assert hurwitz_b(alf, i).fiber is alf.fiber


def test_hurwitz_index_range(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    with pytest.raises(IndexOutOfRange):
        hurwitz_a(alf, 9)
    with pytest.raises(IndexOutOfRange):
        hurwitz_b(alf, -1)


# each entry runs one MoveRecord, of the kinds it takes
MOVE_ENTRIES = {
    "cyclic_permute": ((CYCLIC,), lambda alf, mv: cyclic_permute(alf)),
    "hurwitz_a": ((HURWITZ_A,), lambda alf, mv: hurwitz_a(alf, mv.index)),
    "hurwitz_b": ((HURWITZ_B,), lambda alf, mv: hurwitz_b(alf, mv.index)),
    "apply_move": ((CYCLIC, HURWITZ_A, HURWITZ_B), apply_move),
    "replay": ((CYCLIC, HURWITZ_A, HURWITZ_B), lambda alf, mv: replay(alf, [mv])),
}


@pytest.mark.parametrize("entry", list(MOVE_ENTRIES))
def test_every_move_entry_is_apply_move(entry, ex_ordered):
    kinds, run = MOVE_ENTRIES[entry]
    alf = fibrate(ex_ordered, 3)
    m = len(alf.cycles)
    empty = replace(alf, cycles=())
    for kind in kinds:
        if kind == CYCLIC:
            with pytest.raises(IndexOutOfRange):
                run(empty, MoveRecord(CYCLIC))
            assert run(alf, MoveRecord(CYCLIC)) == apply_move(alf, MoveRecord(CYCLIC))
            continue
        for i in (0, -1, m - 1):
            with pytest.raises(IndexOutOfRange):
                run(empty if i == 0 else alf, MoveRecord(kind, i))
        for i in range(m - 1):
            mv = MoveRecord(kind, i)
            assert run(alf, mv) == apply_move(alf, mv)
    if entry in ("apply_move", "replay"):
        with pytest.raises(FormatError):
            run(alf, MoveRecord("rotate", 0))


@given(seeds, st.sampled_from([3, 4]))
@settings(max_examples=80, deadline=None)
def test_hurwitz_pair_identity_random(seed, n):
    t = random_tree(seed, 12)
    alf = fibrate(order_tree(t), n)
    rng = random.Random(seed)
    i = rng.randrange(len(alf.cycles) - 1)
    assert word_of(hurwitz_b(hurwitz_a(alf, i), i)) == word_of(alf)
    assert word_of(hurwitz_a(hurwitz_b(alf, i), i)) == word_of(alf)


def reference_alphabet(m):
    """The search alphabet on words of length ``m``, written out for the
    reference search: the cyclic move, then ``hurwitz_a`` at 0..m-2, then
    ``hurwitz_b`` at 0..m-2."""
    return (
        [MoveRecord(CYCLIC)]
        + [MoveRecord(HURWITZ_A, i) for i in range(m - 1)]
        + [MoveRecord(HURWITZ_B, i) for i in range(m - 1)]
    )


def sliced_move_word(word, move, twist):
    """The move rule written with slices and tuple concatenation: the
    reference for the cyclic and Hurwitz moves, which copy the word once."""
    if move.kind == CYCLIC:
        return word[1:] + word[:1]
    i = move.index
    x, y = word[i], word[i + 1]
    if move.kind == HURWITZ_A:
        return word[:i] + (y, twist(y, x, 1)) + word[i + 2 :]
    return word[:i] + (twist(x, y, -1), x) + word[i + 2 :]


def kept_label(l, x, power):
    return x


def tagged_display(l, x, power):
    return f"{'τ' if power == 1 else 'τ^{-1}'}[{l}]({x})"


CHAIN = tuple(f"u{k}" for k in range(7))


def chain_word(word, scale, n):
    """A word on the A_7 chain fiber whose cycle i holds ``scale`` times
    the unit class of vertex ``word[i]``."""
    pattern = UnrootedTree(CHAIN, tuple(zip(CHAIN, CHAIN[1:])))
    cycles = tuple(
        VanishingCycle(f"c{i}", tuple(scale * (j == k) for j in range(7)), f"u{k}")
        for i, k in enumerate(word)
    )
    return AbstractLF(PlumbingDescriptor(pattern, n - 1), cycles)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=14).map(tuple))
@settings(max_examples=150, deadline=None)
def test_move_word_matches_the_sliced_rule(word):
    # each public move against the sliced rule on classes (the reference
    # twist), labels (kept) and displays (the twist recorded), at both
    # parities; on classes of square -8 at odd n every hurwitz_b takes its
    # twist, which has no integer inverse
    alphabet = reference_alphabet(len(word))
    for n in (3, 4):
        alf = chain_word(word, 1, n)
        twist = partial(reference_twist, ReferenceForm(alf.fiber.pattern, n - 1, PROGRAM_SIGNS))
        labels = tuple(c.label for c in alf.cycles)
        for move in alphabet:
            out = MOVE_ENTRIES[move.kind][1](alf, move)
            assert out.fiber == alf.fiber and type(out.cycles) is tuple
            assert out.word_classes() == sliced_move_word(alf.word_classes(), move, twist)
            labels_after = tuple(c.label for c in out.cycles)
            assert labels_after == sliced_move_word(labels, move, kept_label)
            assert out.word_displays() == sliced_move_word(
                alf.word_displays(), move, tagged_display
            )
    scaled = chain_word(word, 2, 3)
    for i in range(len(word) - 1):
        with pytest.raises(NonInvertibleTwist):
            hurwitz_b(scaled, i)


def flip_word(alf, flip):
    """``alf`` with each class mapped through ``flip``."""
    return replace(alf, cycles=tuple(replace(c, cls=flip(c.cls)) for c in alf.cycles))


def reference_moved(alf, script, signs):
    """``alf`` after the moves of ``script`` by the sliced rule, each twist
    the reference twist in the setting ``signs``."""
    ref = ReferenceForm(alf.fiber.pattern, alf.fiber.sphere_dim, signs)

    def twist(l, x, power):
        return replace(x, cls=reference_twist(ref, l.cls, x.cls, power))

    cycles = alf.cycles
    for move in script:
        cycles = sliced_move_word(cycles, move, twist)
    return replace(alf, cycles=cycles)


@given(st.data(), tree_patterns(), st.integers(1, 4), st.sampled_from(GEOMETRIC_SIGNS))
@settings(max_examples=200, deadline=None)
def test_geometric_signs_move_words_as_the_program_in_a_flipped_basis(
    data, pattern, sphere_dim, signs
):
    # a word and a move script under each geometric setting (s, e, eps),
    # eps * s = -2, against the program at edge sign +1 on the word that
    # equivalent flips, twist by twist; an inverse twist around a class
    # that is no centre raises at the same move on both sides
    r = len(pattern.vertices)
    unit = st.integers(0, r - 1).map(lambda i: tuple(int(j == i) for j in range(r)))
    dense = st.tuples(*(st.integers(-2, 2) for _ in range(r)))
    word = data.draw(st.lists(st.one_of(unit, unit, dense), min_size=1, max_size=6))
    script = data.draw(st.lists(st.sampled_from(reference_alphabet(len(word))), max_size=8))
    alf = AbstractLF(
        PlumbingDescriptor(pattern, sphere_dim),
        tuple(VanishingCycle(f"c{i}", cls, f"x{i}") for i, cls in enumerate(word)),
    )
    twist = partial(reference_twist, ReferenceForm(pattern, sphere_dim, signs))
    flip = equivalent(signs, pattern)
    want, got = alf.word_classes(), flip_word(alf, flip)
    for move in script:
        want = outcome(sliced_move_word, want, move, twist)
        got = outcome(apply_move, got, move)
        if isinstance(want, type):
            assert got is want
            break
        assert got.word_classes() == tuple(map(flip, want))


# ---------------------------------------------------------------------------
# stabilization


def test_stabilize_prepends_new_class(a2_ordered):
    alf = fibrate(a2_ordered, 3)
    grown = stabilize(alf, "w0", 0)
    assert len(grown.fiber.pattern.vertices) == 2
    assert grown.fiber.pattern.edges == (("w0", "s1"),)
    assert grown.cycles[0].cls == (0, 1)
    assert grown.cycles[0].label == "stab:1"
    assert [c.cls for c in grown.cycles[1:]] == [(1, 0), (1, 0), (1, 0)]


def test_stabilize_preserves_old_pairings(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    form = alf.fiber
    grown = stabilize(alf, "w2", 4)
    gform = grown.fiber
    r = len(alf.fiber.pattern.vertices)

    def unit(size, i):
        return tuple(int(j == i) for j in range(size))

    for i in range(r):
        for j in range(r):
            assert gform.pair(unit(r + 1, i), unit(r + 1, j)) == form.pair(unit(r, i), unit(r, j))
    assert gform.pair(unit(r + 1, r), unit(r + 1, form.pattern.vertices.index("w2"))) != 0


def test_stabilize_keeps_shared_classes_shared(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    grown = stabilize(alf, "w2", 4)
    ids = {id(c.cls) for c in alf.cycles}
    assert len({id(c.cls) for c in grown.cycles}) == len(ids) + 1
    assert [c.cls for c in grown.cycles[:4] + grown.cycles[5:]] == [
        c.cls + (0,) for c in alf.cycles
    ]


class CountingClass(tuple):
    """A class tuple that counts how often it is grown."""

    def __add__(self, other):
        self.grows += 1
        return tuple(self) + other


def test_stabilize_grows_each_class_object_once(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    counted = {}
    for c in alf.cycles:
        counted.setdefault(c.cls, CountingClass(c.cls)).grows = 0
    shared = replace(
        alf, cycles=tuple(replace(c, cls=counted[c.cls]) for c in alf.cycles)
    )
    assert len(counted) < len(alf.cycles)
    grown = stabilize(shared, "w2", 0)
    assert [x.grows for x in counted.values()] == [1] * len(counted)
    assert grown == stabilize(alf, "w2", 0)


def test_stabilize_argument_checks(a2_ordered):
    alf = fibrate(a2_ordered, 3)
    with pytest.raises(UnknownVertex):
        stabilize(alf, "nope", 0)
    with pytest.raises(IndexOutOfRange):
        stabilize(alf, "w0", 4)


def test_stabilize_fresh_names_do_not_collide(a2_ordered):
    alf = fibrate(a2_ordered, 3)
    grown = stabilize(stabilize(alf, "w0", 0), "s1", 1)
    assert grown.fiber.pattern.vertices == ("w0", "s1", "s2")


# ---------------------------------------------------------------------------
# homological equality


def test_equal_homology_reflexive(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    assert equal_homology(alf, alf)


def test_equal_homology_is_pointwise():
    a = family_word(2, 1, 5)
    b = cyclic_permute(a)
    assert not equal_homology(a, b)


def test_equal_homology_depends_on_classes_only(ex_ordered):
    from dataclasses import replace

    alf = fibrate(ex_ordered, 3)
    renamed = replace(
        alf,
        cycles=tuple(
            replace(c, label=f"stab:{i}", display="???") for i, c in enumerate(alf.cycles)
        ),
    )
    assert equal_homology(alf, renamed)


def test_equal_homology_compares_n():
    from dataclasses import replace

    alf = family_word(2, 1, 5)
    other = replace(alf, fiber=replace(alf.fiber, sphere_dim=6))
    assert not equal_homology(alf, other)
    with pytest.raises(DimensionMismatch):
        search_equivalence(alf, other, 1)


def test_family_shift_equivalence_by_parity():
    pos = 1 + 1  # the interior β of family_word(6, 1, n) sits at j + 1
    wit = tuple(MoveRecord(HURWITZ_A, pos + k) for k in range(4))
    assert equal_homology(replay(family_word(6, 1, 5), wit), family_word(6, 5, 5))
    assert not equal_homology(replay(family_word(6, 1, 4), wit), family_word(6, 5, 4))


# ---------------------------------------------------------------------------
# search


def test_search_trivial(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    assert search_equivalence(alf, alf, 3) == ()


def _signless_class(x):
    """``x`` or ``-x``, whichever has its first nonzero entry positive."""
    lead = next((v for v in x if v), 0)
    return tuple(-v for v in x) if lead < 0 else x


def _signless(word):
    """The classes of ``word``, each replaced by its sign representative."""
    return tuple(map(_signless_class, word))


def equal_up_to_sign(a, b) -> bool:
    """``equal_homology`` with each class compared up to its sign."""
    return _same_fiber(a, b) and _signless(a.word_classes()) == _signless(b.word_classes())


def test_search_single_move():
    # at n = 5, where <alpha, alpha> = -2, hurwitz_a at 0 sends (alpha,
    # alpha) to (alpha, -alpha): the same word up to sign, so no move is
    # needed; at 1 it makes the new class alpha + beta
    a = family_word(3, 1, 5)
    b = hurwitz_a(a, 0)
    assert not equal_homology(a, b) and equal_up_to_sign(a, b)
    assert search_equivalence(a, b, 3) == ()
    b = hurwitz_a(a, 1)
    assert not equal_up_to_sign(a, b)
    wit = search_equivalence(a, b, 3)
    assert wit == (MoveRecord(HURWITZ_A, 1),)
    assert equal_homology(replay(a, wit), b)


def test_search_family_witness():
    a, b = family_word(6, 1, 5), family_word(6, 5, 5)
    wit = search_equivalence(a, b, 6)
    assert wit is not None and len(wit) <= 4
    replayed = replay(a, wit)
    assert equal_homology(replayed, b)


def swapped_hurwitz_blocks(m):
    return (
        MoveRecord(CYCLIC),
        *[MoveRecord(HURWITZ_B, i) for i in range(m - 1)],
        *[MoveRecord(HURWITZ_A, i) for i in range(m - 1)],
    )


def test_the_search_alphabet_is_stated_once(monkeypatch):
    # the search's children follow _state_moves, so listing the hurwitz_b
    # block first gives witnesses, least in that order, that still replay
    cases = [
        (family_word(m, j, n), family_word(m, k, n))
        for n in (3, 4, 5)
        for m in (4, 6)
        for j in range(1, m + 1)
        for k in range(j + 1, m + 1)
    ]
    plain = [search_equivalence(a, b, 6) for a, b in cases]
    monkeypatch.setattr(moves, "_state_moves", swapped_hurwitz_blocks)
    # the search reads its steps from a cache of the alphabet: a fresh one
    monkeypatch.setattr(moves, "_state_steps", lru_cache(moves._state_steps.__wrapped__))
    found = 0
    for (a, b), unpatched in zip(cases, plain):
        wit = search_equivalence(a, b, 6)
        assert (wit is None) == (unpatched is None)
        if wit is not None:
            found += 1
            assert len(wit) <= len(unpatched)
            assert equal_up_to_sign(replay(a, wit), b)
    assert found >= 8


def test_search_not_found_is_none():
    a, b = family_word(6, 1, 5), family_word(6, 5, 5)
    assert search_equivalence(a, b, 1) is None


@pytest.mark.parametrize("max_depth", [2.5, "3", True])
def test_search_refuses_a_depth_that_is_not_an_integer(max_depth):
    # a depth of 2.5 would let the search return a witness of 3 moves
    with pytest.raises(FormatError):
        search_equivalence(family_word(6, 1, 5), family_word(6, 5, 5), max_depth)


def test_search_refuses_a_negative_depth():
    a = family_word(6, 1, 5)
    with pytest.raises(IndexOutOfRange):
        search_equivalence(a, a, -1)
    assert search_equivalence(a, a, 0) == ()


def test_search_requires_compatible_inputs():
    with pytest.raises(DimensionMismatch):
        search_equivalence(family_word(6, 1, 5), family_word(6, 1, 4), 2)
    with pytest.raises(DimensionMismatch):
        search_equivalence(family_word(6, 1, 5), family_word(5, 1, 5), 2)


@given(seeds, st.integers(1, 2))
@settings(max_examples=25, deadline=None)
def test_search_replays_to_target(seed, depth):
    t = random_tree(seed, 8)
    a = fibrate(order_tree(t), 3)
    rng = random.Random(seed)
    b = a
    for _ in range(depth):
        i = rng.randrange(len(a.cycles) - 1)
        b = hurwitz_a(b, i) if rng.random() < 0.5 else hurwitz_b(b, i)
    wit = search_equivalence(a, b, depth)
    assert wit is not None and len(wit) <= depth
    assert equal_up_to_sign(replay(a, wit), b)


def _reference_bfs(a, b, max_depth: int, signs: Signs = PROGRAM_SIGNS, state=tuple):
    """The one-sided breadth-first search that search_equivalence replaced,
    kept as an oracle; it twists with the reference twist under all three
    ``signs``.  ``state`` maps each class word met to the state kept for
    it: by default the word itself, so the search is exact, and in
    :func:`_reference_bfs_up_to_sign` the word up to sign."""
    if not _same_fiber(a, b):
        raise DimensionMismatch("search requires identical fibers")
    if len(a.cycles) != len(b.cycles):
        raise DimensionMismatch("search requires words of equal length")

    start = state(a.word_classes())
    goal = state(b.word_classes())
    if start == goal:
        return ()
    ref = ReferenceForm(a.fiber.pattern, a.fiber.sphere_dim, signs)
    twist = partial(reference_twist, ref)
    alphabet = reference_alphabet(len(start))
    parents: dict = {start: None}
    frontier = deque([start])
    for _ in range(max_depth):
        if not frontier:
            break
        next_frontier: deque = deque()
        for word in frontier:
            for move in alphabet:
                child = state(sliced_move_word(word, move, twist))
                if child == goal:
                    seq = [move]
                    back = word
                    while parents[back] is not None:
                        prev, mv = parents[back]
                        seq.append(mv)
                        back = prev
                    return tuple(reversed(seq))
                if child not in parents:
                    parents[child] = (word, move)
                    next_frontier.append(child)
        frontier = next_frontier
    return None


def _reference_bfs_up_to_sign(a, b, max_depth: int, signs: Signs = PROGRAM_SIGNS):
    """The oracle of the search's contract: :func:`_reference_bfs` over
    words whose classes are each replaced by their sign representative.
    The moves are well defined on such words, as the twist around -l is the
    twist around l and each twist is linear; so the first script found is
    the least shortest one that replays a to b up to the sign of each
    class."""
    return _reference_bfs(a, b, max_depth, signs, _signless)


# settings of the three signs (s, e, eps) that the reference search runs
# in; each is checked where the basis flip of equivalent carries it to the
# program's lattice: at even n, where the form is antisymmetric and s plays
# no part, every setting, and at odd n the geometric ones, eps * s = -2
REFERENCE_SIGNS = [
    Signs(-2, 1, 1),
    Signs(-2, 1, -1),
    Signs(-2, -1, 1),
    Signs(-2, -1, -1),
    Signs(2, 1, 1),
    Signs(2, 1, -1),
    Signs(0, 1, 1),
]


def signs_at(n):
    return [c for c in REFERENCE_SIGNS if n % 2 == 0 or c.twist_sign * c.self_intersection == -2]


def _map_classes(alf, matrix):
    r = len(matrix)
    return replace(
        alf,
        cycles=tuple(
            replace(c, cls=tuple(sum(matrix[i][j] * c.cls[j] for j in range(r)) for i in range(r)))
            for c in alf.cycles
        ),
    )


@st.composite
def search_cases(draw):
    """A short word, a target reached from it by a random move script under
    the reference twist in the case's signs, and optionally one of the two
    mapped through a random integer matrix."""
    n = draw(st.sampled_from([3, 4, 5]))
    signs = draw(st.sampled_from(signs_at(n)))
    if draw(st.booleans()):
        m = draw(st.integers(1, 2))
        source = family_word(m, draw(st.integers(1, m)), n)
    else:
        source = fibrate(order_tree(random_tree(draw(seeds), 3)), n)
    alphabet = reference_alphabet(len(source.cycles))
    script = draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=5))
    target = reference_moved(source, script, signs)
    if draw(st.booleans()):
        r = len(source.fiber.pattern.vertices)
        row = st.lists(st.integers(-2, 2), min_size=r, max_size=r)
        matrix = draw(st.lists(row, min_size=r, max_size=r))
        if draw(st.booleans()):
            target = _map_classes(target, matrix)
        else:
            source = _map_classes(source, matrix)
    if draw(st.booleans()):
        source, target = target, source
    return source, target, signs


def search_outcome(search, *args):
    try:
        return search(*args)
    except PlumbweaveError as exc:
        return type(exc)


def assert_matches_up_to_sign(got, a, b, max_depth, signs):
    """``got``, the search's outcome on a and b in a basis where its edge
    sign is +1, is the outcome of :func:`_reference_bfs_up_to_sign` on a
    and b in ``signs``, and no longer than an exact witness."""
    assert got == search_outcome(_reference_bfs_up_to_sign, a, b, max_depth, signs)
    exact = search_outcome(_reference_bfs, a, b, max_depth, signs)
    if isinstance(exact, tuple):
        assert len(got) <= len(exact)


def sphere_source(alf) -> bool:
    return all(_isometric_centre(alf.fiber, c) for c in alf.word_classes())


def centre_twist(form, l, x, power=1):
    """dehn_twist, after checking that ``l`` is an isometric centre and that
    both classes have the form's rank."""
    assert len(l) == len(x) == len(form.pattern.vertices) and _isometric_centre(form, l), (l, x)
    return dehn_twist(form, l, x, power)


@given(search_cases(), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_search_matches_reference_bfs(case, depth):
    # the reference searches one-sided from any source in the case's signs,
    # and the search at edge sign +1 the words that equivalent flips; it
    # takes sphere sources only, and on those every twist it makes is
    # around a centre, so none can raise.  The flip is linear, so it maps
    # words equal up to sign to words equal up to sign
    source, target, signs = case
    flip = equivalent(signs, source.fiber.pattern)
    flipped_source, flipped_target = flip_word(source, flip), flip_word(target, flip)
    if not sphere_source(flipped_source):
        with pytest.raises(NonInvertibleTwist):
            search_equivalence(flipped_source, flipped_target, depth)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moves, "dehn_twist", centre_twist)
        got = search_outcome(search_equivalence, flipped_source, flipped_target, depth)
    assert_matches_up_to_sign(got, source, target, depth, signs)
    if isinstance(got, tuple):
        assert equal_up_to_sign(replay(flipped_source, got), flipped_target)


def test_search_reaches_past_one_sided_depth():
    a, b = family_word(10, 1, 5), family_word(10, 7, 5)
    wit = search_equivalence(a, b, 6)
    assert wit is not None and len(wit) <= 6
    assert equal_homology(replay(a, wit), b)


def test_search_exhausts_a_finite_orbit():
    # the antisymmetric orbit of this word is finite (about 2000 states)
    # and does not hold the target, so both frontiers run dry before depth 8
    assert search_equivalence(family_word(6, 1, 4), family_word(6, 3, 4), 8) is None


@pytest.mark.parametrize(
    "source, target, depth, witness",
    [
        (
            (10, 1, 5),
            (10, 7, 5),
            6,
            (MoveRecord(CYCLIC),) * 3 + (MoveRecord(HURWITZ_B, 9), MoveRecord(HURWITZ_B, 8)),
        ),
        ((6, 1, 4), (6, 3, 4), 8, None),
    ],
    ids=["found", "orbit exhausted"],
)
def test_search_computes_each_twist_once(monkeypatch, source, target, depth, witness):
    computed = Counter()

    def counting_twist(form, l, x, power=1):
        computed[l, x, power] += 1
        return dehn_twist(form, l, x, power)

    monkeypatch.setattr(moves, "dehn_twist", counting_twist)
    a, b = family_word(*source), family_word(*target)
    assert search_equivalence(a, b, depth) == witness
    assert computed and max(computed.values()) == 1
    computed.clear()  # nothing outlives the call: a second search computes its own twists
    assert search_equivalence(a, b, depth) == witness
    assert computed and max(computed.values()) == 1


# a hand-built source: beta -> 2*beta makes a class of square -8, which is
# no isometric centre, and the inverse twist around it has no integer form
HAND_BUILT_SOURCE = _map_classes(family_word(6, 1, 5), ((1, 0), (0, 2)))


SOURCE_REFUSAL = r"^source cycle 2 \(edge:e6\) has square -8 under edge sign \+1;"


def test_one_sided_search_raises_on_a_non_invertible_twist():
    # hurwitz_b needs the inverse twist around 2*beta: the search refuses the
    # source before any move, at every depth, and the reference search, which
    # has no such check, raises where it meets that twist
    a, b = HAND_BUILT_SOURCE, family_word(6, 5, 5)
    assert {a.fiber.pair(c, c) for c in a.word_classes()} == {-2, -8}
    for depth in range(6):
        with pytest.raises(NonInvertibleTwist, match=SOURCE_REFUSAL):
            search_equivalence(a, b, depth)
    for depth in range(1, 6):
        with pytest.raises(NonInvertibleTwist):
            _reference_bfs(a, b, depth)


def test_one_sided_search_is_not_cut_by_the_lattice():
    # the source's class 2*beta is no isometric centre, so a target whose
    # classes span another lattice, of another homology, is refused for the
    # source and not cut by the homology check
    a = HAND_BUILT_SOURCE
    b = _map_classes(family_word(6, 5, 5), ((1, 1), (0, 4)))
    assert total_homology(a) != total_homology(b)
    for depth in (0, 1, 4):
        with pytest.raises(NonInvertibleTwist, match=SOURCE_REFUSAL):
            search_equivalence(a, b, depth)
    for depth in (1, 4):
        with pytest.raises(NonInvertibleTwist):
            _reference_bfs(a, b, depth)


def test_search_refuses_a_source_that_is_no_sphere_word(ex_ordered):
    # the refusal comes before any move, even against the source itself
    a = HAND_BUILT_SOURCE
    for depth in range(6):
        with pytest.raises(NonInvertibleTwist, match=SOURCE_REFUSAL):
            search_equivalence(a, a, depth)
    # a word moved under edge sign -1 holds classes of square -6 at +1:
    # refused as it is, and searched once the basis flip has carried it over
    neg = Signs(-2, -1, 1)
    script = (MoveRecord(HURWITZ_A, 1), MoveRecord(HURWITZ_B, 0))
    word = reference_moved(fibrate(ex_ordered, 3), script, neg)
    rotated = cyclic_permute(word)
    with pytest.raises(NonInvertibleTwist, match="has square -6"):
        search_equivalence(word, rotated, 1)
    flip = equivalent(neg, word.fiber.pattern)
    assert search_equivalence(flip_word(word, flip), flip_word(rotated, flip), 1) == (
        MoveRecord(CYCLIC),
    )


def equal_pairs(alf):
    """The indices i at which classes i and i + 1 of ``alf`` agree up to sign."""
    word = _signless(alf.word_classes())
    return [i for i in range(len(word) - 1) if word[i] == word[i + 1]]


@given(
    seeds, st.sampled_from([3, 4, 5, 6]), st.lists(st.tuples(st.integers(0, 2), seeds), max_size=6)
)
@settings(max_examples=100, deadline=None)
def test_a_hurwitz_move_on_an_equal_pair_fixes_a_sphere_word(seed, n, script):
    # the search skips these moves: around a sphere class x, T_x(x) =
    # (1 + <x, x>) x, which is -x at odd n and x at even n
    alf = fibrate(order_tree(random_tree(seed, 12)), n)
    for kind, r in script:
        i = r % (len(alf.cycles) - 1)
        alf = (cyclic_permute(alf), hurwitz_a(alf, i), hurwitz_b(alf, i))[kind]
    assert sphere_source(alf)
    for i in equal_pairs(alf):
        for move in (hurwitz_a, hurwitz_b):
            assert equal_up_to_sign(move(alf, i), alf)


def test_a_hurwitz_move_on_an_equal_pair_moves_a_class_that_is_no_sphere():
    # off the search's domain the identity fails: at odd n, 2*beta has square
    # -8 and twists around itself to (1 - 8) * 2*beta = -14*beta, so the
    # search must refuse such a source before it skips an equal pair
    fiber = family_word(1, 1, 3).fiber
    two_beta = VanishingCycle("edge:e1", (0, 2), "2β")
    alf = AbstractLF(fiber, (two_beta, two_beta))
    assert fiber.pair((0, 2), (0, 2)) == -8 and equal_pairs(alf) == [0]
    moved = hurwitz_a(alf, 0)
    assert moved.word_classes() == ((0, 2), (0, -14))
    assert not equal_up_to_sign(moved, alf)
    for b in (alf, moved):
        with pytest.raises(NonInvertibleTwist, match=r"^source cycle 0 \(edge:e1\) has square -8"):
            search_equivalence(alf, b, 1)


# tree words with multi-coordinate classes: random trees of 6 to 8 vertices
TREE_SEEDS = [0, 2, 5, 6, 10, 17, 19, 20]


@pytest.mark.slow
@pytest.mark.parametrize(
    "n, signs",
    [(n, c) for n in (3, 4) for c in signs_at(n)],
    ids=lambda c: str(c) if isinstance(c, int) else f"c{c[0]}{c[1]:+d}{c[2]:+d}",
)
def test_search_matches_reference_bfs_on_tree_words(n, signs):
    # the reference in the signs given, the search at edge sign +1 on the
    # words that equivalent flips
    for seed in TREE_SEEDS:
        t = random_tree(seed, 8)
        assert 6 <= len(t.vertices) <= 8
        source = fibrate(order_tree(t), n)
        rng = random.Random(seed)
        script = []
        for _ in range(rng.randint(2, 3)):
            kind, i = rng.choice("cab"), rng.randrange(len(source.cycles) - 1)
            hurwitz = HURWITZ_A if kind == "a" else HURWITZ_B
            script.append(MoveRecord(CYCLIC) if kind == "c" else MoveRecord(hurwitz, i))
        target = reference_moved(source, script, signs)
        first = target.cycles[0]
        negated = replace(first, cls=tuple(-v for v in first.cls))
        flip = equivalent(signs, source.fiber.pattern)
        for goal in (target, replace(target, cycles=(negated,) + target.cycles[1:])):
            got = search_outcome(
                search_equivalence, flip_word(source, flip), flip_word(goal, flip), 3
            )
            assert_matches_up_to_sign(got, source, goal, 3, signs)


def test_search_isometry_cut_returns_none():
    # squares are kept by isometries, so a target class of square -8 is
    # out of reach of a word of (-2)-classes at any depth
    a = family_word(6, 1, 5)
    b = _map_classes(family_word(6, 3, 5), ((2, 0), (0, 1)))
    assert search_equivalence(a, b, 50) is None
    assert _reference_bfs(a, b, 2) is None


def _count_twists(monkeypatch) -> Counter:
    computed = Counter()

    def counting_twist(form, l, x, power=1):
        computed[l, x, power] += 1
        return dehn_twist(form, l, x, power)

    monkeypatch.setattr(moves, "dehn_twist", counting_twist)
    return computed


# at even n the fiber form is antisymmetric, so every class is an isometric
# centre and the search is two-sided; this target's classes span a
# sublattice of index 2, which no move can reach
INDEX_2_PAIR = (family_word(6, 1, 4), _map_classes(family_word(6, 3, 4), ((1, 1), (0, 2))))


def test_search_lattice_cut_returns_none_before_any_twist(monkeypatch):
    a, b = INDEX_2_PAIR
    assert _reference_bfs(a, b, 3) is None
    computed = _count_twists(monkeypatch)
    assert search_equivalence(a, b, 8) is None
    assert not computed


def test_search_lattice_cut_at_scale(monkeypatch):
    t = random_tree(86, 400)
    assert len(t.vertices) == 400
    a = fibrate(order_tree(t), 4)
    doubled = tuple(replace(c, cls=(2 * c.cls[0],) + c.cls[1:]) for c in a.cycles)
    b = cyclic_permute(replace(a, cycles=doubled))
    computed = _count_twists(monkeypatch)
    for depth in (2, 6):
        assert search_equivalence(a, b, depth) is None
        assert not computed


@pytest.mark.parametrize("kind", [float, bool])
def test_search_lattice_cut_refuses_non_integer_entries(kind):
    # a hand-built word only: the fibration reader refuses such entries
    a, b = INDEX_2_PAIR
    a = replace(a, cycles=tuple(replace(c, cls=tuple(map(kind, c.cls))) for c in a.cycles))
    for depth in (0, 2):
        with pytest.raises(FormatError):
            search_equivalence(a, b, depth)


@st.composite
def same_shape_pairs(draw):
    """Two words on one fiber and of one length: random class words, one of
    them sometimes the other's image under a random integer matrix with
    rows shuffled, or a family word against an index-d image of another."""
    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        m = draw(st.integers(1, 6))
        a = family_word(m, draw(st.integers(1, m)), n)
        d = draw(st.integers(1, 4))
        k = draw(st.integers(-3, 3))
        matrix = draw(st.sampled_from([((1, k), (0, d)), ((d, 0), (k, 1)), ((k, d), (1, 0))]))
        return a, _map_classes(family_word(m, draw(st.integers(1, m)), n), matrix)
    r = draw(st.integers(1, 4))
    names = tuple(f"w{i}" for i in range(r))
    pattern = UnrootedTree(names, tuple((names[draw(st.integers(0, i - 1))], names[i])
                                        for i in range(1, r)))
    fiber = PlumbingDescriptor(pattern, draw(st.integers(1, 5)))
    length = draw(st.integers(0, 6))
    entries = st.integers(-3, 3)
    rows = [tuple(draw(entries) for _ in range(r)) for _ in range(length)]
    if draw(st.booleans()):
        matrix = [[draw(st.integers(-2, 2)) for _ in range(r)] for _ in range(r)]
        if draw(st.booleans()):  # unimodular: upper unitriangular
            matrix = [[int(i == j) if i >= j else v for j, v in enumerate(row)]
                      for i, row in enumerate(matrix)]
        image = [tuple(sum(matrix[i][j] * x[j] for j in range(r)) for i in range(r))
                 for x in rows]
        other = draw(st.permutations(image))
    else:
        other = [tuple(draw(entries) for _ in range(r)) for _ in range(length)]

    def word(classes):
        return AbstractLF(fiber, tuple(VanishingCycle(f"stab:{i}", c, "c")
                                       for i, c in enumerate(classes)))

    return word(rows), word(other)


@given(same_shape_pairs())
@settings(max_examples=300, deadline=None)
def test_homology_certificates_differ_when_the_class_rows_do(pair):
    # the search's lattice cut compares certificates; on one fiber and one
    # word length that is the Smith normal form of the class rows
    a, b = pair
    rows_differ = smith_normal_form(a.word_classes()) != smith_normal_form(b.word_classes())
    assert (total_homology(a) != total_homology(b)) == rows_differ


@pytest.mark.parametrize("side", ["source", "target"])
def test_search_wrong_length_class_matches_reference(side):
    # a hand-built word may carry a class of the wrong length: the search
    # refuses it on either side at every depth, before any move; the
    # reference twist refuses it only in the source, where a twist meets it
    a, b = family_word(2, 1, 5), family_word(2, 2, 5)
    bad = replace(b.cycles[0], cls=(1, 0, 0))
    if side == "source":
        a = replace(a, cycles=(bad,) + a.cycles[1:])
    else:
        b = replace(b, cycles=(bad,) + b.cycles[1:])
    for depth in range(6):
        with pytest.raises(DimensionMismatch, match="classes of length 2"):
            search_equivalence(a, b, depth)
        if side == "source" and depth:
            with pytest.raises(DimensionMismatch):
                _reference_bfs(a, b, depth)


@pytest.fixture(scope="module")
def wide_word():
    """A word with more distinct classes than one byte of class ids holds."""
    t = random_tree(0, 900)
    alf = fibrate(order_tree(t), 4)
    assert (len(t.vertices), len(alf.fiber.pattern.vertices), len(alf.cycles)) == (866, 328, 1194)
    assert len(set(alf.word_classes())) > 256
    return alf


@pytest.mark.slow
def test_search_matches_reference_bfs_past_one_byte_of_ids(wide_word):
    a = wide_word
    b = hurwitz_a(a, len(a.cycles) - 3)
    assert search_equivalence(a, b, 1) == _reference_bfs(a, b, 1)


def test_search_replays_past_one_byte_of_ids(wide_word):
    a = wide_word
    b = hurwitz_b(hurwitz_a(a, len(a.cycles) - 3), 5)
    wit = search_equivalence(a, b, 2)
    assert wit is not None and len(wit) == 2
    assert equal_homology(replay(a, wit), b)


def test_search_refuses_more_classes_than_state_characters(monkeypatch):
    # this search meets three classes up to sign, alpha, beta and
    # alpha + beta, so ids 0..2; a bound below that raises a typed error,
    # not chr's ValueError
    a, b = family_word(10, 1, 5), family_word(10, 7, 5)
    monkeypatch.setattr(moves, "_MAX_CLASS_ID", 2)
    assert len(search_equivalence(a, b, 6)) == 5
    for bound in (0, 1):
        monkeypatch.setattr(moves, "_MAX_CLASS_ID", bound)
        with pytest.raises(IndexOutOfRange):
            search_equivalence(a, b, 6)


def _a_d_words(m, n):
    """The words of D_{m+2}, the chain u0..um with a leaf at u1, and of
    A_{m+2}, the chain u0..u(m+1) rooted at (u1, c1), at ``n``."""
    d = fibrate(order_tree(family_tree(m, 1)), n)
    chain = "root u1 c1\n" + "".join(f"edge c{i} u{i} u{i + 1}\n" for i in range(m + 1))
    return d, fibrate(order_tree(parse_tree(chain)), n)


def test_search_finds_the_closed_form_a_d_witness():
    # at odd n three cyclic moves and then hurwitz_b at 4, 3, 2 and 1 turn
    # the D_7 word into the A_7 word, and no shorter script does
    d, a = _a_d_words(5, 3)
    wit = search_equivalence(d, a, 7)
    assert wit == (MoveRecord(CYCLIC),) * 3 + tuple(MoveRecord(HURWITZ_B, i) for i in (4, 3, 2, 1))
    assert replay(d, wit).word_classes() == a.word_classes()
    assert search_equivalence(d, a, 6) is None


# Pairs checked against the reference at every depth up to 6.  The step
# whose depths add up to the depth budget only probes, and the budget
# decides which side takes it.  At budgets 1, 2, ... it is backward (b) or
# forward (f) as listed; a * marks a probe that meets the other side, and a
# larger budget meets before its last step.
#   6,1->6,3 at n = 3 and 5:            b f*
#   6,1->6,5 at n = 3, 4 and 5:         b f b*
#   6,1->6,3 at n = 4:                  b f b f b f
#   D->A, m = 3, n = 3:                 b f b f b*
#   A->D, m = 3, n = 3:                 b f f b*
#   D->A, m = 3, n = 4 and m = 4, n = 3: b f b f b f
#   A->D, m = 3, n = 4:                 b f b f f b
#   A->D, m = 4, n = 3:                 b f f b f b
BUDGET_PAIRS = {
    f"6,1->6,{j}, n={n}": (family_word(6, 1, n), family_word(6, j, n))
    for n in (3, 4, 5)
    for j in (3, 5)
}
for m, n in ((3, 3), (3, 4), (4, 3)):
    d, a = _a_d_words(m, n)
    BUDGET_PAIRS[f"D->A, m={m}, n={n}"] = (d, a)
    BUDGET_PAIRS[f"A->D, m={m}, n={n}"] = (a, d)


@pytest.mark.parametrize("pair", list(BUDGET_PAIRS))
def test_search_matches_reference_bfs_at_every_budget(pair):
    a, b = BUDGET_PAIRS[pair]
    for depth in range(7):
        assert search_outcome(search_equivalence, a, b, depth) == (
            search_outcome(_reference_bfs, a, b, depth)
        ), depth


@pytest.mark.slow
def test_search_stores_no_layer_at_the_budget():
    # D_8 -> A_8 at n = 3 has no witness within 8 moves, so both sides grow
    # until the budget is spent; the step that spends it stores no layer
    d, a = _a_d_words(6, 3)
    assert search_equivalence(d, a, 0) is None  # builds the form outside the measure
    tracemalloc.start()
    try:
        assert search_equivalence(d, a, 8) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * 1024


@pytest.mark.slow
def test_search_memory_at_d17():
    # D_17 -> A_17 at n = 3 and depth 17: the move that first reached a
    # state rides beside the frontiers, and a forward state links to its
    # parent only, so the peak stays below the 6.96 MiB of the search that
    # linked each state to its parent and its move (5.8 MiB on CPython 3.11)
    d, a = _a_d_words(15, 3)
    assert search_equivalence(d, a, 0) is None
    tracemalloc.start()
    try:
        wit = search_equivalence(d, a, 17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wit is not None and len(wit) == 17
    assert peak < 6.9 * 2**20


def _moved(alf, *script):
    """``alf`` after ``script``, each class up to sign."""
    return _signless(replay(alf, script).word_classes())


def test_skip_rule_disjoint_pairs_commute():
    # rule (1): after hurwitz_b at 5, hurwitz_a at 1 comes first in the
    # alphabet and is disjoint from it, so the script that moves at 1 first
    # builds the same child
    a = family_word(10, 3, 3)
    late, early = MoveRecord(HURWITZ_B, 5), MoveRecord(HURWITZ_A, 1)
    alphabet = moves._state_moves(len(a.cycles))
    assert alphabet.index(early) < alphabet.index(late)
    assert _moved(a, late, early) == _moved(a, early, late)
    steps = moves._state_steps(len(a.cycles))[alphabet.index(late)][2]
    assert (alphabet.index(early), HURWITZ_A, 1) not in steps
    # a pair that overlaps the last one is kept, whatever its place
    assert (alphabet.index(MoveRecord(HURWITZ_B, 4)), HURWITZ_B, 4) in steps


def test_skip_rule_the_other_kind_undoes_a_move():
    # rule (2): hurwitz_b at i after hurwitz_a at i gives the parent back,
    # and the reverse
    a = family_word(10, 3, 3)
    alphabet = moves._state_moves(len(a.cycles))
    table = moves._state_steps(len(a.cycles))
    for first, then in ((HURWITZ_A, HURWITZ_B), (HURWITZ_B, HURWITZ_A)):
        for i in (2, 4):
            assert _moved(a, MoveRecord(first, i), MoveRecord(then, i)) == _signless(
                a.word_classes()
            )
            steps = table[alphabet.index(MoveRecord(first, i))][2]
            assert (alphabet.index(MoveRecord(then, i)), then, i) not in steps
            assert (alphabet.index(MoveRecord(first, i)), first, i) in steps


def test_skip_rule_rotation_after_a_move():
    # rule (3): rotating after a move at pair j >= 1 is moving at j - 1
    # after rotating, a smaller script; backward, the right rotation after
    # a move at j <= m - 3 is a move at j + 1 after it
    a = family_word(10, 3, 3)
    m = len(a.cycles)
    alphabet, table = moves._state_moves(m), moves._state_steps(m)
    rot = MoveRecord(CYCLIC)
    for kind in (HURWITZ_A, HURWITZ_B):
        for j in range(m - 1):
            shift_f, shift_b, _ = table[alphabet.index(MoveRecord(kind, j))]
            assert shift_f == (1 if j == 0 else 0)
            assert shift_b == (-1 if j == m - 2 else 0)
            if j >= 1:
                assert _moved(a, MoveRecord(kind, j), rot) == _moved(
                    a, rot, MoveRecord(kind, j - 1)
                )
            if j <= m - 3:
                # the right rotation is m - 1 left ones
                right = (rot,) * (m - 1)
                assert _moved(a, MoveRecord(kind, j), *right) == _moved(
                    a, *right, MoveRecord(kind, j + 1)
                )


@st.composite
def deep_search_cases(draw):
    """A family word of 4-8 classes or a random tree word of at most 7
    vertices, a target reached from it by 2-4 random cyclic and Hurwitz
    moves with some classes negated, and a depth of 3-6 but no more than
    the script's length, which bounds the one-sided reference; a witness
    of 4 moves has both sides of the search expand two layers."""
    n = draw(st.sampled_from([3, 4, 5]))
    if draw(st.booleans()):
        m = draw(st.integers(4, 8))
        source = family_word(m, draw(st.integers(1, m)), n)
    else:
        source = fibrate(order_tree(random_tree(draw(seeds), 7)), n)
    m = len(source.cycles)
    script = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from([CYCLIC, HURWITZ_A, HURWITZ_B]))
        index = draw(st.integers(0, max(m - 2, 0)))
        if kind == CYCLIC or m < 2:
            script.append(MoveRecord(CYCLIC))
        else:
            script.append(MoveRecord(kind, index))
    target = replay(source, script)
    flips = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    target = replace(
        target,
        cycles=tuple(
            replace(c, cls=tuple(-v for v in c.cls)) if flip else c
            for c, flip in zip(target.cycles, flips)
        ),
    )
    return source, target, min(draw(st.integers(3, 6)), len(script))


@given(deep_search_cases())
@settings(max_examples=200, deadline=None)
def test_search_with_skipped_children_matches_reference(case):
    # the skip rules drop only children that a smaller script has built, so
    # the search still returns the reference's least shortest witness
    source, target, depth = case
    got = search_equivalence(source, target, depth)
    assert got == _reference_bfs_up_to_sign(source, target, depth)
    if got is not None:
        assert equal_up_to_sign(replay(source, got), target)


# ---------------------------------------------------------------------------
# move invariance of total-space invariants


@given(seeds, st.sampled_from([3, 4, 5]))
@settings(max_examples=30, deadline=None)
def test_moves_preserve_homology(seed, n):
    t = random_tree(seed, 10)
    alf = fibrate(order_tree(t), n)
    base = total_homology(alf)
    rng = random.Random(seed)
    cur = alf
    for k in range(25):
        mlen = len(cur.cycles)
        kind = rng.choice("cabs")
        if kind == "c":
            cur = cyclic_permute(cur)
        elif kind == "a":
            cur = hurwitz_a(cur, rng.randrange(mlen - 1))
        elif kind == "b":
            cur = hurwitz_b(cur, rng.randrange(mlen - 1))
        else:
            attach = cur.fiber.pattern.vertices[
                rng.randrange(len(cur.fiber.pattern.vertices))
            ]
            cur = stabilize(cur, attach, rng.randrange(mlen + 1))
        assert total_homology(cur) == base


@pytest.mark.slow
@pytest.mark.parametrize("n", [3, 4])
def test_move_script_matches_reference_twist_at_scale(n):
    """A seeded script of 300 cyclic and Hurwitz moves at random indices on
    the word of a 1500-vertex tree: after each move every class equals the
    reference twist's, and every label and display follows the move rule."""
    t = random_tree(84, 1500)
    assert len(t.vertices) == 1500
    alf = fibrate(order_tree(t), n)
    ref = ReferenceForm(alf.fiber.pattern, alf.fiber.sphere_dim, PROGRAM_SIGNS)
    word = list(alf.word_classes())
    names = [(c.label, c.display) for c in alf.cycles]
    rng = random.Random(n)
    twisted = 0
    for _ in range(300):
        kind = rng.choice("abc")
        if kind == "c":
            alf = cyclic_permute(alf)
            word = word[1:] + word[:1]
            names = names[1:] + names[:1]
        else:
            i = rng.randrange(len(word) - 1)
            x, y = word[i], word[i + 1]
            (xl, xd), (yl, yd) = names[i], names[i + 1]
            if kind == "a":
                alf = hurwitz_a(alf, i)
                word[i : i + 2] = [y, reference_twist(ref, y, x)]
                names[i : i + 2] = [(yl, yd), (xl, f"τ[{yd}]({xd})")]
            else:
                alf = hurwitz_b(alf, i)
                word[i : i + 2] = [reference_twist(ref, x, y, -1), x]
                names[i : i + 2] = [(yl, f"τ^{{-1}}[{xd}]({yd})"), (xl, xd)]
            twisted += word[i : i + 2] != [y, x]
        assert alf.word_classes() == tuple(word)
        assert [(c.label, c.display) for c in alf.cycles] == names
    assert twisted >= 75
    assert total_homology(alf) == wedge_oracle(t, n)


# ---------------------------------------------------------------------------
# serialization and grammar


def test_move_sequence_round_trip():
    seq = (
        MoveRecord("cyclic_permute"),
        MoveRecord("hurwitz_a", 3),
        MoveRecord("hurwitz_b", 0),
        MoveRecord("stabilize", 2, "w0"),
    )
    assert moves_from_json(moves_to_json(seq)) == seq


def test_moves_from_json_rejects_garbage():
    with pytest.raises(FormatError):
        moves_from_json('[{"kind": "teleport"}]')
    with pytest.raises(FormatError):
        moves_from_json('[{"kind": "hurwitz_a"}]')
    with pytest.raises(FormatError):
        moves_from_json("{}")


@pytest.mark.parametrize(
    "item",
    [
        '{"kind": "cyclic_permute", "index": [1, 2], "vertex": 5}',
        '{"kind": "cyclic_permute", "index": 0}',
        '{"kind": "hurwitz_a", "index": 1, "vertex": "w0"}',
        '{"kind": "hurwitz_b", "index": 1, "vertex": false}',
    ],
    ids=[
        "cyclic with index and vertex",
        "cyclic with index",
        "hurwitz_a with vertex",
        "hurwitz_b with false",
    ],
)
def test_moves_from_json_rejects_a_field_the_kind_does_not_use(item):
    with pytest.raises(FormatError):
        moves_from_json(f"[{item}]")


def test_moves_from_json_reads_a_null_unused_field_as_absent():
    seq = moves_from_json(
        '[{"kind": "cyclic_permute", "index": null, "vertex": null},'
        ' {"kind": "hurwitz_a", "index": 2, "vertex": null}]'
    )
    assert seq == (MoveRecord(CYCLIC), MoveRecord(HURWITZ_A, 2))
    assert json.loads(moves_to_json(seq)) == [
        {"kind": "cyclic_permute"},
        {"kind": "hurwitz_a", "index": 2},
    ]


def test_moves_from_json_rejects_a_lone_surrogate_vertex():
    # no UTF-8 output can carry it, so moves_to_json could not write it back
    with pytest.raises(FormatError):
        moves_from_json('[{"kind": "stabilize", "index": 0, "vertex": "\\ud800"}]')


def _bad_type_calls():
    """(id, call) for every public move, and every producer of a total-space
    parameter n, given a value of the wrong type."""
    for i in (None, 1.0, True, "1"):
        yield f"hurwitz_a-{i!r}", lambda alf, ot, i=i: hurwitz_a(alf, i)
        yield f"hurwitz_b-{i!r}", lambda alf, ot, i=i: hurwitz_b(alf, i)
        yield f"apply_move-{i!r}", lambda alf, ot, i=i: apply_move(alf, MoveRecord(HURWITZ_A, i))
    for v, p in (("w0", 1.0), ("w0", True), (0, 1)):
        yield f"stabilize-{v!r}-{p!r}", lambda alf, ot, v=v, p=p: stabilize(alf, v, p)
    yield "fibrate-3.0", lambda alf, ot: fibrate(ot, 3.0)
    yield "fibrate-True", lambda alf, ot: fibrate(ot, True)
    yield "family_word-3.0", lambda alf, ot: family_word(6, 1, 3.0)
    yield "wedge_oracle-2.5", lambda alf, ot: wedge_oracle(ot.base, 2.5)


BAD_TYPE_CALLS = dict(_bad_type_calls())


@pytest.mark.parametrize("call", list(BAD_TYPE_CALLS))
def test_a_wrong_type_raises_format_error(call, ex_ordered):
    with pytest.raises(FormatError):
        BAD_TYPE_CALLS[call](fibrate(ex_ordered, 3), ex_ordered)


def test_an_integer_too_long_to_write_raises_format_error(ex_ordered):
    # 5001 digits, past the interpreter's default limit of 4300
    with pytest.raises(FormatError):
        MoveRecord(HURWITZ_A, 10**5000)
    with pytest.raises(FormatError):
        fibrate(ex_ordered, 10**5000)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on the digits of an integer",
)
def test_the_digit_limit_is_exact():
    limit = sys.get_int_max_str_digits()
    longest = MoveRecord(HURWITZ_A, 10**limit - 1)
    assert moves_from_json(moves_to_json([longest])) == (longest,)
    with pytest.raises(FormatError):
        MoveRecord(HURWITZ_A, -(10**limit))
    # a move line's index: int() refuses one digit more than the limit
    assert parse_move_line("hurwitzA " + "9" * limit) == longest
    with pytest.raises(FormatError, match="bad index in move line"):
        parse_move_line("hurwitzA " + "9" * (limit + 1))
    with pytest.raises(FormatError, match="bad position in move line"):
        parse_move_line("stabilize w0 -" + "9" * (limit + 1))


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@given(
    st.sampled_from([CYCLIC, HURWITZ_A, HURWITZ_B, moves.STABILIZE]) | json_scalars,
    json_scalars,
    json_scalars,
)
@settings(max_examples=300, deadline=None)
def test_a_move_record_is_refused_or_round_trips(kind, index, vertex):
    try:
        record = MoveRecord(kind, index, vertex)
    except FormatError:
        return
    assert moves_from_json(moves_to_json([record])) == (record,)


def test_parse_move_lines():
    assert parse_move_line("cyclic") == MoveRecord("cyclic_permute")
    assert parse_move_line("hurwitzA 4") == MoveRecord("hurwitz_a", 4)
    assert parse_move_line("hurwitzB 0") == MoveRecord("hurwitz_b", 0)
    assert parse_move_line("stabilize w1 3") == MoveRecord("stabilize", 3, "w1")
    with pytest.raises(FormatError):
        parse_move_line("hurwitzA x")
    with pytest.raises(FormatError):
        parse_move_line("flip 1")
    for line in ("", "  \t"):
        with pytest.raises(FormatError, match="empty move line"):
            parse_move_line(line)
    with pytest.raises(FormatError, match="bad position in move line 'stabilize w1 x'"):
        parse_move_line("stabilize w1 x")
    # an index is ASCII decimal: int() would read each of these
    for token in ("1_0", "٣", "３", "+1", "-0_1", "1_"):
        with pytest.raises(FormatError, match="bad index in move line"):
            parse_move_line(f"hurwitzA {token}")
        with pytest.raises(FormatError, match="bad position in move line"):
            parse_move_line(f"stabilize w0 {token}")
    with pytest.raises(FormatError, match="bad position in move line 'stabilize w0 0_1'"):
        parse_move_line("stabilize w0 0_1")
    # a negative index parses, and apply_move refuses its range
    assert parse_move_line("hurwitzB -1") == MoveRecord("hurwitz_b", -1)
    assert parse_move_line("stabilize w0 -007") == MoveRecord("stabilize", -7, "w0")
    with pytest.raises(IndexOutOfRange):
        apply_move(family_word(1, 1, 5), parse_move_line("hurwitzB -1"))
