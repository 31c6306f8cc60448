import json
import random
import sys
from collections import Counter, deque
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    cyclic_permute,
    equal_homology,
    family_word,
    fibrate,
    hurwitz_a,
    hurwitz_b,
    moves,
    order_tree,
    random_tree,
    replay,
    search_equivalence,
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
from plumbweave.fibration import class_word_json, fiber_form
from plumbweave.lattice import Convention, DEFAULT_CONVENTION, dehn_twist, pattern_form
from plumbweave.moves import (
    CYCLIC,
    HURWITZ_A,
    HURWITZ_B,
    MoveRecord,
    _move_word,
    apply_move,
    _same_fiber,
    _state_moves,
    moves_from_json,
    moves_to_json,
    parse_move_line,
)

from .test_lattice import ReferenceForm, reference_twist

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


def test_hurwitz_index_range(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    with pytest.raises(IndexOutOfRange):
        hurwitz_a(alf, 9)
    with pytest.raises(IndexOutOfRange):
        hurwitz_b(alf, -1)


# each entry runs one MoveRecord, of the kinds it takes
MOVE_ENTRIES = {
    "cyclic_permute": ((CYCLIC,), lambda alf, mv, conv: cyclic_permute(alf)),
    "hurwitz_a": ((HURWITZ_A,), lambda alf, mv, conv: hurwitz_a(alf, mv.index, conv)),
    "hurwitz_b": ((HURWITZ_B,), lambda alf, mv, conv: hurwitz_b(alf, mv.index, conv)),
    "apply_move": ((CYCLIC, HURWITZ_A, HURWITZ_B), apply_move),
    "replay": ((CYCLIC, HURWITZ_A, HURWITZ_B), lambda alf, mv, conv: replay(alf, [mv], conv)),
}


@pytest.mark.parametrize("entry", list(MOVE_ENTRIES))
def test_every_move_entry_is_apply_move(entry, ex_ordered):
    kinds, run = MOVE_ENTRIES[entry]
    alf = fibrate(ex_ordered, 3)
    m = len(alf.cycles)
    empty = replace(alf, cycles=())
    conv = Convention(edge_sign=-1)
    for kind in kinds:
        if kind == CYCLIC:
            with pytest.raises(IndexOutOfRange):
                run(empty, MoveRecord(CYCLIC), conv)
            assert run(alf, MoveRecord(CYCLIC), conv) == apply_move(alf, MoveRecord(CYCLIC))
            continue
        for i in (0, -1, m - 1):
            with pytest.raises(IndexOutOfRange):
                run(empty if i == 0 else alf, MoveRecord(kind, i), conv)
        for i in range(m - 1):
            mv = MoveRecord(kind, i)
            assert run(alf, mv, conv) == apply_move(alf, mv, conv)
    if entry in ("apply_move", "replay"):
        with pytest.raises(FormatError):
            run(alf, MoveRecord("rotate", 0), conv)


@given(seeds, st.sampled_from([3, 4]))
@settings(max_examples=80, deadline=None)
def test_hurwitz_pair_identity_random(seed, n):
    t = random_tree(seed, 12)
    alf = fibrate(order_tree(t), n)
    rng = random.Random(seed)
    i = rng.randrange(len(alf.cycles) - 1)
    assert word_of(hurwitz_b(hurwitz_a(alf, i), i)) == word_of(alf)
    assert word_of(hurwitz_a(hurwitz_b(alf, i), i)) == word_of(alf)


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
    form = pattern_form(alf.fiber.pattern, alf.fiber.sphere_dim)
    grown = stabilize(alf, "w2", 4)
    gform = pattern_form(grown.fiber.pattern, grown.fiber.sphere_dim)
    r = len(alf.fiber.pattern.vertices)

    def unit(size, i):
        return tuple(int(j == i) for j in range(size))

    for i in range(r):
        for j in range(r):
            assert gform.pair(unit(r + 1, i), unit(r + 1, j)) == form.pair(unit(r, i), unit(r, j))
    assert gform.pair(unit(r + 1, r), unit(r + 1, form.basis.index("w2"))) != 0


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
        cycles=tuple(replace(c, display="???") for c in alf.cycles),
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


def test_search_single_move():
    a = family_word(3, 1, 5)
    b = hurwitz_a(a, 0)
    wit = search_equivalence(a, b, 3)
    assert len(wit) == 1
    assert equal_homology(replay(a, wit), b)


def test_search_family_witness():
    a, b = family_word(6, 1, 5), family_word(6, 5, 5)
    wit = search_equivalence(a, b, 6)
    assert wit is not None and len(wit) <= 4
    replayed = replay(a, wit)
    assert equal_homology(replayed, b)
    assert class_word_json(replayed) == class_word_json(b)


def test_search_not_found_is_none():
    a, b = family_word(6, 1, 5), family_word(6, 5, 5)
    assert search_equivalence(a, b, 1) is None


@pytest.mark.parametrize("max_depth", [2.5, "3", True])
def test_search_refuses_a_depth_that_is_not_an_integer(max_depth):
    # a depth of 2.5 would let the search return a witness of 3 moves
    with pytest.raises(FormatError):
        search_equivalence(family_word(6, 1, 5), family_word(6, 5, 5), max_depth)


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
    assert class_word_json(replay(a, wit)) == class_word_json(b)


def _reference_bfs(
    a,
    b,
    max_depth: int,
    convention: Convention = DEFAULT_CONVENTION,
):
    """The one-sided breadth-first search that search_equivalence replaced,
    kept verbatim as its differential oracle."""
    if not _same_fiber(a, b):
        raise DimensionMismatch("search requires identical fibers")
    if len(a.cycles) != len(b.cycles):
        raise DimensionMismatch("search requires words of equal length")

    start = a.word_classes()
    goal = b.word_classes()
    if start == goal:
        return ()
    twist = partial(dehn_twist, fiber_form(a.fiber, convention))
    alphabet = _state_moves(len(start))
    parents: dict = {start: None}
    frontier = deque([start])
    for _ in range(max_depth):
        if not frontier:
            break
        next_frontier: deque = deque()
        for state in frontier:
            for move in alphabet:
                child = _move_word(state, move, twist)
                if child == goal:
                    seq = [move]
                    back = state
                    while parents[back] is not None:
                        prev, mv = parents[back]
                        seq.append(mv)
                        back = prev
                    return tuple(reversed(seq))
                if child not in parents:
                    parents[child] = (state, move)
                    next_frontier.append(child)
        frontier = next_frontier
    return None


# reflections and isometric centres, non-invertible twists (eps * s = 2),
# and invertible non-isometric transvections (s = 0 on a symmetric form)
SEARCH_CONVENTIONS = [
    Convention(-2, 1, 1),
    Convention(-2, 1, -1),
    Convention(-2, -1, 1),
    Convention(-2, -1, -1),
    Convention(2, 1, 1),
    Convention(2, 1, -1),
    Convention(0, 1, 1),
]


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
    """A short word, a target reached from it by a random move script, and
    optionally one of the two mapped through a random integer matrix."""
    convention = draw(st.sampled_from(SEARCH_CONVENTIONS))
    n = draw(st.sampled_from([3, 4, 5]))
    if draw(st.booleans()):
        m = draw(st.integers(1, 2))
        source = family_word(m, draw(st.integers(1, m)), n)
    else:
        source = fibrate(order_tree(random_tree(draw(seeds), 3)), n)
    target = source
    script = st.tuples(st.sampled_from("cab"), st.integers(0, len(source.cycles) - 2))
    for kind, i in draw(st.lists(script, min_size=1, max_size=5)):
        try:
            if kind == "c":
                target = cyclic_permute(target)
            else:
                target = (hurwitz_a if kind == "a" else hurwitz_b)(target, i, convention)
        except NonInvertibleTwist:
            pass
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
    return source, target, convention


def search_outcome(search, *args):
    try:
        return search(*args)
    except PlumbweaveError as exc:
        return type(exc)


@given(search_cases(), st.integers(0, 5))
@settings(max_examples=300, deadline=None)
def test_search_matches_reference_bfs(case, depth):
    source, target, convention = case
    assert search_outcome(search_equivalence, source, target, depth, convention) == (
        search_outcome(_reference_bfs, source, target, depth, convention)
    )


def test_search_reaches_past_one_sided_depth():
    a, b = family_word(10, 1, 5), family_word(10, 7, 5)
    wit = search_equivalence(a, b, 6)
    assert wit is not None and len(wit) <= 6
    assert class_word_json(replay(a, wit)) == class_word_json(b)


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


def test_one_sided_search_raises_on_a_non_invertible_twist():
    # under these signs every sphere class has square 2 and twist sign 1,
    # so no class is an isometric centre and the inverse twist that
    # hurwitz_b needs has no integer form
    convention = Convention(2, 1, 1)
    a, b = family_word(6, 1, 5), family_word(6, 5, 5)
    form = fiber_form(a.fiber, convention)
    assert {form.pair(c, c) for c in a.word_classes()} == {2}
    assert search_equivalence(a, b, 0, convention) is None
    for depth in (1, 4):
        for search in (search_equivalence, _reference_bfs):
            with pytest.raises(NonInvertibleTwist):
                search(a, b, depth, convention)


# tree words with multi-coordinate classes: random trees of 6 to 8 vertices
TREE_SEEDS = [0, 2, 5, 6, 10, 17, 19, 20]


@pytest.mark.slow
@pytest.mark.parametrize(
    "convention",
    SEARCH_CONVENTIONS,
    ids=lambda c: f"c{c.self_intersection}{c.edge_sign:+d}{c.twist_sign:+d}",
)
@pytest.mark.parametrize("n", [3, 4])
def test_search_matches_reference_bfs_on_tree_words(n, convention):
    for seed in TREE_SEEDS:
        t = random_tree(seed, 8)
        assert 6 <= len(t.vertices) <= 8
        source = fibrate(order_tree(t), n)
        rng = random.Random(seed)
        target = source
        for _ in range(rng.randint(2, 3)):
            kind, i = rng.choice("cab"), rng.randrange(len(source.cycles) - 1)
            try:
                if kind == "c":
                    target = cyclic_permute(target)
                else:
                    target = (hurwitz_a if kind == "a" else hurwitz_b)(target, i, convention)
            except NonInvertibleTwist:
                pass
        first = target.cycles[0]
        negated = replace(first, cls=tuple(-v for v in first.cls))
        for goal in (target, replace(target, cycles=(negated,) + target.cycles[1:])):
            assert search_outcome(search_equivalence, source, goal, 3, convention) == (
                search_outcome(_reference_bfs, source, goal, 3, convention)
            )


def test_search_isometry_cut_returns_none():
    # squares are kept by isometries, so a target class of square -8 is
    # out of reach of a word of (-2)-classes at any depth
    a = family_word(6, 1, 5)
    b = _map_classes(family_word(6, 3, 5), ((2, 0), (0, 1)))
    assert search_equivalence(a, b, 50) is None
    assert _reference_bfs(a, b, 2) is None


@pytest.mark.parametrize("side", ["source", "target"])
def test_search_wrong_length_class_matches_reference(side):
    # a hand-built word may carry a class of the wrong length: the twist
    # rejects it in the source, and a target holding one is out of reach
    a, b = family_word(2, 1, 5), family_word(2, 2, 5)
    bad = replace(b.cycles[0], cls=(1, 0, 0))
    if side == "source":
        a = replace(a, cycles=(bad,) + a.cycles[1:])
    else:
        b = replace(b, cycles=(bad,) + b.cycles[1:])
    for depth in (0, 1, 3):
        assert search_outcome(search_equivalence, a, b, depth) == (
            search_outcome(_reference_bfs, a, b, depth)
        )


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
    t = random_tree(84, 1500)
    assert len(t.vertices) == 1500
    alf = fibrate(order_tree(t), n)
    ref = ReferenceForm(alf.fiber.pattern, alf.fiber.sphere_dim, DEFAULT_CONVENTION)
    word = list(alf.word_classes())
    rng = random.Random(n)
    twisted = 0
    for _ in range(86):
        kind = rng.choice("abc")
        if kind == "c":
            alf = cyclic_permute(alf)
            word = word[1:] + word[:1]
            continue
        i = rng.randrange(len(word) - 1)
        x, y = word[i], word[i + 1]
        if kind == "a":
            alf = hurwitz_a(alf, i)
            word[i : i + 2] = [y, reference_twist(ref, y, x)]
        else:
            alf = hurwitz_b(alf, i)
            word[i : i + 2] = [reference_twist(ref, x, y, -1), x]
        twisted += word[i : i + 2] != [y, x]
        assert alf.word_classes() == tuple(word)
    assert twisted >= 25
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
