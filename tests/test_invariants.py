import copy
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    cyclic_permute,
    euler_characteristic,
    family_word,
    fibrate,
    from_json,
    hurwitz_a,
    hurwitz_b,
    order_tree,
    random_tree,
    stabilize,
    to_json,
    total_homology,
    wedge_oracle,
)
from plumbweave.errors import BadDimension, DimensionMismatch
from plumbweave.fibration import (
    AbstractLF,
    PlumbingDescriptor,
    VanishingCycle,
)
from plumbweave.invariants import HomologyReport, base_case_audit
from plumbweave.lattice import smith_normal_form
from plumbweave.treecore import UnrootedTree

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# Euler characteristic


def test_euler_ex_n3(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    # fiber chi 1 + 4 = 5, minus one 3-cell per cycle
    assert euler_characteristic(alf) == 5 - 10 == -5


def test_euler_two_vertex_chain(a2_ordered):
    alf = fibrate(a2_ordered, 2)
    assert euler_characteristic(alf) == 3  # 1 + (+1) * 2 vertices


@pytest.mark.parametrize("n", [1, 0])
def test_wedge_oracle_rejects_n_below_2(a2_tree, n):
    # as fibrate does: at n = 1 the degrees 0, n - 1 and n would collide
    with pytest.raises(BadDimension):
        wedge_oracle(a2_tree, n)


@given(seeds, st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=100, deadline=None)
def test_euler_equals_wedge_formula(seed, n):
    t = random_tree(seed, 14)
    alf = fibrate(order_tree(t), n)
    assert euler_characteristic(alf) == 1 + (-1) ** n * len(t.vertices)


# ---------------------------------------------------------------------------
# homology of the total space


def test_homology_ex_n3(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    rep = total_homology(alf)
    assert rep.euler == -5
    assert rep.h == ((0, 1, ()), (2, 0, ()), (3, 6, ()))
    assert not rep.caveat
    # boundary map hits all four basis classes with unit columns
    boundary = tuple(zip(*alf.word_classes()))
    assert len(boundary) == 4
    assert len(boundary[0]) == 10


def test_a_report_stores_what_it_says_about_the_space_only():
    assert [f.name for f in fields(HomologyReport)] == ["euler", "h", "caveat"]


def test_homology_two_vertex_chain(a2_ordered):
    rep = total_homology(fibrate(a2_ordered, 4))
    assert rep.h == ((0, 1, ()), (3, 0, ()), (4, 2, ()))


def _reference_h(alf, n):
    """``h`` from the Smith normal form of the boundary map itself: row i
    holds coordinate i of every class, H_{n-1} is its cokernel and H_n its
    kernel."""
    rank = len(alf.fiber.pattern.vertices)
    m = len(alf.cycles)
    boundary = tuple(zip(*(c.cls for c in alf.cycles))) if m else ((),) * rank
    snf = smith_normal_form(boundary)
    free_cok, torsion = snf.cokernel
    return ((0, 1, ()), (n - 1, free_cok, torsion), (n, snf.kernel_rank, ()))


def _with_classes(alf, classes):
    cycles = tuple(
        VanishingCycle(f"stab:{i}", tuple(c), f"c{i}") for i, c in enumerate(classes)
    )
    return replace(alf, cycles=cycles)


def _check_against_reference(alf):
    rep = total_homology(alf)
    assert rep.h == _reference_h(alf, alf.n)
    assert rep.euler == euler_characteristic(alf)
    return rep


@given(seeds, st.sampled_from([2, 3, 4, 5]), st.lists(st.integers(0, 2**16), max_size=12))
@settings(max_examples=80, deadline=None)
def test_homology_matches_boundary_snf_on_moved_words(seed, n, script):
    alf = fibrate(order_tree(random_tree(seed, 40)), n)
    _check_against_reference(alf)
    for k in script:
        move = hurwitz_a if k % 2 else hurwitz_b
        alf = move(alf, (k // 2) % (len(alf.cycles) - 1))
    _check_against_reference(alf)


@given(seeds, st.sampled_from([2, 3, 4, 5]), st.data())
@settings(max_examples=80, deadline=None)
def test_homology_matches_boundary_snf_with_torsion(seed, n, data):
    """Classes pushed through a random integer matrix span a sublattice of
    finite or infinite index, so the cokernel may carry torsion."""
    alf = fibrate(order_tree(random_tree(seed, 10)), n)
    r = len(alf.fiber.pattern.vertices)
    entries = st.integers(-4, 4)
    mat = data.draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r))
    classes = [
        tuple(sum(row[j] * c[j] for j in range(r)) for row in mat) for c in alf.word_classes()
    ]
    _check_against_reference(_with_classes(alf, classes))


@given(
    st.integers(1, 4),
    st.integers(0, 6),
    st.sampled_from([2, 3, 4]),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_homology_matches_boundary_snf_on_arbitrary_words(r, m, n, data):
    chain = UnrootedTree(
        tuple(f"w{i}" for i in range(r)), tuple((f"w{i}", f"w{i + 1}") for i in range(r - 1))
    )
    alf = AbstractLF(PlumbingDescriptor(chain, n - 1), ())
    word = data.draw(
        st.lists(st.lists(st.integers(-6, 6), min_size=r, max_size=r), min_size=m, max_size=m)
    )
    _check_against_reference(_with_classes(alf, word))


def test_homology_of_an_empty_word(a2_ordered):
    alf = replace(fibrate(a2_ordered, 3), cycles=())
    rep = _check_against_reference(alf)
    assert rep.h == ((0, 1, ()), (2, 1, ()), (3, 0, ()))  # H_{n-1} = Z^r, r = 1


def test_homology_torsion_at_rank_one(a2_ordered):
    alf = fibrate(a2_ordered, 4)
    rep = _check_against_reference(_with_classes(alf, [(4,), (6,), (0,)]))
    assert rep.h == ((0, 1, ()), (3, 0, (2,)), (4, 2, ()))


def test_homology_rejects_classes_of_wrong_length(a2_ordered):
    alf = fibrate(a2_ordered, 3)
    short = replace(alf, cycles=alf.cycles + (VanishingCycle("extra", (), "0"),))
    with pytest.raises(DimensionMismatch):
        total_homology(short)


def _fresh(alf):
    """The report of an equal word that shares nothing with ``alf``."""
    return total_homology(from_json(to_json(alf)))


def test_one_snf_per_class_word(monkeypatch, ex_tree):
    calls = []

    def counted(mat):
        calls.append(mat)
        return smith_normal_form(mat)

    monkeypatch.setattr("plumbweave.invariants.smith_normal_form", counted)
    ot = order_tree(ex_tree)
    words = [fibrate(ot, n) for n in range(2, 7)]
    reports = [total_homology(alf) for alf in words]
    assert len(calls) == 1
    assert [r.caveat for r in reports] == [True, False, False, False, False]
    monkeypatch.undo()
    assert reports == [_fresh(alf) for alf in words]


def test_a_word_that_only_looks_like_fibrates_runs_its_own_snf(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    total_homology(alf)
    # a copy keeps the link; given other cycles, it must not read the slot
    other = copy.copy(alf)
    object.__setattr__(other, "cycles", alf.cycles[:3])
    assert other._certificate is alf._certificate
    assert total_homology(other) == _fresh(other) != total_homology(alf)
    assert replace(alf, cycles=alf.cycles[:3])._certificate is None


@given(
    seeds,
    st.lists(st.tuples(st.sampled_from("abcsr"), st.integers(0, 2**16)), max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_a_kept_certificate_is_never_stale(seed, script):
    ot = order_tree(random_tree(seed, 12))
    words = [fibrate(ot, n) for n in (2, 3, 4, 5)]
    for alf in words:
        assert total_homology(alf) == _fresh(alf)
    alf = words[seed % len(words)]
    for kind, k in script:
        m = len(alf.cycles)
        if kind == "a":
            alf = hurwitz_a(alf, k % (m - 1))
        elif kind == "b":
            alf = hurwitz_b(alf, k % (m - 1))
        elif kind == "c":
            alf = cyclic_permute(alf)
        elif kind == "s":
            alf = stabilize(alf, alf.fiber.pattern.vertices[0], k % (m + 1))
        else:  # another word on the fiber: this one rotated, its head repeated
            alf = replace(alf, cycles=alf.cycles[1:] + alf.cycles[: k % 3 + 1])
        rep = _check_against_reference(alf)
        assert rep == _fresh(alf)
    assert [total_homology(w) for w in words] == [_fresh(w) for w in words]


def test_a_shared_certificate_still_checks_the_fiber_rank(ex_ordered, a2_ordered):
    alf = fibrate(ex_ordered, 3)
    total_homology(alf)
    other_rank = fibrate(a2_ordered, 3).fiber
    with pytest.raises(DimensionMismatch):
        total_homology(replace(alf, fiber=other_rank))


def test_caveat_flag(a2_ordered):
    assert total_homology(fibrate(a2_ordered, 2)).caveat
    assert not total_homology(fibrate(a2_ordered, 3)).caveat
    assert wedge_oracle(a2_ordered.base, 2).caveat


def test_wedge_oracle_values(ex_ordered, a2_tree):
    rep = wedge_oracle(ex_ordered.base, 3)
    assert rep.euler == -5
    assert rep.h == ((0, 1, ()), (2, 0, ()), (3, 6, ()))
    rep = wedge_oracle(a2_tree, 4)
    assert rep.euler == 3
    assert rep.h == ((0, 1, ()), (3, 0, ()), (4, 2, ()))


@given(seeds, st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=100, deadline=None)
def test_oracle_match(seed, n):
    t = random_tree(seed, 14)
    alf = fibrate(order_tree(t), n)
    assert total_homology(alf) == wedge_oracle(t, n)


def test_homology_stable_under_many_moves(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    base = total_homology(alf)
    rng = random.Random(2024)
    cur = alf
    for _ in range(50):
        mlen = len(cur.cycles)
        kind = rng.choice("cab")
        if kind == "c":
            cur = cyclic_permute(cur)
        elif kind == "a":
            cur = hurwitz_a(cur, rng.randrange(mlen - 1))
        else:
            cur = hurwitz_b(cur, rng.randrange(mlen - 1))
    assert total_homology(cur) == base


def test_stabilize_preserves_euler(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    grown = stabilize(alf, "w0", 2)
    assert euler_characteristic(grown) == euler_characteristic(alf)
    assert total_homology(grown) == total_homology(alf)


@pytest.mark.slow
@pytest.mark.parametrize("n", [3, 4])
def test_moved_word_matches_oracle_at_scale(n):
    t = random_tree(15, 1000)
    assert len(t.vertices) == 990
    pristine = fibrate(order_tree(t), n)
    rng = random.Random(n)
    alf = pristine
    for _ in range(50):
        alf = hurwitz_a(alf, rng.randrange(len(alf.cycles) - 1))
    assert alf.word_classes() != pristine.word_classes()
    assert total_homology(alf) == wedge_oracle(t, n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [3, 4])
def test_word_matches_oracle_at_largest_scale(n):
    t = max((random_tree(seed, 2000) for seed in range(5)), key=lambda t: len(t.vertices))
    assert len(t.vertices) == 1959
    pristine = fibrate(order_tree(t), n)
    assert total_homology(pristine) == wedge_oracle(t, n)
    rng = random.Random(n)
    alf = pristine
    for _ in range(50):
        alf = hurwitz_a(alf, rng.randrange(len(alf.cycles) - 1))
    assert alf.word_classes() != pristine.word_classes()
    assert total_homology(alf) == wedge_oracle(t, n)


@pytest.mark.slow
def test_word_matches_oracle_at_8000_vertices():
    # a fibrate word holds one class object per fiber vertex, and the Smith
    # normal form reads each once; moved classes are read one by one
    t = random_tree(2, 8000)
    assert len(t.vertices) == 7833
    pristine = fibrate(order_tree(t), 3)
    assert len({id(c) for c in pristine.word_classes()}) == len(pristine.fiber.pattern.vertices)
    assert total_homology(pristine) == wedge_oracle(t, 3)
    rng = random.Random(3)
    alf = pristine
    for _ in range(50):
        alf = hurwitz_a(alf, rng.randrange(len(alf.cycles) - 1))
    assert alf.word_classes() != pristine.word_classes()
    assert total_homology(alf) == wedge_oracle(t, 3)


# ---------------------------------------------------------------------------
# parity discrimination: the same push is trivial or not depending on the
# pairing parity, matching the family verification


def test_parity_discrimination():
    pos = 2 + 1  # the interior β of family_word(8, 2, n) sits at j + 1
    for n, expected in ((5, (0, 1)), (4, (-4, 1))):
        cur = family_word(8, 2, n)
        for k in range(4):
            cur = hurwitz_a(cur, pos + k)
        assert cur.cycles[pos + 4].cls == expected


# ---------------------------------------------------------------------------
# base-case audit


def test_base_case_audit_verdicts():
    audit = base_case_audit()
    assert audit["summary"]["literal_steps_matches_oracle"] is True
    assert audit["summary"]["two_cycle_variant_matches_oracle"] is False
    lit = audit["variants"]["literal_steps"]
    two = audit["variants"]["two_cycle_variant"]
    assert all(row["word_length"] == 3 for row in lit.values())
    assert all(row["word_length"] == 2 for row in two.values())
    # the two-cycle reading fails for every parity, not just one
    assert all(not row["homology_match"] for row in two.values())
