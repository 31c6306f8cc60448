import json
import math
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    AbstractLF,
    MatchingCycle,
    PlumbingDescriptor,
    VanishingCycle,
    cyclic_permute,
    equal_homology,
    family_tree,
    family_word,
    fibrate,
    from_json,
    hurwitz_a,
    hurwitz_b,
    layout,
    matching_cycles,
    order_tree,
    parse_tree,
    quotient,
    random_tree,
    stabilize,
    to_json,
)
from plumbweave.errors import (
    BadDimension,
    DuplicateId,
    EmptyTree,
    FormatError,
    IndexOutOfRange,
    NotAlgorithmOutput,
    UnknownVertex,
)
from plumbweave.fibration import (
    dump_json,
    render_svg,
    write_atomic,
)
from plumbweave.lattice import pattern_form
from plumbweave.treecore import UnrootedTree
from .conftest import EX_TEXT
from .test_treecore import prefix_subtree, reference_order_tree

seeds = st.integers(min_value=0, max_value=2**32 - 1)

EX_WORD = [
    "L_{q(v1)}",
    "L_{q(v5)}",
    "L_{q(v0)}",
    "L_{q(v4)}",
    "L_{q(v3)}",
    "L_{q(v1)}",
    "L_{q(v2)}",
    "L_{q(v3)}",
    "L_{q(v4)}",
    "L_{q(v5)}",
]


# ---------------------------------------------------------------------------
# the word algorithm


def test_fibrate_ex_word(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    assert list(alf.word_displays()) == EX_WORD
    assert alf.fiber.sphere_dim == 2
    assert alf.fiber.pattern.vertices == ("w0", "w1", "w2", "w3")
    # star pattern = three edges at the center class
    assert all(e[0] == "w0" for e in alf.fiber.pattern.edges)


def test_fibrate_two_vertex_chain(a2_ordered):
    # root-edge cycle plus one cycle per vertex, all the sole basis class
    alf = fibrate(a2_ordered, 5)
    assert len(alf.cycles) == 3
    assert all(c.cls == (1,) for c in alf.cycles)
    assert alf.fiber.pattern.vertices == ("w0",)


def test_fibrate_path3(path3_ordered):
    alf = fibrate(path3_ordered, 4)
    assert len(alf.fiber.pattern.vertices) == 1
    assert all(c.cls == (1,) for c in alf.cycles)
    # |V| + |V(quotient)| = 3 + 1
    assert len(alf.cycles) == 4


def test_fibrate_rejects_small_n(ex_ordered):
    with pytest.raises(BadDimension):
        fibrate(ex_ordered, 1)


@given(seeds, st.sampled_from([2, 3, 4, 5]))
@settings(max_examples=150, deadline=None)
def test_cycle_count_identity(seed, n):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    alf = fibrate(ot, n)
    qd = quotient(ot)
    assert len(alf.cycles) == len(t.vertices) + len(qd.quotient_tree.vertices)


def _dense_classes(ot, alf):
    """The classes of ``alf`` as the per-cycle construction builds them: a
    Python loop of length r per cycle writes the unit vector of the quotient
    class of the cycle's vertex (a vertex cycle) or edge head (an edge
    cycle)."""
    qd = quotient(ot)
    basis_index = {w: i for i, w in enumerate(qd.quotient_tree.vertices)}
    rank = len(qd.quotient_tree.vertices)

    def basis_vec(w):
        i = basis_index[w]
        return tuple(1 if j == i else 0 for j in range(rank))

    out = []
    for c in alf.cycles:
        kind, name = c.label.split(":")
        k = int(name[1:])
        # the head of edge k is vertex k + 1
        v = ot.vertex_order[k if kind == "vertex" else k + 1]
        out.append(basis_vec(qd.q[v]))
    return tuple(out)


@given(seeds, st.sampled_from([30, 120]), st.sampled_from([2, 3, 4]))
@settings(max_examples=60, deadline=None)
def test_fibrate_classes_match_dense_construction(seed, size, n):
    ot = order_tree(random_tree(seed, size))
    alf = fibrate(ot, n)
    assert alf.word_classes() == _dense_classes(ot, alf)
    # one shared tuple per class, however many cycles carry it
    distinct = set(alf.word_classes())
    assert len({id(c.cls) for c in alf.cycles}) == len(distinct)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_label_audit(seed):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    alf = fibrate(ot, 3)
    labels = [c.label for c in alf.cycles]
    assert len(set(labels)) == len(labels)
    nv = len(t.vertices)
    vertex_labels = {f"vertex:v{i}" for i in range(nv)}
    assert vertex_labels == {l for l in labels if l.startswith("vertex:")}
    edge_labels = {l for l in labels if l.startswith("edge:")}
    expected_edges = {"edge:e0"}
    firsts = reference_order_tree(t).firsts
    for i, e in enumerate(ot.edge_order):
        tail = ot.vertex_order[ot.tail[i]]
        if firsts[tail] != e:
            expected_edges.add(f"edge:e{i}")
    assert edge_labels == expected_edges
    assert len(labels) == len(vertex_labels) + len(edge_labels)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_prefix_word_induction(seed):
    """Dropping the last vertex removes exactly its cycle and (when present)
    the cycle of its incoming edge; everything else survives verbatim.

    A step that grows the fiber is a stabilization plus one cycle: the
    incoming edge's cycle is the stabilization at the tail's class, and the
    last vertex's cycle, which ends the word, is one more copy of the new
    class."""
    t = random_tree(seed, 10)
    ot = order_tree(t)
    m = len(ot.edge_order)
    if m < 2:
        return
    for k in range(1, m):
        small_ot = order_tree(prefix_subtree(ot, k))
        big = fibrate(order_tree(prefix_subtree(ot, k + 1)), 3)
        small = fibrate(small_ot, 3)
        if len(big.fiber.pattern.vertices) > len(small.fiber.pattern.vertices):
            labels = [c.label for c in big.cycles]
            p1, p2 = labels.index(f"vertex:v{k + 1}"), labels.index(f"edge:e{k}")
            assert p2 < p1 == len(labels) - 1
            tail = quotient(small_ot).q[ot.vertex_order[ot.tail[k]]]
            grown = stabilize(small, tail, p2)
            grown = replace(grown, cycles=grown.cycles + (grown.cycles[p2],))
            assert equal_homology(grown, big)
        dropped = {f"vertex:v{k + 1}", f"edge:e{k}"}
        kept = [
            (c.label, c.display) for c in big.cycles if c.label not in dropped
        ]
        assert kept == [(c.label, c.display) for c in small.cycles]
        # classes agree under the inclusion of the smaller fiber lattice
        rank_small = len(small.fiber.pattern.vertices)
        small_cls = {c.label: c.cls for c in small.cycles}
        for c in big.cycles:
            if c.label in dropped:
                continue
            assert c.cls[:rank_small] == small_cls[c.label]
            assert all(x == 0 for x in c.cls[rank_small:])


# ---------------------------------------------------------------------------
# matching cycles


def test_matching_ex(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    pairs = [mc.endpoints for mc in matching_cycles(alf, ex_ordered)]
    labels = [c.label for c in alf.cycles]
    assert pairs == [
        (labels.index("vertex:v0"), 0),
        (labels.index("vertex:v1"), labels.index("vertex:v0")),
        (labels.index("vertex:v2"), labels.index("vertex:v1")),
        (labels.index("vertex:v3"), labels.index("edge:e2")),
        (labels.index("vertex:v4"), labels.index("edge:e3")),
        (labels.index("vertex:v5"), labels.index("edge:e4")),
    ]


def test_a_matching_cycle_stores_its_endpoints_only():
    # vertex i's matching cycle is entry i of the list
    assert [f.name for f in fields(MatchingCycle)] == ["endpoints"]


def test_matching_two_vertex_chain(a2_ordered):
    alf = fibrate(a2_ordered, 3)
    pairs = matching_cycles(alf, a2_ordered)
    assert len(pairs) == 2
    for mc in pairs:
        i, j = mc.endpoints
        assert alf.cycles[i].cls == alf.cycles[j].cls


def test_matching_rejects_moved_word(ex_ordered):
    from plumbweave import cyclic_permute

    alf = cyclic_permute(fibrate(ex_ordered, 3))
    with pytest.raises(NotAlgorithmOutput):
        matching_cycles(alf, ex_ordered)


BAD_SPHERE_DIMS = [
    pytest.param("2", FormatError, id="'2'"),
    pytest.param(2.0, FormatError, id="2.0"),
    pytest.param(None, FormatError, id="None"),
    pytest.param(True, FormatError, id="True"),
    pytest.param(10**5000, FormatError, id="10**5000"),
    pytest.param(0, BadDimension, id="0"),
    pytest.param(-1, BadDimension, id="-1"),
]


@pytest.mark.parametrize("dim, error", BAD_SPHERE_DIMS)
def test_fiber_and_form_refuse_a_sphere_dim_below_1_or_not_an_integer(ex_ordered, dim, error):
    # n is the fiber's sphere_dim + 1, so a word's n is refused with its fiber
    pattern = quotient(ex_ordered).quotient_tree
    with pytest.raises(error):
        PlumbingDescriptor(pattern, dim)
    with pytest.raises(error):
        pattern_form(pattern, dim)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on the digits of an integer",
)
def test_a_sphere_dim_whose_n_is_too_long_to_write_is_refused():
    limit = sys.get_int_max_str_digits()
    alf = family_word(2, 1, 3)
    pattern = alf.fiber.pattern
    # 10**limit - 1 has as many digits as the interpreter writes; its n has one more
    with pytest.raises(FormatError):
        PlumbingDescriptor(pattern, 10**limit - 1)
    with pytest.raises(FormatError):
        pattern_form(pattern, 10**limit - 1)
    longest = replace(alf, fiber=PlumbingDescriptor(pattern, 10**limit - 2))
    assert from_json(to_json(longest)) == longest


def test_a_word_stores_its_fiber_and_cycles_only(ex_ordered):
    alf = fibrate(ex_ordered, 4)
    assert [f.name for f in fields(AbstractLF)] == ["fiber", "cycles"]
    assert alf.n == alf.fiber.sphere_dim + 1 == 4


json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@given(json_scalars)
@settings(max_examples=300, deadline=None)
def test_a_word_of_any_sphere_dim_is_refused_or_round_trips(dim):
    alf = family_word(2, 1, 3)
    try:
        alf = replace(alf, fiber=replace(alf.fiber, sphere_dim=dim))
    except (FormatError, BadDimension):
        return
    assert from_json(to_json(alf)) == alf


def _moved_words(ot, n):
    """(move, word) for every kind of moved word: a Hurwitz move at each
    index, once and twice, a cyclic move, a stabilization, the word of
    another tree with as many vertices, and words whose labels and displays
    are pristine but whose classes or fiber are not.  Another n is no such
    kind: n is read off the fiber, so that word is pristine at its own n."""
    alf = fibrate(ot, n)
    for i in range(len(alf.cycles) - 1):
        for move in (hurwitz_a, hurwitz_b):
            yield f"{move.__name__}({i})", move(alf, i)
            yield f"{move.__name__}({i}) twice", move(move(alf, i), i)
    yield "cyclic_permute", cyclic_permute(alf)
    yield "stabilize", stabilize(alf, "w0", len(alf.cycles))
    rerooted = order_tree(parse_tree(EX_TEXT.replace("root v0 e0", "root v0 e4")))
    yield "another tree", fibrate(rerooted, n)
    # the last cycle is not the first of its class in the word
    last = alf.cycles[-1]
    yield "one class changed", replace(
        alf, cycles=alf.cycles[:-1] + (replace(last, cls=alf.cycles[0].cls),)
    )
    # reversing every class keeps each class apart from the others
    yield "classes permuted", replace(
        alf, cycles=tuple(replace(c, cls=c.cls[::-1]) for c in alf.cycles)
    )
    path = UnrootedTree(("w0", "w1", "w2", "w3"), (("w0", "w1"), ("w1", "w2"), ("w2", "w3")))
    yield "another fiber", replace(alf, fiber=replace(alf.fiber, pattern=path))


@pytest.mark.parametrize("n", [3, 4])
def test_matching_rejects_every_moved_word(ex_ordered, n):
    kinds = 0
    for move, alf in _moved_words(ex_ordered, n):
        with pytest.raises(NotAlgorithmOutput):
            matching_cycles(alf, ex_ordered)
            pytest.fail(f"{move} accepted")
        kinds += 1
    assert kinds == 4 * 9 + 6


@st.composite
def words_and_trees(draw):
    """A word of a small tree after up to two moves or JSON round trips, and
    a small tree to read it against: often another tree, which may order to
    the same word."""
    t_word = random_tree(draw(seeds), 6)
    t_read = random_tree(draw(seeds), 6) if draw(st.booleans()) else t_word
    alf = fibrate(order_tree(t_word), draw(st.sampled_from([2, 3, 4])))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["a", "b", "c", "s", "n", "json"]))
        i = draw(st.integers(0, len(alf.cycles) - 2))
        if kind == "a":
            alf = hurwitz_a(alf, i)
        elif kind == "b":
            alf = hurwitz_b(alf, i)
        elif kind == "c":
            alf = cyclic_permute(alf)
        elif kind == "s":
            alf = stabilize(alf, "w0", i)
        elif kind == "json":
            alf = from_json(to_json(alf))  # equal classes, not shared tuples
        else:  # another n: still pristine unless the word was moved
            n = draw(st.integers(2, 5))
            alf = replace(alf, fiber=replace(alf.fiber, sphere_dim=n - 1))
    return alf, order_tree(t_read)


@given(words_and_trees())
@settings(max_examples=300, deadline=None)
def test_matching_accepts_exactly_the_pristine_word(case):
    alf, ot = case
    pristine = alf == fibrate(ot, alf.n)
    try:
        pairs = matching_cycles(alf, ot)
    except NotAlgorithmOutput:
        assert not pristine
    else:
        assert pristine
        labels = [c.label for c in alf.cycles]
        for i, mc in enumerate(pairs):
            a, b = mc.endpoints
            assert labels[a] == f"vertex:v{i}"
            assert labels[b] in ({"edge:e0"} if i == 0 else {f"vertex:v{i - 1}", f"edge:e{i - 1}"})
            assert alf.cycles[a].cls == alf.cycles[b].cls


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_matching_invariants(seed):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    alf = fibrate(ot, 3)
    pairs = matching_cycles(alf, ot)
    assert len(pairs) == len(t.vertices)
    for mc in pairs:
        i, j = mc.endpoints
        assert alf.cycles[i].cls == alf.cycles[j].cls


def reference_matching_cycles(alf, ot):
    """The label-and-tail rule: the root vertex pairs with the root-edge
    cycle, and vertex i with vertex i - 1 when edge i - 1 leads from it
    (``tail[i - 1] == i - 1``) and with edge i - 1 otherwise."""
    index_of = {c.label: i for i, c in enumerate(alf.cycles)}
    out = [MatchingCycle((index_of["vertex:v0"], index_of["edge:e0"]))]
    for i, t in enumerate(ot.tail, start=1):
        partner = f"vertex:v{i - 1}" if t == i - 1 else f"edge:e{i - 1}"
        out.append(MatchingCycle((index_of[f"vertex:v{i}"], index_of[partner])))
    return out


def every_root(t):
    """``t`` rooted at each (vertex, incident edge) pair, leaves included."""
    for v, rot in t.rotation.items():
        for e in rot:
            yield replace(t, root=(v, e))


@given(seeds, st.integers(2, 5))
@settings(max_examples=150, deadline=None)
def test_matching_matches_the_label_and_tail_rule_at_every_root(seed, n):
    for t in every_root(random_tree(seed, 9)):
        ot = order_tree(t)
        alf = fibrate(ot, n)
        assert matching_cycles(alf, ot) == reference_matching_cycles(alf, ot)


def test_matching_matches_the_label_and_tail_rule_at_2352_vertices():
    t = random_tree(6, 2400)
    assert len(t.vertices) == 2352
    ot = order_tree(t)
    alf = from_json(to_json(fibrate(ot, 3)))  # equal classes, not the same tuples
    assert matching_cycles(alf, ot) == reference_matching_cycles(alf, ot)


# ---------------------------------------------------------------------------
# layout and rendering


def test_layout_angles(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    angles = layout(alf)
    assert len(angles) == 10
    assert angles[0] == 0.0
    assert angles[1] == pytest.approx(math.pi / 5)


def test_layout_m4():
    alf = family_word(1, 1, 3)  # any word of length 5 would do; check formula
    assert len(layout(alf)) == len(alf.cycles)
    for k, a in enumerate(layout(alf)):
        assert a == pytest.approx(2 * math.pi * k / len(alf.cycles))


def test_layout_single_cycle():
    from plumbweave import AbstractLF, PlumbingDescriptor, VanishingCycle
    from plumbweave.treecore import UnrootedTree

    lone = AbstractLF(
        PlumbingDescriptor(UnrootedTree(("w0",), ()), 2),
        (VanishingCycle("vertex:v0", (1,), "L_{w0}"),),
    )
    assert layout(lone) == (0.0,)
    with pytest.raises(IndexOutOfRange, match="empty cycle word"):
        layout(AbstractLF(lone.fiber, ()))


def test_render_counts_and_determinism(ex_ordered, tmp_path):
    alf = fibrate(ex_ordered, 3)
    matching = matching_cycles(alf, ex_ordered)
    svg = render_svg(alf, matching)
    assert svg.count('class="singular"') == 10
    assert svg.count('class="matching"') == 6
    assert svg.count('class="skeleton"') == 10
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_atomic(str(p1), render_svg(alf, matching))
    write_atomic(str(p2), render_svg(alf, matching))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8") == svg


def test_render_two_vertex_chain_is_smaller(a2_ordered):
    alf = fibrate(a2_ordered, 3)
    svg = render_svg(alf, matching_cycles(alf, a2_ordered))
    assert svg.count('class="singular"') == 3
    assert svg.count('class="matching"') == 2


# ---------------------------------------------------------------------------
# the chain-with-leaf family


def test_family_word_shape():
    alf = family_word(2, 1, 5)
    assert [c.cls for c in alf.cycles] == [
        (1, 0), (1, 0), (0, 1), (1, 0), (1, 0), (0, 1),
    ]
    assert alf.word_displays() == ("α", "α", "β", "α", "α", "β")


@given(st.integers(1, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_family_word_length_and_basis(m, data):
    j = data.draw(st.integers(1, m))
    alf = family_word(m, j, 5)
    assert len(alf.cycles) == m + 4
    assert all(sum(abs(x) for x in c.cls) == 1 for c in alf.cycles)
    beta_positions = [i for i, c in enumerate(alf.cycles) if c.cls == (0, 1)]
    assert beta_positions == [j + 1, m + 3]


def test_family_tree_matches_family_word():
    # the tree route and the direct word agree at every position of the leaf
    for m in range(2, 12):
        for j in range(1, m):
            ot = order_tree(family_tree(m, j))
            assert len(quotient(ot).quotient_tree.vertices) == 2
            for n in range(2, 6):
                alf, word = fibrate(ot, n), family_word(m, j, n)
                assert alf.word_classes() == word.word_classes()
                assert [c.label for c in alf.cycles] == [c.label for c in word.cycles]
                assert alf.n == word.n == n


def test_family_tree_order_is_pinned():
    # the declaration-order rotations have the chain-with-leaf cyclic order
    # at every vertex, and these values pin the order data it decides
    ot = order_tree(family_tree(6, 2))
    assert ot.vertex_order == ("u0", "u1", "u2", "u3", "u4", "u5", "u6", "x")
    assert ot.edge_order == ("c0", "c1", "c2", "c3", "c4", "c5", "d")
    assert ot.tail == (0, 1, 2, 3, 4, 5, 2)
    assert ot.dist == (0, 1, 2, 3, 4, 5, 6, 3)
    assert ot.height == (1, 1, 1, 1, 1, 1, 1, 2)
    assert ot.boundary_order == (6, 7, 0)


def test_family_tree_rejects_last_position():
    for m in range(2, 12):
        for j in (0, m):
            with pytest.raises(IndexOutOfRange):
                family_tree(m, j)


def test_family_word_range():
    with pytest.raises(IndexOutOfRange):
        family_word(3, 4, 5)


@pytest.mark.parametrize(
    "build, m, j",
    [
        (family_word, True, 1),
        (family_word, 6.0, 1),
        (family_word, 6, "1"),
        (family_tree, 4, 2.0),
        (family_tree, "4", 2),
    ],
)
def test_family_refuses_a_size_or_position_that_is_not_an_integer(build, m, j):
    with pytest.raises(FormatError):
        build(m, j, 3) if build is family_word else build(m, j)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    text = to_json(alf)
    assert from_json(text) == alf
    assert to_json(from_json(text)) == text


def test_json_shares_equal_classes(ex_ordered):
    alf = fibrate(ex_ordered, 3)
    doc = json.loads(to_json(alf))
    doc["cycles"][0]["coords"] = [True, 0, 0, 0]
    with pytest.raises(FormatError):  # a class equal in value is still checked
        from_json(json.dumps(doc))
    for word in (alf, hurwitz_a(hurwitz_a(alf, 0), 3)):
        back = from_json(to_json(word))
        assert back == word
        assert len({id(c.cls) for c in back.cycles}) == len({c.cls for c in word.cycles})


def test_json_round_trip_after_moves(ex_ordered):
    from plumbweave import hurwitz_a

    alf = hurwitz_a(fibrate(ex_ordered, 3), 0)
    assert from_json(to_json(alf)) == alf


def test_json_rejects_garbage():
    with pytest.raises(FormatError):
        from_json("not json")
    with pytest.raises(FormatError):
        from_json('{"fiber": {}}')


def _edited(alf, edit):
    doc = json.loads(to_json(alf))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(n=3.9),
        lambda doc: doc.update(n=3.0),
        lambda doc: doc["fiber"].update(sphere_dim="2"),
        lambda doc: doc["fiber"].update(sphere_dim=True),
        lambda doc: doc["cycles"][0].update(coords=[True, 0.7] + [0] * 2),
        lambda doc: doc["cycles"][1].update(coords=[1.0, 0, 0, 0]),
    ],
    ids=["n-float", "n-integral-float", "sphere-dim-string", "sphere-dim-bool",
         "coords-bool-float", "coords-integral-float"],
)
def test_json_rejects_non_integer_numbers(ex_ordered, edit):
    alf = fibrate(ex_ordered, 3)  # four-vertex star fiber, sphere_dim 2
    with pytest.raises(FormatError, match="expected an integer"):
        from_json(_edited(alf, edit))


def _rename_vertex(doc, old, new):
    pat = doc["fiber"]["pattern"]
    pat["vertices"] = [new if v == old else v for v in pat["vertices"]]
    pat["edges"] = [[new if v == old else v for v in e] for e in pat["edges"]]


@pytest.mark.parametrize(
    "edit, error, message",
    [
        (lambda doc: doc["fiber"].update(pattern={"vertices": [], "edges": []}),
         EmptyTree, "a pattern needs at least one vertex"),
        (lambda doc: _rename_vertex(doc, "w1", "w0"), DuplicateId, "duplicate pattern vertex"),
        (lambda doc: doc["fiber"]["pattern"]["edges"][0].__setitem__(1, "zz"),
         UnknownVertex, r"pattern edge \('w0', 'zz'\) references unknown vertex"),
        (lambda doc: doc["cycles"][0].update(coords=[1, 0, 0]),
         FormatError, "cycle coords of length 3 against fiber rank 4"),
        (lambda doc: doc["cycles"][0].update(label="loop:v0"),
         FormatError, "unknown cycle label kind in 'loop:v0'"),
    ],
    ids=["empty-pattern", "duplicate-vertex", "unknown-edge-end", "coords-length",
         "label-kind"],
)
def test_json_rejects_a_bad_fiber_or_cycle(ex_ordered, edit, error, message):
    alf = fibrate(ex_ordered, 3)  # four-vertex star fiber w0..w3
    with pytest.raises(error, match=message):
        from_json(_edited(alf, edit))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: _rename_vertex(doc, "w0", 5),
        lambda doc: _rename_vertex(doc, "w1", True),
        lambda doc: _rename_vertex(doc, "w2", None),
        lambda doc: doc["cycles"][0].update(display=None),
        lambda doc: doc["cycles"][1].update(display=7),
        lambda doc: doc["cycles"][2].update(label=False),
    ],
    ids=["vertex-int", "vertex-bool", "vertex-null", "display-null", "display-int",
         "label-bool"],
)
def test_json_rejects_non_string_names(ex_ordered, edit):
    alf = fibrate(ex_ordered, 3)
    with pytest.raises(FormatError, match="expected a string"):
        from_json(_edited(alf, edit))


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["fiber"]["pattern"].update(vertices="w0w1w2w3"),
        lambda doc: doc["fiber"]["pattern"].update(
            edges=["".join(e) for e in doc["fiber"]["pattern"]["edges"]]
        ),
    ],
    ids=["vertices-string", "edges-strings"],
)
def test_json_rejects_strings_for_arrays(ex_ordered, edit):
    alf = fibrate(ex_ordered, 3)
    with pytest.raises(FormatError, match="expected an array"):
        from_json(_edited(alf, edit))


@pytest.mark.parametrize("n", [1, 0])
def test_json_rejects_n_below_2(ex_ordered, n):
    # as fibrate does: at n = 1 the degrees 0, n - 1 and n would collide
    def edit(doc):
        doc["n"] = n
        doc["fiber"]["sphere_dim"] = n - 1

    with pytest.raises(BadDimension):
        from_json(_edited(fibrate(ex_ordered, 3), edit))


# ---------------------------------------------------------------------------
# the writers against their references: the generic JSON layout and the
# renderer that computed every point, star corner and label separately


def _alf_to_doc(alf):
    return {
        "fiber": {
            "pattern": {
                "vertices": list(alf.fiber.pattern.vertices),
                "edges": [list(e) for e in alf.fiber.pattern.edges],
            },
            "sphere_dim": alf.fiber.sphere_dim,
        },
        "cycles": [
            {"label": c.label, "coords": list(c.cls), "display": c.display}
            for c in alf.cycles
        ],
        "n": alf.n,
    }


def reference_to_json(alf):
    return dump_json(_alf_to_doc(alf))


def _ref_fmt(x):
    return f"{x:.2f}"


def _ref_pt(theta):
    return (210.0 + 160.0 * math.cos(theta), 210.0 - 160.0 * math.sin(theta))


def _ref_star(cx, cy):
    pts = []
    for k in range(10):
        r = 8.0 if k % 2 == 0 else 3.2
        a = math.pi / 2 + k * math.pi / 5
        pts.append(f"{_ref_fmt(cx + r * math.cos(a))},{_ref_fmt(cy - r * math.sin(a))}")
    return " ".join(pts)


def _ref_esc(s):
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def reference_render_svg(alf, matching):
    size, center, radius = 420.0, 210.0, 160.0
    angles = layout(alf)
    pts = [_ref_pt(a) for a in angles]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_ref_fmt(size)}" '
        f'height="{_ref_fmt(size)}" viewBox="0 0 {_ref_fmt(size)} {_ref_fmt(size)}">',
        f'<circle cx="{_ref_fmt(center)}" cy="{_ref_fmt(center)}" r="{_ref_fmt(radius)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for x, y in pts:
        lines.append(
            f'<line class="skeleton" x1="{_ref_fmt(center)}" y1="{_ref_fmt(center)}" '
            f'x2="{_ref_fmt(x)}" y2="{_ref_fmt(y)}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    for mc in matching:
        (i, j) = mc.endpoints
        (x1, y1), (x2, y2) = pts[i], pts[j]
        lines.append(
            f'<line class="matching" x1="{_ref_fmt(x1)}" y1="{_ref_fmt(y1)}" '
            f'x2="{_ref_fmt(x2)}" y2="{_ref_fmt(y2)}" stroke="#2060c0" stroke-width="1.5"/>'
        )
    lines.append(
        f'<circle class="basepoint" cx="{_ref_fmt(center)}" cy="{_ref_fmt(center)}" '
        'r="3.00" fill="#000000"/>'
    )
    for k, ((x, y), theta) in enumerate(zip(pts, angles)):
        lines.append(f'<polygon class="singular" points="{_ref_star(x, y)}" fill="#c03020"/>')
        lx = center + (radius + 24.0) * math.cos(theta)
        ly = center - (radius + 24.0) * math.sin(theta)
        lines.append(
            f'<text x="{_ref_fmt(lx)}" y="{_ref_fmt(ly)}" font-size="11" '
            f'text-anchor="middle" dominant-baseline="middle">'
            f"{_ref_esc(alf.cycles[k].display)}</text>"
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _check_writers(alf, matching=()):
    assert to_json(alf) == reference_to_json(alf)
    if alf.cycles:
        assert render_svg(alf, list(matching)) == reference_render_svg(alf, list(matching))


# quotes, backslashes, control characters, markup and non-ASCII text
escapes = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ",
                           "<", ">", "&", "/", "é", "α", "🌀", "﻿"])
# UTF-8 text: st.characters() alone now and then draws a lone surrogate
texts = st.text(st.characters(codec="utf-8") | escapes, max_size=8)
labels = st.builds(str.__add__, st.sampled_from(["vertex:", "edge:", "stab:"]), texts)


@st.composite
def hand_words(draw):
    """A word built by hand on a random fiber with arbitrary names, displays
    and coordinates, and labels of every valid kind; some cycles share one
    class object, others hold an equal copy."""
    names = draw(st.lists(texts, min_size=1, max_size=5, unique=True))
    edges = tuple((names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, len(names)))
    fiber = PlumbingDescriptor(UnrootedTree(tuple(names), edges), draw(st.integers(1, 6)))
    coeffs = st.integers(-(2**70), 2**70) | st.integers(-3, 3)
    pool = draw(st.lists(st.tuples(*[coeffs] * len(names)), min_size=1, max_size=4))
    cycles = []
    for _ in range(draw(st.integers(0, 7))):
        cls = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            cls = tuple(list(cls))  # equal, not shared
        cycles.append(VanishingCycle(draw(labels), cls, draw(texts)))
    return AbstractLF(fiber, tuple(cycles))


@given(hand_words(), st.data())
@settings(max_examples=300, deadline=None)
def test_writers_match_their_references_on_hand_built_words(alf, data):
    m = len(alf.cycles)
    index = st.integers(-m, m - 1) if m else st.nothing()
    matching = data.draw(st.lists(st.builds(MatchingCycle, st.tuples(index, index)),
                                  max_size=m))
    _check_writers(alf, matching)


@given(words_and_trees())
@settings(max_examples=150, deadline=None)
def test_writers_match_their_references_on_moved_words(case):
    alf, ot = case
    try:
        matching = matching_cycles(alf, ot)
    except NotAlgorithmOutput:
        matching = []
    _check_writers(alf, matching)


def test_writers_match_their_references_on_fixed_words(ex_ordered, a2_ordered):
    ex = fibrate(ex_ordered, 3)
    a2 = fibrate(a2_ordered, 4)  # rank-1 fiber: "edges": []
    assert '"edges": []' in to_json(a2)
    lone = AbstractLF(a2.fiber, a2.cycles[:1])
    assert len(lone.cycles) == 1
    empty = AbstractLF(a2.fiber, ())
    assert '"cycles": [],' in to_json(empty)
    moved = hurwitz_b(hurwitz_a(cyclic_permute(ex), 2), 5)
    shared = from_json(to_json(ex))  # equal classes interned, not fibrate's
    escaped = AbstractLF(
        PlumbingDescriptor(UnrootedTree(('a"b', "c\\d"), (('a"b', "c\\d"),)), 2),
        (VanishingCycle('edge:"\x00\n', (1, -2), "<α & β>\t "),
         VanishingCycle("vertex:\x1f", (-(2**80), 0), "🌀\\\"")),
    )
    for alf, ot in ((ex, ex_ordered), (a2, a2_ordered)):
        _check_writers(alf, matching_cycles(alf, ot))
    for alf in (lone, empty, moved, shared, escaped, stabilize(ex, "w2", 4)):
        _check_writers(alf, [MatchingCycle((0, len(alf.cycles) - 1))] if alf.cycles else [])


def _with_cycle(alf, i, **changes):
    cycles = list(alf.cycles)
    cycles[i] = replace(cycles[i], **changes)
    return AbstractLF(alf.fiber, tuple(cycles))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda alf: _with_cycle(alf, 1, cls=(1.0, 0, 0, 0)), "expected an integer"),
        (lambda alf: _with_cycle(alf, 2, cls=(0, True, 0, 0)), "expected an integer"),
        pytest.param(
            lambda alf: _with_cycle(alf, 3, cls=(0, 0, 10**5000, 0)), "decimal digits",
            marks=pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                                     reason="no limit on the digits of an integer"),
        ),
        (lambda alf: _with_cycle(alf, 0, display=None), "expected a string"),
        (lambda alf: _with_cycle(alf, 4, label=7), "expected a string"),
        (lambda alf: replace(alf, fiber=replace(alf.fiber, pattern=UnrootedTree(
            ("w0", 5, "w2", "w3"), (("w0", 5), ("w0", "w2"), ("w0", "w3"))))),
         "expected a string"),
        (lambda alf: _with_cycle(alf, 1, display="x\ud800"), "not UTF-8 text"),
        (lambda alf: _with_cycle(alf, 2, cls=(1,)), "cycle coords of length 1 against fiber rank 4"),
        (lambda alf: _with_cycle(alf, 3, label="foo:1"), "unknown cycle label kind in 'foo:1'"),
    ],
    ids=["coords-float", "coords-bool", "coords-too-long", "display-null", "label-int",
         "vertex-int", "display-surrogate", "coords-length", "label-kind"],
)
def test_to_json_refuses_what_from_json_would(ex_ordered, edit, message):
    alf = edit(fibrate(ex_ordered, 3))
    with pytest.raises(FormatError, match=message):
        to_json(alf)


@pytest.mark.parametrize("cls", [None, 5, "1000", {"0": 1}], ids=["null", "int", "string", "object"])
def test_a_class_that_is_not_an_array_is_refused_both_ways(ex_ordered, cls):
    alf = fibrate(ex_ordered, 3)
    with pytest.raises(FormatError, match="are not an array"):
        to_json(_with_cycle(alf, 1, cls=cls))
    with pytest.raises(FormatError, match="are not an array"):
        from_json(_edited(alf, lambda doc: doc["cycles"][1].update(coords=cls)))


def test_a_pattern_edge_is_a_pair_that_round_trips():
    with pytest.raises(FormatError, match="pattern edge 'ab' is not a pair of vertices"):
        UnrootedTree(("a", "b"), ("ab",))
    for edge in (("a", "b"), ["a", "b"]):
        fiber = PlumbingDescriptor(UnrootedTree(("a", "b"), (edge,)), 2)
        alf = AbstractLF(fiber, (VanishingCycle("stab:1", (1, 0), "x"),))
        text = to_json(alf)
        back = from_json(text)
        assert back.fiber.pattern.edges == (("a", "b"),)
        assert to_json(back) == text
    assert back == replace(alf, fiber=replace(fiber, pattern=UnrootedTree(("a", "b"), (("a", "b"),))))


# any string, one in four with a lone surrogate, which no UTF-8 output can
# carry; a label is one in two of a valid kind
surrogate = st.sampled_from([""] * 12 + ["\ud800", "\udbff", "\udc00", "\udfff"])
any_texts = st.builds(lambda a, s, b: a + s + b, texts, surrogate, texts)


@st.composite
def any_words(draw):
    """A word on a random fiber whose names, labels and displays are any
    strings and whose classes are ints of any length."""
    names = draw(st.lists(any_texts, min_size=1, max_size=4, unique=True))
    edges = tuple((names[draw(st.integers(0, i - 1))], names[i]) for i in range(1, len(names)))
    fiber = PlumbingDescriptor(UnrootedTree(tuple(names), edges), draw(st.integers(1, 6)))
    length = st.just(len(names)) | st.integers(0, len(names) + 2)
    coords = length.flatmap(lambda k: st.tuples(*[st.integers(-(2**70), 2**70)] * k))
    pool = draw(st.lists(coords, min_size=1, max_size=3))
    cycles = [VanishingCycle(draw(labels | any_texts), draw(st.sampled_from(pool)), draw(any_texts))
              for _ in range(draw(st.integers(0, 5)))]
    return AbstractLF(fiber, tuple(cycles))


@given(any_words())
@settings(max_examples=400, deadline=None)
def test_to_json_refuses_exactly_what_from_json_would(alf):
    reference = reference_to_json(alf)
    try:
        from_json(reference)
    except FormatError:
        with pytest.raises(FormatError):
            to_json(alf)
        return
    text = to_json(alf)
    assert text == reference
    assert to_json(from_json(text)) == text


def test_write_atomic_removes_its_temp_on_failure(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(str(target), "\ud800")
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_write_atomic_uses_a_temp_of_its_own(tmp_path):
    # a stale fixed-name temp (here a directory) must not block the write
    (tmp_path / "out.json.tmp").mkdir()
    reference = tmp_path / "reference"
    reference.write_text("")
    target = tmp_path / "out.json"
    write_atomic(str(target), "new\n")
    assert target.read_text() == "new\n"
    assert target.stat().st_mode == reference.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "out.json.tmp", "reference"]
