import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    canonical_coords,
    order_tree,
    parse_tree,
    prefix_subtree,
    quotient,
    random_tree,
)
from plumbweave.errors import (
    BadRoot,
    CycleDetected,
    Disconnected,
    DuplicateId,
    EmptyTree,
    FormatError,
    IndexOutOfRange,
    UnknownVertex,
)
from .conftest import EX_TEXT

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# parsing


def test_parse_ex(ex_tree):
    assert len(ex_tree.vertices) == 6
    assert len(ex_tree.edges) == 5
    assert ex_tree.root == ("v0", "e0")
    assert ex_tree.rotation["v1"] == ("e1", "e2", "e3", "e0")
    # defaulted rotation follows declaration order
    assert ex_tree.rotation["v2"] == ("e1",)


def test_parse_two_vertex(a2_tree):
    assert a2_tree.root == ("v0", "e0")
    assert len(a2_tree.edges) == 1


def test_parse_triangle_cycle():
    text = """\
root a ab
edge ab a b
edge bc b c
edge ca c a
"""
    with pytest.raises(CycleDetected):
        parse_tree(text)


def test_parse_self_loop():
    with pytest.raises(CycleDetected):
        parse_tree("root a aa\nedge aa a a\n")


def test_parse_disconnected():
    with pytest.raises(Disconnected, match="tree: 2 connected components"):
        parse_tree("root a ab\nedge ab a b\nedge cd c d\n")
    with pytest.raises(Disconnected, match="tree: 3 connected components"):
        parse_tree("root a ab\nedge ab a b\nedge cd c d\nedge ef e f\nedge eg e g\n")


def test_parse_duplicate_edge_id():
    with pytest.raises(DuplicateId):
        parse_tree("root a e\nedge e a b\nedge e b c\n")


def test_parse_bad_root():
    with pytest.raises(BadRoot):
        parse_tree("root c e0\nedge e0 a b\n")
    with pytest.raises(BadRoot):
        parse_tree("root a e1\nedge e0 a b\nedge e1 b c\n")
    with pytest.raises(BadRoot):
        parse_tree("edge e0 a b\n")


def test_parse_empty():
    with pytest.raises(EmptyTree):
        parse_tree("# nothing but a comment\n")


def test_parse_malformed_line():
    with pytest.raises(FormatError):
        parse_tree("root a e0\nedge e0 a b\nfrob x\n")


def test_parse_comments_and_blanks(ex_tree):
    noisy = "\n# header\n" + EX_TEXT.replace("edge e1 v1 v2", "edge e1 v1 v2  # chain")
    assert parse_tree(noisy) == ex_tree


# ---------------------------------------------------------------------------
# ordering: frozen values for the running example, hand-derived from the
# definitions (tails cross-checked against the construction)


def test_order_ex(ex_ordered):
    ot = ex_ordered
    assert ot.vertex_order == ("v0", "v1", "v2", "v3", "v4", "v5")
    assert ot.edge_order == ("e0", "e1", "e2", "e3", "e4")
    assert [ot.dist[v] for v in ot.vertex_order] == [0, 1, 2, 2, 2, 1]
    assert [ot.height[v] for v in ot.vertex_order] == [1, 1, 1, 2, 3, 4]
    assert [ot.tail[e] for e in ot.edge_order] == ["v0", "v1", "v1", "v1", "v0"]
    assert ot.boundary_order == ("v2", "v3", "v4", "v5")


def test_order_a2(a2_ordered):
    ot = a2_ordered
    assert ot.vertex_order == ("v0", "v1")
    assert ot.edge_order == ("e0",)
    assert [ot.dist[v] for v in ot.vertex_order] == [0, 1]
    assert [ot.height[v] for v in ot.vertex_order] == [1, 1]
    # degree-1 root goes last in the boundary order
    assert ot.boundary_order == ("v1", "v0")


def test_order_path3(path3_ordered):
    ot = path3_ordered
    assert ot.vertex_order == ("v0", "v1", "v2")
    assert [ot.height[v] for v in ot.vertex_order] == [1, 1, 1]
    assert [ot.dist[v] for v in ot.vertex_order] == [0, 1, 2]


def test_local_orders_ex(ex_ordered):
    ot = ex_ordered
    # root edge first at the root, incoming edge last elsewhere
    assert ot.local_edges["v0"] == ("e0", "e4")
    assert ot.local_edges["v1"] == ("e1", "e2", "e3", "e0")
    assert ot.first_outgoing["v0"] == "e0"
    assert ot.first_outgoing["v1"] == "e1"
    assert "v2" not in ot.first_outgoing


# ---------------------------------------------------------------------------
# prefix subtrees


def test_prefix_k1_is_two_vertex_chain(ex_ordered):
    sub = prefix_subtree(ex_ordered, 1)
    assert sub.vertices == ("v0", "v1")
    assert [e.id for e in sub.edges] == ["e0"]
    assert sub.root == ("v0", "e0")


def test_prefix_km_is_whole_tree(ex_ordered, ex_tree):
    assert prefix_subtree(ex_ordered, 5) == ex_tree


def test_prefix_k3(ex_ordered):
    sub = prefix_subtree(ex_ordered, 3)
    assert sub.vertices == ("v0", "v1", "v2", "v3")
    assert [e.id for e in sub.edges] == ["e0", "e1", "e2"]


def test_prefix_out_of_range(ex_ordered):
    with pytest.raises(IndexOutOfRange):
        prefix_subtree(ex_ordered, 0)
    with pytest.raises(IndexOutOfRange):
        prefix_subtree(ex_ordered, 6)


# ---------------------------------------------------------------------------
# quotient


def test_quotient_ex_is_star(ex_ordered):
    qd = quotient(ex_ordered)
    assert qd.q["v0"] == qd.q["v1"] == qd.q["v2"] == "w0"
    assert [qd.q[v] for v in ("v3", "v4", "v5")] == ["w1", "w2", "w3"]
    qt = qd.quotient_tree
    assert qt.vertices == ("w0", "w1", "w2", "w3")
    assert set(qt.edges) == {("w0", "w1"), ("w0", "w2"), ("w0", "w3")}
    assert qd.surviving_edges == ("e2", "e3", "e4")


def test_quotient_a2_single_class(a2_ordered):
    qd = quotient(a2_ordered)
    assert qd.quotient_tree.vertices == ("w0",)
    assert set(qd.q.values()) == {"w0"}
    assert qd.surviving_edges == ()


def test_quotient_path3_single_class(path3_ordered):
    qd = quotient(path3_ordered)
    assert qd.quotient_tree.vertices == ("w0",)


# ---------------------------------------------------------------------------
# coordinates


def test_coords_ex(ex_ordered):
    assert canonical_coords(ex_ordered, "v3") == (2, 2)
    assert canonical_coords(ex_ordered, "v5") == (1, 4)
    root = ex_ordered.base.root[0]
    assert canonical_coords(ex_ordered, root)[0] == 0


def test_coords_unknown_vertex(ex_ordered):
    with pytest.raises(UnknownVertex):
        canonical_coords(ex_ordered, "nope")


# ---------------------------------------------------------------------------
# random trees


def test_random_tree_two_vertices():
    t = random_tree(123, 2)
    assert len(t.vertices) == 2
    assert len(t.edges) == 1


def test_random_tree_deterministic():
    assert random_tree(99, 14) == random_tree(99, 14)


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_random_tree_validates(seed):
    t = random_tree(seed, 14)
    assert 2 <= len(t.vertices) <= 14
    assert len(t.edges) == len(t.vertices) - 1
    order_tree(t)  # no exception: orders exist for every generated tree


# ---------------------------------------------------------------------------
# order invariants on random trees


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_order_invariants(seed):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    vs = ot.vertex_order

    # strict total order: no (height, dist) collision
    keys = [(ot.height[v], ot.dist[v]) for v in vs]
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)

    # heads of e_0..e_{m-1} enumerate v_1..v_m exactly
    assert [ot.head[e] for e in ot.edge_order] == list(vs[1:])

    # each later vertex hangs off an earlier one via its incoming edge
    index = {v: i for i, v in enumerate(vs)}
    for i, e in enumerate(ot.edge_order):
        assert index[ot.tail[e]] <= i

    # incoming edge is last in the linearized local order
    for i, v in enumerate(vs[1:], start=1):
        assert ot.local_edges[v][-1] == ot.edge_order[i - 1]

    # the first-edge walk from any vertex ends at the leaf whose boundary
    # index is the vertex's height
    bindex = {v: i + 1 for i, v in enumerate(ot.boundary_order)}
    for v in vs:
        u = v
        while u in ot.first_outgoing:
            u = ot.head[ot.first_outgoing[u]]
        assert bindex[u] == ot.height[v]

    # consecutive-head edges are first outgoing edges of their tail, or root
    for i, e in enumerate(ot.edge_order):
        if ot.tail[e] == vs[i]:
            assert e == ot.base.root[1] or ot.first_outgoing[ot.tail[e]] == e


@given(seeds)
@settings(max_examples=120, deadline=None)
def test_boundary_order_equals_outer_face_walk(seed):
    """Independent oracle: walk the outer face of the plane tree by taking,
    at each arrival, the rotation successor of the arrival edge; collect the
    degree-1 vertices, then rotate a degree-1 root to the end."""
    t = random_tree(seed, 14)
    ot = order_tree(t)
    by_id = t.edge_by_id
    root_v, root_e = t.root

    leaves = []
    edge, frm = root_e, root_v
    while True:
        to = by_id[edge].other(frm)
        rot = t.rotation[to]
        if len(rot) == 1:
            leaves.append(to)
            nxt = edge
        else:
            nxt = rot[(rot.index(edge) + 1) % len(rot)]
        edge, frm = nxt, to
        if (edge, frm) == (root_e, root_v):
            break
    if root_v in leaves:
        k = leaves.index(root_v)
        leaves = leaves[k + 1 :] + leaves[:k] + [root_v]
    assert tuple(leaves) == ot.boundary_order


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_quotient_invariants(seed):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    qd = quotient(ot)
    n_contracting = len(ot.first_outgoing)
    assert len(qd.quotient_tree.vertices) == len(t.vertices) - n_contracting
    survivors = set(qd.surviving_edges)
    for e in ot.edge_order:
        contracted = e not in survivors
        assert contracted == (qd.q[ot.tail[e]] == qd.q[ot.head[e]])
    assert set(ot.first_outgoing.values()) == set(ot.edge_order) - survivors


@given(seeds, st.integers(min_value=1, max_value=13))
@settings(max_examples=100, deadline=None)
def test_prefix_orders_consistently(seed, k):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    if k > ot.m:
        k = ot.m
    sub_ot = order_tree(prefix_subtree(ot, k))
    assert sub_ot.vertex_order == ot.vertex_order[: k + 1]
    assert sub_ot.edge_order == ot.edge_order[:k]
