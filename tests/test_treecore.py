from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    fibrate,
    order_tree,
    parse_tree,
    prefix_subtree,
    quotient,
    random_tree,
)
from plumbweave.fibration import AbstractLF, PlumbingDescriptor, VanishingCycle
from plumbweave.errors import (
    BadRoot,
    BadRotation,
    CycleDetected,
    Disconnected,
    DuplicateId,
    EmptyTree,
    FormatError,
    IndexOutOfRange,
    PlumbweaveError,
    UnknownVertex,
)
from plumbweave.treecore import (
    Edge,
    OrderedTree,
    QuotientData,
    RootedEmbeddedTree,
    UnrootedTree,
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


def reference_validate(vertices, edges, rotation, root):
    """The rooted-tree validator that built the incidence lists a second
    time and compared sorted rotations: the reference for the checks in
    ``RootedEmbeddedTree.__post_init__``."""
    if not edges:
        raise EmptyTree("a tree needs at least one edge to carry a root")
    if len(set(vertices)) != len(vertices):
        raise DuplicateId("duplicate vertex identifier")
    vset = set(vertices)
    seen_e = set()
    for e in edges:
        if e.id in seen_e:
            raise DuplicateId(f"duplicate edge identifier {e.id!r}")
        seen_e.add(e.id)
        if e.a not in vset or e.b not in vset:
            raise UnknownVertex(f"edge {e.id!r} references an unknown vertex")
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    components = len(vertices)
    for e in edges:
        if e.a == e.b:
            raise CycleDetected(f"tree: self-loop at vertex {e.a!r}")
        ra, rb = find(e.a), find(e.b)
        if ra == rb:
            raise CycleDetected(f"tree: edge {e.a!r}--{e.b!r} closes a cycle")
        parent[ra] = rb
        components -= 1
    if components > 1:
        raise Disconnected(f"tree: {components} connected components")

    incident = {v: [] for v in vertices}
    for e in edges:
        incident[e.a].append(e.id)
        incident[e.b].append(e.id)
    if set(rotation) != vset:
        raise BadRotation("rotation must cover exactly the vertex set")
    for v in vertices:
        if sorted(rotation[v]) != sorted(incident[v]):
            raise BadRotation(f"rotation at {v!r} is not a permutation of its incident edges")
    rv, re = root
    if rv not in vset:
        raise BadRoot(f"root vertex {rv!r} does not exist")
    if re not in seen_e:
        raise BadRoot(f"root edge {re!r} does not exist")
    if re not in rotation[rv]:
        raise BadRoot(f"root edge {re!r} is not incident to root vertex {rv!r}")


DAMAGES = (
    "drop_rot", "dup_rot", "repeat_rot", "replace_rot", "bogus_rot", "shuffle_rot", "drop_key",
    "extra_key", "root_vertex", "root_edge", "dup_edge", "unknown_end", "self_loop",
    "drop_edge", "extra_edge", "dup_vertex", "no_edges",
)


@st.composite
def damaged_trees(draw):
    """The fields of a random rooted tree after up to three damages to its
    rotation, root, edge list or vertex list (a shuffled rotation stays valid)."""
    t = random_tree(draw(seeds), 8)
    vertices, edges, rotation, root = list(t.vertices), list(t.edges), dict(t.rotation), t.root
    for kind in draw(st.lists(st.sampled_from(DAMAGES), max_size=3)):
        v = draw(st.sampled_from(vertices))
        rot = rotation.get(v, ())
        eids = [e.id for e in edges] + ["zz"]
        if kind == "drop_rot":
            rotation[v] = rot[1:]
        elif kind == "dup_rot":
            rotation[v] = rot + rot[:1]
        elif kind == "repeat_rot":
            rotation[v] = rot[:1] + rot[:-1]  # same length, one edge twice
        elif kind == "replace_rot":
            rotation[v] = (draw(st.sampled_from(eids)),) + rot[1:]
        elif kind == "bogus_rot":
            rotation[v] = rot + ("zz",)
        elif kind == "shuffle_rot":
            rotation[v] = tuple(draw(st.permutations(rot)))
        elif kind == "drop_key":
            rotation.pop(v, None)
        elif kind == "extra_key":
            rotation["ghost"] = ()
        elif kind == "root_vertex":
            root = (draw(st.sampled_from(vertices + ["ghost"])), root[1])
        elif kind == "root_edge":
            root = (root[0], draw(st.sampled_from(eids)))
        elif kind in ("dup_edge", "extra_edge") and edges:
            eid = draw(st.sampled_from(eids[:-1])) if kind == "dup_edge" else "new"
            edges.append(Edge(eid, v, draw(st.sampled_from(vertices))))
        elif kind == "unknown_end" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = Edge(edges[k].id, edges[k].a, "ghost")
        elif kind == "self_loop" and edges:
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = Edge(edges[k].id, edges[k].a, edges[k].a)
        elif kind == "drop_edge" and edges:
            del edges[draw(st.integers(0, len(edges) - 1))]
        elif kind == "dup_vertex":
            vertices.append(v)
        elif kind == "no_edges":
            edges = []
    return tuple(vertices), tuple(edges), rotation, root


def validation_outcome(fn, *fields):
    try:
        fn(*fields)
    except PlumbweaveError as exc:
        return type(exc), str(exc)
    return None


@given(damaged_trees())
@settings(max_examples=400, deadline=None)
def test_tree_validation_matches_reference(fields):
    assert validation_outcome(RootedEmbeddedTree, *fields) == validation_outcome(
        reference_validate, *fields
    )


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
# the breadth-first, sort-based order and the union-find quotient, kept as
# oracles for the one-pass depth-first versions


def reference_order_tree(t: RootedEmbeddedTree) -> OrderedTree:
    """Orient by BFS, linearize each rotation, walk each first-edge chain to
    its leaf for the height, and sort the vertices by ``(height, dist)``."""
    root_v, root_e = t.root
    by_id = t.edge_by_id

    tail, head, incoming = {}, {}, {}
    dist = {root_v: 0}
    queue = deque([root_v])
    while queue:
        v = queue.popleft()
        for eid in t.rotation[v]:
            if eid in tail:
                continue
            w = by_id[eid].other(v)
            if w in dist:
                continue
            tail[eid] = v
            head[eid] = w
            incoming[w] = eid
            dist[w] = dist[v] + 1
            queue.append(w)

    local = {}
    for v in t.vertices:
        rot = t.rotation[v]
        if v == root_v:
            k = rot.index(root_e)
            local[v] = rot[k:] + rot[:k]
        else:
            k = rot.index(incoming[v])
            local[v] = rot[k + 1 :] + rot[: k + 1]

    first_outgoing = {
        v: local[v][0] for v in t.vertices if (v == root_v or len(local[v]) > 1)
    }

    boundary = []
    stack = [root_v]
    while stack:
        v = stack.pop()
        outs = local[v] if v == root_v else local[v][:-1]
        if not outs:
            boundary.append(v)
        for eid in reversed(outs):
            stack.append(head[eid])
    if t.degree(root_v) == 1:
        boundary.append(root_v)
    bindex = {v: i + 1 for i, v in enumerate(boundary)}

    succ = {v: head[e] for v, e in first_outgoing.items()}
    height = {}
    for v in t.vertices:
        chain = []
        u = v
        while u not in height and u in succ:
            chain.append(u)
            u = succ[u]
        if u not in height:
            height[u] = bindex[u]
        for w in reversed(chain):
            height[w] = height[succ[w]]

    vertex_order = tuple(sorted(t.vertices, key=lambda v: (height[v], dist[v])))
    keys = [(height[v], dist[v]) for v in vertex_order]
    assert len(set(keys)) == len(keys), "(height, dist) collision"
    edge_order = tuple(incoming[v] for v in vertex_order[1:])
    return OrderedTree(
        base=t,
        tail=tail,
        head=head,
        vertex_order=vertex_order,
        edge_order=edge_order,
        dist=dist,
        height=height,
        boundary_order=tuple(boundary),
        local_edges=local,
        first_outgoing=first_outgoing,
        vertex_index={v: i for i, v in enumerate(vertex_order)},
        edge_index={e: i for i, e in enumerate(edge_order)},
    )


def reference_quotient(ot: OrderedTree) -> QuotientData:
    """Union the ends of every first outgoing edge, then name the classes by
    first occurrence along the vertex order."""
    parent = {v: v for v in ot.vertex_order}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    contracted = set(ot.first_outgoing.values())
    for eid in contracted:
        parent[find(ot.tail[eid])] = find(ot.head[eid])

    names = {}
    for v in ot.vertex_order:
        names.setdefault(find(v), f"w{len(names)}")
    q = {v: names[find(v)] for v in ot.vertex_order}
    surviving = tuple(e for e in ot.edge_order if e not in contracted)
    qedges = tuple((q[ot.tail[e]], q[ot.head[e]]) for e in surviving)
    return QuotientData(UnrootedTree(tuple(names.values()), qedges), q, surviving)


def reference_fibrate(ot: OrderedTree, n: int) -> AbstractLF:
    """The word from ``reference_quotient``, with each vertex's non-first
    outgoing edges sorted into edge order and labels looked up by id."""
    qd = reference_quotient(ot)
    rank = len(qd.quotient_tree.vertices)
    unit = {
        w: tuple(1 if j == i else 0 for j in range(rank))
        for i, w in enumerate(qd.quotient_tree.vertices)
    }

    def vertex_cycle(v):
        lab = ot.vertex_label(v)
        return VanishingCycle(f"vertex:{lab}", unit[qd.q[v]], f"L_{{q({lab})}}")

    def edge_cycle(e):
        h = ot.head[e]
        return VanishingCycle(
            f"edge:e{ot.edge_index[e]}", unit[qd.q[h]], f"L_{{q({ot.vertex_label(h)})}}"
        )

    root_v = ot.base.root[0]
    word = [edge_cycle(ot.base.root[1])]
    for v in ot.vertex_order:
        if v in ot.first_outgoing:
            outgoing = ot.local_edges[v] if v == root_v else ot.local_edges[v][:-1]
            extras = [e for e in outgoing if e != ot.first_outgoing[v]]
            extras.sort(key=lambda e: ot.edge_index[e])
            word.extend(edge_cycle(e) for e in reversed(extras))
        word.append(vertex_cycle(v))
    return AbstractLF(PlumbingDescriptor(qd.quotient_tree, n - 1), tuple(word), n)


def tree_text(t: RootedEmbeddedTree, keep_rot) -> str:
    """The tree file of ``t``, with a ``rot`` line only for the vertices
    ``keep_rot`` accepts; the others get the default rotation on parsing."""
    lines = [f"root {t.root[0]} {t.root[1]}"]
    lines += [f"edge {e.id} {e.a} {e.b}" for e in t.edges]
    lines += [f"rot {v} {' '.join(t.rotation[v])}" for v in t.vertices if keep_rot(v)]
    return "\n".join(lines) + "\n"


def variant(t: RootedEmbeddedTree, leaf_root: bool, dropped: frozenset) -> RootedEmbeddedTree:
    """``t`` rerooted at its first degree-1 vertex when ``leaf_root``, then
    parsed back with the ``rot`` lines of ``dropped`` vertices left out."""
    if leaf_root:
        v = next(v for v in t.vertices if t.degree(v) == 1)
        t = RootedEmbeddedTree(t.vertices, t.edges, t.rotation, (v, t.rotation[v][0]))
    return parse_tree(tree_text(t, lambda v: v not in dropped))


@given(seeds, st.data())
@settings(max_examples=100, deadline=None)
def test_parse_defaults_missing_rotations_to_declaration_order(seed, data):
    t = random_tree(seed, 14)
    dropped = data.draw(st.frozensets(st.sampled_from(t.vertices)))
    parsed = parse_tree(tree_text(t, lambda v: v not in dropped))
    for v in t.vertices:
        want = (
            tuple(e.id for e in t.edges if v in (e.a, e.b)) if v in dropped else t.rotation[v]
        )
        assert parsed.rotation[v] == want
    assert list(parsed.rotation) == list(parsed.vertices)


@st.composite
def front_end_inputs(draw, max_vertices=40):
    t = random_tree(draw(seeds), max_vertices)
    dropped = frozenset(draw(st.lists(st.sampled_from(t.vertices), max_size=len(t.vertices))))
    return variant(t, draw(st.booleans()), dropped)


def assert_front_end_matches_reference(t: RootedEmbeddedTree) -> None:
    ot = order_tree(t)
    assert ot == reference_order_tree(t)
    assert quotient(ot) == reference_quotient(ot)
    for n in (3, 4):
        assert fibrate(ot, n) == reference_fibrate(ot, n)


@given(front_end_inputs())
@settings(max_examples=300, deadline=None)
def test_front_end_matches_reference(t):
    assert_front_end_matches_reference(t)


@pytest.mark.slow
@pytest.mark.parametrize("leaf_root", [False, True])
@pytest.mark.parametrize("drop_every", [0, 3])
def test_front_end_matches_reference_at_scale(leaf_root, drop_every):
    t = max((random_tree(seed, 2000) for seed in range(5)), key=lambda t: len(t.vertices))
    assert len(t.vertices) == 1959
    dropped = frozenset(t.vertices[::drop_every] if drop_every else ())
    t = variant(t, leaf_root, dropped)
    assert t.degree(t.root[0]) == 1 or not leaf_root
    assert_front_end_matches_reference(t)


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
