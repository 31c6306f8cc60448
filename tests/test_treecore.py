import heapq
import random
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    fibrate,
    order_tree,
    parse_tree,
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


def test_edge_is_an_immutable_hashable_record():
    e = Edge("e0", "v0", "v1")
    assert e == Edge("e0", "v0", "v1") and hash(e) == hash(Edge("e0", "v0", "v1"))
    assert e != Edge("e0", "v1", "v0")
    with pytest.raises(AttributeError):
        e.a = "v2"
    assert (e.id, e.a, e.b) == ("e0", "v0", "v1")


def test_edge_other_end():
    e = Edge("e0", "v0", "v1")
    assert e.other("v0") == "v1" and e.other("v1") == "v0"
    with pytest.raises(UnknownVertex):
        e.other("v2")


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


def test_pattern_with_too_few_edges_is_disconnected():
    with pytest.raises(Disconnected, match="pattern: 2 connected components"):
        UnrootedTree(("a", "b", "c"), (("a", "b"),))


def test_pattern_with_too_many_edges_names_the_edge_closing_a_cycle():
    with pytest.raises(CycleDetected, match="pattern: edge 'b'--'a' closes a cycle"):
        UnrootedTree(("a", "b"), (("a", "b"), ("b", "a")))
    with pytest.raises(Disconnected, match="tree: 3 connected components"):
        parse_tree("root a ab\nedge ab a b\nedge cd c d\nedge ef e f\nedge eg e g\n")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UnrootedTree(("a", "b", "c"), (("a", "b", "c"),)),
         r"pattern edge \('a', 'b', 'c'\) is not a pair of vertices"),
        (lambda: UnrootedTree(("a", "b"), (5,)), "pattern edge 5 is not a pair of vertices"),
        (lambda: RootedEmbeddedTree(("a", "b"), (("e0", "a"),), {"a": ("e0",), "b": ("e0",)},
                                    ("a", "e0")),
         r"edge record \('e0', 'a'\) is not \(id, a, b\)"),
        (lambda: RootedEmbeddedTree(("a", "b"), (5,), {"a": ("e0",), "b": ("e0",)}, ("a", "e0")),
         r"edge record 5 is not \(id, a, b\)"),
    ],
    ids=["pattern-triple", "pattern-int", "rooted-pair", "rooted-int"],
)
def test_an_edge_of_the_wrong_shape_is_refused(build, message):
    with pytest.raises(FormatError, match=message):
        build()


ROT_AB = {"a": ("e",), "b": ("e",)}


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: UnrootedTree(("a", "b"), ("ab",)), "pattern edge 'ab' is not a pair of vertices"),
        (lambda: UnrootedTree(("a", "b"), ({"a": 0, "b": 1},)),
         "pattern edge {'a': 0, 'b': 1} is not a pair of vertices"),
        (lambda: RootedEmbeddedTree(("a", "b"), ("eab",), ROT_AB, ("a", "e")),
         r"edge record 'eab' is not \(id, a, b\)"),
        (lambda: RootedEmbeddedTree(("a", "b"), ({"e", "a", "b"},), ROT_AB, ("a", "e")),
         r"edge record .* is not \(id, a, b\)"),
        (lambda: UnrootedTree((["a"],), ()), "pattern: a vertex name is not hashable"),
        (lambda: UnrootedTree(("a", "b"), ((["a"], "b"),)),
         r"pattern edge \(\['a'\], 'b'\) is not a pair of vertices"),
        (lambda: RootedEmbeddedTree((["a"], "b"), (("e", "a", "b"),), ROT_AB, ("a", "e")),
         "tree: a vertex name is not hashable"),
        (lambda: RootedEmbeddedTree(("a", "b"), ((["e"], "a", "b"),), ROT_AB, ("a", "e")),
         r"edge record \(\['e'\], 'a', 'b'\) is not \(id, a, b\)"),
        (lambda: RootedEmbeddedTree(("a", "b"), (("e", "a", ["b"]),), ROT_AB, ("a", "e")),
         r"edge record \('e', 'a', \['b'\]\) is not \(id, a, b\)"),
        (lambda: RootedEmbeddedTree(("a", "b"), (("e", "a", "b"),), ROT_AB, (["a"], "e")),
         r"root \(\['a'\], 'e'\) is not a \(vertex, edge id\) pair"),
        (lambda: RootedEmbeddedTree(("a", "b"), (("e", "a", "b"),), ROT_AB, ("a",)),
         r"root \('a',\) is not a \(vertex, edge id\) pair"),
    ],
    ids=["pattern-string", "pattern-dict", "rooted-string", "rooted-set", "pattern-vertex-list",
         "pattern-end-list", "rooted-vertex-list", "rooted-id-list", "rooted-end-list",
         "root-vertex-list", "root-single"],
)
def test_a_record_that_is_not_a_sequence_or_an_unhashable_name_is_refused(build, message):
    with pytest.raises(FormatError, match=message):
        build()


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_edge_tuple_and_list_records_order_alike(ex_tree, seed):
    t = ex_tree if seed is None else random_tree(seed, 40)
    orders = []
    for record in (Edge, lambda *f: f, lambda *f: list(f)):
        edges = tuple(record(*e) for e in t.edges)
        ot = order_tree(RootedEmbeddedTree(t.vertices, edges, t.rotation, t.root))
        orders.append({f: getattr(ot, f) for f in OrderedTree.__dataclass_fields__ if f != "base"})
    assert orders[0] == orders[1] == orders[2]
    assert orders[0] == {f: getattr(order_tree(t), f) for f in orders[0]}


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
    with pytest.raises(BadRoot, match="root edge 'e9' does not exist"):
        parse_tree("root a e9\nedge e0 a b\n")


def test_parse_empty():
    with pytest.raises(EmptyTree):
        parse_tree("# nothing but a comment\n")


def test_parse_malformed_line():
    with pytest.raises(FormatError):
        parse_tree("root a e0\nedge e0 a b\nfrob x\n")
    for line, error, message in [
        ("root b e0", FormatError, "line 3: more than one root declaration"),
        ("rot a", FormatError, r"line 3: rot wants VERTEX EDGE\.\.\."),
        ("rot c e0", BadRotation, "rot line for unknown vertex 'c'"),
    ]:
        with pytest.raises(error, match=message):
            parse_tree(f"root a e0\nedge e0 a b\n{line}\n")
    with pytest.raises(DuplicateId, match="line 4: duplicate rot for vertex 'a'"):
        parse_tree("root a e0\nedge e0 a b\nrot a e0\nrot a e0\n")


def test_parse_comments_and_blanks(ex_tree):
    noisy = "\n# header\n" + EX_TEXT.replace("edge e1 v1 v2", "edge e1 v1 v2  # chain")
    assert parse_tree(noisy) == ex_tree


@pytest.mark.parametrize("rot", [None, 5, (["e0"],), ({"e0"},), {"e0": 1}, {"e0"}],
                         ids=["none", "int", "list-entry", "set-entry", "dict", "set"])
def test_a_rotation_that_is_not_a_sequence_of_ids_is_refused(rot):
    edges = (Edge("e0", "a", "b"),)
    with pytest.raises(BadRotation, match="rotation at 'a'"):
        RootedEmbeddedTree(("a", "b"), edges, {"a": rot, "b": ("e0",)}, ("a", "e0"))
    # the per-edge checks still come first, and the root check after
    with pytest.raises(DuplicateId):
        RootedEmbeddedTree(("a", "b"), edges * 2, {"a": rot, "b": rot}, ("a", "e0"))
    with pytest.raises(BadRotation):
        RootedEmbeddedTree(("a", "b"), edges, {"a": rot, "b": ("e0",)}, ("c", "e1"))


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


def ids(ot: OrderedTree, positions) -> list[str]:
    """The caller ids of the vertices at ``positions``."""
    return [ot.vertex_order[k] for k in positions]


def test_order_ex(ex_ordered):
    ot = ex_ordered
    assert ot.vertex_order == ("v0", "v1", "v2", "v3", "v4", "v5")
    assert ot.edge_order == ("e0", "e1", "e2", "e3", "e4")
    assert list(ot.dist) == [0, 1, 2, 2, 2, 1]
    assert list(ot.height) == [1, 1, 1, 2, 3, 4]
    assert ids(ot, ot.tail) == ["v0", "v1", "v1", "v1", "v0"]
    assert ids(ot, ot.boundary_order) == ["v2", "v3", "v4", "v5"]


def test_order_a2(a2_ordered):
    ot = a2_ordered
    assert ot.vertex_order == ("v0", "v1")
    assert ot.edge_order == ("e0",)
    assert list(ot.dist) == [0, 1]
    assert list(ot.height) == [1, 1]
    # degree-1 root goes last in the boundary order
    assert ids(ot, ot.boundary_order) == ["v1", "v0"]


def test_order_path3(path3_ordered):
    ot = path3_ordered
    assert ot.vertex_order == ("v0", "v1", "v2")
    assert list(ot.height) == [1, 1, 1]
    assert list(ot.dist) == [0, 1, 2]


def test_local_orders_ex(ex_ordered):
    ot = ex_ordered
    ref = reference_order_tree(ot.base)
    # root edge first at the root, incoming edge last elsewhere
    assert ref.local["v0"] == ("e0", "e4")
    assert ref.local["v1"] == ("e1", "e2", "e3", "e0")
    assert ref.firsts["v0"] == "e0"
    assert ref.firsts["v1"] == "e1"
    assert "v2" not in ref.firsts
    # a first outgoing edge leads to the next vertex: e0 and e1 leave their
    # heads' predecessors, e2 (head v3) does not leave v2
    assert ot.edge_order[0] == "e0" and ot.tail[0] == 0
    assert ot.edge_order[1] == "e1" and ot.tail[1] == 1
    assert ot.tail[2] != 2


@st.composite
def rooted_inner_and_leaf(draw, max_vertices=40):
    """A random tree rooted once at an inner vertex (when it has one) and
    once at a leaf, each at a drawn edge of the root."""
    t = random_tree(draw(seeds), max_vertices)
    out = []
    for inner in (True, False):
        roots = [v for v in t.vertices if (len(t.rotation[v]) > 1) == inner]
        if roots:
            v = draw(st.sampled_from(roots))
            e = draw(st.sampled_from(t.rotation[v]))
            out.append(RootedEmbeddedTree(t.vertices, t.edges, t.rotation, (v, e)))
    return out


@given(rooted_inner_and_leaf())
@settings(max_examples=150, deadline=None)
def test_tail_marks_the_first_edge_of_each_linearized_rotation(trees):
    for t in trees:
        ot = order_tree(t)
        local = reference_order_tree(t).local
        for i, e in enumerate(ot.edge_order):
            first = local[ot.vertex_order[ot.tail[i]]][0] == e
            assert (ot.tail[i] == i) == first


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


def frozen_random_tree(seed: int, max_vertices: int):
    """A frozen copy of the seeded tree generator, kept as the oracle that
    pins every seeded tree: vertices, edge records, rotations and root."""
    rng = random.Random(seed)
    nv = rng.randint(2, max_vertices)
    labels = [f"x{i}" for i in range(nv)]
    pairs = []
    if nv == 2:
        pairs.append((0, 1))
    else:
        seq = [rng.randrange(nv) for _ in range(nv - 2)]
        degree = [1] * nv
        for s in seq:
            degree[s] += 1
        leaves = [i for i in range(nv) if degree[i] == 1]
        heapq.heapify(leaves)
        for s in seq:
            leaf = heapq.heappop(leaves)
            pairs.append((leaf, s))
            degree[s] -= 1
            if degree[s] == 1:
                heapq.heappush(leaves, s)
        pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    edges = tuple((f"g{i}", labels[a], labels[b]) for i, (a, b) in enumerate(pairs))
    rotation = {}
    for v in labels:
        rot = [eid for eid, a, b in edges if v in (a, b)]
        rng.shuffle(rot)
        rotation[v] = tuple(rot)
    root_v = labels[rng.randrange(nv)]
    root_e = rotation[root_v][rng.randrange(len(rotation[root_v]))]
    return tuple(labels), edges, rotation, (root_v, root_e)


@pytest.mark.parametrize("max_vertices", [2, 3, 14])
def test_random_tree_matches_the_frozen_generator(max_vertices):
    for seed in range(300):
        t = random_tree(seed, max_vertices)
        got = (t.vertices, tuple(map(tuple, t.edges)), t.rotation, t.root)
        assert got == frozen_random_tree(seed, max_vertices), seed


def test_random_tree_refuses_a_size_that_is_not_an_integer():
    with pytest.raises(FormatError):
        random_tree(1, 14.5)


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
# the prefix subtrees of the handle picture


def prefix_subtree(ot: OrderedTree, k: int) -> RootedEmbeddedTree:
    """The subtree on the first k+1 vertices and first k edges (1 <= k <= m)."""
    m = len(ot.edge_order)
    if not 1 <= k <= m:
        raise IndexOutOfRange(f"prefix index {k} not in 1..{m}")
    keep_v = set(ot.vertex_order[: k + 1])
    keep_e = set(ot.edge_order[:k])
    base = ot.base
    return RootedEmbeddedTree(
        vertices=tuple(v for v in base.vertices if v in keep_v),
        edges=tuple(e for e in base.edges if e.id in keep_e),
        rotation={
            v: tuple(e for e in base.rotation[v] if e in keep_e)
            for v in base.vertices
            if v in keep_v
        },
        root=base.root,
    )


# ---------------------------------------------------------------------------
# the breadth-first, sort-based order and the union-find quotient, kept as
# oracles for the one-pass depth-first versions


@dataclass(frozen=True)
class ReferenceOrder:
    """The order data keyed by caller id, as the reference computes it:
    tails and heads by edge id; distances, heights, linearized rotations and
    first outgoing edges by vertex id; and the boundary as vertex ids."""

    base: RootedEmbeddedTree
    vertex_order: tuple[str, ...]
    edge_order: tuple[str, ...]
    tail: dict[str, str]
    head: dict[str, str]
    dist: dict[str, int]
    height: dict[str, int]
    boundary_order: tuple[str, ...]
    local: dict[str, tuple[str, ...]]
    firsts: dict[str, str]


def reference_order_tree(t: RootedEmbeddedTree) -> ReferenceOrder:
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

    firsts = {
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
    if len(t.rotation[root_v]) == 1:
        boundary.append(root_v)
    bindex = {v: i + 1 for i, v in enumerate(boundary)}

    succ = {v: head[e] for v, e in firsts.items()}
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
    return ReferenceOrder(
        base=t,
        vertex_order=vertex_order,
        edge_order=edge_order,
        tail=tail,
        head=head,
        dist=dist,
        height=height,
        boundary_order=tuple(boundary),
        local=local,
        firsts=firsts,
    )


def by_position(ref: ReferenceOrder) -> OrderedTree:
    """The reference's facts as an :class:`OrderedTree`: each by-id map
    read along the vertex or edge order, each vertex id as its position."""
    pos = {v: i for i, v in enumerate(ref.vertex_order)}
    return OrderedTree(
        base=ref.base,
        vertex_order=ref.vertex_order,
        edge_order=ref.edge_order,
        tail=tuple(pos[ref.tail[e]] for e in ref.edge_order),
        dist=tuple(ref.dist[v] for v in ref.vertex_order),
        height=tuple(ref.height[v] for v in ref.vertex_order),
        boundary_order=tuple(pos[v] for v in ref.boundary_order),
    )


def reference_quotient(ref: ReferenceOrder) -> QuotientData:
    """Union the ends of every first outgoing edge, then name the classes by
    first occurrence along the vertex order."""
    parent = {v: v for v in ref.vertex_order}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    contracted = set(ref.firsts.values())
    for eid in contracted:
        parent[find(ref.tail[eid])] = find(ref.head[eid])

    names = {}
    for v in ref.vertex_order:
        names.setdefault(find(v), f"w{len(names)}")
    q = {v: names[find(v)] for v in ref.vertex_order}
    surviving = tuple(e for e in ref.edge_order if e not in contracted)
    qedges = tuple((q[ref.tail[e]], q[ref.head[e]]) for e in surviving)
    return QuotientData(UnrootedTree(tuple(names.values()), qedges), q, surviving)


def reference_fibrate(ref: ReferenceOrder, n: int) -> AbstractLF:
    """The word from ``reference_quotient``, with each vertex's non-first
    outgoing edges sorted into edge order and labels looked up by id."""
    qd = reference_quotient(ref)
    rank = len(qd.quotient_tree.vertices)
    unit = {
        w: tuple(1 if j == i else 0 for j in range(rank))
        for i, w in enumerate(qd.quotient_tree.vertices)
    }
    vertex_label = {v: f"v{i}" for i, v in enumerate(ref.vertex_order)}
    edge_index = {e: i for i, e in enumerate(ref.edge_order)}

    def vertex_cycle(v):
        lab = vertex_label[v]
        return VanishingCycle(f"vertex:{lab}", unit[qd.q[v]], f"L_{{q({lab})}}")

    def edge_cycle(e):
        h = ref.head[e]
        return VanishingCycle(
            f"edge:e{edge_index[e]}", unit[qd.q[h]], f"L_{{q({vertex_label[h]})}}"
        )

    root_v = ref.base.root[0]
    firsts = ref.firsts
    word = [edge_cycle(ref.base.root[1])]
    for v in ref.vertex_order:
        if v in firsts:
            outgoing = ref.local[v] if v == root_v else ref.local[v][:-1]
            extras = [e for e in outgoing if e != firsts[v]]
            extras.sort(key=edge_index.__getitem__)
            word.extend(edge_cycle(e) for e in reversed(extras))
        word.append(vertex_cycle(v))
    return AbstractLF(PlumbingDescriptor(qd.quotient_tree, n - 1), tuple(word))


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
        v = next(v for v in t.vertices if len(t.rotation[v]) == 1)
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
    ref = reference_order_tree(t)
    assert ot == by_position(ref)
    assert quotient(ot) == reference_quotient(ref)
    for n in (3, 4):
        assert fibrate(ot, n) == reference_fibrate(ref, n)


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
    assert len(t.rotation[t.root[0]]) == 1 or not leaf_root
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
    keys = list(zip(ot.height, ot.dist))
    assert len(set(keys)) == len(keys)
    assert keys == sorted(keys)

    # e_i joins its tail to v_{i+1}, so the heads enumerate v_1..v_m exactly
    for i, e in enumerate(ot.edge_order):
        ends = t.edge_by_id[e]
        assert {ends.a, ends.b} == {vs[ot.tail[i]], vs[i + 1]}

    # each later vertex hangs off an earlier one via its incoming edge
    for i in range(len(ot.edge_order)):
        assert ot.tail[i] <= i

    # incoming edge is last in the linearized local order
    ref = reference_order_tree(t)
    for i, v in enumerate(vs[1:], start=1):
        assert ref.local[v][-1] == ot.edge_order[i - 1]

    # the first-edge walk from any vertex ends at the leaf whose boundary
    # index is the vertex's height
    head = {e: vs[i + 1] for i, e in enumerate(ot.edge_order)}
    bindex = {vs[k]: j + 1 for j, k in enumerate(ot.boundary_order)}
    firsts = ref.firsts
    for i, v in enumerate(vs):
        u = v
        while u in firsts:
            u = head[firsts[u]]
        assert bindex[u] == ot.height[i]

    # consecutive-head edges are first outgoing edges of their tail, or root
    for i, e in enumerate(ot.edge_order):
        if ot.tail[i] == i:
            assert e == ot.base.root[1] or firsts[vs[i]] == e


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
    assert leaves == ids(ot, ot.boundary_order)


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_quotient_invariants(seed):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    qd = quotient(ot)
    vs = ot.vertex_order
    firsts = reference_order_tree(t).firsts
    n_contracting = len(firsts)
    assert len(qd.quotient_tree.vertices) == len(t.vertices) - n_contracting
    survivors = set(qd.surviving_edges)
    for i, e in enumerate(ot.edge_order):
        contracted = e not in survivors
        assert contracted == (qd.q[vs[ot.tail[i]]] == qd.q[vs[i + 1]])
    assert set(firsts.values()) == set(ot.edge_order) - survivors


@given(seeds, st.sampled_from([14, 200]))
@settings(max_examples=100, deadline=None)
def test_the_quotient_tree_is_the_validated_one(seed, size):
    # quotient stores its tree without the checks; the public constructor
    # must accept it and derive the same adjacency
    qt = quotient(order_tree(random_tree(seed, size))).quotient_tree
    checked = UnrootedTree(qt.vertices, qt.edges)
    assert qt == checked
    assert (qt.above, qt.below) == (checked.above, checked.below)
    assert type(qt.vertices) is type(qt.edges) is tuple


@given(seeds, st.integers(min_value=1, max_value=13))
@settings(max_examples=100, deadline=None)
def test_prefix_orders_consistently(seed, k):
    t = random_tree(seed, 14)
    ot = order_tree(t)
    k = min(k, len(ot.edge_order))
    sub_ot = order_tree(prefix_subtree(ot, k))
    assert sub_ot.vertex_order == ot.vertex_order[: k + 1]
    assert sub_ot.edge_order == ot.edge_order[:k]
