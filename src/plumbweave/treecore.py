"""Rooted plane trees and the canonical orders they induce.

A plane tree is stored as a rotation system: for each vertex, the cyclic
sequence of its incident edges.  Rotation systems capture exactly the data
of an embedding into the oriented plane up to orientation-preserving
diffeomorphism, so no coordinates are kept.

Choosing a root (vertex, edge) turns every cyclic order into a linear one:
edges are oriented away from the root, giving each edge a tail and a head,
and the incident edges ``E_v`` of a vertex are linearized by putting the
root edge first (at the root) or the unique incoming edge last (elsewhere).

The canonical vertex order is the depth-first preorder from the root that
explores outgoing edges in linearized order (Tarjan, "Depth-first search
and linear graph algorithms", 1972); edges inherit the order of their
heads, so the head of the i-th edge is the (i+1)-th vertex.  The same pass
yields the rest of the order data:

* the boundary (degree-1) vertices in preorder, which is the outer-face
  walk of the plane tree; a degree-1 root goes last;
* ``dist(v)``, the edge distance from the root;
* ``height(v)``, the boundary index (1-based) of the first non-root leaf at
  or after ``v`` in preorder, which is the leaf reached from ``v`` by
  repeatedly taking the first outgoing edge.

Vertices of equal height lie on one first-edge chain, so the preorder is
also the lexicographic ``(height, dist)`` order.

Contracting the first outgoing edge of every vertex that has one yields the
quotient tree whose vertices index the sphere classes of the plumbing fiber.
A vertex's incoming edge is contracted exactly when it is its tail's first
outgoing edge, and then the tail is the vertex just before it in preorder.
So each quotient class is a run of the preorder that ends at a non-root
leaf, and the class of ``v`` is the one of its height.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from .errors import (
    BadRoot,
    BadRotation,
    CycleDetected,
    Disconnected,
    DuplicateId,
    EmptyTree,
    FormatError,
    IndexOutOfRange,
    UnknownVertex,
)

__all__ = [
    "Edge",
    "RootedEmbeddedTree",
    "OrderedTree",
    "UnrootedTree",
    "QuotientData",
    "parse_tree",
    "order_tree",
    "prefix_subtree",
    "quotient",
    "random_tree",
]


@dataclass(frozen=True)
class Edge:
    """Undirected edge record; orientation is derived later from the root."""

    id: str
    a: str
    b: str

    def other(self, v: str) -> str:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise UnknownVertex(f"vertex {v!r} is not an endpoint of edge {self.id!r}")


def _check_tree_shape(vertices, index_pairs, *, what: str) -> None:
    """Validate that the edges, given as pairs of positions in ``vertices``,
    form a tree on those vertices (union-find with path halving)."""
    parent = list(range(len(vertices)))
    components = len(vertices)  # each successful union merges two of them
    for a, b in index_pairs:
        if a == b:
            raise CycleDetected(f"{what}: self-loop at vertex {vertices[a]!r}")
        i, j = a, b
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i == j:
            raise CycleDetected(
                f"{what}: edge {vertices[a]!r}--{vertices[b]!r} closes a cycle"
            )
        parent[i] = j
        components -= 1
    if components > 1:
        raise Disconnected(f"{what}: {components} connected components")


def _lists_incident_edges(v, rot, degree: int, by_id) -> bool:
    """Whether ``rot`` lists each of the ``degree`` edges at ``v`` exactly
    once.  Edge ids are unique, so that holds iff it has ``degree`` distinct
    entries and each is the id of an edge incident to ``v``."""
    if len(rot) != degree or len(set(rot)) != degree:
        return False
    for eid in rot:
        e = by_id.get(eid)
        if e is None or (e.a != v and e.b != v):
            return False
    return True


@dataclass(frozen=True)
class RootedEmbeddedTree:
    """A plane tree (rotation system) with a chosen (vertex, edge) root.

    ``vertices`` and ``edges`` keep their declaration order; ``rotation``
    maps each vertex to the cyclic sequence of its incident edge ids.
    Instances are validated on construction and immutable afterwards;
    validation also stores ``edge_by_id``, the edge record of each id.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    rotation: dict[str, tuple[str, ...]]
    root: tuple[str, str]
    edge_by_id: dict[str, Edge] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.edges:
            raise EmptyTree("a tree needs at least one edge to carry a root")
        pos = {v: i for i, v in enumerate(self.vertices)}
        if len(pos) != len(self.vertices):
            raise DuplicateId("duplicate vertex identifier")
        by_id: dict[str, Edge] = {}
        degree = [0] * len(pos)
        pairs = []
        for e in self.edges:
            if e.id in by_id:
                raise DuplicateId(f"duplicate edge identifier {e.id!r}")
            by_id[e.id] = e
            i, j = pos.get(e.a), pos.get(e.b)
            if i is None or j is None:
                raise UnknownVertex(f"edge {e.id!r} references an unknown vertex")
            degree[i] += 1
            degree[j] += 1
            pairs.append((i, j))
        _check_tree_shape(self.vertices, pairs, what="tree")

        if set(self.rotation) != pos.keys():
            raise BadRotation("rotation must cover exactly the vertex set")
        for v, d in zip(self.vertices, degree):
            if not _lists_incident_edges(v, self.rotation[v], d, by_id):
                raise BadRotation(
                    f"rotation at {v!r} is not a permutation of its incident edges"
                )

        rv, re = self.root
        if rv not in pos:
            raise BadRoot(f"root vertex {rv!r} does not exist")
        if re not in by_id:
            raise BadRoot(f"root edge {re!r} does not exist")
        if re not in self.rotation[rv]:
            raise BadRoot(f"root edge {re!r} is not incident to root vertex {rv!r}")
        object.__setattr__(self, "edge_by_id", by_id)

    def degree(self, v: str) -> int:
        return len(self.rotation[v])


def parse_tree(text: str) -> RootedEmbeddedTree:
    """Parse the line-oriented tree file format.

    Directives: ``root VERTEX EDGE``, ``edge ID A B``, ``rot VERTEX E...``.
    ``#`` starts a comment; blank lines are skipped.  ``rot`` lines are
    optional; the default rotation is the edge declaration order.
    """
    edges: list[Edge] = []
    ends: list[str] = []
    rot_lines: dict[str, tuple[str, ...]] = {}
    root: tuple[str, str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        kind, args = tokens[0], tokens[1:]
        if kind == "edge":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: edge wants ID A B")
            edges.append(Edge(*args))
            ends += args[1:]
        elif kind == "root":
            if len(args) != 2:
                raise FormatError(f"line {lineno}: root wants VERTEX EDGE")
            if root is not None:
                raise FormatError(f"line {lineno}: more than one root declaration")
            root = (args[0], args[1])
        elif kind == "rot":
            if len(args) < 2:
                raise FormatError(f"line {lineno}: rot wants VERTEX EDGE...")
            v = args[0]
            if v in rot_lines:
                raise DuplicateId(f"line {lineno}: duplicate rot for vertex {v!r}")
            rot_lines[v] = tuple(args[1:])
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")

    if not edges:
        raise EmptyTree("no edges declared; a single vertex cannot carry a root")
    if root is None:
        raise BadRoot("no root declared")
    vertices = dict.fromkeys(ends)  # first mention order
    for v in rot_lines:
        if v not in vertices:
            raise BadRotation(f"rot line for unknown vertex {v!r}")

    # incidence lists only where a rot line is missing; duplicate edge ids
    # are left to RootedEmbeddedTree's validation
    incident: dict[str, list[str]] = {v: [] for v in vertices if v not in rot_lines}
    if incident:
        for e in edges:
            if e.a in incident:
                incident[e.a].append(e.id)
            if e.b in incident:
                incident[e.b].append(e.id)
    rotation = {v: rot_lines.get(v) or tuple(incident[v]) for v in vertices}
    return RootedEmbeddedTree(tuple(vertices), tuple(edges), rotation, root)


@dataclass(frozen=True)
class OrderedTree:
    """A rooted plane tree together with all derived order data.

    ``vertex_order[i]`` is the caller id of the i-th vertex (canonical label
    ``v{i}``); ``edge_order[i]`` the id of the i-th edge (label ``e{i}``),
    whose head is ``vertex_order[i+1]``.
    """

    base: RootedEmbeddedTree
    tail: dict[str, str]
    head: dict[str, str]
    vertex_order: tuple[str, ...]
    edge_order: tuple[str, ...]
    dist: dict[str, int]
    height: dict[str, int]
    boundary_order: tuple[str, ...]
    local_edges: dict[str, tuple[str, ...]]
    first_outgoing: dict[str, str]
    vertex_index: dict[str, int] = field(repr=False)
    edge_index: dict[str, int] = field(repr=False)

    @property
    def m(self) -> int:
        """Number of edges (= number of vertices - 1)."""
        return len(self.edge_order)

    def vertex_label(self, v: str) -> str:
        return f"v{self.vertex_index[v]}"


def order_tree(t: RootedEmbeddedTree) -> OrderedTree:
    """Compute directions, local orders, boundary order, heights, and the
    total orders on vertices and edges of a rooted plane tree, in one
    depth-first pass from the root and one backward sweep for the heights."""
    root_v, root_e = t.root
    by_id = t.edge_by_id
    rotation = t.rotation
    tail: dict[str, str] = {}
    head: dict[str, str] = {}
    dist: dict[str, int] = {}
    local: dict[str, tuple[str, ...]] = {}
    first_outgoing: dict[str, str] = {}
    vertex_order: list[str] = []
    edge_order: list[str] = []
    boundary: list[str] = []

    # the root (depth 0) is entered through its root edge, which its local
    # order puts first; every other vertex through its incoming edge, which
    # its local order puts last
    stack = [(root_v, root_e, 0)]
    while stack:
        v, e_in, d = stack.pop()
        vertex_order.append(v)
        dist[v] = d
        rot = rotation[v]
        k = rot.index(e_in)
        if d:
            edge_order.append(e_in)
            local[v] = rot[k + 1 :] + rot[: k + 1]
            outs = local[v][:-1]
        else:
            outs = local[v] = rot[k:] + rot[:k]
        if not outs:
            boundary.append(v)
            continue
        first_outgoing[v] = outs[0]
        for e in reversed(outs):
            w = by_id[e].other(v)
            tail[e] = v
            head[e] = w
            stack.append((w, e, d + 1))

    # heights: each non-root leaf closes the run of vertices before it
    height: dict[str, int] = {}
    b = len(boundary) + 1
    for v in reversed(vertex_order):
        if v not in first_outgoing:
            b -= 1
        height[v] = b
    if len(rotation[root_v]) == 1:
        boundary.append(root_v)

    return OrderedTree(
        base=t,
        tail=tail,
        head=head,
        vertex_order=tuple(vertex_order),
        edge_order=tuple(edge_order),
        dist=dist,
        height=height,
        boundary_order=tuple(boundary),
        local_edges=local,
        first_outgoing=first_outgoing,
        vertex_index={v: i for i, v in enumerate(vertex_order)},
        edge_index={e: i for i, e in enumerate(edge_order)},
    )


def prefix_subtree(ot: OrderedTree, k: int) -> RootedEmbeddedTree:
    """The subtree on the first k+1 vertices and first k edges (1 <= k <= m)."""
    if not 1 <= k <= ot.m:
        raise IndexOutOfRange(f"prefix index {k} not in 1..{ot.m}")
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


@dataclass(frozen=True)
class UnrootedTree:
    """A bare tree pattern: ordered vertex names plus undirected edges.

    Used for quotient trees and plumbing patterns; a single vertex with no
    edges is legal here (unlike rooted trees).  Validation also stores the
    index adjacency: ``above[i]`` and ``below[i]`` are the positions of the
    neighbours of the i-th vertex that come after and before it.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    above: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    below: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.vertices:
            raise EmptyTree("a pattern needs at least one vertex")
        pos = {v: i for i, v in enumerate(self.vertices)}
        if len(pos) != len(self.vertices):
            raise DuplicateId("duplicate pattern vertex")
        if len(self.edges) != len(self.vertices) - 1:
            raise CycleDetected(
                f"{len(self.edges)} edges on {len(self.vertices)} vertices is not a tree"
            )
        pairs = []
        for a, b in self.edges:
            i, j = pos.get(a), pos.get(b)
            if i is None or j is None:
                raise UnknownVertex(f"pattern edge ({a!r}, {b!r}) references unknown vertex")
            pairs.append((i, j))
        _check_tree_shape(self.vertices, pairs, what="pattern")
        above: list[list[int]] = [[] for _ in pos]
        below: list[list[int]] = [[] for _ in pos]
        for i, j in pairs:
            if i > j:
                i, j = j, i
            above[i].append(j)
            below[j].append(i)
        object.__setattr__(self, "above", tuple(map(tuple, above)))
        object.__setattr__(self, "below", tuple(map(tuple, below)))

    def edge_index_pairs(self) -> frozenset[tuple[int, int]]:
        """Edges as position pairs, for name-independent comparison."""
        return frozenset((i, j) for i, ups in enumerate(self.above) for j in ups)


@dataclass(frozen=True)
class QuotientData:
    """The contracted tree, the vertex surjection q, and surviving edges.

    Contracted edges are exactly the first outgoing edges of vertices that
    have one; leaves contribute no contraction.  Class names ``w0, w1, ...``
    are assigned by first occurrence along the vertex order, so the class of
    the root is always ``w0``.
    """

    quotient_tree: UnrootedTree
    q: dict[str, str]
    surviving_edges: tuple[str, ...]


def quotient(ot: OrderedTree) -> QuotientData:
    """Contract every vertex's first outgoing edge and name the classes.

    Each class is a run of the vertex order that ends at a non-root leaf,
    which has no first outgoing edge, so the class of ``v`` is the one of
    its height.  The next run starts at a vertex whose incoming edge is not
    its tail's first outgoing edge; those incoming edges are the surviving
    ones."""
    height, edge_order = ot.height, ot.edge_order
    # the last vertex is the last non-root leaf, whose height is their number
    names = [f"w{k}" for k in range(height[ot.vertex_order[-1]])]
    q = {v: names[height[v] - 1] for v in ot.vertex_order}
    surviving = tuple(
        edge_order[ot.vertex_index[leaf]] for leaf in ot.boundary_order[: len(names) - 1]
    )
    qedges = tuple((q[ot.tail[e]], w) for e, w in zip(surviving, names[1:]))
    return QuotientData(UnrootedTree(tuple(names), qedges), q, surviving)


def random_tree(seed: int, max_vertices: int) -> RootedEmbeddedTree:
    """Deterministic-in-seed random rooted plane tree with 2..max_vertices
    vertices, a shuffled rotation system, and a random legal root."""
    if max_vertices < 2:
        raise IndexOutOfRange("max_vertices must be at least 2")
    rng = random.Random(seed)
    nv = rng.randint(2, max_vertices)
    labels = [f"x{i}" for i in range(nv)]

    # uniform labeled tree via Prüfer decoding
    pairs: list[tuple[int, int]] = []
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

    edges = tuple(Edge(f"g{i}", labels[a], labels[b]) for i, (a, b) in enumerate(pairs))
    incident: dict[str, list[str]] = {v: [] for v in labels}
    for e in edges:
        incident[e.a].append(e.id)
        incident[e.b].append(e.id)
    rotation = {}
    for v in labels:
        rot = list(incident[v])
        rng.shuffle(rot)
        rotation[v] = tuple(rot)
    root_v = labels[rng.randrange(nv)]
    root_e = rotation[root_v][rng.randrange(len(rotation[root_v]))]
    return RootedEmbeddedTree(tuple(labels), edges, rotation, (root_v, root_e))
