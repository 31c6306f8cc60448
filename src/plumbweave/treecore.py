"""Rooted plane trees and the canonical orders they induce.

A plane tree is stored as a rotation system: for each vertex, the cyclic
sequence of its incident edges.  Rotation systems capture exactly the data
of an embedding into the oriented plane up to orientation-preserving
diffeomorphism, so no coordinates are kept.

Choosing a root (vertex, edge) turns every cyclic order into a linear one:

* edges are oriented away from the root, giving each edge a tail and a head;
* the incident edges ``E_v`` of a vertex are linearized by putting the root
  edge first (at the root) or the unique incoming edge last (elsewhere);
* the boundary (degree-1) vertices are enumerated by the depth-first
  traversal that explores outgoing edges in linearized order, which equals
  the outer-face walk of the plane tree; a degree-1 root goes last;
* ``height(v)`` is the boundary index (1-based) of the leaf reached from
  ``v`` by repeatedly taking the first outgoing edge, and ``dist(v)`` is the
  edge distance from the root.

Vertices are then totally ordered by ``(height, dist)`` lexicographically —
the order is strict because vertices of equal height lie on a single
first-edge chain — and edges inherit the order of their heads: the head of
the i-th edge is the (i+1)-th vertex.

Contracting the first outgoing edge of every vertex that has one yields the
quotient tree whose vertices index the sphere classes of the plumbing fiber.
"""

from __future__ import annotations

import random
from collections import deque
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
    "canonical_coords",
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


class _UnionFind:
    def __init__(self, items):
        self._parent = {x: x for x in items}

    def find(self, x):
        p = self._parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y) -> bool:
        """Merge the classes of x and y; False if they were already equal."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        self._parent[rx] = ry
        return True


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
    Instances are validated on construction and immutable afterwards.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    rotation: dict[str, tuple[str, ...]]
    root: tuple[str, str]

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

    @property
    def edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    def degree(self, v: str) -> int:
        return len(self.rotation[v])


def parse_tree(text: str) -> RootedEmbeddedTree:
    """Parse the line-oriented tree file format.

    Directives: ``root VERTEX EDGE``, ``edge ID A B``, ``rot VERTEX E...``.
    ``#`` starts a comment; blank lines are skipped.  ``rot`` lines are
    optional; the default rotation is the edge declaration order.
    """
    edges: list[Edge] = []
    edge_ids: set[str] = set()
    vertices: list[str] = []
    vset: set[str] = set()
    rot_lines: dict[str, tuple[str, ...]] = {}
    root: tuple[str, str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "edge":
            if len(args) != 3:
                raise FormatError(f"line {lineno}: edge wants ID A B")
            eid, a, b = args
            if eid in edge_ids:
                raise DuplicateId(f"line {lineno}: duplicate edge identifier {eid!r}")
            edge_ids.add(eid)
            edges.append(Edge(eid, a, b))
            for v in (a, b):
                if v not in vset:
                    vset.add(v)
                    vertices.append(v)
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
    for v in rot_lines:
        if v not in vset:
            raise BadRotation(f"rot line for unknown vertex {v!r}")

    incident: dict[str, list[str]] = {v: [] for v in vertices}
    for e in edges:
        incident[e.a].append(e.id)
        incident[e.b].append(e.id)
    rotation = {
        v: rot_lines.get(v, tuple(incident[v])) for v in vertices
    }
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

    def edge_label(self, e: str) -> str:
        return f"e{self.edge_index[e]}"

    def outgoing(self, v: str) -> tuple[str, ...]:
        """Outgoing edges of v in linearized order."""
        local = self.local_edges[v]
        if v == self.base.root[0]:
            return local
        return local[:-1]


def order_tree(t: RootedEmbeddedTree) -> OrderedTree:
    """Compute directions, local orders, boundary order, heights, and the
    total orders on vertices and edges of a rooted plane tree."""
    root_v, root_e = t.root
    by_id = t.edge_by_id

    # orient away from the root; dist = BFS depth
    tail: dict[str, str] = {}
    head: dict[str, str] = {}
    incoming: dict[str, str] = {}
    dist: dict[str, int] = {root_v: 0}
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

    # linearize each cyclic E_v: root edge first at the root, incoming last elsewhere
    local: dict[str, tuple[str, ...]] = {}
    for v in t.vertices:
        rot = t.rotation[v]
        if v == root_v:
            k = rot.index(root_e)
            local[v] = rot[k:] + rot[:k]
        else:
            k = rot.index(incoming[v])
            local[v] = rot[k + 1 :] + rot[: k + 1]

    first_outgoing = {
        v: local[v][0]
        for v in t.vertices
        if (v == root_v or len(local[v]) > 1)
    }

    # boundary vertices in DFS order (outer-face walk); degree-1 root goes last
    boundary: list[str] = []
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

    # height: boundary index of the leaf at the end of the first-edge chain
    succ = {v: head[e] for v, e in first_outgoing.items()}
    height: dict[str, int] = {}
    for v in t.vertices:
        chain: list[str] = []
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
    if len(set(keys)) != len(keys):  # impossible for valid rotation systems
        raise AssertionError("(height, dist) collision: vertex order not strict")
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
    """Contract every vertex's first outgoing edge and name the classes."""
    contracted = set(ot.first_outgoing.values())
    uf = _UnionFind(ot.vertex_order)
    for eid in contracted:
        uf.union(ot.tail[eid], ot.head[eid])

    names: dict[str, str] = {}
    class_list: list[str] = []
    for v in ot.vertex_order:
        r = uf.find(v)
        if r not in names:
            names[r] = f"w{len(class_list)}"
            class_list.append(names[r])
    q = {v: names[uf.find(v)] for v in ot.vertex_order}

    surviving = tuple(e for e in ot.edge_order if e not in contracted)
    qedges = tuple((q[ot.tail[e]], q[ot.head[e]]) for e in surviving)
    return QuotientData(UnrootedTree(tuple(class_list), qedges), q, surviving)


def canonical_coords(ot: OrderedTree, v: str) -> tuple[int, int]:
    """Drawing coordinates (dist, height) of a vertex."""
    if v not in ot.dist:
        raise UnknownVertex(f"unknown vertex {v!r}")
    return (ot.dist[v], ot.height[v])


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
        import heapq

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
