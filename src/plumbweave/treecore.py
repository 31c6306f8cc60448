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
heads, so the head of edge i is vertex i + 1.  The same pass yields the
rest of the order data, each fact a tuple by position in these orders:

* ``tail[i]``, the position of the tail of edge i;
* the boundary (degree-1) vertices in preorder, which is the outer-face
  walk of the plane tree; a degree-1 root goes last;
* ``dist[i]``, the edge distance of vertex i from the root;
* ``height[i]``, the boundary index (1-based) of the first non-root leaf at
  or after vertex i in preorder, which is the leaf reached from it by
  repeatedly taking the first outgoing edge.

Vertices of equal height lie on one first-edge chain, so the preorder is
also the lexicographic ``(height, dist)`` order.

Contracting the first outgoing edge of every vertex that has one yields the
quotient tree whose vertices index the sphere classes of the plumbing fiber.
A vertex's first outgoing edge leads to the vertex just after it in
preorder, so edge i is contracted exactly when ``tail[i] == i``.  Each
quotient class is then a run of the preorder that ends at a non-root leaf,
and the class of vertex i is the one of ``height[i]``.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

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
from .lattice import _int

__all__ = [
    "Edge",
    "RootedEmbeddedTree",
    "OrderedTree",
    "UnrootedTree",
    "QuotientData",
    "parse_tree",
    "order_tree",
    "quotient",
    "random_tree",
]


class Edge(NamedTuple):
    """Undirected edge record; orientation is derived later from the root."""

    id: str
    a: str
    b: str


def _incidence(vertices, edges) -> dict[str, list[str]]:
    """The ids of the edges at each vertex, in declaration order: the default
    rotation, and what every rotation must permute.  Every endpoint must be
    one of ``vertices``."""
    incident: dict[str, list[str]] = {v: [] for v in vertices}
    for eid, a, b in edges:
        incident[a].append(eid)
        incident[b].append(eid)
    return incident


def _positions(vertices, *, what: str) -> dict:
    """The position of each vertex name, which must be hashable."""
    try:
        return dict(zip(vertices, range(len(vertices))))
    except TypeError:
        raise FormatError(f"{what}: a vertex name is not hashable") from None


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


@dataclass(frozen=True)
class RootedEmbeddedTree:
    """A plane tree (rotation system) with a chosen (vertex, edge) root.

    ``vertices`` and ``edges`` keep their declaration order; ``rotation``
    maps each vertex to the cyclic sequence of its incident edge ids.
    Instances are validated on construction and immutable afterwards;
    validation also stores ``edge_by_id``, the edge record of each id.

    Validation walks the edge records once, which fills ``edge_by_id``,
    the positions of each edge's ends and the ids at each vertex position
    in declaration order.  The union-find shape check then reads the
    positions, and the rotation check the ids, so the first fault found is
    a record's, then the shape's, then a rotation's, then the root's.
    """

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    rotation: dict[str, tuple[str, ...]]
    root: tuple[str, str]
    edge_by_id: dict[str, Edge] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.edges:
            raise EmptyTree("a tree needs at least one edge to carry a root")
        pos = _positions(self.vertices, what="tree")
        if len(pos) != len(self.vertices):
            raise DuplicateId("duplicate vertex identifier")
        by_id: dict[str, Edge] = {}
        # the positions of the ends of each edge, as two lists of ints, which
        # the cyclic garbage collector does not track, not a list of pairs
        a_pos, b_pos = [], []
        incident: list[list[str]] = [[] for _ in pos]
        for e in self.edges:
            # a record is a tuple or a list; its id and ends must be hashable
            try:
                eid, a, b = e if isinstance(e, (tuple, list)) else ()
                if eid in by_id:
                    raise DuplicateId(f"duplicate edge identifier {eid!r}")
                by_id[eid] = e
                i, j = pos[a], pos[b]
            except KeyError:
                raise UnknownVertex(f"edge {eid!r} references an unknown vertex") from None
            except (TypeError, ValueError):
                raise FormatError(f"edge record {e!r} is not (id, a, b)") from None
            a_pos.append(i)
            b_pos.append(j)
            incident[i].append(eid)
            incident[j].append(eid)
        _check_tree_shape(self.vertices, zip(a_pos, b_pos), what="tree")

        if set(self.rotation) != pos.keys():
            raise BadRotation("rotation must cover exactly the vertex set")
        # edge ids are unique and a tree has no self-loop, so the ids at v
        # are distinct, and a tuple or list of as many entries that holds
        # them all is a permutation of them; one with an unhashable entry
        # (a TypeError) is not
        for v, ids in zip(self.vertices, incident):
            rot = self.rotation[v]
            try:
                ok = (isinstance(rot, (tuple, list)) and len(rot) == len(ids)
                      and set(rot).issuperset(ids))
            except TypeError:
                ok = False
            if not ok:
                raise BadRotation(
                    f"rotation at {v!r} is not a permutation of its incident edges"
                )

        try:
            rv, re = self.root
            hash((rv, re))
        except (TypeError, ValueError):
            raise FormatError(f"root {self.root!r} is not a (vertex, edge id) pair") from None
        if rv not in pos:
            raise BadRoot(f"root vertex {rv!r} does not exist")
        if re not in by_id:
            raise BadRoot(f"root edge {re!r} does not exist")
        if re not in self.rotation[rv]:
            raise BadRoot(f"root edge {re!r} is not incident to root vertex {rv!r}")
        object.__setattr__(self, "edge_by_id", by_id)


def parse_tree(text: str) -> RootedEmbeddedTree:
    """Parse the line-oriented tree file format.

    Directives: ``root VERTEX EDGE``, ``edge ID A B``, ``rot VERTEX E...``.
    ``#`` starts a comment; blank lines are skipped.  ``rot`` lines are
    optional; the default rotation is the edge declaration order.
    """
    # the four tokens of each edge line, in one list of strings, so that no
    # list per line outlives its line for the garbage collector to scan
    edge_tokens: list[str] = []
    rot_lines: dict[str, tuple[str, ...]] = {}
    root: tuple[str, str] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "edge":
            if len(tokens) != 4:
                raise FormatError(f"line {lineno}: edge wants ID A B")
            edge_tokens += tokens
        elif kind == "rot":
            if len(tokens) < 3:
                raise FormatError(f"line {lineno}: rot wants VERTEX EDGE...")
            v = tokens[1]
            if v in rot_lines:
                raise DuplicateId(f"line {lineno}: duplicate rot for vertex {v!r}")
            rot_lines[v] = tuple(tokens[2:])
        elif kind == "root":
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: root wants VERTEX EDGE")
            if root is not None:
                raise FormatError(f"line {lineno}: more than one root declaration")
            root = (tokens[1], tokens[2])
        else:
            raise FormatError(f"line {lineno}: unknown directive {kind!r}")

    if not edge_tokens:
        raise EmptyTree("no edges declared; a single vertex cannot carry a root")
    if root is None:
        raise BadRoot("no root declared")
    ids, a_ends, b_ends = edge_tokens[1::4], edge_tokens[2::4], edge_tokens[3::4]
    # each record in C, as Edge._make builds it but for the length check,
    # which the line check made
    edges = list(map(tuple.__new__, repeat(Edge), zip(ids, a_ends, b_ends)))
    vertices = dict.fromkeys(chain.from_iterable(zip(a_ends, b_ends)))  # first mention order
    for v in rot_lines:
        if v not in vertices:
            raise BadRotation(f"rot line for unknown vertex {v!r}")

    # duplicate edge ids are left to RootedEmbeddedTree's validation
    incident = _incidence(vertices, edges) if len(rot_lines) < len(vertices) else {}
    rotation = {v: rot_lines.get(v) or tuple(incident[v]) for v in vertices}
    return RootedEmbeddedTree(tuple(vertices), tuple(edges), rotation, root)


@dataclass(frozen=True)
class OrderedTree:
    """A rooted plane tree together with the order data its DFS decides.

    ``vertex_order[i]`` is the caller id of vertex i (label ``v{i}``) and
    ``edge_order[i]`` that of edge i (label ``e{i}``), whose head is vertex
    i + 1.  The other facts are tuples by position: ``tail[i]`` is the
    position of the tail of edge i, ``dist[i]`` and ``height[i]`` belong to
    vertex i, and ``boundary_order`` holds positions.  Edge i is its tail's
    first outgoing edge, contracted in the quotient, exactly when
    ``tail[i] == i``.

    The quotient and the vanishing-cycle word depend on these facts alone,
    not on n, so ``_memo`` keeps what :func:`quotient` and
    :func:`~plumbweave.fibration.fibrate` build the first time: the
    :class:`QuotientData` under ``"quotient"``, and under ``"word"`` the
    slot ``[cycles, certificate]``, the word's cycles and the
    :class:`~plumbweave.lattice.SmithResult` of their classes once
    :func:`~plumbweave.invariants.total_homology` has computed it.  It
    lives and dies with the ordered tree, takes no part in ``==`` or
    ``repr``, and starts empty in every new instance,
    ``dataclasses.replace`` included.  Each word of ``fibrate`` links to
    that slot alone, so a word keeps its cycles and their certificate
    alive, and never the :class:`QuotientData` (whose ``q`` has one entry
    per vertex) or the ordered tree.
    """

    base: RootedEmbeddedTree
    vertex_order: tuple[str, ...]
    edge_order: tuple[str, ...]
    tail: tuple[int, ...]
    dist: tuple[int, ...]
    height: tuple[int, ...]
    boundary_order: tuple[int, ...]
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def order_tree(t: RootedEmbeddedTree) -> OrderedTree:
    """Compute directions, boundary order, heights, and the total orders on
    vertices and edges of a rooted plane tree, in one depth-first pass from
    the root."""
    root_v, root_e = t.root
    by_id = t.edge_by_id
    rotation = t.rotation
    vertex_order: list[str] = []
    edge_order: list[str] = []
    tail: list[int] = []
    dist: list[int] = []
    height: list[int] = []
    boundary: list[int] = []

    # the root (position 0) is entered through its root edge, which its local
    # order puts first; every other vertex through its incoming edge, which
    # its local order puts last.  The first non-root leaf at or after v in
    # preorder is the one after the leaves already met, so that is v's height.
    stack = [(root_v, root_e, 0)]
    while stack:
        v, e_in, t_in = stack.pop()
        i = len(vertex_order)
        vertex_order.append(v)
        height.append(len(boundary) + 1)
        rot = rotation[v]
        k = rot.index(e_in)
        if i:
            edge_order.append(e_in)
            tail.append(t_in)
            dist.append(dist[t_in] + 1)
            outs = rot[k + 1 :] + rot[:k]
        else:
            dist.append(0)
            outs = rot[k:] + rot[:k]
        if not outs:
            boundary.append(i)
            continue
        for e in reversed(outs):
            _, a, b = by_id[e]
            stack.append((b if a == v else a, e, i))
    if len(rotation[root_v]) == 1:
        boundary.append(0)

    return OrderedTree(
        base=t,
        vertex_order=tuple(vertex_order),
        edge_order=tuple(edge_order),
        tail=tuple(tail),
        dist=tuple(dist),
        height=tuple(height),
        boundary_order=tuple(boundary),
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
        pos = _positions(self.vertices, what="pattern")
        if len(pos) != len(self.vertices):
            raise DuplicateId("duplicate pattern vertex")
        pairs = []
        for e in self.edges:
            try:  # a tuple or a list of two hashable names
                a, b = e if isinstance(e, (tuple, list)) else ()
                i, j = pos.get(a), pos.get(b)
            except (TypeError, ValueError):
                raise FormatError(f"pattern edge {e!r} is not a pair of vertices") from None
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
        # lists stored as the tuples from_json reads back
        if type(self.vertices) is list:
            object.__setattr__(self, "vertices", tuple(self.vertices))
        if type(self.edges) is not tuple or list in map(type, self.edges):
            edges = [tuple(e) if type(e) is list else e for e in self.edges]
            object.__setattr__(self, "edges", tuple(edges))

    @classmethod
    def _trusted(cls, vertices, edges, above, below) -> "UnrootedTree":
        """A pattern whose shape and adjacency its builder knows to be
        right, stored without the checks of ``__init__``: only
        :func:`quotient`, whose contraction makes a tree, builds one."""
        self = object.__new__(cls)
        for name, value in (("vertices", vertices), ("edges", edges),
                            ("above", above), ("below", below)):
            object.__setattr__(self, name, value)
        return self

    def edge_index_pairs(self) -> frozenset[tuple[int, int]]:
        """Edges as position pairs, for name-independent comparison."""
        return frozenset((i, j) for i, ups in enumerate(self.above) for j in ups)


@dataclass(frozen=True)
class QuotientData:
    """The contracted tree, the vertex surjection q, and surviving edges.

    Contracted edges are exactly the first outgoing edges of vertices that
    have one; leaves contribute no contraction.  Class names ``w0, w1, ...``
    are assigned by first occurrence along the vertex order, so the class of
    the root is always ``w0``.  One record serves every call of
    :func:`quotient` on an ordered tree, so ``q`` is shared, as a tree's
    ``rotation`` is: do not mutate it.
    """

    quotient_tree: UnrootedTree
    q: dict[str, str]
    surviving_edges: tuple[str, ...]


def quotient(ot: OrderedTree) -> QuotientData:
    """Contract every vertex's first outgoing edge and name the classes.

    Each class is a run of the vertex order that ends at a non-root leaf,
    which has no first outgoing edge, so the class of vertex i is the one of
    its height.  The next run starts at the vertex after such a leaf, whose
    incoming edge, the one at the leaf's position, survives.

    Class k > 0 hangs by that edge from the class of its tail, whose index
    ``height[tail[p]] - 1`` is less than k, since the tail comes before the
    run in preorder; so the classes with their parents form a tree, stored
    with its adjacency and not validated again.  The record is built on the
    first call and kept in the ordered tree, and every later call returns
    that one record."""
    memo = ot._memo
    qd = memo.get("quotient")
    if qd is not None:
        return qd
    height, tail = ot.height, ot.tail
    # the last vertex is the last non-root leaf, whose height is their number
    r = height[-1]
    names = [f"w{k}" for k in range(r)]
    q = {v: names[h - 1] for v, h in zip(ot.vertex_order, height)}
    cut = ot.boundary_order[: r - 1]
    # at exact size, from lists: see the fibration module docstring
    surviving = tuple([ot.edge_order[p] for p in cut])
    parents = [height[tail[p]] - 1 for p in cut]  # of classes 1 .. r - 1
    above: list[list[int]] = [[] for _ in names]
    for k, j in enumerate(parents, 1):
        above[j].append(k)
    qt = UnrootedTree._trusted(
        tuple(names),
        tuple([(names[j], w) for j, w in zip(parents, names[1:])]),
        tuple([tuple(ups) for ups in above]),
        tuple([()] + [(j,) for j in parents]),
    )
    qd = memo["quotient"] = QuotientData(qt, q, surviving)
    return qd


def random_tree(seed: int, max_vertices: int) -> RootedEmbeddedTree:
    """Deterministic-in-seed random rooted plane tree with 2..max_vertices
    vertices, a shuffled rotation system, and a random legal root."""
    if _int(max_vertices) < 2:
        raise IndexOutOfRange("max_vertices must be at least 2")
    rng = random.Random(seed)
    nv = rng.randint(2, max_vertices)
    labels = [f"x{i}" for i in range(nv)]

    # uniform labeled tree via Prüfer decoding (two vertices: the empty sequence)
    pairs: list[tuple[int, int]] = []
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
    rotation = {}
    for v, rot in _incidence(labels, edges).items():
        rng.shuffle(rot)
        rotation[v] = tuple(rot)
    root_v = labels[rng.randrange(nv)]
    root_e = rotation[root_v][rng.randrange(len(rotation[root_v]))]
    return RootedEmbeddedTree(tuple(labels), edges, rotation, (root_v, root_e))
