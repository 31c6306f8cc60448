"""``parse_tree`` on damaged tree files, against the parser and validator
that read tree files one directive at a time and built the incidence lists
in a second walk of the tree.

The oracle below is that code, kept as it was: it must refuse a text with
the same error type and message as ``parse_tree``, and accept the same
texts with the same fields.
"""

from hypothesis import given, settings, strategies as st

from plumbweave import parse_tree, random_tree
from plumbweave.errors import (
    BadRoot,
    BadRotation,
    CycleDetected,
    Disconnected,
    DuplicateId,
    EmptyTree,
    FormatError,
    PlumbweaveError,
    UnknownVertex,
)
from plumbweave.treecore import Edge

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _reference_incidence(vertices, edges):
    incident = {v: [] for v in vertices}
    for eid, a, b in edges:
        incident[a].append(eid)
        incident[b].append(eid)
    return incident


def _reference_tree_shape(vertices, index_pairs, *, what):
    parent = list(range(len(vertices)))
    components = len(vertices)
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


def reference_tree(vertices, edges, rotation, root):
    """The checks of the rooted-tree constructor, in their order; returns
    the fields and the edge record of each id."""
    if not edges:
        raise EmptyTree("a tree needs at least one edge to carry a root")
    try:
        pos = {v: i for i, v in enumerate(vertices)}
    except TypeError:
        raise FormatError("tree: a vertex name is not hashable") from None
    if len(pos) != len(vertices):
        raise DuplicateId("duplicate vertex identifier")
    by_id = {}
    a_pos, b_pos = [], []
    for e in edges:
        try:
            eid, a, b = e if isinstance(e, (tuple, list)) else ()
            if eid in by_id:
                raise DuplicateId(f"duplicate edge identifier {eid!r}")
            by_id[eid] = e
            a_pos.append(pos[a])
            b_pos.append(pos[b])
        except KeyError:
            raise UnknownVertex(f"edge {eid!r} references an unknown vertex") from None
        except (TypeError, ValueError):
            raise FormatError(f"edge record {e!r} is not (id, a, b)") from None
    _reference_tree_shape(vertices, zip(a_pos, b_pos), what="tree")

    if set(rotation) != pos.keys():
        raise BadRotation("rotation must cover exactly the vertex set")
    for v, ids in _reference_incidence(vertices, edges).items():
        rot = rotation[v]
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
        rv, re = root
        hash((rv, re))
    except (TypeError, ValueError):
        raise FormatError(f"root {root!r} is not a (vertex, edge id) pair") from None
    if rv not in pos:
        raise BadRoot(f"root vertex {rv!r} does not exist")
    if re not in by_id:
        raise BadRoot(f"root edge {re!r} does not exist")
    if re not in rotation[rv]:
        raise BadRoot(f"root edge {re!r} is not incident to root vertex {rv!r}")
    return vertices, edges, rotation, root, by_id


def reference_parse_tree(text):
    """The tree-file reader that sliced each line's arguments and built an
    ``Edge`` per edge line."""
    edges = []
    ends = []
    rot_lines = {}
    root = None

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
    vertices = dict.fromkeys(ends)
    for v in rot_lines:
        if v not in vertices:
            raise BadRotation(f"rot line for unknown vertex {v!r}")

    incident = _reference_incidence(vertices, edges) if len(rot_lines) < len(vertices) else {}
    rotation = {v: rot_lines.get(v) or tuple(incident[v]) for v in vertices}
    return reference_tree(tuple(vertices), tuple(edges), rotation, root)


def outcome(parse, text):
    """The error type and message, or the fields with the rotation's key
    order and the edge record of each id."""
    try:
        fields = parse(text)
    except PlumbweaveError as exc:
        return type(exc), str(exc)
    if not isinstance(fields, tuple):
        fields = (fields.vertices, fields.edges, fields.rotation, fields.root, fields.edge_by_id)
    return fields, list(fields[2]), [type(e) for e in fields[1]]


FAULTS = (
    "dup_edge_id", "root_vertex", "root_edge", "root_not_incident", "rot_unknown_vertex",
    "rot_unknown_edge", "drop_rot_entry", "repeat_rot_entry", "close_cycle", "self_loop",
    "drop_edge", "island", "dup_rot", "dup_root", "no_root", "no_edges", "edge_arity",
    "root_arity", "bad_directive", "noise", "swap_lines",
)


@st.composite
def damaged_texts(draw):
    """A random tree file, with ``rot`` lines for some vertices, after up to
    four faults; ``noise`` adds comments and blank lines, which change only
    the line numbers of later faults."""
    t = random_tree(draw(seeds), 10)
    kept = draw(st.sets(st.sampled_from(t.vertices)))
    lines = [["root", *t.root]]
    lines += [["edge", *e] for e in t.edges]
    lines += [["rot", v, *t.rotation[v]] for v in t.vertices if v in kept]
    comments = {}
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=4)):
        # the lines of each kind that are still well formed
        by_kind = {kind: [k for k, line in enumerate(lines) if line[:1] == [kind] and ok(line)]
                   for kind, ok in (("edge", lambda line: len(line) == 4),
                                    ("rot", lambda line: len(line) > 2),
                                    ("root", lambda line: len(line) == 3))}
        pick = lambda kind: draw(st.sampled_from(by_kind[kind]))  # noqa: E731
        ids = [lines[k][1] for k in by_kind["edge"]] or ["e"]
        names = list(t.vertices)
        if fault == "dup_edge_id" and len(by_kind["edge"]) > 1:
            lines[pick("edge")][1] = draw(st.sampled_from(ids))
        elif fault == "root_vertex" and by_kind["root"]:
            lines[pick("root")][1] = draw(st.sampled_from(["ghost", *names]))
        elif fault == "root_edge" and by_kind["root"]:
            lines[pick("root")][2] = draw(st.sampled_from(["zz", *ids]))
        elif fault == "root_not_incident" and by_kind["root"]:
            k = pick("root")
            lines[k][1:] = [draw(st.sampled_from(names)), draw(st.sampled_from(ids))]
        elif fault == "rot_unknown_vertex":
            lines.append(["rot", "ghost", draw(st.sampled_from(ids))])
        elif fault == "rot_unknown_edge" and by_kind["rot"]:
            line = lines[pick("rot")]
            line[draw(st.integers(2, len(line) - 1))] = "zz"
        elif fault == "drop_rot_entry" and by_kind["rot"]:
            line = lines[pick("rot")]
            del line[draw(st.integers(2, len(line) - 1))]
        elif fault == "repeat_rot_entry" and by_kind["rot"]:
            line = lines[pick("rot")]
            entry = draw(st.sampled_from(line[2:]))
            if draw(st.booleans()):
                line.append(entry)
            else:
                line[draw(st.integers(2, len(line) - 1))] = entry
        elif fault == "close_cycle":
            lines.append(["edge", "cyc", draw(st.sampled_from(names)), draw(st.sampled_from(names))])
        elif fault == "self_loop" and by_kind["edge"]:
            line = lines[pick("edge")]
            line[3] = line[2]
        elif fault == "drop_edge" and by_kind["edge"]:
            del lines[pick("edge")]
        elif fault == "island":
            lines.append(["edge", "far", "isle0", "isle1"])
        elif fault == "dup_rot" and by_kind["rot"]:
            lines.append(list(lines[pick("rot")]))
        elif fault == "dup_root":
            lines.append(["root", draw(st.sampled_from(names)), draw(st.sampled_from(ids))])
        elif fault == "no_root":
            lines = [line for line in lines if line[:1] != ["root"]]
        elif fault == "no_edges":
            lines = [line for line in lines if line[:1] != ["edge"]]
        elif fault == "edge_arity" and by_kind["edge"]:
            line = lines[pick("edge")]
            if draw(st.booleans()):
                line.pop()
            else:
                line.append("extra")
        elif fault == "root_arity" and by_kind["root"]:
            lines[pick("root")].pop()
        elif fault == "bad_directive":
            lines.insert(draw(st.integers(0, len(lines))), ["frob", "x"])
        elif fault == "noise":
            k = draw(st.integers(0, len(lines)))
            lines.insert(k, [])
            comments[id(lines[draw(st.integers(0, len(lines) - 1))])] = "  # edge zz a b"
        elif fault == "swap_lines" and len(lines) > 1:
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    header = draw(st.sampled_from(["", "# generated\n", "\n\n"]))
    return header + "".join(" ".join(line) + comments.get(id(line), "") + "\n" for line in lines)


@given(damaged_texts())
@settings(max_examples=600, deadline=None)
def test_parse_tree_refuses_what_the_reference_refuses(text):
    assert outcome(parse_tree, text) == outcome(reference_parse_tree, text)


def test_the_damages_reach_every_refusal():
    """The faults above hit each error the reader can raise; a change to
    the strategy that lost one would leave that refusal unchecked."""
    seen = set()

    @given(damaged_texts())
    @settings(max_examples=600, deadline=None, database=None)
    def collect(text):
        result = outcome(reference_parse_tree, text)
        if isinstance(result[0], type):
            seen.add(result[0])

    collect()
    assert seen >= {BadRoot, BadRotation, CycleDetected, Disconnected, DuplicateId,
                    EmptyTree, FormatError}
