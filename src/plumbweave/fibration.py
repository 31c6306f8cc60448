"""From a rooted plane tree to an abstract Lefschetz fibration.

The total space to present is the plumbing of copies of ``T*S^n`` along the
tree.  The word algorithm has three steps:

1. the fiber is the plumbing of ``(n-1)``-sphere cotangent bundles along
   the quotient tree (first outgoing edges contracted);
2. each vertex ``v_i`` contributes the vanishing cycle ``L_{q(v_i)}``, in
   vertex order;
3. each edge ``e_i`` that is the root edge or not its tail's first outgoing
   edge (``tail[i] != i``) contributes ``L_{q(v_{i+1})}``, for ``v_{i+1}``
   is its head: the cycles of such edges with tail ``v_k`` are inserted
   immediately before ``L_{q(v_k)}`` in reverse edge order, and the root
   edge's cycle is prepended to the word.

Equivalently, the word is the root-edge cycle followed by one block per
vertex in order, where the block of ``v`` is (non-first outgoing edge cycles
of ``v``, reversed) + (vertex cycle of ``v``).  Insertions for distinct
tails target disjoint gaps, so the block form is exact.

The fiber of step 1 is one object, a
:class:`~plumbweave.lattice.PlumbingDescriptor` of the quotient tree and
the sphere dimension ``n - 1``, which this module re-exports.  It is also
the intersection form of the fiber lattice: ``alf.fiber.pair(x, y)``
pairs two classes, so the moves and the search twist against the fiber
itself and build no form.

Each class's cycles are one edge's and then its vertices', in order, so
every vertex spans a matching cycle back to the previous cycle of its
class; singular values sit at angles ``2*pi*k/m`` on the unit circle and
the base diagram is rendered as a deterministic SVG.

Tuples of a word's length are built from a list, ``tuple([...])``, never
from a generator.  ``tuple(<generator>)`` starts at 10 slots and resizes, so
a tuple of 11 to 19 items draws on CPython's free list of 10-slot tuples
but, once freed, goes to the free list for its own size, which then only
grows.  Only a full collection empties those lists, and the writers below
allocate too few objects to trigger one, so the lists would grow to
megabytes.

A word holds one :class:`VanishingCycle` per cycle, so its ``__init__``
fills the three slots through their descriptors: the ``__init__`` a frozen
dataclass generates sets each field through ``object.__setattr__``, which
makes a record cost about 1.5 times as much to build.  Writing the
instance ``__dict__`` instead is a little cheaper to build, but gives each
record a dict of its own, about 100 bytes, and makes every field read
about three times slower.  The class stays a frozen dataclass, for
``dataclasses.replace``, ``==``, ``hash`` and ``repr`` read its fields,
and assignment raises ``FrozenInstanceError``, as for every other record
of the package.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from operator import add

from .errors import (
    BadDimension,
    FormatError,
    IndexOutOfRange,
    NotAlgorithmOutput,
)
from .lattice import PlumbingDescriptor, _int
from .treecore import (
    Edge,
    OrderedTree,
    RootedEmbeddedTree,
    UnrootedTree,
    _incidence,
    quotient,
)

__all__ = [
    "PlumbingDescriptor",
    "VanishingCycle",
    "AbstractLF",
    "MatchingCycle",
    "fibrate",
    "matching_cycles",
    "layout",
    "render_svg",
    "write_atomic",
    "family_word",
    "family_tree",
    "fiber_form",
    "to_json",
    "from_json",
]


@dataclass(frozen=True, slots=True, init=False)
class VanishingCycle:
    """One vanishing cycle: origin label, lattice class, symbolic display.

    ``label`` records where the cycle came from (``vertex:v3``, ``edge:e0``,
    ``stab:1``) and never changes; ``display`` is the symbolic name, which
    accumulates a formal twist word under Hurwitz moves.  ``==`` compares all
    three; only :func:`equal_homology` and the search compare classes alone.
    A class given as a list is stored as a tuple; a tuple is kept as it is;
    anything else raises :class:`FormatError` (see :func:`_class_tuple`).
    """

    label: str
    cls: tuple[int, ...]
    display: str

    # see the module docstring for why it fills the slots itself
    def __init__(self, label: str, cls: tuple[int, ...], display: str):
        _set_label(self, label)
        _set_cls(self, cls if type(cls) is tuple else _class_tuple(cls))
        _set_display(self, display)


_set_label = VanishingCycle.label.__set__
_set_cls = VanishingCycle.cls.__set__
_set_display = VanishingCycle.display.__set__


@dataclass(frozen=True)
class AbstractLF:
    """Fiber descriptor plus the cyclically ordered vanishing-cycle word;
    ``n`` is ``fiber.sphere_dim + 1``, which the fiber checks when built."""

    fiber: PlumbingDescriptor
    cycles: tuple[VanishingCycle, ...]

    # not a field: a word of fibrate() links to its ordered tree's slot
    # [cycles, SmithResult or None], where total_homology keeps the
    # certificate of those cycles' classes; every other word has None
    _certificate = None

    def __post_init__(self):
        if type(self.cycles) is list:  # stored as the tuple from_json reads back
            object.__setattr__(self, "cycles", tuple(self.cycles))

    @property
    def n(self) -> int:
        return self.fiber.sphere_dim + 1

    # built from a list, at exact size: see the module docstring
    def word_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple([c.cls for c in self.cycles])

    def word_displays(self) -> tuple[str, ...]:
        return tuple([c.display for c in self.cycles])


@dataclass(frozen=True)
class MatchingCycle:
    """The word indices of a vertex's cycle and of the previous cycle of its
    class; vertex i's is entry i of :func:`matching_cycles`."""

    endpoints: tuple[int, int]


def fiber_form(fiber: PlumbingDescriptor) -> PlumbingDescriptor:
    """The fiber itself, which is its own intersection form.  Nothing in
    the package calls it; it stays a name for the benchmark's traced
    layers (``bench/spans.py``)."""
    return fiber


def fibrate(ot: OrderedTree, n: int) -> AbstractLF:
    """Run the three-step algorithm on an ordered tree.

    The class of a cycle is the unit vector of its quotient class in the
    fiber basis.  The r unit tuples are built as C-level slices of one
    shared row, and every cycle of a class holds that class's tuple: the
    word costs O(m + r^2) instead of a Python loop of length r per cycle.

    Only the fiber's sphere dimension depends on ``n``, so the cycles are
    built on the first call and kept in the ordered tree (see
    :class:`~plumbweave.treecore.OrderedTree`): every call checks ``n`` and
    reads :func:`quotient`, and the words at every n share one ``cycles``
    tuple of frozen records.  Each word links to the ordered tree's slot
    for those cycles, in which
    :func:`~plumbweave.invariants.total_homology` keeps their certificate.
    """
    _check_n(n)
    qd = quotient(ot)
    fiber = PlumbingDescriptor(qd.quotient_tree, n - 1)
    slot = ot._memo.get("word")
    if slot is None:
        slot = ot._memo["word"] = [_word(ot, len(qd.quotient_tree.vertices)), None]
    alf = AbstractLF(fiber, slot[0])
    object.__setattr__(alf, "_certificate", slot)
    return alf


def _word(ot: OrderedTree, r: int) -> tuple[VanishingCycle, ...]:
    """The vanishing cycles of :func:`fibrate` on a fiber of rank ``r``."""
    row = (0,) * r + (1,) + (0,) * r  # e_k is row[r - k : 2r - k]
    unit = [row[r - k : 2 * r - k] for k in range(r)]
    cls = [unit[h - 1] for h in ot.height]
    display = [f"L_{{q(v{j})}}" for j in range(len(cls))]
    # each vertex's outgoing edges after the first, in edge order
    extra: list[list[int]] = [[] for _ in cls]
    for j, t in enumerate(ot.tail):
        if t != j:
            extra[t].append(j)
    # the root-edge cycle (head v1) first; then each vertex adds the cycles
    # of those edges, reversed, and its own cycle
    word = [VanishingCycle("edge:e0", cls[1], display[1])]
    for i, edges in enumerate(extra):
        for j in reversed(edges):
            word.append(VanishingCycle(f"edge:e{j}", cls[j + 1], display[j + 1]))
        word.append(VanishingCycle(f"vertex:v{i}", cls[i], display[i]))
    return tuple(word)


def matching_cycles(alf: AbstractLF, ot: OrderedTree) -> list[MatchingCycle]:
    """One matching cycle per vertex of the input tree, in vertex order.

    Requires the unmoved output of :func:`fibrate` for the same tree, where
    a class's cycles are one edge's followed by its vertices' in order: each
    cycle after the first of its class is a vertex's and pairs with the one
    before it, told apart by the ``id`` of the one tuple per class.  The
    check reruns :func:`fibrate`, which reads the word the ordered tree
    keeps, so on a word of that tree it compares mostly identical objects.
    """
    word = fibrate(ot, alf.n)
    if alf != word:
        raise NotAlgorithmOutput(
            "matching cycles are defined on the pristine algorithm output"
        )
    last: dict[int, int] = {}  # class id -> index of its latest cycle
    out = []
    for k, c in enumerate(word.cycles):
        if id(c.cls) in last:
            out.append(MatchingCycle((k, last[id(c.cls)])))
        last[id(c.cls)] = k
    return out


def layout(alf: AbstractLF) -> tuple[float, ...]:
    """Angles of the singular values on the unit circle, in word order."""
    m = len(alf.cycles)
    if m < 1:
        raise IndexOutOfRange("empty cycle word")
    return tuple([2.0 * math.pi * k / m for k in range(m)])


# ---------------------------------------------------------------------------
# family of fibrations over a chain with one off-chain leaf


def family_tree(m: int, j: int) -> RootedEmbeddedTree:
    """Chain u_0 -> ... -> u_m with one extra leaf at u_j (1 <= j <= m-1).

    Every rotation is the edge declaration order, so the leaf edge sits
    after the chain edge in u_j's rotation; it is not a first outgoing edge
    and the quotient pattern is the two-vertex chain.  For j = m the leaf
    edge would be first outgoing and the construction degenerates, so that
    index is rejected.
    """
    m, j = _int(m), _int(j)
    if not 1 <= j <= m - 1:
        raise IndexOutOfRange(f"leaf position {j} not in 1..{m - 1}")
    chain = [f"u{i}" for i in range(m + 1)]
    vertices = tuple(chain) + ("x",)
    edges = [Edge(f"c{i}", chain[i], chain[i + 1]) for i in range(m)]
    edges.append(Edge("d", chain[j], "x"))
    rotation = {v: tuple(ids) for v, ids in _incidence(vertices, edges).items()}
    return RootedEmbeddedTree(vertices, tuple(edges), rotation, (chain[0], "c0"))


def family_word(m: int, j: int, n: int) -> AbstractLF:
    """The two-sphere-fiber word alpha^(j+1) beta alpha^(m-j+1) beta.

    This is the fibration of the chain-with-leaf family written directly in
    the two-class basis (alpha, beta); its labels match the tree route
    cycle-for-cycle.  Total length m + 4.  The interior beta sits at 0-based
    index j + 1; reports print the realized position alongside.
    """
    m, j = _int(m), _int(j)
    if not 1 <= j <= m:
        raise IndexOutOfRange(f"leaf position {j} not in 1..{m}")
    _check_n(n)
    pattern = UnrootedTree(("alpha", "beta"), (("alpha", "beta"),))
    fiber = PlumbingDescriptor(pattern, n - 1)
    alpha, beta = (1, 0), (0, 1)
    vertex_cycles = [VanishingCycle(f"vertex:v{i}", alpha, "α") for i in range(m + 1)]
    cycles = (
        VanishingCycle("edge:e0", alpha, "α"),
        *vertex_cycles[:j],
        VanishingCycle(f"edge:e{m}", beta, "β"),
        *vertex_cycles[j:],
        VanishingCycle(f"vertex:v{m + 1}", beta, "β"),
    )
    return AbstractLF(fiber, cycles)


# ---------------------------------------------------------------------------
# serialization

_LABEL_KINDS = ("vertex", "edge", "stab")
_encode_str = json.encoder.encode_basestring  # the escaper of ensure_ascii=False
_INT_ONLY = frozenset({int})
_STR_ONLY = frozenset({str})


def _array(items: list[str], indent: str) -> str:
    """The JSON array of the written ``items`` in :func:`dump_json`'s
    layout, its items at ``indent``."""
    if not items:
        return "[]"
    return f"[\n{indent}" + f",\n{indent}".join(items) + f"\n{indent[:-2]}]"


def to_json(alf: AbstractLF) -> str:
    """Stable JSON form of a fibration; byte-identical for equal inputs.

    It is the document :func:`dump_json` writes for the fiber, the cycles
    (label, coords, display) and n, written directly: each distinct class
    object's coords once, and every string through the escaper
    :func:`dump_json` uses.  Each field passes the rule :func:`from_json`
    reads it with, and raises the same :class:`FormatError` as there."""
    pattern = alf.fiber.pattern
    cycles = alf.cycles
    labels = map(_encode_str, _labels([c.label for c in cycles]))
    displays = map(_encode_str, _texts([c.display for c in cycles]))
    escaped = dict(zip(pattern.vertices, map(_encode_str, _texts(pattern.vertices))))
    blocks: dict[int, str] = {}  # coords by class id; cycles share classes
    parts = [
        '{\n  "fiber": {\n    "pattern": {\n      "vertices": ',
        _array(list(escaped.values()), " " * 8),
        ',\n      "edges": ',
        _array([_array([escaped[a], escaped[b]], " " * 10) for a, b in pattern.edges], " " * 8),
        f'\n    }},\n    "sphere_dim": {int.__repr__(alf.fiber.sphere_dim)}\n  }},'
        '\n  "cycles": [',
    ]
    # pieces, not a string per cycle: each coords block is copied once, by
    # the final join
    for c, label, display in zip(cycles, labels, displays):
        block = blocks.get(id(c.cls))
        if block is None:
            try:
                digits = list(map(int.__repr__, _coords(c.cls, len(pattern.vertices))))
            except ValueError:  # an int too long to write: _int refuses it
                digits = list(map(int.__repr__, map(_int, c.cls)))
            block = blocks[id(c.cls)] = _array(digits, " " * 8)
        parts += ('\n    {\n      "label": ', label, ',\n      "coords": ', block,
                  ',\n      "display": ', display, "\n    },")
    if cycles:
        parts[-1] = "\n    }\n  ]"
    else:
        parts.append("]")
    parts.append(f',\n  "n": {int.__repr__(alf.n)}\n}}\n')
    return "".join(parts)


def dump_json(doc) -> str:
    """The layout of every JSON document the package emits: non-ASCII
    characters as they are, a two-space indent and a final newline."""
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def load_json(text: str):
    """Parse a JSON document, raising :class:`FormatError` on any bad input
    (syntax, integers past the digit limit, nesting past the recursion limit)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc


def _text(value) -> str:
    """``value`` itself when it is a JSON string; a number, a boolean,
    ``null`` or a string with a lone surrogate, which no UTF-8 output can
    carry, raises :class:`FormatError`."""
    if not isinstance(value, str):
        raise FormatError(f"expected a string, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from None
    return value


def _texts(values):
    """``values``, each a :func:`_text`: one C-level type test and one UTF-8
    encode of them all (any surrogate fails), :func:`_text` the error path."""
    if set(map(type, values)) <= _STR_ONLY:
        try:
            "".join(values).encode("utf-8")
            return values
        except UnicodeEncodeError:
            pass
    return list(map(_text, values))


def _labels(values):
    """Cycle labels: :func:`_texts` whose kind, before the first colon, is
    ``vertex``, ``edge`` or ``stab``."""
    values = _texts(values)
    for label in values:
        if label.split(":", 1)[0] not in _LABEL_KINDS:
            raise FormatError(f"unknown cycle label kind in {label!r}")
    return values


def _class_tuple(value) -> tuple:
    """The one array rule for a cycle class: a tuple as it is, a list as a
    tuple; anything else raises :class:`FormatError`."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, list):
        return tuple(value)
    raise FormatError(f"cycle coords {value!r} are not an array")


def _coords(value, rank: int) -> tuple[int, ...]:
    """A cycle class, a :func:`_class_tuple` of ``rank`` ints: one C-level
    type test, with :func:`_int` as the error path; ``json.loads`` and
    ``int.__repr__`` refuse an int past the digit limit."""
    value = _class_tuple(value)
    coords = value if set(map(type, value)) <= _INT_ONLY else tuple(map(_int, value))
    if len(coords) != rank:
        raise FormatError(f"cycle coords of length {len(coords)} against fiber rank {rank}")
    return coords


def _check_n(n) -> None:
    """The rule for the total-space parameter: an integer (see :func:`_int`)
    of at least 2, else :class:`FormatError` or :class:`BadDimension`."""
    if _int(n) < 2:
        raise BadDimension(f"total-space parameter n={n} below 2")


def _list(value) -> list:
    """``value`` itself when it is a JSON array; a string or an object,
    which would iterate as characters or keys, raises :class:`FormatError`."""
    if isinstance(value, list):
        return value
    raise FormatError(f"expected an array, got {value!r}")


def from_json(text: str) -> AbstractLF:
    """Inverse of :func:`to_json`, with the same rule per field; validates
    structure, tree shape, the fiber and n, which must be at least 2 as in
    :func:`fibrate` and fit the fiber.  Cycles with equal coordinates share
    one class tuple, as in :func:`fibrate`, so the certificate reads each once."""
    doc = load_json(text)
    try:
        pat = doc["fiber"]["pattern"]
        pattern = UnrootedTree(
            tuple(_texts(_list(pat["vertices"]))),
            tuple((_text(a), _text(b)) for a, b in map(_list, _list(pat["edges"]))),
        )
        fiber = PlumbingDescriptor(pattern, doc["fiber"]["sphere_dim"])
        rank = len(pattern.vertices)
        word = _list(doc["cycles"])
        labels = _labels([c["label"] for c in word])
        displays = _texts([c["display"] for c in word])
        classes = [_coords(c["coords"], rank) for c in word]
        shared = dict(zip(classes, classes))  # one object per value
        cycles = list(map(VanishingCycle, labels, map(shared.__getitem__, classes), displays))
        n = doc["n"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed fibration document: {exc}") from exc
    _check_n(n)
    if fiber.sphere_dim != n - 1:
        raise FormatError(
            f"fiber sphere_dim {fiber.sphere_dim} inconsistent with n={n}"
        )
    return AbstractLF(fiber, tuple(cycles))


# ---------------------------------------------------------------------------
# rendering

_SIZE = 420.0
_CENTER = _SIZE / 2.0
_RADIUS = 160.0
_LABEL_RADIUS = _RADIUS + 24.0
# a star's ten corners from its centre (x, y), outer and inner in turn from
# the top, each at (x + dx, y - dy) since SVG y grows downward: stored as
# the offsets dx, -dy, dx, -dy, ... to add to [x, y] * 10, for y + (-dy)
# is exactly y - dy in IEEE-754 arithmetic.  [x, y] * 10 is a list, for
# CPython 3.11 keeps every freed 20-item tuple on a free list it never
# draws from, up to 2 000 of them (368 kB)
_STAR = tuple(
    v
    for k in range(10)
    for r, a in [(8.0 if k % 2 == 0 else 3.2, math.pi / 2 + k * math.pi / 5)]
    for v in (r * math.cos(a), -(r * math.sin(a)))
)
# a singular value's star, its corners as "x,y", then its label
_MARK = (
    '<polygon class="singular" points="'
    + " ".join(["%.2f,%.2f"] * (len(_STAR) // 2))
    + '" fill="#c03020"/>\n'
    '<text x="%.2f" y="%.2f" font-size="11" '
    'text-anchor="middle" dominant-baseline="middle">%s</text>'
)
# a skeleton segment to one singular value and a matching chord between
# two, each point as its formatted "x" and "y"
_SKELETON = (
    f'<line class="skeleton" x1="{_CENTER:.2f}" y1="{_CENTER:.2f}" '
    'x2="%s" y2="%s" stroke="#bbbbbb" stroke-width="1"/>'
)
_CHORD = (
    '<line class="matching" x1="%s" y1="%s" '
    'x2="%s" y2="%s" stroke="#2060c0" stroke-width="1.5"/>'
)
_BASEPOINT = (
    f'<circle class="basepoint" cx="{_CENTER:.2f}" cy="{_CENTER:.2f}" '
    'r="3.00" fill="#000000"/>'
)
_SVG_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE:.2f}" '
    f'height="{_SIZE:.2f}" viewBox="0 0 {_SIZE:.2f} {_SIZE:.2f}">\n'
    f'<circle cx="{_CENTER:.2f}" cy="{_CENTER:.2f}" r="{_RADIUS:.2f}" '
    'fill="none" stroke="#000000" stroke-width="1"/>'
)


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_svg(alf: AbstractLF, matching: list[MatchingCycle]) -> str:
    """Base diagram as SVG text: unit circle, base point, radial skeleton
    segments, matching chords, star-marked singular values with labels.

    Angles run counterclockwise, so a point's y is the centre's minus the
    sine.  Each angle's cosine and sine serve the point and its label, and
    each point is formatted once; a star's corners are one C-level
    ``map`` over the offsets in ``_STAR``, and each star and its label
    fill one template, as does every line."""
    pts = []  # formatted (x, y) of each singular value
    marks = []  # its star and its label
    for theta, c in zip(layout(alf), alf.cycles):
        cos, sin = math.cos(theta), math.sin(theta)
        x, y = _CENTER + _RADIUS * cos, _CENTER - _RADIUS * sin
        pts.append((f"{x:.2f}", f"{y:.2f}"))
        marks.append(
            _MARK
            % (
                *map(add, [x, y] * 10, _STAR),
                _CENTER + _LABEL_RADIUS * cos,
                _CENTER - _LABEL_RADIUS * sin,
                _esc(c.display),
            )
        )
    lines = [_SVG_HEAD]
    lines += [_SKELETON % xy for xy in pts]
    for mc in matching:
        (i, j) = mc.endpoints
        lines.append(_CHORD % (pts[i] + pts[j]))
    lines.append(_BASEPOINT)
    lines += marks
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` through a temporary file of its own
    next to it, renamed over ``path`` once the write succeeded and removed
    when it failed.  Mode ``"x"`` creates it like ``open(path, "w")`` would,
    with the umask's permissions."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
