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

Every vertex then spans a matching cycle between two equal-class singular
values; singular values sit at angles ``2*pi*k/m`` on the unit circle and
the base diagram is rendered as a deterministic SVG.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .errors import (
    BadDimension,
    FormatError,
    IndexOutOfRange,
    NotAlgorithmOutput,
)
from .lattice import (
    Convention,
    DEFAULT_CONVENTION,
    IntersectionForm,
    _check_sphere_dim,
    _int,
    pattern_form,
)
from .treecore import (
    Edge,
    OrderedTree,
    RootedEmbeddedTree,
    UnrootedTree,
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
    "class_word_json",
]


@dataclass(frozen=True)
class PlumbingDescriptor:
    """A plumbing of sphere cotangent bundles: tree pattern + sphere dimension."""

    pattern: UnrootedTree
    sphere_dim: int

    def __post_init__(self):
        _check_sphere_dim(self.sphere_dim)


@dataclass(frozen=True)
class VanishingCycle:
    """One vanishing cycle: origin label, lattice class, symbolic display.

    ``label`` records where the cycle came from (``vertex:v3``, ``edge:e0``,
    ``stab:1``) and never changes; ``display`` is the symbolic name, which
    accumulates a formal twist word under Hurwitz moves.  ``==`` compares all
    three; only :func:`equal_homology` and the search compare classes alone.
    """

    label: str
    cls: tuple[int, ...]
    display: str


@dataclass(frozen=True)
class AbstractLF:
    """Fiber descriptor plus the cyclically ordered vanishing-cycle word;
    ``n`` is ``fiber.sphere_dim + 1``, which the fiber checks when built."""

    fiber: PlumbingDescriptor
    cycles: tuple[VanishingCycle, ...]

    @property
    def n(self) -> int:
        return self.fiber.sphere_dim + 1

    def word_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.cls for c in self.cycles)

    def word_displays(self) -> tuple[str, ...]:
        return tuple(c.display for c in self.cycles)


@dataclass(frozen=True)
class MatchingCycle:
    """The two singular values (by word index) sharing a vertex's cycle."""

    vertex: str  # canonical label v{i}
    endpoints: tuple[int, int]


def fiber_form(
    fiber: PlumbingDescriptor, convention: Convention = DEFAULT_CONVENTION
) -> IntersectionForm:
    """Intersection form on the fiber lattice of an abstract fibration."""
    return pattern_form(fiber.pattern, fiber.sphere_dim, convention)


def fibrate(ot: OrderedTree, n: int) -> AbstractLF:
    """Run the three-step algorithm on an ordered tree.

    The class of a cycle is the unit vector of its quotient class in the
    fiber basis.  The r unit tuples are built once, each as one C-level
    slice of a shared row, and every cycle of a class holds that class's
    tuple: the word costs O(m + r^2) instead of a Python loop of length r
    per cycle.
    """
    _check_n(n)
    qd = quotient(ot)
    fiber = PlumbingDescriptor(qd.quotient_tree, n - 1)
    r = len(qd.quotient_tree.vertices)
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
    return AbstractLF(fiber, tuple(word))


def matching_cycles(alf: AbstractLF, ot: OrderedTree) -> list[MatchingCycle]:
    """One matching cycle per vertex of the input tree.

    Requires the unmoved output of :func:`fibrate` for the same tree.
    The root vertex pairs with the root-edge cycle; vertex i pairs with
    vertex i - 1 when edge i - 1 leads from it (``tail[i - 1] == i - 1``)
    and with edge i - 1 otherwise.  Both endpoints always carry the same
    class and denote the same fiber sphere.
    """
    if alf != fibrate(ot, alf.n):
        raise NotAlgorithmOutput(
            "matching cycles are defined on the pristine algorithm output"
        )
    index_of = {c.label: i for i, c in enumerate(alf.cycles)}
    out = [MatchingCycle("v0", (index_of["vertex:v0"], index_of["edge:e0"]))]
    for i, t in enumerate(ot.tail, start=1):
        partner = f"vertex:v{i - 1}" if t == i - 1 else f"edge:e{i - 1}"
        out.append(MatchingCycle(f"v{i}", (index_of[f"vertex:v{i}"], index_of[partner])))
    return out


def layout(alf: AbstractLF) -> tuple[float, ...]:
    """Angles of the singular values on the unit circle, in word order."""
    m = len(alf.cycles)
    if m < 1:
        raise IndexOutOfRange("empty cycle word")
    return tuple(2.0 * math.pi * k / m for k in range(m))


# ---------------------------------------------------------------------------
# family of fibrations over a chain with one off-chain leaf


def family_tree(m: int, j: int) -> RootedEmbeddedTree:
    """Chain u_0 -> ... -> u_m with one extra leaf at u_j (1 <= j <= m-1).

    The leaf edge sits after the chain edge in u_j's rotation, so it is not
    a first outgoing edge and the quotient pattern is the two-vertex chain.
    For j = m the leaf edge would be first outgoing and the construction
    degenerates, so that index is rejected.
    """
    m, j = _int(m), _int(j)
    if not 1 <= j <= m - 1:
        raise IndexOutOfRange(f"leaf position {j} not in 1..{m - 1}")
    chain = [f"u{i}" for i in range(m + 1)]
    vertices = tuple(chain) + ("x",)
    edges = [Edge(f"c{i}", chain[i], chain[i + 1]) for i in range(m)]
    edges.append(Edge("d", chain[j], "x"))
    rotation: dict[str, tuple[str, ...]] = {}
    for i, v in enumerate(chain):
        rot: list[str] = []
        if i < m:
            rot.append(f"c{i}")
        if i == j:
            rot.append("d")
        if i > 0:
            rot.append(f"c{i - 1}")
        rotation[v] = tuple(rot)
    rotation["x"] = ("d",)
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
    cycles = [VanishingCycle("edge:e0", alpha, "α")]
    for i in range(j):
        cycles.append(VanishingCycle(f"vertex:v{i}", alpha, "α"))
    cycles.append(VanishingCycle(f"edge:e{m}", beta, "β"))
    for i in range(j, m + 1):
        cycles.append(VanishingCycle(f"vertex:v{i}", alpha, "α"))
    cycles.append(VanishingCycle(f"vertex:v{m + 1}", beta, "β"))
    return AbstractLF(fiber, tuple(cycles))


# ---------------------------------------------------------------------------
# serialization

_LABEL_KINDS = ("vertex", "edge", "stab")


def _alf_to_doc(alf: AbstractLF) -> dict:
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


def to_json(alf: AbstractLF) -> str:
    """Stable JSON form of a fibration; byte-identical for equal inputs."""
    return dump_json(_alf_to_doc(alf))


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
    """Inverse of :func:`to_json`; validates structure, tree shape, the fiber
    and n, which must be at least 2 as in :func:`fibrate` and fit the fiber.
    Cycles with equal coordinates share one class tuple, as in
    :func:`fibrate`, so the homology certificate reads each class once."""
    doc = load_json(text)
    try:
        pat = doc["fiber"]["pattern"]
        pattern = UnrootedTree(
            tuple(_text(v) for v in _list(pat["vertices"])),
            tuple((_text(a), _text(b)) for a, b in map(_list, _list(pat["edges"]))),
        )
        fiber = PlumbingDescriptor(pattern, doc["fiber"]["sphere_dim"])
        rank = len(pattern.vertices)
        cycles = []
        shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # equal checked classes, one object
        for c in doc["cycles"]:
            coords = tuple(map(_int, c["coords"]))
            if len(coords) != rank:
                raise FormatError(
                    f"cycle coords of length {len(coords)} against fiber rank {rank}"
                )
            coords = shared.setdefault(coords, coords)
            label = _text(c["label"])
            if label.split(":", 1)[0] not in _LABEL_KINDS:
                raise FormatError(f"unknown cycle label kind in {label!r}")
            cycles.append(VanishingCycle(label, coords, _text(c["display"])))
        n = doc["n"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed fibration document: {exc}") from exc
    _check_n(n)
    if fiber.sphere_dim != n - 1:
        raise FormatError(
            f"fiber sphere_dim {fiber.sphere_dim} inconsistent with n={n}"
        )
    return AbstractLF(fiber, tuple(cycles))


def class_word_json(alf: AbstractLF) -> str:
    """Canonical serialization of the class word alone.

    Labels and displays are provenance, not identity; this is the byte form
    used to compare two words.  Search does not go through it: it hashes
    tuples of interned class ids.
    """
    doc = {
        "sphere_dim": alf.fiber.sphere_dim,
        "rank": len(alf.fiber.pattern.vertices),
        "classes": [list(c.cls) for c in alf.cycles],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# rendering

_SIZE = 420.0
_CENTER = _SIZE / 2.0
_RADIUS = 160.0


def _pt(theta: float) -> tuple[float, float]:
    # SVG y grows downward; flip so angles run counterclockwise
    return (_CENTER + _RADIUS * math.cos(theta), _CENTER - _RADIUS * math.sin(theta))


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _star(cx: float, cy: float) -> str:
    pts = []
    for k in range(10):
        r = 8.0 if k % 2 == 0 else 3.2
        a = math.pi / 2 + k * math.pi / 5
        pts.append(f"{_fmt(cx + r * math.cos(a))},{_fmt(cy - r * math.sin(a))}")
    return " ".join(pts)


def render_svg(alf: AbstractLF, matching: list[MatchingCycle]) -> str:
    """Base diagram as SVG text: unit circle, base point, radial skeleton
    segments, matching chords, star-marked singular values with labels."""
    angles = layout(alf)
    pts = [_pt(a) for a in angles]
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_SIZE)}" '
        f'height="{_fmt(_SIZE)}" viewBox="0 0 {_fmt(_SIZE)} {_fmt(_SIZE)}">',
        f'<circle cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" r="{_fmt(_RADIUS)}" '
        'fill="none" stroke="#000000" stroke-width="1"/>',
    ]
    for x, y in pts:
        lines.append(
            f'<line class="skeleton" x1="{_fmt(_CENTER)}" y1="{_fmt(_CENTER)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(y)}" stroke="#bbbbbb" stroke-width="1"/>'
        )
    for mc in matching:
        (i, j) = mc.endpoints
        (x1, y1), (x2, y2) = pts[i], pts[j]
        lines.append(
            f'<line class="matching" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="#2060c0" stroke-width="1.5"/>'
        )
    lines.append(
        f'<circle class="basepoint" cx="{_fmt(_CENTER)}" cy="{_fmt(_CENTER)}" '
        'r="3.00" fill="#000000"/>'
    )
    for k, ((x, y), theta) in enumerate(zip(pts, angles)):
        lines.append(f'<polygon class="singular" points="{_star(x, y)}" fill="#c03020"/>')
        lx = _CENTER + (_RADIUS + 24.0) * math.cos(theta)
        ly = _CENTER - (_RADIUS + 24.0) * math.sin(theta)
        lines.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="11" '
            f'text-anchor="middle" dominant-baseline="middle">'
            f"{_esc(alf.cycles[k].display)}</text>"
        )
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
