"""Moves on abstract Lefschetz fibrations and bounded equivalence search.

Cyclic permutation rotates the word; the two Hurwitz moves exchange an
adjacent pair through the twist around one of its members; stabilization
plumbs one more sphere onto the fiber and inserts the new class into the
word.  All four preserve the total space; here they are tracked at the
homology level, where cycle classes evolve by the exact twist action.

:class:`MoveRecord` is the one grammar of moves, checked when a record is
built; :func:`apply_move` is the one entry that runs a move, and the four
public moves call it.  Cyclic and Hurwitz moves follow one rule,
:func:`_move_word`, which the search also runs on its words of class ids.

Cycle identity after moves lives at two tiers: the lattice class (decidable,
used for every equality check) and the display string, which accumulates a
formal twist word purely for provenance.

Deformation is not a move here: at the homology level it is the identity,
so it is represented by equality itself.  Whether the four moves connect all
fibrations of a fixed total space is unknown; a failed bounded search is
therefore never evidence of inequivalence.

Search is a bidirectional breadth-first search over class words (Pohl,
"Bi-directional search", 1971).  When every class is an isometric centre,
a class whose twist is an integer isometry, the moves form a group action
with explicit inverses (``hurwitz_b`` at i undoes ``hurwitz_a`` at i and
the reverse; Seidel, *Fukaya Categories and Picard-Lefschetz Theory*,
2008), so a second frontier grows backward from the target; and since
isometries keep every class's square, a target with a class of another
square is cut off at once.  Each search interns the classes it meets as
small integer ids, so a state is a tuple of ids, and computes each twist
(centre, class, power) once, in a table that lives only for that call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    UnknownVertex,
)
from .fibration import (
    AbstractLF,
    PlumbingDescriptor,
    VanishingCycle,
    _text,
    dump_json,
    fiber_form,
    load_json,
)
from .lattice import ANTISYMMETRIC, Convention, DEFAULT_CONVENTION, _int, dehn_twist
from .treecore import UnrootedTree

__all__ = [
    "MoveRecord",
    "cyclic_permute",
    "hurwitz_a",
    "hurwitz_b",
    "stabilize",
    "apply_move",
    "replay",
    "equal_homology",
    "search_equivalence",
    "moves_to_json",
    "moves_from_json",
    "parse_move_line",
]

CYCLIC = "cyclic_permute"
HURWITZ_A = "hurwitz_a"
HURWITZ_B = "hurwitz_b"
STABILIZE = "stabilize"


@dataclass(frozen=True)
class MoveRecord:
    """One move.  ``cyclic_permute`` takes no field, ``hurwitz_a`` and
    ``hurwitz_b`` the pair ``index``, ``stabilize`` the insert position as
    ``index`` and the fiber ``vertex``.  An index is an int and not a bool,
    a vertex a string; any other kind, type or field raises
    :class:`FormatError`, so every record that can be built round-trips
    through the move JSON.  :func:`apply_move` checks ranges."""

    kind: str
    index: int | None = None
    vertex: str | None = None

    def __post_init__(self):
        if self.kind not in (CYCLIC, HURWITZ_A, HURWITZ_B, STABILIZE):
            raise FormatError(f"unknown move kind {self.kind!r}")
        for field, used, check in (
            ("index", self.kind != CYCLIC, _int),
            ("vertex", self.kind == STABILIZE, _text),
        ):
            value = getattr(self, field)
            if used:
                check(value)
            elif value is not None:
                raise FormatError(f"a {self.kind} move takes no {field}, got {value!r}")


def cyclic_permute(alf: AbstractLF) -> AbstractLF:
    """Rotate the word left by one; the fiber is unchanged."""
    return apply_move(alf, MoveRecord(CYCLIC))


def hurwitz_a(
    alf: AbstractLF, i: int, convention: Convention = DEFAULT_CONVENTION
) -> AbstractLF:
    """Replace the pair (x, y) at (i, i+1) with (y, twist_y(x))."""
    return apply_move(alf, MoveRecord(HURWITZ_A, i), convention)


def hurwitz_b(
    alf: AbstractLF, i: int, convention: Convention = DEFAULT_CONVENTION
) -> AbstractLF:
    """Replace the pair (x, y) at (i, i+1) with (twist_x^{-1}(y), x)."""
    return apply_move(alf, MoveRecord(HURWITZ_B, i), convention)


def _move_word(word: tuple, move: MoveRecord, twist) -> tuple:
    """The word after one cyclic or Hurwitz move: the one twist-and-swap rule.

    ``twist(l, x, power)`` twists the entry ``x`` ``power`` times around
    ``l``.  Search runs this on bare class words, :func:`apply_move` on
    words of vanishing cycles; the move is checked by the caller.
    """
    if move.kind == CYCLIC:
        return word[1:] + word[:1]
    i = move.index
    x, y = word[i], word[i + 1]
    if move.kind == HURWITZ_A:
        return word[:i] + (y, twist(y, x, 1)) + word[i + 2 :]
    return word[:i] + (twist(x, y, -1), x) + word[i + 2 :]


def stabilize(alf: AbstractLF, attach_vertex: str, position: int) -> AbstractLF:
    """Grow the fiber by one leaf sphere at ``attach_vertex`` and insert the
    new basis class into the word at ``position``."""
    return apply_move(alf, MoveRecord(STABILIZE, position, attach_vertex))


def apply_move(
    alf: AbstractLF, move: MoveRecord, convention: Convention = DEFAULT_CONVENTION
) -> AbstractLF:
    """The one entry for every move, which checks it against the word.
    Stabilized classes re-embed with a zero coordinate in the new direction,
    so old pairings are unchanged; cycles that shared a class object share
    its grown tuple.  A cyclic or Hurwitz move runs
    :func:`_move_word` on the vanishing cycles: a twisted cycle keeps its
    label and its display records the twist."""
    word = alf.cycles
    if move.kind == STABILIZE:
        pattern = alf.fiber.pattern
        if move.vertex not in pattern.vertices:
            raise UnknownVertex(f"unknown fiber vertex {move.vertex!r}")
        i = move.index
        if not 0 <= i <= len(word):
            raise IndexOutOfRange(f"insert position {i} not in 0..{len(word)}")
        k = 1
        while f"s{k}" in pattern.vertices:
            k += 1
        new_v = f"s{k}"
        new_pattern = UnrootedTree(
            pattern.vertices + (new_v,), pattern.edges + ((move.vertex, new_v),)
        )
        distinct = {id(c.cls): c.cls for c in word}
        grown = {k: x + (0,) for k, x in distinct.items()}  # each class object grown once
        old = tuple(VanishingCycle(c.label, grown[id(c.cls)], c.display) for c in word)
        fresh = VanishingCycle(
            f"stab:{k}", (0,) * len(pattern.vertices) + (1,), f"L_{{{new_v}}}"
        )
        return AbstractLF(
            PlumbingDescriptor(new_pattern, alf.fiber.sphere_dim),
            old[:i] + (fresh,) + old[i:],
        )
    if move.kind == CYCLIC:
        if not word:
            raise IndexOutOfRange("empty cycle word")
        return replace(alf, cycles=_move_word(word, move, None))
    if not 0 <= move.index < len(word) - 1:
        raise IndexOutOfRange(f"pair index {move.index} not in 0..{len(word) - 2}")
    form = fiber_form(alf.fiber, convention)

    def twist(l: VanishingCycle, x: VanishingCycle, power: int) -> VanishingCycle:
        tau = "τ" if power == 1 else "τ^{-1}"
        return VanishingCycle(
            x.label, dehn_twist(form, l.cls, x.cls, power), f"{tau}[{l.display}]({x.display})"
        )

    return replace(alf, cycles=_move_word(word, move, twist))


def replay(
    alf: AbstractLF, seq, convention: Convention = DEFAULT_CONVENTION
) -> AbstractLF:
    for move in seq:
        alf = apply_move(alf, move, convention)
    return alf


def _same_fiber(a: AbstractLF, b: AbstractLF) -> bool:
    """Structurally identical fibers: sphere dimension (hence n) and the
    pattern compared by position (the relabeling is fixed by construction)."""
    fa, fb = a.fiber, b.fiber
    return (
        fa.sphere_dim == fb.sphere_dim
        and len(fa.pattern.vertices) == len(fb.pattern.vertices)
        and fa.pattern.edge_index_pairs() == fb.pattern.edge_index_pairs()
    )


def equal_homology(a: AbstractLF, b: AbstractLF) -> bool:
    """Pointwise class equality over structurally identical fibers.

    Fibers are compared by :func:`_same_fiber`, then the class words, which
    includes their length.  Labels and displays never matter here.
    """
    return _same_fiber(a, b) and a.word_classes() == b.word_classes()


def _state_moves(m: int) -> list[MoveRecord]:
    out = [MoveRecord(CYCLIC)]
    out.extend(MoveRecord(HURWITZ_A, i) for i in range(m - 1))
    out.extend(MoveRecord(HURWITZ_B, i) for i in range(m - 1))
    return out


def search_equivalence(
    a: AbstractLF,
    b: AbstractLF,
    max_depth: int,
    convention: Convention = DEFAULT_CONVENTION,
):
    """Bidirectional breadth-first search for a move sequence turning a's
    word into b's.

    The alphabet is cyclic permutation plus both Hurwitz moves at every
    index (no stabilization), in that fixed order; the result is the
    shortest witness and lexicographically least among those.  Returns a
    tuple of MoveRecord, or None when no witness has at most ``max_depth``
    moves.  A None is never evidence of inequivalence.

    States are words of class ids: the call interns each class it meets,
    and the ``twist`` it hands to :func:`_move_word` computes each
    (centre, class, power) once with :func:`dehn_twist` and looks it up
    after that.  The extra memory is one entry per distinct twist computed;
    none of it outlives the call.  A twist that raises is never stored.

    When every class of both words is an isometric centre (see
    :func:`_isometric_centre`), every move is an integer isometry with an
    explicit inverse, so a second search grows from b over predecessors
    (right rotation, and ``hurwitz_b`` at i for ``hurwitz_a`` at i and the
    reverse), always on the smaller frontier, until the two meet or their
    depths add up to ``max_depth``.  Isometries keep each class's square,
    so when every class of a is a centre and some class of b is not, b is
    unreachable and None comes back at once; even that None shows only
    that these moves do not reach b, not that the fibrations differ.
    Otherwise only the forward side grows, and a twist that has no integer
    inverse raises :class:`NonInvertibleTwist` where a one-sided search
    meets it.  A negative ``max_depth`` raises :class:`IndexOutOfRange`.
    """
    if _int(max_depth) < 0:
        raise IndexOutOfRange(f"search depth {max_depth} below 0")
    if not _same_fiber(a, b):
        raise DimensionMismatch("search requires identical fibers")
    if len(a.cycles) != len(b.cycles):
        raise DimensionMismatch("search requires words of equal length")

    start = a.word_classes()
    goal = b.word_classes()
    if start == goal:
        return ()
    form = fiber_form(a.fiber, convention)
    bidirectional = all(_isometric_centre(form, c) for c in start)
    if bidirectional and not all(_isometric_centre(form, c) for c in goal):
        return None
    ids: dict = {}  # class -> id
    classes: list = []  # id -> class
    twists: dict = {}  # (centre id, class id, power) -> id of the twisted class

    def intern(cls) -> int:
        i = ids.get(cls)
        if i is None:
            i = ids[cls] = len(classes)
            classes.append(cls)
        return i

    def twist(l: int, x: int, power: int) -> int:
        key = (l, x, power)
        out = twists.get(key)
        if out is None:
            # a twist that raises is not stored, so it raises wherever met
            out = twists[key] = intern(dehn_twist(form, classes[l], classes[x], power))
        return out

    start = tuple(map(intern, start))
    goal = tuple(map(intern, goal))
    alphabet = _state_moves(len(start))
    parents: dict = {start: None}  # forward state -> (parent, move) of its least path
    dist = {goal: 0}  # backward state -> moves from it to the goal
    forward, backward = [start], [goal]
    depth_f = depth_b = 0
    while depth_f + depth_b < max_depth and forward and backward:
        if not bidirectional or len(forward) <= len(backward):
            # discovery order is the order of least paths, so the first
            # child that meets the backward side starts the least witness
            layer = []
            for state in forward:
                for move in alphabet:
                    child = _move_word(state, move, twist)
                    if child in dist:
                        return _path(parents, state) + (move,) + _descend(
                            child, dist, alphabet, twist
                        )
                    if child not in parents:
                        parents[child] = (state, move)
                        layer.append(child)
            forward = layer
            depth_f += 1
        else:
            layer = []
            for state in backward:
                preds = [state[-1:] + state[:-1]]  # undoes the cyclic permutation
                preds.extend(_move_word(state, move, twist) for move in alphabet[1:])
                for pred in preds:
                    if pred not in dist:
                        dist[pred] = depth_b + 1
                        layer.append(pred)
            backward = layer
            depth_b += 1
            for state in forward:
                if dist.get(state) == depth_b:
                    return _path(parents, state) + _descend(state, dist, alphabet, twist)
    return None


def _isometric_centre(form, cls) -> bool:
    """Whether the twist around ``cls`` is an integer isometry of ``form``:
    always for an antisymmetric form, else when eps * <cls, cls> = -2.

    A class of the wrong length is no centre; it fails in the twist."""
    if len(cls) != len(form.basis):
        return False
    if form.parity == ANTISYMMETRIC:
        return True
    return form.convention.twist_sign * form.pair(cls, cls) == -2


def _path(parents, state) -> tuple:
    """The moves of the least path from the search start to ``state``."""
    seq = []
    while parents[state] is not None:
        state, move = parents[state]
        seq.append(move)
    return tuple(reversed(seq))


def _descend(state, dist, alphabet, twist) -> tuple:
    """The least shortest move sequence from ``state`` down to distance 0:
    at each step the first move whose child is one step closer."""
    seq = []
    for d in range(dist[state] - 1, -1, -1):
        for move in alphabet:
            child = _move_word(state, move, twist)
            if dist.get(child) == d:
                break
        seq.append(move)
        state = child
    return tuple(seq)


# ---------------------------------------------------------------------------
# serialization and the one-move-per-line grammar

def _move_doc(move: MoveRecord) -> dict:
    """A move's JSON object: its fields that are set, in field order."""
    return {k: v for k, v in vars(move).items() if v is not None}


def moves_to_json(seq) -> str:
    return dump_json([_move_doc(mv) for mv in seq])


def moves_from_json(text: str):
    raw = load_json(text)
    if not isinstance(raw, list):
        raise FormatError("move sequence document must be a JSON list")
    seq = []
    for item in raw:
        if not isinstance(item, dict):
            raise FormatError(f"move {item!r} is not a JSON object")
        seq.append(MoveRecord(item.get("kind"), item.get("index"), item.get("vertex")))
    return tuple(seq)


def parse_move_line(line: str) -> MoveRecord:
    """Parse one move in the textual grammar:

    ``cyclic`` | ``hurwitzA I`` | ``hurwitzB I`` | ``stabilize VERTEX I``
    """
    tokens = line.split()
    if not tokens:
        raise FormatError("empty move line")
    head = tokens[0]
    if head == "cyclic" and len(tokens) == 1:
        return MoveRecord(CYCLIC)
    if head in ("hurwitzA", "hurwitzB") and len(tokens) == 2:
        try:
            i = int(tokens[1])
        except ValueError:
            raise FormatError(f"bad index in move line {line!r}") from None
        return MoveRecord(HURWITZ_A if head == "hurwitzA" else HURWITZ_B, i)
    if head == "stabilize" and len(tokens) == 3:
        try:
            i = int(tokens[2])
        except ValueError:
            raise FormatError(f"bad position in move line {line!r}") from None
        return MoveRecord(STABILIZE, i, tokens[1])
    raise FormatError(f"unrecognized move line {line!r}")
