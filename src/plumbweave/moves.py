"""Moves on abstract Lefschetz fibrations and bounded equivalence search.

Cyclic permutation rotates the word; the two Hurwitz moves exchange an
adjacent pair through the twist around one of its members; stabilization
plumbs one more sphere onto the fiber and inserts the new class into the
word.  All four preserve the total space; here they are tracked at the
homology level, where cycle classes evolve by the exact twist action.

:class:`MoveRecord` is the one grammar of moves, checked when a record is
built; :func:`apply_move` is the one entry that runs a move, and the four
public moves call it.  A Hurwitz move follows one twist-and-swap rule,
:func:`_hurwitz_pair`, which :func:`apply_move` runs on a pair of vanishing
cycles and the search on a pair of class ids.  :func:`_state_moves` is the
one statement of the search alphabet's order.

Cycle identity after moves lives at two tiers: the lattice class (decidable,
used for every equality check) and the display string, which accumulates a
formal twist word purely for provenance.

Deformation is not a move here: at the homology level it is the identity,
so it is represented by equality itself.  Whether the four moves connect all
fibrations of a fixed total space is unknown, so no search result is
evidence of inequivalence: a failed search shows at most that these moves
do not reach the target.

Search is a bidirectional breadth-first search over class words (Pohl,
"Bi-directional search", 1971) from a sphere word, each class an isometric
centre (:func:`~plumbweave.lattice._isometric_centre`), as every class that
fibrate, family_word and stabilize write, and every image of one under
moves, is.  :func:`_non_sphere` states that rule once; the search refuses
a source and cuts a target by it, and the ``moves`` commands refuse a
loaded word by it before the first move, while the library moves never
check it.  Each move is then an integer isometry with an explicit inverse
(Seidel, *Fukaya Categories and Picard-Lefschetz Theory*, 2008), so a
second frontier grows backward from the target; :func:`search_equivalence`
gives the schedule, why it does not change the witness, and the two cuts,
by class squares and by :func:`~plumbweave.invariants.total_homology`,
that answer at once.  A state that both sides have reached is where they
meet, and :func:`_witness` builds every witness from it.  Each search interns the
classes it meets as small integer ids and holds a state as a ``str`` with
one character ``chr(id)`` per class, which Python stores in 1, 2 or 4 bytes
a character as its largest id needs, hashes once and slices in C.  A table
that lives only for that call maps each pair of ids to its pair after each
Hurwitz move, so each twist is computed once.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    FormatError,
    IndexOutOfRange,
    NonInvertibleTwist,
    UnknownVertex,
)
from .fibration import (
    AbstractLF,
    PlumbingDescriptor,
    VanishingCycle,
    _text,
    dump_json,
    load_json,
)
from .invariants import total_homology
from .lattice import EDGE_SIGN, _int, _isometric_centre, dehn_twist
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

# a search state holds each class id as one character, chr(id)
_MAX_CLASS_ID = sys.maxunicode


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


def hurwitz_a(alf: AbstractLF, i: int) -> AbstractLF:
    """Replace the pair (x, y) at (i, i+1) with (y, twist_y(x))."""
    return apply_move(alf, MoveRecord(HURWITZ_A, i))


def hurwitz_b(alf: AbstractLF, i: int) -> AbstractLF:
    """Replace the pair (x, y) at (i, i+1) with (twist_x^{-1}(y), x)."""
    return apply_move(alf, MoveRecord(HURWITZ_B, i))


def _hurwitz_pair(kind: str, x, y, twist) -> tuple:
    """The pair (x, y) after a Hurwitz move of ``kind``: the one
    twist-and-swap rule.

    ``twist(l, x, power)`` twists the entry ``x`` ``power`` times around
    ``l``.  :func:`apply_move` runs this on pairs of vanishing cycles, the
    search on pairs of class ids.
    """
    if kind == HURWITZ_A:
        return y, twist(y, x, 1)
    return twist(x, y, -1), x


def stabilize(alf: AbstractLF, attach_vertex: str, position: int) -> AbstractLF:
    """Grow the fiber by one leaf sphere at ``attach_vertex`` and insert the
    new basis class into the word at ``position``."""
    return apply_move(alf, MoveRecord(STABILIZE, position, attach_vertex))


def apply_move(alf: AbstractLF, move: MoveRecord) -> AbstractLF:
    """The one entry for every move, which checks it against the word.
    Stabilized classes re-embed with a zero coordinate in the new direction,
    so old pairings are unchanged; cycles that shared a class object share
    its grown tuple.  A cyclic or Hurwitz move copies the vanishing cycles
    once, a Hurwitz move by :func:`_hurwitz_pair`: a twisted cycle keeps its
    label and its display records the twist.  No move checks the sphere-word
    rule (:func:`_non_sphere`), which every move keeps, so a Hurwitz move
    pays for no pairing beyond its twist."""
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
        return AbstractLF(alf.fiber, word[1:] + word[:1])
    i = move.index
    if not 0 <= i < len(word) - 1:
        raise IndexOutOfRange(f"pair index {i} not in 0..{len(word) - 2}")
    fiber = alf.fiber

    def twist(l: VanishingCycle, x: VanishingCycle, power: int) -> VanishingCycle:
        tau = "τ" if power == 1 else "τ^{-1}"
        return VanishingCycle(
            x.label, dehn_twist(fiber, l.cls, x.cls, power), f"{tau}[{l.display}]({x.display})"
        )

    out = list(word)
    out[i], out[i + 1] = _hurwitz_pair(move.kind, word[i], word[i + 1], twist)
    return AbstractLF(alf.fiber, tuple(out))


def replay(alf: AbstractLF, seq) -> AbstractLF:
    for move in seq:
        alf = apply_move(alf, move)
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


def _non_sphere(fiber: PlumbingDescriptor, word, distinct) -> int | None:
    """The index in ``word`` of its first class that is no isometric centre
    of ``fiber`` (:func:`_isometric_centre`), or None when it is a sphere
    word: the one sphere-word rule.  ``distinct`` is the caller's
    ``dict.fromkeys(word)``, so each class is checked once."""
    for c in distinct:
        if not _isometric_centre(fiber, c):
            return word.index(c)
    return None


def _refuse_non_sphere(alf: AbstractLF, taker: str, word, distinct) -> None:
    """Raise :class:`NonInvertibleTwist` when ``alf``, whose classes are
    ``word`` and ``distinct`` as in :func:`_non_sphere`, is no sphere word
    of its fiber: name its first such cycle by index and label, with its
    square and the edge sign, but never the class, which can have
    thousands of entries.  ``taker`` names who refuses the word; the
    search and the ``moves`` commands call this."""
    fiber = alf.fiber
    k = _non_sphere(fiber, word, distinct)
    if k is not None:
        cycle = alf.cycles[k]
        raise NonInvertibleTwist(
            f"source cycle {k} ({cycle.label}) has square {fiber.pair(cycle.cls, cycle.cls)} "
            f"under edge sign {EDGE_SIGN:+d}; {taker} sphere classes only"
        )


@lru_cache
def _state_moves(m: int) -> tuple[MoveRecord, ...]:
    """The search alphabet on words of length ``m``, in its fixed order,
    which is stated here only: the cyclic move first, as the search's
    children and predecessors assume.  The records are frozen, so one tuple
    serves every search of that length."""
    return (
        MoveRecord(CYCLIC),
        *[MoveRecord(HURWITZ_A, i) for i in range(m - 1)],
        *[MoveRecord(HURWITZ_B, i) for i in range(m - 1)],
    )


def search_equivalence(a: AbstractLF, b: AbstractLF, max_depth: int):
    """Bidirectional breadth-first search for a move sequence turning a's
    word into b's.

    The alphabet is :func:`_state_moves`, cyclic permutation and both
    Hurwitz moves at every index (no stabilization) in its fixed order; the
    result is the shortest witness and lexicographically least among those.
    Returns a tuple of MoveRecord, or None when no witness has at most
    ``max_depth`` moves.  A None is never evidence that the fibrations differ.

    A state is a ``str`` with one character ``chr(id)`` per class, where
    the call interns each class it meets as the id.  Python stores such a
    string in 1, 2 or 4 bytes a character, as its largest id needs, and
    caches its hash.  One generator yields a state's children lazily, so a
    loop that meets the other side stops there: the left rotation, then one
    step for each Hurwitz move of :func:`_state_moves`, in its order, which
    rewrites the pair at the move's index through the call's table for its
    kind, ``{pair: pair after the move}``.  :func:`_hurwitz_pair` fills the
    tables, so each twist is computed once with :func:`dehn_twist`.  A
    forward state links to its parent and the index of its move in the
    alphabet.  On the D_13 -> A_13 search at n = 3 (a word of 15 classes,
    depth 13), the call stores 314 481 states, and its peak under
    ``tracemalloc`` is 45 MiB, about 150 bytes a state on 64-bit CPython
    3.11, tables, links and frontiers included; none of it outlives the
    call.  ``chr`` stops at ``sys.maxunicode``, so a search that would
    intern more classes than that raises :class:`IndexOutOfRange`.

    The domain is checked before any class is interned.  A class whose
    length is not the fiber's rank, in either word, raises
    :class:`DimensionMismatch`; a source that is no sphere word
    (:func:`_non_sphere`), holding a class such as 2*l or a class written
    under edge sign -1 and not carried to +1 by the basis flip of
    :mod:`~plumbweave.lattice`, raises :class:`NonInvertibleTwist`.  So
    every move is an integer isometry with an explicit inverse, and a
    second search grows from b over predecessors (right rotation, and
    ``hurwitz_b`` at i for ``hurwitz_a`` at i and the reverse) until the
    two meet or their depths add up to ``max_depth``.  Each step grows the
    strictly smaller frontier, and the backward one on a tie: a forward
    layer stops at its first child that meets the backward side, while a
    backward layer is completed and only then scanned, so the step that can
    meet is left to the forward side.

    The step at which the depths add up to ``max_depth`` probes and stores
    no layer, since no step would expand it.  A forward probe checks each
    child against the backward side and links only the child that meets
    it.  A backward probe records the distance only of the predecessors
    that are forward states: such a state lies on the forward frontier, as
    an older forward state at that distance would give a shorter witness,
    which the earlier steps have ruled out.

    No schedule changes the witness.  Let w be the least shortest witness,
    of length L, and let the sides meet at depths (f, b), f + b = L; every
    witness of fewer moves would have met at an earlier step.  Each side
    discovers its states in the order of their least paths, so the first
    forward state at depth f that lies b moves from the goal is the state
    that w reaches after f moves: one found before it would start a smaller
    witness.  A forward meet stops at that state, and a backward meet scans
    the forward frontier in order and stops there too; :func:`_witness`
    then takes the least descent from it, the rest of w.  So the tie rule
    and the probe return w, as any order of the steps would.

    Two cuts return None before anything is interned, at any depth.
    Isometries keep each class's square, so when b is no sphere word
    (:func:`_non_sphere` again), b is unreachable.  Each move sends a pair
    (x, y) to (y, x + c*y) or (y + c'*x, x), so it keeps the Z-span of the
    word's classes and hence :func:`total_homology`; when the words have
    different sets of distinct classes, homology certificates that differ
    make b unreachable too, and a class entry that is not an ``int`` raises
    :class:`FormatError` there.  On one fiber and one word length the
    certificates differ exactly when the Smith normal forms of the class
    rows do.  Such a None shows only that these moves do not reach b, not
    that the fibrations differ.  A negative ``max_depth`` raises
    :class:`IndexOutOfRange`.
    """
    if _int(max_depth) < 0:
        raise IndexOutOfRange(f"search depth {max_depth} below 0")
    if not _same_fiber(a, b):
        raise DimensionMismatch("search requires identical fibers")
    if len(a.cycles) != len(b.cycles):
        raise DimensionMismatch("search requires words of equal length")

    start = a.word_classes()
    goal = b.word_classes()
    sources, targets = dict.fromkeys(start), dict.fromkeys(goal)  # a word repeats classes
    r = len(a.fiber.pattern.vertices)
    if any(len(c) != r for c in (*sources, *targets)):
        raise DimensionMismatch(f"search requires classes of length {r}, the fiber's rank")
    _refuse_non_sphere(a, "the search takes", start, sources)
    if start == goal:
        return ()
    fiber = a.fiber
    if _non_sphere(fiber, goal, targets) is not None:
        return None  # every move keeps each class's square
    if sources.keys() != targets.keys() and total_homology(a) != total_homology(b):
        return None  # every move keeps the total space's homology
    ids: dict = {}  # class -> id
    classes: list = []  # id -> class

    def intern(cls) -> int:
        i = ids.get(cls)
        if i is None:
            i = len(classes)
            if i > _MAX_CLASS_ID:
                raise IndexOutOfRange(
                    f"search met more than {_MAX_CLASS_ID + 1} distinct classes; "
                    "a state holds each class id as one character"
                )
            ids[cls] = i
            classes.append(cls)
        return i

    def twist(l: int, x: int, power: int) -> int:
        return intern(dehn_twist(fiber, classes[l], classes[x], power))

    alphabet = _state_moves(len(start))
    tables = {HURWITZ_A: {}, HURWITZ_B: {}}  # kind -> {pair: pair after the move}
    steps = [(mv.kind, tables[mv.kind], mv.index) for mv in alphabet[1:]]

    def children(state: str):
        """The children of ``state``, one at a time, in alphabet order."""
        yield state[1:] + state[:1]
        for kind, table, i in steps:
            pair = state[i : i + 2]
            after = table.get(pair)
            if after is None:
                x, y = _hurwitz_pair(kind, ord(pair[0]), ord(pair[1]), twist)
                after = table[pair] = chr(x) + chr(y)
            yield state[:i] + after + state[i + 2 :]

    start = "".join([chr(intern(c)) for c in start])
    goal = "".join([chr(intern(c)) for c in goal])
    parents: dict = {start: None}  # forward state -> (parent, move index) of its least path
    dist = {goal: 0}  # backward state -> moves from it to the goal
    forward, backward = [start], [goal]
    depth_f = depth_b = 0
    while depth_f + depth_b < max_depth and forward and backward:
        # the step that spends the budget grows a layer no step expands
        probe = depth_f + depth_b + 1 == max_depth
        if len(forward) < len(backward):
            # discovery order is the order of least paths, so the first
            # child that meets the backward side starts the least witness
            layer = []
            for state in forward:
                for k, child in enumerate(children(state)):
                    if child in parents:
                        continue
                    if child in dist:
                        parents[child] = (state, k)
                        return _witness(child, parents, dist, alphabet, children)
                    if not probe:
                        parents[child] = (state, k)
                        layer.append(child)
            forward = layer
            depth_f += 1
        else:
            layer = []
            for state in backward:
                preds = children(state)
                next(preds)  # the left rotation; its inverse is the right one
                for pred in (state[-1:] + state[:-1], *preds):
                    # a probe keeps only the forward states it meets
                    if (pred not in parents) if probe else (pred in dist):
                        continue
                    dist[pred] = depth_b + 1
                    layer.append(pred)
            backward = layer
            depth_b += 1
            for state in forward:
                if state in dist:
                    return _witness(state, parents, dist, alphabet, children)
    return None


def _witness(state, parents, dist, alphabet, children) -> tuple:
    """The witness through ``state``, where the two sides meet: the least
    path from the start to ``state``, read back through ``parents`` (each
    link a parent and the index of its move in ``alphabet``), then the least
    shortest descent to the goal, at each step the first child, in the
    order ``children`` yields them, that is one step closer.

    A state is in both ``parents`` and ``dist`` only where the sides meet:
    had an older forward state entered ``dist``, its forward child on that
    backward path would have met first."""
    seq = []
    at = state
    while parents[at] is not None:
        at, k = parents[at]
        seq.append(alphabet[k])
    seq.reverse()
    for d in range(dist[state] - 1, -1, -1):
        for k, child in enumerate(children(state)):
            if dist.get(child) == d:
                break
        seq.append(alphabet[k])
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


_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(token: str, what: str, line: str) -> int:
    """``token`` as an ASCII decimal integer, ``-?[0-9]+``; anything else,
    such as ``1_0``, ``+1`` or a non-ASCII digit, which ``int`` would read,
    and a number of more digits than ``int`` reads raise
    :class:`FormatError` naming ``what``."""
    try:
        if _DECIMAL.fullmatch(token):
            return int(token)
    except ValueError:  # past the interpreter's digit limit
        pass
    raise FormatError(f"bad {what} in move line {line!r}")


def parse_move_line(line: str) -> MoveRecord:
    """Parse one move in the textual grammar, where ``I`` is an ASCII
    decimal integer:

    ``cyclic`` | ``hurwitzA I`` | ``hurwitzB I`` | ``stabilize VERTEX I``
    """
    tokens = line.split()
    if not tokens:
        raise FormatError("empty move line")
    head = tokens[0]
    if head == "cyclic" and len(tokens) == 1:
        return MoveRecord(CYCLIC)
    if head in ("hurwitzA", "hurwitzB") and len(tokens) == 2:
        i = _decimal(tokens[1], "index", line)
        return MoveRecord(HURWITZ_A if head == "hurwitzA" else HURWITZ_B, i)
    if head == "stabilize" and len(tokens) == 3:
        return MoveRecord(STABILIZE, _decimal(tokens[2], "position", line), tokens[1])
    raise FormatError(f"unrecognized move line {line!r}")
