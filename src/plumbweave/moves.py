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
formal twist word purely for provenance.  A vanishing cycle is a sphere with
no preferred orientation, and the twists see none: the twist around -l is
the twist around l, and each twist is linear, so it sends -x to minus the
image of x.  So the search compares classes up to sign, while
:func:`equal_homology` and the moves keep each class's sign.

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
classes it meets, each by its sign representative (:func:`_sign_rep`), as
small integer ids and holds a state as a ``str`` with one character
``chr(id)`` per class, which Python stores in 1, 2 or 4 bytes a character
as its largest id needs, hashes once and slices in C.  A Hurwitz move on
a pair of one id fixes the state, since around a sphere class x the twist
gives T_x(x) = (1 + <x, x>) x = ±x, so the search skips it.  A table that
lives only for that call maps each pair of two distinct ids to its pair
after each Hurwitz move, so each such twist is computed once, and the one
that undoes it comes free.

Each side of the search expands a state knowing the move that first
reached it, and skips three kinds of child, each of which a smaller script
of equal length, or a shorter one, has already built: (1) a Hurwitz move
on a pair disjoint from the last move's pair that comes before it in the
alphabet, as the two commute; (2) the other Hurwitz kind at the last
move's pair, which gives the parent back; (3) the rotation after a Hurwitz
move at pair j, which rotating first and moving at j - 1 (j + 1 on the
backward side) does too, unless no such pair exists.  :func:`_state_steps`
reads these rules off the alphabet once per word length, and
:func:`search_equivalence` proves that they keep every witness.
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
    pattern compared by position (the relabeling is fixed by construction).
    Equal adjacency tuples give equal edge sets, so only patterns whose
    edges are listed in another order build the two sets."""
    fa, fb = a.fiber, b.fiber
    pa, pb = fa.pattern, fb.pattern
    return (
        fa.sphere_dim == fb.sphere_dim
        and len(pa.vertices) == len(pb.vertices)
        and (pa.above == pb.above or pa.edge_index_pairs() == pb.edge_index_pairs())
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


def _refuse_non_sphere(alf: AbstractLF, taker: str, k: int | None) -> None:
    """Raise :class:`NonInvertibleTwist` when ``k``, found by
    :func:`_non_sphere`, is the index of ``alf``'s first cycle that is no
    sphere class: name that cycle by index and label, with its square and
    the edge sign, but never the class, which can have thousands of
    entries.  ``taker`` names who refuses the word; the search and the
    ``moves`` commands call this."""
    if k is not None:
        fiber, cycle = alf.fiber, alf.cycles[k]
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


@lru_cache
def _state_steps(m: int) -> tuple:
    """What the search expands in a state of ``m`` classes, by the move that
    first reached it: entry k for the move at position k of
    :func:`_state_moves`, and the last entry, read as entry -1, for the
    start and the goal, which no move reached.  An entry is ``(forward
    shift, backward shift, steps)``: a shift of 1 rotates left, -1 right
    and 0 not at all, and the steps are the Hurwitz moves kept, in the
    alphabet's order, as ``(position in the alphabet, kind, index)``
    triples.  The three rules that drop a child (see
    :func:`search_equivalence`) are read off the records and their
    positions, so they hold for any order of the Hurwitz moves, and no
    search reads the records again."""
    alphabet = _state_moves(m)
    hurwitz = [(k, mv.kind, mv.index) for k, mv in enumerate(alphabet) if mv.kind != CYCLIC]
    every = (1, -1, tuple(hurwitz))

    def after(last: int, move: MoveRecord) -> tuple:
        if move.kind == CYCLIC:
            return every
        j = move.index
        kept = tuple(
            (k, kind, i)
            for k, kind, i in hurwitz
            # (1) a disjoint pair moved first; (2) the move that undoes this one
            if not (abs(i - j) > 1 and k < last or i == j and kind != move.kind)
        )
        # (3) the rotation, kept only where no pair lies next to the moved
        # one on the side the rotation shifts it to: pair 0 forward, m - 2
        # backward
        return int(j == 0), -int(j == m - 2), kept

    return (*[after(k, mv) for k, mv in enumerate(alphabet)], every)


def _sign_rep(cls: tuple) -> tuple:
    """``cls`` or ``-cls``, whichever has its first nonzero entry positive:
    the one representative of the class up to sign that the search keeps."""
    for v in cls:
        if v:
            return cls if v > 0 else tuple([-x for x in cls])
    return cls


def search_equivalence(a: AbstractLF, b: AbstractLF, max_depth: int):
    """Bidirectional breadth-first search for a move sequence turning a's
    word into b's, each class up to its sign.

    The alphabet is :func:`_state_moves`, cyclic permutation and both
    Hurwitz moves at every index (no stabilization) in its fixed order.  A
    witness w is a script such that ``replay(a, w)`` equals b up to the sign
    of each class, which :func:`equal_homology` does not ignore; the result
    is the shortest witness and lexicographically least among those, and
    ``()`` when the words differ only in signs.  Signs do not matter to a
    fibration: a vanishing cycle has no preferred orientation, the twist
    around -l is the twist around l, and it sends -x to minus the image of
    x, so the moves are well defined on words of classes up to sign.
    Returns a tuple of MoveRecord, or None when no witness has at most
    ``max_depth`` moves.  A None is never evidence that the fibrations differ.

    A state is a ``str`` with one character ``chr(id)`` per class, where
    the call interns the sign representative of each class it meets
    (:func:`_sign_rep`, first nonzero entry positive) as the id, so a class
    and its negative are one id.  Python stores such a string in 1, 2 or 4
    bytes a character, as its largest id needs, and caches its hash.  One
    generator yields a state's children lazily, each with the index of its
    move in the alphabet, so a loop that meets the other side stops there:
    the left rotation, then one step for each Hurwitz move of
    :func:`_state_moves`, in its order and read from :func:`_state_steps`,
    which rewrites the pair at the move's index through the call's table
    for its kind, ``{pair: pair after the move}``.  A step whose pair holds
    one id twice is skipped, with no twist and no child string: both moves
    send (x, x) to (x, T_x(x)) or (T_x^-1(x), x), and around a sphere class
    T_x(x) = (1 + <x, x>) x = ±x, as <x, x> is -2 at odd n and 0 at even n,
    so the child is the state itself, which every loop over the children
    passes over.  So the skip leaves the states stored, the meeting state
    and the witness as they were; it holds on sphere words only (2*l at odd
    n twists around itself to -14*l), hence the domain checks below come
    first.  :func:`_hurwitz_pair` fills the tables, so each twist on two
    distinct ids is computed once with :func:`dehn_twist`; as the two kinds
    undo each other, the pair it makes then maps back to the pair it came
    from in the other kind's table, so that twist is never computed.  A
    forward state links to its parent only, and :func:`_witness` finds the
    move between the two again.

    On the D_13 -> A_13 search at n = 3 (a word of 15 classes, depth 13),
    the call stores 7 057 states, and its peak under ``tracemalloc`` is
    0.72 MiB, about 107 bytes a state on 64-bit CPython 3.11, tables, links
    and frontiers included (with signed classes it stored 314 481 states in
    45 MiB); none of it outlives the call.  ``chr`` stops at ``sys.maxunicode``, so a search that would
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

    No skipped child changes the witness either.  Beside each frontier
    state rides the position in the alphabet of the move that first
    reached it, and :func:`_state_steps` gives, for that move, the children
    to build.  Order scripts by length, then lexicographically in the
    alphabet's order; each side discovers a state first through its least
    script, and a prefix of a least script is least.  A child is skipped
    only when the script through its parent is not least: (1) after a
    Hurwitz move at pair j, a Hurwitz move at a pair i with |i - j| >= 2
    that comes earlier in the alphabet commutes with it, and the script
    with the two swapped is smaller and of equal length; (2) the other
    Hurwitz kind at pair j undoes the move, so the child is the parent,
    reached by a shorter script; (3) forward, the left rotation after a
    move at pair j >= 1 is the move at j - 1 after the rotation, and
    backward, the right rotation after a move at j <= m - 3 is the move at
    j + 1 after it; the rotation comes first in the alphabet, so that
    script is smaller.  So the last two moves of a least script are never
    a skipped pair, every state is still first reached through its least
    script, by the same parent and in the same order, and ``parents``,
    ``dist``, the meeting state and the witness are as without the skips.
    Rules (1) and (2) read only the alphabet's records and positions, so
    they hold for any order of the Hurwitz moves; rule (3) needs only the
    cyclic move first.

    Two cuts return None at any depth, before any twist.  Isometries keep
    each class's square, so when b is no sphere word (:func:`_non_sphere`
    again), b is unreachable; this cut comes before anything is interned.
    Then the two words are interned and compared.  Each move sends a pair
    (x, y) to (y, x + c*y) or (y + c'*x, x), so it keeps the Z-span of the
    word's classes and hence :func:`total_homology`, which signs do not
    change; when the words have different sets of classes up to sign,
    homology certificates that differ make b unreachable too, and a class
    entry that is not an ``int`` raises :class:`FormatError` there.  On one
    fiber and one word length the certificates differ exactly when the
    Smith normal forms of the class rows do.  Such a None shows only that
    these moves do not reach b, not that the fibrations differ.  A negative ``max_depth`` raises
    :class:`IndexOutOfRange`.
    """
    if _int(max_depth) < 0:
        raise IndexOutOfRange(f"search depth {max_depth} below 0")
    if not _same_fiber(a, b):
        raise DimensionMismatch("search requires identical fibers")
    m = len(a.cycles)
    if m != len(b.cycles):
        raise DimensionMismatch("search requires words of equal length")

    both = [c.cls for c in (*a.cycles, *b.cycles)]  # the source's classes, then the target's
    distinct = dict.fromkeys(both)  # a word repeats classes; each is checked once
    fiber = a.fiber
    r = len(fiber.pattern.vertices)
    for c in distinct:
        if len(c) != r:
            raise DimensionMismatch(f"search requires classes of length {r}, the fiber's rank")
    k = _non_sphere(fiber, both, distinct)
    if k is not None:
        _refuse_non_sphere(a, "the search takes", k if k < m else None)
        return None  # every move keeps each class's square
    ids: dict = {}  # sign representative -> id
    classes: list = []  # id -> sign representative

    def intern(cls) -> int:
        cls = _sign_rep(cls)
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

    alphabet = _state_moves(m)
    table = _state_steps(m)
    tables = {HURWITZ_A: {}, HURWITZ_B: {}}  # kind -> {pair: pair after the move}
    undo = {HURWITZ_A: tables[HURWITZ_B], HURWITZ_B: tables[HURWITZ_A]}

    def children(state: str, shift: int = 1, steps=table[-1][2]):
        """The children of ``state``, one at a time, in alphabet order, each
        after the index of its move in ``alphabet``: the rotation by
        ``shift``, none when it is 0, then ``steps``, by default every child
        of a forward state.  A Hurwitz move on a pair of one id fixes the
        state, so it is skipped.  A pair's first move of one kind also
        fills the other kind's entry for the pair it makes, which that kind
        sends back."""
        if shift:
            yield 0, state[shift:] + state[:shift]
        for k, kind, i in steps:
            if state[i] == state[i + 1]:
                continue  # T_x(x) = (1 + <x, x>) x = ±x
            pair = state[i : i + 2]
            table = tables[kind]
            after = table.get(pair)
            if after is None:
                x, y = _hurwitz_pair(kind, ord(pair[0]), ord(pair[1]), twist)
                after = table[pair] = chr(x) + chr(y)
                undo[kind][after] = pair
            yield k, state[:i] + after + state[i + 2 :]

    chars = {c: chr(intern(c)) for c in distinct}  # each class once
    both = "".join([chars[c] for c in both])
    start, goal = both[:m], both[m:]
    if start == goal:
        return ()  # equal up to signs
    # the sets of classes up to sign; only when they differ can the
    # certificates differ
    if set(start) != set(goal) and total_homology(a) != total_homology(b):
        return None  # every move keeps the total space's homology
    parents: dict = {start: None}  # forward state -> its parent on its least path
    dist = {goal: 0}  # backward state -> moves from it to the goal
    forward, backward = [start], [goal]
    # beside each frontier state, the position in the alphabet of the move
    # that first reached it; the table's last entry, -1, stands for the
    # start and the goal
    reached_f, reached_b = [-1], [-1]
    depth_f = depth_b = 0
    while depth_f + depth_b < max_depth and forward and backward:
        # the step that spends the budget grows a layer no step expands
        probe = depth_f + depth_b + 1 == max_depth
        if len(forward) < len(backward):
            # discovery order is the order of least paths, so the first
            # child that meets the backward side starts the least witness
            layer, moved = [], []
            for state, last in zip(forward, reached_f):
                shift, _, steps = table[last]
                for k, child in children(state, shift, steps):
                    if child in parents:
                        continue
                    if child in dist:
                        parents[child] = state
                        return _witness(child, parents, dist, alphabet, children)
                    if not probe:
                        parents[child] = state
                        layer.append(child)
                        moved.append(k)
            forward, reached_f = layer, moved
            depth_f += 1
        else:
            layer, moved = [], []
            for state, last in zip(backward, reached_b):
                # the rotation by shift -1 is the right one, the inverse of
                # the left; a Hurwitz move's inverse is the other kind
                _, shift, steps = table[last]
                for k, pred in children(state, shift, steps):
                    # a probe keeps only the forward states it meets
                    if (pred not in parents) if probe else (pred in dist):
                        continue
                    dist[pred] = depth_b + 1
                    layer.append(pred)
                    moved.append(k)
            backward, reached_b = layer, moved
            depth_b += 1
            for state in forward:
                if state in dist:
                    return _witness(state, parents, dist, alphabet, children)
    return None


def _witness(state, parents, dist, alphabet, children) -> tuple:
    """The witness through ``state``, where the two sides meet: the least
    path from the start to ``state``, read back through ``parents``, each
    move the first of the parent's children, in the order ``children``
    yields them with their move indices, that is the state (a smaller one
    would have reached it first), then the least shortest descent to the
    goal, at each step the first child that is one step closer.  Both walk
    every child, skipped or not.

    A state is in both ``parents`` and ``dist`` only where the sides meet:
    had an older forward state entered ``dist``, its forward child on that
    backward path would have met first."""
    seq = []
    at = state
    while parents[at] is not None:
        parent = parents[at]
        for k, child in children(parent):
            if child == at:
                break
        seq.append(alphabet[k])
        at = parent
    seq.reverse()
    for d in range(dist[state] - 1, -1, -1):
        for k, child in children(state):
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
