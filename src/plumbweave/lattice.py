"""The middle homology lattice of a plumbing fiber.

The fiber of every fibration produced here is a plumbing of sphere cotangent
bundles along a tree pattern, so its middle homology is free on one class
``L_w`` per pattern vertex.  This module carries:

* the fiber itself, :class:`PlumbingDescriptor` (pattern and sphere
  dimension), which is also its (anti)symmetric intersection pairing on
  that lattice: symmetric with diagonal -2 when the spheres are even
  dimensional, antisymmetric with zero diagonal when odd, off-diagonal
  ``±1`` exactly on pattern edges.  The pattern's index adjacency and the
  parity of the sphere dimension fix every entry, so no form is stored;
* the homological twist action ``x -> x + <x, l> * l`` of a Dehn twist
  around a sphere with class ``l``, including exact integer inverses, which
  reads the support of ``l`` once and runs each pairing and update over it,
  and the rule for which classes' twists are integer isometries;
* exact Smith normal form over the integers, the workhorse behind all
  homology computations: one sparse elimination loop whose pivots are
  entries of least magnitude, so the ±1 entries go first and any other
  pivot is reduced by remainders until it divides its row and column.
  It reads each distinct row object once, so a word whose cycles share
  their class tuples (as ``fibrate`` builds them) costs one scan per
  distinct class, not one per cycle.

The vanishing cycles are Lagrangian spheres, so by Picard–Lefschetz a
sphere class has square -2 and each twist, of sign +1, is a reflection or
a transvection.  The edge sign is +1 as well, and is no choice: a tree is
bipartite, so negating the classes at odd distance from one vertex,
D = diag((-1)^depth), keeps every square and negates every edge entry.  The
form under edge sign -1 is D B D for the pairing B here, so its twists,
words and witnesses are the ones here conjugated by D.

A cycle class is a plain tuple of ints in the fiber's basis order, the
order of its pattern's vertices.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import TYPE_CHECKING

from .errors import (
    BadDimension,
    DimensionMismatch,
    FormatError,
    NonInvertibleTwist,
)

if TYPE_CHECKING:
    from .treecore import UnrootedTree

__all__ = [
    "PlumbingDescriptor",
    "pattern_form",
    "dehn_twist",
    "SmithResult",
    "smith_normal_form",
]


def _int(value) -> int:
    """``value`` itself when it is a JSON integer; a float, a string, a
    boolean (which Python counts as an int) or an int with more decimal
    digits than the interpreter will write raises :class:`FormatError`."""
    if isinstance(value, int) and not isinstance(value, bool):
        # 2000 bits is at most 603 digits, under the smallest limit (640)
        # that ``sys.set_int_max_str_digits`` accepts
        if value.bit_length() <= 2000:
            return value
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit or abs(value) < 10**limit:
            return value
        raise FormatError(f"integer of more than {limit} decimal digits")
    raise FormatError(f"expected an integer, got {value!r}")


SELF_INTERSECTION = -2  # a sphere class's square, fixed by the geometry
EDGE_SIGN = 1  # entry (i, j), i < j, of a pattern edge; -1 is a change of basis
TWIST_SIGN = 1  # the sign of the twist x -> x + <x, l> l, fixed by the geometry

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

# (diagonal, lower) of the pairing, by sphere_dim % 2: the entry (i, i) and
# the entry (j, i), i < j, of a pattern edge, whose entry (i, j) is EDGE_SIGN
_ENTRIES = ((SELF_INTERSECTION, EDGE_SIGN), (0, -EDGE_SIGN))


@dataclass(frozen=True)
class PlumbingDescriptor:
    """A plumbing of ``sphere_dim``-sphere cotangent bundles along a tree
    pattern: the fiber of a fibration, and its intersection pairing on the
    lattice with one basis class per pattern vertex, in pattern order.

    The pairing is read from the two fields alone: the pattern's own index
    adjacency (``above[i]`` and ``below[i]`` are the basis positions of the
    neighbours after and before i) and ``sphere_dim % 2``.  Symmetric, with
    diagonal -2, iff ``sphere_dim`` is even.  For an edge whose endpoints
    are the i-th and j-th basis vertices with i < j, entry (i, j) is
    ``EDGE_SIGN``, +1, and (j, i) is ±1 by parity; edge sign -1 is this
    form in another basis (see the module docstring).  Every other entry is
    zero, so nothing is built, whatever the size of the pattern.

    ``sphere_dim`` passes :func:`_int` and is at least 1; its ``n``,
    ``sphere_dim + 1``, which the fibration JSON writes, passes
    :func:`_int` too.
    """

    pattern: UnrootedTree
    sphere_dim: int

    def __post_init__(self):
        if _int(self.sphere_dim) < 1:
            raise BadDimension(f"sphere dimension {self.sphere_dim} below 1")
        _int(self.sphere_dim + 1)

    @property
    def parity(self) -> str:
        """``"symmetric"`` or ``"antisymmetric"``, by ``sphere_dim % 2``."""
        return ANTISYMMETRIC if self.sphere_dim % 2 else SYMMETRIC

    def pair(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """Evaluate <x, y> = x^T B y: check both lengths, then run the one
        pairing loop, :meth:`_pair_on`, over the support of x, read once."""
        r = len(self.pattern.vertices)
        if len(x) != r or len(y) != r:
            raise DimensionMismatch(f"vectors of length {len(x)}, {len(y)} against rank {r}")
        return self._pair_on(compress(range(r), x), x, y)

    def _pair_on(self, support, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """<x, y> over ``support``, x's nonzero positions; lengths unchecked."""
        diag, lower = _ENTRIES[self.sphere_dim % 2]
        above, below = self.pattern.above, self.pattern.below
        total = 0
        for i in support:
            row = diag * y[i]
            for j in above[i]:
                row += y[j]
            for j in below[i]:
                row += lower * y[j]
            total += x[i] * row
        return total


def pattern_form(pattern: UnrootedTree, sphere_dim: int) -> PlumbingDescriptor:
    """``PlumbingDescriptor(pattern, sphere_dim)``, which is its own
    intersection form.  Nothing in the package calls it; it stays a name
    for the benchmark's traced layers (``bench/spans.py``)."""
    return PlumbingDescriptor(pattern, sphere_dim)


def dehn_twist(
    fiber: PlumbingDescriptor, l: tuple[int, ...], x: tuple[int, ...], power: int = 1
) -> tuple[int, ...]:
    """Apply the homological twist around ``l`` to ``x``, ``power`` times.

    One application sends x to x + <x,l>*l, changing x only where l is
    nonzero.  Negative powers invert; the inverse is again of twist shape
    with coefficient -1 - <l,l>, an integer automorphism exactly when <l,l>
    is 0 or -2 (transvection resp. reflection): always for a sphere class,
    not for a hand-built class such as 2*l.  l's support is read once and
    serves <l,l>, each <x,l> (as ±<l,x>) and each update of x.
    """
    r = len(fiber.pattern.vertices)
    if len(l) != r or len(x) != r:
        raise DimensionMismatch(
            f"twist on vectors of length {len(l)}, {len(x)} against rank {r}"
        )
    power = _int(power)
    support = list(compress(range(r), l))
    if power >= 0:
        coeff, reps = TWIST_SIGN, power
    else:
        s = fiber._pair_on(support, l, l)
        if s not in (0, SELF_INTERSECTION):
            raise NonInvertibleTwist(f"twist around a class of square {s} has no integer inverse")
        coeff, reps = -TWIST_SIGN - s, -power
    if fiber.sphere_dim % 2:
        coeff = -coeff  # antisymmetric: <x, l> = -<l, x>
    for _ in range(reps):
        c = fiber._pair_on(support, l, x)
        if c:
            k = coeff * c
            out = list(x)
            for i in support:
                out[i] += k * l[i]
            x = tuple(out)
    return x


def _isometric_centre(fiber: PlumbingDescriptor, cls) -> bool:
    """Whether the twist around ``cls``, of the fiber's rank, is an integer
    isometry of the fiber's pairing: every class when ``sphere_dim`` is odd
    (antisymmetric), else a class of square -2, one of the two squares for
    which :func:`dehn_twist` inverts.  The witness search takes source
    words of such classes.

    On a symmetric pairing a class in the radical is no centre, though its
    twist is the identity: the rule is conservative there."""
    if fiber.sphere_dim % 2:
        return True
    return fiber.pair(cls, cls) == SELF_INTERSECTION


@dataclass(frozen=True)
class SmithResult:
    """Elementary divisors and the derived ranks of an integer matrix."""

    divisors: tuple[int, ...]
    rank: int
    kernel_rank: int
    cokernel: tuple[int, tuple[int, ...]]  # (free rank, torsion orders)


def smith_normal_form(mat) -> SmithResult:
    """Exact Smith normal form of an integer matrix: rows of equal length
    whose nonzero entries are ``int`` (not ``bool``), else FormatError.

    Returns the nonzero elementary divisors d_1 | d_2 | ..., the rank, the
    kernel rank of the matrix as a map on column vectors, and the cokernel
    as (free rank, torsion orders).  Arithmetic is exact for any magnitude.

    A row that is the same object as an earlier row is read once: one row
    operation would make the repeat a zero row, so it is loaded as one and
    still counts in the number of rows.  Its length is still checked, and
    its entries were type-checked when the first copy was read.  Rows equal
    only in value are each read, since an equal row may hold a ``bool`` or
    ``float`` that the type check must refuse.

    One elimination loop on the matrix held as sparse columns.  Each step
    takes as pivot an entry u of least magnitude, and among those one of
    least Markowitz cost (column support - 1) * (row support - 1), so the
    ±1 entries go first.  Column operations reduce the rest of its row
    modulo u; once the row is clear, row operations reduce its column
    modulo u without touching anything else.  When the column is clear
    too, the pivot row and column drop out with |u| as a diagonal entry;
    otherwise a remainder smaller than |u| is left, and the next pivot is
    no larger than it.  A gcd/lcm pass over the diagonal entries other
    than 1 (for a thimble boundary matrix usually none) turns them into
    the divisor chain, which follows the leading 1s.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    cols: dict[int, dict[int, int]] = {}  # column -> {row: nonzero entry}
    row_cols: dict[int, set[int]] = {}  # row -> columns with a nonzero in it
    read: dict[int, object] = {}  # id -> row read; holding the row keeps its id unique
    for i, row in enumerate(mat):
        if len(row) != ncols:
            raise DimensionMismatch("ragged matrix")
        if id(row) in read:
            continue  # a row already read: one row operation would zero this repeat
        read[id(row)] = row
        support = row_cols[i] = set()
        for j in compress(range(ncols), row):
            v = row[j]
            if not isinstance(v, int) or isinstance(v, bool):
                raise FormatError(f"entry ({i}, {j}) is not an integer: {v!r}")
            cols.setdefault(j, {})[i] = v
            support.add(j)

    diagonal: list[int] = []  # |pivot| of each pivot dropped with its row and column
    while (piv := _pivot(cols, row_cols)) is not None:
        p, c = piv
        pcol = cols[c]
        u = pcol.pop(p)
        prow = row_cols[p]
        prow.discard(c)
        for j in tuple(prow):
            col = cols[j]
            q, rem = divmod(col.pop(p), u)
            if rem:
                col[p] = rem
            else:
                prow.discard(j)
            for i, v in pcol.items():
                w = col.get(i, 0) - q * v
                if w:
                    col[i] = w
                    row_cols[i].add(j)
                else:
                    del col[i]
                    row_cols[i].discard(j)
            if not col:
                del cols[j]
        if not prow:
            if u == 1 or u == -1 or all(v % u == 0 for v in pcol.values()):
                # row operations would clear the column and change nothing else
                del cols[c], row_cols[p]
                for i in pcol:
                    row_cols[i].discard(c)
                diagonal.append(abs(u))
                continue
            for i, v in tuple(pcol.items()):  # row operations leave it modulo u
                if w := v % u:
                    pcol[i] = w
                else:
                    del pcol[i]
                    row_cols[i].discard(c)
        # a remainder smaller than |u| is left in its row or column, so the next pivot is smaller
        pcol[p] = u
        prow.add(c)

    chain = [d for d in diagonal if d != 1]
    for k, d in enumerate(chain):  # d becomes the gcd, each later entry the lcm
        for t in range(k + 1, len(chain)):
            g = gcd(d, chain[t])
            d, chain[t] = g, d // g * chain[t]
        chain[k] = d
    divisors = (1,) * (len(diagonal) - len(chain)) + tuple(chain)
    rank = len(divisors)
    return SmithResult(
        divisors=divisors,
        rank=rank,
        kernel_rank=ncols - rank,
        cokernel=(nrows - rank, tuple(d for d in chain if d != 1)),
    )


def _pivot(cols, row_cols):
    """(row, column) of an entry of least magnitude and, among those, of
    least Markowitz cost; None when no entry is left."""
    best = None
    least = cheapest = 0
    for j, col in cols.items():
        width = len(col) - 1
        for i, v in col.items():
            size = v if v > 0 else -v
            if best is None or size <= least:
                cost = width * (len(row_cols[i]) - 1)
                if best is None or size < least or cost < cheapest:
                    if cost == 0 and size == 1:
                        return i, j
                    best, least, cheapest = (i, j), size, cost
    return best
