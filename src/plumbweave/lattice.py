"""The middle homology lattice of a plumbing fiber.

The fiber of every fibration produced here is a plumbing of sphere cotangent
bundles along a tree pattern, so its middle homology is free on one class
``L_w`` per pattern vertex.  This module carries:

* the (anti)symmetric intersection pairing on that lattice — symmetric with
  diagonal ``s`` (default -2) when the spheres are even dimensional,
  antisymmetric with zero diagonal when odd, off-diagonal ``±1`` exactly on
  pattern edges, stored as the tree gives it (the pattern's index adjacency
  plus the diagonal, upper and lower entries) and built by
  :func:`pattern_form` alone;
* the homological twist action ``x -> x + eps * <x, l> * l`` of a Dehn twist
  around a sphere with class ``l``, including exact integer inverses, which
  touches only the coordinates where ``l`` is nonzero;
* exact Smith normal form over the integers, the workhorse behind all
  homology computations: one sparse elimination loop whose pivots are
  entries of least magnitude, so the ±1 entries go first and any other
  pivot is reduced by remainders until it divides its row and column.
  It reads each distinct row object once, so a word whose cycles share
  their class tuples (as ``fibrate`` builds them) costs one scan per
  distinct class, not one per cycle.

Signs are not canonical; they live in a :class:`Convention` record that each
report embeds.  With the defaults (``s=-2, eps=+1``) the twist around a class
of square -2 is an involution, which is what the plumbing moves rely on.

A cycle class is a plain tuple of ints in the basis order of its form.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import compress
from math import gcd

from .errors import (
    BadDimension,
    DimensionMismatch,
    FormatError,
    NonInvertibleTwist,
)
from .treecore import UnrootedTree

__all__ = [
    "Convention",
    "DEFAULT_CONVENTION",
    "IntersectionForm",
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


def _check_sphere_dim(sphere_dim) -> None:
    """A fiber's sphere dimension: :func:`_int`, then at least 1; its ``n``,
    ``sphere_dim + 1``, which the fibration JSON writes, passes :func:`_int`
    too."""
    if _int(sphere_dim) < 1:
        raise BadDimension(f"sphere dimension {sphere_dim} below 1")
    _int(sphere_dim + 1)


@dataclass(frozen=True)
class Convention:
    """Sign choices: sphere self-intersection, edge sign, and twist sign."""

    self_intersection: int = -2
    edge_sign: int = 1
    twist_sign: int = 1

    def __post_init__(self):
        _int(self.self_intersection)
        if _int(self.edge_sign) not in (1, -1) or _int(self.twist_sign) not in (1, -1):
            raise FormatError("edge_sign and twist_sign must be +1 or -1")


DEFAULT_CONVENTION = Convention()

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True)
class IntersectionForm:
    """Intersection pairing on the fiber lattice, basis = pattern vertices.

    Stored as the tree gives it: the pattern's own index adjacency
    (``above[i]`` and ``below[i]`` are the basis positions of the
    neighbours after and before i, shared with the pattern, not copied)
    and three scalars: the ``diagonal`` entry, the ``upper`` entry (i, j)
    and the ``lower`` entry (j, i) of an edge with i < j.  Every other
    entry of the matrix is zero.
    """

    basis: tuple[str, ...]
    above: tuple[tuple[int, ...], ...]
    below: tuple[tuple[int, ...], ...]
    diagonal: int
    upper: int
    lower: int
    parity: str
    convention: Convention

    def pair(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """Evaluate <x, y> = x^T B y over the nonzero coordinates of x."""
        r = len(self.basis)
        if len(x) != r or len(y) != r:
            raise DimensionMismatch(f"vectors of length {len(x)}, {len(y)} against rank {r}")
        diag, upper, lower = self.diagonal, self.upper, self.lower
        above, below = self.above, self.below
        total = 0
        for i in compress(range(r), x):
            row = diag * y[i]
            for j in above[i]:
                row += upper * y[j]
            for j in below[i]:
                row += lower * y[j]
            total += x[i] * row
        return total


def pattern_form(
    pattern: UnrootedTree, sphere_dim: int, convention: Convention = DEFAULT_CONVENTION
) -> IntersectionForm:
    """Intersection form of a plumbing of ``sphere_dim``-spheres along a tree.

    Symmetric iff ``sphere_dim`` is even.  For an edge whose endpoints are
    the i-th and j-th basis vertices with i < j, entry (i, j) gets
    ``edge_sign`` and (j, i) gets ``±edge_sign`` by parity.  The form reads
    the adjacency the pattern stored when it was validated, so building
    one does not depend on the size of the pattern.
    """
    _check_sphere_dim(sphere_dim)
    symmetric = sphere_dim % 2 == 0
    upper = convention.edge_sign
    return IntersectionForm(
        basis=pattern.vertices,
        above=pattern.above,
        below=pattern.below,
        diagonal=convention.self_intersection if symmetric else 0,
        upper=upper,
        lower=upper if symmetric else -upper,
        parity=SYMMETRIC if symmetric else ANTISYMMETRIC,
        convention=convention,
    )


def dehn_twist(
    form: IntersectionForm, l: tuple[int, ...], x: tuple[int, ...], power: int = 1
) -> tuple[int, ...]:
    """Apply the homological twist around ``l`` to ``x``, ``power`` times.

    One application sends x to x + eps*<x,l>*l with eps the convention's
    twist sign, changing x only where l is nonzero.  Negative powers
    invert; the inverse is again of twist shape with coefficient
    -eps - <l,l>, which is an integer automorphism exactly when eps*<l,l>
    is 0 or -2 (transvection resp. reflection).
    """
    r = len(form.basis)
    if len(l) != r or len(x) != r:
        raise DimensionMismatch(
            f"twist on vectors of length {len(l)}, {len(x)} against rank {r}"
        )
    eps = form.convention.twist_sign
    if _int(power) >= 0:
        coeff, reps = eps, power
    else:
        s = form.pair(l, l)
        if eps * s not in (0, -2):
            raise NonInvertibleTwist(
                f"twist with eps={eps} around a class of square {s} has no integer inverse"
            )
        coeff, reps = -eps - s, -power
    for _ in range(reps):
        c = form.pair(x, l)
        if c:
            k = coeff * c
            out = list(x)
            for i in compress(range(r), l):
                out[i] += k * l[i]
            x = tuple(out)
    return x


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
