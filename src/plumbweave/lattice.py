"""The middle homology lattice of a plumbing fiber.

The fiber of every fibration produced here is a plumbing of sphere cotangent
bundles along a tree pattern, so its middle homology is free on one class
``L_w`` per pattern vertex.  This module carries:

* the (anti)symmetric intersection pairing on that lattice — symmetric with
  diagonal ``s`` (default -2) when the spheres are even dimensional,
  antisymmetric with zero diagonal when odd, off-diagonal ``±1`` exactly on
  pattern edges, stored as the tree gives it (the diagonal value plus each
  vertex's edge entries) and built by :func:`pattern_form` alone;
* the homological twist action ``x -> x + eps * <x, l> * l`` of a Dehn twist
  around a sphere with class ``l``, including exact integer inverses;
* exact Smith normal form over the integers, the workhorse behind all
  homology computations: sparse elimination of ±1 pivots first, then the
  dense Smith routine on whatever block is left.

Signs are not canonical; they live in a :class:`Convention` record that each
report embeds.  With the defaults (``s=-2, eps=+1``) the twist around a class
of square -2 is an involution, which is what the plumbing moves rely on.

A cycle class is a plain tuple of ints in the basis order of its form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

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

CycleClass = tuple  # integer coordinate vector in the basis of a form


@dataclass(frozen=True)
class Convention:
    """Sign choices: sphere self-intersection, edge sign, and twist sign."""

    self_intersection: int = -2
    edge_sign: int = 1
    twist_sign: int = 1

    def __post_init__(self):
        if self.edge_sign not in (1, -1) or self.twist_sign not in (1, -1):
            raise FormatError("edge_sign and twist_sign must be +1 or -1")

    def as_dict(self) -> dict:
        return {
            "self_intersection": self.self_intersection,
            "edge_sign": self.edge_sign,
            "twist_sign": self.twist_sign,
        }


DEFAULT_CONVENTION = Convention()

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"


@dataclass(frozen=True)
class IntersectionForm:
    """Intersection pairing on the fiber lattice, basis = pattern vertices.

    Stored as the tree gives it: one ``diagonal`` value, and for each basis
    vertex the ``(neighbour index, entry)`` pairs of its pattern edges.
    Every other entry of the matrix is zero.
    """

    basis: tuple[str, ...]
    diagonal: int
    neighbours: tuple[tuple[tuple[int, int], ...], ...]
    parity: str
    convention: Convention

    def pair(self, x: CycleClass, y: CycleClass) -> int:
        """Evaluate <x, y> = x^T B y over the nonzero coordinates of x."""
        r = len(self.basis)
        if len(x) != r or len(y) != r:
            raise DimensionMismatch(f"vectors of length {len(x)}, {len(y)} against rank {r}")
        diag, neighbours = self.diagonal, self.neighbours
        total = 0
        for i in compress(range(r), x):
            row = diag * y[i]
            for j, entry in neighbours[i]:
                row += entry * y[j]
            total += x[i] * row
        return total


def pattern_form(
    pattern: UnrootedTree, sphere_dim: int, convention: Convention = DEFAULT_CONVENTION
) -> IntersectionForm:
    """Intersection form of a plumbing of ``sphere_dim``-spheres along a tree.

    Symmetric iff ``sphere_dim`` is even.  For an edge whose endpoints are
    the i-th and j-th basis vertices with i < j, entry (i, j) gets
    ``edge_sign`` and (j, i) gets ``±edge_sign`` by parity.
    """
    if sphere_dim < 1:
        raise BadDimension(f"sphere dimension {sphere_dim} below 1")
    parity = SYMMETRIC if sphere_dim % 2 == 0 else ANTISYMMETRIC
    upper = convention.edge_sign
    lower = upper if parity == SYMMETRIC else -upper
    pos = {v: i for i, v in enumerate(pattern.vertices)}
    neighbours: list[list[tuple[int, int]]] = [[] for _ in pattern.vertices]
    for a, b in pattern.edges:
        i, j = pos[a], pos[b]
        if i > j:
            i, j = j, i
        neighbours[i].append((j, upper))
        neighbours[j].append((i, lower))
    return IntersectionForm(
        basis=pattern.vertices,
        diagonal=convention.self_intersection if parity == SYMMETRIC else 0,
        neighbours=tuple(map(tuple, neighbours)),
        parity=parity,
        convention=convention,
    )


def dehn_twist(
    form: IntersectionForm, l: CycleClass, x: CycleClass, power: int = 1
) -> CycleClass:
    """Apply the homological twist around ``l`` to ``x``, ``power`` times.

    One application sends x to x + eps*<x,l>*l with eps the convention's
    twist sign.  Negative powers invert; the inverse is again of twist shape
    with coefficient -eps - <l,l>, which is an integer automorphism exactly
    when eps*<l,l> is 0 or -2 (transvection resp. reflection).
    """
    r = len(form.basis)
    if len(l) != r or len(x) != r:
        raise DimensionMismatch(
            f"twist on vectors of length {len(l)}, {len(x)} against rank {r}"
        )
    eps = form.convention.twist_sign
    if power >= 0:
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
            x = tuple(xi + coeff * c * li for xi, li in zip(x, l))
    return x


@dataclass(frozen=True)
class SmithResult:
    """Elementary divisors and the derived ranks of an integer matrix."""

    divisors: tuple[int, ...]
    rank: int
    kernel_rank: int
    cokernel: tuple[int, tuple[int, ...]]  # (free rank, torsion orders)


def smith_normal_form(mat) -> SmithResult:
    """Exact Smith normal form of an integer matrix (rows of equal length).

    Returns the nonzero elementary divisors d_1 | d_2 | ..., the rank, the
    kernel rank of the matrix as a map on column vectors, and the cokernel
    as (free rank, torsion orders).  Arithmetic is exact for any magnitude.

    Works in two steps.  Unit elimination holds the matrix as sparse
    columns and repeatedly takes a ±1 entry of least Markowitz cost
    (column support - 1) * (row support - 1) as pivot: column operations
    clear the rest of its row, after which row operations would clear its
    column without touching anything else, so the pivot row and column are
    dropped and contribute a divisor 1.  What is left, usually nothing for
    a thimble boundary matrix, goes to the dense Smith routine, whose
    divisors follow the leading 1s.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    cols: dict[int, dict[int, int]] = {}  # column -> {row: nonzero entry}
    row_cols: dict[int, set[int]] = {}  # row -> columns with a nonzero in it
    for i, row in enumerate(mat):
        if len(row) != ncols:
            raise DimensionMismatch("ragged matrix")
        support = row_cols[i] = set()
        for j in compress(range(ncols), row):
            v = int(row[j])
            if v:
                cols.setdefault(j, {})[i] = v
                support.add(j)

    units = 0
    while (piv := _unit_pivot(cols, row_cols)) is not None:
        p, c = piv
        pcol = cols.pop(c)
        u = pcol.pop(p)
        for i in pcol:
            row_cols[i].discard(c)
        for j in row_cols.pop(p) - {c}:
            col = cols[j]
            f = col.pop(p) * u  # u is its own inverse
            for i, v in pcol.items():
                w = col.get(i, 0) - f * v
                if w:
                    col[i] = w
                    row_cols[i].add(j)
                else:
                    del col[i]
                    row_cols[i].discard(j)
            if not col:
                del cols[j]
        units += 1

    rows = sorted(i for i, support in row_cols.items() if support)
    kept = sorted(cols)
    rest = _dense_smith([[cols[j].get(i, 0) for j in kept] for i in rows])
    divisors = (1,) * units + rest.divisors
    rank = len(divisors)
    return SmithResult(
        divisors=divisors,
        rank=rank,
        kernel_rank=ncols - rank,
        cokernel=(nrows - rank, rest.cokernel[1]),
    )


def _unit_pivot(cols, row_cols):
    """(row, column) of a ±1 entry of least Markowitz cost, or None."""
    best = None
    for j, col in cols.items():
        width = len(col) - 1
        for i, v in col.items():
            if v == 1 or v == -1:
                cost = width * (len(row_cols[i]) - 1)
                if best is None or cost < best[0]:
                    if cost == 0:
                        return i, j
                    best = (cost, i, j)
    return None if best is None else best[1:]


def _dense_smith(mat) -> SmithResult:
    """Dense Smith normal form: the residual step of :func:`smith_normal_form`.

    Pivots on an entry of least magnitude and folds rows in until the pivot
    divides the whole trailing block; cubic in the matrix size.
    """
    a = [list(map(int, row)) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    for row in a:
        if len(row) != ncols:
            raise DimensionMismatch("ragged matrix")

    divisors: list[int] = []
    t = 0
    while t < min(nrows, ncols):
        piv = _pick_pivot(a, t, nrows, ncols)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for r in range(nrows):
                a[r][t], a[r][j0] = a[r][j0], a[r][t]
        while True:
            _clear_pivot(a, t, nrows, ncols)
            d = a[t][t]
            bad = _non_divisible_row(a, t, d, nrows, ncols)
            if bad is None:
                break
            for j in range(t, ncols):  # fold the bad row in; re-clearing gcd-reduces
                a[t][j] += a[bad][j]
        divisors.append(abs(a[t][t]))
        t += 1

    rank = len(divisors)
    torsion = tuple(d for d in divisors if d != 1)
    return SmithResult(
        divisors=tuple(divisors),
        rank=rank,
        kernel_rank=ncols - rank,
        cokernel=(nrows - rank, torsion),
    )


def _pick_pivot(a, t, nrows, ncols):
    """Nonzero entry of smallest magnitude in the trailing submatrix."""
    piv = None
    best = None
    for i in range(t, nrows):
        row = a[i]
        for j in range(t, ncols):
            v = row[j]
            if v and (best is None or abs(v) < best):
                best = abs(v)
                piv = (i, j)
                if best == 1:
                    return piv
    return piv


def _clear_pivot(a, t, nrows, ncols):
    """Zero out column t below and row t right of the pivot at (t, t)."""
    while True:
        for i in range(t + 1, nrows):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                if q:
                    for j in range(t, ncols):
                        a[i][j] -= q * a[t][j]
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                break
        else:
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, nrows):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(nrows):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                    break
            else:
                return


def _non_divisible_row(a, t, d, nrows, ncols):
    for i in range(t + 1, nrows):
        row = a[i]
        for j in range(t + 1, ncols):
            if row[j] % d:
                return i
    return None
