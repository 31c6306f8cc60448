import random
import re
import time
from dataclasses import fields
from itertools import combinations, compress, product
from math import gcd, prod
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from plumbweave import (
    dehn_twist,
    quotient,
    smith_normal_form,
)
from plumbweave.errors import BadDimension, DimensionMismatch, FormatError, NonInvertibleTwist
from plumbweave.fibration import fiber_form
from plumbweave.lattice import PlumbingDescriptor, SmithResult, _isometric_centre, pattern_form
from plumbweave.treecore import UnrootedTree

A2_PATTERN = UnrootedTree(("alpha", "beta"), (("alpha", "beta"),))


def a2_form(n):
    return PlumbingDescriptor(A2_PATTERN, n - 1)


ALPHA = (1, 0)
BETA = (0, 1)


def unit(r, i):
    return tuple(int(j == i) for j in range(r))


def matrix(form):
    """The form's Gram matrix, read through ``pair`` on basis vectors."""
    r = len(form.pattern.vertices)
    return tuple(tuple(form.pair(unit(r, i), unit(r, j)) for j in range(r)) for i in range(r))


# ---------------------------------------------------------------------------
# intersection forms


def test_form_a2_symmetric():
    form = a2_form(3)
    assert form.parity == "symmetric"
    assert matrix(form) == ((-2, 1), (1, -2))


def test_form_a2_antisymmetric():
    form = a2_form(4)
    assert form.parity == "antisymmetric"
    assert matrix(form) == ((0, 1), (-1, 0))


def test_form_single_vertex_antisymmetric():
    form = PlumbingDescriptor(UnrootedTree(("w0",), ()), 3)
    assert matrix(form) == ((0,),)


def test_form_from_quotient(ex_ordered):
    qd = quotient(ex_ordered)
    form = PlumbingDescriptor(qd.quotient_tree, 2)
    assert form.pattern.vertices == ("w0", "w1", "w2", "w3")
    # star: center w0 pairs with every leaf, leaves do not pair
    assert matrix(form)[0] == (-2, 1, 1, 1)
    assert matrix(form)[1] == (1, -2, 0, 0)
    assert matrix(form)[2][3] == 0


def test_form_rejects_small_n(ex_ordered):
    with pytest.raises(BadDimension):
        PlumbingDescriptor(quotient(ex_ordered).quotient_tree, 0)


def test_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        a2_form(3).pair(ALPHA, (1, 0, 0))
    with pytest.raises(DimensionMismatch):
        a2_form(3).pair((0, 0, 1), BETA)


def dense_pattern_matrix(pattern, sphere_dim):
    """Dense r x r Gram matrix of a tree plumbing: the reference for the
    tree-sparse form (diagonal -2 or 0 by parity; entry (i, j), i < j, on
    an edge gets 1, entry (j, i) 1 or -1 by parity)."""
    symmetric = sphere_dim % 2 == 0
    r = len(pattern.vertices)
    diag = -2 if symmetric else 0
    mat = [[diag if i == j else 0 for j in range(r)] for i in range(r)]
    pos = {v: i for i, v in enumerate(pattern.vertices)}
    for a, b in pattern.edges:
        i, j = sorted((pos[a], pos[b]))
        mat[i][j] = 1
        mat[j][i] = 1 if symmetric else -1
    return tuple(tuple(row) for row in mat)


@st.composite
def tree_patterns(draw):
    """A random tree on 1..12 vertices, with shuffled vertex order, edge
    order and edge orientation, so basis positions do not follow the tree."""
    r = draw(st.integers(1, 12))
    names = draw(st.permutations([f"w{i}" for i in range(r)]))
    edges = []
    for k in range(1, r):
        edge = (names[k], names[draw(st.integers(0, k - 1))])
        edges.append(edge if draw(st.booleans()) else edge[::-1])
    return UnrootedTree(tuple(names), tuple(draw(st.permutations(edges))))


@given(st.data(), tree_patterns(), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_pair_matches_dense_matrix(data, pattern, sphere_dim):
    form = PlumbingDescriptor(pattern, sphere_dim)
    mat = dense_pattern_matrix(pattern, sphere_dim)
    assert form.parity == ("symmetric" if sphere_dim % 2 == 0 else "antisymmetric")
    assert matrix(form) == mat
    r = len(pattern.vertices)
    vec = st.tuples(*(st.integers(-9, 9) | st.just(0) for _ in range(r)))
    x, y = data.draw(vec), data.draw(vec)
    assert form.pair(x, y) == sum(
        x[i] * mat[i][j] * y[j] for i in range(r) for j in range(r)
    )


# ---------------------------------------------------------------------------
# twists: frozen examples from the reflection/transvection arithmetic


def test_twist_reflects_own_class():
    form = a2_form(3)
    assert dehn_twist(form, ALPHA, ALPHA) == (-1, 0)


def test_twist_squares_to_identity_symmetric():
    form = a2_form(3)
    assert dehn_twist(form, ALPHA, BETA, 2) == BETA
    assert dehn_twist(form, ALPHA, BETA) == (1, 1)


def test_twist_transvects_antisymmetric():
    form = a2_form(4)
    assert dehn_twist(form, ALPHA, BETA, 4) == (-4, 1)


def test_twist_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dehn_twist(a2_form(3), ALPHA, (1, 0, 0))


@pytest.mark.parametrize("power", [1.5, "1", True])
def test_twist_refuses_a_power_that_is_not_an_integer(power):
    with pytest.raises(FormatError):
        dehn_twist(a2_form(3), ALPHA, BETA, power)


def test_twist_non_invertible():
    # a hand-built centre of square -8: 1 - 8 is no unit
    with pytest.raises(NonInvertibleTwist, match="square -8 has no integer inverse"):
        dehn_twist(a2_form(3), (2, 0), BETA, -1)


vecs = st.tuples(*(st.integers(-9, 9) for _ in range(2)))

# sphere classes one can twist around: any class in the antisymmetric
# lattice (all squares vanish), the six root classes in the symmetric one
A2_ROOTS = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]


def twistable(n):
    return st.sampled_from(A2_ROOTS) if n % 2 == 1 else vecs


@given(st.data(), vecs, st.integers(1, 5), st.sampled_from([3, 4]))
@settings(max_examples=120, deadline=None)
def test_twist_power_then_inverse(data, x, p, n):
    form = a2_form(n)
    l = data.draw(twistable(n))
    assert dehn_twist(form, l, dehn_twist(form, l, x, p), -p) == x


@given(st.data(), vecs, vecs, st.sampled_from([3, 4]))
@settings(max_examples=120, deadline=None)
def test_twist_preserves_form(data, x, y, n):
    form = a2_form(n)
    l = data.draw(twistable(n))
    tx, ty = dehn_twist(form, l, x), dehn_twist(form, l, y)
    assert form.pair(tx, ty) == form.pair(x, y)


@given(st.sampled_from(A2_ROOTS), vecs)
@settings(max_examples=80, deadline=None)
def test_reflection_has_order_two(l, x):
    form = a2_form(3)
    assert form.pair(l, l) == -2
    assert dehn_twist(form, l, x, 2) == x


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DimensionMismatch, NonInvertibleTwist) as exc:
        return type(exc)


def repeated_twist(form, l, x, power):
    """|power| single twists of the sign of power, one after the other."""
    for _ in range(abs(power)):
        x = dehn_twist(form, l, x, 1 if power > 0 else -1)
    return x


@given(st.data(), tree_patterns(), st.integers(1, 4), st.integers(-6, 6))
@settings(max_examples=300, deadline=None)
def test_twist_power_is_repeated_twist(data, pattern, sphere_dim, power):
    form = PlumbingDescriptor(pattern, sphere_dim)
    r = len(pattern.vertices)
    vec = st.tuples(*(st.integers(-3, 3) | st.just(0) for _ in range(r)))
    l, x = data.draw(vec), data.draw(vec)
    assert outcome(dehn_twist, form, l, x, power) == outcome(repeated_twist, form, l, x, power)


class Signs(NamedTuple):
    """A sign setting stated in full, as the reference form and twist take
    it: the sphere square s, the edge sign e and the twist sign eps."""

    self_intersection: int
    edge_sign: int
    twist_sign: int


# the program's setting in full
PROGRAM_SIGNS = Signs(-2, 1, 1)


def odd_positions(pattern):
    """The basis positions of the vertices at odd distance from the
    pattern's first vertex, found by a walk over its edge list."""
    pos = {v: i for i, v in enumerate(pattern.vertices)}
    neighbours = [[] for _ in pattern.vertices]
    for a, b in pattern.edges:
        neighbours[pos[a]].append(pos[b])
        neighbours[pos[b]].append(pos[a])
    odd = {0: False}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in neighbours[i]:
            if j not in odd:
                odd[j] = not odd[i]
                stack.append(j)
    return frozenset(i for i, o in odd.items() if o)


def equivalent(signs, pattern):
    """The basis flip that carries a geometric setting ``signs`` to the
    program's: D = diag((-1)^depth), depth counted from the pattern's first
    vertex, when eps * e = -1, the identity otherwise.  eps times the
    setting's form has square -2 and edge entry eps * e, and D negates every
    edge entry, a tree being bipartite, and no square.  A class of another
    length keeps its entries past the pattern's rank, so the length checks
    still see it."""
    odd = odd_positions(pattern) if signs.twist_sign * signs.edge_sign == -1 else ()

    def flip(x):
        return tuple(-v if i in odd else v for i, v in enumerate(x))

    return flip


# the settings of three signs with eps * s = -2, as Lagrangian spheres have
GEOMETRIC_SIGNS = [Signs(s, e, eps) for s, eps in ((-2, 1), (2, -1)) for e in (1, -1)]


class ReferenceForm:
    """The form built directly from the edge list: per basis vertex, the
    ``(neighbour index, signed entry)`` pairs of its pattern edges, found
    through a position dict.  The reference for the adjacency a pattern
    stores and for ``pair``; it takes all three signs."""

    def __init__(self, pattern, sphere_dim, signs):
        symmetric = sphere_dim % 2 == 0
        upper = signs.edge_sign
        lower = upper if symmetric else -upper
        pos = {v: i for i, v in enumerate(pattern.vertices)}
        neighbours = [[] for _ in pattern.vertices]
        for a, b in pattern.edges:
            i, j = pos[a], pos[b]
            if i > j:
                i, j = j, i
            neighbours[i].append((j, upper))
            neighbours[j].append((i, lower))
        self.rank = len(pattern.vertices)
        self.diagonal = signs.self_intersection if symmetric else 0
        self.neighbours = neighbours
        self.eps = signs.twist_sign

    def pair(self, x, y):
        r = self.rank
        if len(x) != r or len(y) != r:
            raise DimensionMismatch(f"vectors of length {len(x)}, {len(y)} against rank {r}")
        total = 0
        for i in compress(range(r), x):
            row = self.diagonal * y[i]
            for j, entry in self.neighbours[i]:
                row += entry * y[j]
            total += x[i] * row
        return total


def reference_twist(ref, l, x, power=1):
    """The twist that rebuilds every coordinate through ``zip``: the
    reference for ``dehn_twist``, which touches only the support of l."""
    r = ref.rank
    if len(l) != r or len(x) != r:
        raise DimensionMismatch(f"twist on vectors of length {len(l)}, {len(x)} against rank {r}")
    eps = ref.eps
    if power >= 0:
        coeff, reps = eps, power
    else:
        s = ref.pair(l, l)
        if eps * s not in (0, -2):
            raise NonInvertibleTwist(f"square {s}")
        coeff, reps = -eps - s, -power
    for _ in range(reps):
        c = ref.pair(x, l)
        if c:
            x = tuple(xi + coeff * c * li for xi, li in zip(x, l))
    return x


def classes(r):
    """Dense classes, sparse ones (a few nonzeros among zeros) and, now and
    then, a class of the wrong length."""
    dense = st.tuples(*(st.integers(-9, 9) for _ in range(r)))
    sparse = st.dictionaries(st.integers(0, r - 1), st.integers(-3, 3), max_size=3).map(
        lambda d: tuple(d.get(i, 0) for i in range(r))
    )
    wrong = st.lists(st.integers(-2, 2), min_size=r + 1, max_size=r + 2).map(tuple)
    return st.one_of(dense, sparse, sparse, wrong)


@given(st.data(), tree_patterns(), st.integers(1, 6), st.integers(-3, 3))
@settings(max_examples=300, deadline=None)
def test_form_and_twist_match_reference(data, pattern, sphere_dim, power):
    form = PlumbingDescriptor(pattern, sphere_dim)
    ref = ReferenceForm(pattern, sphere_dim, PROGRAM_SIGNS)
    r = len(pattern.vertices)
    l, x, y = data.draw(classes(r)), data.draw(classes(r)), data.draw(classes(r))
    assert outcome(form.pair, x, y) == outcome(ref.pair, x, y)
    assert outcome(dehn_twist, form, l, x, power) == outcome(reference_twist, ref, l, x, power)


@given(
    st.data(),
    tree_patterns(),
    st.integers(1, 6),
    st.sampled_from(GEOMETRIC_SIGNS),
    st.integers(-3, 3),
)
@settings(max_examples=300, deadline=None)
def test_geometric_signs_are_the_program_in_a_flipped_basis(
    data, pattern, sphere_dim, signs, power
):
    """Each setting (s, e, eps) with eps * s = -2 is the program's lattice
    in the basis that ``equivalent`` flips to: there the program's pairing
    is eps times the setting's, and its twist is the setting's twist."""
    form = PlumbingDescriptor(pattern, sphere_dim)
    ref = ReferenceForm(pattern, sphere_dim, signs)
    flip = equivalent(signs, pattern)
    r = len(pattern.vertices)
    l, x, y = data.draw(classes(r)), data.draw(classes(r)), data.draw(classes(r))
    scaled = outcome(ref.pair, x, y)
    if isinstance(scaled, int):
        scaled *= signs.twist_sign
    assert outcome(form.pair, flip(x), flip(y)) == scaled
    want = outcome(reference_twist, ref, l, x, power)
    if not isinstance(want, type):  # outcome gives the error's type where one was raised
        want = flip(want)
    assert outcome(dehn_twist, form, flip(l), flip(x), power) == want


class CountingClass(tuple):
    """A class that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("sphere_dim", [2, 3])
@pytest.mark.parametrize("power", range(-3, 4))
def test_twist_reads_its_centre_once(power, sphere_dim, sign):
    """Each power, both parities, and the non-invertible path (the centre
    b + sign * c has square -2 for sign 1 and -6 for sign -1 on the
    symmetric form): the centre's support is read once per call."""
    pattern = UnrootedTree(("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d")))
    form = PlumbingDescriptor(pattern, sphere_dim)
    ref = ReferenceForm(pattern, sphere_dim, PROGRAM_SIGNS)
    centre, x = (0, 1, sign, 0), (1, 0, 0, 2)
    l = CountingClass(centre)
    assert outcome(dehn_twist, form, l, x, power) == outcome(reference_twist, ref, centre, x, power)
    assert l.iterations <= 1


def test_form_shares_the_pattern_adjacency():
    pattern = UnrootedTree(("c", "a", "b"), (("a", "c"), ("b", "c")))
    assert (pattern.above, pattern.below) == (((1, 2), (), ()), ((), (0,), (0,)))
    form = PlumbingDescriptor(pattern, 2)
    assert form.pattern is pattern
    assert matrix(form) == ((-2, 1, 1), (1, -2, 0), (1, 0, -2))
    assert pattern.edge_index_pairs() == frozenset({(0, 1), (0, 2)})


def test_the_fiber_stores_two_fields_and_the_form_wrappers_add_none():
    # the pairing is read from the pattern and the parity of sphere_dim, so
    # nothing else is stored and the two wrappers add no object
    assert [f.name for f in fields(PlumbingDescriptor)] == ["pattern", "sphere_dim"]
    for sphere_dim, parity in ((2, "symmetric"), (3, "antisymmetric")):
        form = pattern_form(A2_PATTERN, sphere_dim)
        assert form == PlumbingDescriptor(A2_PATTERN, sphere_dim)
        assert type(form) is PlumbingDescriptor and form.parity == parity
        assert fiber_form(form) is form


def test_twist_power_cases():
    # transvection: linear in k; reflection: k mod 2; a hand-built centre
    # 2*alpha of square -8: <x,l> is multiplied by q = 1 - 8 = -7 per twist,
    # so k twists add 1 - 7 + 49 - ... of it
    assert dehn_twist(a2_form(4), ALPHA, BETA, -5) == (5, 1)
    assert dehn_twist(a2_form(3), ALPHA, BETA, 5) == (1, 1)
    assert dehn_twist(a2_form(3), ALPHA, BETA, -6) == BETA
    form, l = a2_form(3), (2, 0)
    assert dehn_twist(form, l, BETA, 3) == (172, 1)
    assert dehn_twist(form, l, BETA, 0) == BETA
    with pytest.raises(NonInvertibleTwist):
        dehn_twist(form, l, BETA, -3)


def centre_patterns():
    """Every tree on up to 4 vertices as a parent array, and on 5 and 6
    vertices the chain, the star and a branched tree."""
    parent_arrays = [p for k in range(1, 5) for p in product(*map(range, range(1, k)))]
    parent_arrays += [(0, 1, 2, 3), (0, 0, 0, 0), (0, 1, 1, 3), (0, 1, 2, 3, 4),
                      (0, 0, 0, 0, 0), (0, 1, 1, 3, 3)]
    for parents in parent_arrays:
        names = tuple(f"w{i}" for i in range(len(parents) + 1))
        yield UnrootedTree(names, tuple((names[p], names[i]) for i, p in enumerate(parents, 1)))


def centre_classes(r, rng):
    """Every class with entries in -2..2 up to rank 2, in -1..1 at ranks 3
    and 4, and 40 seeded draws from -2..2 above that; at rank 5 also the
    radical classes of the symmetric star with four leaves (affine D4)."""
    if r <= 4:
        return list(product(range(-2, 3) if r <= 2 else range(-1, 2), repeat=r))
    draws = [tuple(rng.randint(-2, 2) for _ in range(r)) for _ in range(40)]
    return draws + [(2, 1, 1, 1, 1), (-2, 1, 1, 1, 1)] if r == 5 else draws


def test_isometric_centre_is_a_twist_that_keeps_the_form():
    """Off the radical, a class is an isometric centre exactly when its twist
    keeps the pairing of every two basis vectors.  On a symmetric form a
    radical class is no centre (its twist is the identity: the rule is
    conservative there)."""
    rng = random.Random(5)
    radical_seen = set()
    for pattern in centre_patterns():
        r = len(pattern.vertices)
        basis = [unit(r, i) for i in range(r)]
        for n in range(2, 6):
            form = PlumbingDescriptor(pattern, n - 1)
            gram = matrix(form)
            for l in centre_classes(r, rng):
                centre = _isometric_centre(form, l)
                if not any(form.pair(e, l) for e in basis):
                    if any(l):
                        radical_seen.add(form.parity)
                    assert centre == (form.parity == "antisymmetric")
                    continue
                twisted = [dehn_twist(form, l, e) for e in basis]
                keeps = all(
                    form.pair(twisted[i], twisted[j]) == gram[i][j]
                    for i in range(r)
                    for j in range(r)
                )
                assert centre == keeps, (pattern, n, l)
    # degenerate forms were met: affine D4, and antisymmetric forms of odd rank
    assert radical_seen == {"symmetric", "antisymmetric"}


# ---------------------------------------------------------------------------
# Smith normal form: hand-checked values


def test_snf_identity():
    res = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert res.divisors == (1, 1, 1)
    assert res.kernel_rank == 0
    assert res.cokernel == (0, ())


def test_snf_zero():
    res = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert res.rank == 0
    assert res.kernel_rank == 3
    assert res.cokernel == (2, ())


def test_snf_diag_two():
    res = smith_normal_form([[2, 0], [0, 0]])
    assert res.divisors == (2,)
    assert res.cokernel == (1, (2,))
    assert res.kernel_rank == 1


def test_snf_divisibility_chain():
    res = smith_normal_form([[2, 0], [0, 3]])
    assert res.divisors == (1, 6)


def test_snf_cartan_a2():
    res = smith_normal_form([[-2, 1], [1, -2]])
    assert res.divisors == (1, 3)
    assert res.cokernel == (0, (3,))


def _random_unimodular_scramble(rng, mat):
    a = [list(r) for r in mat]
    nr, nc = len(a), len(a[0])
    for _ in range(30):
        op = rng.randrange(4)
        if op == 0 and nr > 1:
            i, j = rng.sample(range(nr), 2)
            k = rng.randint(-3, 3)
            for c in range(nc):
                a[i][c] += k * a[j][c]
        elif op == 1 and nc > 1:
            i, j = rng.sample(range(nc), 2)
            k = rng.randint(-3, 3)
            for r in range(nr):
                a[r][i] += k * a[r][j]
        elif op == 2 and nr > 1:
            i, j = rng.sample(range(nr), 2)
            a[i], a[j] = a[j], a[i]
        else:
            i = rng.randrange(nr)
            a[i] = [-x for x in a[i]]
    return a


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_snf_invariant_under_unimodular_ops(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    mat = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
    scrambled = _random_unimodular_scramble(rng, mat)
    assert smith_normal_form(mat) == smith_normal_form(scrambled)


def test_snf_large_entries_exact():
    big = 10**30
    res = smith_normal_form([[big, 0], [0, big]])
    assert res.divisors == (big, big)


def test_snf_ragged_rows():
    with pytest.raises(DimensionMismatch):
        smith_normal_form([[1, 2], [3]])


@pytest.mark.parametrize(
    "mat, where",
    [
        ([[0.5]], "(0, 0)"),  # int() would read it as 0: rank 0
        ([[1.7, 0], [0, 2.2]], "(0, 0)"),  # int() would give divisors (1, 2)
        ([[0, 1], [0, 2.2]], "(1, 1)"),
        ([["3"]], "(0, 0)"),  # int() would read it as 3
        ([[1, True]], "(0, 1)"),
    ],
)
def test_snf_rejects_non_integer_entries(mat, where):
    with pytest.raises(FormatError, match=re.escape(f"entry {where} ")):
        smith_normal_form(mat)


def test_snf_unit_pivots_then_residual():
    # one unit pivot leaves the block [[2, 0], [0, 4]], whose pivots are not units
    res = smith_normal_form([[1, 5, 7], [0, 2, 0], [0, 0, 4]])
    assert res.divisors == (1, 2, 4)
    assert res.cokernel == (0, (2, 4))


# ---------------------------------------------------------------------------
# Smith normal form: differential checks against the dense routine and the
# determinantal divisors


def reference_smith(mat) -> SmithResult:
    """Dense Smith normal form: the oracle of the differential tests below.

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


BIG = 10**30
ENTRY_POOLS = {
    "small": st.integers(-6, 6),
    "units": st.sampled_from([0, 0, 1, -1]),
    "no_units": st.sampled_from([0, 0, 2, -2, 3, -4, 6, -9, BIG, -BIG - 2]),
    "huge": st.sampled_from([0, 1, -1, 2, BIG, -BIG, BIG + 1, 3 * BIG, BIG**2]),
    "dense": st.sampled_from([s * v for v in range(2, 10) for s in (1, -1)]),
}


@st.composite
def int_matrices(draw, max_side):
    nr = draw(st.integers(0, max_side))
    nc = draw(st.integers(0, max_side)) if nr else 0
    shape = draw(st.sampled_from(sorted(ENTRY_POOLS) + ["unit_vectors"]))
    if shape == "unit_vectors":
        mat = [[0] * nc for _ in range(nr)]
        for j in range(nc):
            mat[draw(st.integers(0, nr - 1))][j] = draw(st.sampled_from([1, -1]))
    else:
        pool = ENTRY_POOLS[shape]
        mat = [[draw(pool) for _ in range(nc)] for _ in range(nr)]
    if shape == "dense":  # no unit entry: remainders and the gcd/lcm pass do the work
        return mat
    for i in range(nr):
        if draw(st.integers(0, 4)) == 0:
            mat[i] = [0] * nc
    for j in range(nc):
        if draw(st.integers(0, 4)) == 0:
            for row in mat:
                row[j] = 0
    return mat


def _det(m):
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def determinantal_invariant_factors(mat):
    """d_k = gcd of the k x k minors; the factors are d_k / d_(k-1)."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    factors, prev = [], 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for rows in combinations(range(nr), k):
            for cols in combinations(range(nc), k):
                d = gcd(d, _det([[mat[i][j] for j in cols] for i in rows]))
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


@given(int_matrices(4))
@settings(max_examples=400, deadline=None)
def test_snf_matches_dense_and_determinantal_divisors(mat):
    res = smith_normal_form(mat)
    assert res == reference_smith(mat)
    factors = determinantal_invariant_factors(mat)
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    assert res.divisors == factors
    assert res.rank == len(factors)
    assert res.kernel_rank == nc - len(factors)
    assert res.cokernel == (nr - len(factors), tuple(d for d in factors if d != 1))


@given(int_matrices(8))
@settings(max_examples=200, deadline=None)
def test_snf_matches_dense_on_larger_matrices(mat):
    assert smith_normal_form(mat) == reference_smith(mat)


def bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def test_snf_non_unit_pivots_at_scale():
    # far past the determinantal oracle; dense elimination from least-magnitude
    # pivots grows its entries here and takes seconds
    rng = random.Random(3)
    mat = [[rng.randint(-6, 6) for _ in range(40)] for _ in range(40)]
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        res = smith_normal_form(mat)
        times.append(time.perf_counter() - t0)
    d = res.divisors
    assert res.rank == 40
    assert all(d[k + 1] % d[k] == 0 for k in range(len(d) - 1))
    assert prod(d) == abs(bareiss_det(mat))
    assert min(times) < 1.0, times


# ---------------------------------------------------------------------------
# Smith normal form: a row object that repeats is read once


@given(int_matrices(6), st.data())
@settings(max_examples=200, deadline=None)
def test_snf_of_repeated_row_objects_matches_copies(mat, data):
    rows = [tuple(row) for row in mat] or [()]
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12))
    shared = [rows[k] for k in picks]
    copies = [tuple(list(row)) for row in shared]
    assert all(a is not b for a, b in zip(shared, copies) if a)  # () is a singleton
    res = smith_normal_form(shared)
    assert res == smith_normal_form(copies) == reference_smith(copies)


class CountingRow(tuple):
    """A row that counts how often it is iterated."""

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_snf_reads_a_repeated_row_object_once():
    row = CountingRow((0, 3, 0, 1))
    row.reads = 0
    res = smith_normal_form([row] * 50)
    assert row.reads == 1
    assert res == reference_smith([tuple(row)] * 50)
    assert res.cokernel == (49, ())


@pytest.mark.parametrize("bad", [(1, True), (2.0, 0), (0, 1.0)])
def test_snf_refuses_a_repeated_row_object_with_a_non_integer_entry(bad):
    # equal in value to an int row, so deduplicating by value would hide it
    assert bad == tuple(map(int, bad))
    with pytest.raises(FormatError, match=re.escape("entry (1, ")):
        smith_normal_form([(1, 1), bad, bad, bad])
    with pytest.raises(FormatError):
        smith_normal_form([tuple(map(int, bad))] + [bad] * 3)
