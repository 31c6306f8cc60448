"""Checks on the program's outputs that do not use the program's own answers.

Each check rebuilds what a result must be from the benchmark's inputs or
from documented definitions, and raises :class:`CheckFailed` when the
program's result differs:

* homology: a plumbing along a tree is a wedge of |V| spheres, so H_n is
  free of rank |V|, H_{n-1} vanishes with no torsion, H_0 = Z and the Euler
  characteristic is 1 + (-1)^n |V|;
* word length: |V| plus the number of non-root leaves;
* twists: the benchmark's own sparse action x -> x + eps <x, l> l, built
  from the fiber pattern's edges with the documented default signs;
* unreachability: moves keep the lattice spanned by the word's classes, so
  a different gcd of the 2x2 minors of the class matrix proves a target out
  of reach;
* emission: the SVG parses as XML and has one singular-value polygon per
  cycle and one chord per tree vertex; the JSON parses and round-trips.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET

# documented default convention: sphere self-intersection, edge sign, twist sign
SELF_INTERSECTION = -2
EDGE_SIGN = 1
TWIST_SIGN = 1


class CheckFailed(Exception):
    """A program output disagrees with what the benchmark expects."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# homology and word shape


def check_homology(report, nv: int, n: int) -> None:
    """The report must describe a wedge of ``nv`` n-spheres."""
    expected = {0: (1, ()), n - 1: (0, ()), n: (nv, ())}
    got = {deg: (free, tuple(tors)) for deg, free, tors in report.h}
    for deg in sorted(set(expected) | set(got)):
        want = expected.get(deg, (0, ()))
        expect(
            got.get(deg, (0, ())) == want,
            f"H_{deg}: got {got.get(deg)}, want free rank {want[0]} torsion {want[1]}",
        )
    chi = 1 + (-1) ** n * nv
    expect(report.euler == chi, f"euler {report.euler}, want {chi}")


def check_word_length(alf, nv: int, nonroot_leaves: int) -> None:
    m = nv + nonroot_leaves
    expect(len(alf.cycles) == m, f"word length {len(alf.cycles)}, want {m}")


# ---------------------------------------------------------------------------
# the twist action, sparse


def sparse(cls) -> dict[int, int]:
    return {i: c for i, c in enumerate(cls) if c}


def dense(x: dict[int, int], rank: int) -> tuple[int, ...]:
    out = [0] * rank
    for i, c in x.items():
        out[i] = c
    return tuple(out)


class SparseForm:
    """The fiber pairing stored as its diagonal plus one entry per edge.

    Symmetric with diagonal ``SELF_INTERSECTION`` when the fiber spheres are
    even dimensional; antisymmetric with zero diagonal otherwise.  Entry
    (i, j), i < j, of an edge is ``EDGE_SIGN``; entry (j, i) is ``EDGE_SIGN``
    or its negative by parity.
    """

    def __init__(self, rank: int, edges, sphere_dim: int):
        symmetric = sphere_dim % 2 == 0
        self.rank = rank
        self.diag = SELF_INTERSECTION if symmetric else 0
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(rank)]
        for a, b in edges:
            i, j = min(a, b), max(a, b)
            self.adj[i].append((j, EDGE_SIGN))
            self.adj[j].append((i, EDGE_SIGN if symmetric else -EDGE_SIGN))

    @classmethod
    def of_fiber(cls, fiber) -> "SparseForm":
        pos = {v: i for i, v in enumerate(fiber.pattern.vertices)}
        edges = [(pos[a], pos[b]) for a, b in fiber.pattern.edges]
        return cls(len(pos), edges, fiber.sphere_dim)

    def pair(self, x: dict[int, int], y: dict[int, int]) -> int:
        total = 0
        for i, xi in x.items():
            row = self.diag * y.get(i, 0)
            for j, b in self.adj[i]:
                row += b * y.get(j, 0)
            total += xi * row
        return total

    @staticmethod
    def _add(x: dict[int, int], k: int, l: dict[int, int]) -> dict[int, int]:
        out = dict(x)
        for i, li in l.items():
            v = out.get(i, 0) + k * li
            if v:
                out[i] = v
            else:
                out.pop(i, None)
        return out

    def twist(self, l: dict[int, int], x: dict[int, int]) -> dict[int, int]:
        """x + eps <x, l> l."""
        c = self.pair(x, l)
        return self._add(x, TWIST_SIGN * c, l) if c else x

    def untwist(self, l: dict[int, int], y: dict[int, int]) -> dict[int, int]:
        """The x with twist(l, x) = y.

        <y, l> = <x, l> (1 + eps <l, l>), so x = y - eps <x, l> l; the
        division is exact exactly when the twist is a lattice automorphism.
        """
        unit = 1 + TWIST_SIGN * self.pair(l, l)
        c, rem = divmod(self.pair(y, l), unit)
        if rem:
            raise CheckFailed(f"twist with 1 + eps<l,l> = {unit} has no integer inverse")
        return self._add(y, -TWIST_SIGN * c, l) if c else y

    def move(self, word: list, kind: str, i: int | None) -> None:
        """Apply one move to a word of sparse classes, in place."""
        if kind == "cyclic_permute":
            word.append(word.pop(0))
        elif kind == "hurwitz_a":
            x, y = word[i], word[i + 1]
            word[i], word[i + 1] = y, self.twist(y, x)
        elif kind == "hurwitz_b":
            x, y = word[i], word[i + 1]
            word[i], word[i + 1] = self.untwist(x, y), x
        else:
            raise CheckFailed(f"unknown move kind {kind!r}")


def check_classes(alf, ref: list, positions) -> None:
    """The program's classes at ``positions`` equal the sparse reference."""
    expect(len(alf.cycles) == len(ref), f"word length {len(alf.cycles)}, want {len(ref)}")
    rank = len(alf.fiber.pattern.vertices)
    for p in positions:
        expect(
            alf.cycles[p].cls == dense(ref[p], rank),
            f"class at {p} differs from the twist action",
        )


def replay_witness(form: SparseForm, source: list, witness) -> list:
    """The sparse word a move sequence turns ``source`` into."""
    word = list(source)
    m = len(word)
    for mv in witness:
        if mv.kind != "cyclic_permute":
            expect(
                isinstance(mv.index, int) and 0 <= mv.index < m - 1,
                f"witness index {mv.index!r} out of range",
            )
        form.move(word, mv.kind, mv.index)
    return word


# ---------------------------------------------------------------------------
# unreachability


def minor_gcd(classes) -> int:
    """gcd of the 2x2 minors of the 2 x m matrix whose columns are the classes."""
    g = 0
    for a in range(len(classes)):
        x0, x1 = classes[a]
        for b in range(a + 1, len(classes)):
            y0, y1 = classes[b]
            g = math.gcd(g, x0 * y1 - x1 * y0)
    return g


# ---------------------------------------------------------------------------
# emission


def check_json(alf, text: str, back) -> None:
    """``text`` is JSON carrying ``alf``'s classes, and ``back`` equals ``alf``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"fibration JSON does not parse: {exc}") from None
    coords = [tuple(c["coords"]) for c in doc["cycles"]]
    expect(coords == [c.cls for c in alf.cycles], "JSON classes differ from the word")
    expect(doc["n"] == alf.n, "JSON n differs")
    expect(back == alf, "from_json(to_json(word)) differs from the word")


def check_svg(svg: str, m: int, nv: int) -> None:
    try:
        root = ET.fromstring(svg.encode("utf-8"))
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from None
    singular = chords = 0
    for el in root.iter():
        tag = el.tag.rsplit("}", 1)[-1]
        cls = el.get("class")
        if tag == "polygon" and cls == "singular":
            singular += 1
        elif tag == "line" and cls == "matching":
            chords += 1
    expect(singular == m, f"SVG has {singular} singular values, want {m}")
    expect(chords == nv, f"SVG has {chords} matching chords, want {nv}")


def check_matching(matching, alf, nv: int) -> None:
    expect(len(matching) == nv, f"{len(matching)} matching cycles, want {nv}")
    m = len(alf.cycles)
    for mc in matching:
        a, b = mc.endpoints
        expect(0 <= a < m and 0 <= b < m and a != b, f"bad endpoints {mc.endpoints}")
        expect(
            alf.cycles[a].cls == alf.cycles[b].cls,
            f"matching endpoints {mc.endpoints} carry different classes",
        )
