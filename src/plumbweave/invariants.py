"""Total-space invariants of an abstract fibration.

The total space is built from the fiber's subcritical skeleton plus one
n-handle per vanishing cycle, so its homology in the carried degrees comes
from the thimble boundary map Z^m -> H_{n-1}(fiber): H_n is its kernel,
H_{n-1} its cokernel, H_0 = Z.  For a tree plumbing fiber those are the
only degrees that can carry anything in the relevant range; the rest are
reported as zero by construction.

The exact Smith normal form runs on the transpose of the boundary map: one
row per cycle, which is the word's class tuples as they stand, so no
r x m matrix is ever built.  A matrix and its transpose have the same
elementary divisors, so the rank k and the torsion agree, while kernel and
cokernel trade their free parts: the kernel of the m x r transpose has
rank r - k, the free rank of H_{n-1}, and its cokernel has free rank m - k,
the rank of H_n.

The Smith normal form reads the class rows alone, and n only names the
degrees, so one SNF serves every word whose ``cycles`` is one tuple: the
words :func:`fibrate` builds for one ordered tree at every n.  That tuple
holds frozen records, each with a class tuple, so its rows cannot change,
and the SNF computed for the first such word is exact for all of them.
:func:`total_homology` keeps it in the slot the ordered tree holds next to
the tuple, which each of those words links to; the rank check still runs
on every call.

The independent ground truth is the wedge oracle: a plumbing of copies of
T*S^n along a tree deformation-retracts to a wedge of |V| n-spheres, so its
reduced homology is Z^|V| in degree n and nothing else, with Euler
characteristic 1 + (-1)^n |V|.

Results for n = 2 carry a caveat flag: the formulas still hold for tree
plumbings, but the fiber is then a surface and the degree bookkeeping is
tighter than the general statement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch
from .fibration import AbstractLF, _check_n, fibrate
from .lattice import smith_normal_form
from .treecore import RootedEmbeddedTree, order_tree, parse_tree

__all__ = [
    "HomologyReport",
    "euler_characteristic",
    "total_homology",
    "wedge_oracle",
    "base_case_audit",
]


@dataclass(frozen=True)
class HomologyReport:
    """Euler characteristic and per-degree (free rank, torsion orders).

    ``h`` carries degrees 0, n-1, n; ``caveat`` flags n = 2.  The report
    says what the space is and nothing about the word it was computed
    from: the boundary map is ``tuple(zip(*alf.word_classes()))``.  The
    Smith normal form ran on the word's classes as rows, the transpose of
    that map, which is why H_n came from its cokernel and H_{n-1} from its
    kernel (see the module docstring).
    """

    euler: int
    h: tuple[tuple[int, int, tuple[int, ...]], ...]
    caveat: bool

    def as_dict(self) -> dict:
        return {
            "euler": self.euler,
            "h": {
                str(deg): {"free_rank": fr, "torsion": list(tors)}
                for deg, fr, tors in self.h
            },
            "caveat_n2": self.caveat,
        }


def euler_characteristic(alf: AbstractLF) -> int:
    """Fiber Euler characteristic plus one n-cell per vanishing cycle."""
    n = alf.n
    rank = len(alf.fiber.pattern.vertices)
    m = len(alf.cycles)
    return (1 + (-1) ** (n - 1) * rank) + (-1) ** n * m


def total_homology(alf: AbstractLF) -> HomologyReport:
    """Homology of the total space from the thimble boundary map.

    The words :func:`fibrate` builds for one ordered tree at every n share
    one ``cycles`` tuple, and each links to the slot the ordered tree keeps
    for it: the first of them certified stores its Smith normal form there,
    and every later one whose ``cycles`` is that very tuple reads it back
    (see the module docstring).  Any other word, a moved, stabilized, read
    or replaced one included, has no such link and runs its own."""
    n = alf.n
    rank = len(alf.fiber.pattern.vertices)
    classes = alf.word_classes()
    if not set(map(len, classes)) <= {rank}:
        raise DimensionMismatch(f"cycle classes against fiber rank {rank}")
    slot = alf._certificate  # [cycles, SmithResult or None]
    if slot is None or slot[0] is not alf.cycles:
        slot = [alf.cycles, None]
    if slot[1] is None:
        # one row per cycle: the transpose of the boundary map; with no
        # row, rank 0 leaves H_{n-1} = Z^r
        slot[1] = smith_normal_form(classes)
    snf = slot[1]
    h = (
        (0, 1, ()),
        (n - 1, rank - snf.rank, snf.cokernel[1]),
        (n, snf.cokernel[0], ()),
    )
    return HomologyReport(euler=euler_characteristic(alf), h=h, caveat=(n == 2))


def wedge_oracle(t: RootedEmbeddedTree, n: int) -> HomologyReport:
    """Expected report for the plumbing along ``t``: a wedge of |V| spheres.
    ``n`` follows the rule of :func:`fibrate`."""
    _check_n(n)
    nv = len(t.vertices)
    return HomologyReport(
        euler=1 + (-1) ** n * nv,
        h=((0, 1, ()), (n - 1, 0, ()), (n, nv, ())),
        caveat=(n == 2),
    )


_BASE_CASE_N = (2, 3, 4, 5)


def base_case_audit() -> dict:
    """Run both readings of the two-vertex base case against the oracle.

    The literal three-step algorithm emits three cycles for the two-vertex
    chain (root edge plus both vertices); an alternative reading emits one
    cycle per vertex only, which is the literal word without its root-edge
    cycle, on the same fiber.  The audit reports, for n = 2 to 5, whether each
    variant's Euler characteristic and homology match the wedge oracle.
    Neither variant is patched to agree: the verdicts stand as computed.
    """
    a2 = parse_tree("root v0 e0\nedge e0 v0 v1\n")
    ot = order_tree(a2)
    verdicts: dict = {"literal_steps": {}, "two_cycle_variant": {}}
    for n in _BASE_CASE_N:
        oracle = wedge_oracle(a2, n)
        lit = fibrate(ot, n)
        two = AbstractLF(lit.fiber, lit.cycles[1:])  # no root-edge cycle
        for name, alf in (("literal_steps", lit), ("two_cycle_variant", two)):
            rep = total_homology(alf)
            verdicts[name][n] = {
                "word_length": len(alf.cycles),
                "chi": rep.euler,
                "oracle_chi": oracle.euler,
                "chi_match": rep.euler == oracle.euler,
                "homology_match": rep == oracle,
            }

    # report equality includes the Euler characteristic: chi_match is implied
    return {
        "n_values": list(_BASE_CASE_N),
        "variants": verdicts,
        "summary": {
            f"{name}_matches_oracle": all(row["homology_match"] for row in rows.values())
            for name, rows in verdicts.items()
        },
    }
