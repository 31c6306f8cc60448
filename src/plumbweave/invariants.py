"""Total-space invariants of an abstract fibration.

The total space is built from the fiber's subcritical skeleton plus one
n-handle per vanishing cycle, so its homology in the carried degrees comes
from the thimble boundary map Z^m -> H_{n-1}(fiber): H_n is its kernel,
H_{n-1} its cokernel (computed by exact Smith normal form), H_0 = Z.  For a
tree plumbing fiber those are the only degrees that can carry anything in
the relevant range; the rest are reported as zero by construction.

The independent ground truth is the wedge oracle: a plumbing of copies of
T*S^n along a tree deformation-retracts to a wedge of |V| n-spheres, so its
reduced homology is Z^|V| in degree n and nothing else, with Euler
characteristic 1 + (-1)^n |V|.

Results for n = 2 carry a caveat flag: the formulas still hold for tree
plumbings, but the fiber is then a surface and the degree bookkeeping is
tighter than the general statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionMismatch
from .fibration import AbstractLF, PlumbingDescriptor, VanishingCycle, fibrate
from .lattice import smith_normal_form
from .treecore import RootedEmbeddedTree, UnrootedTree, order_tree

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

    ``h`` carries degrees 0, n-1, n.  The boundary matrix is kept for
    inspection but excluded from equality: reports are compared by what
    they say about the space, not by the presentation that produced it.
    """

    euler: int
    h: tuple[tuple[int, int, tuple[int, ...]], ...]
    caveat: bool
    boundary_matrix: tuple[tuple[int, ...], ...] | None = field(
        default=None, compare=False
    )

    def as_dict(self) -> dict:
        return {
            "euler": self.euler,
            "h": {
                str(deg): {"free_rank": fr, "torsion": list(tors)}
                for deg, fr, tors in self.h
            },
            "caveat_n2": self.caveat,
        }


def euler_characteristic(alf: AbstractLF, n: int | None = None) -> int:
    """Fiber Euler characteristic plus one n-cell per vanishing cycle."""
    if n is None:
        n = alf.n
    fiber_rank = len(alf.fiber.pattern.vertices)
    m = len(alf.cycles)
    return (1 + (-1) ** (n - 1) * fiber_rank) + (-1) ** n * m


def total_homology(alf: AbstractLF, n: int | None = None) -> HomologyReport:
    """Homology of the total space from the thimble boundary map."""
    if n is None:
        n = alf.n
    rank = len(alf.fiber.pattern.vertices)
    m = len(alf.cycles)
    if any(len(c.cls) != rank for c in alf.cycles):
        raise DimensionMismatch(f"cycle classes against fiber rank {rank}")
    # row i holds coordinate i of every cycle class
    boundary = tuple(zip(*(c.cls for c in alf.cycles))) if m else ((),) * rank
    snf = smith_normal_form(boundary)
    free_cok, torsion = snf.cokernel
    h = (
        (0, 1, ()),
        (n - 1, free_cok, torsion),
        (n, snf.kernel_rank, ()),
    )
    return HomologyReport(
        euler=euler_characteristic(alf, n),
        h=h,
        caveat=(n == 2),
        boundary_matrix=boundary,
    )


def wedge_oracle(t: RootedEmbeddedTree, n: int) -> HomologyReport:
    """Expected report for the plumbing along ``t``: a wedge of |V| spheres."""
    nv = len(t.vertices)
    return HomologyReport(
        euler=1 + (-1) ** n * nv,
        h=((0, 1, ()), (n - 1, 0, ()), (n, nv, ())),
        caveat=(n == 2),
    )


def _two_cycle_base_variant(n: int) -> AbstractLF:
    """The two-cycle reading of the smallest fibration: a single-sphere
    fiber with the zero section repeated twice (one cycle per vertex only,
    no root-edge cycle)."""
    pattern = UnrootedTree(("w0",), ())
    cycles = (
        VanishingCycle("vertex:v0", (1,), "L_{q(v0)}"),
        VanishingCycle("vertex:v1", (1,), "L_{q(v1)}"),
    )
    return AbstractLF(PlumbingDescriptor(pattern, n - 1), cycles, n)


def base_case_audit(n_values: tuple[int, ...] = (2, 3, 4, 5)) -> dict:
    """Run both readings of the two-vertex base case against the oracle.

    The literal three-step algorithm emits three cycles for the two-vertex
    chain (root edge plus both vertices); an alternative reading emits one
    cycle per vertex only.  The audit reports, per n, whether each variant's
    Euler characteristic and homology match the wedge oracle.  Neither
    variant is patched to agree: the verdicts stand as computed.
    """
    from .treecore import parse_tree

    a2 = parse_tree("root v0 e0\nedge e0 v0 v1\n")
    ot = order_tree(a2)
    verdicts: dict = {"literal_steps": {}, "two_cycle_variant": {}}
    for n in n_values:
        oracle = wedge_oracle(a2, n)
        lit = fibrate(ot, n)
        two = _two_cycle_base_variant(n)
        for name, alf in (("literal_steps", lit), ("two_cycle_variant", two)):
            rep = total_homology(alf, n)
            verdicts[name][n] = {
                "word_length": len(alf.cycles),
                "chi": rep.euler,
                "oracle_chi": oracle.euler,
                "chi_match": rep.euler == oracle.euler,
                "homology_match": rep == oracle,
            }

    def _all_match(name: str) -> bool:
        return all(
            row["chi_match"] and row["homology_match"]
            for row in verdicts[name].values()
        )

    return {
        "n_values": list(n_values),
        "variants": verdicts,
        "summary": {
            "literal_steps_matches_oracle": _all_match("literal_steps"),
            "two_cycle_variant_matches_oracle": _all_match("two_cycle_variant"),
        },
    }
