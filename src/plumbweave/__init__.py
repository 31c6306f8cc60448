"""Lefschetz fibration words for plumbings of sphere cotangent bundles.

Given a rooted plane tree, the package computes the abstract Lefschetz
fibration of the plumbing of copies of ``T*S^n`` along that tree: the fiber
is the plumbing along the quotient tree, one dimension down, and the
vanishing-cycle word is read off the tree's canonical vertex and edge
orders.  On top of that it tracks the moves relating different fibrations
of the same space (cyclic permutation, both Hurwitz moves, stabilization),
matching cycles, and exact homology certificates for the total space.
"""

from .errors import PlumbweaveError
from .fibration import (
    AbstractLF,
    MatchingCycle,
    PlumbingDescriptor,
    VanishingCycle,
    family_tree,
    family_word,
    fibrate,
    from_json,
    layout,
    matching_cycles,
    to_json,
)
from .invariants import (
    HomologyReport,
    euler_characteristic,
    total_homology,
    wedge_oracle,
)
from .lattice import (
    dehn_twist,
    smith_normal_form,
)
from .moves import (
    MoveRecord,
    cyclic_permute,
    equal_homology,
    hurwitz_a,
    hurwitz_b,
    replay,
    search_equivalence,
    stabilize,
)
from .treecore import (
    OrderedTree,
    QuotientData,
    RootedEmbeddedTree,
    UnrootedTree,
    order_tree,
    parse_tree,
    quotient,
    random_tree,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractLF",
    "HomologyReport",
    "MatchingCycle",
    "MoveRecord",
    "OrderedTree",
    "PlumbingDescriptor",
    "PlumbweaveError",
    "QuotientData",
    "RootedEmbeddedTree",
    "UnrootedTree",
    "VanishingCycle",
    "cyclic_permute",
    "dehn_twist",
    "equal_homology",
    "euler_characteristic",
    "family_tree",
    "family_word",
    "fibrate",
    "from_json",
    "hurwitz_a",
    "hurwitz_b",
    "layout",
    "matching_cycles",
    "order_tree",
    "parse_tree",
    "quotient",
    "random_tree",
    "replay",
    "search_equivalence",
    "smith_normal_form",
    "stabilize",
    "to_json",
    "total_homology",
    "wedge_oracle",
]
