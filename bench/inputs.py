"""Seeded inputs for the benchmark, made without the program's help.

Trees are drawn here, not by ``treecore.random_tree``, so that a change to
the program can never change what the benchmark feeds it.  A tree is drawn
with an exact vertex count and an exact number of non-root leaves: the
leaves fix the fiber rank r and the word length m = |V| + leaves, and with
them the cost of a certificate, so two seeds give inputs of equal size.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


@dataclass(frozen=True)
class TreeSpec:
    """A generated rooted plane tree and what the benchmark knows of it."""

    text: str  # tree-file text handed to ``parse_tree``
    nv: int
    nonroot_leaves: int


def _prufer_edges(rng, nv: int, internal: list[int]) -> list[tuple[int, int]]:
    """Edges of the labelled tree whose Prüfer sequence uses exactly the
    labels in ``internal``, each at least once, so every other label is a
    leaf."""
    seq = internal + [rng.choice(internal) for _ in range(nv - 2 - len(internal))]
    rng.shuffle(seq)
    degree = [1] * nv
    for s in seq:
        degree[s] += 1
    leaves = [i for i in range(nv) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        edges.append((heapq.heappop(leaves), s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def random_tree_spec(rng, nv: int, leaves: int, shape_rng=None) -> TreeSpec:
    """A tree on ``nv`` vertices with ``leaves`` degree-1 vertices, rooted at
    an inner vertex when there is one, with shuffled names, declaration
    order and rotations.

    ``shape_rng``, when given, draws the plane tree itself (edges, root and
    rotations) and ``rng`` only its names and the order of its lines; the
    program's work then does not depend on ``rng``."""
    shape = shape_rng or rng
    if nv == 2:
        pairs = [(0, 1)]
    else:
        if not 2 <= leaves <= nv - 1:
            raise ValueError(f"{leaves} leaves impossible on {nv} vertices")
        pairs = _prufer_edges(shape, nv, shape.sample(range(nv), nv - leaves))
    names = [f"p{k}" for k in rng.sample(range(10 * nv), nv)]
    eids = [f"g{k}" for k in rng.sample(range(10 * nv), nv - 1)]
    incident: list[list[str]] = [[] for _ in range(nv)]
    lines = []
    for eid, (a, b) in zip(eids, pairs):
        incident[a].append(eid)
        incident[b].append(eid)
        if rng.random() < 0.5:
            a, b = b, a
        lines.append(f"edge {eid} {names[a]} {names[b]}")
    rng.shuffle(lines)
    inner = [v for v in range(nv) if len(incident[v]) > 1]
    root = shape.choice(inner) if inner else shape.randrange(nv)
    root_edge = incident[root][shape.randrange(len(incident[root]))]
    rot_lines = []
    for v in range(nv):
        rot = incident[v][:]
        # permute positions, not names, so the shape is the same for any names
        order = list(range(len(rot)))
        shape.shuffle(order)
        rot = [rot[i] for i in order]
        rot_lines.append(f"rot {names[v]} {' '.join(rot)}")
    rng.shuffle(rot_lines)
    text = "\n".join(
        ["# generated", f"root {names[root]} {root_edge}"] + lines + rot_lines
    ) + "\n"
    nonroot = sum(1 for v in range(nv) if len(incident[v]) == 1 and v != root)
    return TreeSpec(text, nv, nonroot)


def family_classes(m: int, j: int) -> list[tuple[int, int]]:
    """Classes of the chain-with-leaf word alpha^(j+1) beta alpha^(m-j+1) beta
    in the basis (alpha, beta), as the program's documentation states it."""
    alpha, beta = (1, 0), (0, 1)
    return [alpha] * (j + 1) + [beta] + [alpha] * (m - j + 1) + [beta]
