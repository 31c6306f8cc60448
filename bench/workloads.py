"""The four workloads: seeded inputs, the timed operation and its checks.

A workload draws its inputs from the seed alone, builds its starting
fibrations through the program in ``setup`` (timed as set-up), and then
offers one round of operations, the same list in every round.  ``run(op)``
is the timed part; ``check(op, out)`` verifies the output and raises
``CheckFailed``.  Every program call goes through an attribute of a
``plumbweave`` module, so the traced run sees it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

import oracle
from inputs import TreeSpec, family_classes, random_tree_spec
from oracle import CheckFailed, SparseForm, expect

ODD_N = (3, 5)
EVEN_N = (4, 6)


def _leaves(nv: int) -> int:
    # a fixed leaf share fixes r = leaves and m = nv + leaves for every seed
    return nv * 3 // 8


def _build(pw, spec: TreeSpec, n: int):
    return pw.fibrate(pw.order_tree(pw.parse_tree(spec.text)), n)


class Workload:
    name = ""
    # op_tail_ms is this percentile: the highest one with at least ten
    # samples beyond it in a 25-s run on the reference host
    tail = 99

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")
        self.pw = None

    def setup(self, pw) -> None:
        """Build the starting fibrations through ``pw``; timed as set-up."""
        self.pw = pw

    def prepare(self) -> None:
        """Untimed work after the last set-up: the benchmark's references."""

    def round_ops(self) -> list:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class _Certify:
    spec: TreeSpec
    n: int
    script: tuple  # of ("hurwitz_a" | "hurwitz_b", index)


class CertifyLarge(Workload):
    """parse -> order -> fibrate -> (short Hurwitz script) -> total_homology."""

    name = "certify_large"
    tail = 80
    # (|V|, odd n, moved) of each case.  Parity and the moved cases are
    # fixed, not drawn, so every seed asks for the same amount of work.
    CASES = (
        (250, True, False), (300, False, True), (350, True, True), (400, False, False),
        (400, True, True), (450, False, False), (500, True, False),
    )
    SCRIPT_LEN = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.cases = []
        for idx, (nv, odd, moved) in enumerate(self.CASES):
            # the plane tree of a case is fixed, for the cost of a certificate
            # varies by a fifth between trees of one size; the seed draws
            # its names, line order, n and Hurwitz script
            shape = random.Random(f"{self.name}/shape/{idx}")
            spec = random_tree_spec(rng, nv, _leaves(nv), shape)
            n = rng.choice(ODD_N if odd else EVEN_N)
            m = nv + spec.nonroot_leaves
            script = ()
            if moved:
                script = tuple(
                    (rng.choice(("hurwitz_a", "hurwitz_b")), rng.randrange(m - 1))
                    for _ in range(self.SCRIPT_LEN)
                )
            self.cases.append(_Certify(spec, n, script))

    def setup(self, pw) -> None:
        super().setup(pw)
        self.pristine = [_build(pw, c.spec, c.n) for c in self.cases]

    def round_ops(self) -> list:
        return list(range(len(self.cases)))

    def run(self, k):
        pw = self.pw
        c = self.cases[k]
        alf = _build(pw, c.spec, c.n)
        for kind, i in c.script:
            alf = getattr(pw, kind)(alf, i)
        return alf, pw.total_homology(alf)

    def check(self, k, out) -> None:
        c = self.cases[k]
        alf, report = out
        oracle.check_word_length(alf, c.spec.nv, c.spec.nonroot_leaves)
        oracle.check_homology(report, c.spec.nv, c.n)
        if c.script:
            start = self.pristine[k]
            form = SparseForm.of_fiber(start.fiber)
            ref = [oracle.sparse(cyc.cls) for cyc in start.cycles]
            for kind, i in c.script:
                form.move(ref, kind, i)
            oracle.check_classes(alf, ref, range(len(ref)))


class MovesLarge(Workload):
    """One Hurwitz move or cyclic permutation per operation, in a long script."""

    name = "moves_large"
    NV = 1500
    SCRIPT = (("hurwitz_a", 28), ("hurwitz_b", 28), ("cyclic_permute", 30))

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.specs, self.ns, self.scripts = [], [], []
        for parity in (ODD_N, EVEN_N):
            spec = random_tree_spec(rng, self.NV, _leaves(self.NV))
            m = spec.nv + spec.nonroot_leaves
            kinds = [kind for kind, count in self.SCRIPT for _ in range(count)]
            rng.shuffle(kinds)
            script = tuple(
                (kind, None if kind == "cyclic_permute" else rng.randrange(m - 1))
                for kind in kinds
            )
            self.specs.append(spec)
            self.ns.append(rng.choice(parity))
            self.scripts.append(script)

    def setup(self, pw) -> None:
        super().setup(pw)
        self.start = [_build(pw, s, n) for s, n in zip(self.specs, self.ns)]

    def prepare(self) -> None:
        self.forms, self.ref_start = [], []
        for spec, alf in zip(self.specs, self.start):
            oracle.check_word_length(alf, spec.nv, spec.nonroot_leaves)
            ref = [oracle.sparse(c.cls) for c in alf.cycles]
            if any(list(x.values()) != [1] for x in ref):
                raise CheckFailed("a pristine class is not a basis vector")
            self.forms.append(SparseForm.of_fiber(alf.fiber))
            self.ref_start.append(ref)
        self.cur = list(self.start)
        self.ref = [list(r) for r in self.ref_start]

    def round_ops(self) -> list:
        return [(w, s) for w, script in enumerate(self.scripts) for s in range(len(script))]

    def run(self, op):
        w, s = op
        alf = self.start[w] if s == 0 else self.cur[w]
        kind, i = self.scripts[w][s]
        if kind == "cyclic_permute":
            return self.pw.cyclic_permute(alf)
        return getattr(self.pw, kind)(alf, i)

    def check(self, op, out) -> None:
        w, s = op
        kind, i = self.scripts[w][s]
        if s == 0:
            self.ref[w] = list(self.ref_start[w])
        ref = self.ref[w]
        self.forms[w].move(ref, kind, i)
        self.cur[w] = out
        if s == len(self.scripts[w]) - 1:
            oracle.check_classes(out, ref, range(len(ref)))
        elif kind == "cyclic_permute":
            oracle.check_classes(out, ref, (0, len(ref) - 1))
        else:
            oracle.check_classes(out, ref, (i, i + 1))


@dataclass(frozen=True)
class _Search:
    m: int
    j: int
    n: int
    depth: int
    shift: int | None  # reachable by `shift` Hurwitz moves; None = unreachable
    target_j: int
    matrix: tuple = ((1, 0), (0, 1))  # applied to the target's classes


class SearchFamily(Workload):
    """search_equivalence between chain-with-leaf family words."""

    name = "search_family"
    tail = 80

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        ops = []
        # reachable: odd n, where pushing the interior class by `shift`
        # Hurwitz moves gives the shifted family member.  The source, depth
        # and parity of n fix the cost of a search, so they are not drawn.
        for j in (1, 3, 5, 7):
            ops.append(_Search(10, j, rng.choice((3, 5, 7)), 2, 2, j + 2))
        for j in range(1, 7):
            ops.append(_Search(10, j, rng.choice((3, 5, 7)), 4, 4, j + 4))
        # unreachable: the target's classes span a sublattice of index d
        for n_choices, depth in (((3, 5, 7), 6), ((4, 6, 8), 6), ((3, 5, 7), 5)):
            d = rng.choice((2, 3))
            matrix = ((1, rng.randrange(d)), (0, d))
            ops.append(
                _Search(6, 1, rng.choice(n_choices), depth, None, rng.randrange(1, 6), matrix)
            )
        rng.shuffle(ops)
        self.ops = ops
        # the benchmark's own class words, from the documented family formula
        self.own_source = [family_classes(o.m, o.j) for o in ops]
        self.own_target = [
            [_transform(o.matrix, c) for c in family_classes(o.m, o.target_j)] for o in ops
        ]
        for o, src, tgt in zip(ops, self.own_source, self.own_target):
            if o.shift is None:
                # moves keep the lattice the classes span: a different minor
                # gcd proves the target unreachable at any depth
                if oracle.minor_gcd(src) == oracle.minor_gcd(tgt):
                    raise ValueError("unreachable target not separated by the minor gcd")
            else:
                known = [_Move("hurwitz_a", o.j + 1 + k) for k in range(o.shift)]
                if self._replay(o, src, known) != tgt:
                    raise ValueError("known witness does not reach the family target")

    @staticmethod
    def _replay(o: _Search, source, witness) -> list[tuple[int, int]]:
        form = SparseForm(2, [(0, 1)], o.n - 1)
        word = oracle.replay_witness(form, [oracle.sparse(c) for c in source], witness)
        return [oracle.dense(x, 2) for x in word]

    def setup(self, pw) -> None:
        super().setup(pw)
        self.pairs = []
        for o in self.ops:
            source = pw.family_word(o.m, o.j, o.n)
            target = pw.family_word(o.m, o.target_j, o.n)
            if o.shift is None:
                target = replace(
                    target,
                    cycles=tuple(
                        replace(c, cls=_transform(o.matrix, c.cls)) for c in target.cycles
                    ),
                )
            self.pairs.append((source, target))

    def prepare(self) -> None:
        for (source, target), src, tgt in zip(self.pairs, self.own_source, self.own_target):
            if list(source.word_classes()) != src or list(target.word_classes()) != tgt:
                raise CheckFailed("family words differ from the documented formula")

    def round_ops(self) -> list:
        return list(range(len(self.ops)))

    def run(self, k):
        source, target = self.pairs[k]
        return self.pw.search_equivalence(source, target, self.ops[k].depth)

    def check(self, k, out) -> None:
        o = self.ops[k]
        if o.shift is None:
            expect(out is None, "a witness was returned for a target proved unreachable")
            return
        expect(out is not None, f"no witness within depth {o.depth} for a reachable target")
        expect(len(out) <= o.shift, f"witness of length {len(out)} is not shortest")
        expect(
            self._replay(o, self.own_source[k], out) == self.own_target[k],
            "witness does not reach the target",
        )


@dataclass(frozen=True)
class _Move:
    kind: str
    index: int | None


def _transform(matrix, cls) -> tuple[int, int]:
    (a, b), (c, d) = matrix
    x, y = cls
    return (a * x + b * y, c * x + d * y)


@dataclass(frozen=True)
class _Small:
    spec: TreeSpec
    emit_n: int


class BatchSmall(Workload):
    """One small tree through every layer, emission included."""

    name = "batch_small"
    NS = (3, 4, 5)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.cases = []
        for nv in range(2, 15):
            for leaves in (max(2, nv // 3), max(2, min(nv - 1, 2 * nv // 3))):
                spec = random_tree_spec(rng, nv, leaves)
                self.cases.append(_Small(spec, rng.choice(self.NS)))
        rng.shuffle(self.cases)

    def setup(self, pw) -> None:
        super().setup(pw)
        self.start = [[_build(pw, c.spec, n) for n in self.NS] for c in self.cases]

    def round_ops(self) -> list:
        return list(range(len(self.cases)))

    def run(self, k):
        pw = self.pw
        c = self.cases[k]
        ot = pw.order_tree(pw.parse_tree(c.spec.text))
        qd = pw.quotient(ot)
        words, reports = [], []
        for n in self.NS:
            alf = pw.fibrate(ot, n)
            words.append(alf)
            reports.append(pw.total_homology(alf))
        alf = words[self.NS.index(c.emit_n)]
        matching = pw.matching_cycles(alf, ot)
        text = pw.to_json(alf)
        back = pw.from_json(text)
        svg = pw.fibration.render_svg(alf, matching)
        return qd, words, reports, matching, text, back, svg

    def check(self, k, out) -> None:
        c = self.cases[k]
        nv, leaves = c.spec.nv, c.spec.nonroot_leaves
        qd, words, reports, matching, text, back, svg = out
        expect(
            len(qd.quotient_tree.vertices) == leaves,
            f"quotient has {len(qd.quotient_tree.vertices)} classes, want {leaves}",
        )
        for n, alf, report in zip(self.NS, words, reports):
            oracle.check_word_length(alf, nv, leaves)
            oracle.check_homology(report, nv, n)
        alf = words[self.NS.index(c.emit_n)]
        oracle.check_matching(matching, alf, nv)
        oracle.check_json(alf, text, back)
        oracle.check_svg(svg, len(alf.cycles), nv)


WORKLOADS = {w.name: w for w in (CertifyLarge, MovesLarge, SearchFamily, BatchSmall)}
