"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact; runtime budgets are asserted against
wall-clock measurements (best of three for the sub-10ms ones).
"""

import json
import random
import time

from plumbweave import (
    cyclic_permute,
    equal_homology,
    family_word,
    fibrate,
    hurwitz_a,
    hurwitz_b,
    matching_cycles,
    order_tree,
    parse_tree,
    quotient,
    random_tree,
    replay,
    search_equivalence,
    smith_normal_form,
    stabilize,
    total_homology,
    wedge_oracle,
)
from plumbweave.cli import main
from plumbweave.fibration import from_json, to_json
from .conftest import EX_TEXT

EX_WORD = [
    "L_{q(v1)}", "L_{q(v5)}", "L_{q(v0)}", "L_{q(v4)}", "L_{q(v3)}",
    "L_{q(v1)}", "L_{q(v2)}", "L_{q(v3)}", "L_{q(v4)}", "L_{q(v5)}",
]


def _report(num, name, ok, detail=""):
    print(f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} ({name}) failed{detail}"


def _best_of(fn, repeats=3):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return result, best


def test_criterion_1_worked_example():
    tree = parse_tree(EX_TEXT)

    def compute():
        ot = order_tree(tree)
        return fibrate(ot, 3), quotient(ot)

    (alf, qd), elapsed = _best_of(compute)
    ok = (
        list(alf.word_displays()) == EX_WORD
        and len(alf.cycles) == 10
        and qd.q["v0"] == qd.q["v1"] == qd.q["v2"]
        and len(qd.quotient_tree.vertices) == 4
        and sorted(
            sum(1 for e in qd.quotient_tree.edges if w in e)
            for w in qd.quotient_tree.vertices
        )
        == [1, 1, 1, 3]
        and elapsed < 1e-3
    )
    _report(1, "worked example", ok, f" ({elapsed * 1e6:.0f}us)")


def test_criterion_2_cycle_count_identity():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(1000):
        t = random_tree(seed, 14)
        ot = order_tree(t)
        word_len = len(fibrate(ot, 3).cycles)
        expected = len(t.vertices) + len(quotient(ot).quotient_tree.vertices)
        if word_len != expected:
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 1.0
    _report(2, "cycle-count identity", ok, f" ({elapsed:.2f}s, {failures} failures)")


def test_criterion_3_homology_oracle():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(200):
        t = random_tree(seed, 14)
        ot = order_tree(t)
        for n in (3, 4, 5):
            alf = fibrate(ot, n)
            rep = total_homology(alf)
            if rep != wedge_oracle(t, n):
                failures += 1
                continue
            if any(d != 1 for d in smith_normal_form(tuple(zip(*alf.word_classes()))).divisors):
                failures += 1
            if rep.euler != 1 + (-1) ** n * len(t.vertices):
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 10.0
    _report(3, "homology oracle", ok, f" ({elapsed:.2f}s, {failures} failures)")


def test_criterion_4_move_invariance():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(100):
        t = random_tree(seed, 14)
        alf = fibrate(order_tree(t), 3 + seed % 3)
        base = total_homology(alf)
        rng = random.Random(seed)
        stab_slots = set(rng.sample(range(100), 5))
        cur = alf
        for k in range(100):
            mlen = len(cur.cycles)
            if k in stab_slots:
                attach = cur.fiber.pattern.vertices[
                    rng.randrange(len(cur.fiber.pattern.vertices))
                ]
                cur = stabilize(cur, attach, rng.randrange(mlen + 1))
            else:
                kind = rng.choice("cab")
                if kind == "c":
                    cur = cyclic_permute(cur)
                elif kind == "a":
                    cur = hurwitz_a(cur, rng.randrange(mlen - 1))
                else:
                    cur = hurwitz_b(cur, rng.randrange(mlen - 1))
            if total_homology(cur) != base:
                failures += 1
                break
        i = rng.randrange(len(cur.cycles) - 1)
        if hurwitz_b(hurwitz_a(cur, i), i).word_classes() != cur.word_classes():
            failures += 1
        if hurwitz_a(hurwitz_b(cur, i), i).word_classes() != cur.word_classes():
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 30.0
    _report(4, "move invariance", ok, f" ({elapsed:.2f}s, {failures} failures)")


def test_criterion_5_family_verification(capsys):
    runs = [
        (["family", "--m", "6", "--j", "1", "--shift", "4", "--n", "5", "--json"], 0, [0, 1]),
        (["family", "--m", "6", "--j", "1", "--shift", "4", "--n", "4", "--json"], 1, [-4, 1]),
        (["family", "--m", "6", "--j", "1", "--shift", "2", "--n", "3", "--json"], 0, [0, 1]),
    ]
    ok = True
    detail = []
    for argv, want_code, want_final in runs:
        def invoke():
            code = main(argv)
            out = capsys.readouterr().out
            return code, out

        (code, out), elapsed = _best_of(invoke)
        doc = json.loads(out)
        this_ok = (
            code == want_code
            and doc["final_interior_class"]["coords"] == want_final
            and len(doc["witness"]) == int(argv[6])
            and elapsed < 0.01
        )
        ok = ok and this_ok
        detail.append(f"{elapsed * 1e3:.1f}ms")
    with capsys.disabled():
        _report(5, "family verification", ok, f" ({', '.join(detail)})")


def test_criterion_6_matching_cycles():
    t0 = time.perf_counter()
    failures = 0
    for seed in range(500):
        t = random_tree(seed, 14)
        ot = order_tree(t)
        alf = fibrate(ot, 3)
        qd = quotient(ot)
        pairs = matching_cycles(alf, ot)
        if len(pairs) != len(t.vertices):
            failures += 1
            continue
        for mc in pairs:
            i, j = mc.endpoints
            a, b = alf.cycles[i], alf.cycles[j]
            if a.cls != b.cls:
                failures += 1
            # the displayed symbols L_{q(.)} must resolve to the same class
            va, vb = (
                c.display.removeprefix("L_{q(").removesuffix(")}") for c in (a, b)
            )
            ia, ib = int(va[1:]), int(vb[1:])
            if qd.q[ot.vertex_order[ia]] != qd.q[ot.vertex_order[ib]]:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 2.0
    _report(6, "matching cycles", ok, f" ({elapsed:.2f}s, {failures} failures)")


def test_criterion_7_search():
    a, b = family_word(6, 1, 5), family_word(6, 5, 5)
    t0 = time.perf_counter()
    witness = search_equivalence(a, b, 6)
    elapsed = time.perf_counter() - t0
    replayed = replay(a, witness) if witness is not None else None
    ok = (
        witness is not None
        and len(witness) <= 4
        and equal_homology(replayed, b)
        and elapsed < 5.0
    )
    _report(
        7, "search", ok,
        f" ({elapsed:.2f}s, witness length {len(witness) if witness else 'none'})",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    ex = tmp_path / "ex.tree"
    ex.write_text(EX_TEXT, encoding="utf-8")
    svg1, svg2 = tmp_path / "r1.svg", tmp_path / "r2.svg"
    j1, j2 = tmp_path / "f1.json", tmp_path / "f2.json"

    ok = True
    for args in (
        ["fibrate", str(ex), "--n", "3", "--out", str(j1), "--render", str(svg1)],
        ["fibrate", str(ex), "--n", "3", "--out", str(j2), "--render", str(svg2)],
    ):
        ok = ok and main(args) == 0
    capsys.readouterr()
    ok = ok and j1.read_bytes() == j2.read_bytes()
    ok = ok and svg1.read_bytes() == svg2.read_bytes()

    # stdout of repeated runs is byte-identical too
    outs = set()
    for _ in range(2):
        assert main(["order", str(ex), "--json"]) == 0
        outs.add(capsys.readouterr().out)
    ok = ok and len(outs) == 1

    # fibration JSON round-trips losslessly
    text = j1.read_text(encoding="utf-8")
    ok = ok and to_json(from_json(text)) == text

    with capsys.disabled():
        _report(8, "determinism & formats", ok)


def test_criterion_9_base_case_audit(capsys, tmp_path):
    out = tmp_path / "selftest.json"
    code = main(
        ["selftest", "--trees", "1000", "--oracle-trees", "200", "--json",
         "--out", str(out)]
    )
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    summary = doc["base_case"]["summary"]
    suite = doc["random_suite"]
    # the audit must report a verdict for both readings and both parities;
    # the build gate is only the literal algorithm against the random suite
    ok = (
        code == 0
        and set(doc["base_case"]["variants"]) == {"literal_steps", "two_cycle_variant"}
        and summary["literal_steps_matches_oracle"] is True
        and suite["cycle_identity"]["failures"] == []
        and suite["homology_oracle"]["failures"] == []
    )
    two_cycle = summary["two_cycle_variant_matches_oracle"]
    with capsys.disabled():
        _report(
            9, "base-case audit", ok,
            f" (literal matches oracle; two-cycle variant matches: {two_cycle})",
        )
