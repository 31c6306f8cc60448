"""Each benchmark check accepts the program's real output and rejects a
corrupted copy of it, so none of them passes vacuously.

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import plumbweave as pw  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from inputs import random_tree_spec  # noqa: E402
from oracle import CheckFailed  # noqa: E402
from workloads import BatchSmall, CertifyLarge, MovesLarge, SearchFamily  # noqa: E402


def ready(cls, seed=7):
    wl = cls(seed)
    wl.setup(pw)
    wl.prepare()
    return wl


def with_class(alf, pos, cls):
    cycles = list(alf.cycles)
    cycles[pos] = dataclasses.replace(cycles[pos], cls=tuple(cls))
    return dataclasses.replace(alf, cycles=tuple(cycles))


def flipped(alf, pos):
    cls = list(alf.cycles[pos].cls)
    cls[0] += 1
    return with_class(alf, pos, cls)


def with_h(report, deg, free, torsion):
    h = tuple((d, free, torsion) if d == deg else (d, f, t) for d, f, t in report.h)
    return dataclasses.replace(report, h=h)


class InputsTest(unittest.TestCase):
    def test_word_length_identity(self):
        rng = random.Random(0)
        for _ in range(3000):
            nv = rng.randint(2, 40)
            spec = random_tree_spec(rng, nv, rng.randint(2, max(2, nv - 1)))
            alf = pw.fibrate(pw.order_tree(pw.parse_tree(spec.text)), 3)
            oracle.check_word_length(alf, spec.nv, spec.nonroot_leaves)
            self.assertEqual(len(alf.fiber.pattern.vertices), spec.nonroot_leaves)

    def test_same_seed_same_inputs(self):
        a, b, c = CertifyLarge(3), CertifyLarge(3), CertifyLarge(4)
        self.assertEqual(a.cases, b.cases)
        self.assertNotEqual(a.cases, c.cases)

    def test_seeds_ask_for_the_same_work(self):
        def certify(seed):
            return [(c.spec.nv, c.spec.nonroot_leaves, c.n % 2, len(c.script))
                    for c in CertifyLarge(seed).cases]

        def search(seed):
            return sorted((o.m, o.j, o.n % 2, o.depth, o.shift or 0) for o in SearchFamily(seed).ops)

        self.assertEqual(certify(3), certify(4))
        self.assertEqual(search(3), search(4))


class BatchSmallChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = ready(BatchSmall)
        cls.k = max(range(len(cls.wl.cases)), key=lambda k: cls.wl.cases[k].spec.nv)
        cls.out = cls.wl.run(cls.k)

    def rejects(self, **changes):
        names = ("qd", "words", "reports", "matching", "text", "back", "svg")
        out = dict(zip(names, self.out), **changes)
        with self.assertRaises(CheckFailed):
            self.wl.check(self.k, tuple(out[n] for n in names))

    def test_accepts_real_output(self):
        self.wl.check(self.k, self.out)

    def test_rejects_torsion(self):
        reports = list(self.out[2])
        n = self.wl.NS[0]
        reports[0] = with_h(reports[0], n - 1, 0, (2,))
        self.rejects(reports=reports)

    def test_rejects_wrong_rank(self):
        reports = list(self.out[2])
        n = self.wl.NS[1]
        reports[1] = with_h(reports[1], n, self.wl.cases[self.k].spec.nv - 1, ())
        self.rejects(reports=reports)

    def test_rejects_wrong_euler(self):
        reports = list(self.out[2])
        reports[2] = dataclasses.replace(reports[2], euler=reports[2].euler + 1)
        self.rejects(reports=reports)

    def test_rejects_dropped_cycle(self):
        words = list(self.out[1])
        words[0] = dataclasses.replace(words[0], cycles=words[0].cycles[:-1])
        self.rejects(words=words)

    def test_rejects_dropped_matching_cycle(self):
        self.rejects(matching=self.out[3][:-1])

    def test_rejects_json_that_does_not_round_trip(self):
        self.rejects(back=flipped(self.out[5], 0))
        doc = json.loads(self.out[4])
        doc["cycles"][0]["coords"][0] += 1
        self.rejects(text=json.dumps(doc))

    def test_rejects_svg_missing_a_singular_value(self):
        svg = self.out[6].replace('<polygon class="singular"', "<polygon", 1)
        self.rejects(svg=svg)

    def test_rejects_svg_missing_a_chord(self):
        svg = self.out[6].replace('class="matching"', 'class="other"', 1)
        self.rejects(svg=svg)

    def test_rejects_svg_that_does_not_parse(self):
        self.rejects(svg=self.out[6][:-10])


class CertifyLargeChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = ready(CertifyLarge)
        moved = [k for k, c in enumerate(cls.wl.cases) if c.script]
        cls.k = min(moved, key=lambda k: cls.wl.cases[k].spec.nv)
        cls.out = cls.wl.run(cls.k)

    def test_accepts_real_output(self):
        self.wl.check(self.k, self.out)

    def test_rejects_torsion(self):
        alf, report = self.out
        with self.assertRaises(CheckFailed):
            self.wl.check(self.k, (alf, with_h(report, alf.n - 1, 0, (3,))))

    def test_rejects_flipped_class_coordinate(self):
        alf, report = self.out
        with self.assertRaises(CheckFailed):
            self.wl.check(self.k, (flipped(alf, len(alf.cycles) // 2), report))

    def test_rejects_dropped_cycle(self):
        alf, report = self.out
        short = dataclasses.replace(alf, cycles=alf.cycles[1:])
        with self.assertRaises(CheckFailed):
            self.wl.check(self.k, (short, report))


class MovesLargeChecks(unittest.TestCase):
    def setUp(self):
        self.wl = ready(MovesLarge)
        self.ops = self.wl.round_ops()

    def first_hurwitz(self):
        for step, op in enumerate(self.ops):
            kind, i = self.wl.scripts[op[0]][op[1]]
            if kind != "cyclic_permute":
                return step, op, i
        raise AssertionError("script without Hurwitz moves")

    def test_accepts_real_output(self):
        for op in self.ops[:20]:
            self.wl.check(op, self.wl.run(op))

    def test_rejects_flipped_class_coordinate(self):
        step, op, i = self.first_hurwitz()
        for prior in self.ops[:step]:
            self.wl.check(prior, self.wl.run(prior))
        out = self.wl.run(op)
        with self.assertRaises(CheckFailed):
            self.wl.check(op, flipped(out, i + 1))

    def test_final_word_is_compared_in_full(self):
        alf = self.wl.start[0]
        ref = list(self.wl.ref_start[0])
        oracle.check_classes(alf, ref, range(len(ref)))
        with self.assertRaises(CheckFailed):
            oracle.check_classes(flipped(alf, len(ref) - 3), ref, range(len(ref)))


class SearchFamilyChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.wl = ready(SearchFamily)
        ops = cls.wl.ops
        cls.reach = next(k for k, o in enumerate(ops) if o.shift == 4)
        cls.unreach = next(k for k, o in enumerate(ops) if o.shift is None)
        cls.witness = cls.wl.run(cls.reach)

    def test_accepts_real_output(self):
        self.wl.check(self.reach, self.witness)
        self.wl.check(self.unreach, None)

    def test_rejects_witness_that_misses_the_target(self):
        with self.assertRaises(CheckFailed):
            self.wl.check(self.reach, self.witness[:-1])

    def test_rejects_witness_with_a_bad_index(self):
        bad = self.witness[:-1] + (dataclasses.replace(self.witness[-1], index=10**6),)
        with self.assertRaises(CheckFailed):
            self.wl.check(self.reach, bad)

    def test_rejects_missing_witness(self):
        with self.assertRaises(CheckFailed):
            self.wl.check(self.reach, None)

    def test_rejects_witness_for_unreachable_target(self):
        with self.assertRaises(CheckFailed):
            self.wl.check(self.unreach, self.witness)

    def test_minor_gcd_separates_only_different_lattices(self):
        o = self.wl.ops[self.reach]
        src = self.wl.own_source[self.reach]
        tgt = self.wl.own_target[self.reach]
        self.assertEqual(oracle.minor_gcd(src), oracle.minor_gcd(tgt))
        self.assertEqual(oracle.minor_gcd(src), 1)
        doubled = [(a, 2 * b) for a, b in tgt]
        self.assertEqual(oracle.minor_gcd(doubled), 2)
        self.assertIsNotNone(o.shift)


class TwistTest(unittest.TestCase):
    def test_sparse_twist_matches_definition_on_random_words(self):
        rng = random.Random(1)
        for n in (3, 4):
            spec = random_tree_spec(rng, 30, 11)
            alf = pw.fibrate(pw.order_tree(pw.parse_tree(spec.text)), n)
            form = oracle.SparseForm.of_fiber(alf.fiber)
            ref = [oracle.sparse(c.cls) for c in alf.cycles]
            for _ in range(200):
                kind = rng.choice(("hurwitz_a", "hurwitz_b", "cyclic_permute"))
                i = rng.randrange(len(ref) - 1)
                alf = pw.cyclic_permute(alf) if kind == "cyclic_permute" else getattr(pw, kind)(alf, i)
                form.move(ref, kind, i)
            oracle.check_classes(alf, ref, range(len(ref)))


class TracerTest(unittest.TestCase):
    def test_sees_calls_inside_the_program_and_restores(self):
        orig = pw.lattice.smith_normal_form
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(pw.invariants.smith_normal_form, orig)
            ot = pw.order_tree(pw.parse_tree("root a e\nedge e a b\nedge f b c\n"))
            tracer.active = True
            alf = pw.fibrate(ot, 3)
            pw.total_homology(alf)
            pw.matching_cycles(alf, ot)
            tracer.active = False
        finally:
            tracer.uninstall()
        self.assertIs(pw.invariants.smith_normal_form, orig)
        m = tracer.metrics(1)
        self.assertEqual(m["lattice.smith_normal_form.calls"], 1)
        self.assertEqual(m["fibration.fibrate.calls"], 2)
        self.assertEqual(m["treecore.quotient.calls"], 2)
        # one quotient class by |V| + leaves = 4 cycles
        self.assertEqual(m["lattice.smith_normal_form.cells"], 1 * 4)
        names = {name for name, _ in spans.metric_specs()}
        self.assertLessEqual(set(m), names)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        import run

        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in doc["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in doc["per_layer"]], spans.metric_specs()
        )

    def test_last_line_reports_every_metric(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "batch_small",
                 "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
            )
            self.assertEqual(proc.returncode, 0)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertEqual(
                sorted(result["metrics"]), sorted(m["name"] for m in doc[group])
            )


class CalibrationTest(unittest.TestCase):
    def test_a_uniformly_slower_host_reads_the_same(self):
        import run

        self.assertAlmostEqual(run.calibrated(0.03, 0.002, 0.002),
                               run.calibrated(0.045, 0.003, 0.003))
        # at the reference speed a calibrated time is the raw time
        ref = run.SPIN_LOOPS / run.REF_LOOPS_PER_S
        self.assertAlmostEqual(run.calibrated(0.03, ref, ref), 0.03)


class FailureTest(unittest.TestCase):
    def test_a_raising_program_makes_the_run_incorrect(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".benchtest-") as tmp:
            for part in ("bench", "src"):
                shutil.copytree(ROOT / part, Path(tmp) / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            with open(Path(tmp) / "src" / "plumbweave" / "invariants.py", "a") as f:
                f.write("\n\ndef total_homology(*args, **kwargs):\n"
                        "    raise RuntimeError('broken on purpose')\n")
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "batch_small",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=120,
            )
        self.assertEqual(proc.returncode, 1)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])


class NoProgramTest(unittest.TestCase):
    def test_exits_nonzero_without_source(self):
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".benchtest-") as tmp:
            shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "batch_small",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
