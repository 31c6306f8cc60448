"""The CLI byte contract: fixed commands, compared byte for byte.

Each case runs ``cli.main`` in-process on the committed inputs under
``tests/golden/inputs``, in an empty output directory, and compares its
stdout, stderr and exit code and every file it writes there with the bytes
recorded under ``tests/golden/expected/<case>``.  Run with
``-o pythonpath=``, the cases import an installed ``plumbweave`` rather
than ``src/``, so CI checks the installed package by them.  The CLI reads no
environment variable of its own, so the bytes depend only on the command
line and the inputs.  After an intended change of output, record the cases
again from the repository root with::

    PYTHONPATH=src python -m tests.test_golden
"""

from __future__ import annotations

import contextlib
import io
import shlex
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from plumbweave import cli

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
EXPECTED = GOLDEN / "expected"

# name -> (command line, stdin file); "{in}" is the inputs directory and
# "{out}" the output one
CASES = {
    "order_ex_text": ("order {in}/ex.tree", None),
    "order_ex_json": ("order {in}/ex.tree --json", None),
    "order_tree40_json": ("order {in}/tree40.tree --json --out {out}/order.json", None),
    "fibrate_ex_n3": ("fibrate {in}/ex.tree --n 3 --out {out}/fib.json --render {out}/fib.svg", None),
    "fibrate_ex_n4": ("fibrate {in}/ex.tree --n 4 --out {out}/fib.json --render {out}/fib.svg", None),
    "fibrate_tree40_n3": ("fibrate {in}/tree40.tree --n 3 --out {out}/fib.json --render {out}/fib.svg", None),
    "fibrate_tree40_n4": ("fibrate {in}/tree40.tree --n 4 --out {out}/fib.json --render {out}/fib.svg", None),
    "order_leaf_text": ("order {in}/leaf.tree", None),
    "order_leaf_json": ("order {in}/leaf.tree --json", None),
    "fibrate_leaf_n3": ("fibrate {in}/leaf.tree --n 3 --out {out}/fib.json --render {out}/fib.svg", None),
    "render_ex": ("render {in}/ex.tree --n 3 --out {out}/base.svg", None),
    "invariants_ex": ("invariants {in}/ex.tree --n 3", None),
    "invariants_tree40": ("invariants {in}/tree40.tree --n 4 --out {out}/inv.json", None),
    "invariants_count_full": ("invariants --n 3 --count 5 --full", None),
    "moves_apply_script": (
        "moves apply {in}/ex_n3.json --script {in}/moves.txt --out {out}/moved.json "
        "--seq-out {out}/seq.json",
        None,
    ),
    "moves_apply_edge_sign": (
        "moves apply {in}/ex_n3.json --move 'hurwitzA 1' --move 'hurwitzB 0' --edge-sign -1",
        None,
    ),
    "moves_apply_edge_sign_neg": (
        "moves apply {in}/ex_n3_neg.json --move 'hurwitzA 1' --edge-sign -1",
        None,
    ),
    "moves_apply_edge_sign_refused": (
        "moves apply {in}/ex_n3_neg.json --move 'hurwitzA 1' --out {out}/moved.json "
        "--seq-out {out}/seq.json",
        None,
    ),
    "moves_apply_stabilize": (
        "moves apply {in}/ex_n3.json --move 'stabilize w0 3' --move 'hurwitzA 3' --move cyclic "
        "--seq-out {out}/seq.json",
        None,
    ),
    "moves_replay": ("moves replay {in}/ex_n3.json {in}/seq.json", None),
    "moves_search_found": ("moves search {in}/ex_n3.json {in}/target.json --depth 4", None),
    "moves_search_exhausted": ("moves search {in}/ex_n3.json {in}/target.json --depth 1", None),
    "moves_search_a_d_found": ("moves search {in}/d7_n3.json {in}/a7_n3.json --depth 7", None),
    "moves_search_a_d_exhausted": ("moves search {in}/d7_n3.json {in}/a7_n3.json --depth 6", None),
    "moves_search_lattice_cut": (
        "moves search {in}/family_6_1_n4.json {in}/family_6_3_n4_index2.json --depth 50",
        None,
    ),
    "moves_search_edge_sign": (
        "moves search {in}/ex_n3_neg.json {in}/ex_n3_neg_cyclic.json --depth 1 --edge-sign -1",
        None,
    ),
    "moves_search_edge_sign_refused": (
        "moves search {in}/ex_n3_neg.json {in}/ex_n3_neg_cyclic.json --depth 1",
        None,
    ),
    "moves_repl": ("moves repl {in}/ex_n3.json --out {out}/repl.json", "repl.txt"),
    "family_pass_text": ("family --m 6 --j 1 --shift 4 --n 3", None),
    "family_pass_json": ("family --m 6 --j 1 --shift 4 --n 3 --json", None),
    "family_fail_text": ("family --m 6 --j 1 --shift 4 --n 4", None),
    "family_fail_json": ("family --m 6 --j 1 --shift 4 --n 4 --json --out {out}/family.json", None),
    "selftest_text": ("selftest --trees 40 --oracle-trees 8", None),
    "selftest_json": ("selftest --trees 40 --oracle-trees 8 --json", None),
    "bad_tree_line": ("order {in}/bad.tree", None),
    "bad_move_kind": ("moves replay {in}/ex_n3.json {in}/bad_kind.json", None),
    "bad_fibration_n": ("moves replay {in}/bad_n.json {in}/seq.json", None),
    "bad_fibration_sphere_dim": ("moves replay {in}/bad_sphere_dim.json {in}/seq.json", None),
    "bad_fibration_pattern": ("moves replay {in}/bad_pattern.json {in}/seq.json", None),
}


def run_case(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one case and return its bytes by name: ``stdout``, ``stderr``,
    ``exit`` and ``files/<name>`` for each file it wrote."""
    command, stdin_file = CASES[name]
    argv = [word.format(**{"in": INPUTS, "out": out_dir}) for word in shlex.split(command)]
    stdin = (INPUTS / stdin_file).read_text(encoding="utf-8") if stdin_file else ""
    stdout, stderr = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    got = {
        "stdout": stdout.getvalue().encode("utf-8"),
        "stderr": stderr.getvalue().encode("utf-8"),
        "exit": f"{code}\n".encode(),
    }
    for path in sorted(out_dir.iterdir()):
        got[f"files/{path.name}"] = path.read_bytes()
    return got


def recorded(name: str) -> dict[str, bytes]:
    case_dir = EXPECTED / name
    return {
        str(path.relative_to(case_dir)): path.read_bytes()
        for path in sorted(case_dir.rglob("*"))
        if path.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_match_the_recording(name, tmp_path):
    got = run_case(name, tmp_path)
    want = recorded(name)
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], f"{name}: {key} differs"


def test_every_recording_has_a_case():
    assert sorted(p.name for p in EXPECTED.iterdir()) == sorted(CASES)


def record() -> None:
    """Write every case's bytes under ``tests/golden/expected``, afresh."""
    shutil.rmtree(EXPECTED, ignore_errors=True)
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for key, data in run_case(name, Path(tmp)).items():
                path = EXPECTED / name / key
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(data)


if __name__ == "__main__":
    record()
