import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from plumbweave import fibration, invariants, order_tree, parse_tree, random_tree
from plumbweave.cli import main
from .conftest import EX_TEXT
from .test_treecore import tree_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fib_json(tmp_path, ex_file, capsys):
    out = tmp_path / "fib.json"
    code = main(["fibrate", ex_file, "--n", "3", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return str(out)


# ---------------------------------------------------------------------------
# order


def test_order_text(capsys, ex_file):
    code, out, _ = run(capsys, "order", ex_file)
    assert code == 0
    assert "vertex v3: id=v3 dist=2 height=2 coords=(2, 2)" in out
    assert "boundary: v2(v2) v3(v3) v4(v4) v5(v5)" in out


def test_python_m_plumbweave_runs_the_cli():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "plumbweave", "order", "tests/golden/inputs/ex.tree"],
        cwd=root, env=dict(os.environ, PYTHONPATH="src"), capture_output=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "tests/golden/expected/order_ex_text/stdout").read_bytes()


def test_order_json(capsys, ex_file):
    code, out, _ = run(capsys, "order", ex_file, "--json")
    assert code == 0
    doc = json.loads(out)
    assert [v["label"] for v in doc["vertices"]] == [f"v{i}" for i in range(6)]
    assert doc["edges"][0] == {
        "label": "e0", "id": "e0",
        "tail": "v0", "head": "v1", "tail_label": "v0", "head_label": "v1",
    }


@pytest.mark.parametrize("seed", [None, 37], ids=["running-example", "random-40"])
def test_order_json_coords_are_dist_and_height(capsys, ex_file, tmp_path, seed):
    path = ex_file
    if seed is not None:
        t = random_tree(seed, 40)
        assert len(t.vertices) == 40
        path = tmp_path / "random.tree"
        path.write_text(tree_text(t, lambda v: True), encoding="utf-8")
    code, out, _ = run(capsys, "order", str(path), "--json")
    assert code == 0
    ot = order_tree(parse_tree(Path(path).read_text(encoding="utf-8")))
    vertices = json.loads(out)["vertices"]
    assert [v["id"] for v in vertices] == list(ot.vertex_order)
    for i, v in enumerate(vertices):
        assert v["coords"] == [v["dist"], v["height"]]
        assert v["coords"] == [ot.dist[i], ot.height[i]]
    if seed is None:
        coords = {v["id"]: v["coords"] for v in vertices}
        assert coords["v3"] == [2, 2] and coords["v5"] == [1, 4] and coords["v0"][0] == 0


def test_order_bad_file_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("root a ab\nedge ab a b\nedge bc b c\nedge ca c a\n")
    code, _, err = run(capsys, "order", str(bad))
    assert code == 2
    assert "CycleDetected" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "order", str(tmp_path / "absent.tree"))
    assert code == 2


# ---------------------------------------------------------------------------
# fibrate / render


def test_fibrate_displays(capsys, ex_file):
    code, out, _ = run(capsys, "fibrate", ex_file, "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert [c["display"] for c in doc["cycles"]] == [
        "L_{q(v1)}", "L_{q(v5)}", "L_{q(v0)}", "L_{q(v4)}", "L_{q(v3)}",
        "L_{q(v1)}", "L_{q(v2)}", "L_{q(v3)}", "L_{q(v4)}", "L_{q(v5)}",
    ]
    assert doc["n"] == 3


def test_fibrate_bad_n_exits_2(capsys, ex_file):
    code, _, err = run(capsys, "fibrate", ex_file, "--n", "1")
    assert code == 2
    assert "BadDimension" in err


def test_fibrate_render_flag(capsys, ex_file, tmp_path):
    svg = tmp_path / "out.svg"
    code, _, _ = run(capsys, "fibrate", ex_file, "--n", "3", "--render", str(svg))
    assert code == 0
    text = svg.read_text(encoding="utf-8")
    assert text.count('class="singular"') == 10
    assert text.count('class="matching"') == 6


def test_render_subcommand(capsys, ex_file, tmp_path):
    svg1, svg2, svg3 = tmp_path / "a.svg", tmp_path / "b.svg", tmp_path / "c.svg"
    assert run(capsys, "render", ex_file, "--n", "3", "--out", str(svg1))[0] == 0
    assert run(capsys, "render", ex_file, "--n", "3", "--out", str(svg2))[0] == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    # fibrate --render writes the same bytes as render
    assert run(capsys, "fibrate", ex_file, "--n", "3", "--render", str(svg3))[0] == 0
    assert svg3.read_bytes() == svg1.read_bytes()


@pytest.mark.parametrize("n", [3, 4])
def test_render_is_fibrate_render_without_the_word(capsys, tmp_path, n):
    sources = sorted((Path(__file__).parent / "golden" / "inputs").glob("*.tree"))
    for seed in range(20):
        path = tmp_path / f"random{seed}.tree"
        path.write_text(tree_text(random_tree(seed, 14), lambda v: True), encoding="utf-8")
        sources.append(path)
    got, want, word = tmp_path / "render.svg", tmp_path / "fibrate.svg", tmp_path / "w.json"
    for source in map(str, sources):
        code, out, err = run(capsys, "render", source, "--n", str(n), "--out", str(got))
        assert out == ""
        fib = run(
            capsys, "fibrate", source, "--n", str(n), "--out", str(word), "--render", str(want)
        )
        assert (code, err) == (fib[0], fib[2]), source
        assert got.exists() == want.exists() == (code == 0), source
        if code == 0:
            assert got.read_bytes() == want.read_bytes(), source
            got.unlink()
            want.unlink()


# ---------------------------------------------------------------------------
# invariants


def test_invariants_single(capsys, ex_file):
    code, out, _ = run(capsys, "invariants", ex_file, "--n", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["oracle_match"] is True
    assert doc["chi"] == -5
    assert doc["homology"]["h"]["3"] == {"free_rank": 6, "torsion": []}
    assert doc["convention"]["self_intersection"] == -2


def test_invariants_caveat_n2(capsys, ex_file):
    code, out, _ = run(capsys, "invariants", ex_file, "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["homology"]["caveat_n2"] is True


def test_invariants_names_a_file_whose_name_is_not_utf8(capsys, tmp_path):
    name = os.fsencode(tmp_path) + b"/a\xff.tree"
    try:
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(EX_TEXT)
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    out = tmp_path / "r.json"
    code, _, _ = run(capsys, "invariants", os.fsdecode(name), "--n", "3", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["tree_id"] == "a\\xff.tree"


def test_invariants_batch(capsys):
    code, out, _ = run(
        capsys, "invariants", "--n", "4", "--count", "25", "--seed", "11"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_match"] is True
    assert doc["count"] == 25


def test_invariants_needs_input(capsys):
    code, _, err = run(capsys, "invariants", "--n", "3")
    assert code == 2


def test_the_environment_sets_no_seed(capsys, monkeypatch, ex_file):
    # --seed is the only source of a batch's seed: the environment neither
    # fails a run nor moves the default off 0
    monkeypatch.setenv("PLUMBWEAVE_SEED", "abc")
    code, _, _ = run(capsys, "invariants", ex_file, "--n", "3")
    assert code == 0
    code, out, _ = run(capsys, "invariants", "--n", "3", "--count", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 0


def exit_code(argv):
    """main's return code, or argparse's exit code when it rejects argv."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["fibrate", "{tree}", "--n", "1"],
        ["invariants", "--n", "3", "--count", "0"],
        ["moves", "search", "{fib}", "{fib}", "--depth", "0"],
        ["invariants", "--n", "3", "--count", "2", "--max-vertices", "1"],
        ["invariants", "{tree}", "--n", "3", "--count", "2"],
        ["invariants", "--n", "3", "--count", "1", "--seed", "abc"],
        ["selftest", "--trees", "1", "--oracle-trees", "0", "--seed", "abc"],
        ["invariants", "{tree}", "--n", "3", "--edge-sign", "-1"],
    ],
)
def test_bad_run_parameters_exit_2(capsys, ex_file, fib_json, argv):
    assert exit_code([a.format(tree=ex_file, fib=fib_json) for a in argv]) == 2


# ---------------------------------------------------------------------------
# moves


def test_moves_apply_and_replay_byte_identical(capsys, fib_json, tmp_path):
    seq = tmp_path / "seq.json"
    first = tmp_path / "moved.json"
    code, _, _ = run(
        capsys, "moves", "apply", fib_json,
        "--move", "hurwitzA 0", "--move", "cyclic",
        "--out", str(first), "--seq-out", str(seq),
    )
    assert code == 0
    assert json.loads(seq.read_text()) == [
        {"kind": "hurwitz_a", "index": 0},
        {"kind": "cyclic_permute"},
    ]
    replayed = tmp_path / "replayed.json"
    code, _, _ = run(
        capsys, "moves", "replay", fib_json, str(seq), "--out", str(replayed)
    )
    assert code == 0
    assert first.read_bytes() == replayed.read_bytes()


def test_moves_apply_script(capsys, fib_json, tmp_path):
    script = tmp_path / "moves.txt"
    script.write_text("# push once\nhurwitzA 0\nhurwitzB 0\n")
    code, out, _ = run(capsys, "moves", "apply", fib_json, "--script", str(script))
    assert code == 0
    doc = json.loads(out)
    original = json.loads(Path(fib_json).read_text(encoding="utf-8"))
    assert [c["coords"] for c in doc["cycles"]] == [
        c["coords"] for c in original["cycles"]
    ]


@pytest.mark.parametrize("n", [1, 0])
def test_moves_apply_n_below_2_exits_2_and_writes_nothing(capsys, fib_json, tmp_path, n):
    doc = json.loads(Path(fib_json).read_text(encoding="utf-8"))
    doc["n"], doc["fiber"]["sphere_dim"] = n, n - 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "moves", "apply", str(bad), "--move", "cyclic", "--out", str(out))
    assert code == 2
    assert "BadDimension" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "ex.tree", "fib.json"]


def test_moves_apply_bad_index_exits_2(capsys, fib_json):
    code, _, err = run(capsys, "moves", "apply", fib_json, "--move", "hurwitzA 99")
    assert code == 2
    assert "IndexOutOfRange" in err


MALFORMED_FIBRATIONS = {
    "infinite n": ('"n": 3', '"n": Infinity'),
    "infinite sphere_dim": ('"sphere_dim": 2', '"sphere_dim": Infinity'),
    "lone surrogate display": ('"display": "L_{q(v1)}"', '"display": "\\ud800"'),
    "lone surrogate label": ('"label": "edge:e0"', '"label": "edge:\\udfff"'),
    "numeric display": ('"display": "L_{q(v1)}"', '"display": 5'),
    "null display": ('"display": "L_{q(v1)}"', '"display": null'),
    "numeric pattern vertex": ('"w0"', "0"),
    # an object or a string iterates as keys or characters, so as no cycles
    "object cycles": ('"cycles": [', '"cycles": {}, "unread": ['),
    "string cycles": ('"cycles": [', '"cycles": "", "unread": ['),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FIBRATIONS))
def test_malformed_fibration_exits_2_and_writes_nothing(capsys, fib_json, tmp_path, case):
    old, new = MALFORMED_FIBRATIONS[case]
    text = Path(fib_json).read_text(encoding="utf-8")
    assert old in text
    bad = tmp_path / "bad.json"
    bad.write_text(text.replace(old, new, 1), encoding="utf-8")
    out = tmp_path / "out.json"
    code, _, err = run(capsys, "moves", "apply", str(bad), "--move", "cyclic", "--out", str(out))
    assert code == 2
    assert "FormatError" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "ex.tree", "fib.json"]


@pytest.mark.parametrize(
    "doc",
    [
        "[1, 2]",
        '[{"kind": "hurwitz_a", "index": true}]',
        "[" + "9" * 5000 + "]",
        '[{"kind": "cyclic_permute", "index": [1, 2], "vertex": 5}]',
        '[{"kind": "hurwitz_a", "index": 0, "vertex": "v1"}]',
    ],
    ids=[
        "numbers",
        "boolean index",
        "past the digit limit",
        "cyclic with index",
        "hurwitz with vertex",
    ],
)
def test_malformed_move_sequence_exits_2(capsys, fib_json, tmp_path, doc):
    seq = tmp_path / "seq.json"
    seq.write_text(doc)
    code, _, err = run(capsys, "moves", "replay", fib_json, str(seq))
    assert code == 2
    assert "FormatError" in err


def test_non_utf8_tree_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_bytes(b"root v0 e0\nedge e0 v0 \xff\n")
    code, _, err = run(capsys, "order", str(bad))
    assert code == 2
    assert "FormatError" in err and "not UTF-8" in err


def test_moves_search_found_and_not_found(capsys, tmp_path):
    from plumbweave import family_word
    from plumbweave.fibration import to_json

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(to_json(family_word(6, 1, 5)))
    b.write_text(to_json(family_word(6, 5, 5)))
    code, out, _ = run(capsys, "moves", "search", str(a), str(b), "--depth", "6")
    assert code == 0
    assert len(json.loads(out)) <= 4
    code, _, err = run(capsys, "moves", "search", str(a), str(b), "--depth", "1")
    assert code == 3
    assert "no witness" in err


def test_moves_repl(capsys, fib_json, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("hurwitzA 0\nbogus\nquit\n"))
    code, out, _ = run(capsys, "moves", "repl", fib_json)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("word[10]: L_{q(v1)}")
    assert lines[1].startswith("chi=-5")
    assert "τ[" in lines[2]
    assert any(l.startswith("error: FormatError") for l in lines)


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_moves_repl_refuses_stdin_that_is_not_utf8(
    capsys, fib_json, tmp_path, monkeypatch, errors
):
    stdin = io.BytesIO(b"cyclic\n\xff\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(stdin, encoding="utf-8", errors=errors))
    out = tmp_path / "repl.json"
    code, _, err = run(capsys, "moves", "repl", fib_json, "--out", str(out))
    assert code == 2
    assert err.startswith("error: FormatError: <stdin>: not UTF-8 text: ")
    assert not out.exists()


def test_moves_repl_reports_torsion(capsys, tmp_path, monkeypatch):
    import io

    # classes 2a + b and 3b: the boundary map has divisors 1 and 6; at
    # n = 4 the form is antisymmetric, so every class is a sphere class,
    # while at n = 3 2a + b has square -6 and the word is refused
    doc = {
        "fiber": {"pattern": {"vertices": ["a", "b"], "edges": [["a", "b"]]}, "sphere_dim": 3},
        "cycles": [
            {"label": "vertex:x", "coords": [2, 1], "display": "x"},
            {"label": "vertex:y", "coords": [0, 3], "display": "y"},
        ],
        "n": 4,
    }
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    code, out, _ = run(capsys, "moves", "repl", str(path))
    assert code == 0
    assert out.splitlines() == ["word[2]: x, y", "chi=1 H0=Z^1 H3=0+torsion[6] H4=0"]
    path.write_text(json.dumps({**doc, "fiber": {**doc["fiber"], "sphere_dim": 2}, "n": 3}))
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    code, out, err = run(capsys, "moves", "repl", str(path))
    assert (code, out) == (2, "")
    assert "NonInvertibleTwist: source cycle 0 (vertex:x) has square -6" in err


NEG_WORD = Path(__file__).parent / "golden" / "inputs" / "ex_n3_neg.json"
NEG_SEQ = Path(__file__).parent / "golden" / "inputs" / "seq.json"


@pytest.mark.parametrize(
    "argv",
    [
        ["apply", str(NEG_WORD), "--move", "hurwitzA 1", "--seq-out", "{tmp}/seq.json"],
        ["replay", str(NEG_WORD), str(NEG_SEQ)],
        ["repl", str(NEG_WORD)],
    ],
    ids=["apply", "replay", "repl"],
)
def test_move_commands_refuse_a_word_that_is_no_sphere_word(capsys, tmp_path, monkeypatch, argv):
    # a word moved under edge sign -1 and not carried to +1 by the basis
    # flip holds classes of square -6: each command refuses it before the
    # first move and writes nothing
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path / "out.json")]
    monkeypatch.setattr("sys.stdin", io.StringIO("hurwitzA 1\n"))
    code, out, err = run(capsys, "moves", *argv)
    assert (code, out, list(tmp_path.iterdir())) == (2, "", [])
    assert err == (
        "error: NonInvertibleTwist: source cycle 2 (edge:e4) has square -6 under edge sign +1; "
        "moves take sphere classes only\n"
    )


# ---------------------------------------------------------------------------
# family


def test_family_exit_codes(capsys):
    assert run(capsys, "family", "--m", "6", "--j", "1", "--shift", "4", "--n", "5")[0] == 0
    assert run(capsys, "family", "--m", "6", "--j", "1", "--shift", "4", "--n", "4")[0] == 1
    assert run(capsys, "family", "--m", "6", "--j", "1", "--shift", "2", "--n", "3")[0] == 0


def test_family_report_contents(capsys):
    code, out, _ = run(
        capsys, "family", "--m", "6", "--j", "1", "--shift", "4", "--n", "4", "--json"
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["final_interior_class"]["coords"] == [-4, 1]
    assert doc["final_interior_class"]["pretty"] == "-4α + β"
    assert doc["interior_position"] == {"zero_based": 2, "one_based": 3}
    assert doc["parity"] == "antisymmetric"
    assert [w["index"] for w in doc["witness"]] == [2, 3, 4, 5]


def test_family_bad_arguments(capsys):
    assert run(capsys, "family", "--m", "6", "--j", "4", "--shift", "4", "--n", "5")[0] == 2
    assert run(capsys, "family", "--m", "6", "--j", "1", "--shift", "3", "--n", "5")[0] == 2


@pytest.mark.parametrize("n", ["3", "5"])
def test_family_relation_holds_at_odd_n(capsys, n):
    code, out, _ = run(
        capsys, "family", "--m", "6", "--j", "1", "--shift", "4", "--n", n, "--json"
    )
    assert code == 0
    assert json.loads(out)["convention"] == {
        "self_intersection": -2, "edge_sign": 1, "twist_sign": 1
    }


# every subcommand whose report or twists carry the sign convention; none
# takes a sign option: the square and the twist sign are fixed by the
# geometry, and the edge sign -1 is the +1 lattice in another basis
CONVENTION_COMMANDS = {
    "invariants": ["invariants", "{tree}", "--n", "3"],
    "moves apply": ["moves", "apply", "{fib}", "--move", "cyclic"],
    "moves replay": ["moves", "replay", "{fib}", "{fib}"],
    "moves search": ["moves", "search", "{fib}", "{fib}", "--depth", "1"],
    "moves repl": ["moves", "repl", "{fib}"],
    "family": ["family", "--m", "6", "--j", "1", "--shift", "4", "--n", "3"],
}


@pytest.mark.parametrize(
    "option", [["--self-intersection", "2"], ["--twist-sign", "-1"], ["--edge-sign", "-1"]]
)
@pytest.mark.parametrize("command", list(CONVENTION_COMMANDS))
def test_removed_sign_options_exit_2(capsys, ex_file, fib_json, command, option):
    argv = [a.format(tree=ex_file, fib=fib_json) for a in CONVENTION_COMMANDS[command]]
    assert exit_code(argv + option) == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest and determinism


def test_selftest_ok(capsys):
    code, out, _ = run(
        capsys, "selftest", "--trees", "60", "--oracle-trees", "12", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["base_case"]["summary"]["literal_steps_matches_oracle"] is True
    assert doc["base_case"]["summary"]["two_cycle_variant_matches_oracle"] is False
    assert doc["random_suite"]["cycle_identity"]["failures"] == []


@pytest.mark.parametrize("trees, oracle_trees", [(3, 5), (5, 3)])
def test_selftest_suites_of_different_sizes(capsys, monkeypatch, trees, oracle_trees):
    argv = ["selftest", "--trees", str(trees), "--oracle-trees", str(oracle_trees)]
    code, out, _ = run(capsys, *argv, "--seed", "7", "--json")
    assert code == 0
    suite = json.loads(out)["random_suite"]
    assert suite["cycle_identity"] == {"trees": trees, "failures": []}
    assert suite["homology_oracle"]["trees"] == oracle_trees
    assert suite["homology_oracle"]["failures"] == []

    # break both checks on every tree: each suite must report each of its trees
    real_fibrate, real_oracle = fibration.fibrate, invariants.wedge_oracle

    def short_word(ot, n):
        alf = real_fibrate(ot, n)
        return replace(alf, cycles=alf.cycles[:-1])

    def wrong_oracle(t, n):
        rep = real_oracle(t, n)
        return replace(rep, euler=rep.euler + 1)

    monkeypatch.setattr(fibration, "fibrate", short_word)
    monkeypatch.setattr(invariants, "wedge_oracle", wrong_oracle)
    code, out, _ = run(capsys, *argv, "--seed", "7", "--json")
    assert code == 1
    suite = json.loads(out)["random_suite"]
    assert suite["cycle_identity"]["failures"] == [7 + i for i in range(trees)]
    assert suite["homology_oracle"]["failures"] == [
        [7 + i, n] for i in range(oracle_trees) for n in (3, 4, 5)
    ]


@pytest.mark.parametrize("flag", ["--oracle-trees", "--trees"])
@pytest.mark.parametrize("value", ["-5", "x"])
def test_selftest_rejects_bad_counts(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", flag, value])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert f"expected a count of 0 or more, got '{value}'" in err


def test_repeat_runs_are_byte_identical(capsys, ex_file):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "fibrate", ex_file, "--n", "3")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "order", ex_file, "--json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_fibration_json_round_trips_through_cli(capsys, fib_json, tmp_path):
    from plumbweave.fibration import from_json, to_json

    text = Path(fib_json).read_text(encoding="utf-8")
    assert to_json(from_json(text)) == text


# ---------------------------------------------------------------------------
# internal errors


# ---------------------------------------------------------------------------
# the console script's streams


def run_console(encoding, *argv, stdin=b""):
    """``python -m plumbweave`` with ``PYTHONIOENCODING`` set to ``encoding``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONIOENCODING=encoding)
    return subprocess.run(
        [sys.executable, "-m", "plumbweave", *argv],
        input=stdin, env=env, capture_output=True, timeout=60,
    )


STREAM_ENCODINGS = ["ascii", "latin-1"]


@pytest.mark.parametrize("encoding", STREAM_ENCODINGS)
def test_console_writes_utf8_whatever_the_locale(capsys, encoding):
    argv = ["family", "--m", "6", "--j", "1", "--shift", "2", "--n", "3"]
    proc = run_console(encoding, *argv)
    assert proc.returncode == 0, proc.stderr
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "β" in out
    assert proc.stdout == out.encode("utf-8")


@pytest.mark.parametrize("encoding", STREAM_ENCODINGS)
def test_console_stdout_bytes_are_the_out_file_bytes(tmp_path, encoding):
    tree = tmp_path / "accent.tree"
    tree.write_text("root é e0\nedge e0 é v1\n", encoding="utf-8")
    out = tmp_path / "order.json"
    proc = run_console(encoding, "order", str(tree), "--json")
    assert run_console(encoding, "order", str(tree), "--json", "--out", str(out)).returncode == 0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()
    assert '"vertex": "é"'.encode("utf-8") in proc.stdout


@pytest.mark.parametrize("encoding", STREAM_ENCODINGS)
def test_console_repl_reads_utf8_whatever_the_locale(fib_json, encoding):
    proc = run_console(encoding, "moves", "repl", fib_json, stdin=b"hurwitzA 0\n")
    assert proc.returncode == 0, proc.stderr
    assert "τ[".encode("utf-8") in proc.stdout
    proc = run_console(encoding, "moves", "repl", fib_json, stdin=b"cyclic\n\xff\n")
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: FormatError: <stdin>: not UTF-8 text: ")


@pytest.mark.parametrize("encoding", STREAM_ENCODINGS)
def test_console_errors_are_utf8_whatever_the_locale(encoding):
    word = Path(__file__).parent / "golden" / "inputs" / "ex_n3.json"
    proc = run_console(encoding, "moves", "apply", str(word), "--move", "τ 1")
    assert proc.returncode == 2
    assert proc.stderr == "error: FormatError: unrecognized move line 'τ 1'\n".encode("utf-8")


def test_unexpected_exception_exits_4(capsys, monkeypatch, ex_file):
    from plumbweave import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_order", broken)
    code, out, err = run(capsys, "order", ex_file)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err.startswith("Traceback")
    assert err.endswith("\ninternal error: RuntimeError: boom\n")
