"""Command-line front door.

Subcommands: ``order``, ``fibrate``, ``invariants``, ``moves
apply|replay|search|repl``, ``family``, ``render``, ``selftest``.  All
output is deterministic for a fixed configuration; JSON documents and SVG
files are written atomically and byte-stable.

Exit codes: 0 success/verified, 1 verified-false, 2 input error, 3 search
or iteration limit exhausted, 4 internal error (any other exception: its
traceback, then ``internal error: Type: message``), so that 1 never stands
for a crash.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import traceback

from . import fibration, invariants, moves, treecore
from .errors import FormatError, PlumbweaveError
from .lattice import EDGE_SIGN, SELF_INTERSECTION, TWIST_SIGN

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4

# the one sign convention, which every invariants and family report embeds
CONVENTION = {
    "self_intersection": SELF_INTERSECTION,
    "edge_sign": EDGE_SIGN,
    "twist_sign": TWIST_SIGN,
}


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from None


def _load_ordered(path: str) -> treecore.OrderedTree:
    return treecore.order_tree(treecore.parse_tree(_read_text(path)))


def _emit(text: str, out: str | None) -> None:
    if out:
        fibration.write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _at_least(low: int):
    """argparse type for a count: an integer of ``low`` or more."""

    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a count of {low} or more, got {text!r}")
        return value

    return count


def _format_class(coords) -> str:
    """A class of the two-sphere family fiber in the basis (α, β)."""
    terms = []
    for c, s in zip(coords, ("α", "β")):
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else str(abs(c))
        if not terms:
            terms.append(("-" if c < 0 else "") + mag + s)
        else:
            terms.append(("- " if c < 0 else "+ ") + mag + s)
    return " ".join(terms) if terms else "0"


def _class_doc(coords) -> dict:
    """A family class as its coordinates and its :func:`_format_class`."""
    return {"coords": list(coords), "pretty": _format_class(coords)}


# ---------------------------------------------------------------------------
# order


def _order_doc(ot: treecore.OrderedTree) -> dict:
    root_v, root_e = ot.base.root
    ids = ot.vertex_order
    return {
        "root": {"vertex": root_v, "edge": root_e},
        "vertices": [
            {"label": f"v{i}", "id": v, "dist": d, "height": h, "coords": [d, h]}
            for i, (v, d, h) in enumerate(zip(ids, ot.dist, ot.height))
        ],
        "edges": [
            {
                "label": f"e{i}",
                "id": e,
                "tail": ids[t],
                "head": ids[i + 1],
                "tail_label": f"v{t}",
                "head_label": f"v{i + 1}",
            }
            for i, (e, t) in enumerate(zip(ot.edge_order, ot.tail))
        ],
        "boundary": [{"label": f"v{k}", "id": ids[k]} for k in ot.boundary_order],
    }


def _order_text(ot: treecore.OrderedTree) -> str:
    doc = _order_doc(ot)
    lines = [f"root: vertex={doc['root']['vertex']} edge={doc['root']['edge']}"]
    for v in doc["vertices"]:
        lines.append(
            f"vertex {v['label']}: id={v['id']} dist={v['dist']} "
            f"height={v['height']} coords=({v['coords'][0]}, {v['coords'][1]})"
        )
    for e in doc["edges"]:
        lines.append(
            f"edge {e['label']}: id={e['id']} tail={e['tail_label']}({e['tail']}) "
            f"head={e['head_label']}({e['head']})"
        )
    lines.append(
        "boundary: " + " ".join(f"{b['label']}({b['id']})" for b in doc["boundary"])
    )
    return "\n".join(lines) + "\n"


def _cmd_order(args) -> int:
    ot = _load_ordered(args.tree)
    text = fibration.dump_json(_order_doc(ot)) if args.json else _order_text(ot)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fibrate / render


def _cmd_fibrate(args) -> int:
    """``fibrate`` and ``render``: emit the word when ``args.word``, then
    write the SVG to ``args.render`` if set; ``render`` sets ``word`` false
    and stores its ``--out`` as ``args.render``."""
    ot = _load_ordered(args.tree)
    alf = fibration.fibrate(ot, args.n)
    if args.word:
        _emit(fibration.to_json(alf), args.out)
    if args.render:
        matching = fibration.matching_cycles(alf, ot)
        fibration.write_atomic(args.render, fibration.render_svg(alf, matching))
    return EXIT_OK


# ---------------------------------------------------------------------------
# invariants


def _invariants_report(tree_id, t, n) -> dict:
    ot = treecore.order_tree(t)
    alf = fibration.fibrate(ot, n)
    computed = invariants.total_homology(alf)
    expected = invariants.wedge_oracle(t, n)
    return {
        "tree_id": tree_id,
        "n": n,
        "chi": computed.euler,
        "homology": computed.as_dict(),
        "oracle": expected.as_dict(),
        "oracle_match": computed == expected,
        # homology never pairs two classes, so no sign can reach it
        "convention": CONVENTION,
    }


def _cmd_invariants(args) -> int:
    if args.tree is not None and args.count is not None:
        raise PlumbweaveError("give a tree file or --count, not both")
    if args.count is None:
        if args.tree is None:
            raise PlumbweaveError("either a tree file or --count is required")
        t = treecore.parse_tree(_read_text(args.tree))
        # a name that is not UTF-8 keeps its bytes as \x escapes, so the
        # report stays UTF-8 text
        name = os.fsencode(os.path.basename(args.tree)).decode("utf-8", "backslashreplace")
        report = _invariants_report(name, t, args.n)
        _emit(fibration.dump_json(report), args.out)
        return EXIT_OK if report["oracle_match"] else EXIT_FALSE
    reports = []
    for i in range(args.count):
        t = treecore.random_tree(args.seed + i, args.max_vertices)
        reports.append(_invariants_report(f"random:{args.seed + i}", t, args.n))
    mismatches = [r["tree_id"] for r in reports if not r["oracle_match"]]
    doc = {
        "seed": args.seed,
        "count": args.count,
        "n": args.n,
        "max_vertices": args.max_vertices,
        "all_match": not mismatches,
        "mismatches": mismatches,
        "reports": reports if args.full else [],
    }
    _emit(fibration.dump_json(doc), args.out)
    return EXIT_FALSE if mismatches else EXIT_OK


# ---------------------------------------------------------------------------
# moves


def _move_lines(lines, source: str):
    """The move lines of a script or of stdin: each line without its ``#``
    comment and outer blanks, blank ones skipped.  Text that is not UTF-8
    raises :class:`FormatError`, as in :func:`_read_text`."""
    try:
        for raw in lines:
            raw.encode("utf-8")
            line = raw.split("#", 1)[0].strip()
            if line:
                yield line
    except UnicodeError as exc:
        raise FormatError(f"{source}: not UTF-8 text: {exc}") from None


def _collect_moves(args):
    lines = _read_text(args.script).splitlines() if args.script else ()
    specs = itertools.chain(_move_lines(lines, args.script), args.move or ())
    return tuple(map(moves.parse_move_line, specs))


def _saved_moves(args):
    return moves.moves_from_json(_read_text(args.sequence))


def _load_sphere_word(path: str):
    """The fibration document at ``path``, refused before any move unless
    it is a sphere word, the word the search takes; each move keeps that,
    so nothing is checked per move."""
    alf = fibration.from_json(_read_text(path))
    word = alf.word_classes()
    moves._refuse_non_sphere(
        alf, "moves take", moves._non_sphere(alf.fiber, word, dict.fromkeys(word))
    )
    return alf


def _cmd_moves_replay(args) -> int:
    """``moves apply`` and ``moves replay``: load the fibration, read the
    moves with ``args.read_moves``, replay them and emit the result."""
    alf = _load_sphere_word(args.fibration)
    seq = args.read_moves(args)
    _emit(fibration.to_json(moves.replay(alf, seq)), args.out)
    if args.seq_out:
        fibration.write_atomic(args.seq_out, moves.moves_to_json(seq))
    return EXIT_OK


def _cmd_moves_search(args) -> int:
    a = fibration.from_json(_read_text(args.source))
    b = fibration.from_json(_read_text(args.target))
    witness = moves.search_equivalence(a, b, args.depth)
    if witness is None:
        sys.stderr.write(f"no witness within depth {args.depth}\n")
        return EXIT_LIMIT
    text = moves.moves_to_json(witness)
    _emit(text, args.out)
    return EXIT_OK


def _state_text(alf) -> str:
    """The word and the invariants of its total space, one line each."""
    word = f"word[{len(alf.cycles)}]: " + ", ".join(alf.word_displays())
    rep = invariants.total_homology(alf)
    parts = [f"chi={rep.euler}"]
    for deg, free, tors in rep.h:
        label = f"H{deg}=Z^{free}" if free else f"H{deg}=0"
        if tors:
            label += "+torsion" + str(list(tors))
        parts.append(label)
    return f"{word}\n{' '.join(parts)}\n"


def _cmd_moves_repl(args) -> int:
    alf = _load_sphere_word(args.fibration)
    for line in itertools.chain(["show"], _move_lines(sys.stdin, "<stdin>")):
        if line in ("quit", "exit"):
            break
        if line != "show":
            try:
                alf = moves.apply_move(alf, moves.parse_move_line(line))
            except PlumbweaveError as exc:
                sys.stdout.write(f"error: {type(exc).__name__}: {exc}\n")
                continue
        sys.stdout.write(_state_text(alf))
    if args.out:
        fibration.write_atomic(args.out, fibration.to_json(alf))
    return EXIT_OK


# ---------------------------------------------------------------------------
# family


def _cmd_family(args) -> int:
    if args.shift not in (2, 4):
        raise PlumbweaveError("shift must be 2 or 4")
    if not 1 <= args.j or args.j + args.shift > args.m:
        raise PlumbweaveError(
            f"need 1 <= j and j + shift <= m, got j={args.j} shift={args.shift} m={args.m}"
        )
    source = fibration.family_word(args.m, args.j, args.n)
    target = fibration.family_word(args.m, args.j + args.shift, args.n)
    pos = args.j + 1  # the interior β of family_word
    witness = tuple(
        moves.MoveRecord(moves.HURWITZ_A, pos + k) for k in range(args.shift)
    )
    pushed = moves.replay(source, witness)
    final = pushed.cycles[pos + args.shift]
    target_final = target.cycles[pos + args.shift]
    equal = moves.equal_homology(pushed, target)
    doc = {
        "m": args.m,
        "j": args.j,
        "shift": args.shift,
        "n": args.n,
        "parity": source.fiber.parity,
        "convention": CONVENTION,
        "interior_position": {"zero_based": pos, "one_based": pos + 1},
        "word_length": len(source.cycles),
        "witness": [moves._move_doc(mv) for mv in witness],
        "final_interior_class": _class_doc(final.cls),
        "target_interior_class": _class_doc(target_final.cls),
        "equal": equal,
    }
    if args.json:
        _emit(fibration.dump_json(doc), args.out)
    else:
        lines = [
            f"family m={args.m} j={args.j} shift={args.shift} n={args.n} "
            f"({doc['parity']} pairing)",
            f"interior class position: index {pos} (0-based), {pos + 1} (1-based)",
            "witness: " + "; ".join(f"hurwitzA {mv.index}" for mv in witness),
            f"final interior class: {doc['final_interior_class']['pretty']}",
            f"target interior class: {doc['target_interior_class']['pretty']}",
            f"words equal: {'yes' if equal else 'no'}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if equal else EXIT_FALSE


# ---------------------------------------------------------------------------
# selftest


def _cmd_selftest(args) -> int:
    seed = args.seed
    audit = invariants.base_case_audit()

    identity_failures = []
    oracle_failures = []
    for i in range(max(args.trees, args.oracle_trees)):
        t = treecore.random_tree(seed + i, args.max_vertices)
        ot = treecore.order_tree(t)
        if i < args.trees:
            alf = fibration.fibrate(ot, 3)
            if len(alf.cycles) != len(t.vertices) + len(alf.fiber.pattern.vertices):
                identity_failures.append(seed + i)
        if i < args.oracle_trees:
            for n in (3, 4, 5):
                alf = fibration.fibrate(ot, n)
                if invariants.total_homology(alf) != invariants.wedge_oracle(t, n):
                    oracle_failures.append([seed + i, n])

    ok = not identity_failures and not oracle_failures
    doc = {
        "base_case": audit,
        "random_suite": {
            "seed": seed,
            "cycle_identity": {"trees": args.trees, "failures": identity_failures},
            "homology_oracle": {
                "trees": args.oracle_trees,
                "n": [3, 4, 5],
                "failures": oracle_failures,
            },
        },
        "ok": ok,
    }
    if args.json:
        _emit(fibration.dump_json(doc), args.out)
    else:
        lines = ["base case (two-vertex chain):"]
        for name, rows in audit["variants"].items():
            for n, row in rows.items():
                lines.append(
                    f"  {name} n={n}: word_length={row['word_length']} "
                    f"chi={row['chi']} (oracle {row['oracle_chi']}) "
                    f"homology_match={'yes' if row['homology_match'] else 'no'}"
                )
        s = audit["summary"]
        lines.append(
            "  verdict: literal_steps "
            + ("matches" if s["literal_steps_matches_oracle"] else "DISAGREES with")
            + " the oracle; two_cycle_variant "
            + ("matches" if s["two_cycle_variant_matches_oracle"] else "disagrees with")
            + " the oracle"
        )
        lines.append(
            f"cycle identity on {args.trees} random trees: "
            f"{len(identity_failures)} failures"
        )
        lines.append(
            f"homology oracle on {args.oracle_trees} random trees x n in (3,4,5): "
            f"{len(oracle_failures)} failures"
        )
        lines.append("selftest: " + ("ok" if ok else "FAILED"))
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if ok else EXIT_FALSE


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plumbweave",
        description="Lefschetz fibration words for plumbings along plane trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="canonical orders of a rooted plane tree")
    p.add_argument("tree")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("fibrate", help="run the word algorithm on a tree file")
    p.add_argument("tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--render", metavar="SVG")
    p.set_defaults(func=_cmd_fibrate, word=True)

    p = sub.add_parser("invariants", help="homology of the total space vs oracle")
    p.add_argument("tree", nargs="?")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=_at_least(1))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=14)
    p.add_argument("--full", action="store_true", help="include per-tree reports")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_invariants)

    pm = sub.add_parser("moves", help="apply, replay, search, or drive moves")
    msub = pm.add_subparsers(dest="moves_command", required=True)

    p = msub.add_parser("apply", help="apply scripted moves to a fibration")
    p.add_argument("fibration")
    p.add_argument("--script")
    p.add_argument("--move", action="append", metavar="SPEC")
    p.add_argument("--out")
    p.add_argument("--seq-out")
    p.set_defaults(func=_cmd_moves_replay, read_moves=_collect_moves)

    p = msub.add_parser("replay", help="replay a saved move sequence")
    p.add_argument("fibration")
    p.add_argument("sequence")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moves_replay, read_moves=_saved_moves, seq_out=None)

    p = msub.add_parser("search", help="bidirectional breadth-first witness search")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--depth", type=_at_least(1), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moves_search)

    p = msub.add_parser("repl", help="one move per stdin line")
    p.add_argument("fibration")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moves_repl)

    p = sub.add_parser("family", help="verify the chain-with-leaf family relation")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--shift", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("render", help="base diagram SVG for a tree file")
    p.add_argument("tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, dest="render", metavar="OUT")
    p.set_defaults(func=_cmd_fibrate, word=False)

    p = sub.add_parser("selftest", help="base-case audit plus random suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trees", type=_at_least(0), default=1000)
    p.add_argument("--oracle-trees", type=_at_least(0), default=200)
    p.add_argument("--max-vertices", type=int, default=14)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlumbweaveError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        sys.stderr.write(f"error: IoError: {exc}\n")
        return EXIT_INPUT
    except Exception as exc:  # a bug, not a verdict: keep it off exit 1
        traceback.print_exc()
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL


def console_main() -> None:
    # stdin and stdout are strict UTF-8, as files are, whatever the locale;
    # stderr is UTF-8 too, so one error reads the same in every locale, and
    # escapes what UTF-8 cannot carry rather than fail while reporting
    for stream in (sys.stdin, sys.stdout):
        if stream is not None:
            stream.reconfigure(encoding="utf-8", errors="strict")
    if sys.stderr is not None:
        sys.stderr.reconfigure(encoding="utf-8", errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    console_main()
