"""Run one benchmark workload against the plumbweave source in ``src/``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from spans around the program's
public functions (see ``spans.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the seed, the Python version, the core count,
the source revision and the median speed of the spin loop.  ``--all`` runs the
four workloads one after another, each in its own process, and prints a
table.

The operations of a workload are run in whole rounds, the same list each
round, until the next round would pass ``--seconds``; at least one round
always runs.  Only the program calls of an operation are timed; the checks
on its output run between operations.  Between two operations a fixed
spin loop is timed too, and each time is scaled to a host on which that
loop runs at ``REF_LOOPS_PER_S`` (see ``calibrated``).  An operation fails
when the program raises or a check rejects its output; any failure makes
``correct`` false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 9
SPIN_LOOPS = 20_000
REF_LOOPS_PER_S = 10_000_000  # about the spin loop's median speed on the reference host
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


def fresh_import():
    """Import ``plumbweave`` from ``src/`` anew, dropping any cached copy."""
    for name in [n for n in sys.modules if n.split(".")[0] == "plumbweave"]:
        del sys.modules[name]
    pw = importlib.import_module("plumbweave")
    if Path(pw.__file__).resolve().parent != SRC / "plumbweave":
        raise ImportError(f"plumbweave imported from {pw.__file__}, not from {SRC}")
    return pw


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop of ``SPIN_LOOPS`` steps."""
    t0 = perf_counter()
    x = 0
    for i in range(SPIN_LOOPS):
        x += i * i % 7
    return perf_counter() - t0


def calibrated(dt: float, spin_before: float, spin_after: float) -> float:
    """``dt`` as it would read on a host that runs the spin loop at
    ``REF_LOOPS_PER_S``, from the spin times taken just before and after.

    The reference host shares its cores with other tenants and runs at one
    of two speeds, about 1.5x apart, for seconds to minutes at a time.  The
    program and the spin loop are both pure Python and slow down together,
    so their ratio holds where the raw time does not."""
    return dt * (SPIN_LOOPS / REF_LOOPS_PER_S) / ((spin_before + spin_after) / 2)


@dataclass
class Measured:
    samples: list = field(default_factory=list)  # calibrated time of each operation that passed
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    notes: list = field(default_factory=list)
    spins: list = field(default_factory=list)


def measure(wl, budget_s: float | None, rounds: int | None = None, tracer=None) -> Measured:
    """Run whole rounds until ``budget_s`` would be passed, or ``rounds`` of them."""
    ops = wl.round_ops()
    res = Measured()
    start = perf_counter()
    before = spin()
    while True:
        r0 = perf_counter()
        for op in ops:
            res.attempted += 1
            if tracer:
                tracer.active = True
            t0 = perf_counter()
            try:
                out = wl.run(op)
            except Exception as exc:  # a failing operation is counted, not fatal
                res.failed += 1
                res.notes.append(f"op {op!r} raised {type(exc).__name__}: {exc}")
                continue
            finally:
                dt = perf_counter() - t0
                if tracer:
                    tracer.active = False
            try:
                wl.check(op, out)
            except Exception as exc:  # malformed output may break a check too
                res.failed += 1
                res.notes.append(f"op {op!r} rejected: {type(exc).__name__}: {exc}")
                continue
            after = spin()
            res.spins.append(after)
            res.samples.append(calibrated(dt, before, after))
            before = after
        res.rounds += 1
        if rounds is not None:
            if res.rounds >= rounds:
                return res
            continue
        now = perf_counter()
        if now - start + (now - r0) > budget_s:
            return res


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def timing_metrics(wl, res: Measured) -> dict[str, float]:
    times = res.samples
    if not times:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_tail_ms": 0.0}
    tail = statistics.quantiles(times, n=100, method="inclusive")[wl.tail - 1] if len(times) > 1 else times[0]
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    wl = WORKLOADS[name](seed)
    setup_times = []
    for _ in range(1 if trace else SETUP_REPS):
        before = spin()
        t0 = perf_counter()
        pw = fresh_import()
        wl.setup(pw)
        dt = perf_counter() - t0
        setup_times.append(calibrated(dt, before, spin()))
    wl.prepare()

    if trace:
        tracer = spans.Tracer()
        tracer.install()
        traced = measure(wl, seconds / 2, tracer=tracer)
        tracer.uninstall()
        plain = measure(wl, None, rounds=traced.rounds)
        values = tracer.metrics(traced.attempted)
        values["trace.overhead_s"] = (
            statistics.mean(traced.samples or [0.0]) - statistics.mean(plain.samples or [0.0])
        )
        units = dict(spans.metric_specs())
        parts = (traced, plain)
    else:
        res = measure(wl, seconds)
        values = {
            "setup_s": statistics.median(setup_times),
            **timing_metrics(wl, res),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        parts = (res,)

    attempted = sum(p.attempted for p in parts)
    failed = sum(p.failed for p in parts)
    for note in [n for p in parts for n in p.notes][:10]:
        print(f"bench: {name}: {note}", file=sys.stderr)
    spins = [t for p in parts for t in p.spins]
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": sum(p.rounds for p in parts),
        "ops_timed": sum(len(p.samples) for p in parts),
        "tail_percentile": wl.tail,
        "attempted": attempted,
        "failed": failed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "spin_loops_per_s": round(SPIN_LOOPS / statistics.median(spins)) if spins else None,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return meta, result


def spawn(name: str, seed: int, seconds: float, trace: int = 0):
    """Run one workload in a child process: (exit code, run line, result)."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2])["run"], json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        code, meta, result = spawn(name, args.seed, args.seconds, args.trace)
        if result is None:
            print(f"{name}: exit {code}, no result", file=sys.stderr)
            status = 2
            continue
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} rounds={meta['rounds']} "
            f"(seed {meta['seed']}, python {meta['python']}, nproc {meta['nproc']}, "
            f"git {meta['git_sha'] or 'none'})"
        )
        for key, m in result["metrics"].items():
            print(f"  {key:<42} {m['value']:>14.6g} {m['unit']}")
        if not result["correct"]:
            status = max(status, 1)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "plumbweave" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'plumbweave'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.all:
        return run_all(args)
    meta, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"run": meta}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
