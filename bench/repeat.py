"""Run one workload several times and summarise each end-to-end metric.

    python3 bench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                            [--seconds S]

Runs ``run.py`` once per seed (``first-seed``, ``first-seed + 1``, ...), one
process after another, and prints for each metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median.  The bound that ``BENCHMARK.json``
gives the metric is printed beside the spread: a bound should be at least
three times the spread.  ``--seconds`` defaults to the file's
``run_seconds``.  Also prints the share of failed operations of every run,
which must be the same in every run, and the spin-loop speed each run
recorded, which shows whether the host slowed during the set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from fractions import Fraction
from pathlib import Path

from run import spawn

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        code, meta, result = spawn(args.workload, seed, args.seconds)
        if result is None:
            print(f"seed {seed}: exit {code}, no result", file=sys.stderr)
            return 2
        shares.add(Fraction(result["failed"], result["attempted"]))
        for key, m in result["metrics"].items():
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} spin={meta['spin_loops_per_s']} "
            + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
            flush=True,
        )

    limits = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    print(f"{'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  unit")
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(
            f"{key:<42} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
            f"{limits.get(key, ''):>6}  {units[key]}"
        )
    print(f"failed shares: {', '.join(str(s) for s in sorted(shares))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
