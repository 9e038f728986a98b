"""Repeated runs across seeds, and the spread of every metric.

    python3 perfbench/steady.py run --seeds 10 [--first-seed 1]
        [--workloads a,b] [--trace 0|1] [--out FILE]
    python3 perfbench/steady.py report FILE [FILE2]

`run` makes rounds: round i runs every chosen workload once with seed
first-seed + i, rotating the workload order from round to round so
that drift of the host's speed spreads over all workloads.  Each
run's result and diagnostics are appended to FILE as one JSON line.

`report` prints, per workload and metric, the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (interquartile
distance over the median) against the metric's bound from
BENCHMARK.json, and the highest percentile that has at least ten runs
beyond it.  Given a second file, it also prints how far the second
median moved from the first, as a share of the first, and flags a move
for the worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(args) -> int:
    spec = _spec()
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    out = Path(args.out or HERE / "out" / ("steady-%d.jsonl" % time.time()))
    out.parent.mkdir(exist_ok=True)
    bad = 0
    for i in range(args.seeds):
        seed = args.first_seed + i
        shift = i % len(names)
        for name in names[shift:] + names[:shift]:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            record = {"workload": name, "seed": seed, "trace": args.trace,
                      "rc": proc.returncode,
                      "elapsed_s": time.monotonic() - start,
                      "result": json.loads(lines[-1]) if lines else None,
                      "diagnostics": (json.loads(lines[-2])["diagnostics"]
                                      if len(lines) > 1 else None)}
            bad += proc.returncode != 0
            with open(out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            print("%-14s seed %-4d rc %d %6.1f s" % (
                name, seed, proc.returncode, record["elapsed_s"]), flush=True)
    print("results in %s" % out)
    return 1 if bad else 0


def _load(path):
    runs = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["result"] and rec["result"]["correct"]:
                runs.setdefault(rec["workload"], []).append(
                    rec["result"]["metrics"])
    return runs


def _tail_percentile(n: int):
    """Highest whole percentile with at least ten of n runs beyond it."""
    if n < 11:
        return None
    return max(p for p in range(1, 100) if n * (100 - p) / 100.0 >= 10)


def _report(args) -> int:
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = [_load(path) for path in args.files]
    worst = 0.0
    for name in sorted(sets[0]):
        runs = sets[0][name]
        print("%s: %d runs" % (name, len(runs)))
        for metric in runs[0]:
            values = [r[metric]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            line = "  %-36s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f" % (
                metric, med, q1, q3, spread)
            if bound is not None:
                line += "  bound %.2f%s" % (
                    bound, "" if spread < bound / 3 else "  <-- over bound/3")
                worst = max(worst, spread / bound)
            tail = _tail_percentile(len(values))
            if tail is not None:
                line += "  p%d %.6g" % (tail, percentile(values, tail))
            if len(sets) > 1 and name in sets[1]:
                other = statistics.median(
                    r[metric]["value"] for r in sets[1][name])
                change = (other - med) / med
                worse = change if better.get(metric) == "lower" else -change
                line += "  second median %+.3f%s" % (
                    change, "  <-- worse by more than the bound"
                    if bound is not None and worse > bound else "")
            print(line)
    print("largest spread/bound: %.3f" % worst)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default="")
    p = sub.add_parser("report")
    p.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    return _run(args) if args.action == "run" else _report(args)


if __name__ == "__main__":
    sys.exit(main())
