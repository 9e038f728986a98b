"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/fitlen; nothing is
installed or built.  A run is closed-loop, one process and one caller
at a time: it starts a fresh interpreter per workload iteration
(worker.py) and repeats it while the next iteration is expected to be
half done within S seconds, at least once.  One untimed set-up-only process
warms the host first.  Set-up is sampled at least MIN_SETUPS times per
run: each iteration gives one sample, PROBES_PER_ITERATION set-up-only
processes after each iteration give more, spread over the run like the
iterations, and set-up-only processes at the end top them up.

Every answer goes through the correctness gate of workloads.py.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of tracer.py plus trace.overhead_s
(traced minus untraced wall time of the same workload in this run).
The line before it holds diagnostics: the iterations' raw times, a
host-speed reference, the catalog texts and every mismatch.  Exit code
is 0 only when every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_SETUPS = 15
PROBES_PER_ITERATION = 3
RUN_LIMIT_S = 175  # a run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
    "items_per_s": "1/s", "item_p50_s": "s", "item_p75_s": "s",
}


class WorkerFailed(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_mb.computed"):
        return "MB"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def host_reference() -> dict:
    """A fixed pure-Python loop and numpy loop: a diagnostic of host speed."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    python_s = time.perf_counter() - start
    perm = np.random.default_rng(0).permutation(900)
    arr = perm.copy()
    start = time.perf_counter()
    for _ in range(30_000):
        arr = perm[arr]
    return {"python_loop_s": python_s,
            "numpy_compose_s": time.perf_counter() - start}


def run_worker(job: dict, started: float) -> dict:
    """One fresh worker process; times are measured from its start."""
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker killed after %.0f s" % timeout) from None
    end = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed("worker exit %d: %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    out = json.loads(proc.stdout.splitlines()[-1])
    out["wall_s"] = end - t0
    out["setup_s"] = out["setup_end"] - t0
    out["solve_s"] = out["answer_end"] - out["setup_end"]
    return out


class Run:
    """The iterations of one run and the verdicts on their answers."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.job = dict(workload.job(seed), src=str(SRC))
        self.started = time.monotonic()
        self.iterations = []   # untraced worker results
        self.traced = []       # traced worker results
        self.setups = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def _gate(self, result: dict) -> None:
        from fitlen import construct

        for item in result["items"]:
            self.attempted += 1
            bad = self.workload.check(item, construct)
            if bad:
                self.failed += 1
                self.mismatches.extend(bad)

    def _worker(self, **extra) -> dict:
        try:
            result = run_worker(dict(self.job, **extra), self.started)
        except WorkerFailed as exc:
            self.attempted += len(self.job["exprs"])
            self.failed += len(self.job["exprs"])
            self.mismatches.append(str(exc))
            raise
        if result["items"]:
            self._gate(result)
        return result

    def execute(self) -> None:
        deadline = self.started + self.seconds
        try:
            # warm the file cache and the host before timing anything
            self._worker(mode="setup")
            while True:
                start = time.monotonic()
                plain = self._worker()
                self.iterations.append(plain)
                self.setups.append(plain["setup_s"])
                if not self.trace:
                    self._probe_setup(PROBES_PER_ITERATION)
                else:
                    path = OUT / ("trace-%s-seed%d-%d.json"
                                  % (self.workload.name, self.seed,
                                     len(self.traced)))
                    traced = self._worker(trace=True, trace_path=str(path))
                    self.traced.append(traced)
                    self._same_documents(plain, traced)
                # the last iteration is the one whose midpoint comes
                # before the deadline
                now = time.monotonic()
                if now + (now - start) / 2 > deadline:
                    break
            if not self.trace:
                self._probe_setup(MIN_SETUPS - len(self.setups))
        except WorkerFailed:
            pass

    def _probe_setup(self, n: int) -> None:
        for _ in range(n):
            self.setups.append(self._worker(mode="setup")["setup_s"])

    def _same_documents(self, plain: dict, traced: dict) -> None:
        # tracing must never change what the program writes
        for a, b in zip(plain["items"], traced["items"]):
            if a.get("doc") != b.get("doc"):
                self.failed += 1
                self.mismatches.append("traced run wrote a different document")

    # -- results ---------------------------------------------------------------

    def item_latencies(self) -> list:
        """Every answer's latency in the run: all items of all iterations.

        The percentiles are taken over this pool, as over the requests
        of a serving run, so they rest on hundreds of answers.  A
        percentile of each item's median over the run's few iterations
        would let a burst of host slowness that hit two answers of one
        item decide it, and spreads about twice as much between runs.
        """
        return [item["latency_s"] for r in self.iterations
                for item in r["items"]]

    def end_to_end(self) -> dict:
        runs = self.iterations
        latencies = self.item_latencies()
        solve_s = statistics.median(r["solve_s"] for r in runs)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(self.setups),
            "solve_s": solve_s,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            # the items of one iteration per second of the reported solve_s
            "items_per_s": len(runs[0]["items"]) / solve_s,
            "item_p50_s": percentile(latencies, 50),
            "item_p75_s": percentile(latencies, 75),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}

    def per_layer(self) -> dict:
        names = self.traced[0]["layers"]
        out = {name: {"value": statistics.median(r["layers"][name]
                                                 for r in self.traced),
                      "unit": layer_unit(name)}
               for name in names}
        overhead = (statistics.median(r["wall_s"] for r in self.traced)
                    - statistics.median(r["wall_s"] for r in self.iterations))
        out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        return out

    def diagnostics(self) -> dict:
        runs = self.iterations + self.traced
        diag = {
            "workload": self.workload.name, "seed": self.seed,
            "trace": self.trace,
            "wall_s": [r["wall_s"] for r in self.iterations],
            "traced_wall_s": [r["wall_s"] for r in self.traced],
            "setup_s": self.setups,
            "solve_s": [r["solve_s"] for r in self.iterations],
            "cpu_s": [r["cpu_s"] for r in self.iterations],
            "ru_maxrss_mb": [r["ru_maxrss_mb"] for r in self.iterations],
            "item_latency_s": [[item["latency_s"] for item in r["items"]]
                               for r in self.iterations],
            "mismatches": self.mismatches,
        }
        if self.job["mode"] == "oracle" and runs:
            diag["catalog"] = [
                {k: item.get(k) for k in ("expr", "order", "w", "h_chain",
                                          "h_oracle", "trifactor", "error")}
                for item in runs[0]["items"]]
        return diag


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fitlen" / "__init__.py").is_file():
        print("perfbench: no fitlen source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    run = Run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
              bool(args.trace))
    host_before = host_reference()
    run.execute()
    diag = run.diagnostics()
    diag["host_reference"] = [host_before, host_reference()]
    print(json.dumps({"diagnostics": diag}))
    complete = bool(run.traced) if run.trace else bool(run.iterations)
    metrics = {}
    if complete:
        metrics = run.per_layer() if run.trace else run.end_to_end()
    else:
        run.failed = max(run.failed, 1)
    correct = run.failed == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(run.attempted, run.failed, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
