"""Self-check of the benchmark on tiny inputs (about half a minute).

    python3 perfbench/selfcheck.py

Runs a tiny `fitlen check` and a four-group oracle catalog through the
same machinery as run.py, untraced and traced, and checks that

1. every end-to-end and per-layer metric named in BENCHMARK.json is
   emitted with its unit, and nothing else;
2. the answers pass the correctness gate, and the traced layer numbers
   show work in every layer the tiny inputs reach;
3. the gate fails when a frozen value is deliberately wrong, both for
   a CLI document and for an oracle catalog entry.

Exit code 0 when all of them hold.
"""

from __future__ import annotations

import json
import sys

import catalog
import run
import workloads

TINY_EXPR = "W(C(2,1),W(C(3,1),C(5,1)))"
TINY_ENTRIES = dict(workloads.all_pass(23), **{"entry.12.status": "n/a"})


def tiny_cli(h: str = "3") -> workloads.CliWorkload:
    return workloads.CliWorkload(
        "tiny-check", ("check", TINY_EXPR),
        {"order": str(2 ** 15 * 3 ** 5 * 5), "h": h, "overall": "pass",
         **TINY_ENTRIES}, "order")


def tiny_oracle(h_shift: int = 0) -> workloads.OracleWorkload:
    pool = [dict(e) for e in catalog.load_pool()
            if e["w"] >= 3 and e["cost_s"] < 0.2][:4]
    for i, entry in enumerate(pool):
        entry["cost_class"] = i
    pool[0]["h"] += h_shift
    return workloads.OracleWorkload("tiny-oracle", pool)


def _run(workload, trace: bool):
    r = run.Run(workload, seed=1, seconds=0, trace=trace)
    r.execute()
    metrics = r.per_layer() if trace else r.end_to_end()
    return r, metrics


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    # the layers each tiny workload reaches, which must show self time
    reached = {"tiny-check": ("perms", "chain", "group", "construct",
                              "series", "hall", "bounds", "cli"),
               "tiny-oracle": ("perms", "chain", "group", "construct",
                               "series", "oracle")}
    for workload in (tiny_cli(), tiny_oracle()):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            r, metrics = _run(workload, trace)
            label = "%s trace=%d" % (workload.name, trace)
            expect(r.failed == 0 and r.attempted > 0,
                   "%s: %d answers pass the gate %s"
                   % (label, r.attempted, r.mismatches[:3]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            expect(got == want, "%s: emits exactly the %d %s metrics"
                   % (label, len(want), key))
            if trace:
                idle = [layer for layer in reached[workload.name]
                        if metrics[layer + ".self_s"]["value"] <= 0]
                expect(not idle, "%s: self time in every reached layer %s"
                       % (label, idle))

    for workload, what in ((tiny_cli(h="4"), "a wrong frozen h in a CLI "
                            "document"),
                           (tiny_oracle(h_shift=1), "a wrong frozen h in "
                            "the oracle pool")):
        r, _ = _run(workload, False)
        expect(r.failed > 0, "the gate catches %s (%s)"
               % (what, r.mismatches[:1]))

    print("self-check %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
