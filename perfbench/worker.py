"""One workload process: a fresh interpreter that runs one job and exits.

Usage (from run.py, never by hand): python3 perfbench/worker.py JOB_JSON

The job names the fitlen source directory, a mode and the inputs:

* mode "cli" runs fitlen.cli.main(argv) in this process, capturing the
  document it writes to stdout;
* mode "oracle" builds every catalog group, then cross-checks each one
  against the brute-force oracle;
* mode "setup" only builds (interpreter, import, parse, build) and
  stops, which gives the benchmark extra set-up samples.

The last stdout line is one JSON object.  Times in it are
time.monotonic() readings, which share one clock with the parent
process on Linux, so the parent can measure from the moment it started
this process.  With "trace" set, the layer wrappers of tracer.py are
installed before any fitlen code runs and their spans are written to
the job's trace path.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time


def oracle_item(text: str, cg) -> dict:
    """Cross-check one built group against the oracle; the answers only.

    The chain route gives h through the lower nilpotent series, the
    oracle gives it through the upper Fitting series of the enumerated
    group.  With three or more primes, the first three Hall complements
    go through the trifactorization harness; its outcome is data.
    """
    from fitlen import hall, oracle, series

    record = {"expr": text}
    try:
        tiny = oracle.enumerate_group(cg.group)
        record["order"] = cg.order
        record["enumerated"] = tiny.order
        record["w"] = cg.num_primes
        record["h_chain"] = series.fitting_length(cg.group)
        record["h_oracle"] = oracle.fitting_length_upper(tiny)
        if cg.num_primes >= 3:
            gens = []
            for p in cg.primes[:3]:
                sub = hall.hall_complement(cg, p)
                gens.append([tuple(int(x) for x in g.images)
                             for g in sub.generators])
            rep = oracle.check_trifactorization(tiny, *gens)
            record["trifactor"] = {
                "hypothesis_met": rep.hypothesis_met,
                "h_values": rep.h_values,
                "bound": rep.bound_value,
                "inequality_holds": rep.inequality_holds,
            }
    except Exception as exc:  # an item that raises is a failed item
        record["error"] = "%s: %s" % (type(exc).__name__, exc)
    return record


def peak_rss_mb() -> float:
    """High-water resident set of this process since its exec.

    VmHWM belongs to the memory map that exec created, so it counts
    this process alone; ru_maxrss would also carry the high-water mark
    of the parent that started it.  ru_maxrss is the fallback where
    /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cli(job, tracer, marks):
    from fitlen import cli

    build = cli.build

    def marked_build(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        finally:
            marks["setup_end"] = time.monotonic()

    cli.build = marked_build
    main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(job["argv"]))
    marks["answer_end"] = time.monotonic()
    doc = buf.getvalue()
    if tracer is not None:
        tracer.counters["cli.stdout_bytes"] += len(doc.encode())
    return [{"rc": rc, "doc": doc,
             "latency_s": marks["answer_end"] - marks["setup_end"]}]


def _run_oracle(job, tracer, marks):
    from fitlen import construct

    built = [construct.build(construct.parse_expr(text))
             for text in job["exprs"]]
    marks["setup_end"] = time.monotonic()
    items = []
    for text, cg in zip(job["exprs"], built):
        start = time.monotonic()
        if tracer is None:
            record = oracle_item(text, cg)
        else:
            record = tracer.wrap("bench.item", oracle_item)(text, cg)
        record["latency_s"] = time.monotonic() - start
        items.append(record)
    marks["answer_end"] = time.monotonic()
    return items


def _run_setup(job, marks):
    from fitlen import cli  # the import a CLI run pays
    for text in job["exprs"]:
        cli.build(cli.parse_expr(text))
    marks["setup_end"] = time.monotonic()
    marks["answer_end"] = marks["setup_end"]
    return []


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.calibrate()
        tracing.install(tracer)
    marks = {}
    if job["mode"] == "cli":
        items = _run_cli(job, tracer, marks)
    elif job["mode"] == "oracle":
        items = _run_oracle(job, tracer, marks)
    else:
        items = _run_setup(job, marks)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {"setup_end": marks["setup_end"], "answer_end": marks["answer_end"],
           "peak_rss_mb": peak_rss_mb(),
           "ru_maxrss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "items": items}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["call_cost_s"] = tracer.call_cost
        tracer.dump(job["trace_path"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
