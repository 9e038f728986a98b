"""Layer tracing from outside the program.

install() wraps the public functions of fitlen's modules (and the few
methods that carry the engine's hot loops).  Every wrapped call pushes
a frame, so a call's self time is its duration minus the time of the
wrapped calls made inside it, and a layer's self time is the sum over
the functions of that module.  The time a wrapper spends on its own
book-keeping is left out of every self time and every `.s` total (see
Tracer.wrap), so these are the program's figures, not the tracer's.
Coarse calls are also kept as spans (name, start, end, parent span,
wrapper seconds inside) in memory; hot calls (sift,
add_generator, compose_arrays, invert_array and the oracle's inner
helpers) are only aggregated into a count and a total time per parent
span, because one object per call would mean millions of objects.
dump() writes both out when the run ends.

`from .x import y` binds a second name for y in the importing module,
so a wrapper replaces the function under every name in every fitlen
module that holds it (hall.fitting_length, series.compose_arrays, ...).

The tracer assumes one thread, which is what --parallel 1 gives.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import weakref
from collections import defaultdict

LAYERS = ("perms", "chain", "group", "construct", "series", "hall",
          "bounds", "oracle", "cli")
SPAN, HOT = "span", "hot"


def _post_add_generator(tr, result, args, kwargs):
    if result:
        tr.counters["chain.add_generator.kept"] += 1
        tr.chain_size(args[0])


def _post_build_chain(tr, result, args, kwargs):
    chain, kept = result
    tr.counters["chain.build_chain.kept"] += len(kept)
    tr.chain_size(chain)


def _post_reduced(tr, result, args, kwargs):
    tr.counters["group.reduced.gens_in"] += len(args[0].generators)
    tr.counters["group.reduced.gens_out"] += len(result.generators)


def _post_hall_chain(tr, result, args, kwargs):
    cg, sigma = args[0], tuple(sorted(set(args[1])))
    seen = tr.hall_keys.get(id(cg))
    if seen is None:
        seen = tr.hall_keys[id(cg)] = set()
        weakref.finalize(cg, tr.hall_keys.pop, id(cg), None)
    if sigma in seen:
        tr.counters["construct.hall_chain.hits"] += 1
    seen.add(sigma)


def _post_series(tr, result, args, kwargs):
    tr.counters["series.terms"] += len(result.terms)


def _post_check_all(tr, result, args, kwargs):
    tr.counters["bounds.entries"] += len(result.entries)


def _post_enumerate(tr, result, args, kwargs):
    tr.counters["oracle.elements"] += result.order


# (module, attribute, kind, post-hook); "Class.method" wraps a method
TARGETS = [
    ("perms", "compose_arrays", HOT, None),
    ("perms", "invert_array", HOT, None),
    ("chain", "StabilizerChain.sift", HOT, None),
    ("chain", "StabilizerChain.add_generator", HOT, _post_add_generator),
    ("chain", "build_chain", SPAN, _post_build_chain),
    ("group", "PermGroup.reduced", SPAN, _post_reduced),
    ("group", "PermGroup.contains", HOT, None),
    ("group", "factorize", HOT, None),
    ("construct", "parse_expr", SPAN, None),
    ("construct", "build", SPAN, None),
    ("construct", "hall_chain", SPAN, _post_hall_chain),
    ("series", "fitting_length", SPAN, None),
    ("series", "derived_length", SPAN, None),
    ("series", "lower_nilpotent_series", SPAN, _post_series),
    ("series", "derived_series", SPAN, _post_series),
    ("series", "lower_central_series", SPAN, _post_series),
    ("series", "nilpotent_residual", SPAN, None),
    ("series", "is_nilpotent", SPAN, None),
    ("series", "normal_closure", SPAN, None),
    ("series", "commutator_subgroup", SPAN, None),
    ("hall", "hall_profile", SPAN, None),
    ("hall", "hall_derived_length", SPAN, None),
    ("hall", "hall_subgroup", HOT, None),
    ("hall", "hall_complement", HOT, None),
    ("hall", "frak_h", SPAN, None),
    ("hall", "verify_sylow_system", SPAN, None),
    ("bounds", "check_all", SPAN, _post_check_all),
    ("bounds", "enumerate_covers", HOT, None),
    ("oracle", "enumerate_group", SPAN, _post_enumerate),
    ("oracle", "fitting_length_upper", SPAN, None),
    ("oracle", "check_trifactorization", SPAN, None),
    ("oracle", "check_nilpotent_triple_product", SPAN, None),
    ("oracle", "core_sigma", HOT, None),
    ("oracle", "fitting_subgroup", HOT, None),
    ("oracle", "quotient_by", HOT, None),
    ("oracle", "subgroup_closure", HOT, None),
    ("oracle", "hall_subgroup_search", HOT, None),
    ("oracle", "product_set", HOT, None),
    ("oracle", "is_nilpotent_tiny", HOT, None),
    ("cli", "Document.render", SPAN, None),
]
CLI_COMMANDS = ("cmd_build", "cmd_fitting", "cmd_hall", "cmd_frak",
                "cmd_covers", "cmd_check", "cmd_example", "cmd_conjecture")


class Tracer:
    def __init__(self):
        # [name, start, end, parent span index, wrapper seconds inside]
        self.spans = []
        self.stack = []  # open frames: [span index, child s, wrapper s]
        # name -> [calls, self s, total s of outermost calls, open calls]
        self.stats = {}
        self.hot = {}    # name -> {parent span index: [calls, s]}
        self.counters = defaultdict(float)
        self.hall_keys = {}
        # seconds per wrapped call that no clock reading of the wrapper
        # can see: [before its entry reading and after its exit reading,
        # between its inner readings and fn]; set by calibrate()
        self.call_cost = [0.0, 0.0]

    def calibrate(self) -> None:
        """Measure the wrapper cost that the clock readings miss.

        A wrapped call costs more than the time between its entry and
        exit readings (the call into the wrapper and the return from
        it), and its inner interval holds more than fn (one half of each
        inner reading, the call through *args).  Both are measured here
        on a wrapped two-argument no-op called in a loop inside a
        wrapped parent, against the same loop calling the no-op directly
        and an empty loop; medians of five.  Every wrapped call then has
        the first charged to its parent's child time and the second
        taken off its own time.  Call before install().
        """
        clock = time.perf_counter
        n = 50_000

        def noop(a, b):
            return None

        def empty():
            for _ in range(n):
                pass

        def direct():
            for _ in range(n):
                noop(1, 2)

        child = self.wrap("calibrate.child", noop, HOT)

        def wrapped():
            for _ in range(n):
                child(1, 2)

        parent = self.wrap("calibrate.parent", wrapped)
        samples = []
        for _ in range(5):
            t0 = clock()
            empty()
            t1 = clock()
            direct()
            t2 = clock()
            for stat in self.stats.values():
                stat[:] = [0, 0.0, 0.0, 0]
            parent()
            loop = t1 - t0
            call = (t2 - t1 - loop) / n  # the no-op through a call
            outside = (self.stats["calibrate.parent"][1] - loop) / n
            inside = self.stats["calibrate.child"][2] / n - call
            samples.append((outside, inside))
        outside = statistics.median(x for x, _ in samples)
        inside = statistics.median(y for _, y in samples)
        self.__init__()  # forget the calibration calls
        self.call_cost[:] = [max(outside, 0.0), max(inside, 0.0)]

    def chain_size(self, chain) -> None:
        levels = chain.levels
        c = self.counters
        c["chain.levels.max"] = max(c["chain.levels.max"], len(levels))
        points = sum(len(lv.orbit) for lv in levels)
        # trans and trans_inv: one intp array of `degree` entries each
        mb = 2 * points * chain.degree * 8 / 2 ** 20
        c["chain.transversal_mb.computed"] = max(
            c["chain.transversal_mb.computed"], mb)

    def wrap(self, name, fn, kind=SPAN, post=None):
        """fn wrapped so that its calls are counted and timed.

        A frame is [span index, child seconds, wrapper seconds].  The
        clock is read on entry, before the wrapper's own set-up, and
        again after its clean-up and post hook; the parent frame counts
        that whole interval as child time, so no wrapper's cost lands in
        any self time.  A call's program time (its `.s` total and hot
        aggregate) is the interval around fn alone, less the wrapper
        cost of the wrapped calls made inside it.  The cost that falls
        outside every clock reading is taken from calibrate().
        """
        stack, spans = self.stack, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        per_parent = self.hot.setdefault(name, {})
        spanning = kind == SPAN
        clock = time.perf_counter
        cost = self.call_cost

        def wrapper(*args, **kwargs):
            outer = clock()
            parent = stack[-1] if stack else None
            owner = parent[0] if parent else -1
            if spanning:
                record = [name, 0.0, 0.0, owner, 0.0]
                owner = len(spans)
                spans.append(record)
            frame = [owner, 0.0, 0.0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    inner = end - start - cost[1]
                    program = inner - frame[2]
                    stat[0] += 1
                    stat[1] += inner - frame[1]
                    stat[3] -= 1
                    if not stat[3]:
                        stat[2] += program
                    if spanning:
                        record[1], record[2], record[4] = start, end, frame[2]
                    else:
                        agg = per_parent.get(owner)
                        if agg is None:
                            agg = per_parent[owner] = [0, 0.0]
                        agg[0] += 1
                        agg[1] += program
                if post is not None:
                    post(self, result, args, kwargs)
                return result
            finally:
                if parent is not None:
                    whole = clock() - outer + cost[0]
                    parent[1] += whole
                    parent[2] += whole - inner + frame[2]
        return wrapper

    # -- results -------------------------------------------------------------

    def column(self, i: int) -> dict:
        """One field of every name's stats: 0 calls, 1 self s, 2 total s."""
        out = defaultdict(float)
        out.update((name, stat[i]) for name, stat in self.stats.items())
        return out

    def layer_self_s(self, layer: str) -> float:
        return sum(stat[1] for name, stat in self.stats.items()
                   if name.split(".")[0] == layer)

    def layer_metrics(self) -> dict:
        calls, total, c = self.column(0), self.column(2), self.counters

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "perms.compose_arrays.calls": calls["perms.compose_arrays"],
            "perms.invert_array.calls": calls["perms.invert_array"],
            "chain.sift.calls": calls["chain.sift"],
            "chain.sift.s": total["chain.sift"],
            "chain.add_generator.calls": calls["chain.add_generator"],
            "chain.add_generator.s": total["chain.add_generator"],
            "chain.add_generator.kept_ratio": ratio(
                c["chain.add_generator.kept"], calls["chain.add_generator"]),
            "chain.build_chain.calls": calls["chain.build_chain"],
            "chain.build_chain.s": total["chain.build_chain"],
            "chain.build_chain.kept_ratio": ratio(
                c["chain.build_chain.kept"], c["chain.build_chain.inputs"]),
            "chain.levels.max": c["chain.levels.max"],
            "chain.transversal_mb.computed":
                c["chain.transversal_mb.computed"],
            "group.reduced.calls": calls["group.reduced"],
            "group.reduced.s": total["group.reduced"],
            "group.reduced.gens_in": c["group.reduced.gens_in"],
            "group.reduced.gens_out": c["group.reduced.gens_out"],
            "group.chain_builds": c["group.chain_builds"],
            "construct.build.s": total["construct.build"],
            "construct.hall_chain.calls": calls["construct.hall_chain"],
            "construct.hall_chain.s": total["construct.hall_chain"],
            "construct.hall_chain.hit_ratio": ratio(
                c["construct.hall_chain.hits"], calls["construct.hall_chain"]),
            "series.fitting_length.calls": calls["series.fitting_length"],
            "series.fitting_length.s": total["series.fitting_length"],
            "series.derived_length.calls": calls["series.derived_length"],
            "series.derived_length.s": total["series.derived_length"],
            "series.terms": c["series.terms"],
            "hall.hall_profile.s": total["hall.hall_profile"],
            "hall.sigma_evaluated": calls["hall.sigma"],
            "hall.hall_derived_length.calls":
                calls["hall.hall_derived_length"],
            "bounds.check_all.s": total["bounds.check_all"],
            "bounds.enumerate_covers.calls": calls["bounds.enumerate_covers"],
            "bounds.entries": c["bounds.entries"],
            "oracle.enumerate_group.calls": calls["oracle.enumerate_group"],
            "oracle.enumerate_group.s": total["oracle.enumerate_group"],
            "oracle.elements": c["oracle.elements"],
            "oracle.fitting_length_upper.s":
                total["oracle.fitting_length_upper"],
            "oracle.core_sigma.calls": calls["oracle.core_sigma"],
            "oracle.check_trifactorization.s":
                total["oracle.check_trifactorization"],
            "cli.main.s": total["cli.main"],
            "cli.render.s": total["cli.render"],
            "cli.stdout_bytes": c["cli.stdout_bytes"],
        }
        for layer in LAYERS:
            m[layer + ".self_s"] = self.layer_self_s(layer)
        return m

    def dump(self, path: str) -> None:
        hot = sorted([parent, name, n, sec]
                     for name, aggs in self.hot.items()
                     for parent, (n, sec) in aggs.items())
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "hot": hot,
                       "self_s": dict(self.column(1)),
                       "calls": dict(self.column(0)),
                       "counters": dict(self.counters)}, fh)


def _replace_everywhere(modules, original, wrapper) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap fitlen's functions in place; call before any fitlen code runs."""
    import fitlen
    modules = [fitlen] + [importlib.import_module("fitlen." + layer)
                          for layer in LAYERS]
    for layer, attr, kind, post in TARGETS:
        mod = importlib.import_module("fitlen." + layer)
        short = attr.split(".")[-1]
        name = "%s.%s" % (layer, short)
        if "." in attr:
            owner = getattr(mod, attr.split(".")[0])
            original = owner.__dict__[short]
            setattr(owner, short, tracer.wrap(name, original, kind, post))
        else:
            original = getattr(mod, attr)
            wrapper = tracer.wrap(name, original, kind, post)
            _replace_everywhere(modules, original, wrapper)
    cli = importlib.import_module("fitlen.cli")
    for attr in CLI_COMMANDS:
        setattr(cli, attr, tracer.wrap("cli.command", getattr(cli, attr)))

    # one span per evaluated Hall prime set: hall calls fitting_length
    # exactly once per prime set its profile cache has not seen
    hall = importlib.import_module("fitlen.hall")
    hall.fitting_length = tracer.wrap("hall.sigma", hall.fitting_length)

    # build_chain inputs are counted before the call, since callers may
    # pass an iterator
    chain_mod = importlib.import_module("fitlen.chain")
    build_chain = chain_mod.build_chain

    def counted_build_chain(degree, arrays, *args, **kwargs):
        arrays = list(arrays)
        tracer.counters["chain.build_chain.inputs"] += len(arrays)
        return build_chain(degree, arrays, *args, **kwargs)

    _replace_everywhere(modules, build_chain, counted_build_chain)

    # lazy chain builds of PermGroup
    group_mod = importlib.import_module("fitlen.group")
    chain_property = group_mod.PermGroup.chain

    def chain_getter(group):
        if group._chain is None:
            tracer.counters["group.chain_builds"] += 1
        return chain_property.fget(group)

    group_mod.PermGroup.chain = property(chain_getter)
