"""The oracle-tiny catalog: a bounded expression generator and a frozen pool.

The generator draws random expression trees over small cyclic and
elementary-abelian leaves.  It bounds the trees itself, so that no
expression can ask for an exponent tower: depth is at most three, the
regular action (WR) is allowed only over a leaf top, and an expression
is kept only when its order lies in [100, 2000] and its degree is at
most 64.  Order and degree are computed here, independently of fitlen.

Brute-force cost varies about 200-fold between expressions of similar
order, so forty plain random draws give run times that differ by a
quarter between seeds.  The benchmark therefore samples from a frozen
pool instead: `oracle_pool.json` holds POOL_SIZE generator outputs,
each with its order, its Fitting length, its brute-force time (median
of COST_PASSES in-process passes), the peak RSS of a process that
cross-checks it alone, and a cost class (its rank by time, in CLASSES
equal bins).  A seed picks one
expression per class, so every seed gets the same mix of cheap and
expensive groups while the groups themselves change.  One class is not
drawn: the pool's most memory-hungry expression (the anchor) stands in
it on every seed, so that the process's peak RSS is set by the same
group every time rather than by whichever large group the seed drew.

Regenerate the pool (about twelve minutes on a 2-core host) with

    python3 perfbench/catalog.py freeze

which needs fitlen under src/.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "oracle_pool.json"
POOL_SEED = 2015
POOL_SIZE = 320
CLASSES = 40
COST_PASSES = 5

MIN_ORDER, MAX_ORDER, MAX_DEGREE, MAX_DEPTH = 100, 2000, 64, 3

# (text, order, degree)
LEAVES = [("C(2,1)", 2, 2), ("C(3,1)", 3, 3), ("C(5,1)", 5, 5),
          ("C(7,1)", 7, 7), ("C(2,2)", 4, 4), ("EA(2,2)", 4, 4),
          ("EA(3,2)", 9, 6)]


def _leaf(rng):
    return rng.choice(LEAVES)


def _tree(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return _leaf(rng)
    op = rng.choice(("D", "W", "WR"))
    base = _tree(rng, depth - 1)
    if op == "WR":
        # regular action only over a leaf top: the top's order stays a
        # small prime power, so the base order's exponent stays small
        top = _leaf(rng)
        points = top[1]
    else:
        top = _tree(rng, depth - 1)
        points = top[2]
    text = "%s(%s,%s)" % (op, base[0], top[0])
    if op == "D":
        return text, base[1] * top[1], base[2] + top[2]
    return text, base[1] ** points * top[1], base[2] * points


def random_expression(rng):
    """One bounded expression as (text, order, degree)."""
    while True:
        text, order, degree = _tree(rng, MAX_DEPTH)
        if MIN_ORDER <= order <= MAX_ORDER and degree <= MAX_DEGREE:
            return text, order, degree


def load_pool():
    with open(POOL_PATH) as fh:
        return json.load(fh)


def sample(seed: int, pool=None):
    """The seed's catalog: one pool entry per cost class, in seeded order.

    The anchor, the entry with the largest peak RSS, fills its own class
    on every seed.
    """
    pool = load_pool() if pool is None else pool
    anchor = max(pool, key=lambda e: e["peak_rss_mb"])
    rng = random.Random(seed)
    by_class = {}
    for entry in pool:
        by_class.setdefault(entry["cost_class"], []).append(entry)
    picked = [anchor if c == anchor["cost_class"] else rng.choice(by_class[c])
              for c in sorted(by_class)]
    rng.shuffle(picked)
    return picked


def _peak_rss_alone(text: str) -> float:
    """Peak RSS of a fresh worker process that cross-checks one expression."""
    job = {"mode": "oracle", "exprs": [text], "src": str(HERE.parent / "src")}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           json.dumps(job)], capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])["peak_rss_mb"]


def _freeze():
    sys.path.insert(0, str(HERE.parent / "src"))
    from fitlen import construct
    from worker import oracle_item

    rng = random.Random(POOL_SEED)
    found = {}
    while len(found) < POOL_SIZE:
        text, order, degree = random_expression(rng)
        found.setdefault(text, (order, degree))
    texts = list(found)
    peaks = {text: _peak_rss_alone(text) for text in texts}
    # cost: median over COST_PASSES in-process passes, each in its own
    # shuffled order, so that the host's speed drift spreads over all
    # expressions instead of deciding their ranks
    times = {text: [] for text in texts}
    for _ in range(COST_PASSES):
        for text in rng.sample(texts, len(texts)):
            cg = construct.build(construct.parse_expr(text))
            start = time.perf_counter()
            item = oracle_item(text, cg)
            times[text].append(time.perf_counter() - start)
            if item.get("error") or item["h_oracle"] != item["h_chain"]:
                raise SystemExit("pool entry %s failed: %r" % (text, item))
    entries = []
    for text in texts:
        order, degree = found[text]
        item = oracle_item(text, construct.build(construct.parse_expr(text)))
        entries.append({"expr": text, "order": order, "degree": degree,
                        "w": item["w"], "h": item["h_chain"],
                        "cost_s": round(statistics.median(times[text]), 4),
                        "peak_rss_mb": round(peaks[text], 1)})
        print("%-50s %8.4f" % (text, entries[-1]["cost_s"]), file=sys.stderr)
    entries.sort(key=lambda e: e["cost_s"])
    per_class = POOL_SIZE // CLASSES
    for rank, entry in enumerate(entries):
        entry["cost_class"] = rank // per_class
    with open(POOL_PATH, "w") as fh:
        json.dump(entries, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["freeze"]:
        raise SystemExit("usage: python3 perfbench/catalog.py freeze")
    _freeze()
