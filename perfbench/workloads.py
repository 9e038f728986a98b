"""The workloads, their frozen answers and the correctness gate.

Three workloads are fixed paper instances run through the CLI; the
fourth, oracle-tiny, is a seeded catalog (catalog.py).  BENCHMARK.json
lists the two that the benchmark runs, check-wide-w4 and oracle-tiny;
h-deep-450 and sylow-900 stay here to be run by hand.  NOTES.md says
why each was chosen or dropped.  The gate compares only mathematical fields of
the kv document (order, h, every entry status, overall), never the
header, which echoes options such as `parallel =`.
"""

from __future__ import annotations

from dataclasses import dataclass

import catalog

H_DEEP_EXPR = "W(C(2,1),IT(W(C(3,1),C(5,1)),2))"
CHECK_WIDE_EXPR = "W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"
SYLOW_900_EXPR = "W(W(W(C(2,1),C(3,1)),W(C(5,1),C(2,1))),W(C(3,1),C(5,1)))"

H_DEEP_ORDER = int(
    "1216100512068094735413642596510436410502499777786501434327345307"
    "005881946691151513486819643047930757120000000000000000")
CHECK_WIDE_ORDER = 1109894068064122382514798808846519882568234434560000000
SYLOW_900_HALL_ORDER = 2 ** 465  # the 2-part of |G|


@dataclass(frozen=True)
class CliWorkload:
    """One fitlen CLI command with its frozen answer.

    `expected` maps kv keys to their values.  `order_key` names the key
    whose value must also equal the order computed from the expression
    alone (for `hall`, the sigma-part of it).
    """

    name: str
    argv: tuple
    expected: dict
    order_key: str
    sigma: tuple = ()  # empty: the whole order

    @property
    def expression(self) -> str:
        return self.argv[1]

    def job(self, seed: int) -> dict:
        return {"mode": "cli", "argv": list(self.argv) + ["--format", "kv"],
                "exprs": [self.expression]}

    def check(self, item: dict, construct) -> list:
        """Mismatches of one answer against the frozen values.

        construct is fitlen.construct, for expr_order.
        """
        if item["rc"] != 0:
            return ["exit code %r, expected 0" % item["rc"]]
        doc = parse_kv(item["doc"])
        bad = []
        for key, want in self.expected.items():
            if doc.get(key) != want:
                bad.append("%s = %r, expected %r" % (key, doc.get(key), want))
        extra = sorted(k for k in doc if k.startswith("entry.")
                       and k.endswith(".status") and k not in self.expected)
        if extra:
            bad.append("unexpected entries: %s" % ", ".join(extra))
        order = sigma_part(
            construct.expr_order(construct.parse_expr(self.expression)),
            self.sigma)
        if doc.get(self.order_key) != str(order):
            bad.append("%s = %r differs from expr_order %d"
                       % (self.order_key, doc.get(self.order_key), order))
        return bad


class OracleWorkload:
    """A seeded sample of the frozen pool, cross-checked by the oracle."""

    def __init__(self, name: str, pool=None):
        self.name = name
        self._pool = pool  # None: the frozen pool file

    @property
    def pool(self) -> list:
        if self._pool is None:
            self._pool = catalog.load_pool()
        return self._pool

    def catalog(self, seed: int) -> list:
        return catalog.sample(seed, self.pool)

    def job(self, seed: int) -> dict:
        return {"mode": "oracle",
                "exprs": [e["expr"] for e in self.catalog(seed)]}

    def check(self, item: dict, construct) -> list:
        if "error" in item:
            return ["%s: %s" % (item["expr"], item["error"])]
        want = next(e for e in self.pool if e["expr"] == item["expr"])
        bad = []
        order = construct.expr_order(construct.parse_expr(item["expr"]))
        orders = {"chain": item["order"], "enumerated": item["enumerated"],
                  "expr_order": order, "frozen": want["order"]}
        if len(set(orders.values())) != 1:
            bad.append("orders disagree: %r" % orders)
        hs = {"chain": item["h_chain"], "oracle": item["h_oracle"],
              "frozen": want["h"]}
        if len(set(hs.values())) != 1:
            bad.append("h disagrees: %r" % hs)
        if item["w"] >= 3 and "trifactor" not in item:
            bad.append("no trifactorization record for w=%d" % item["w"])
        return ["%s: %s" % (item["expr"], b) for b in bad]


def sigma_part(order: int, sigma) -> int:
    if not sigma:
        return order
    part = 1
    for p in sigma:
        while order % p == 0:
            order //= p
            part *= p
    return part


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def all_pass(n: int) -> dict:
    return {"entry.%d.status" % i: "pass" for i in range(1, n + 1)}


WORKLOADS = {
    w.name: w for w in (
        CliWorkload(
            "h-deep-450", ("fitting", H_DEEP_EXPR),
            {"order": str(H_DEEP_ORDER), "h": "5"}, "order"),
        CliWorkload(
            "check-wide-w4", ("check", CHECK_WIDE_EXPR),
            {"order": str(CHECK_WIDE_ORDER), "h": "4", "overall": "pass",
             **all_pass(78)}, "order"),
        CliWorkload(
            "sylow-900", ("hall", SYLOW_900_EXPR, "--sigma", "2"),
            {"hall-order": str(SYLOW_900_HALL_ORDER), "h": "1"},
            "hall-order", sigma=(2,)),
        OracleWorkload("oracle-tiny"),
    )
}
