"""Builders for the example group families.

Groups are assembled from cyclic and elementary-abelian leaves by
direct products, wreath products and iterated wreath powers.  Every
builder propagates a polycyclic generating sequence (pcgs) with prime
relative orders.  Its filter for one prime is that prime's member of a
Sylow system, and its filter for a prime set sigma generates a Hall
sigma-subgroup whose chain is certified from the filter itself
(`hall_chain`), so every Hall order is proved, never assumed.

Point layout of a wreath product A wr B with d top points: coordinate
i of A occupies points [i*deg(A), (i+1)*deg(A)); top generators permute
those blocks rigidly.  This layout is part of the stable output
contract, as is left association of iterated products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .config import DEFAULT_LIMITS, Limits
from .errors import DegreeBudgetError, SylowSystemError, UsageError
from .chain import certified_chain
from .group import PermGroup
from .perms import Permutation, _arange, compose_arrays

NATURAL = "natural"
REGULAR = "regular"


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# -- expression trees ----------------------------------------------------

@dataclass(frozen=True)
class Cyclic:
    p: int
    k: int = 1


@dataclass(frozen=True)
class ElemAbelian:
    p: int
    k: int


@dataclass(frozen=True)
class Direct:
    left: "GroupExpr"
    right: "GroupExpr"


@dataclass(frozen=True)
class Wreath:
    base: "GroupExpr"
    top: "GroupExpr"
    action: str = NATURAL


@dataclass(frozen=True)
class Iterated:
    expr: "GroupExpr"
    times: int


GroupExpr = Union[Cyclic, ElemAbelian, Direct, Wreath, Iterated]


def validate_expr(expr: GroupExpr) -> None:
    if isinstance(expr, (Cyclic, ElemAbelian)):
        if not _is_prime(expr.p):
            raise UsageError("leaf prime %r is not prime" % (expr.p,))
        if expr.k < 1:
            raise UsageError("leaf exponent must be at least 1")
    elif isinstance(expr, Direct):
        validate_expr(expr.left)
        validate_expr(expr.right)
    elif isinstance(expr, Wreath):
        if expr.action not in (NATURAL, REGULAR):
            raise UsageError("unknown wreath action %r" % (expr.action,))
        validate_expr(expr.base)
        validate_expr(expr.top)
    elif isinstance(expr, Iterated):
        if expr.times < 1:
            raise UsageError("iterated power needs l >= 1")
        validate_expr(expr.expr)
    else:
        raise UsageError("not a group expression: %r" % (expr,))


def expr_order(expr: GroupExpr, default_action: str = NATURAL) -> int:
    return _size(expr, default_action, None)[1]


def expr_degree(expr: GroupExpr, default_action: str = NATURAL) -> int:
    return _size(expr, default_action, None)[0]


def _size(expr: GroupExpr, default_action: str,
          ceiling: Optional[int]) -> tuple[int, int]:
    """(degree, order) of expr; exact when ceiling is None.

    Otherwise each value is exact up to ceiling and reads ceiling + 1
    past it.  A regular-action top contributes its order as a point
    count and the orders above it raise to that power, so exact values
    can be exponent towers; saturating every intermediate value keeps
    the arithmetic a few hundred bits wide, and a saturated degree still
    proves a budget below the ceiling is exceeded.  Every leaf has degree
    and order at least 2, which bounds the exponent that can stay below
    the ceiling.
    """
    if ceiling is None:
        over = None

        def cap(a: int) -> int:
            return a

        def power(a: int, e: int) -> int:
            return a ** e
    else:
        over = ceiling + 1

        def cap(a: int) -> int:
            return min(a, over)

        def power(a: int, e: int) -> int:
            return over if e >= over.bit_length() else min(a ** e, over)

    def size(e: GroupExpr) -> tuple[int, int]:
        if isinstance(e, Cyclic):
            order = power(e.p, e.k)
            return order, order
        if isinstance(e, ElemAbelian):
            return cap(e.k * e.p), power(e.p, e.k)
        if isinstance(e, Direct):
            ld, lo = size(e.left)
            rd, ro = size(e.right)
            return cap(ld + rd), cap(lo * ro)
        if isinstance(e, Wreath):
            bd, bo = size(e.base)
            td, to = size(e.top)
            d = to if e.action == REGULAR else td
            return cap(bd * d), cap(power(bo, d) * to)
        if isinstance(e, Iterated):
            inner_deg, inner_order = size(e.expr)
            d = inner_order if default_action == REGULAR else inner_deg
            deg, order = inner_deg, inner_order
            for _ in range(e.times - 1):
                if deg == order == over:
                    break
                deg, order = cap(deg * d), cap(power(order, d) * inner_order)
            return deg, order
        raise UsageError("not a group expression: %r" % (e,))

    return size(expr)


def expr_to_text(expr: GroupExpr) -> str:
    if isinstance(expr, Cyclic):
        return "C(%d,%d)" % (expr.p, expr.k)
    if isinstance(expr, ElemAbelian):
        return "EA(%d,%d)" % (expr.p, expr.k)
    if isinstance(expr, Direct):
        return "D(%s,%s)" % (expr_to_text(expr.left), expr_to_text(expr.right))
    if isinstance(expr, Wreath):
        tag = "W" if expr.action == NATURAL else "WR"
        return "%s(%s,%s)" % (tag, expr_to_text(expr.base), expr_to_text(expr.top))
    if isinstance(expr, Iterated):
        return "IT(%s,%d)" % (expr_to_text(expr.expr), expr.times)
    raise UsageError("not a group expression: %r" % (expr,))


# -- constructed groups ---------------------------------------------------

@dataclass
class ConstructedGroup:
    """A permutation group together with its construction and a pcgs.

    pcgs lists (relative order, element) pairs in construction order:
    the relative order is a prime, except for a C(p,k) leaf generator,
    whose relative order is p^k.  Creation checks the sequence against
    the group, whose chain is built exactly from its generators: every
    element must lie in the group, and the relative orders must
    multiply to its order.
    """

    group: PermGroup
    expr: Optional[GroupExpr]
    pcgs: tuple[tuple[int, Permutation], ...]
    _hall_chain_cache: dict = field(default_factory=dict, repr=False)
    _h_cache: dict = field(default_factory=dict, repr=False)
    _d_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        chain = self.group.chain
        for i, (_, g) in enumerate(self.pcgs):
            if g.degree != self.degree or chain.sift(g.images)[0] is not None:
                raise SylowSystemError(
                    "pcgs element %d is not an element of the group" % i)
        claimed = math.prod(q for q, _ in self.pcgs)
        if claimed != chain.order():
            raise SylowSystemError(
                "pcgs relative orders multiply to %d but the group has "
                "order %d" % (claimed, chain.order()))

    @property
    def degree(self) -> int:
        return self.group.degree

    @property
    def system(self) -> dict[int, tuple[Permutation, ...]]:
        """The Sylow system: for each prime p, the p-filter of the pcgs."""
        return {p: tuple(g for q, g in self.pcgs if q % p == 0)
                for p in self.primes}

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def primes(self) -> tuple[int, ...]:
        return self.group.primes

    @property
    def num_primes(self) -> int:
        return len(self.group.primes)

    def describe(self) -> str:
        return expr_to_text(self.expr) if self.expr is not None else "<adhoc>"


def trivial_constructed(degree: int = 1) -> ConstructedGroup:
    return ConstructedGroup(PermGroup.trivial(degree), None, ())


# -- leaf builders --------------------------------------------------------

def cyclic(p: int, k: int = 1, limits: Limits = DEFAULT_LIMITS) -> ConstructedGroup:
    validate_expr(Cyclic(p, k))
    n = p ** k
    if n > limits.max_degree:
        raise DegreeBudgetError(
            "cyclic leaf needs degree %d > budget %d" % (n, limits.max_degree), n)
    images = np.roll(np.arange(n, dtype=np.intp), -1)
    gen = Permutation(images)
    return ConstructedGroup(PermGroup(n, (gen,)), Cyclic(p, k), ((n, gen),))


def elem_abelian(p: int, k: int, limits: Limits = DEFAULT_LIMITS) -> ConstructedGroup:
    validate_expr(ElemAbelian(p, k))
    n = k * p
    if n > limits.max_degree:
        raise DegreeBudgetError(
            "elementary abelian leaf needs degree %d > budget %d"
            % (n, limits.max_degree), n)
    gens = []
    for i in range(k):
        arr = np.arange(n, dtype=np.intp)
        arr[i * p:(i + 1) * p] = np.roll(np.arange(i * p, (i + 1) * p), -1)
        gens.append(Permutation(arr))
    return ConstructedGroup(PermGroup(n, tuple(gens)), ElemAbelian(p, k),
                            tuple((p, g) for g in gens))


# -- combinators ----------------------------------------------------------

def _shift(arr: np.ndarray, offset: int, total: int) -> np.ndarray:
    out = np.arange(total, dtype=np.intp)
    out[offset:offset + arr.size] = arr + offset
    return out


def direct_product(A: ConstructedGroup, B: ConstructedGroup,
                   limits: Limits = DEFAULT_LIMITS) -> ConstructedGroup:
    n = A.degree + B.degree
    if n > limits.max_degree:
        raise DegreeBudgetError(
            "direct product needs degree %d > budget %d" % (n, limits.max_degree), n)
    gens = [Permutation(_shift(g.images, 0, n), _checked=False)
            for g in A.group.generators]
    gens += [Permutation(_shift(g.images, A.degree, n), _checked=False)
             for g in B.group.generators]
    pcgs = [(q, Permutation(_shift(g.images, 0, n))) for q, g in A.pcgs]
    pcgs += [(q, Permutation(_shift(g.images, A.degree, n)))
             for q, g in B.pcgs]
    expr = None
    if A.expr is not None and B.expr is not None:
        expr = Direct(A.expr, B.expr)
    return ConstructedGroup(PermGroup(n, tuple(gens)), expr, tuple(pcgs))


def _enumerate_elements(B: ConstructedGroup) -> tuple[list[np.ndarray], dict[bytes, int]]:
    gens = [g.images for g in B.group.generators]
    ident = _arange(B.degree)
    elems = [ident]
    index = {ident.tobytes(): 0}
    qi = 0
    while qi < len(elems):
        x = elems[qi]
        qi += 1
        for g in gens:
            y = compose_arrays(x, g)
            key = y.tobytes()
            if key not in index:
                index[key] = len(elems)
                elems.append(y)
    return elems, index


def _right_translation(elems, index, g: np.ndarray) -> np.ndarray:
    out = np.empty(len(elems), dtype=np.intp)
    for i, x in enumerate(elems):
        out[i] = index[compose_arrays(x, g).tobytes()]
    return out


def _lift_block_perm(block_perm: np.ndarray, m: int) -> np.ndarray:
    # point b*m + x -> block_perm[b]*m + x
    d = block_perm.size
    return (np.repeat(block_perm * m, m)
            + np.tile(np.arange(m, dtype=np.intp), d))


def _embed(arr: np.ndarray, block: int, m: int, total: int) -> np.ndarray:
    out = np.arange(total, dtype=np.intp)
    out[block * m:(block + 1) * m] = arr + block * m
    return out


def _block_orbit_reps(d: int, block_perms: list[np.ndarray]) -> list[int]:
    seen = [False] * d
    reps = []
    for start in range(d):
        if seen[start]:
            continue
        reps.append(start)
        queue = [start]
        seen[start] = True
        while queue:
            pt = queue.pop()
            for g in block_perms:
                img = int(g[pt])
                if not seen[img]:
                    seen[img] = True
                    queue.append(img)
    return reps


def wreath_product(A: ConstructedGroup, B: ConstructedGroup,
                   action: str = NATURAL,
                   limits: Limits = DEFAULT_LIMITS) -> ConstructedGroup:
    if action not in (NATURAL, REGULAR):
        raise UsageError("unknown wreath action %r" % (action,))
    m = A.degree
    if action == NATURAL:
        d = B.degree
    else:
        d = B.order
    n = m * d
    if n > limits.max_degree:
        hint = ""
        if action == REGULAR:
            hint = " (regular action; natural action would need degree %d)" % (
                m * B.degree)
        raise DegreeBudgetError(
            "degree budget exceeded: wreath product needs degree %d > %d%s"
            % (n, limits.max_degree, hint), n)

    if action == NATURAL:
        top_gen_blocks = [g.images for g in B.group.generators]
        top_pcgs_blocks = [(q, g.images) for q, g in B.pcgs]
    else:
        elems, index = _enumerate_elements(B)
        top_gen_blocks = [
            _right_translation(elems, index, g.images)
            for g in B.group.generators
        ]
        top_pcgs_blocks = [(q, _right_translation(elems, index, g.images))
                           for q, g in B.pcgs]

    reps = _block_orbit_reps(d, top_gen_blocks)
    gens: list[Permutation] = []
    for rep in reps:
        for a in A.group.generators:
            gens.append(Permutation(_embed(a.images, rep, m, n), _checked=False))
    for t in top_gen_blocks:
        gens.append(Permutation(_lift_block_perm(t, m), _checked=False))

    pcgs = [(q, Permutation(_embed(a.images, block, m, n)))
            for q, a in A.pcgs for block in range(d)]
    pcgs += [(q, Permutation(_lift_block_perm(t, m)))
             for q, t in top_pcgs_blocks]

    expr = None
    if A.expr is not None and B.expr is not None:
        expr = Wreath(A.expr, B.expr, action)
    return ConstructedGroup(PermGroup(n, tuple(gens)), expr, tuple(pcgs))


def iterated(H: ConstructedGroup, times: int, action: str = NATURAL,
             limits: Limits = DEFAULT_LIMITS) -> ConstructedGroup:
    if times < 1:
        raise UsageError("iterated power needs l >= 1, got %d" % times)
    result = H
    for _ in range(times - 1):
        result = wreath_product(result, H, action, limits)
    return result


def build(expr: GroupExpr, default_action: str = NATURAL,
          limits: Limits = DEFAULT_LIMITS) -> ConstructedGroup:
    """Materialize an expression as a permutation group with Sylow system."""
    validate_expr(expr)
    # exact up to this ceiling; anything larger only has to be seen to
    # exceed the budget
    ceiling = max(limits.max_degree, 1 << 64)
    needed, _ = _size(expr, default_action, ceiling)
    if needed > limits.max_degree:
        hint = ""
        if _uses_regular(expr) or default_action == REGULAR:
            natural_deg, _ = _size(_all_natural(expr), NATURAL, ceiling)
            hint = (" (involves the regular action; all-natural would need"
                    " degree %s)" % _degree_text(natural_deg, ceiling))
        raise DegreeBudgetError(
            "degree budget exceeded: expression needs degree %s > %d%s"
            % (_degree_text(needed, ceiling), limits.max_degree, hint), needed)
    return _build(expr, default_action, limits)


def _degree_text(degree: int, ceiling: int) -> str:
    return "%d" % degree if degree <= ceiling else "more than %d" % ceiling


def _uses_regular(expr: GroupExpr) -> bool:
    if isinstance(expr, Wreath):
        return (expr.action == REGULAR or _uses_regular(expr.base)
                or _uses_regular(expr.top))
    if isinstance(expr, Direct):
        return _uses_regular(expr.left) or _uses_regular(expr.right)
    if isinstance(expr, Iterated):
        return _uses_regular(expr.expr)
    return False


def _all_natural(expr: GroupExpr) -> GroupExpr:
    if isinstance(expr, Wreath):
        return Wreath(_all_natural(expr.base), _all_natural(expr.top), NATURAL)
    if isinstance(expr, Direct):
        return Direct(_all_natural(expr.left), _all_natural(expr.right))
    if isinstance(expr, Iterated):
        return Iterated(_all_natural(expr.expr), expr.times)
    return expr


def _build(expr: GroupExpr, default_action: str, limits: Limits) -> ConstructedGroup:
    if isinstance(expr, Cyclic):
        return cyclic(expr.p, expr.k, limits)
    if isinstance(expr, ElemAbelian):
        return elem_abelian(expr.p, expr.k, limits)
    if isinstance(expr, Direct):
        return direct_product(_build(expr.left, default_action, limits),
                              _build(expr.right, default_action, limits),
                              limits)
    if isinstance(expr, Wreath):
        return wreath_product(_build(expr.base, default_action, limits),
                              _build(expr.top, default_action, limits),
                              expr.action, limits)
    if isinstance(expr, Iterated):
        return iterated(_build(expr.expr, default_action, limits),
                        expr.times, default_action, limits)
    raise UsageError("not a group expression: %r" % (expr,))


# -- expression text ---------------------------------------------------------

_TOKEN_NAMES = ("C", "EA", "D", "W", "WR", "IT")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise UsageError("parse error at position %d: %s" % (self.pos, message))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        word = self.text[start:self.pos]
        if word not in _TOKEN_NAMES:
            self.pos = start
            self.error("expected one of %s" % (", ".join(_TOKEN_NAMES)))
        return word

    def expr(self) -> GroupExpr:
        word = self.name()
        self.expect("(")
        if word == "C" or word == "EA":
            p = self.integer()
            self.expect(",")
            k = self.integer()
            node: GroupExpr = Cyclic(p, k) if word == "C" else ElemAbelian(p, k)
        elif word == "IT":
            inner = self.expr()
            self.expect(",")
            times = self.integer()
            node = Iterated(inner, times)
        else:
            left = self.expr()
            self.expect(",")
            right = self.expr()
            if word == "D":
                node = Direct(left, right)
            elif word == "W":
                node = Wreath(left, right, NATURAL)
            else:
                node = Wreath(left, right, REGULAR)
        self.expect(")")
        return node


def parse_expr(text: str) -> GroupExpr:
    """Parse the expression language: C(p,k), EA(p,k), D(x,y), W(x,y),
    WR(x,y), IT(x,l).  W is the natural-action wreath product, WR the
    regular one; IT iterates with the action chosen at build time."""
    parser = _Parser(text)
    node = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    validate_expr(node)
    return node


# -- Hall chains --------------------------------------------------------------

def hall_chain(cg: ConstructedGroup, sigma: tuple[int, ...]):
    """Certified chain and generator list of the Hall sigma-subgroup.

    The chain is certified from the sigma-filter of the pcgs
    (chain.certified_chain); the generator list is the Sylow lists for
    sigma, concatenated.  Both are cached per canonical sigma on the
    constructed group.  A failed certificate raises SylowSystemError.
    """
    key = tuple(sorted(set(sigma) & set(cg.primes)))
    cached = cg._hall_chain_cache.get(key)
    if cached is None:
        chain = certified_chain(
            cg.degree, [(q, g.images) for q, g in cg.pcgs
                        if any(q % p == 0 for p in key)])
        gens = [g.images for p in key for q, g in cg.pcgs if q % p == 0]
        cached = cg._hall_chain_cache[key] = (chain, gens)
    return cached
