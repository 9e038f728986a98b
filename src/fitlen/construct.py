"""Build the example group families from expression trees.

`build(parse_expr(text))` is the one way to construct a group, and
`build` alone validates the expression and holds the degree budget.
Groups are assembled from cyclic and elementary-abelian leaves by
direct products, wreath products and iterated wreath powers.  Every
node keeps the recursion that made its generator list as a function
of a prime set sigma: a leaf outside sigma keeps its points but adds
no generator, a direct product joins both sides, and A wr B embeds
A_sigma's generators at one block per orbit of B_sigma and lifts
B_sigma's.  With every prime this is the group's own list; with sigma
it generates (A_sigma)^d B_sigma, a Hall sigma-subgroup.  Nothing is
assumed about either: creation checks the group's exact order against
the expression's order formula, and `hall_chain` checks that each Hall
list lies in the group and that its exact chain has the sigma-part of
that order.

Point layout of a wreath product A wr B with d top points: coordinate
i of A occupies points [i*deg(A), (i+1)*deg(A)); top generators permute
those blocks rigidly.  This layout is part of the stable output
contract, as is left association of iterated products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Collection, Optional, Union

import numpy as np

from .chain import build_chain
from .config import DEFAULT_LIMITS, Limits
from .errors import DegreeBudgetError, SylowSystemError, UsageError
from .group import PermGroup, p_part
from .perms import Permutation, _arange, compose_arrays

NATURAL = "natural"
REGULAR = "regular"


# Leaf primes must lie below this.  Miller-Rabin on _MR_BASES is exact
# far beyond it: the smallest composite that passes for all twelve bases
# is 318665857834031151167461, about 3.2 * 10**23.
_LEAF_PRIME_LIMIT = 1 << 64
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every n below 2^64."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    # n is a strong probable prime to base a when a^d = 1 or
    # a^(d * 2^r) = -1 (mod n) for some r < s
    return all(pow(a, d, n) == 1 or any(pow(a, d << r, n) == n - 1
                                        for r in range(s))
               for a in _MR_BASES)


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
        if expr.p >= _LEAF_PRIME_LIMIT:
            raise UsageError("leaf primes must be below 2^64")
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


# Widest power _size evaluates exactly: far above the order of any
# group of buildable degree (4096! has about 43,000 bits).
_EXACT_BITS = 1 << 20


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
    the ceiling.  Without a ceiling, a power that would pass
    _EXACT_BITS bits raises UsageError instead of evaluating the tower.
    """
    if ceiling is None:
        over = None

        def cap(a: int) -> int:
            return a

        def power(a: int, e: int) -> int:
            # a >= 2, so a ** e has at least (bit_length - 1) * e bits
            if (a.bit_length() - 1) * e > _EXACT_BITS:
                raise UsageError(
                    "expression too large: its order or degree has more "
                    "than %d bits" % _EXACT_BITS)
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

# A Hall list as a function of sigma; None asks for the group's own list.
HallGenerators = Callable[[Optional[Collection[int]]], list[np.ndarray]]


@dataclass
class ConstructedGroup:
    """A permutation group together with its construction.

    hall_generators(sigma) lists image arrays that generate a Hall
    sigma-subgroup, built by the recursion that built the group's own
    generator list, hall_generators(None).  Creation builds the group's
    chain exactly and requires its order to equal the expression's order
    formula.
    """

    group: PermGroup
    expr: GroupExpr
    hall_generators: HallGenerators
    _hall_chain_cache: dict = field(default_factory=dict, repr=False)
    _h_cache: dict = field(default_factory=dict, repr=False)
    _d_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.order != expr_order(self.expr):
            raise SylowSystemError(
                "%s: the group has order %d, but the expression gives %d"
                % (self.describe(), self.order, expr_order(self.expr)))

    @property
    def degree(self) -> int:
        return self.group.degree

    @property
    def system(self) -> dict[int, tuple[Permutation, ...]]:
        """A Sylow system: for each prime p, the Hall (p,)-list.

        The recursion builds every Hall subgroup as the product of these
        members, so they permute pairwise.
        """
        return {p: tuple(Permutation(a, _checked=True)
                         for a in hall_chain(self, (p,))[1])
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
        return expr_to_text(self.expr)


def _constructed(degree: int, expr: GroupExpr,
                 hall_generators: HallGenerators) -> ConstructedGroup:
    # _build passes recursions that hold their children's recursions,
    # never the children, so no intermediate group outlives the build
    gens = tuple(Permutation(a, _checked=False) for a in hall_generators(None))
    return ConstructedGroup(PermGroup(degree, gens), expr, hall_generators)


# -- building -------------------------------------------------------------

def build(expr: GroupExpr, default_action: str = NATURAL,
          limits: Limits = DEFAULT_LIMITS) -> ConstructedGroup:
    """Materialize an expression as a permutation group with Sylow system.

    The one way to construct a group, and the one place that validates
    the expression and checks the degree budget.  Every leaf has degree
    at least 2 and at most its order, so no subexpression needs a larger
    degree than the whole tree, and _build needs no check of its own.
    """
    validate_expr(expr)
    if default_action not in (NATURAL, REGULAR):
        raise UsageError("unknown wreath action %r" % (default_action,))
    # exact up to this ceiling; anything larger only has to be seen to
    # exceed the budget
    ceiling = max(limits.max_degree, 1 << 64)
    required, _ = _size(expr, default_action, ceiling)
    if required > limits.max_degree:
        natural_deg, _ = _size(_all_natural(expr), NATURAL, ceiling)
        hint = ""
        if natural_deg < required:
            hint = (" (involves the regular action; all-natural would need"
                    " degree %s)" % _degree_text(natural_deg, ceiling))
        raise DegreeBudgetError(
            "degree budget exceeded: expression needs degree %s > %d%s"
            % (_degree_text(required, ceiling), limits.max_degree, hint),
            required)
    return _build(expr, default_action)


def _degree_text(degree: int, ceiling: int) -> str:
    return "%d" % degree if degree <= ceiling else "more than %d" % ceiling


def _all_natural(expr: GroupExpr) -> GroupExpr:
    if isinstance(expr, Wreath):
        return Wreath(_all_natural(expr.base), _all_natural(expr.top), NATURAL)
    if isinstance(expr, Direct):
        return Direct(_all_natural(expr.left), _all_natural(expr.right))
    if isinstance(expr, Iterated):
        return Iterated(_all_natural(expr.expr), expr.times)
    return expr


def _leaf(p: int, arrays: list[np.ndarray]) -> HallGenerators:
    return lambda sigma: list(arrays) if sigma is None or p in sigma else []


def _shift(arr: np.ndarray, offset: int, total: int) -> np.ndarray:
    out = np.arange(total, dtype=np.intp)
    out[offset:offset + arr.size] = arr + offset
    return out


def _build(expr: GroupExpr, default_action: str) -> ConstructedGroup:
    if isinstance(expr, Cyclic):
        n = expr.p ** expr.k
        images = np.roll(np.arange(n, dtype=np.intp), -1)
        return _constructed(n, expr, _leaf(expr.p, [images]))
    if isinstance(expr, ElemAbelian):
        p, n = expr.p, expr.k * expr.p
        gens = []
        for i in range(expr.k):
            arr = np.arange(n, dtype=np.intp)
            arr[i * p:(i + 1) * p] = np.roll(np.arange(i * p, (i + 1) * p), -1)
            gens.append(arr)
        return _constructed(n, expr, _leaf(p, gens))
    if isinstance(expr, Direct):
        A = _build(expr.left, default_action)
        B = _build(expr.right, default_action)
        total = A.degree + B.degree
        left, right, offset = A.hall_generators, B.hall_generators, A.degree

        def hall_generators(sigma):
            return ([_shift(g, 0, total) for g in left(sigma)]
                    + [_shift(g, offset, total) for g in right(sigma)])

        return _constructed(total, Direct(A.expr, B.expr), hall_generators)
    if isinstance(expr, Wreath):
        return _wreath(_build(expr.base, default_action),
                       _build(expr.top, default_action), expr.action)
    # validate_expr admits no other node, so expr is Iterated
    H = _build(expr.expr, default_action)
    result = H
    for _ in range(expr.times - 1):
        result = _wreath(result, H, default_action)
    return result


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


def _wreath(A: ConstructedGroup, B: ConstructedGroup,
            action: str) -> ConstructedGroup:
    m = A.degree
    if action == NATURAL:
        d, top = B.degree, B.hall_generators
    else:
        d = B.order
        # every Hall subgroup's top acts on the whole top's element list
        elems, index = _enumerate_elements(B)

        def top(sigma, gens=B.hall_generators):
            return [_right_translation(elems, index, g) for g in gens(sigma)]
    n, base = m * d, A.hall_generators

    def hall_generators(sigma):
        blocks = top(sigma)
        base_gens = base(sigma)
        gens = [_embed(a, rep, m, n) for rep in _block_orbit_reps(d, blocks)
                for a in base_gens]
        return gens + [_lift_block_perm(t, m) for t in blocks]

    return _constructed(n, Wreath(A.expr, B.expr, action), hall_generators)


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
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than the interpreter converts
            digits, self.pos = self.pos - start, start
            self.error("integer literal of %d digits is too long" % digits)

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
    """Exact chain and generator list of the Hall sigma-subgroup.

    The list is cg.hall_generators for sigma and the chain is built from
    it by Schreier-Sims; both are cached per canonical sigma on the
    constructed group.  Every generator must sift into the group's chain
    and the chain's order must be the sigma-part of |G|, so the list
    generates a Hall sigma-subgroup of G; otherwise SylowSystemError is
    raised.
    """
    key = tuple(sorted(set(sigma) & set(cg.primes)))
    cached = cg._hall_chain_cache.get(key)
    if cached is None:
        what = "%s: Hall {%s}-" % (cg.describe(), ",".join(map(str, key)))
        gens = cg.hall_generators(key)
        for i, g in enumerate(gens):
            if cg.group.chain.sift(g)[0] is not None:
                raise SylowSystemError(
                    what + "generator %d lies outside the group" % i)
        chain, _ = build_chain(cg.degree, gens)
        expected = p_part(cg.group.factored_order, key)
        if chain.order() != expected:
            raise SylowSystemError(what + "subgroup has order %d, not %d"
                                   % (chain.order(), expected))
        cached = cg._hall_chain_cache[key] = (chain, gens)
    return cached
