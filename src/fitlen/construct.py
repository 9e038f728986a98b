"""Build the example group families from expression trees.

`build(parse_expr(text))` is the one way to construct a group, and
`build` alone validates the expression and holds the degree budget.
Groups are assembled from cyclic and elementary-abelian leaves by
direct products, wreath products and iterated wreath powers.  The
recursion makes no group: each node is a record of its degree, its
expression and the recursion that makes its generator list as a
function of a prime set sigma.  A leaf outside sigma keeps its points
but adds no generator, a direct product joins both sides, and A wr B
embeds A_sigma's generators at the least block of each orbit of B_sigma and
lifts B_sigma's.  With every prime this is the group's own list; with
sigma it generates (A_sigma)^d B_sigma, a Hall sigma-subgroup.
Nothing is assumed about either: `build` turns the top record into
the only group, whose exact order it checks against the expression's
order formula, and `hall_chain` checks that each Hall list lies in the
group and that its exact chain has the sigma-part of that order.

Point layout of a wreath product A wr B with d top points: coordinate
i of A occupies points [i*deg(A), (i+1)*deg(A)); top generators permute
those blocks rigidly.  This layout is part of the stable output
contract, as is left association of iterated products.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Collection, Iterable, NamedTuple, Optional, Union

import numpy as np

from .chain import build_chain
from .errors import DegreeBudgetError, SylowSystemError, UsageError
from .group import PermGroup, p_part
from .perms import Permutation, _arange, _classes, compose_arrays

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
    return _exact_size(expr, default_action)[1]


def expr_degree(expr: GroupExpr, default_action: str = NATURAL) -> int:
    return _exact_size(expr, default_action)[0]


# Widest value expr_order and expr_degree evaluate: far above the order
# of any group of buildable degree (4096! has about 43,000 bits).
_EXACT_BITS = 1 << 20
_TOO_LARGE = 1 << _EXACT_BITS  # their saturation value


def _exact_size(expr: GroupExpr, default_action: str) -> tuple[int, int]:
    # no tree has a degree above its order, so the order saturates first
    degree, order = _size(expr, default_action, _TOO_LARGE)
    if order == _TOO_LARGE:
        raise UsageError("expression too large: its order or degree has "
                         "more than %d bits" % _EXACT_BITS)
    return degree, order


def _size(expr: GroupExpr, default_action: str, over: int) -> tuple[int, int]:
    """(degree, order) of expr, each exact below over and over past it.

    A regular-action top contributes its order as a point count and the
    orders above it raise to that power, so exact values can be
    exponent towers; saturating every intermediate value keeps the
    arithmetic about as wide as over, and a saturated degree still
    proves that a budget below over is exceeded.  Callers pass over
    itself: adding 1 to a wide ceiling on every call would copy it.
    """
    def cap(a: int) -> int:
        return min(a, over)

    def power(a: int, e: int) -> int:
        # every value is at least 2, and a ** e >= 2 ** ((bits - 1) * e)
        if (a.bit_length() - 1) * e >= over.bit_length():
            return over
        return min(a ** e, over)

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
    formula.  _hall_records holds, per canonical sigma, the proof record
    (generator list, exact order) that hall_chain leaves; the group's
    chain is the only one kept.
    """

    group: PermGroup
    expr: GroupExpr
    hall_generators: HallGenerators
    _hall_records: dict = field(default_factory=dict, repr=False)
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


class _Part(NamedTuple):
    """A subexpression as _build makes it: no group, only its recursion."""

    degree: int
    expr: GroupExpr
    hall_generators: HallGenerators


# -- building -------------------------------------------------------------

# Largest permutation degree any construction may produce.  No budget
# but this and oracle.ORACLE_CAP is needed: each series step shrinks the
# group, and every oracle computation works inside one enumerated group.
MAX_DEGREE = 4096


def build(expr: GroupExpr, default_action: str = NATURAL,
          max_degree: int = MAX_DEGREE) -> ConstructedGroup:
    """Materialize an expression as a permutation group with Sylow system.

    The one way to construct a group, and the one place that validates
    the expression and checks the degree budget.  Every leaf has degree
    at least 2 and at most its order, so no subexpression needs a larger
    degree than the whole tree, and _build needs no check of its own.
    _build returns records, so the group made here is the only one: one
    chain and one order check per build.
    """
    validate_expr(expr)
    if default_action not in (NATURAL, REGULAR):
        raise UsageError("unknown wreath action %r" % (default_action,))
    # exact up to this ceiling; anything larger only has to be seen to
    # exceed the budget
    ceiling = max(max_degree, 1 << 64)
    required, _ = _size(expr, default_action, ceiling + 1)
    if required > max_degree:
        natural_deg, _ = _size(_all_natural(expr), NATURAL, ceiling + 1)
        hint = ""
        if natural_deg < required:
            hint = (" (involves the regular action; all-natural would need"
                    " degree %s)" % _degree_text(natural_deg, ceiling))
        raise DegreeBudgetError(
            "degree budget exceeded: expression needs degree %s > %d%s"
            % (_degree_text(required, ceiling), max_degree, hint),
            required)
    root = _build(expr, default_action)
    gens = tuple(Permutation(a, _checked=False)
                 for a in root.hall_generators(None))
    return ConstructedGroup(PermGroup(root.degree, gens), root.expr,
                            root.hall_generators)


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


def _build(expr: GroupExpr, default_action: str) -> _Part:
    if isinstance(expr, Cyclic):
        n = expr.p ** expr.k
        images = np.roll(np.arange(n, dtype=np.intp), -1)
        return _Part(n, expr, _leaf(expr.p, [images]))
    if isinstance(expr, ElemAbelian):
        p, n = expr.p, expr.k * expr.p
        gens = []
        for i in range(expr.k):
            arr = np.arange(n, dtype=np.intp)
            arr[i * p:(i + 1) * p] = np.roll(np.arange(i * p, (i + 1) * p), -1)
            gens.append(arr)
        return _Part(n, expr, _leaf(p, gens))
    if isinstance(expr, Direct):
        A = _build(expr.left, default_action)
        B = _build(expr.right, default_action)
        total = A.degree + B.degree
        left, right, offset = A.hall_generators, B.hall_generators, A.degree

        def hall_generators(sigma):
            return ([_shift(g, 0, total) for g in left(sigma)]
                    + [_shift(g, offset, total) for g in right(sigma)])

        return _Part(total, Direct(A.expr, B.expr), hall_generators)
    if isinstance(expr, Wreath):
        return _wreath(_build(expr.base, default_action),
                       _build(expr.top, default_action), expr.action)
    # validate_expr admits no other node, so expr is Iterated
    H = _build(expr.expr, default_action)
    result = H
    for _ in range(expr.times - 1):
        result = _wreath(result, H, default_action)
    return result


def _enumerate_elements(B: _Part) -> tuple[list[np.ndarray], dict[bytes, int]]:
    gens = B.hall_generators(None)
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


def _wreath(A: _Part, B: _Part, action: str) -> _Part:
    m = A.degree
    if action == NATURAL:
        d, top = B.degree, B.hall_generators
    else:
        # every Hall subgroup's top acts on the whole top's element list
        elems, index = _enumerate_elements(B)
        d = len(elems)

        def top(sigma, gens=B.hall_generators):
            return [_right_translation(elems, index, g) for g in gens(sigma)]
    n, base = m * d, A.hall_generators

    def hall_generators(sigma):
        blocks = top(sigma)
        base_gens = base(sigma)
        reps = np.flatnonzero(_classes(d, blocks) == _arange(d))
        gens = [_shift(a, rep * m, n) for rep in reps for a in base_gens]
        return gens + [_lift_block_perm(t, m) for t in blocks]

    return _Part(n, Wreath(A.expr, B.expr, action), hall_generators)


# -- expression text ---------------------------------------------------------

# The parser's and printer's one grammar: name -> (node type, argument
# kinds in field order, "e" expression or "i" integer, remaining fields)
_FORMS = {
    "C": (Cyclic, "ii", ()),
    "EA": (ElemAbelian, "ii", ()),
    "D": (Direct, "ee", ()),
    "W": (Wreath, "ee", (NATURAL,)),
    "WR": (Wreath, "ee", (REGULAR,)),
    "IT": (Iterated, "ei", ()),
}


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
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
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
        if word not in _FORMS:
            self.pos = start
            self.error("expected one of %s" % ", ".join(_FORMS))
        return word

    def expr(self) -> GroupExpr:
        node_type, kinds, fixed = _FORMS[self.name()]
        self.expect("(")
        args = []
        for i, kind in enumerate(kinds):
            if i:
                self.expect(",")
            args.append(self.expr() if kind == "e" else self.integer())
        self.expect(")")
        return node_type(*args, *fixed)


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


def expr_to_text(expr: GroupExpr) -> str:
    values = (tuple(getattr(expr, f.name) for f in fields(expr))
              if isinstance(expr, GroupExpr) else ())
    for name, (node_type, kinds, fixed) in _FORMS.items():
        if isinstance(expr, node_type) and values[len(kinds):] == fixed:
            args = (expr_to_text(v) if kind == "e" else "%d" % v
                    for kind, v in zip(kinds, values))
            return "%s(%s)" % (name, ",".join(args))
    raise UsageError("not a group expression: %r" % (expr,))


# -- Hall chains --------------------------------------------------------------

def canonical_sigma(cg: ConstructedGroup,
                    sigma: Iterable[int]) -> tuple[int, ...]:
    """sigma restricted to pi(G), sorted and deduplicated."""
    return tuple(sorted(set(sigma) & set(cg.primes)))


def hall_chain(cg: ConstructedGroup, sigma: Iterable[int]):
    """Build and prove the exact chain of the Hall sigma-subgroup.

    The list is cg.hall_generators for sigma and the chain is built from
    it by Schreier-Sims.  Every generator must sift into the group's
    chain, the chain's order must be the sigma-part of |G|, and for
    2 <= |sigma| < w each Sylow p-list, p in sigma, must sift into the
    chain, since hall_profile seeds from them; otherwise SylowSystemError
    is raised.  Returns (chain, list) and caches only the proof record
    (list, chain order) in cg._hall_records: no chain outlives its proof.
    """
    key = canonical_sigma(cg, sigma)
    name, hall = cg.describe(), "Hall {%s}-" % ",".join(map(str, key))
    gens = cg.hall_generators(key)
    for i, g in enumerate(gens):
        if cg.group.chain.sift(g)[0] is not None:
            raise SylowSystemError("%s: %sgenerator %d lies outside the "
                                   "group" % (name, hall, i))
    chain, _ = build_chain(cg.degree, gens)
    expected = p_part(cg.group.factored_order, key)
    if chain.order() != expected:
        raise SylowSystemError("%s: %ssubgroup has order %d, not %d"
                               % (name, hall, chain.order(), expected))
    for p in key if 2 <= len(key) < cg.num_primes else ():
        if any(chain.sift(g)[0] is not None for g in cg.hall_generators((p,))):
            raise SylowSystemError("%s: a Sylow %d-generator lies outside "
                                   "the %ssubgroup" % (name, p, hall))
    cg._hall_records[key] = (gens, chain.order())
    return chain, gens
