"""Brute-force ground truth on tiny groups.

Everything here enumerates elements explicitly (as image tuples) and is
capped by the oracle limit.  It exists to cross-check the chain-based
machinery along an independent route: sigma-cores via normal closures
of single elements, the Fitting subgroup as the join of the p-cores,
the Fitting length through the upper series with genuine quotient
groups, Hall subgroups by greedy search instead of Sylow systems,
product-set factorizations, and the empirical harness for the two
trifactorization conjectures.

Closures grow one generator at a time by Dimino's algorithm (Holt,
Eick, O'Brien, *Handbook of Computational Group Theory*, section 4.1):
a generator already inside is skipped, and the new group is listed
coset by coset, so each new element costs one product and each
(coset representative, generator) pair is tried once.  Products are
C-level `itemgetter` calls, built once per left factor.  The normal
closure of a conjugacy class matters only for its order, so only the
primes of that order are kept, and only for the classes `core_sigma`
actually reaches.

Only element sets and invariants are contracts.  The order in which a
`TinyGroup` lists its elements, its classes or the generators of a core
follows from the enumeration and may change with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import NotSolubleError, OracleScaleError
from .group import PermGroup, factorize

Elem = tuple[int, ...]


def _left(a: Elem) -> Callable[[Elem], Elem]:
    """b -> the product of a then b, as one C-level call.

    itemgetter with a single index returns a scalar, not a 1-tuple, so
    degrees 0 and 1 keep the plain tuple build.
    """
    if len(a) > 1:
        return itemgetter(*a)
    return lambda b: tuple(b[x] for x in a)


def _mul(a: Elem, b: Elem) -> Elem:
    # apply a first, then b
    return _left(a)(b)


def _inv(a: Elem) -> Elem:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def element_order(a: Elem) -> int:
    """The lcm of the cycle lengths; no products are formed."""
    seen = bytearray(len(a))
    n = 1
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = a[x]
            length += 1
        n = lcm(n, length)
    return n


class _Closure:
    """A subgroup grown one generator at a time (Dimino's algorithm).

    elems is always a group H.  Adding g lists <H, g> as right cosets
    H r: the first is H g, and each product r s of a coset
    representative with a generator that falls outside the cosets listed
    so far opens another.  Once no product does, the cosets are closed
    under every generator, so they are the group.  Each (representative,
    generator) pair is tried once, and each new element costs one
    product, through getters for H built once per added generator.
    """

    def __init__(self, degree: int, cap: int):
        ident = tuple(range(degree))
        self.elems = [ident]
        self.seen = {ident}
        self.gens: list[Elem] = []
        self.cap = cap

    def add(self, g: Elem) -> None:
        if g in self.seen:  # a closure is a group: g adds nothing
            return
        self.gens.append(g)
        old = [_left(h) for h in self.elems]
        reps = [g]
        self._coset(old, g)
        j = 0
        while j < len(reps):
            times = _left(reps[j])
            j += 1
            for s in self.gens:
                y = times(s)
                if y not in self.seen:
                    reps.append(y)
                    self._coset(old, y)

    def _coset(self, old: list[Callable[[Elem], Elem]], r: Elem) -> None:
        if len(self.elems) + len(old) > self.cap:
            raise OracleScaleError(
                "oracle scale exceeded: more than %d elements" % self.cap)
        coset = [times(r) for times in old]
        self.seen.update(coset)
        self.elems.extend(coset)


class TinyGroup:
    """A fully enumerated permutation group on {0..degree-1}."""

    def __init__(self, degree: int, elements: list[Elem], gens: list[Elem]):
        self.degree = degree
        self.elements = elements
        self.gens = gens
        self.index = {e: i for i, e in enumerate(elements)}
        self._classes: Optional[list[list[Elem]]] = None
        # class index -> primes of ord(x) and of |<x^G>| for a
        # representative x, each filled on demand
        self._rep_primes: dict[int, frozenset[int]] = {}
        self._closure_primes: dict[int, frozenset[int]] = {}
        self._core_cache: dict[tuple[int, ...], "TinyGroup"] = {}
        self._hall_cache: dict[tuple[int, ...], "TinyGroup"] = {}

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, e: Elem) -> bool:
        return e in self.index

    def identity(self) -> Elem:
        return tuple(range(self.degree))

    def primes(self) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        return tuple(sorted(factorize(self.order)))

    def conjugacy_classes(self) -> list[list[Elem]]:
        """Conjugacy classes in first-seen element order."""
        if self._classes is None:
            seen: set[Elem] = set()
            classes = []
            # x^g = g^-1 x g, formed as g^-1 (x g)
            pairs = [(g, _left(_inv(g))) for g in self.gens]
            for e in self.elements:
                if e in seen:
                    continue
                cls = [e]
                seen.add(e)
                qi = 0
                while qi < len(cls):
                    times = _left(cls[qi])
                    qi += 1
                    for g, inv_times in pairs:
                        y = inv_times(times(g))
                        if y not in seen:
                            seen.add(y)
                            cls.append(y)
                classes.append(cls)
            self._classes = classes
        return self._classes


def _bfs_closure(degree: int, gens: Sequence[Elem], cap: int) -> list[Elem]:
    """The elements of <gens>, identity first; at most cap of them."""
    closure = _Closure(degree, cap)
    for g in gens:
        closure.add(g)
    return closure.elems


def enumerate_group(G, limits: Limits = DEFAULT_LIMITS) -> TinyGroup:
    """Enumerate a PermGroup (or generator list) by closure."""
    if isinstance(G, TinyGroup):
        return G
    if isinstance(G, PermGroup):
        degree = G.degree
        perms = G.generators
    else:
        perms = tuple(G)
        degree = perms[0].degree if perms else 1
    gens = [tuple(int(x) for x in g.images) for g in perms]
    return TinyGroup(degree, _bfs_closure(degree, gens, limits.oracle_cap),
                     gens)


def subgroup_closure(T: TinyGroup, gens: Sequence[Elem]) -> TinyGroup:
    """Subgroup of T generated by the given elements."""
    gens = [g for g in gens if g != T.identity()]
    elems = _bfs_closure(T.degree, gens, T.order + 1)
    return TinyGroup(T.degree, elems, gens)


# -- cores, Fitting subgroup, upper Fitting length --------------------------

def _rep_primes(T: TinyGroup, i: int, cls: list[Elem]) -> frozenset[int]:
    # primes of ord(x) for the i-th class; conjugate elements share them
    primes = T._rep_primes.get(i)
    if primes is None:
        primes = T._rep_primes[i] = frozenset(
            factorize(element_order(cls[0])))
    return primes


def _closure_primes(T: TinyGroup, i: int, cls: list[Elem]) -> frozenset[int]:
    # primes of |<x^G>| for the i-th class, whose elements generate it
    primes = T._closure_primes.get(i)
    if primes is None:
        order = len(_bfs_closure(T.degree, cls, T.order + 1))
        primes = T._closure_primes[i] = frozenset(factorize(order))
    return primes


def core_sigma(T: TinyGroup, sigma: Iterable[int]) -> TinyGroup:
    """O_sigma(T): the largest normal sigma-subgroup.

    Generated by every element whose normal closure is a sigma-group;
    products of normal sigma-subgroups are again normal sigma-subgroups,
    so that join is exact.

    A class is ruled out by its representative's order first: x lies in
    <x^G>, so by Lagrange ord(x) divides |<x^G>|, and a prime of ord(x)
    outside sigma already makes the closure no sigma-group.  Only the
    classes that pass get their closure order computed, once per T.
    """
    key = tuple(sorted(set(sigma)))
    cached = T._core_cache.get(key)
    if cached is not None:
        return cached
    sigma_set = set(key)
    gens: list[Elem] = []
    current = _Closure(T.degree, T.order + 1)
    for i, cls in enumerate(T.conjugacy_classes()):
        if cls[0] in current.seen:  # so is the class: the join is normal
            continue
        if not (_rep_primes(T, i, cls) <= sigma_set
                and _closure_primes(T, i, cls) <= sigma_set):
            continue
        gens.extend(cls)
        for x in cls:
            current.add(x)
    result = TinyGroup(T.degree, sorted(current.elems), gens)
    T._core_cache[key] = result
    return result


def fitting_subgroup(T: TinyGroup) -> TinyGroup:
    """F(T): the join of the p-cores over the primes dividing |T|."""
    gens: list[Elem] = []
    for p in T.primes():
        gens.extend(core_sigma(T, (p,)).gens)
    elems = _bfs_closure(T.degree, gens, T.order + 1)
    return TinyGroup(T.degree, sorted(elems), gens)


def is_nilpotent_tiny(T: TinyGroup) -> bool:
    return fitting_subgroup(T).order == T.order


def quotient_by(T: TinyGroup, N: TinyGroup) -> TinyGroup:
    """T/N realized by left multiplication on the cosets of N.

    N must be normal in T; only sound at tiny scale, which is the point
    of this module.
    """
    coset_of: dict[Elem, int] = {}
    reps: list[Elem] = []
    for e in T.elements:
        if e in coset_of:
            continue
        cid = len(reps)
        reps.append(e)
        times = _left(e)
        for n in N.elements:
            coset_of[times(n)] = cid
    qgens = []
    for g in T.gens:
        qgens.append(tuple(coset_of[_mul(rep, g)] for rep in reps))
    qdeg = max(len(reps), 1)
    elems = _bfs_closure(qdeg, qgens, len(reps) + 1)
    return TinyGroup(qdeg, elems, qgens)


def fitting_length_upper(T: TinyGroup) -> int:
    """Length of the upper Fitting series, via iterated quotients by F.

    A trivial F raises, so every quotient is strictly smaller and the
    loop ends after at most log2|T| steps.
    """
    steps = 0
    current = T
    while current.order > 1:
        F = fitting_subgroup(current)
        if F.order == 1:
            raise NotSolubleError(
                "Fitting subgroup trivial at order %d" % current.order)
        current = quotient_by(current, F)
        steps += 1
    return steps


# -- Hall subgroups by search ------------------------------------------------

def hall_subgroup_search(T: TinyGroup, sigma: Iterable[int]) -> TinyGroup:
    """A Hall sigma-subgroup found greedily, independent of any Sylow system.

    Every maximal sigma-subgroup of a soluble group is a Hall
    sigma-subgroup, so greedily absorbing sigma-elements that keep the
    closure a sigma-group terminates at one; the order is checked.
    """
    key = tuple(sorted(set(sigma) & set(T.primes())))
    cached = T._hall_cache.get(key)
    if cached is not None:
        return cached
    sigma_set = set(key)
    target = 1
    for p, e in factorize(T.order).items():
        if p in sigma_set:
            target *= p ** e
    gens: list[Elem] = []
    current: set[Elem] = {T.identity()}
    if target > 1:
        for x in T.elements:
            if len(current) == target:
                break
            if x in current:
                continue
            if not set(factorize(element_order(x))) <= sigma_set:
                continue
            candidate = _bfs_closure(T.degree, gens + [x], T.order + 1)
            if set(factorize(len(candidate))) <= sigma_set:
                gens.append(x)
                current = set(candidate)
    if len(current) != target:
        raise NotSolubleError(
            "no Hall subgroup for %r: reached order %d, wanted %d"
            % (key, len(current), target))
    result = TinyGroup(T.degree, sorted(current), gens)
    T._hall_cache[key] = result
    return result


def core_containment_holds(T: TinyGroup, sigma: Iterable[int],
                                  p: int, q: int) -> bool:
    """Whether O_p(G_sigma) lies inside O_{q'}(G), for p != q in sigma."""
    sigma = tuple(sorted(set(sigma)))
    if p == q or p not in sigma or q not in sigma:
        raise ValueError("need two distinct primes inside sigma")
    hall = hall_subgroup_search(T, sigma)
    inner = core_sigma(hall, (p,))
    qprime = tuple(r for r in T.primes() if r != q)
    outer = core_sigma(T, qprime)
    outer_set = outer.index
    return all(e in outer_set for e in inner.elements)


# -- product sets and the conjecture harness --------------------------------

def product_set(H_elems: Sequence[Elem], K_elems: Sequence[Elem]) -> set[Elem]:
    """The set of products hk; K_elems must list a subgroup K.

    HK is the union of the cosets hK, and an h already in HK lies in an
    earlier coset h'K, so hK = h'K adds nothing: each coset is formed
    once, |HK| products in place of |H||K|.  Inside an enumerated T the
    work is at most |H| + |HK| <= 2|T|, which the oracle cap bounds.
    """
    out: set[Elem] = set()
    for h in H_elems:
        if h not in out:
            out.update(map(_left(h), K_elems))
    return out


def product_set_order(H: TinyGroup, K: TinyGroup) -> int:
    """|HK| by hashed enumeration."""
    return len(product_set(H.elements, K.elements))


@dataclass(frozen=True)
class TrifactorReport:
    """Outcome of one trifactorization instance; data, not a verdict."""

    orders: tuple[int, int, int, int]        # |G|, |H|, |K|, |L|
    product_orders: tuple[int, int, int]     # |HK|, |KL|, |LH|
    hypothesis_met: bool
    h_values: Optional[tuple[int, int, int, int]]  # h(G), h(H), h(K), h(L)
    bound_value: Optional[int]               # h(H)+h(K)+h(L)-2
    inequality_holds: Optional[bool]
    all_nilpotent: bool
    kegel_confirmed: Optional[bool]          # G nilpotent, when all three are


def check_trifactorization(T: TinyGroup,
                           H_gens: Sequence[Elem],
                           K_gens: Sequence[Elem],
                           L_gens: Sequence[Elem]) -> TrifactorReport:
    """G = HK = KL = LH harness; reports outcomes without asserting them."""
    H = subgroup_closure(T, H_gens)
    K = subgroup_closure(T, K_gens)
    L = subgroup_closure(T, L_gens)
    hk = product_set_order(H, K)
    kl = product_set_order(K, L)
    lh = product_set_order(L, H)
    met = hk == T.order and kl == T.order and lh == T.order
    all_nilp = all(is_nilpotent_tiny(X) for X in (H, K, L))
    h_values = None
    bound = None
    holds = None
    kegel = None
    if met:
        h_values = tuple(fitting_length_upper(X) for X in (T, H, K, L))
        bound = h_values[1] + h_values[2] + h_values[3] - 2
        holds = h_values[0] <= bound
        if all_nilp:
            kegel = is_nilpotent_tiny(T)
    return TrifactorReport(
        orders=(T.order, H.order, K.order, L.order),
        product_orders=(hk, kl, lh),
        hypothesis_met=met,
        h_values=h_values,
        bound_value=bound,
        inequality_holds=holds,
        all_nilpotent=all_nilp,
        kegel_confirmed=kegel,
    )


@dataclass(frozen=True)
class TriProductReport:
    """Outcome of one nilpotent triple-product instance."""

    orders: tuple[int, int, int, int]          # |G|, |N1|, |N2|, |N3|
    triple_product_order: int
    pairwise_permutable: bool
    all_nilpotent: bool
    hypothesis_met: bool
    pair_h: Optional[tuple[int, int, int]]      # h(N1N2), h(N2N3), h(N3N1)
    bound_value: Optional[int]
    h_g: Optional[int]
    inequality_holds: Optional[bool]


def check_nilpotent_triple_product(T: TinyGroup,
                                   n1_gens: Sequence[Elem],
                                   n2_gens: Sequence[Elem],
                                   n3_gens: Sequence[Elem]) -> TriProductReport:
    """G = N1 N2 N3 harness with pairwise-permutable nilpotent factors."""
    Ns = [subgroup_closure(T, g) for g in (n1_gens, n2_gens, n3_gens)]
    pair_sets = {}
    permutable = True
    for (i, j) in ((0, 1), (1, 2), (2, 0)):
        ij = product_set(Ns[i].elements, Ns[j].elements)
        ji = product_set(Ns[j].elements, Ns[i].elements)
        if ij != ji:
            permutable = False
        pair_sets[(i, j)] = ij
    triple = product_set(sorted(pair_sets[(0, 1)]), Ns[2].elements)
    all_nilp = all(is_nilpotent_tiny(N) for N in Ns)
    met = permutable and all_nilp and len(triple) == T.order
    pair_h = None
    bound = None
    h_g = None
    holds = None
    if met:
        hs = []
        for (i, j) in ((0, 1), (1, 2), (2, 0)):
            sub = TinyGroup(T.degree, sorted(pair_sets[(i, j)]),
                            Ns[i].gens + Ns[j].gens)
            hs.append(fitting_length_upper(sub))
        pair_h = tuple(hs)
        bound = sum(hs) - 2
        h_g = fitting_length_upper(T)
        holds = h_g <= bound
    return TriProductReport(
        orders=(T.order, Ns[0].order, Ns[1].order, Ns[2].order),
        triple_product_order=len(triple),
        pairwise_permutable=permutable,
        all_nilpotent=all_nilp,
        hypothesis_met=met,
        pair_h=pair_h,
        bound_value=bound,
        h_g=h_g,
        inequality_holds=holds,
    )
