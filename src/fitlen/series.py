"""Subgroup series and the two invariants they measure.

Derived length comes from the derived series.  Fitting length is
computed through the lower nilpotent series (iterated nilpotent
residuals), which needs no quotient groups and therefore scales to the
large-degree constructions; the brute-force oracle cross-checks it
against the upper Fitting series on small groups.

Every series stops at the first step that does not shrink its term.
Each kept term's order properly divides the previous one, so a series
of G has at most log2|G| + 1 terms.  A non-soluble group stops above
order 1 and raises NotSolubleError.

Implementation notes, since the large examples live or die here:

* Every term of every series computed below is normal in the group the
  series started from (the terms are fully invariant in a normal
  subgroup), so normal closures always conjugate by that root group's
  generator list, which the constructions keep very short.

* Successive terms are represented by *normal* generators: if
  L = <X>^G then [L, N] = <[x, t] : x in X, t in gens(N)>^G, so the
  seed set for the next step only needs the previous step's surviving
  seeds, not the full generator list its chain accumulated.

* Disjoint supports settle two kinds of seed in advance.  Permutations
  that move disjoint point sets commute, so their commutator is the
  identity and _commutators skips the pair without composing it.  For
  the same reason, conjugating a frontier element x by a conjugator
  disjoint from x gives x back, which the closure has already seen, so
  _closure skips it.  Neither skip changes a kept list: each skipped
  element could only be the identity or an element already seen.

* Generator lists are used as given, never slimmed.  A closure keeps a
  conjugate only when it strictly enlarges a fully verified chain, so
  no kept generator lies in the group of those before it: the list is
  irredundant and rebuilding a chain to shorten it would drop nothing
  (Seress 2003, ch. 4).  A Hall subgroup arrives with the list its
  construction's recursion builds: one embedded copy of each base
  generator per block orbit of the top, then the lifted top generators.
  That list is irredundant too, and tests/test_series.py checks every
  Hall list of three example groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .chain import StabilizerChain
from .errors import ContainmentError, NotSolubleError
from .group import PermGroup
from .perms import (Permutation, _arange, compose_arrays, invert_array,
                    support_mask)


@dataclass(frozen=True)
class SubgroupSeries:
    kind: str  # derived | lower_central | lower_nilpotent
    terms: tuple[PermGroup, ...]

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def _commutators(left: Sequence[np.ndarray], right: Sequence[np.ndarray]):
    """[x, t] = x^-1 t^-1 x t (applied left to right) for every pair,
    skipping the pairs whose commutator is the identity.

    Each factor is inverted once, so a step over m left and n right
    generators makes m + n inversions instead of 2mn.  Pairs with
    disjoint supports commute and are skipped before any composition.
    """
    right_items = [(t, invert_array(t), support_mask(t)) for t in right]
    for x in left:
        ident = _arange(x.size).tobytes()
        x_inv = invert_array(x)
        x_mask = support_mask(x)
        for t, t_inv, t_mask in right_items:
            if x_mask & t_mask:
                c = t[x[t_inv[x_inv]]]
                if c.tobytes() != ident:
                    yield c


def _closure(degree: int, seeds: Iterable[np.ndarray],
             conjugators: Sequence[np.ndarray]):
    """Normal closure of the seeds under the conjugators.

    The conjugators must generate a group in which the closure is
    normal.  Returns (group, kept_seeds): the seeds that enlarged the
    chain normally generate the closure, so they are what the caller
    should carry into a follow-up commutator step.

    The group's generator list is irredundant: an element is kept only
    when add_generator, which verifies the chain after every insertion,
    finds it outside the group of the elements kept before it.  So
    PermGroup.reduced() would return the same list, and callers use it
    as it is.
    """
    chain = StabilizerChain(degree)
    kept: list[np.ndarray] = []
    kept_seeds: list[np.ndarray] = []
    frontier: list[np.ndarray] = []
    seen: set[bytes] = set()
    for s in seeds:
        key = s.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if chain.add_generator(s):
            kept.append(s)
            kept_seeds.append(s)
            frontier.append(s)
    conj_items = [(c, invert_array(c), support_mask(c)) for c in conjugators]
    qi = 0
    while qi < len(frontier):
        x = frontier[qi]
        x_mask = support_mask(x)
        qi += 1
        for c, c_inv, c_mask in conj_items:
            # a conjugator disjoint from x gives x back, which seen holds
            if not x_mask & c_mask:
                continue
            y = compose_arrays(compose_arrays(c_inv, x), c)
            key = y.tobytes()
            if key in seen:
                continue
            seen.add(key)
            if chain.add_generator(y):
                kept.append(y)
                frontier.append(y)
    return PermGroup.from_arrays(degree, kept, chain=chain), kept_seeds


def _gen_arrays(G: PermGroup) -> list[np.ndarray]:
    return [g.images for g in G.generators]


def _check_inside(G: PermGroup, elements: Sequence[Permutation], what: str) -> None:
    for g in elements:
        if not G.contains(g):
            raise ContainmentError("%s: %s lies outside the group" % (what, g))


def normal_closure(G: PermGroup, S: Sequence[Permutation]) -> PermGroup:
    """Smallest subgroup of G containing S and normalized by G."""
    _check_inside(G, S, "normal_closure")
    group, _ = _closure(G.degree, [g.images for g in S], _gen_arrays(G))
    return group


def commutator_subgroup(H: PermGroup, K: PermGroup,
                        ambient: PermGroup) -> PermGroup:
    """[H, K]: the normal closure in <H, K> of the generator commutators."""
    _check_inside(ambient, H.generators, "commutator_subgroup (left)")
    _check_inside(ambient, K.generators, "commutator_subgroup (right)")
    h_arrays = _gen_arrays(H)
    k_arrays = _gen_arrays(K)
    seeds = list(_commutators(h_arrays, k_arrays))
    group, _ = _closure(H.degree, seeds, h_arrays + k_arrays)
    return group


def _commutator_step(degree: int, left_normal_gens: Sequence[np.ndarray],
                     right_gens: Sequence[np.ndarray],
                     conjugators: Sequence[np.ndarray]):
    """[<X>^G, <right_gens>] as (group, kept_seeds).

    Valid whenever the conjugators generate a group G that normalizes
    both arguments and the result; [x^g, t] = [x, t^(g^-1)]^g keeps the
    G-closure of the pairwise commutators equal to the full commutator
    subgroup.  Repeated commutators are skipped by the closure.
    """
    return _closure(degree, _commutators(left_normal_gens, right_gens),
                    conjugators)


def _descend(start, step):
    """Apply step from start until the group stops shrinking.

    start and every step result are (term, witness) pairs, the witness
    being normal generators of the term for the next step to start from.
    Returns the strictly descending terms and the last term's witness.
    A trivial term ends the series without a further step.  Each kept
    term's order properly divides the one before, so a series of G has
    at most log2|G| + 1 terms; a non-soluble input stops above order 1,
    which _stops_at_one reports.
    """
    term, witness = start
    terms = [term]
    while term.order > 1:
        nxt, nxt_witness = step(term, witness)
        if nxt.order == term.order:
            break
        term, witness = nxt, nxt_witness
        terms.append(term)
    return terms, witness


def _stops_at_one(terms: list[PermGroup], what: str) -> tuple[PermGroup, ...]:
    if terms[-1].order > 1:
        raise NotSolubleError("%s stabilized at order %d" % (what, terms[-1].order))
    return tuple(terms)


# -- derived series ---------------------------------------------------------

def derived_series(G: PermGroup) -> SubgroupSeries:
    conj = _gen_arrays(G)
    terms, _ = _descend(
        (G, conj),
        lambda T, x: _commutator_step(G.degree, x, _gen_arrays(T), conj))
    return SubgroupSeries("derived", _stops_at_one(terms, "derived series"))


def derived_length(G: PermGroup) -> int:
    return derived_series(G).length


# -- lower central series and the nilpotent residual ------------------------

def _central_step(N: PermGroup, conj: Sequence[np.ndarray]):
    """The step L -> [L, N] of N's lower central series.

    conj must generate a group in which N and every term of its lower
    central series is normal; N's own generators always qualify, and so
    do the generators of any group having N as a term of one of these
    series.
    """
    right = _gen_arrays(N)
    return lambda L, x: _commutator_step(N.degree, x, right, conj)


def lower_central_series(H: PermGroup) -> SubgroupSeries:
    """L1 = H, L(k+1) = [Lk, H], stopping when the terms stabilize.

    The last term is the nilpotent residual of H.
    """
    conj = _gen_arrays(H)
    terms, _ = _descend((H, conj), _central_step(H, conj))
    return SubgroupSeries("lower_central", tuple(terms))


def nilpotent_residual(H: PermGroup) -> PermGroup:
    """Stabilization term of the lower central series of H."""
    return lower_central_series(H).terms[-1]


def is_nilpotent(G: PermGroup) -> bool:
    return nilpotent_residual(G).order == 1


# -- lower nilpotent series and Fitting length -------------------------------

def _system_residual_seeds(system_gens: dict[int, Sequence[np.ndarray]]):
    """Cross-prime commutators of Sylow generators.

    Given one Sylow p-subgroup P_p of G for each prime p, not
    necessarily a Sylow system, the normal closure N of these seeds is
    the nilpotent residual.  The P_p generate G, so G/N is a product of
    pairwise commuting p-groups for distinct primes, which is
    nilpotent.  Conversely, distinct-prime Sylow subgroups commute
    modulo the nilpotent residual, since the quotient is the direct
    product of its Sylow subgroups, so every seed lies in it.
    """
    primes = sorted(system_gens)
    seeds = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            seeds.extend(_commutators(system_gens[p], system_gens[q]))
    return seeds


def lower_nilpotent_series(G: PermGroup,
                           system_gens: Optional[dict] = None) -> SubgroupSeries:
    """N0 = G, N(i+1) = nilpotent residual of Ni, down to the trivial group.

    When the caller has generator arrays of one Sylow p-subgroup of G
    for each prime p, passing them computes the first residual as a
    single normal closure instead of a lower-central iteration; later
    terms carry no seeds and always use the iteration.
    """
    conj = _gen_arrays(G)

    def residual(N: PermGroup, x):
        if N is G and system_gens is not None:
            return _closure(G.degree, _system_residual_seeds(system_gens), conj)
        terms, witness = _descend((N, x), _central_step(N, conj))
        return terms[-1], witness

    terms, _ = _descend((G, conj), residual)
    return SubgroupSeries("lower_nilpotent",
                          _stops_at_one(terms, "lower nilpotent series"))


def fitting_length(G: PermGroup, system_gens: Optional[dict] = None) -> int:
    """Number of nilpotent-residual steps it takes to reach the trivial group."""
    return lower_nilpotent_series(G, system_gens).length
