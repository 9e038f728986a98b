"""Subgroup series and the two invariants they measure.

Derived length comes from the derived series.  Fitting length is
computed through the lower nilpotent series (iterated nilpotent
residuals), which needs no quotient groups and therefore scales to the
large-degree constructions; the brute-force oracle cross-checks it
against the upper Fitting series on small groups.

Implementation notes, since the large examples live or die here:

* Every term of every series computed below is normal in the group the
  series started from (the terms are fully invariant in a normal
  subgroup), so normal closures always conjugate by that root group's
  generator list, which the constructions keep very short.

* Successive terms are represented by *normal* generators: if
  L = <X>^G then [L, N] = <[x, t] : x in X, t in gens(N)>^G, so the
  seed set for the next step only needs the previous step's surviving
  seeds, not the full generator list its chain accumulated.

* Generator lists are used as given, never slimmed.  A closure keeps a
  conjugate only when it strictly enlarges a fully verified chain, so
  no kept generator lies in the group of those before it: the list is
  irredundant and rebuilding a chain to shorten it would drop nothing
  (Seress 2003, ch. 4).  Hall subgroups arrive with the kept list of a
  batched chain build, which is irredundant for most prime sets but not
  for all; tests/test_series.py pins every list of two example families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chain import StabilizerChain
from .config import DEFAULT_LIMITS, Limits
from .errors import ContainmentError, NotSolubleError
from .group import PermGroup
from .perms import Permutation, compose_arrays, invert_array


@dataclass(frozen=True)
class SubgroupSeries:
    kind: str  # derived | lower_central | lower_nilpotent
    terms: tuple[PermGroup, ...]

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def _commutators(left: Sequence[np.ndarray], right: Sequence[np.ndarray]):
    """[x, t] = x^-1 t^-1 x t (applied left to right) for every pair.

    Each factor is inverted once, so a step over m left and n right
    generators makes m + n inversions instead of 2mn.
    """
    right_pairs = [(t, invert_array(t)) for t in right]
    for x in left:
        x_inv = invert_array(x)
        for t, t_inv in right_pairs:
            yield t[x[t_inv[x_inv]]]


def _closure(degree: int, seeds: Sequence[np.ndarray],
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
    pairs = [(c, invert_array(c)) for c in conjugators]
    qi = 0
    while qi < len(frontier):
        x = frontier[qi]
        qi += 1
        for c, c_inv in pairs:
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
    subgroup.
    """
    seeds = []
    seen = set()
    for c in _commutators(left_normal_gens, right_gens):
        key = c.tobytes()
        if key not in seen:
            seen.add(key)
            seeds.append(c)
    return _closure(degree, seeds, conjugators)


# -- derived series ---------------------------------------------------------

def derived_series(G: PermGroup,
                   limits: Limits = DEFAULT_LIMITS) -> SubgroupSeries:
    conj = _gen_arrays(G)
    terms = [G]
    current = G
    normal_gens = conj
    while current.order > 1:
        nxt, kept_seeds = _commutator_step(
            G.degree, normal_gens, _gen_arrays(current), conj)
        if nxt.order == current.order:
            raise NotSolubleError(
                "derived series stabilized at order %d" % current.order
            )
        terms.append(nxt)
        current = nxt
        normal_gens = kept_seeds if kept_seeds else _gen_arrays(current)
        if len(terms) > limits.series_step_limit:
            raise NotSolubleError("derived series exceeded step limit")
    return SubgroupSeries("derived", tuple(terms))


def derived_length(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> int:
    return derived_series(G, limits).length


# -- lower central series and the nilpotent residual ------------------------

def _residual_with_gens(N: PermGroup, normal_gens: Optional[Sequence[np.ndarray]],
                        conj: Sequence[np.ndarray],
                        limits: Limits):
    """Nilpotent residual of N plus normal generators witnessing it.

    conj must generate a group in which N and every term of its lower
    central series is normal; N's own generators always qualify, and so
    do the generators of any group having N as a term of one of these
    series.
    """
    right = _gen_arrays(N)
    current = N
    x = list(normal_gens) if normal_gens is not None else right
    steps = 0
    while True:
        nxt, kept_seeds = _commutator_step(N.degree, x, right, conj)
        if nxt.order == current.order:
            return current, x
        current = nxt
        x = kept_seeds
        steps += 1
        if steps > limits.series_step_limit:
            raise NotSolubleError("lower central series exceeded step limit")


def lower_central_series(H: PermGroup,
                         limits: Limits = DEFAULT_LIMITS) -> SubgroupSeries:
    """L1 = H, L(k+1) = [Lk, H], stopping when the terms stabilize.

    The last term is the nilpotent residual of H.
    """
    conj = _gen_arrays(H)
    right = conj
    terms = [H]
    current = H
    x = conj
    while True:
        nxt, kept_seeds = _commutator_step(H.degree, x, right, conj)
        if nxt.order == current.order:
            break
        terms.append(nxt)
        current = nxt
        x = kept_seeds
        if len(terms) > limits.series_step_limit:
            raise NotSolubleError("lower central series exceeded step limit")
    return SubgroupSeries("lower_central", tuple(terms))


def nilpotent_residual(H: PermGroup,
                       limits: Limits = DEFAULT_LIMITS) -> PermGroup:
    """Stabilization term of the lower central series of H."""
    return lower_central_series(H, limits).terms[-1]


def is_nilpotent(G: PermGroup, limits: Limits = DEFAULT_LIMITS) -> bool:
    return nilpotent_residual(G, limits).order == 1


# -- lower nilpotent series and Fitting length -------------------------------

def _system_residual_seeds(system_gens: dict[int, Sequence[np.ndarray]]):
    """Cross-prime commutators of Sylow generators.

    A finite group is nilpotent exactly when the members of a Sylow
    system commute pairwise, so the normal closure of these seeds is
    the nilpotent residual: killing them makes every pair of Sylow
    images commute, and they die in any quotient that is nilpotent.
    """
    primes = sorted(system_gens)
    seeds = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            seeds.extend(_commutators(system_gens[p], system_gens[q]))
    return seeds


def lower_nilpotent_series(G: PermGroup,
                           limits: Limits = DEFAULT_LIMITS,
                           system_gens: Optional[dict] = None) -> SubgroupSeries:
    """N0 = G, N(i+1) = nilpotent residual of Ni, down to the trivial group.

    When the caller owns a verified Sylow system for G, passing its
    generator arrays computes the first residual as a single normal
    closure instead of a lower-central iteration; later terms carry no
    system and always use the iteration.
    """
    conj = _gen_arrays(G)
    terms = [G]
    current = G
    normal_gens: Optional[Sequence[np.ndarray]] = None
    first = True
    while current.order > 1:
        if first and system_gens is not None:
            seeds = _system_residual_seeds(system_gens)
            nxt, kept_seeds = _closure(G.degree, seeds, conj)
            witness = kept_seeds
        else:
            nxt, witness = _residual_with_gens(current, normal_gens, conj, limits)
        first = False
        if nxt.order == current.order:
            raise NotSolubleError(
                "nilpotent residual stabilized at order %d" % current.order
            )
        terms.append(nxt)
        current = nxt
        normal_gens = witness
        if len(terms) > limits.series_step_limit:
            raise NotSolubleError("lower nilpotent series exceeded step limit")
    return SubgroupSeries("lower_nilpotent", tuple(terms))


def fitting_length(G: PermGroup, limits: Limits = DEFAULT_LIMITS,
                   system_gens: Optional[dict] = None) -> int:
    """Number of nilpotent-residual steps needed to reach the trivial group."""
    return lower_nilpotent_series(G, limits, system_gens).length
