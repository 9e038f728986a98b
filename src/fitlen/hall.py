"""Hall subgroups, Fitting-length profiles, and the size-graded maxima.

All Hall subgroups come from the construction a constructed group
carries: its generator recursion, restricted to the primes in sigma,
lists generators of a Hall sigma-subgroup, and `hall_chain` proves the
list's order exactly.  There is no search for Hall subgroups in
arbitrary groups here; the brute-force variant for tiny groups lives
in the oracle module.

Profile values are read on demand: h(G_sigma) is computed the first
time any caller reads it and cached on the constructed group, so every
sigma can be read and none is computed unless something reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .construct import ConstructedGroup, hall_chain
from .errors import SylowSystemError, UsageError
from .group import PermGroup, p_part
from .series import derived_length, fitting_length

PrimeSet = tuple[int, ...]


def canonical_sigma(cg: ConstructedGroup, sigma: Iterable[int]) -> PrimeSet:
    """sigma restricted to pi(G), sorted and deduplicated."""
    return tuple(sorted(set(sigma) & set(cg.primes)))


def hall_subgroup(cg: ConstructedGroup, sigma: Iterable[int]) -> PermGroup:
    """The Hall subgroup for the given prime set.

    Conventions: a sigma containing all of pi(G) yields the group
    itself; a sigma disjoint from pi(G) yields the trivial group.
    """
    key = canonical_sigma(cg, sigma)
    if key == cg.primes:
        return cg.group
    if not key:
        return PermGroup.trivial(cg.degree)
    chain, gens = hall_chain(cg, key)
    return PermGroup.from_arrays(cg.degree, gens, chain=chain)


def hall_complement(cg: ConstructedGroup, p: int) -> PermGroup:
    """G_{p'}: the Hall subgroup avoiding p; equal to G when p is absent."""
    if p not in cg.primes:
        return cg.group
    return hall_subgroup(cg, tuple(q for q in cg.primes if q != p))


def _profile_entry(cg: ConstructedGroup, key: PrimeSet) -> int:
    if key not in cg._h_cache:
        # one Sylow p-subgroup of G per prime in key seeds the first
        # nilpotent residual; the seeds need P_p <= H, which the
        # construction gives and this sift checks
        H = hall_subgroup(cg, key)
        seeds = {p: hall_chain(cg, (p,))[1] for p in key}
        for p, gens in seeds.items():
            if any(H.chain.sift(g)[0] is not None for g in gens):
                raise SylowSystemError(
                    "%s: a Sylow %d-generator lies outside the Hall "
                    "{%s}-subgroup" % (cg.describe(), p,
                                       ",".join(map(str, key))))
        cg._h_cache[key] = fitting_length(H, system_gens=seeds)
    return cg._h_cache[key]


@dataclass(frozen=True)
class HallProfile:
    """Fitting lengths of the Hall subgroups of one constructed group.

    h(sigma) reads h(G_sigma) through the group's cache, computing it
    on first read; sigma is restricted to pi(G) first.
    """

    cg: ConstructedGroup

    @property
    def primes(self) -> PrimeSet:
        return self.cg.primes

    def h(self, sigma: Iterable[int]) -> int:
        return _profile_entry(self.cg, canonical_sigma(self.cg, sigma))


def hall_profile(cg: ConstructedGroup,
                 subsets: Sequence[Iterable[int]]) -> HallProfile:
    """The profile of cg, with h(G_sigma) computed now for each listed sigma."""
    for sigma in subsets:
        _profile_entry(cg, canonical_sigma(cg, sigma))
    return HallProfile(cg)


def hall_derived_length(cg: ConstructedGroup, sigma: Iterable[int]) -> int:
    """d(G_sigma), cached like the Fitting-length profile."""
    key = canonical_sigma(cg, sigma)
    if key not in cg._d_cache:
        cg._d_cache[key] = derived_length(hall_subgroup(cg, key))
    return cg._d_cache[key]


def frak_h(cg: ConstructedGroup, ell: int) -> int:
    """Largest h(G_sigma) over the prime sets of the given size."""
    w = cg.num_primes
    if not 0 <= ell <= w:
        raise UsageError("subset size %d out of range 0..%d" % (ell, w))
    if ell == 0:
        return 0
    return max(_profile_entry(cg, sigma)
               for sigma in combinations(cg.primes, ell))


# -- explicit system verification ------------------------------------------

@dataclass(frozen=True)
class SylowCheck:
    primes: PrimeSet
    expected: int
    actual: int


@dataclass(frozen=True)
class SylowSystemReport:
    prime_checks: tuple[SylowCheck, ...]
    pair_checks: tuple[SylowCheck, ...]


def verify_sylow_system(cg: ConstructedGroup) -> SylowSystemReport:
    """Prove the order of every Sylow subgroup and every pairwise join.

    Each order is read from the exact chain of the matching Hall list
    (hall_chain), which raises SylowSystemError unless it equals the
    expected sigma-part of |G|; so every check in the report holds.
    """
    factored = cg.group.factored_order

    def check(sigma: PrimeSet) -> SylowCheck:
        return SylowCheck(sigma, p_part(factored, sigma),
                          hall_chain(cg, sigma)[0].order())

    return SylowSystemReport(
        tuple(check((p,)) for p in cg.primes),
        tuple(check(pair) for pair in combinations(cg.primes, 2)))
