"""Hall subgroups, Fitting-length profiles, and the size-graded maxima.

All Hall subgroups come from the pcgs a constructed group carries:
the sigma-Hall subgroup is generated by the Sylow generator lists for
the primes in sigma, and its chain is certified from the sigma-filter
of the pcgs, which proves its order.  There is no search for Hall
subgroups in arbitrary groups here; the brute-force variant for tiny
groups lives in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .construct import ConstructedGroup, hall_chain
from .errors import ProfileMissingError, UsageError
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
    chain, kept_arrays = hall_chain(cg, key)
    return PermGroup.from_arrays(cg.degree, kept_arrays, chain=chain)


def hall_complement(cg: ConstructedGroup, p: int) -> PermGroup:
    """G_{p'}: the Hall subgroup avoiding p; equal to G when p is absent."""
    if p not in cg.primes:
        return cg.group
    return hall_subgroup(cg, tuple(q for q in cg.primes if q != p))


@dataclass(frozen=True)
class HallProfile:
    """Fitting lengths of Hall subgroups, keyed by canonical prime set."""

    primes: PrimeSet
    values: dict[PrimeSet, int]

    def h(self, sigma: Iterable[int]) -> int:
        key = tuple(sorted(set(sigma) & set(self.primes)))
        if key not in self.values:
            raise ProfileMissingError(
                "no profile entry for %r (restricted to %r)" % (sigma, key))
        return self.values[key]

    def __contains__(self, sigma) -> bool:
        key = tuple(sorted(set(sigma) & set(self.primes)))
        return key in self.values


def _profile_entry(cg: ConstructedGroup, key: PrimeSet,
                   limits: Limits) -> int:
    if key not in cg._h_cache:
        # the Hall subgroup inherits the system members for its primes, which
        # lets the first nilpotent residual come from one normal closure;
        # their certificates prove that each generates a p-group
        sub_system = {p: hall_chain(cg, (p,))[1] for p in key}
        cg._h_cache[key] = fitting_length(hall_subgroup(cg, key), limits,
                                          system_gens=sub_system)
    return cg._h_cache[key]


def hall_profile(cg: ConstructedGroup, subsets: Sequence[Iterable[int]],
                 limits: Limits = DEFAULT_LIMITS) -> HallProfile:
    """h(G_sigma) for each requested sigma, cached per canonical key."""
    keys = dict.fromkeys(canonical_sigma(cg, sigma) for sigma in subsets)
    return HallProfile(cg.primes,
                       {key: _profile_entry(cg, key, limits) for key in keys})


def hall_derived_length(cg: ConstructedGroup, sigma: Iterable[int],
                        limits: Limits = DEFAULT_LIMITS) -> int:
    """d(G_sigma), cached like the Fitting-length profile."""
    key = canonical_sigma(cg, sigma)
    if key not in cg._d_cache:
        cg._d_cache[key] = derived_length(hall_subgroup(cg, key), limits)
    return cg._d_cache[key]


def frak_h(cg: ConstructedGroup, ell: int,
           limits: Limits = DEFAULT_LIMITS) -> int:
    """Largest h(G_sigma) over the prime sets of the given size."""
    w = cg.num_primes
    if not 0 <= ell <= w:
        raise UsageError("subset size %d out of range 0..%d" % (ell, w))
    if ell == 0:
        return 0
    subsets = list(combinations(cg.primes, ell))
    profile = hall_profile(cg, subsets, limits)
    return max(profile.h(sigma) for sigma in subsets)


# -- explicit system verification ------------------------------------------

@dataclass(frozen=True)
class SylowCheck:
    primes: PrimeSet
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class SylowSystemReport:
    prime_checks: tuple[SylowCheck, ...]
    pair_checks: tuple[SylowCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.prime_checks + self.pair_checks)


def verify_sylow_system(cg: ConstructedGroup) -> SylowSystemReport:
    """Certify every Sylow subgroup and every pairwise join.

    Each order is read from a chain certified from the matching filter
    of the pcgs (hall_chain), so a corrupted system raises
    SylowSystemError rather than reporting a mismatch.
    """
    factored = cg.group.factored_order

    def check(sigma: PrimeSet) -> SylowCheck:
        return SylowCheck(sigma, p_part(factored, sigma),
                          hall_chain(cg, sigma)[0].order())

    return SylowSystemReport(
        tuple(check((p,)) for p in cg.primes),
        tuple(check(pair) for pair in combinations(cg.primes, 2)))
