"""Hall subgroups, Fitting-length profiles, and the size-graded maxima.

All Hall subgroups come from the propagated Sylow system of a
constructed group: the sigma-Hall subgroup is generated by the union of
the Sylow generator lists for the primes in sigma, and its order is
checked against the sigma-part of the group order.  There is no search
for Hall subgroups in arbitrary groups here; the brute-force variant
for tiny groups lives in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        # lets the first nilpotent residual come from one normal closure
        sub_system = {p: [g.images for g in cg.system[p]] for p in key}
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
    from itertools import combinations

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
    """Check every Sylow order and every pairwise join order exactly.

    Unlike the build-time check this never assumes the expected order,
    so a corrupted system that generates something too large is caught.
    """
    from .chain import build_chain

    factored = cg.group.factored_order
    primes = tuple(sorted(cg.system))
    prime_checks = []
    pair_checks = []
    for p in primes:
        arrays = [g.images for g in cg.system[p]]
        chain, _ = build_chain(cg.degree, arrays)
        prime_checks.append(SylowCheck((p,), p_part(factored, (p,)), chain.order()))
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            arrays = [g.images for g in cg.system[p]]
            arrays += [g.images for g in cg.system[q]]
            chain, _ = build_chain(cg.degree, arrays)
            pair_checks.append(
                SylowCheck((p, q), p_part(factored, (p, q)), chain.order()))
    return SylowSystemReport(tuple(prime_checks), tuple(pair_checks))
