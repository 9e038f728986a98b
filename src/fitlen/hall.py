"""Hall subgroups, their Fitting lengths, and the size-graded maxima.

All Hall subgroups come from the construction a constructed group
carries: its generator recursion, restricted to the primes in sigma,
lists generators of a Hall sigma-subgroup, and `hall_chain` proves the
list's order exactly.  What is cached per sigma is that proof's record,
the generator list and the exact order; the chain is dropped after the
proof, and the readers below need only the list and the order.  There
is no search for Hall subgroups in arbitrary groups here; the
brute-force variant for tiny groups lives in the oracle module.

hall_profile(cg, sigma) is the one reader of h(G_sigma): the value is
computed the first time any caller reads it and cached on the
constructed group, so every sigma can be read and none is computed
unless something reads it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .construct import ConstructedGroup, canonical_sigma, hall_chain
from .errors import UsageError
from .group import PermGroup
from .series import derived_length, fitting_length

PrimeSet = tuple[int, ...]


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
    if key not in cg._hall_records:
        hall_chain(cg, key)
    gens, order = cg._hall_records[key]
    return PermGroup.from_arrays(cg.degree, gens, order=order)


def hall_complement(cg: ConstructedGroup, p: int) -> PermGroup:
    """G_{p'}: the Hall subgroup avoiding p; equal to G when p is absent."""
    if p not in cg.primes:
        return cg.group
    return hall_subgroup(cg, tuple(q for q in cg.primes if q != p))


def hall_profile(cg: ConstructedGroup, sigma: Iterable[int]) -> int:
    """h(G_sigma), computed on first read and cached on the group.

    sigma is restricted to pi(G) first, so a permuted or repeated sigma,
    or one with primes outside pi(G), reads the same entry.
    """
    key = canonical_sigma(cg, sigma)
    if key not in cg._h_cache:
        # one Sylow p-subgroup of G per prime in key seeds the first
        # nilpotent residual; the seeds need P_p <= H, which the
        # construction gives and hall_chain's proof of H checks
        H = hall_subgroup(cg, key)
        seeds = {p: [g.images for g in hall_subgroup(cg, (p,)).generators]
                 for p in key}
        cg._h_cache[key] = fitting_length(H, system_gens=seeds)
    return cg._h_cache[key]


def hall_derived_length(cg: ConstructedGroup, sigma: Iterable[int]) -> int:
    """d(G_sigma), cached like hall_profile."""
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
    return max(hall_profile(cg, sigma)
               for sigma in combinations(cg.primes, ell))


# -- explicit system verification ------------------------------------------

def verify_sylow_system(cg: ConstructedGroup) -> dict[PrimeSet, int]:
    """Prove the order of every Sylow subgroup and every pairwise join.

    Returns {sigma: proved order}, the primes first, then the pairs;
    hall_chain raises SylowSystemError unless each is the sigma-part of
    |G|.  Only G's chain and the one being proved are alive at a time.
    """
    sigmas = [(p,) for p in cg.primes] + list(combinations(cg.primes, 2))
    return {sigma: hall_subgroup(cg, sigma).order for sigma in sigmas}
