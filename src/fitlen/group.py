"""Permutation groups: generators plus a lazily built stabilizer chain."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .chain import StabilizerChain, build_chain
from .errors import ContainmentError, DegreeMismatchError
from .perms import Permutation, _arange

def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer, by trial division."""
    if n < 1:
        raise ValueError("cannot factorize %d" % n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


class PermGroup:
    """A group of permutations of {0..degree-1}.

    Order, membership and prime data all come from the stabilizer
    chain, which is built on first use.  Instances are immutable once
    the chain exists.  _order is the order of a complete, verified chain
    that was built elsewhere and dropped; never a formula's claim.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 _chain: Optional[StabilizerChain] = None,
                 _order: Optional[int] = None):
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    "generator %s has degree %d, expected %d"
                    % (g, g.degree, degree)
                )
        self.degree = degree
        self.generators = tuple(generators)
        self._chain = _chain
        self._order = _order
        self._factored: Optional[dict[int, int]] = None

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, ())

    @classmethod
    def from_arrays(cls, degree: int, arrays: Sequence[np.ndarray],
                    chain: Optional[StabilizerChain] = None,
                    order: Optional[int] = None) -> "PermGroup":
        gens = tuple(Permutation(a, _checked=True) for a in arrays)
        return cls(degree, gens, _chain=chain, _order=order)

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain, _ = build_chain(
                self.degree, [g.images for g in self.generators])
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order() if self._order is None else self._order

    @property
    def factored_order(self) -> dict[int, int]:
        if self._factored is None:
            factored: dict[int, int] = {}
            for lv in self.chain.levels:
                for p, e in factorize(len(lv.orbit)).items():
                    factored[p] = factored.get(p, 0) + e
            self._factored = factored
        return dict(self._factored)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.factored_order))

    @property
    def num_primes(self) -> int:
        return len(self.factored_order)

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatchError(
                "element degree %d does not match group degree %d"
                % (g.degree, self.degree)
            )
        return self.chain.contains_array(g.images)

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def subgroup(self, gens: Sequence[Permutation]) -> "PermGroup":
        """The subgroup generated by gens, which must all lie in this group."""
        for g in gens:
            if not self.contains(g):
                raise ContainmentError(
                    "generator %s is not an element of the group" % g
                )
        return PermGroup(self.degree, gens)

    def reduced(self) -> "PermGroup":
        """An equal group whose generator list carries no redundant entries.

        An exact rebuild: a fresh chain is verified from the generators
        in order, and those that enlarge it are kept.  The generator
        slimming counters of perfbench/tracer.py wrap this method.
        """
        arrays = [g.images for g in self.generators]
        chain, kept = build_chain(self.degree, arrays)
        gens = tuple(self.generators[i] for i in kept)
        return PermGroup(self.degree, gens, _chain=chain)

    def sample(self, rng) -> Permutation:
        """Uniform random element (rng is a random.Random).

        Walks the chain deepest level first, so the product runs
        stabilizer-part-then-coset-representative at every level.
        """
        indices = [rng.randrange(len(lv.orbit)) for lv in self.chain.levels]
        arr = _arange(self.degree)
        for lv, k in zip(reversed(self.chain.levels), reversed(indices)):
            u, _ = lv.representative(k)
            arr = u[arr]
        return Permutation(arr.copy(), _checked=True)

    def __repr__(self) -> str:
        if self._chain is not None:
            return "PermGroup(degree=%d, order=%d, gens=%d)" % (
                self.degree, self.order, len(self.generators))
        return "PermGroup(degree=%d, gens=%d)" % (self.degree, len(self.generators))


def p_part(factored: dict[int, int], sigma) -> int:
    """The sigma-part of a factored order."""
    result = 1
    for p, e in factored.items():
        if p in sigma:
            result *= p ** e
    return result
