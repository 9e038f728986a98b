"""Deterministic stabilizer chains (Schreier-Sims).

The builder is fully deterministic: generators are processed in the
order given, orbits in BFS discovery order, and Schreier generators in
a fixed scan order, so identical input always yields an identical
chain.  Verification work is tracked with per-level watermarks, which
makes adding one generator to an already verified chain cheap; normal
closures lean on that heavily.

A chain is complete when every Schreier generator sifts to the
identity.  A chain of a group given by a polycyclic sequence is
instead certified (`certified_chain`; Sims, "Computing the order of a
solvable permutation group", J. Symbolic Comput. 9, 1990; Seress,
*Permutation Group Algorithms*, ch. 7), which proves its order without
sifting a single Schreier generator.

Verification scans levels deepest first, and finishes every level
below L before it scans level L.  That order makes one kind of pair
redundant: when a strong generator s of level L fixes the base point
b_L, the Schreier generator of the pair (b_L, s) is s itself, and s is
also a strong generator of level L+1, because a residue is stored on
every level down to the first base point it moves.  Level L+1 is
verified, so s sifts to the identity there, and the pair is skipped
without a sift.  Identity tests compare an array's raw bytes with the
chain's identity image.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import SylowSystemError
from .perms import _arange, invert_array


class _Level:
    __slots__ = ("point", "gens", "orbit", "pos", "trans", "trans_inv",
                 "proc", "vdone", "vscan")

    def __init__(self, point: int, degree: int):
        ident = _arange(degree)
        self.point = point
        self.gens: list[np.ndarray] = []
        self.orbit: list[int] = [point]
        self.pos: dict[int, int] = {point: 0}
        self.trans: list[np.ndarray] = [ident]
        self.trans_inv: list[np.ndarray] = [ident]
        # orbit positions already expanded against the first proc[i] gens
        self.proc: list[int] = [0]
        # Schreier pairs (i, j) with j < vdone[i] are verified
        self.vdone: list[int] = [0]
        self.vscan = 0


class StabilizerChain:
    """Base-and-strong-generating-set structure for one permutation group.

    Mutable while building; callers outside this module should treat a
    finished chain as read-only.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        self.complete = True  # empty chain is the trivial group
        self._base = np.empty(0, dtype=np.intp)
        self._ident = _arange(degree).tobytes()

    # -- queries ---------------------------------------------------------

    def order(self) -> int:
        result = 1
        for lv in self.levels:
            result *= len(lv.orbit)
        return result

    def base(self) -> list[int]:
        return [lv.point for lv in self.levels]

    def sift(self, arr: np.ndarray, start: int = 0):
        """Reduce arr, an intp image array, through the chain.

        Returns (None, len(levels)) when arr reduces to the identity,
        else (residue, level) where level is the first level the
        residue could not pass (== len(levels) if it fixes every base
        point without being the identity).
        """
        levels = self.levels
        nlev = len(levels)
        base = self._base
        ident = self._ident
        idx = start
        # jump straight to the next base point the residue moves; levels
        # with a fixed base point contribute the identity coset rep
        while idx < nlev:
            tail = base[idx:]
            moved = arr[tail] != tail
            k = int(moved.argmax())
            if not moved[k]:
                break
            idx += k
            lv = levels[idx]
            j = lv.pos.get(int(arr[lv.point]))
            if j is None:
                return arr, idx
            arr = lv.trans_inv[j][arr]
            if arr.tobytes() == ident:
                return None, nlev
            idx += 1
        if arr.tobytes() == ident:
            return None, nlev
        return arr, nlev

    def contains_array(self, arr: np.ndarray) -> bool:
        if not self.complete:
            raise RuntimeError("membership test on an unverified chain")
        residue, _ = self.sift(arr)
        return residue is None

    # -- construction ----------------------------------------------------

    def add_generator(self, arr: np.ndarray) -> bool:
        """Extend the chain by one generator and verify it.

        Returns True when the generator was not already sifted to the
        identity.
        """
        residue, stuck = self.sift(arr)
        if residue is None:
            return False
        self.complete = False
        self._insert(residue, 0, stuck)
        self._verify()
        return True

    def extend(self, arrays: Iterable[np.ndarray]) -> list[int]:
        """Add several generators; returns indices of those that grew the group."""
        kept = []
        for i, arr in enumerate(arrays):
            if self.add_generator(arr):
                kept.append(i)
        return kept

    def _insert(self, arr: np.ndarray, lo: int, hi: int) -> None:
        # arr fixes the base points of all levels before hi and is new
        # at every level in lo..hi.
        if hi == len(self.levels):
            moved = int(np.flatnonzero(arr != _arange(self.degree))[0])
            self.levels.append(_Level(moved, self.degree))
            self._base = np.array([lv.point for lv in self.levels], dtype=np.intp)
        arr.setflags(write=False)
        for k in range(lo, hi + 1):
            lv = self.levels[k]
            lv.gens.append(arr)
            lv.vscan = 0
            self._extend_orbit(lv)

    def _extend_orbit(self, lv: _Level) -> None:
        orbit, pos, trans, trans_inv = lv.orbit, lv.pos, lv.trans, lv.trans_inv
        gens, proc = lv.gens, lv.proc
        i = 0
        while i < len(orbit):
            start = proc[i]
            ngens = len(gens)
            if start < ngens:
                pt = orbit[i]
                u = trans[i]
                for j in range(start, ngens):
                    g = gens[j]
                    img = int(g[pt])
                    if img not in pos:
                        pos[img] = len(orbit)
                        orbit.append(img)
                        w = g[u]
                        w.setflags(write=False)
                        trans.append(w)
                        wi = invert_array(w)
                        wi.setflags(write=False)
                        trans_inv.append(wi)
                        proc.append(0)
                        lv.vdone.append(0)
                proc[i] = ngens
            i += 1

    def _verify(self) -> None:
        ident = self._ident
        levels = self.levels
        i = len(levels) - 1
        while i >= 0:
            # residues go to levels below i, so this level's orbit and
            # generators stay fixed while its pending pairs are scanned
            lv = levels[i]
            point, gens, pos = lv.point, lv.gens, lv.pos
            trans, trans_inv, vdone = lv.trans, lv.trans_inv, lv.vdone
            ngens = len(gens)
            residue = None
            p = lv.vscan
            while p < len(trans):
                u = trans[p]
                g = vdone[p]
                while g < ngens:
                    s = gens[g]
                    # (b_L, s) with s(b_L) = b_L: the Schreier generator
                    # is s, a strong generator of the verified level
                    # below, so it sifts to the identity
                    if p == 0 and s[point] == point:
                        g += 1
                        continue
                    w = s[u]
                    schreier = trans_inv[pos[int(w[point])]][w]
                    if schreier.tobytes() != ident:
                        residue, stuck = self.sift(schreier, i + 1)
                        if residue is not None:
                            break
                    g += 1
                vdone[p] = g
                if residue is not None:
                    break
                p += 1
            lv.vscan = p
            if residue is None:
                i -= 1
                continue
            self._insert(residue, i + 1, stuck)
            i = stuck
        self.complete = True


def build_chain(degree: int, arrays: Iterable[np.ndarray]
                ) -> tuple[StabilizerChain, list[int]]:
    """Build a verified chain; also reports which inputs mattered.

    The second return value lists the indices of the generators that
    were not sifted to the identity, in processing order; the others
    are certainly redundant.
    """
    chain = StabilizerChain(degree)
    return chain, chain.extend(arrays)


def _power(arr: np.ndarray, e: int) -> np.ndarray:
    out = _arange(arr.size)
    while e:
        if e & 1:
            out = arr[out]
        arr = arr[arr]
        e >>= 1
    return out


def _prime_of(q: int) -> int:
    """The prime p with q = p^k for some k >= 1."""
    p = next((f for f in range(2, q + 1) if q % f == 0), q)
    e = p
    while e < q:
        e *= p
    if q < 2 or e != q:
        raise SylowSystemError("relative order %d is not a prime power" % q)
    return p


def certified_chain(degree: int, pcgs: Sequence[tuple[int, np.ndarray]]
                    ) -> StabilizerChain:
    """Complete chain of the group a polycyclic sequence generates.

    pcgs lists (q, g) pairs bottom-up, q = p^k with p prime.  Let H be
    the group of the elements before g, whose chain is complete.  The
    certificate checks, with sifts into that chain, that g normalises
    H (conjugating only the elements whose support meets g's, since
    disjoint permutations commute) and that g^q lies in H.  It then
    inserts the residues of g^(q/p), ..., g^p, g in turn; none may sift
    into the chain, and each must multiply the orbit product by exactly
    p.  Each step then raises the group order p-fold too, and an orbit
    product equal to the group order makes a chain complete, so the
    result's order is proved.  Any failed check raises
    SylowSystemError.  A residue is stored on every level down to the
    first base point it moves, as in Schreier-Sims, but only that
    level's orbit is extended.
    """
    chain = StabilizerChain(degree)
    if not pcgs:
        return chain
    arrays = [g for _, g in pcgs]
    support = np.stack(arrays) != _arange(degree)
    for i, (q, g) in enumerate(pcgs):
        p = _prime_of(q)
        g_inv = invert_array(g)
        for j in np.flatnonzero((support[:i] & support[i]).any(axis=1)):
            x = arrays[j]
            conj = g[x[g_inv]]
            if conj.tobytes() != x.tobytes() and chain.sift(conj)[0] is not None:
                raise SylowSystemError(
                    "pcgs element %d does not normalise the group of the "
                    "elements before it" % i)
        powers, e = [g], 1  # g, g^p, ..., g^q
        while e < q:
            powers.append(_power(powers[-1], p))
            e *= p
        if chain.sift(powers.pop())[0] is not None:
            raise SylowSystemError(
                "pcgs element %d: its %d-th power lies outside the group of "
                "the elements before it" % (i, q))
        for x in reversed(powers):
            before = chain.order()
            residue, stuck = chain.sift(x)
            if residue is not None:
                chain._insert(residue, stuck, stuck)
                # H is normal in <H, x>, so H's orbit at a level above
                # stuck is a block that the residue, fixing its base
                # point, maps to itself: those orbits cannot grow
                for lv in chain.levels[:stuck]:
                    lv.gens.append(residue)
                    lv.vscan = 0
            if chain.order() != p * before:
                raise SylowSystemError(
                    "pcgs element %d does not raise the order %d-fold"
                    % (i, p))
    return chain
