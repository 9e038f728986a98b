"""Deterministic stabilizer chains (Schreier-Sims).

The builder is fully deterministic: generators are taken in the order
given, orbits in BFS discovery order, and Schreier generators in a
fixed scan order, so identical input always yields an identical chain.

Adding one generator to an already verified chain is cheap, and normal
closures lean on that heavily.  Between calls, every level's orbit is
closed under all of that level's generators, so when a generator g is
stored, the old orbit points are tried against g alone and only the
points g adds are tried against every generator.  Each level also keeps
its orbit as a bit mask.  When g's support misses that mask, g fixes
every orbit point, so the orbit is already closed under g and the walk
is skipped.  Schreier pairs already verified are remembered per orbit
point in the same way.

Each level stores one array per orbit point: the inverse u^-1 of the
point's coset representative u, which is all that sift reads.  A new
point's inverse comes from its parent's as (h u)^-1 = u^-1 h^-1, and u
itself is inverted back only where it is needed: in verification, once
per point per scan.  So a level costs 8 x degree bytes per orbit point.

A chain is complete when every Schreier generator sifts to the
identity; its orbit product is then the group's order.  Every chain
here is built that way, so every order it reports is proved.

Verification scans levels deepest first, and finishes every level
below L before it scans level L.  That order lets one rule skip most
Schreier pairs on groups built from blocks.  Every strong generator and
every transversal element carries its support (the points it moves) as
a bit mask; the identity representative of level L gets the mask of b_L
alone.  A pair (u, s) is skipped when the masks of u and s are disjoint.
Proof: u moves b_L unless it is the identity, so either way s fixes b_L
and u(b_L).  The representative of the image of u(b_L) under s is then
u itself, and the Schreier generator is u s u^-1 = s, since disjoint
permutations commute.  A residue is stored on every level down to the
first base point it moves, so s, which fixes b_L, is also a strong
generator of level L+1.  That level is verified, so s sifts to the
identity there.  Identity tests compare an array's raw bytes with the
chain's identity image.

Each level also keeps tmask, the union of its representatives' masks.
It contains the orbit mask, since a representative moves b_L to its
point.  A generator s whose mask misses tmask is disjoint from every
representative, so every pair it forms is skipped by the rule above,
and storing it does not restart the level's scan.  So a pair past
vdone[p] is either pending (p >= vscan) or disjoint from every
representative.  That stays true when the orbit grows: only a generator
that meets the orbit mask, and so tmask, can grow it, and storing that
generator restarts the scan.  Every pair that is not skipped is still
composed in the same order, so the chain is the one a full rescan
builds.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .perms import _arange, invert_array, support_mask


class _Level:
    __slots__ = ("point", "gens", "gsupp", "orbit", "pos", "trans_inv",
                 "tsupp", "omask", "tmask", "vdone", "vscan")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[np.ndarray] = []
        self.orbit: list[int] = [point]
        self.pos: dict[int, int] = {point: 0}
        self.omask = 1 << point  # the orbit as a bit mask
        # the inverse of each orbit point's coset representative, the
        # one read-only array stored per point
        self.trans_inv: list[np.ndarray] = [_arange(degree)]
        # support masks of gens and of the representatives; the identity
        # representative gets the base point's bit (see the module
        # docstring), so tmask, their union, contains omask
        self.gsupp: list[int] = []
        self.tsupp: list[int] = [1 << point]
        self.tmask = 1 << point
        # Schreier pairs (i, j) with j < vdone[i] are verified; a pair
        # past vdone[i] is pending (i >= vscan) or gens[j] misses tmask
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

    def _insert(self, arr: np.ndarray, lo: int, hi: int) -> None:
        # arr fixes the base points of all levels before hi and is new
        # at every level in lo..hi.
        mask = support_mask(arr)
        if hi == len(self.levels):
            moved = (mask & -mask).bit_length() - 1  # first point arr moves
            self.levels.append(_Level(moved, self.degree))
            self._base = np.array([lv.point for lv in self.levels], dtype=np.intp)
        arr.setflags(write=False)
        for k in range(lo, hi + 1):
            lv = self.levels[k]
            lv.gens.append(arr)
            lv.gsupp.append(mask)
            # a generator that misses tmask forms only skipped pairs
            if mask & lv.tmask:
                lv.vscan = 0
                if mask & lv.omask:
                    self._extend_orbit(lv, arr)

    def _extend_orbit(self, lv: _Level, g: np.ndarray) -> None:
        # the orbit is closed under every generator but g, which was
        # just stored; the points g adds are tried against all of them
        orbit, pos, trans_inv = lv.orbit, lv.pos, lv.trans_inv
        old = len(orbit)
        i = 0
        while i < len(orbit):
            pt = orbit[i]
            for h in (g,) if i < old else lv.gens:
                img = int(h[pt])
                if img not in pos:
                    pos[img] = len(orbit)
                    orbit.append(img)
                    lv.omask |= 1 << img
                    # (h u)^-1 = u^-1 h^-1, which moves the points h u moves
                    wi = trans_inv[i][invert_array(h)]
                    wi.setflags(write=False)
                    trans_inv.append(wi)
                    mask = support_mask(wi)
                    lv.tsupp.append(mask)
                    lv.tmask |= mask
                    lv.vdone.append(0)
            i += 1

    def _verify(self) -> None:
        ident = self._ident
        levels = self.levels
        i = len(levels) - 1
        while i >= 0:
            # residues go to levels below i, so this level's orbit and
            # generators stay fixed while its pending pairs are scanned
            lv = levels[i]
            point, gens, gsupp, pos = lv.point, lv.gens, lv.gsupp, lv.pos
            trans_inv, tsupp, vdone = lv.trans_inv, lv.tsupp, lv.vdone
            ngens = len(gens)
            residue = None
            p = lv.vscan
            while p < len(trans_inv):
                u = None  # the representative, inverted on first use
                umask = tsupp[p]
                g = vdone[p]
                while g < ngens:
                    # with disjoint supports the Schreier generator is
                    # gens[g], a strong generator of the verified level
                    # below, so the pair is skipped
                    if gsupp[g] & umask:
                        if u is None:
                            u = invert_array(trans_inv[p])
                        w = gens[g][u]
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
    were not sifted to the identity, in input order; the others
    are certainly redundant.
    """
    chain = StabilizerChain(degree)
    kept = [i for i, arr in enumerate(arrays) if chain.add_generator(arr)]
    return chain, kept

