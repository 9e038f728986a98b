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

* Lengths through constituents.  H embeds in the product of its
  constituents H^O on the orbits O of its moved points, each a quotient
  of H.  Fitting length <= k is a subgroup-closed formation and soluble
  derived length <= k a variety (Doerk and Hawkes, Finite Soluble
  Groups, 1992, ch. IV), so h(H) = max h(H^O), and likewise d.  On a
  transitive K one closure gives N, the nilpotent residual (Sylow seeds
  restrict to Sylow seeds) or [K, K], and h(K) = 1 + h(N) or d(K) =
  1 + d(N).  N is normal, so K permutes N's orbits transitively and N's
  constituents are conjugate: the recursion follows one.  N = K exactly
  when K's generators sift through N's chain, so K needs no chain.

* One orbit of each step.  A step that is one normal closure,
  N = <S>^K with K = <X> transitive on k points, is built only on the
  orbit B of N holding point 0, at degree |B| (Seress, Permutation
  Group Algorithms, 2003, sections 4.2 and 5.5).  Three facts make
  that exact.  (1) N's orbits are the finest K-invariant partition
  coarser than the orbits of <S>: they are such a partition, as N is
  normal; and every s fixes each class of such a partition, so every
  s^g does, and so N does.  (2) The classes are blocks of K.  If t_i
  maps B onto block i and x maps block i to block j, then the Schreier
  generators t_i x t_j^-1 generate the block stabilizer K_B.  (3) N
  fixes B, and any g in K has g^-1 = c t_i with c in K_B, so
  s^g = (t_i s t_i^-1)^(c^-1) and N^B = <(t_i s t_i^-1)|_B>^(K_B).
  If |B| < k then N != K; if |B| = k there is one block, t_0 = 1 and
  K_B = K, so the step is the full closure and the sift decides.

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
from .perms import (Permutation, _arange, _classes, compose_arrays,
                    invert_array, support_mask)


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
    should carry into a follow-up commutator step.  The group's
    generator list is irredundant (see the notes above).
    """
    chain = StabilizerChain(degree)
    kept: list[np.ndarray] = []
    seen: set[bytes] = set()
    for s in seeds:
        key = s.tobytes()
        if key in seen:
            continue
        seen.add(key)
        if chain.add_generator(s):
            kept.append(s)
    kept_seeds = list(kept)
    conj_items = [(c, invert_array(c), support_mask(c)) for c in conjugators]
    # kept is also the queue: each kept element is conjugated once
    qi = 0
    while qi < len(kept):
        x = kept[qi]
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


def _descend(start, step):
    """Apply step from start until the group stops shrinking.

    start and every step result are (term, witness) pairs, the witness
    being normal generators of the term for the next step to start from.
    Returns the strictly descending terms and the last term's witness.
    A trivial term ends the series without a further step; a
    non-soluble input stops above order 1, which _stops_at_one reports.
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
        lambda T, x: _closure(G.degree, _commutators(x, _gen_arrays(T)),
                              conj))
    return SubgroupSeries("derived", _stops_at_one(terms, "derived series"))


# -- lower central series and the nilpotent residual ------------------------

def _central_step(degree: int, right: Sequence[np.ndarray],
                  conj: Sequence[np.ndarray]):
    """The step L -> [L, N] of the lower central series of N = <right>.

    conj must generate a group in which N and every term of its lower
    central series is normal; N's own generators always qualify, and so
    do the generators of any group having N as a term of one of these
    series.
    """
    # the closure of the pairwise commutators is [<x>^G, <right>] when
    # conj generates a group G that normalizes both arguments and the
    # result, as [x^g, t] = [x, t^(g^-1)]^g; so is the derived step's
    return lambda L, x: _closure(degree, _commutators(x, right), conj)


def lower_central_series(H: PermGroup) -> SubgroupSeries:
    """L1 = H, L(k+1) = [Lk, H], stopping when the terms stabilize.

    The last term is the nilpotent residual of H.
    """
    conj = _gen_arrays(H)
    terms, _ = _descend((H, conj), _central_step(H.degree, conj, conj))
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
        terms, witness = _descend((N, x), _central_step(N.degree,
                                                        _gen_arrays(N), conj))
        return terms[-1], witness

    terms, _ = _descend((G, conj), residual)
    return SubgroupSeries("lower_nilpotent",
                          _stops_at_one(terms, "lower nilpotent series"))


# -- Fitting and derived length through transitive constituents --------------

def _orbits(stack: np.ndarray) -> list[np.ndarray]:
    """Orbits of <rows> on their moved points, sorted, by least point."""
    label = _classes(stack.shape[1], stack)
    sizes = np.bincount(label)
    sizes = sizes[sizes > 0]
    orbits = np.split(np.argsort(label, kind="stable"), np.cumsum(sizes)[:-1])
    return [orbit for orbit in orbits if orbit.size > 1]


def _constituents(degree: int, gens: Sequence[np.ndarray], seeds=None):
    """(k, generators, seeds) of each distinct constituent of <gens> on an
    orbit of moved points, relabelled 0..k-1 in increasing order."""
    def restrict(stack):  # the distinct non-identity rows, by their bytes
        rows = pos[stack[:, orbit]]
        rows = rows[(rows != _arange(orbit.size)).any(axis=1)]
        return dict(zip(map(bytes, rows), rows))

    gens = np.array(gens, dtype=np.intp).reshape(len(gens), degree)
    seeds = seeds and {p: np.array(s, dtype=np.intp).reshape(len(s), degree)
                       for p, s in seeds.items()}
    pos, seen = np.empty(degree, dtype=np.intp), set()
    for orbit in _orbits(gens):
        pos[orbit] = _arange(orbit.size)
        restricted = restrict(gens)
        if (key := b"".join(restricted)) not in seen:
            seen.add(key)
            yield orbit.size, list(restricted.values()), seeds and {
                p: list(restrict(s).values()) for p, s in seeds.items()}


def _on_orbit(k: int, gens: Sequence[np.ndarray], seeds) -> PermGroup:
    """N = <seeds>^K for the transitive K = <gens>, as N^B: its constituent
    on the orbit B of point 0, relabelled 0..|B|-1 (see the notes above)."""
    seeds = list(seeds)
    label = _classes(k, seeds, gens)
    B = np.flatnonzero(label == 0)
    if B.size == 1:  # N fixes every point, as its orbits are conjugate
        return PermGroup.trivial(1)
    # t_i(B) for a transversal t_i of K's blocks, walked from B; back maps
    # each block onto B, so back[x[t_i(B)]] is (t_i x t_j^-1)|_B
    images, blocks = [B], {0}
    back = np.empty(k, dtype=np.intp)
    back[B] = _arange(B.size)
    conj = {}
    for image in images:
        for g in gens:
            g_image = g[image]
            if (j := int(label[g_image[0]])) not in blocks:
                blocks.add(j)
                back[g_image] = _arange(B.size)
                images.append(g_image)
            else:  # a Schreier generator of K_B
                conj.setdefault(back[g_image].tobytes(), back[g_image])
    conj.pop(_arange(B.size).tobytes(), None)
    seeds_B = (back[s[image]] for image in images for s in seeds)
    return _closure(B.size, seeds_B, list(conj.values()))[0]


def _derived_step(k: int, gens: Sequence[np.ndarray], seeds) -> PermGroup:
    return _on_orbit(k, gens, _commutators(gens, gens))


def _residual_step(k: int, gens: Sequence[np.ndarray], seeds) -> PermGroup:
    if seeds:
        return _on_orbit(k, gens, _system_residual_seeds(seeds))
    # step(None, gens) is [K, K], the series' first step
    step = _central_step(k, gens, gens)
    terms, _ = _descend(step(None, gens), step)
    return terms[-1]


def _length(degree: int, gens, step, seeds=None, one=False) -> int:
    """Max over the distinct constituents, or the first if conjugate."""
    length = 0
    for k, k_gens, k_seeds in _constituents(degree, gens, seeds):
        N = step(k, k_gens, k_seeds)
        # an intransitive N is not K; else N = K exactly when K's
        # generators sift through N
        if N.degree == k and all(N.chain.contains_array(g) for g in k_gens):
            raise NotSolubleError("perfect constituent of order %d" % N.order)
        # N is normal in the transitive K, so its constituents are conjugate
        length = max(length, 1 + _length(N.degree, _gen_arrays(N), step,
                                         one=True))
        if one:
            break
    return length


def derived_length(G: PermGroup) -> int:
    return _length(G.degree, _gen_arrays(G), _derived_step)


def fitting_length(G: PermGroup, system_gens: Optional[dict] = None) -> int:
    """Fitting length; system_gens: one Sylow generator list per prime."""
    return _length(G.degree, _gen_arrays(G), _residual_step, system_gens)
