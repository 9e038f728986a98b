import hashlib
import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fitlen.chain import build_chain
from fitlen.construct import build, hall_chain, parse_expr
from fitlen.errors import DegreeMismatchError
from fitlen.group import PermGroup, factorize
from fitlen.perms import (Permutation, invert_array, parse_cycles,
                          support_mask)
from fitlen.series import (derived_series, lower_central_series,
                           lower_nilpotent_series)

from conftest import brute_force_elements


def _group(*cycle_texts, degree):
    return PermGroup(degree, [parse_cycles(t, degree) for t in cycle_texts])


def test_empty_generator_list_is_trivial():
    G = PermGroup(5, [])
    assert G.order == 1
    assert G.contains(Permutation.identity(5))


def test_s3_order_against_brute_force():
    G = _group("(1 2)", "(1 2 3)", degree=3)
    bf = brute_force_elements([list(g.images) for g in G.generators])
    assert G.order == len(bf) == 6


@pytest.mark.parametrize("n", range(2, 9))
def test_symmetric_group_calibration(n):
    # order(<(1 2), n-cycle>) = n!, cross-checked against closure
    G = PermGroup(n, [parse_cycles("(1 2)", n),
                     parse_cycles("(%s)" % " ".join(str(i) for i in range(1, n + 1)), n)])
    bf = brute_force_elements([list(g.images) for g in G.generators])
    assert G.order == math.factorial(n) == len(bf)


def test_chain_invariant_orbit_product_and_membership():
    G = _group("(1 2)", "(1 2 3 4 5 6 7 8)", degree=8)
    chain = G.chain
    product = 1
    for lv in chain.levels:
        product *= len(lv.orbit)
    assert product == G.order
    for g in G.generators:
        assert G.contains(g)
    # every stored strong generator fixes all earlier base points
    for i, lv in enumerate(chain.levels):
        for g in lv.gens:
            for earlier in chain.levels[:i]:
                assert g[earlier.point] == earlier.point


def test_membership_round_trip_random_products():
    G = _group("(1 2)", "(1 2 3 4 5)", degree=7)
    rng = random.Random(7)
    gens = list(G.generators)
    for _ in range(100):
        word = [rng.choice(gens) for _ in range(rng.randrange(1, 8))]
        g = word[0]
        for w in word[1:]:
            g = g * w
        assert G.contains(g)
    # moving a point outside every generator orbit cannot be a member
    outside = parse_cycles("(6 7)", 7)
    assert not G.contains(outside)


def test_contains_degree_mismatch():
    G = _group("(1 2)", degree=3)
    with pytest.raises(DegreeMismatchError):
        G.contains(parse_cycles("(1 2)", 4))


def test_deterministic_rebuild():
    gens = [parse_cycles("(1 2)", 6), parse_cycles("(1 2 3 4 5 6)", 6)]
    a = PermGroup(6, gens).chain
    b = PermGroup(6, gens).chain
    assert a.base() == b.base()
    assert [len(lv.orbit) for lv in a.levels] == [len(lv.orbit) for lv in b.levels]
    assert [[g.tobytes() for g in lv.gens] for lv in a.levels] == \
           [[g.tobytes() for g in lv.gens] for lv in b.levels]


def test_reduced_generators():
    a = parse_cycles("(1 2)", 5)
    b = parse_cycles("(1 2 3 4 5)", 5)
    G = PermGroup(5, [a, b, a * b, b * a, Permutation.identity(5)])
    slim = G.reduced()
    assert slim.order == G.order == 120
    assert len(slim.generators) == 2


def test_factored_order_and_primes():
    G = _group("(1 2)", "(1 2 3 4 5 6 7 8)", degree=8)
    assert G.factored_order == {2: 7, 3: 2, 5: 1, 7: 1}
    assert G.primes == (2, 3, 5, 7)
    assert factorize(40320) == G.factored_order
    # factorize against the prime powers dividing each n <= 5000
    limit = 5000
    primes = [p for p in range(2, limit + 1)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    expected = {n: {} for n in range(1, limit + 1)}
    for p in primes:
        for m in range(p, limit + 1, p):
            e, q = 0, m
            while q % p == 0:
                e, q = e + 1, q // p
            expected[m][p] = e
    assert {n: factorize(n) for n in expected} == expected


def test_random_generator_sets_match_brute_force():
    rng = random.Random(11)
    for _ in range(15):
        degree = rng.randrange(3, 8)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            gens.append(Permutation(imgs))
        G = PermGroup(degree, gens)
        bf = brute_force_elements([list(g.images) for g in gens])
        assert G.order == len(bf)
        for _ in range(10):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            assert G.contains(Permutation(list(imgs))) == (tuple(imgs) in bf)


# -- pinned chains and the completeness certificate ---------------------------

PINS = Path(__file__).resolve().parent / "golden" / "chain_pins.json"


def _chain_digest(chain, kept):
    """SHA-256 of base, orbits, per-level strong generators and kept list.

    kept is a list of generator indices (build_chain) or of generator
    arrays (normal closures, Hall chains).  Arrays are hashed as
    little-endian int64, so the digest does not depend on the platform's
    intp.
    """
    h = hashlib.sha256()
    h.update(repr(chain.base()).encode())
    for lv in chain.levels:
        h.update(repr(lv.orbit).encode())
        h.update(b"gens%d" % len(lv.gens))
        for g in lv.gens:
            h.update(g.astype("<i8").tobytes())
    h.update(b"kept%d" % len(kept))
    for k in kept:
        h.update(repr(k).encode() if isinstance(k, int)
                 else np.asarray(k).astype("<i8").tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def w4():
    """The four-prime group of the benchmark's check-wide-w4."""
    return build(parse_expr("W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"))


def _pinned_chains(catalog, w4):
    """(name, chain, kept) for every chain whose digest is pinned."""
    for name in sorted(catalog):
        cg = catalog[name]
        chain, kept = build_chain(cg.degree, [g.images for g in cg.group.generators])
        yield "build/" + name, chain, kept
    for name in ("ex33", "w4big"):
        cg = catalog[name]
        system = {p: hall_chain(cg, (p,))[1] for p in cg.primes}
        for label, series in (
                ("derived", derived_series(cg.group)),
                ("lower_central", lower_central_series(cg.group)),
                ("lower_nilpotent",
                 lower_nilpotent_series(cg.group, system_gens=system)),
                ("lower_nilpotent_unseeded", lower_nilpotent_series(cg.group))):
            for i, T in enumerate(series.terms):
                yield ("%s/%s/%d" % (label, name, i), T.chain,
                       [g.images for g in T.generators])
    # every Hall chain of ex33 (three primes), the 14 proper ones of the
    # four-prime group that the benchmark's check-wide-w4 runs, and those
    # of a regular wreath whose top acts on 24 elements (8 block orbits
    # for {3}, 3 for {2}), so the block representatives are pinned
    wr = build(parse_expr("WR(C(3,1),W(C(2,1),C(3,1)))"))
    for name, cg in (("ex33", catalog["ex33"]), ("w4", w4), ("wr72", wr)):
        for size in (1, 2, 3):
            for sigma in combinations(cg.primes, size):
                chain, kept = hall_chain(cg, sigma)
                yield ("hall/%s/%s" % (name, ",".join(map(str, sigma))),
                       chain, kept)


def _assert_schreier_complete(chain):
    """Sift every Schreier generator of every level; all must vanish.

    Unlike the builder, this also sifts the pairs (u, s) whose support
    masks are disjoint, which verification skips; that includes every
    base-point pair (b_L, s) with s(b_L) = b_L.  So it certifies that
    skipping them lost nothing.  Returns the number of generators sifted.
    """
    ident = np.arange(chain.degree)
    count = 0
    for i, lv in enumerate(chain.levels):
        for p in range(len(lv.orbit)):
            u = invert_array(lv.trans_inv[p])
            for s in lv.gens:
                w = s[u]
                schreier = lv.trans_inv[lv.pos[int(w[lv.point])]][w]
                assert schreier[lv.point] == lv.point
                residue, _ = chain.sift(schreier, i + 1)
                assert residue is None, (i, p)
                count += 1
        assert (invert_array(lv.trans_inv[0]) == ident).all()
    return count


def test_pinned_chains_are_unchanged(catalog, w4):
    expected = json.loads(PINS.read_text())
    got = {name: _chain_digest(chain, kept)
           for name, chain, kept in _pinned_chains(catalog, w4)}
    assert got == expected


def test_pinned_chains_are_schreier_complete(catalog, w4):
    assert sum(_assert_schreier_complete(chain)
               for _, chain, _ in _pinned_chains(catalog, w4)) > 0


def _skipped_pairs(chain):
    """(level, u, s) for every Schreier pair that verification skips.

    Also checks the masks the skip reads: each strong generator's and
    each non-identity representative's is its support, and the identity
    representative's is its level's base point.
    """
    for i, lv in enumerate(chain.levels):
        reps = [invert_array(lv.trans_inv[p]) for p in range(len(lv.orbit))]
        assert lv.tsupp[0] == 1 << lv.point
        for p, u in enumerate(reps):
            if p:
                assert lv.tsupp[p] == support_mask(u)
        for g, s in enumerate(lv.gens):
            assert lv.gsupp[g] == support_mask(s)
            for p, u in enumerate(reps):
                if not lv.gsupp[g] & lv.tsupp[p]:
                    yield i, u, s


def test_skipped_pairs_are_strong_generators_below(catalog, w4):
    # the skip is sound only because the Schreier generator of a skipped
    # pair is s and _insert stored s on level L+1 as well
    skipped = 0
    for name, chain, _ in _pinned_chains(catalog, w4):
        gens = [{g.tobytes() for g in lv.gens} for lv in chain.levels] + [set()]
        for i, u, s in _skipped_pairs(chain):
            w = s[u]
            lv = chain.levels[i]
            schreier = lv.trans_inv[lv.pos[int(w[lv.point])]][w]
            assert schreier.tobytes() == s.tobytes(), (name, i)
            assert s.tobytes() in gens[i + 1], (name, i)
            skipped += 1
    assert skipped > 0


def test_pinned_orbits_are_closed_and_masked(catalog, w4):
    # insertion tries the old orbit points against the new generator
    # alone and skips a generator whose support misses the orbit mask;
    # both rely on every orbit being closed under every stored generator
    for name, chain, _ in _pinned_chains(catalog, w4):
        ident = np.arange(chain.degree)
        for i, lv in enumerate(chain.levels):
            orbit = np.array(lv.orbit)
            points = set(lv.orbit)
            assert len(points) == len(lv.orbit), (name, i)
            assert lv.omask == sum(1 << pt for pt in points), (name, i)
            for s in lv.gens:
                assert set(s[orbit].tolist()) == points, (name, i)
            for j, pt in enumerate(lv.orbit):
                assert lv.pos[pt] == j, (name, i)
                u_inv = lv.trans_inv[j]
                u = invert_array(u_inv)
                assert u[lv.point] == pt, (name, i, j)
                assert (u_inv[u] == ident).all(), (name, i, j)


def test_pinned_levels_store_one_array_per_point(catalog, w4):
    # only the inverse representatives are kept, read-only and intp, and
    # tmask is the union of their support masks, so it contains omask
    for name, chain, _ in _pinned_chains(catalog, w4):
        for i, lv in enumerate(chain.levels):
            assert not hasattr(lv, "trans"), (name, i)
            assert len(lv.trans_inv) == len(lv.orbit), (name, i)
            for a in lv.trans_inv:
                assert a.dtype == np.intp and a.shape == (chain.degree,)
                assert not a.flags.writeable, (name, i)
            union = 0
            for m in lv.tsupp:
                union |= m
            assert lv.tmask == union, (name, i)
            assert lv.omask & ~lv.tmask == 0, (name, i)


def test_pinned_pairs_left_unscanned_are_disjoint(catalog, w4):
    # a generator that misses tmask does not restart the scan, so on a
    # verified level every pair past vdone[p] is one the skip rule covers
    unscanned = 0
    for name, chain, _ in _pinned_chains(catalog, w4):
        for i, lv in enumerate(chain.levels):
            assert lv.vscan == len(lv.orbit), (name, i)
            for p, done in enumerate(lv.vdone):
                for g in range(done, len(lv.gens)):
                    assert not lv.gsupp[g] & lv.tmask, (name, i, p, g)
                    unscanned += 1
    assert unscanned > 0
