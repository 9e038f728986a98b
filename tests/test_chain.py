import hashlib
import json
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from fitlen.chain import build_chain
from fitlen.construct import hall_chain
from fitlen.errors import ContainmentError, DegreeMismatchError
from fitlen.group import PermGroup, factorize
from fitlen.perms import Permutation, parse_cycles
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


def test_subgroup_lagrange_and_containment_error():
    G = _group("(1 2)", "(1 2 3)", degree=3)
    H = G.subgroup([parse_cycles("(1 2 3)", 3)])
    assert H.order == 3 and G.order % H.order == 0
    full = G.subgroup(list(G.generators))
    assert full.order == G.order
    assert G.subgroup([]).order == 1
    with pytest.raises(ContainmentError) as err:
        _group("(1 2 3)", degree=3).subgroup([parse_cycles("(1 2)", 3)])
    assert "(1 2)" in str(err.value)


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


def test_uniform_sampling_hits_members():
    G = _group("(1 2)", "(1 2 3)", degree=3)
    rng = random.Random(3)
    seen = {str(G.sample(rng)) for _ in range(200)}
    assert len(seen) == 6  # all of the order-6 group shows up


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


def _pinned_chains(catalog):
    """(name, chain, kept) for every chain whose digest is pinned."""
    for name in sorted(catalog):
        cg = catalog[name]
        chain, kept = build_chain(cg.degree, [g.images for g in cg.group.generators])
        yield "build/" + name, chain, kept
    for name in ("ex33", "w4big"):
        cg = catalog[name]
        system = {p: [g.images for g in cg.system[p]] for p in cg.primes}
        for label, series in (
                ("derived", derived_series(cg.group)),
                ("lower_central", lower_central_series(cg.group)),
                ("lower_nilpotent",
                 lower_nilpotent_series(cg.group, system_gens=system)),
                ("lower_nilpotent_unseeded", lower_nilpotent_series(cg.group))):
            for i, T in enumerate(series.terms):
                yield ("%s/%s/%d" % (label, name, i), T.chain,
                       [g.images for g in T.generators])
    cg = catalog["ex33"]
    for size in range(1, cg.num_primes + 1):
        for sigma in combinations(cg.primes, size):
            chain, kept = hall_chain(cg, sigma)
            yield "hall/ex33/" + ",".join(map(str, sigma)), chain, kept


def _assert_schreier_complete(chain):
    """Sift every Schreier generator of every level; all must vanish.

    Unlike the builder, this also sifts the base-point pairs (b_L, s)
    with s(b_L) = b_L that verification skips, so it certifies that
    skipping them lost nothing.  Returns the number of generators sifted.
    """
    ident = np.arange(chain.degree)
    count = 0
    for i, lv in enumerate(chain.levels):
        for p, u in enumerate(lv.trans):
            for s in lv.gens:
                w = s[u]
                schreier = lv.trans_inv[lv.pos[int(w[lv.point])]][w]
                assert schreier[lv.point] == lv.point
                residue, _ = chain.sift(schreier, i + 1)
                assert residue is None, (i, p)
                count += 1
        assert (lv.trans[0] == ident).all()
    return count


def test_pinned_chains_are_unchanged(catalog):
    expected = json.loads(PINS.read_text())
    got = {name: _chain_digest(chain, kept)
           for name, chain, kept in _pinned_chains(catalog)}
    assert got == expected


def test_pinned_chains_are_schreier_complete(catalog):
    assert sum(_assert_schreier_complete(chain)
               for _, chain, _ in _pinned_chains(catalog)) > 0
