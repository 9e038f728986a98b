"""Property tests of the series engine.

_commutators skips the pairs whose supports are disjoint without
composing them, and drops every other pair whose commutator is the
identity.  Compared here with the plain product x^-1 t^-1 x t of every
pair, in pair order, on sparse permutations, so that many pairs are
disjoint, many commute without being disjoint, and many do not commute.

_orbits labels orbits with numpy passes; it is compared with a plain
graph search.  fitting_length and derived_length measure transitive
constituents; on every Hall subgroup of the oracle strategy's groups
and of the catalog, they are compared with the lengths of the full
series, which measure the group as a whole.  Each length step works on
one orbit of its result, and the orbit it picks holds point 0, so both
lengths are also compared before and after a random relabelling of the
points.  That step, on any seeds in a transitive wreath product, is
compared with the full-degree closure.
"""

import functools
import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import (assume, given, settings,  # noqa: E402
                        strategies as st)

from fitlen.construct import build, parse_expr  # noqa: E402
from fitlen.group import PermGroup  # noqa: E402
from fitlen.hall import hall_subgroup  # noqa: E402
from fitlen.perms import Permutation  # noqa: E402
from fitlen.series import (_classes, _closure, _commutators,  # noqa: E402
                           _gen_arrays, _on_orbit, _orbits, derived_length,
                           derived_series, fitting_length,
                           lower_nilpotent_series)

from test_oracle_properties import small_exprs  # noqa: E402


def _sparse_perms(n):
    """Permutations of {0..n-1} that move a random subset of points."""
    def place(points, images):
        arr = np.arange(n, dtype=np.intp)
        arr[list(points)] = images
        return arr
    return st.lists(st.integers(0, n - 1), unique=True).flatmap(
        lambda points: st.permutations(points).map(
            lambda images: place(points, images)))


sides = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(_sparse_perms(n), max_size=5),
    st.lists(_sparse_perms(n), max_size=5)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(sides)
def test_commutators_are_the_non_identity_pair_products(lists):
    left, right = lists
    expected = []
    for x in map(Permutation, left):
        for t in map(Permutation, right):
            c = x.inverse() * t.inverse() * x * t
            if not c.is_identity():
                expected.append(c.images.tobytes())
    got = [c.tobytes() for c in _commutators(left, right)]
    assert got == expected


# -- orbits and lengths through constituents ----------------------------------

def _orbits_by_search(n, gens):
    """The orbits of <gens> on their moved points, by plain graph search."""
    orbits, seen = [], set()
    for start in range(n):
        if start in seen or all(g[start] == start for g in gens):
            continue
        orbit, queue = {start}, [start]
        while queue:
            x = queue.pop()
            for g in gens:
                if int(g[x]) not in orbit:
                    orbit.add(int(g[x]))
                    queue.append(int(g[x]))
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(_sparse_perms(n), max_size=4))))
def test_orbits_match_graph_search(case):
    n, gens = case
    stack = np.array(gens, dtype=np.intp).reshape(len(gens), n)
    assert [list(o) for o in _orbits(stack)] == _orbits_by_search(n, gens)


def _hall_cases(cg):
    """(sigma, Hall subgroup, Sylow seeds as hall_profile builds them)."""
    for size in range(1, len(cg.primes) + 1):
        for sigma in itertools.combinations(cg.primes, size):
            seeds = {p: [g.images for g in hall_subgroup(cg, (p,)).generators]
                     for p in sigma}
            yield sigma, hall_subgroup(cg, sigma), seeds


def _assert_lengths_match_series(cg, text):
    for sigma, H, seeds in _hall_cases(cg):
        assert fitting_length(H, seeds) == \
            lower_nilpotent_series(H, seeds).length, (text, sigma)
        assert derived_length(H) == derived_series(H).length, (text, sigma)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_exprs)
def test_lengths_through_constituents_match_series(entry):
    text = entry[0]
    _assert_lengths_match_series(build(parse_expr(text)), text)


def test_lengths_through_constituents_match_series_on_catalog(catalog):
    for name, cg in catalog.items():
        _assert_lengths_match_series(cg, name)


# -- lengths do not depend on the names of the points -----------------------

def _assert_lengths_survive_relabelling(cg, text, seed):
    """fitting_length(H, seeds) and derived_length(H) of every Hall
    subgroup H, before and after conjugating the generators and the Sylow
    seeds by a seeded random permutation pi of the points."""
    pi = np.random.default_rng(seed).permutation(cg.degree)
    pi_inv = np.argsort(pi)

    def moved(arrays):  # x^pi = pi^-1 x pi: the point pi(i) goes to pi(x(i))
        return [pi[a][pi_inv] for a in arrays]

    for sigma, H, seeds in _hall_cases(cg):
        K = PermGroup.from_arrays(cg.degree, moved(
            [g.images for g in H.generators]))
        K_seeds = {p: moved(s) for p, s in seeds.items()}
        assert fitting_length(K, K_seeds) == fitting_length(H, seeds), \
            (text, sigma, seed)
        assert derived_length(K) == derived_length(H), (text, sigma, seed)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(small_exprs, st.integers(0, 2 ** 32 - 1))
def test_lengths_survive_relabelling(entry, seed):
    text = entry[0]
    _assert_lengths_survive_relabelling(build(parse_expr(text)), text, seed)


@pytest.mark.parametrize("text", [
    "W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))",  # check-wide-w4, degree 210
    "W(C(2,1),IT(W(C(3,1),C(5,1)),2))",  # h-deep-450
])
def test_lengths_survive_relabelling_of_wide_and_deep_groups(text):
    _assert_lengths_survive_relabelling(build(parse_expr(text)), text, 22)


# -- one length step on one orbit of its result -----------------------------

def _wreath_elements(a, b):
    """Elements of Sym(a) wr Sym(b) on a*b points, blocks of a points."""
    def place(top, bases):
        return np.array([a * top[i] + bases[i][j]
                         for i in range(b) for j in range(a)], dtype=np.intp)
    return st.builds(place, st.permutations(range(b)), st.lists(
        st.permutations(range(a)), min_size=b, max_size=b))


# generators in a wreath product, and seeds given as words in them
imprimitive = st.tuples(st.integers(2, 4), st.integers(2, 4)).flatmap(
    lambda ab: st.tuples(
        st.lists(_wreath_elements(*ab), min_size=1, max_size=3),
        st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=3),
                 min_size=1, max_size=2)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(imprimitive)
def test_orbit_step_matches_the_full_closure_for_any_seeds(case):
    # for any seeds S in a transitive K, the classes are the orbits of
    # the full-degree closure N = <S>^K, and the step's group is N's
    # constituent on the class of point 0
    gens, words = case
    k = gens[0].size
    orbits = _orbits(np.array(gens))
    assume(len(orbits) == 1 and orbits[0].size == k)
    seeds = [functools.reduce(lambda x, i: gens[i % len(gens)][x], word,
                              np.arange(k)) for word in words]
    full, _ = _closure(k, seeds, gens)
    expected = np.arange(k)
    for orbit in _orbits(np.array(_gen_arrays(full)).reshape(-1, k)):
        expected[orbit] = orbit[0]
    assert np.array_equal(_classes(k, seeds, gens), expected)
    B = np.flatnonzero(expected == 0)
    pos = np.empty(k, dtype=np.intp)
    pos[B] = np.arange(B.size)
    N = _on_orbit(k, gens, seeds)
    assert N.degree == B.size
    assert N.order == PermGroup.from_arrays(B.size, [
        pos[g[B]] for g in _gen_arrays(full)]).order
