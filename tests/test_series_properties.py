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
series, which measure the group as a whole.
"""

import itertools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.construct import build, parse_expr  # noqa: E402
from fitlen.hall import hall_subgroup  # noqa: E402
from fitlen.perms import Permutation  # noqa: E402
from fitlen.series import (_commutators, _orbits,  # noqa: E402
                           derived_length, derived_series, fitting_length,
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
