"""Property test: the commutator seeds skip only identity commutators.

_commutators skips the pairs whose supports are disjoint without
composing them, and drops every other pair whose commutator is the
identity.  Compared here with the plain product x^-1 t^-1 x t of every
pair, in pair order, on sparse permutations, so that many pairs are
disjoint, many commute without being disjoint, and many do not commute.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.perms import Permutation  # noqa: E402
from fitlen.series import _commutators  # noqa: E402


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
