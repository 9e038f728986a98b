"""Property test: chains of random permutation groups are complete.

Every Schreier generator of every level is sifted, including the
base-point pairs that verification skips, and the chain order is
compared with a brute-force closure.  Both the verify-per-insertion and
the batched build are checked.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.chain import build_chain  # noqa: E402

from conftest import brute_force_elements  # noqa: E402
from test_chain import _assert_schreier_complete  # noqa: E402

perm_lists = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(perm_lists)
def test_random_chains_are_schreier_complete(images):
    arrays = [np.array(g, dtype=np.intp) for g in images]
    order = len(brute_force_elements(images))
    for batch in (False, True):
        chain, _ = build_chain(len(images[0]), arrays, batch=batch)
        _assert_schreier_complete(chain)
        assert chain.order() == order
