"""Property tests: chains of random permutation groups are complete.

Every Schreier generator of every level is sifted, including the
base-point pairs that verification skips, and the chain order is
compared with a brute-force closure or with the order formula of a
constructed group.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fitlen.chain import build_chain  # noqa: E402
from fitlen.construct import (NATURAL, Cyclic, Direct, ElemAbelian,  # noqa: E402
                              Iterated, Wreath, _size, build, expr_order)
from fitlen.perms import compose_arrays  # noqa: E402

from conftest import brute_force_elements  # noqa: E402
from test_chain import _assert_schreier_complete  # noqa: E402

perm_lists = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.permutations(range(n)), min_size=1, max_size=3))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(perm_lists)
def test_random_chains_are_schreier_complete(images):
    arrays = [np.array(g, dtype=np.intp) for g in images]
    order = len(brute_force_elements(images))
    chain, _ = build_chain(len(images[0]), arrays)
    _assert_schreier_complete(chain)
    assert chain.order() == order


# Wreath-shaped groups up to degree 80: unlike the small groups above,
# their levels have generators that meet a level's representatives but
# not its orbit, which is where skipping a rescan is easiest to get wrong.
WREATH_DEGREE = 80

leaves = st.sampled_from([Cyclic(2), Cyclic(3), Cyclic(2, 2), Cyclic(5),
                          ElemAbelian(2, 2), ElemAbelian(3, 2)])
exprs = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(Direct, inner, inner),
        st.builds(Wreath, inner, inner),
        st.builds(Iterated, inner, st.integers(2, 3))),
    max_leaves=4,
).filter(lambda e: _size(e, NATURAL, WREATH_DEGREE + 1)[0] <= WREATH_DEGREE)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(exprs, st.data())
def test_wreath_chains_are_schreier_complete(expr, data):
    cg = build(expr)
    gens = cg.hall_generators(None)
    order = data.draw(st.permutations(range(len(gens))))
    arrays = [gens[i] for i in order]
    index = st.integers(0, len(gens) - 1)
    for _ in range(data.draw(st.integers(2, 3))):
        product = compose_arrays(gens[data.draw(index)], gens[data.draw(index)])
        arrays.insert(data.draw(st.integers(0, len(arrays))), product)
    chain, _ = build_chain(cg.degree, arrays)
    _assert_schreier_complete(chain)
    assert chain.order() == expr_order(cg.expr)
