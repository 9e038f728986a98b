import numpy as np
import pytest

from fitlen.errors import DegreeMismatchError, NotAPermutationError, UsageError
from fitlen.perms import Permutation, parse_cycles, support_mask


def test_identity_composition():
    g = parse_cycles("(1 2 3)", 4)
    assert Permutation.identity(4) * g == g
    assert g * Permutation.identity(4) == g


def test_composition_convention_left_then_right():
    # (1 2) then (2 3) sends 1 -> 2 -> 3, so the product is (1 3 2)
    a = parse_cycles("(1 2)", 3)
    b = parse_cycles("(2 3)", 3)
    assert str(a * b) == "(1 3 2)"


def test_inverse_round_trip():
    g = parse_cycles("(1 4 2)(3 5)", 6)
    assert (g * g.inverse()).is_identity()
    assert (g.inverse() * g).is_identity()


def test_degree_mismatch_is_usage_error():
    with pytest.raises(DegreeMismatchError):
        parse_cycles("(1 2)", 2) * parse_cycles("(1 2)", 3)


@pytest.mark.parametrize("bad", [[0, 0, 1], [1, 2, 3], [0, 2], []])
def test_rejects_non_bijections(bad):
    with pytest.raises(NotAPermutationError):
        Permutation(bad)


def test_cycle_text_round_trip():
    for text in ["()", "(1 2)", "(1 2 3)(4 5)", "(2 4 6)(1 3)(5 7)"]:
        g = parse_cycles(text, 8)
        assert parse_cycles(str(g), 8) == g


def test_identity_prints_as_unit():
    assert str(Permutation.identity(5)) == "()"
    assert parse_cycles("()", 3).is_identity()


def test_parse_accepts_commas_and_whitespace():
    assert parse_cycles("(1, 2, 3) (4,5)", 5) == parse_cycles("(1 2 3)(4 5)", 5)


def test_parse_rejects_garbage_and_out_of_range():
    with pytest.raises(UsageError):
        parse_cycles("(1 2) junk", 4)
    with pytest.raises(UsageError):
        parse_cycles("(0 1)", 4)
    with pytest.raises(UsageError):
        parse_cycles("(1 9)", 4)


def test_element_order():
    assert parse_cycles("(1 2 3)(4 5)", 5).order() == 6
    assert Permutation.identity(3).order() == 1


def test_conjugation():
    g = parse_cycles("(1 2 3)", 4)
    x = parse_cycles("(3 4)", 4)
    assert str(x.inverse() * g * x) == "(1 2 4)"


def test_images_are_read_only():
    g = parse_cycles("(1 2)", 3)
    with pytest.raises(ValueError):
        g.images[0] = 2


def test_hash_consistency():
    a = parse_cycles("(1 2)", 4)
    b = a * Permutation.identity(4)
    assert hash(a) == hash(b) and a == b
    assert len({a, b}) == 1


def test_from_cycles_zero_based():
    g = Permutation.from_cycles([(0, 1, 2)], 4)
    assert list(g.images) == [1, 2, 0, 3]


@pytest.mark.parametrize("degree", [1, 7, 8, 9, 210])
def test_support_mask_matches_moved_points(degree):
    # degrees on both sides of a byte boundary, and the benchmark's 210
    rng = np.random.default_rng(degree)
    ident = np.arange(degree)
    last_two = ident.copy()
    last_two[-2:] = last_two[-2:][::-1]
    for arr in [ident, last_two] + [rng.permutation(degree) for _ in range(20)]:
        moved = np.flatnonzero(arr != ident)
        assert support_mask(arr) == sum(1 << int(i) for i in moved)
