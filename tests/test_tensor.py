"""Pairings, matricizations, and symmetry predicates.

Oracles here are either hand-computed small cases (frozen inline),
entry-by-entry loop reconstructions of the same mapping, or (for
symmetrize) the plain average over all axis permutations. The property
tests draw dims, pairings and permutations with hypothesis, derandomized so
the suite stays deterministic.
"""

from itertools import permutations
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrank.tensor import (
    Pairing,
    canonical_pairings,
    is_super_symmetric,
    mode_fold,
    mode_unfold,
    outer,
    permute,
    square_fold,
    square_unfold,
    symmetrize,
    unvec,
    vec,
)


def crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def permutation_average(t):
    """Reference symmetrize: the mean of t over all (order)! axis transposes."""
    out = np.zeros_like(t)
    for p in permutations(range(t.ndim)):
        out += np.transpose(t, p)
    return out / factorial(t.ndim)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# ------------------------------------------------------------------ Pairing


def test_pairing_validation():
    Pairing((0, 1), (2, 3))
    with pytest.raises(ValueError):
        Pairing((0,), (1, 2))  # unbalanced
    with pytest.raises(ValueError):
        Pairing((0, 1), (1, 2))  # not a partition
    with pytest.raises(ValueError):
        Pairing((0, 2), (3, 4))  # gap


def test_pairing_parse_and_str():
    pr = Pairing.parse("1,3|2,4")
    assert pr == Pairing((0, 2), (1, 3))
    assert str(pr) == "1,3|2,4"
    assert Pairing.parse(str(pr), 4) == pr
    with pytest.raises(ValueError):
        Pairing.parse("1,2|3,4", order=6)
    with pytest.raises(ValueError):
        Pairing.parse("nonsense")


def test_pairing_default_and_canonicalize():
    assert Pairing.default(4) == Pairing((0, 1), (2, 3))
    with pytest.raises(ValueError):
        Pairing.default(3)
    # swapping groups and reordering within a group lands on the same
    # canonical representative
    assert Pairing((3, 1), (2, 0)).canonicalize() == Pairing((0, 2), (1, 3))


def test_canonical_pairings_counts():
    # C(2d, d)/2 splits with axis 0 pinned to the rows
    assert len(canonical_pairings(2)) == 1
    prs4 = canonical_pairings(4)
    assert len(prs4) == 3
    assert {str(p) for p in prs4} == {"1,2|3,4", "1,3|2,4", "1,4|2,3"}
    assert len(canonical_pairings(6)) == 10
    assert all(p.row[0] == 0 for p in canonical_pairings(6))
    with pytest.raises(ValueError):
        canonical_pairings(3)


def test_matrix_shape():
    pr = Pairing((0, 2), (1, 3))
    assert pr.matrix_shape((2, 3, 5, 7)) == (10, 21)


# ------------------------------------------------------- vec / permute / outer


def test_vec_is_first_index_fastest():
    t = np.arange(6, dtype=np.complex128).reshape(2, 3, order="F")
    # t[i, j] = i + 2j, flat position i + 2j
    assert np.array_equal(vec(t), np.arange(6))
    assert np.array_equal(unvec(vec(t), (2, 3)), t)
    with pytest.raises(ValueError):
        unvec(np.arange(5), (2, 3))


def test_vec_unvec_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        dims = tuple(rng.integers(1, 5, size=rng.integers(1, 6)))
        t = crandn(rng, dims)
        assert np.array_equal(unvec(vec(t), dims), t)


def test_permute_semantics():
    rng = np.random.default_rng(3)
    t = crandn(rng, (2, 3, 4))
    p = permute(t, (2, 0, 1))
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert p[k, i, j] == t[i, j, k]
    with pytest.raises(ValueError):
        permute(t, (0, 1, 1))


def test_outer():
    a = np.array([1.0, 2.0])
    b = np.array([1j, 2j, 3j])
    o = outer(a, b)
    assert o.shape == (2, 3)
    assert o[1, 2] == 6j
    # associativity of shapes: ((a x b) x a) has concatenated dims
    assert outer(o, a).shape == (2, 3, 2)


def test_outer_of_many_factors_reduces_left_to_right():
    rng = np.random.default_rng(0)
    a, b, c = (crandn(rng, n) for n in (2, 3, 4))
    abc = outer(a, b, c)
    assert abc.dtype == np.complex128
    assert np.array_equal(abc, outer(outer(a, b), c))
    assert np.array_equal(outer(a), a)


# ----------------------------------------------------------- square unfolding


def test_square_unfold_default_is_fortran_reshape():
    t = np.arange(16, dtype=np.complex128).reshape(2, 2, 2, 2, order="F")
    m = square_unfold(t)
    assert np.array_equal(m, np.arange(16).reshape(4, 4, order="F"))


def test_square_unfold_crossed_pairing_frozen():
    # t[i,j,k,l] = i + 2j + 4k + 8l; pairing rows (axes 1,3) cols (axes 2,4)
    t = np.arange(16, dtype=np.complex128).reshape(2, 2, 2, 2, order="F")
    m = square_unfold(t, Pairing.parse("1,3|2,4"))
    expected = np.array(
        [
            [0, 2, 8, 10],
            [1, 3, 9, 11],
            [4, 6, 12, 14],
            [5, 7, 13, 15],
        ],
        dtype=np.complex128,
    )
    assert np.array_equal(m, expected)


def test_square_unfold_entry_map():
    rng = np.random.default_rng(5)
    dims = (2, 3, 4, 5)
    t = crandn(rng, dims)
    pr = Pairing((0, 3), (2, 1))
    m = square_unfold(t, pr)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                for l in range(5):
                    row = i + 2 * l
                    col = k + 4 * j
                    assert m[row, col] == t[i, j, k, l]


def test_square_unfold_fold_round_trip_all_pairings():
    rng = np.random.default_rng(7)
    for trial in range(60):
        order = int(rng.choice([2, 4, 6]))
        dims = tuple(int(d) for d in rng.integers(1, 4 + (order < 6), size=order))
        t = crandn(rng, dims)
        axes = list(range(order))
        rng.shuffle(axes)
        pr = Pairing(tuple(axes[: order // 2]), tuple(axes[order // 2 :]))
        m = square_unfold(t, pr)
        assert m.shape == pr.matrix_shape(dims)
        back = square_fold(m, dims, pr)
        assert np.array_equal(back, t)


def test_square_unfold_errors():
    t = np.zeros((2, 2, 2))
    with pytest.raises(ValueError):
        square_unfold(t)
    with pytest.raises(ValueError):
        square_unfold(np.zeros((2, 2, 2, 2)), Pairing.default(2))
    with pytest.raises(ValueError):
        square_fold(np.zeros((4, 4)), (2, 2, 2), Pairing.default(2))


@pytest.mark.parametrize("call, message", [
    # square_fold used to return a (2, 3) array for the short pairing and
    # raise IndexError for the long one
    (lambda: square_fold(np.ones((2, 3)), (2, 3, 4, 5), Pairing((0,), (1,))),
     "pairing order 2 != tensor order 4"),
    (lambda: square_fold(np.ones((24, 30)), (2, 3, 4, 5), Pairing((0, 1, 2), (3, 4, 5))),
     "pairing order 6 != tensor order 4"),
    (lambda: square_unfold(np.ones((2, 3, 4, 5)), Pairing((0,), (1,))),
     "pairing order 2 != tensor order 4"),
    (lambda: square_unfold(np.ones((2, 3)), Pairing((0, 1), (2, 3))),
     "pairing order 4 != tensor order 2"),
    # an odd order has no default pairing
    (lambda: square_unfold(np.ones((2, 2, 2))), "order must be even, got 3"),
    (lambda: square_fold(np.ones((2, 4)), (2, 2, 2)), "order must be even, got 3"),
], ids=["fold-short", "fold-long", "unfold-short", "unfold-long", "unfold-odd", "fold-odd"])
def test_square_matricizations_reject_a_pairing_of_the_wrong_order(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# ------------------------------------------------------------- mode unfolding


def test_mode_unfold_order2():
    rng = np.random.default_rng(9)
    t = crandn(rng, (3, 5))
    assert np.array_equal(mode_unfold(t, 0), t.T)
    assert np.array_equal(mode_unfold(t, 1), t)


def test_mode_unfold_entry_map():
    rng = np.random.default_rng(13)
    t = crandn(rng, (2, 3, 4))
    m = mode_unfold(t, 1)
    assert m.shape == (8, 3)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert m[i + 2 * k, j] == t[i, j, k]


def test_mode_fold_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dims = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(2, 6))))
        t = crandn(rng, dims)
        for mode in range(len(dims)):
            assert np.array_equal(mode_fold(mode_unfold(t, mode), dims, mode), t)
    with pytest.raises(ValueError):
        mode_unfold(t, len(dims))
    with pytest.raises(ValueError):
        mode_fold(np.zeros((5, 2)), (2, 3), 0)


# ------------------------------------------------------------------ symmetry


def test_symmetrize_projects_and_fixes():
    rng = np.random.default_rng(19)
    t = crandn(rng, (3, 3, 3, 3))
    s = symmetrize(t)
    assert is_super_symmetric(s, 1e-12)
    # projection: idempotent and identity on symmetric input
    assert np.allclose(symmetrize(s), s, atol=1e-13)
    with pytest.raises(ValueError):
        symmetrize(np.zeros((2, 3)))


def test_is_super_symmetric_cases():
    v = np.array([1.0 + 1j, -0.5, 0.25j])
    t = np.einsum("i,j,k,l->ijkl", v, v, v, v)
    assert is_super_symmetric(t)
    t[0, 1, 2, 0] += 1e-3
    assert not is_super_symmetric(t, 1e-8)
    assert is_super_symmetric(t, 1.0)  # loose tolerance accepts it
    assert not is_super_symmetric(np.zeros((2, 3)))  # unequal dims
    assert is_super_symmetric(np.zeros((2, 2)))


# ------------------------------------------------------- property tests


@st.composite
def tensors_and_pairings(draw):
    """An even-order complex tensor (small dims) and a random balanced pairing."""
    order = draw(st.sampled_from([2, 4, 6]))
    dims = tuple(draw(st.lists(st.integers(1, 4 if order < 6 else 3),
                               min_size=order, max_size=order)))
    axes = draw(st.permutations(range(order)))
    pairing = Pairing(tuple(axes[: order // 2]), tuple(axes[order // 2:]))
    t = crandn(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), dims)
    return t, pairing


@PROPERTY
@given(tensors_and_pairings())
def test_square_fold_inverts_unfold(case):
    t, pr = case
    m = square_unfold(t, pr)
    assert m.shape == pr.matrix_shape(t.shape)
    assert np.array_equal(square_fold(m, t.shape, pr), t)


@PROPERTY
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.data())
def test_mode_fold_inverts_unfold(dims, data):
    dims = tuple(dims)
    mode = data.draw(st.integers(0, len(dims) - 1))
    t = crandn(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))), dims)
    m = mode_unfold(t, mode)
    assert m.shape == (t.size // dims[mode], dims[mode])
    assert np.array_equal(mode_fold(m, dims, mode), t)


@st.composite
def cubical_tensors(draw):
    order = draw(st.sampled_from([2, 4, 6]))
    n = draw(st.integers(1, {2: 5, 4: 4, 6: 3}[order]))
    return crandn(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), (n,) * order)


@PROPERTY
@given(cubical_tensors(), st.data())
def test_symmetrize_properties(t, data):
    s = symmetrize(t)
    tol = 1e-13 * max(1.0, float(np.abs(t).max()))
    assert np.allclose(s, permutation_average(t), rtol=0, atol=tol)
    assert is_super_symmetric(s, 1e-13)
    assert np.allclose(symmetrize(s), s, rtol=0, atol=tol)
    axes = data.draw(st.permutations(range(t.ndim)))
    assert np.allclose(symmetrize(np.transpose(t, axes)), s, rtol=0, atol=tol)
