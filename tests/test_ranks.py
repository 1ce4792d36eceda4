"""Rank reports, structured decompositions, and the rank-one round trip.

Constructed instances have ranks known by construction (fold a matrix of
known rank through a chosen pairing; products of factor ranks for the
matrix-outer-product form), so every asserted number has an oracle
independent of the code under test.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from mrank.linalg import numerical_rank, takagi
from mrank.ranks import (
    RECOVERED_RANK_TOL,
    RankReport,
    cp_exact_for_kron,
    m_decompose,
    m_ranks,
    rank_one_factorize,
    scp_bound_interval,
    strongly_symmetrize,
    symmetric_m_decompose,
)
from mrank.synth import gen_cp, gen_kron, gen_supersym
from mrank.tensor import (
    Pairing,
    is_super_symmetric,
    mode_unfold,
    outer,
    square_fold,
    square_unfold,
)


def crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rank_s_matrix(rng, nrow, ncol, s):
    return crandn(rng, (nrow, s)) @ crandn(rng, (s, ncol))


def power(b, order):
    """b^{(x) order}."""
    t = b
    for _ in range(order - 1):
        t = outer(t, b)
    return t


# ------------------------------------------------------------------ m_ranks


def test_m_ranks_folded_known_rank():
    # plant rank 4 under one pairing by folding a rank-4 matrix through it
    rng = np.random.default_rng(0)
    dims = (3, 4, 3, 4)
    pr = Pairing.parse("1,3|2,4")
    m = rank_s_matrix(rng, 9, 16, 4)
    t = square_fold(m, dims, pr)
    rep = m_ranks(t)
    assert rep.pairing_ranks["1,3|2,4"] == 4
    assert rep.m_minus <= 4 <= rep.m_plus
    assert rep.dims == dims
    assert rep.rel_tol == 1e-8


def test_m_ranks_cp_instance():
    # r rank-one terms: every square unfolding is a sum of r dyads
    for seed in range(3):
        t = gen_cp((5, 6, 7, 4), 3, seed=seed)
        rep = m_ranks(t)
        assert set(rep.pairing_ranks.values()) == {3}
        assert rep.m_plus == rep.m_minus == 3
        assert rep.tucker == (3, 3, 3, 3)
        assert rep.cp_lower == 3
        # order-4 upper bound: sorted dims (4,5,6,7) -> 4 * 6 * m_minus
        assert rep.cp_upper == 4 * 6 * 3
        assert rep.rank_m == 3


def test_m_ranks_kron_instance():
    # r terms of A_i (x) B_i with rank-k factors: the aligned pairing sees
    # rank r, the crossed pairings see r*k^2, modes see min(r*k, n)
    t = gen_kron((6, 6, 6, 6), r=2, k=2, seed=1)
    rep = m_ranks(t)
    assert rep.m_minus == 2
    assert rep.m_plus == 8
    assert rep.pairing_ranks["1,2|3,4"] == 2
    assert rep.tucker == (4, 4, 4, 4)
    assert rep.rank_m is None  # pairings disagree


def test_m_ranks_order_two_and_errors():
    rng = np.random.default_rng(2)
    m = rank_s_matrix(rng, 6, 6, 2)
    rep = m_ranks(m)
    assert rep.m_plus == rep.m_minus == 2
    assert rep.tucker == (2, 2)
    assert rep.cp_upper is None  # only defined at order 4
    with pytest.raises(ValueError):
        m_ranks(np.zeros((3, 3, 3)))


def test_m_ranks_zero_tensor():
    rep = m_ranks(np.zeros((4, 4, 4, 4)))
    assert rep.m_plus == rep.m_minus == 0
    assert rep.tucker == (0, 0, 0, 0)
    assert rep.cp_lower == 0 and rep.cp_upper == 0


@pytest.mark.parametrize("make", [
    lambda: gen_cp((20,) * 4, 30, seed=0),
    lambda: gen_cp((8,) * 6, 20, seed=0),
    lambda: gen_kron((16,) * 4, 3, 3, seed=0),
    lambda: gen_supersym(4, 8, 6, seed=0),
], ids=["cp_20", "cp_order6", "kron", "supersym_order8"])
def test_m_ranks_match_full_svd_counts(make):
    # the benchmark's rank-report families at smaller sizes: every entry,
    # certified by the sketch or not, equals a full-SVD count made here
    def count(m):
        s = svdvals(m)
        return int(np.count_nonzero(s > 1e-8 * s[0]))

    t = make()
    rep = m_ranks(t)
    for name, rk in rep.pairing_ranks.items():
        assert rk == count(square_unfold(t, Pairing.parse(name, t.ndim))), name
    assert rep.tucker == tuple(count(mode_unfold(t, j)) for j in range(t.ndim))


@pytest.mark.parametrize("dims", [(0, 3, 3, 3), (2, 2, 0, 2), (0, 0)])
def test_m_ranks_rejects_zero_length_axis(dims):
    with pytest.raises(ValueError, match=r"zero dimension in \("):
        m_ranks(np.zeros(dims, dtype=np.complex128))


def svd_count(m, tol):
    s = svdvals(m)
    return int(np.count_nonzero(s > tol * s[0])) if s[0] > 0 else 0


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([4, 6]), st.sampled_from([1e-8, RECOVERED_RANK_TOL]), st.data())
def test_m_ranks_tucker_matches_full_svd_property(order, tol, data):
    # CP ranks from 1 to past every mode's size, so the Gram certificate
    # decides full-rank modes and the SVD fallback rank-deficient ones
    side = {4: 9, 6: 4}[order]
    dims = tuple(data.draw(st.lists(st.integers(2, side), min_size=order, max_size=order)))
    r = data.draw(st.integers(1, 2 * max(dims)))
    t = gen_cp(dims, r, seed=data.draw(st.integers(0, 2**16)))
    expect = tuple(svd_count(mode_unfold(t, j), tol) for j in range(order))
    assert m_ranks(t, tol).tucker == expect


@pytest.mark.parametrize("make", [
    lambda: gen_cp((10,) * 4, 6, seed=0),
    lambda: gen_cp((12,) * 4, 30, seed=0),
    lambda: gen_kron((8,) * 4, 2, 2, seed=0),
    lambda: gen_supersym(4, 6, 3, seed=0),
], ids=["cp_low", "cp_full", "kron", "supersym_order6"])
@pytest.mark.parametrize("tol", [1e-8, RECOVERED_RANK_TOL])
def test_m_ranks_tucker_is_scale_invariant(make, tol):
    t = make()
    expect = tuple(svd_count(mode_unfold(t, j), tol) for j in range(t.ndim))
    for scale in (1e-300, 1.0, 1e300):
        assert m_ranks(scale * t, tol).tucker == expect, scale


def test_rank_report_to_dict():
    # the dataclass's fields in order, tuples as lists, the rest as they are
    rep = m_ranks(gen_cp((3, 4, 3, 4), 2, seed=1))
    d = rep.to_dict()
    assert list(d) == [f.name for f in fields(RankReport)]
    assert d == {"dims": [3, 4, 3, 4], "m_plus": 2, "m_minus": 2, "tucker": [2, 2, 2, 2],
                 "pairing_ranks": {"1,2|3,4": 2, "1,3|2,4": 2, "1,4|2,3": 2},
                 "cp_lower": 2, "cp_upper": 24, "rel_tol": rep.rel_tol}
    assert d["pairing_ranks"] is not rep.pairing_ranks  # a copy


def test_recovered_rank_tol_value():
    assert RECOVERED_RANK_TOL == 1e-4


# ------------------------------------------------------------- m_decompose


def test_m_decompose_reconstructs():
    rng = np.random.default_rng(4)
    t = gen_cp((4, 5, 3, 6), 4, seed=5)
    for pr in (None, Pairing.parse("1,4|2,3")):
        dec = m_decompose(t, pr)
        assert dec.term_count == 4
        assert np.linalg.norm(dec.reconstruct() - t) <= 1e-10 * np.linalg.norm(t)
        # factors live on the pairing's row/col dims
        a, b = dec.factors[0]
        used = Pairing.default(4) if pr is None else pr
        assert a.shape == tuple(t.shape[ax] for ax in used.row)
        assert b.shape == tuple(t.shape[ax] for ax in used.col)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reconstruct_adds_the_terms_in_order(seed):
    # bitwise equal to a reference copy of the loop reconstruct ran before
    # the rank-one sums moved into tensor._outer_sum
    def loop(dec):
        axes = dec.pairing.row + dec.pairing.col
        acc = np.zeros(tuple(dec.dims[a] for a in axes), dtype=np.complex128)
        for a, b in dec.factors:
            acc += outer(a, b)
        return np.transpose(acc, np.argsort(axes))

    t = gen_cp((4, 5, 4, 5), 3, seed=seed)
    s = gen_supersym(4, 6, 3, seed=seed)
    sym = symmetric_m_decompose(s)
    for dec in (m_decompose(t), m_decompose(t, Pairing.parse("1,3|2,4")),
                m_decompose(t, Pairing.parse("2,4|3,1")), sym, strongly_symmetrize(sym, s)):
        got, want = dec.reconstruct(), loop(dec)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_m_decompose_rejects_a_pairing_of_the_wrong_order():
    t = gen_cp((4, 5, 4, 5), 3, seed=0)
    with pytest.raises(ValueError, match="pairing order 2 != tensor order 4"):
        m_decompose(t, Pairing((0,), (1,)))
    with pytest.raises(ValueError, match="pairing order 6 != tensor order 4"):
        m_decompose(t, Pairing((0, 1, 2), (3, 4, 5)))


def test_symmetric_m_decompose():
    t = gen_supersym(5, 4, 3, seed=6)
    dec = symmetric_m_decompose(t)
    assert dec.kind == "symmetric"
    assert dec.term_count == 3
    assert np.linalg.norm(dec.reconstruct() - t) <= 1e-9 * np.linalg.norm(t)
    for a, b in dec.factors:
        assert a is b  # one matrix per term, used on both sides
        assert np.allclose(a, a.T, atol=1e-9 * max(1, np.linalg.norm(a)))
    with pytest.raises(ValueError):
        symmetric_m_decompose(gen_cp((5, 5, 5, 5), 2, seed=0))  # not symmetric


def test_strongly_symmetrize_preserves_count_and_value():
    for seed in range(4):
        t = gen_supersym(4, 4, 2, seed=seed)
        dec = symmetric_m_decompose(t)
        strong = strongly_symmetrize(dec, t)
        assert strong.kind == "strongly_symmetric"
        assert strong.term_count == dec.term_count
        for a, b in strong.factors:
            assert a is b
            assert is_super_symmetric(a, 1e-8)
        err = np.linalg.norm(strong.reconstruct() - t) / np.linalg.norm(t)
        assert err <= 1e-7


def test_strongly_symmetrize_order6():
    # factors of order 3 and 4: the orbit mean averages over S_3 and S_4,
    # which the stage-wise construction reached in two and three stages
    for t, r in ((gen_supersym(3, 6, 2, seed=1), 2), (gen_supersym(3, 8, 3, seed=2), 3)):
        strong = strongly_symmetrize(symmetric_m_decompose(t), t)
        assert strong.term_count == r
        assert all(is_super_symmetric(a, 1e-8) for a, _ in strong.factors)
        assert np.linalg.norm(strong.reconstruct() - t) <= 1e-7 * np.linalg.norm(t)


def test_strongly_symmetrize_rejects_an_asymmetric_decomposition():
    t = gen_supersym(4, 4, 2, seed=0)
    dec = m_decompose(t)
    assert dec.kind == "asymmetric"
    with pytest.raises(ValueError, match="symmetric decomposition"):
        strongly_symmetrize(dec, t)


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-14, 1e-170, 1e160, 1e-300, 1e300])
def test_symmetry_tolerances_are_relative_at_any_scale(scale):
    # the symmetry checks compare with tol * ||t||: a tolerance floored at
    # max(1, ||t||) is absolute on small data and let a scaled-down
    # non-symmetric tensor through, into a "strongly symmetric"
    # decomposition that did not reconstruct it; norms taken at the data's
    # own scale underflowed at 1e-170 and overflowed at 1e160, and let it
    # through too
    t = scale * gen_cp((5,) * 4, 3, seed=0)
    assert not is_super_symmetric(t)
    for call in (lambda: takagi(square_unfold(t)),
                 lambda: symmetric_m_decompose(t),
                 lambda: scp_bound_interval(t)):
        with pytest.raises(ValueError):
            call()
    s = scale * gen_supersym(5, 4, 3, seed=0)
    dec = symmetric_m_decompose(s)
    with pytest.raises(ValueError):  # a decomposition of another tensor
        strongly_symmetrize(dec, scale * gen_supersym(5, 4, 3, seed=1))
    # the symmetric tensor itself passes at every scale
    assert is_super_symmetric(s)
    strong = strongly_symmetrize(dec, s)
    assert strong.term_count == 3
    # divided by the scale: at 1e-170 and 1e160 the norms would underflow
    # or overflow
    assert np.linalg.norm((strong.reconstruct() - s) / scale) <= 1e-7 * np.linalg.norm(s / scale)
    assert scp_bound_interval(s)[0] == 3


def test_zero_tensor_counts_as_symmetric():
    z = np.zeros((3,) * 4, dtype=np.complex128)
    assert is_super_symmetric(z)
    assert takagi(square_unfold(z)).s.tolist() == [0.0] * 9
    dec = symmetric_m_decompose(z)
    assert dec.term_count == 0
    assert strongly_symmetrize(dec, z).term_count == 0


# ------------------------------------------------------- rank-one round trip


def test_rank_one_factorize_round_trip():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        b = crandn(rng, n)
        t = outer(outer(b, b), outer(b, b))
        bhat = rank_one_factorize(t)
        that = outer(outer(bhat, bhat), outer(bhat, bhat))
        assert np.linalg.norm(that - t) <= 1e-8 * np.linalg.norm(t)


def test_rank_one_factorize_real_vector_recovered_exactly():
    # for a real b with positive leading entry, the phase convention makes
    # bhat either b itself or a 4th root multiple reproducing t; the nearest
    # -to-zero rule picks b
    b = np.array([2.0, -1.0, 0.5])
    t = outer(outer(b, b), outer(b, b))
    bhat = rank_one_factorize(t)
    assert np.allclose(bhat, b, atol=1e-10)


def test_rank_one_factorize_order6():
    rng = np.random.default_rng(8)
    for order in (6, 8):
        b = crandn(rng, 3)
        t = power(b, order)
        bhat = rank_one_factorize(t)
        assert np.linalg.norm(power(bhat, order) - t) <= 1e-8 * np.linalg.norm(t)


def _perturbed(t, rel, seed):
    rng = np.random.default_rng(seed)
    e = crandn(rng, t.shape)
    return t + rel * np.linalg.norm(t) / np.linalg.norm(e) * e


@pytest.mark.parametrize("rel", [1e-9, 1e-10])
def test_nearly_super_symmetric_inputs_are_accepted(rel):
    # is_super_symmetric accepts these at 1e-8 relative; takagi's own
    # check of the unfolding is 1e-10, so the decomposition must not hand
    # it the unfolding as it is
    t = _perturbed(gen_supersym(5, 4, 3, seed=0), rel, 0)
    assert is_super_symmetric(t)
    strong = strongly_symmetrize(symmetric_m_decompose(t), t)
    assert strong.term_count == 3
    assert np.linalg.norm(strong.reconstruct() - t) <= 1e-7 * np.linalg.norm(t)
    b = crandn(np.random.default_rng(3), 6)
    t = _perturbed(power(b, 4), rel, 1)
    assert is_super_symmetric(t)
    bhat = rank_one_factorize(t)
    assert np.linalg.norm(power(bhat, 4) - t) <= 1e-7 * np.linalg.norm(t)


def test_rank_one_factorize_rejects():
    with pytest.raises(ValueError):
        rank_one_factorize(gen_supersym(4, 4, 2, seed=0))  # rank two
    with pytest.raises(ValueError):
        rank_one_factorize(gen_cp((4, 4, 4, 4), 1, seed=0))  # not symmetric
    with pytest.raises(ValueError):
        rank_one_factorize(np.zeros((3, 3, 3)))  # odd order


# ---------------------------------------------------------------- cp bounds


def test_cp_exact_for_kron():
    rng = np.random.default_rng(9)
    a = rank_s_matrix(rng, 5, 5, 2)
    b = rank_s_matrix(rng, 4, 6, 3)
    assert cp_exact_for_kron([a, b]) == 6
    assert numerical_rank(square_unfold(outer(a, b), Pairing.parse("1,3|2,4"))) == 6


def test_scp_bound_interval():
    t = gen_supersym(5, 4, 3, seed=10)
    lo, hi = scp_bound_interval(t)
    assert lo == 3
    assert hi == (5 + 4 * 25) * 3
    with pytest.raises(ValueError):
        scp_bound_interval(gen_cp((5, 5, 5, 5), 2, seed=0))
    with pytest.raises(ValueError):
        scp_bound_interval(np.zeros((3, 3)))
