"""Rank detection, Takagi factorization, and the two proximal operators.

svt and complex_soft_threshold are checked against closed forms on diagonal
or scalar inputs (where the prox is elementary) and against their defining
identities at the extreme thresholds. Both of svt's routes (warm subspace,
full SVD) are checked against a full-SVD reference written here, on
sequences that keep, change and fill the warm block; mode_svt, on both of
its routes (Gram eigendecomposition and the SVD fallback), against the same
reference on the mode unfolding, folded back; rank_project, which shares
the subspace sweeps, against a full-SVD truncation.
numerical_rank's certified sketch route and its full-SVD fallback are both
checked against a full-SVD count written here, and a spy on numpy's SVD
tells which route ran.
"""

import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrank.linalg import (
    DEFAULT_RANK_TOL,
    GRAM_TAU_MARGIN,
    OVERSAMPLE,
    SKETCH_COST,
    SKETCH_WIDTH,
    complex_l1,
    complex_soft_threshold,
    nuclear_norm,
    numerical_rank,
    rank_project,
    spectral_norm,
    spectrum_rank,
    SvtWarm,
    mode_svt,
    svt,
    takagi,
)
from mrank.ranks import RECOVERED_RANK_TOL
from mrank.solvers import rpca_m
from mrank.synth import gen_cp, gen_sparse_noise
from mrank.tensor import mode_fold, mode_unfold


def crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rand_symmetric(rng, n):
    a = crandn(rng, (n, n))
    return (a + a.T) / 2


# ------------------------------------------------------------------- ranks


def test_numerical_rank_constructed_spectrum():
    u = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    s = np.array([10.0, 1.0, 1e-4, 1e-9, 0.0, 0.0])
    m = (u * s) @ u.T
    assert numerical_rank(m, 1e-8) == 3  # strict: 1e-9/10 < 1e-8 < 1e-4/10
    assert numerical_rank(m, 1e-5) == 2
    assert numerical_rank(m, 1e-12) == 4
    assert numerical_rank(np.zeros((4, 7))) == 0


def svd_rank(m, rel_tol):
    """Reference count: singular values of the full SVD above
    rel_tol * sigma_max."""
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * s[0])) if s[0] > 0 else 0


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices numpy's SVD sees from here on. The sketch
    only decomposes its narrow B; the input's own shape means the fallback
    ran."""
    seen = []
    orig = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return seen


@pytest.mark.parametrize("shape", [(300, 300), (625, 900), (900, 625)])
@pytest.mark.parametrize("r", [1, 12, 40])
def test_numerical_rank_sketch_exact_low_rank(shape, r, svd_shapes):
    m = low_rank(np.random.default_rng(r), shape, r)
    ref = svd_rank(m, DEFAULT_RANK_TOL)
    svd_shapes.clear()
    assert numerical_rank(m) == ref == r
    assert m.shape not in svd_shapes  # certified by the sketch


def test_numerical_rank_sketch_low_rank_plus_noise(svd_shapes):
    rng = np.random.default_rng(2)
    m = low_rank(rng, (400, 400), 8) + 1e-7 * crandn(rng, (400, 400))
    ref = svd_rank(m, RECOVERED_RANK_TOL)
    svd_shapes.clear()
    assert numerical_rank(m, RECOVERED_RANK_TOL) == ref == 8
    assert m.shape not in svd_shapes


def test_numerical_rank_value_at_threshold_takes_full_svd(svd_shapes):
    # sigma_11 sits 1e-13 relative above the threshold: no sketch can
    # separate it from the threshold, so the full SVD decides
    rng = np.random.default_rng(3)
    u = np.linalg.qr(crandn(rng, (300, 300)))[0]
    v = np.linalg.qr(crandn(rng, (300, 300)))[0]
    s = np.zeros(300)
    s[:10] = np.linspace(10.0, 1.0, 10)
    s[10] = 10.0 * RECOVERED_RANK_TOL * (1 + 1e-13)
    m = (u * s) @ v.conj().T
    ref = svd_rank(m, RECOVERED_RANK_TOL)
    svd_shapes.clear()
    assert numerical_rank(m, RECOVERED_RANK_TOL) == ref
    assert svd_shapes[-1] == m.shape


def test_numerical_rank_full_rank_fills_block_and_falls_back(svd_shapes):
    m = crandn(np.random.default_rng(4), (200, 260))
    ref = svd_rank(m, DEFAULT_RANK_TOL)
    svd_shapes.clear()
    assert numerical_rank(m) == ref == 200
    assert svd_shapes[-1] == m.shape


def test_numerical_rank_zero_matrix_and_zero_tol(svd_shapes):
    assert numerical_rank(np.zeros((300, 200))) == 0
    assert (300, 200) not in svd_shapes  # s_0 = e = 0 certifies it
    m = low_rank(np.random.default_rng(5), (120, 120), 3)
    ref = svd_rank(m, 0.0)
    svd_shapes.clear()
    assert numerical_rank(m, 0.0) == ref  # every rounding-level value counts
    assert svd_shapes == [m.shape]


@pytest.mark.parametrize("rel_tol", [-1e-9, -1.0, np.nan, np.inf])
def test_numerical_rank_rejects_bad_tolerance(rel_tol):
    m = low_rank(np.random.default_rng(6), (60, 60), 2)
    with pytest.raises(ValueError, match="rel_tol"):
        numerical_rank(m, rel_tol)
    with pytest.raises(ValueError, match="rel_tol"):
        spectrum_rank(np.linalg.svd(m, compute_uv=False), rel_tol)


def test_numerical_rank_threaded_matches_serial():
    # the test matrix is drawn inside each call, so concurrent calls share
    # no random state
    rng = np.random.default_rng(7)
    ms = [low_rank(rng, (200, 240), r) for r in (2, 9, 30)]
    ms.append(low_rank(rng, (200, 200), 5) + 1e-7 * crandn(rng, (200, 200)))
    serial = [numerical_rank(m, RECOVERED_RANK_TOL) for m in ms]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda m: numerical_rank(m, RECOVERED_RANK_TOL), ms * 3))
    assert threaded == serial * 3
    assert serial == [svd_rank(m, RECOVERED_RANK_TOL) for m in ms]


SKETCH_GATE = int(np.ceil(SKETCH_COST * SKETCH_WIDTH))  # smallest sketched side


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(SKETCH_GATE, 160), st.integers(SKETCH_GATE, 160), st.data())
def test_numerical_rank_matches_full_svd_property(rows, cols, data):
    # any rank from 1 to full, so both the sketch and the fallback decide
    r = data.draw(st.integers(1, min(rows, cols)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = low_rank(rng, (rows, cols), r)
    assert numerical_rank(m) == svd_rank(m, DEFAULT_RANK_TOL)


def test_norms_against_numpy():
    rng = np.random.default_rng(1)
    m = crandn(rng, (5, 8))
    s = np.linalg.svd(m, compute_uv=False)
    assert np.isclose(nuclear_norm(m), s.sum())
    assert np.isclose(spectral_norm(m), s[0])
    assert np.isclose(complex_l1(m), np.abs(m).sum())


# --------------------------------------------------------------------- svt


def test_svt_diagonal_closed_form():
    m = np.diag([5.0, 3.0, 1.0, 0.5])
    out = svt(m, 1.0)
    assert np.allclose(out, np.diag([4.0, 2.0, 0.0, 0.0]), atol=1e-12)


def test_svt_threshold_extremes():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = crandn(rng, (6, 5))
        assert np.allclose(svt(m, 0.0), m, atol=1e-12)
        assert np.allclose(svt(m, spectral_norm(m) + 1e-9), 0.0)


def test_svt_unitary_invariance():
    # prox of a unitarily invariant function commutes with unitaries
    rng = np.random.default_rng(4)
    m = crandn(rng, (5, 5))
    q = np.linalg.qr(crandn(rng, (5, 5)))[0]
    assert np.allclose(q @ svt(m, 0.7), svt(q @ m, 0.7), atol=1e-10)


def test_svt_prox_optimality():
    # svt(m, tau) minimizes tau*||x||_* + 0.5*||x - m||_F^2: no random
    # perturbation may beat it
    rng = np.random.default_rng(5)
    m = crandn(rng, (5, 4))
    tau = 0.9
    x = svt(m, tau)
    obj = tau * nuclear_norm(x) + 0.5 * np.linalg.norm(x - m) ** 2
    for _ in range(50):
        y = x + 0.1 * crandn(rng, x.shape)
        obj_y = tau * nuclear_norm(y) + 0.5 * np.linalg.norm(y - m) ** 2
        assert obj <= obj_y + 1e-12


# ------------------------------------------------------------ svt routes


def svt_reference(m, tau):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > tau
    return (u[:, keep] * (s[keep] - tau)) @ vh[keep]


def assert_matches_reference(out, m, tau, rel=1e-10):
    ref = svt_reference(m, tau)
    assert np.linalg.norm(out - ref) <= rel * np.linalg.norm(ref)


def low_rank(rng, shape, r, scale=10.0):
    return scale * crandn(rng, (shape[0], r)) @ crandn(rng, (r, shape[1])) / np.sqrt(r)


def sparse(rng, shape, density, scale):
    return scale * crandn(rng, shape) * (rng.random(shape) < density)


def test_svt_subspace_tracks_drifting_low_rank_plus_sparse():
    rng = np.random.default_rng(12)
    n, r = 200, 5
    a, b = crandn(rng, (n, r)), crandn(rng, (r, n))
    da, db = crandn(rng, (n, r)), crandn(rng, (r, n))
    warm = SvtWarm()
    for step in range(8):
        drift = (a + 0.02 * step * da) @ (b + 0.02 * step * db)
        m = drift + sparse(rng, (n, n), 0.05, 0.3)
        out = svt(m, 5.0, warm)  # the sparse part's spectral norm is about 3
        assert warm.path == ("full" if step == 0 else "subspace")
        assert_matches_reference(out, m, 5.0)
        assert warm.v.shape == (n, r + 8)


def test_svt_rank_jump_fills_block_and_falls_back():
    rng = np.random.default_rng(13)
    n = 200
    warm = SvtWarm()
    m = low_rank(rng, (n, n), 2)
    svt(m, 1.0, warm)
    assert warm.v.shape == (n, 10)
    jump = m + low_rank(rng, (n, n), 30)  # 30 new directions above tau
    out = svt(jump, 1.0, warm)
    assert warm.path == "full"
    assert_matches_reference(out, jump, 1.0)
    assert warm.v.shape == (n, 40)  # reseeded: kept rank 32 + oversampling
    # a warm block of the wrong size is ignored
    small = low_rank(rng, (150, 150), 2)
    assert_matches_reference(svt(small, 1.0, warm), small, 1.0)
    assert warm.path == "full"


def test_svt_small_tau_on_tall_matrix_takes_full_svd():
    # svt has no shape-based route: a tall matrix runs the full SVD at any
    # tau, tiny or not, and matches the reference (mode unfoldings go
    # through mode_svt instead)
    rng = np.random.default_rng(16)
    m = crandn(rng, (400, 10))
    tau = 1e-9 * spectral_norm(m)
    warm = SvtWarm()
    out = svt(m, tau, warm)
    assert warm.path == "full"
    assert np.array_equal(out, svt_reference(m, tau))
    assert np.allclose(svt(m, 0.0), m, atol=1e-12)
    m = low_rank(rng, (300, 20), 5)
    tau = 0.5 * np.linalg.svd(m, compute_uv=False)[4]
    assert_matches_reference(svt(m, tau, warm), m, tau)
    assert warm.path == "full"


def test_svt_identical_sequences_are_bitwise_equal():
    def run():
        rng = np.random.default_rng(17)
        a, b, da = crandn(rng, (160, 4)), crandn(rng, (4, 160)), crandn(rng, (160, 4))
        warm = SvtWarm()
        outs = []
        for step in range(6):
            m = (a + 0.02 * step * da) @ b + sparse(rng, (160, 160), 0.05, 0.2)
            outs.append(svt(m, 4.0, warm))
        return outs, warm.path

    (first, path1), (second, path2) = run(), run()
    assert path1 == path2 == "subspace"
    assert all(np.array_equal(x, y) for x, y in zip(first, second))


def test_rpca_m_threaded_matches_serial_bitwise():
    # each solve owns its warm state, so concurrent solves cannot interact
    dims = (12, 12, 12, 12)
    datas = [gen_cp(dims, 2, seed=s) + gen_sparse_noise(dims, 0.05, seed=s + 10)
             for s in (0, 1)]
    serial = [rpca_m(f) for f in datas]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(rpca_m, datas * 2))
    for k, res in enumerate(threaded):
        ref = serial[k % 2]
        assert res.iters == ref.iters
        assert np.array_equal(res.recovered, ref.recovered)
        assert np.array_equal(res.sparse, ref.sparse)


# ---------------------------------------------------------------- mode_svt


def mode_svt_reference(t, mode, tau):
    return mode_fold(svt_reference(mode_unfold(t, mode), tau), t.shape, mode)


def test_mode_svt_on_rank_deficient_mode_unfolding(svd_shapes):
    rng = np.random.default_rng(14)
    dims = (6, 20, 5, 10)
    t = mode_fold(low_rank(rng, (300, 20), 5), dims, 1)  # mode-1 rank 5
    tau = 0.5 * np.linalg.svd(mode_unfold(t, 1), compute_uv=False)[4]
    svd_shapes.clear()
    out = mode_svt(t, 1, tau)
    assert svd_shapes == []  # the Gram route
    ref = mode_svt_reference(t, 1, tau)
    assert np.linalg.norm(out - ref) <= 1e-10 * np.linalg.norm(ref)


def test_mode_svt_threshold_above_spectral_norm_gives_zero():
    rng = np.random.default_rng(15)
    t = crandn(rng, (8, 10, 50))
    out = mode_svt(t, 1, spectral_norm(mode_unfold(t, 1)) * (1 + 1e-9))
    assert out.shape == t.shape and not out.any()


def test_mode_svt_small_tau_takes_svd_fallback(svd_shapes):
    # singular values from 1 down to 1e-10 and tau = 1e-9, below
    # GRAM_TAU_MARGIN * sqrt(eps) * s_max: the Gram matrix squares the
    # spectrum, so its eigenvalues near tau^2 are rounding noise, and V and s
    # come from the SVD of the unfolding instead
    rng = np.random.default_rng(16)
    u = np.linalg.qr(crandn(rng, (400, 10)))[0]
    v = np.linalg.qr(crandn(rng, (10, 10)))[0]
    t = mode_fold((u * np.logspace(0, -10, 10)) @ v.conj().T, (8, 10, 50), 1)
    svd_shapes.clear()
    out = mode_svt(t, 1, 1e-9)
    assert svd_shapes == [(400, 10)]
    ref = mode_svt_reference(t, 1, 1e-9)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.allclose(mode_svt(t, 1, 0.0), t, atol=1e-12)


# log10 of the Gram margin: tau / s_max from 1e-12 to 1.2 is drawn on both
# sides of it
MARGIN_EXP = np.log10(GRAM_TAU_MARGIN * np.sqrt(np.finfo(float).eps))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 4, 6]), st.data())
def test_mode_svt_matches_full_svd_property(order, data):
    side = {2: 12, 4: 6, 6: 3}[order]
    dims = tuple(data.draw(st.lists(st.integers(1, side), min_size=order,
                                    max_size=order)))
    mode = data.draw(st.integers(0, order - 1))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = dims[mode]
    rows = int(np.prod(dims)) // n
    r = data.draw(st.integers(1, min(rows, n)))  # the mode-`mode` rank
    below = data.draw(st.booleans())
    tau = 10.0 ** data.draw(st.floats(-12, MARGIN_EXP - 0.5) if below
                            else st.floats(MARGIN_EXP + 0.5, np.log10(1.2)))
    # s_max = 1, the rest graded over up to 12 decades, and one value just
    # above tau, where the rounding of the Gram matrix would show
    s = np.logspace(0, -data.draw(st.floats(0, 12)), r)
    if r > 1:
        s[data.draw(st.integers(1, r - 1))] = tau * data.draw(st.floats(1.01, 2.0))
    u = np.linalg.qr(crandn(rng, (rows, r)))[0]
    v = np.linalg.qr(crandn(rng, (n, r)))[0]
    t = mode_fold((u * s) @ v.conj().T, dims, mode)
    out = mode_svt(t, mode, tau)
    ref = mode_svt_reference(t, mode, tau)
    assert np.linalg.norm(out - ref) <= 1e-11 * np.linalg.norm(t)


# ------------------------------------------------------------ rank_project


def truncation_reference(m, r):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vh[:r]


def assert_matches_truncation(result, m, r, rel=1e-12):
    out, u = result
    ref = truncation_reference(m, r)
    assert np.linalg.norm(out - ref) <= rel * np.linalg.norm(ref)
    # u is an orthonormal basis of the projection's column space
    assert u.shape == (m.shape[0], min(r, *m.shape))
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1])) <= 1e-12
    assert np.linalg.norm(u @ (u.conj().T @ out) - out) <= rel * np.linalg.norm(ref)


def drifting_rank_6(seed, steps, n=100):
    # rank 6 drifting a little per step under a dense perturbation, the
    # shape of the rank-projection refinement's iterates
    rng = np.random.default_rng(seed)
    a, b = crandn(rng, (n, 6)), crandn(rng, (6, n))
    da, db = crandn(rng, (n, 6)), crandn(rng, (6, n))
    return [(a + 0.02 * k * da) @ (b + 0.02 * k * db) + 0.05 * crandn(rng, (n, n))
            for k in range(steps)]


def test_rank_project_tracks_drifting_rank_6():
    warm = SvtWarm()
    for step, m in enumerate(drifting_rank_6(18, 10)):
        out = rank_project(m, 6, warm)
        assert warm.path == ("full" if step == 0 else "subspace")
        assert warm.v.shape == (100, 6 + OVERSAMPLE)
        assert_matches_truncation(out, m, 6)


def test_rank_project_stale_or_wrong_width_block_falls_back():
    rng = np.random.default_rng(19)
    m = crandn(rng, (100, 100))  # no spectral gap: sweeps cannot converge
    stale = SvtWarm(v=np.linalg.qr(crandn(rng, (100, 6 + OVERSAMPLE)))[0])
    assert_matches_truncation(rank_project(m, 6, stale), m, 6)
    assert stale.path == "full"
    assert stale.v.shape == (100, 6 + OVERSAMPLE)  # reseeded from the SVD
    # a block seeded for another rank, or by svt, is not reused
    warm = SvtWarm()
    seq = drifting_rank_6(20, 2)
    rank_project(seq[0], 4, warm)
    assert_matches_truncation(rank_project(seq[1], 6, warm), seq[1], 6)
    assert warm.path == "full"
    svt(seq[0], 0.9 * spectral_norm(seq[0]), warm)  # keeps fewer than 6
    assert warm.v.shape[1] != 6 + OVERSAMPLE
    assert_matches_truncation(rank_project(seq[1], 6, warm), seq[1], 6)
    assert warm.path == "full"


def test_rank_project_full_rank_returns_the_matrix():
    rng = np.random.default_rng(21)
    m = crandn(rng, (30, 20))
    warm = SvtWarm()
    for _ in range(2):
        out, u = rank_project(m, 20, warm)
        assert_matches_truncation((out, u), m, 20)
        assert np.linalg.norm(out - m) <= 1e-12 * np.linalg.norm(m)
        assert warm.path == "full"  # a block cannot be wider than the matrix


def test_rank_project_identical_sequences_are_bitwise_equal():
    def run():
        warm = SvtWarm()
        return [rank_project(m, 6, warm) for m in drifting_rank_6(22, 6)], warm.path

    (first, path1), (second, path2) = run(), run()
    assert path1 == path2 == "subspace"
    assert all(np.array_equal(x, y) and np.array_equal(u, v)
               for (x, u), (y, v) in zip(first, second))


# ------------------------------------------------------------ soft threshold


def test_complex_soft_threshold_scalar_oracle():
    z = np.array([[3.0 + 4.0j]])  # modulus 5
    out = complex_soft_threshold(z, 2.0)
    # shrink modulus to 3, keep phase
    assert np.allclose(out, z * 3.0 / 5.0, atol=1e-14)
    assert complex_soft_threshold(z, 5.0)[0, 0] == 0.0
    assert complex_soft_threshold(z, 7.0)[0, 0] == 0.0


def test_complex_soft_threshold_properties():
    rng = np.random.default_rng(6)
    z = crandn(rng, (7, 7))
    tau = 0.8
    out = complex_soft_threshold(z, tau)
    mod = np.abs(z)
    # phases preserved where nonzero, moduli shrunk by exactly tau
    nz = mod > tau
    assert np.allclose(np.abs(out[nz]), mod[nz] - tau, atol=1e-12)
    assert np.allclose(out[~nz], 0.0)
    assert np.allclose(np.angle(out[nz]), np.angle(z[nz]), atol=1e-12)
    assert np.array_equal(complex_soft_threshold(z, 0.0), z)


def test_complex_soft_threshold_is_the_textbook_formula():
    # bitwise: the in-place factor runs the formula's operations in order;
    # zeros, a modulus equal to tau and a subnormal entry included
    rng = np.random.default_rng(8)
    z = crandn(rng, (40, 30))
    z[0, :3] = [0.0, 0.5, 1e-310]
    z[1, 0] = 0.3 + 0.4j
    z_in = z.copy()
    tiny = np.finfo(float).tiny
    # tau above about 4 overflows tau / tiny on the zero entries: the
    # factor clips to 0 all the same, and no warning is emitted
    for tau in (0.0, 0.5, 1.3, 3.0, 10.0):
        with np.errstate(over="ignore"):
            ref = z * np.maximum(1.0 - tau / np.maximum(np.abs(z), tiny), 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(complex_soft_threshold(z, tau), ref)
        assert np.array_equal(z, z_in)  # the input is not modified
    assert np.array_equal(complex_soft_threshold(z.T, 0.5),
                          complex_soft_threshold(z, 0.5).T)


def test_complex_soft_threshold_prox_optimality():
    rng = np.random.default_rng(7)
    z = crandn(rng, (4, 4))
    tau = 0.6
    x = complex_soft_threshold(z, tau)
    obj = tau * complex_l1(x) + 0.5 * np.linalg.norm(x - z) ** 2
    for _ in range(50):
        y = x + 0.1 * crandn(rng, x.shape)
        obj_y = tau * complex_l1(y) + 0.5 * np.linalg.norm(y - z) ** 2
        assert obj <= obj_y + 1e-12


# ------------------------------------------------------------------- takagi


def test_takagi_reconstruction_random():
    rng = np.random.default_rng(8)
    for trial in range(100):
        n = int(rng.integers(1, 9))
        m = rand_symmetric(rng, n)
        res = takagi(m)
        assert np.linalg.norm(res.reconstruct() - m) <= 1e-9 * max(
            1.0, np.linalg.norm(m)
        )
        # W unitary, s nonincreasing and real
        assert np.allclose(res.w.conj().T @ res.w, np.eye(n), atol=1e-10)
        assert np.all(np.diff(res.s) <= 1e-12)
        assert np.all(res.s >= -1e-15)


def test_takagi_degenerate_spectrum():
    # repeated singular values force the block square-root path
    rng = np.random.default_rng(9)
    q = np.linalg.qr(crandn(rng, (5, 5)))[0]
    m = q @ np.diag([2.0, 2.0, 2.0, 1.0, 1.0]) @ q.T
    res = takagi(m)
    assert np.linalg.norm(res.reconstruct() - m) <= 1e-10 * np.linalg.norm(m)
    assert np.allclose(res.s, [2, 2, 2, 1, 1], atol=1e-10)


def test_takagi_rank_one_gives_symmetric_dyad():
    rng = np.random.default_rng(10)
    v = crandn(rng, 6)
    m = np.outer(v, v)
    res = takagi(m)
    assert res.s[0] > 0 and np.all(res.s[1:] <= 1e-10 * res.s[0])
    w = np.sqrt(res.s[0]) * res.w[:, 0]
    assert np.linalg.norm(np.outer(w, w) - m) <= 1e-10 * np.linalg.norm(m)


def test_takagi_input_validation():
    with pytest.raises(ValueError):
        takagi(np.zeros((3, 4)))
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        takagi(crandn(rng, (4, 4)))  # not symmetric


def test_default_rank_tol_value():
    assert DEFAULT_RANK_TOL == 1e-8
