"""Rank detection, Takagi factorization, and the two proximal operators.

svt and complex_soft_threshold are checked against closed forms on diagonal
or scalar inputs (where the prox is elementary) and against their defining
identities at the extreme thresholds. Both of svt's routes (warm subspace,
full SVD) are checked against a full-SVD reference written here, on
sequences that keep, change and fill the warm block; rank_project, which
shares the subspace sweeps, against a full-SVD truncation. The mode
routines read one view of the mode unfolding, a row permutation of
tensor.mode_unfold, and one matrix Gram kernel, so each is checked against
mode_unfold itself, on tall and wide modes, in C order, Fortran order and
neither: mode_spectrum's values and vectors against its SVD, mode_rank
against a full-SVD count, and mode_svt on both of its routes (Gram
eigendecomposition and the SVD fallback) against the svt reference, folded
back, at scales from 1e-300 to 1e300 and into a caller's buffer.
numerical_rank's certified sketch route (from any start width, forming B
only where the sketch is not full) and mode_rank's certified Gram route,
and the full-SVD fallback of each, are checked against a full-SVD count
written here, and a spy on numpy's SVD tells which route ran. Every routine
that reaches LAPACK must reject NaN and Inf first; the calls that once spun
in LAPACK on an Inf are checked in a fresh interpreter under a timeout.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrank
from mrank import linalg, ranks
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
    mode_rank,
    mode_spectrum,
    mode_svt,
    svt,
    takagi,
)
from mrank.ranks import (RECOVERED_RANK_TOL, m_ranks, rank_one_factorize,
                         scp_bound_interval, strongly_symmetrize, symmetric_m_decompose)
from mrank.solvers import rpca_m
from mrank.synth import gen_cp, gen_kron, gen_sparse_noise, gen_supersym
from mrank.tensor import _unit_exponent, is_super_symmetric, mode_fold, mode_unfold, square_unfold


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
    assert svd_shapes == [m.shape]  # every sketch is full: no B is formed


def test_numerical_rank_zero_matrix_and_zero_tol(svd_shapes):
    assert numerical_rank(np.zeros((300, 200))) == 0
    assert (300, 200) not in svd_shapes  # s_0 = e = 0 certifies it
    m = low_rank(np.random.default_rng(5), (120, 120), 3)
    ref = svd_rank(m, 0.0)
    svd_shapes.clear()
    assert numerical_rank(m, 0.0) == ref  # every rounding-level value counts
    assert svd_shapes == [m.shape]


def test_numerical_rank_near_full_rank_forms_no_b(svd_shapes):
    # 391 of 400 singular values above RECOVERED_RANK_TOL, like the pairing
    # ranks (390 to 392) of rpca_n's 20^4 result: every attempt's sketch is
    # full, so no B is formed before the fallback SVD
    rng = np.random.default_rng(31)
    u = np.linalg.qr(crandn(rng, (400, 400)))[0]
    v = np.linalg.qr(crandn(rng, (400, 400)))[0]
    s = np.concatenate([np.geomspace(1.0, 1e-3, 391), np.full(9, 1e-6)])
    m = (u * s) @ v.conj().T
    ref = svd_rank(m, RECOVERED_RANK_TOL)
    svd_shapes.clear()
    assert numerical_rank(m, RECOVERED_RANK_TOL) == ref == 391
    assert svd_shapes == [m.shape]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**16), st.sampled_from([1e-8, RECOVERED_RANK_TOL, 1e-2]),
       st.floats(0.0, 2.0), st.booleans())
def test_sketch_rank_slack_holds_within_the_slack(seed, tol, frac, aligned):
    # a count certified with a slack is the full-SVD count of every matrix
    # within that spectral distance: a random E, or one moving a single
    # singular value by the whole slack (the worst case of Weyl's
    # inequality), with values spread down to a tenth of the threshold
    rng = np.random.default_rng(seed)
    n, r = 120, int(rng.integers(1, 24))
    u = np.linalg.qr(crandn(rng, (n, n)))[0]
    v = np.linalg.qr(crandn(rng, (n, n)))[0]
    s = np.zeros(n)
    s[:r] = np.sort(10.0 ** rng.uniform(np.log10(tol) - 1, 0, r))[::-1]
    s[0] = 1.0
    m = (u * s) @ v.conj().T
    slack = frac * tol
    if aligned:
        i = int(rng.integers(0, n))
        e = rng.choice([-1.0, 1.0]) * slack * np.outer(u[:, i], v[:, i].conj())
    else:
        g = crandn(rng, (n, n))
        e = g * (slack * rng.uniform() / np.linalg.norm(g, 2))
    k = linalg._sketch_rank(m, tol, SKETCH_WIDTH, slack=slack)
    if k is not None:
        assert k == svd_rank(m + e, tol)


@pytest.mark.parametrize("tol", [1e-8, RECOVERED_RANK_TOL])
def test_sketch_rank_certifies_with_a_small_slack(tol):
    # well-separated values and a slack a tenth of the threshold: the count
    # is certified, and holds for a perturbation of that size
    rng = np.random.default_rng(8)
    u = np.linalg.qr(crandn(rng, (150, 150)))[0]
    v = np.linalg.qr(crandn(rng, (150, 150)))[0]
    s = np.zeros(150)
    s[:5] = [1.0, 0.5, 0.3, 0.2, 0.1]
    m = (u * s) @ v.conj().T
    e = 0.1 * tol * np.outer(u[:, 7], v[:, 7].conj())
    assert linalg._sketch_rank(m, tol, SKETCH_WIDTH, slack=0.1 * tol) == 5
    assert svd_rank(m + e, tol) == 5
    # a slack as large as the threshold leaves nothing to certify
    assert linalg._sketch_rank(m, tol, SKETCH_WIDTH, slack=tol) is None


def _width_case(case, rng, shape):
    """(matrix, rel_tol) for the start-width test."""
    if case == "low_rank":
        return low_rank(rng, shape, 12), DEFAULT_RANK_TOL
    if case == "noisy":
        return low_rank(rng, shape, 12) + 1e-7 * crandn(rng, shape), RECOVERED_RANK_TOL
    if case == "near_full":
        u = np.linalg.qr(crandn(rng, (shape[0], shape[1])))[0]
        v = np.linalg.qr(crandn(rng, (shape[1], shape[1])))[0]
        s = np.concatenate([np.linspace(10.0, 1.0, shape[1] - 10), np.full(10, 1e-9)])
        return (u * s) @ v.conj().T, DEFAULT_RANK_TOL
    return np.zeros(shape), DEFAULT_RANK_TOL


@pytest.mark.parametrize("case", ["low_rank", "noisy", "near_full", "zero"])
def test_numerical_rank_start_width_never_changes_the_count(case, svd_shapes):
    # widths below the rank, just above it, at the budget and past it:
    # the count is the full SVD's at every one
    shape = (300, 260)
    m, tol = _width_case(case, np.random.default_rng(30), shape)
    ref = svd_rank(m, tol)
    assert ref == {"low_rank": 12, "noisy": 12, "near_full": 250, "zero": 0}[case]
    widest = int(min(shape) / SKETCH_COST)  # the widest first attempt
    for width in (1, 5, ref + OVERSAMPLE, widest, widest + 1, 1000):
        svd_shapes.clear()
        assert numerical_rank(m, tol, width=width) == ref, width
        if width > widest:  # straight to the full SVD
            assert svd_shapes == [shape], width
        elif width == ref + OVERSAMPLE and case != "near_full":
            assert svd_shapes == [(width, shape[1])], width  # one attempt
    with pytest.raises(ValueError, match="width"):
        numerical_rank(m, tol, width=0)


@pytest.mark.parametrize("bad", [2.5, True, np.float64(3.0)])
def test_counts_are_integers_refused_before_any_work(monkeypatch, svd_shapes, bad):
    # numerical_rank's width and rank_project's r take one rule: a float
    # width raised numpy's TypeError inside the sketch of a 100 x 100
    # matrix and passed below the sketch budget, and rank_project took
    # True as r = 1
    for name in ("_sketch_rank", "_leading"):
        monkeypatch.setattr(linalg, name, lambda *a, **k: pytest.fail("the work started"))
    m = low_rank(np.random.default_rng(31), (100, 100), 3)
    for small in (m, m[:5, :5]):
        with pytest.raises(ValueError, match=re.escape(f"width must be an integer >= 1, got {bad}")):
            numerical_rank(small, width=bad)
        with pytest.raises(ValueError, match=re.escape(f"r must be an integer >= 0, got {bad}")):
            rank_project(small, bad)
    assert svd_shapes == []
    monkeypatch.undo()
    # a numpy integer is a count
    assert numerical_rank(m, width=np.int64(5)) == 3
    assert rank_project(m, np.int64(3))[1].shape == (100, 3)


@pytest.mark.parametrize("dims, r, count", [((20,) * 4, 30, 3), ((8,) * 6, 20, 10)])
def test_m_ranks_forms_one_b_per_pairing(dims, r, count, svd_shapes):
    # the first pairing's 16-wide sketch is full and forms no B, so only
    # its 32-wide one does; every later pairing's sketch starts at the
    # previous rank + OVERSAMPLE and certifies at once (two B per pairing
    # when each pairing started at SKETCH_WIDTH)
    t = gen_cp(dims, r, seed=0)
    cols = int(np.sqrt(t.size))
    svd_shapes.clear()
    rep = m_ranks(t)
    assert set(rep.pairing_ranks.values()) == {r} and len(rep.pairing_ranks) == count
    bs = [shape for shape in svd_shapes if shape[1] == cols]
    assert bs == [(2 * SKETCH_WIDTH, cols)] + [(r + OVERSAMPLE, cols)] * (count - 1)


# takagi, symmetric_m_decompose, m_decompose, svt and rank_project spun in
# LAPACK for good on an Inf before the data gate, so they run in a fresh
# interpreter under a timeout: a missing gate fails the suite instead of
# stalling it. There any SVD raises AssertionError, so each call must
# raise its ValueError before one runs.
LAPACK_SPIN_CALLS = """
import sys
import numpy as np
from mrank import m_decompose, square_unfold, svt, symmetric_m_decompose, takagi
from mrank.linalg import rank_project
from mrank.synth import gen_supersym

def no_svd(*args, **kwargs):
    raise AssertionError("an SVD ran")

np.linalg.svd = no_svd
t = gen_supersym(4, 4, 2, seed=0)
t[0, 0, 0, 0] = complex(sys.argv[1])
m = square_unfold(t)
for call in (lambda: takagi(m), lambda: symmetric_m_decompose(t), lambda: m_decompose(t),
             lambda: svt(m, 0.1), lambda: rank_project(m, 2)):
    try:
        call()
    except ValueError as exc:
        print(exc)
"""


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_rank_routines_reject_non_finite_input(bad, svd_shapes, capfd):
    # ValueError naming the count before any LAPACK call, which would fail
    # with "SVD did not converge", spin for good, print "illegal value"
    # from DLASCL to stderr first, or return NaN (is_super_symmetric
    # returned True)
    m = low_rank(np.random.default_rng(32), (100, 100), 3)
    warm = SvtWarm()
    svt(m, 1.0, warm)
    assert warm.path == "full" and linalg._subspace_pays(*m.shape, warm.v.shape[1])
    m[4, 7] = bad
    t = crandn(np.random.default_rng(33), (4, 5, 6, 7))
    t[1, 2, 3, 4] = bad
    s = gen_supersym(4, 4, 2, seed=0)
    dec = symmetric_m_decompose(s)
    s[0, 1, 2, 3] = bad
    svd_shapes.clear()
    calls = [
        lambda: numerical_rank(m),
        lambda: spectral_norm(m),
        lambda: nuclear_norm(m),
        lambda: svt(m, 1.0, warm),  # the warm subspace route
        lambda: mode_rank(t, 1),
        lambda: mode_rank(np.asfortranarray(t), 2),
        lambda: mode_spectrum(t, 2),
        lambda: mode_spectrum(np.asfortranarray(t), 0),
        lambda: mode_svt(t, 1, 0.1),
        lambda: mode_svt(np.asfortranarray(t), 3, 0.1),
        lambda: is_super_symmetric(s),
        lambda: strongly_symmetrize(dec, s),
        lambda: rank_one_factorize(s),
        lambda: scp_bound_interval(s),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="1 non-finite"):
            call()
    with pytest.raises(ValueError, match="256 non-finite"):
        m_ranks(np.full((4,) * 4, bad))
    assert svd_shapes == []
    assert capfd.readouterr().err == ""
    run = subprocess.run(
        [sys.executable, "-c", LAPACK_SPIN_CALLS, repr(complex(bad))],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(mrank.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])))
    assert run.returncode == 0 and run.stderr == ""
    names = ["takagi", "is_super_symmetric", "m_decompose", "matrix", "matrix"]
    assert run.stdout.splitlines() == [
        f"{name}: 1 non-finite entries (NaN or Inf)" for name in names]


def test_numerical_rank_sketch_overflow_takes_full_svd(svd_shapes):
    # entries near 1e307 are finite, but M @ Omega overflows: the sketch
    # gives up and the full SVD counts (it raised "SVD did not converge"
    # when the overflowed sketch went on to B)
    m = low_rank(np.random.default_rng(34), (100, 100), 3)
    m *= 1e307 / np.abs(m).max()
    ref = svd_rank(m, DEFAULT_RANK_TOL)
    svd_shapes.clear()
    assert numerical_rank(m) == ref == 3
    assert svd_shapes == [m.shape]


def test_numerical_rank_at_the_top_of_the_range(svd_shapes):
    # entries of modulus 1e308 put sigma_max above the largest double: the
    # fallback SVD's values overflow to inf and counted none, so the count
    # comes from the SVD of m times 2^-e
    m = low_rank(np.random.default_rng(34), (100, 100), 3)
    m *= 1e308 / np.abs(m).max()
    svd_shapes.clear()
    assert numerical_rank(m) == 3
    assert svd_shapes == [m.shape, m.shape]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("top", [1e308 + 1e308j, 1.5e308 + 1.5e308j])
def test_unit_exponent_of_a_finite_entry_past_the_range(top):
    # both entries are finite: 1e308(1 + i) has a modulus of 1.4e308, whose
    # exponent 1024 is clipped, and 1.5e308(1 + i) one that overflows to
    # inf, where the gate counts no non-finite entry. Either way the top
    # exponent is given, and the rank comes from the SVD of m times 2^-1023
    m = np.array([[top, 0], [0, 1]])
    assert _unit_exponent(m, "m") == 1023
    assert numerical_rank(m) == 1


def test_m_ranks_checks_finiteness_once(monkeypatch):
    # one pass over the tensor: the pairings' sketches see a NaN or Inf in
    # M @ Omega, and the mode ranks run on the checked tensor (the modes'
    # Gram matrices certify at 1e-4, so no fallback SVD checks its input)
    calls = []

    def spy(a, name):
        calls.append(name)
        orig(a, name)

    orig = linalg._require_finite
    monkeypatch.setattr(linalg, "_require_finite", spy)
    monkeypatch.setattr(ranks, "_require_finite", spy)
    assert m_ranks(gen_cp((12,) * 4, 5, seed=0), RECOVERED_RANK_TOL).m_plus == 5
    assert calls == ["m_ranks"]


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-170, 1e-300])
def test_numerical_rank_graded_spectrum_at_any_scale(scale):
    # ten unit singular values and 290 graded from 3e-8 to 3e-11, 46 of
    # them above the 1e-8 threshold: at 1e-170 and below, the unscaled
    # squares of the sketch residual underflow to a zero residual, which
    # would certify an undercount (49)
    rng = np.random.default_rng(23)
    u = np.linalg.qr(crandn(rng, (300, 300)))[0]
    v = np.linalg.qr(crandn(rng, (300, 300)))[0]
    s = np.concatenate([np.ones(10), np.geomspace(3e-8, 3e-11, 290)])
    m = (u * s) @ v.conj().T
    assert svd_rank(m, DEFAULT_RANK_TOL) == 56
    assert numerical_rank(scale * m, DEFAULT_RANK_TOL) == 56


@pytest.mark.parametrize("name, call", [
    ("numerical_rank", numerical_rank),
    ("nuclear_norm", nuclear_norm),
    ("spectral_norm", spectral_norm),
    ("svt", lambda m: svt(m, 1.0)),
])
@pytest.mark.parametrize("shape", [(2, 2, 2), (4,), (0,), ()])
def test_matrix_kernels_take_only_matrices(name, call, shape):
    # a stack of matrices used to give nuclear_norm the sum over its slices
    # and the others an unrelated TypeError or ValueError
    with pytest.raises(ValueError, match=re.escape(f"{name} needs a 2-D matrix, got shape {shape}")):
        call(np.arange(math.prod(shape), dtype=float).reshape(shape))


def test_size_zero_inputs():
    for shape in [(0, 5), (5, 0), (0, 0)]:
        assert numerical_rank(np.zeros(shape)) == 0
        assert spectral_norm(np.zeros(shape)) == 0.0
    res = takagi(np.zeros((0, 0)))
    assert res.w.shape == (0, 0) and res.s.shape == (0,)
    assert res.reconstruct().shape == (0, 0)
    for shape in [(0, 3, 2), (3, 0, 2)]:
        for mode in range(3):
            out = mode_svt(np.zeros(shape), mode, 1.0)
            assert out.shape == shape and out.dtype == np.complex128


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


# mode_rank's certified route decides from the eigenvalues of the mode's
# Gram matrix; its fallback is numerical_rank's full SVD of the unfolding
# (every mode here is narrower than the sketch gate), which the spy sees.


@pytest.mark.parametrize("dims", [(12, 12, 12, 12), (5, 30, 6, 7), (9, 8, 7, 6, 5, 4)])
def test_mode_rank_certifies_full_rank_tall_unfoldings(dims, svd_shapes):
    t = crandn(np.random.default_rng(sum(dims)), dims)
    refs = [svd_rank(mode_unfold(t, j), DEFAULT_RANK_TOL) for j in range(t.ndim)]
    svd_shapes.clear()
    # C order, Fortran order (as read_tensor returns it) and neither
    for x in (t, np.asfortranarray(t), np.swapaxes(t, 0, 1)):
        assert [mode_rank(x, j) for j in range(x.ndim)] == list(x.shape)
    assert refs == list(dims)
    assert svd_shapes == []  # certified from the Gram matrix


def test_mode_rank_certifies_low_rank_plus_noise(svd_shapes):
    rng = np.random.default_rng(20)
    dims = (10, 24, 10, 10)
    t = mode_fold(low_rank(rng, (1000, 24), 8) + 1e-7 * crandn(rng, (1000, 24)), dims, 1)
    ref = svd_rank(mode_unfold(t, 1), RECOVERED_RANK_TOL)
    svd_shapes.clear()
    assert mode_rank(t, 1, RECOVERED_RANK_TOL) == ref == 8
    assert svd_shapes == []


def test_mode_rank_value_at_threshold_takes_full_svd(svd_shapes):
    # sigma_11 sits 1e-10 relative above the threshold, far inside the
    # Gram's margin: the full SVD of the unfolding decides
    rng = np.random.default_rng(21)
    dims = (10, 24, 10, 10)
    u = np.linalg.qr(crandn(rng, (1000, 24)))[0]
    v = np.linalg.qr(crandn(rng, (24, 24)))[0]
    s = np.zeros(24)
    s[:10] = np.linspace(10.0, 1.0, 10)
    s[10] = 10.0 * RECOVERED_RANK_TOL * (1 + 1e-10)
    t = mode_fold((u * s) @ v.conj().T, dims, 1)
    ref = svd_rank(mode_unfold(t, 1), RECOVERED_RANK_TOL)
    svd_shapes.clear()
    assert mode_rank(t, 1, RECOVERED_RANK_TOL) == ref
    assert svd_shapes == [(1000, 24)]


def test_mode_rank_rank_deficient_at_default_tol_takes_full_svd(svd_shapes):
    # Tucker rank 9 of 16: the zero singular values lie within the Gram's
    # rounding of a 1e-8 threshold, so no eigenvalue certifies them
    t = gen_kron((16,) * 4, 3, 3, seed=0)
    refs = [svd_rank(mode_unfold(t, j), DEFAULT_RANK_TOL) for j in range(4)]
    for j in range(4):
        svd_shapes.clear()
        assert mode_rank(t, j) == refs[j] == 9
        assert svd_shapes == [(4096, 16)]


@pytest.mark.parametrize("rel_tol", [DEFAULT_RANK_TOL, 1e-4, 0.0])
def test_mode_rank_on_a_wide_mode(rel_tol):
    # mode 0 of (50, 2, 2, 2) unfolds to 8 x 50, fewer rows than columns:
    # full row rank, and rank 3, in C order, Fortran order and neither
    rng = np.random.default_rng(26)
    dims = (50, 2, 2, 2)
    for t in (crandn(rng, dims), mode_fold(low_rank(rng, (8, 50), 3), dims, 0)):
        for x in (t, np.asfortranarray(t), np.swapaxes(t, 0, 1)):
            for j in range(4):
                assert mode_rank(x, j, rel_tol) == svd_rank(mode_unfold(x, j), rel_tol)


def test_mode_rank_zero_tensor_zero_tol_and_errors(svd_shapes):
    assert [mode_rank(np.zeros((4, 5, 6, 7)), j) for j in range(4)] == [0] * 4
    t = crandn(np.random.default_rng(22), (6, 7, 8))
    svd_shapes.clear()
    assert mode_rank(t, 2, 0.0) == 8
    assert svd_shapes == [(42, 8)]  # rel_tol = 0 always takes the SVD
    with pytest.raises(ValueError, match="rel_tol"):
        mode_rank(t, 0, -1.0)
    with pytest.raises(ValueError, match="mode"):
        mode_rank(t, 3)


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


# ----------------------------------------------------------- mode_spectrum


def assert_matches_svd(t, mode):
    """mode_spectrum against the SVD of the unfolding: the same values, to
    1e-12 of s_max above 1e-2 * s_max and to the Gram matrix's
    sqrt(eps) * s_max noise below, and vectors that agree up to a unit
    phase where the values are separated."""
    s, vh = mode_spectrum(t, mode)
    _, s_ref, vh_ref = np.linalg.svd(mode_unfold(t, mode), full_matrices=False)
    assert s.shape == s_ref.shape and vh.shape == vh_ref.shape
    assert np.all(np.diff(s) <= 0)
    err = np.abs(s - s_ref)
    assert np.all(err[s_ref >= 1e-2 * s_ref[0]] <= 1e-12 * s_ref[0])
    assert np.all(err <= 1e-7 * s_ref[0])
    assert np.allclose(vh @ vh.conj().T, np.eye(s.size), atol=1e-12)
    for i in range(s.size):
        if s_ref[i] > 1e-6 * s_ref[0] and all(
                abs(s_ref[i] - s_ref[j]) > 1e-6 * s_ref[0] for j in range(s.size) if j != i):
            assert abs(abs(np.vdot(vh_ref[i], vh[i])) - 1.0) <= 1e-9


@pytest.mark.parametrize("dims", [(6, 7, 5, 8), (2, 30, 2), (7, 1), (1, 7), (3, 4, 5, 2, 3, 2),
                                  (50, 2, 2, 2)])
def test_mode_spectrum_matches_svd(dims):
    # wide and tall unfoldings, C and Fortran order and neither
    t = crandn(np.random.default_rng(sum(dims)), dims)
    for x in (t, np.asfortranarray(t), np.swapaxes(t, 0, 1)):
        for mode in range(x.ndim):
            assert_matches_svd(x, mode)


def test_mode_spectrum_of_low_rank_mode_unfolding():
    rng = np.random.default_rng(24)
    t = mode_fold(low_rank(rng, (300, 20), 5), (6, 20, 5, 10), 1)
    s, vh = mode_spectrum(t, 1)
    assert_matches_svd(t, 1)
    # the rank-5 row space: vh's first five rows reproduce the unfolding
    m = mode_unfold(t, 1)
    assert np.linalg.norm(m - (m @ vh[:5].conj().T) @ vh[:5]) <= 1e-12 * np.linalg.norm(m)
    assert np.all(s[5:] <= 1e-6 * s[0])


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
def test_mode_spectrum_is_scale_invariant(scale):
    t = crandn(np.random.default_rng(25), (6, 7, 5, 8))
    for mode in range(4):
        s, vh = mode_spectrum(scale * t, mode)
        s1, vh1 = mode_spectrum(t, mode)
        assert np.abs(s / scale - s1).max() <= 1e-13 * s1[0]
        assert np.allclose(np.abs(np.sum(vh.conj() * vh1, axis=1)), 1.0, atol=1e-9)


def test_mode_spectrum_zero_and_size_zero_and_errors():
    s, vh = mode_spectrum(np.zeros((4, 5, 6)), 1)
    assert s.shape == (5,) and not s.any() and vh.shape == (5, 5)
    for shape, mode, want in [((0, 3), 1, (0, 3)), ((3, 0, 2), 0, (0, 3)),
                              ((3, 0, 2), 1, (0, 0))]:
        s, vh = mode_spectrum(np.zeros(shape), mode)
        assert s.shape == (0,) and vh.shape == want
    with pytest.raises(ValueError, match="mode"):
        mode_spectrum(np.zeros((2, 3)), 2)
    with pytest.raises(ValueError, match="mode"):
        mode_spectrum(np.zeros((2, 3)), -1)


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
    ref = mode_svt_reference(t, 1, 1e-9)
    # mode 1 is a middle mode, in C and in Fortran order
    for x in (t, np.asfortranarray(t)):
        svd_shapes.clear()
        out = mode_svt(x, 1, 1e-9)
        assert svd_shapes == [(400, 10)]
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
        assert np.allclose(mode_svt(x, 1, 0.0), t, atol=1e-12)


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e160, 1e300])
def test_mode_svt_is_scale_invariant(scale):
    # the Gram matrix squares t: at 1e160 its products overflow and at
    # 1e-170 they underflow, so it is re-formed from t scaled by a power of
    # two, and every scale matches the SVD reference
    rng = np.random.default_rng(17)
    t0 = crandn(rng, (6, 7, 5, 8))
    t = scale * t0
    for mode in range(4):
        tau = 0.3 * scale * spectral_norm(mode_unfold(t0, mode))
        ref = mode_svt_reference(t, mode, tau)
        assert ref.any()
        out = mode_svt(t, mode, tau)
        assert np.linalg.norm((out - ref) / scale) <= 1e-13 * np.linalg.norm(ref / scale)


def test_mode_svt_writes_into_out():
    rng = np.random.default_rng(18)
    t = crandn(rng, (5, 6, 7))
    keep = t.copy()
    stack = crandn(rng, (3, 5, 6, 7))
    before = stack.copy()
    for mode in range(3):
        tau = 0.4 * spectral_norm(mode_unfold(t, mode))
        out = mode_svt(t, mode, tau, out=stack[mode])
        assert np.shares_memory(out, stack[mode])
        assert np.array_equal(stack[mode], mode_svt(t, mode, tau))
        others = [j for j in range(3) if j > mode]
        assert np.array_equal(stack[others], before[others])  # only its slice
        assert np.array_equal(t, keep)
    big = spectral_norm(mode_unfold(t, 0)) * 2
    assert not mode_svt(t, 0, big, out=stack[0]).any() and not stack[0].any()
    with pytest.raises(ValueError, match="out"):
        mode_svt(t, 0, 1.0, out=np.empty((7, 6, 5), dtype=np.complex128))
    # a middle mode's unfolding copy is written into out before the product
    # reads t, so out must not overlap t
    with pytest.raises(ValueError, match="overlap"):
        mode_svt(stack[1], 1, 1.0, out=stack[1])


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


def test_complex_soft_threshold_writes_into_out():
    # into a caller's buffer, or over its input, bitwise as into a new array
    rng = np.random.default_rng(9)
    z = crandn(rng, (9, 11))
    ref = complex_soft_threshold(z, 0.7)
    buf = np.empty_like(z)
    assert complex_soft_threshold(z, 0.7, out=buf) is buf
    assert np.array_equal(buf, ref)
    assert complex_soft_threshold(z, 0.7, out=z) is z
    assert np.array_equal(z, ref)


def _one_pass_shrink(z, tau):
    with np.errstate(over="ignore"):
        return z * np.maximum(1.0 - tau / np.maximum(np.abs(z), np.finfo(float).tiny), 0.0)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_complex_soft_threshold_in_blocks_is_the_one_pass_formula(layout):
    # 84000 entries in rows of 1200: three blocks of SHRINK_BLOCK entries
    # at most, the last one short
    rng = np.random.default_rng(10)
    z = crandn(rng, (70, 30, 40) if layout != "strided" else (140, 30, 40))
    z[0, 0, :2] = [0.0, 1e-310]
    z = {"C": z, "F": np.asfortranarray(z), "strided": z[::2]}[layout]
    assert z.size > 2 * linalg.SHRINK_BLOCK
    for tau in (0.0, 0.9, 10.0):
        ref = _one_pass_shrink(z, tau)
        got = complex_soft_threshold(z, tau)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        w = z.copy(order="K")  # C or F as z is
        assert complex_soft_threshold(w, tau, out=w) is w
        assert w.tobytes() == ref.tobytes()


def test_complex_soft_threshold_rows_longer_than_a_block(monkeypatch):
    # a row above SHRINK_BLOCK entries is a block of its own
    monkeypatch.setattr(linalg, "SHRINK_BLOCK", 7)
    z = crandn(np.random.default_rng(11), (5, 3, 4))
    ref = _one_pass_shrink(z, 0.8)
    assert complex_soft_threshold(z, 0.8).tobytes() == ref.tobytes()
    assert complex_soft_threshold(z, 0.8, out=z) is z
    assert z.tobytes() == ref.tobytes()


def test_complex_soft_threshold_takes_0d_input():
    # used to raise TypeError: the factor of a 0-d input was a scalar
    for z in (np.array(3 + 4j), 3 + 4j):
        out = complex_soft_threshold(z, 2.0)
        assert out.shape == () and out == _one_pass_shrink(np.asarray(z), 2.0)
    buf = np.array(0j)
    assert complex_soft_threshold(np.array(3 + 4j), 7.0, out=buf) is buf and buf == 0


def test_complex_soft_threshold_holds_one_block():
    # in place on 20^4 entries (2.44 MiB): the peak is the block's real
    # factor and numpy's casting buffer, within one block of complex entries
    z = crandn(np.random.default_rng(12), (20,) * 4)
    complex_soft_threshold(z.copy(), 0.5, out=None)  # warm numpy's caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        complex_soft_threshold(z, 0.5, out=z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= linalg.SHRINK_BLOCK * z.itemsize


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


# NaN and negative thresholds once passed silently: a NaN tau made svt and
# mode_svt return zeros and complex_soft_threshold NaN entries, a negative
# tau added |tau| to every singular value or modulus, and rank_project(m, -1)
# returned a rank min(m.shape) - 1 projection
_M8 = crandn(np.random.default_rng(20), (8, 8))
_T4 = crandn(np.random.default_rng(21), (3, 4, 5, 2))
PROX_KERNELS = {
    "svt": lambda a: svt(_M8, a),
    "mode_svt": lambda a: mode_svt(_T4, 1, a),
    "complex_soft_threshold": lambda a: complex_soft_threshold(_M8, a),
    "rank_project": lambda a: rank_project(_M8, a)[0],
}


@pytest.mark.parametrize("name, bad", [
    *((name, bad) for name in ("svt", "mode_svt", "complex_soft_threshold")
      for bad in (np.nan, -1.0, -np.inf)),
    ("rank_project", -1), ("rank_project", 1.5), ("rank_project", np.nan),
])
def test_prox_kernels_reject_invalid_thresholds(name, bad):
    with pytest.raises(ValueError, match="tau must be >= 0|r must be an integer >= 0"):
        PROX_KERNELS[name](bad)


@pytest.mark.parametrize("name, edge", [("svt", np.inf), ("mode_svt", np.inf),
                                        ("complex_soft_threshold", np.inf),
                                        ("rank_project", 0)])
def test_prox_kernels_take_their_edge_thresholds(name, edge):
    # tau = +inf and r = 0 are valid and give zero
    out = PROX_KERNELS[name](edge)
    assert out.shape == (_T4 if name == "mode_svt" else _M8).shape and not out.any()


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


def test_takagi_takes_no_square_root_of_a_zero_group(monkeypatch):
    # a rank-4 125 x 125 symmetric matrix: four nonzero groups and one of
    # 121 numerically zero values, which keeps u's own columns
    rng = np.random.default_rng(12)
    f = crandn(rng, (125, 4))
    m = (f * np.array([4.0, 3.0, 2.0, 1.0])) @ f.T
    calls = []

    def spy(a, *args, **kwargs):
        calls.append(a.shape)
        return orig(a, *args, **kwargs)

    orig = linalg.sqrtm
    monkeypatch.setattr(linalg, "sqrtm", spy)
    res = takagi(m)
    assert calls == [(1, 1)] * 4
    assert np.linalg.norm(res.reconstruct() - m) <= 1e-12 * np.linalg.norm(m)
    assert np.allclose(res.w.conj().T @ res.w, np.eye(125), atol=1e-12)


def test_takagi_input_validation():
    with pytest.raises(ValueError):
        takagi(np.zeros((3, 4)))
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        takagi(crandn(rng, (4, 4)))  # not symmetric


def test_default_rank_tol_value():
    assert DEFAULT_RANK_TOL == 1e-8
