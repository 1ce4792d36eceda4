"""Recovery solvers: exact-regime recovery, feasibility, edge cases.

Instances sit comfortably inside each model's success region (verified over
many seeds while freezing), so recovery to ~1e-6 is the expected outcome,
not a lucky draw. Failure regimes are exercised by the acceptance suite.
"""

import functools
import math
import re
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest

from mrank import ranks, solvers
from mrank.linalg import SvtWarm, spectral_norm, svt
from mrank.solvers import (
    ABS_TOL,
    BALANCE_BAND,
    BALANCE_FACTOR,
    BALANCE_PERIOD,
    FEAS_TOL,
    MU_SCHEDULE,
    PENALTY_SCALE,
    PLATEAU_WINDOW,
    SolverConfig,
    _admm,
    _gap_candidates,
    _norm,
    _svp,
    complete_m,
    complete_n,
    complete_supersym,
    rpca_m,
    rpca_n,
)
from mrank.ranks import rank_one_factorize
from mrank.synth import Mask, complex_normal, gen_cp, gen_mask, gen_sparse_noise, gen_supersym
from mrank.tensor import (Pairing, is_super_symmetric, mode_unfold, orbit_ids, orbit_sum, outer,
                          square_unfold, vec)


DIMS = (6, 6, 6, 6)


def test_penalty_scale_value():
    assert PENALTY_SCALE == 40.0


def test_solver_config_defaults():
    cfg = SolverConfig()
    assert cfg.max_iters == 2000
    assert cfg.rel_tol == 1e-6
    assert cfg.lam is None
    assert len(fields(SolverConfig)) == 3
    assert ABS_TOL == 1e-8
    assert MU_SCHEDULE == (0.25, 0.25, 1e-8)
    assert FEAS_TOL == 1e-8


# --------------------------------------------------------------- complete_m


def test_complete_m_recovers_and_is_feasible():
    t = gen_cp(DIMS, 2, seed=0)
    mask = gen_mask(DIMS, 0.6, seed=1)
    b = mask.observe(t)
    res = complete_m(mask, b, truth=t)
    assert res.converged
    assert res.rel_err_vs_truth <= 1e-6
    assert res.rank_report.m_plus == 2 and res.rank_report.m_minus == 2
    # observed entries reproduced within the solver tolerance
    resid = np.linalg.norm(mask.observe(res.recovered) - b)
    assert resid <= 1e-6 * np.linalg.norm(b)
    assert res.rel_err_all == res.residual_trace[-1]
    assert res.iters == len(res.residual_trace)


def test_complete_m_reports_residual_of_returned_tensor_when_all_rejected():
    # 20% of this rank-6 instance does not determine it: rank 5 plateaus
    # and rank 6 runs out the 400-iteration budget (and its own 500 steps
    # at the default budget), so no refinement candidate is accepted; the
    # result is the continuation iterate, and its own residual must be the
    # one reported, not that of a rejected candidate
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=2)
    mask = gen_mask(dims, 0.2, seed=2)
    b = mask.observe(t)
    res = complete_m(mask, b, cfg=SolverConfig(max_iters=400), truth=t)
    assert not res.converged
    resid = np.linalg.norm(mask.observe(res.recovered) - b) / np.linalg.norm(b)
    assert res.rel_err_all == pytest.approx(resid, rel=1e-9)
    assert res.rel_err_all > 1e-3
    assert res.rel_err_all == res.residual_trace[-1]
    assert res.iters == len(res.residual_trace)


def test_complete_m_recovers_at_20_percent_within_400_iterations():
    # the all-rejected test's former instance: the conjugate-gradient
    # refinement accepts rank 6 well inside the budget
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=0)
    mask = gen_mask(dims, 0.2, seed=0)
    b = mask.observe(t)
    res = complete_m(mask, b, cfg=SolverConfig(max_iters=400), truth=t)
    assert res.converged and res.iters <= 400
    assert res.rel_err_vs_truth <= 1e-3
    assert res.rank_report.m_plus == res.rank_report.m_minus == 6
    assert res.rel_err_all == res.residual_trace[-1]
    assert res.iters == len(res.residual_trace)


@pytest.mark.parametrize("seed, wrong", [(3, [3, 5]), (6, [1, 2, 4]), (8, [2, 5])])
def test_complete_m_rejects_plateaued_candidates(monkeypatch, seed, wrong):
    # criterion 7: each rank below the truth is rejected on its residual
    # plateau within two windows, and rank 6 is still accepted
    tried = []

    def spy(x, r, block, flat, b, bscale, iters, trace, accept):
        n0 = len(trace)
        y = _svp(x, r, block, flat, b, bscale, iters, trace, accept)
        tried.append((r, len(trace) - n0, y is not None))
        return y

    monkeypatch.setattr(solvers, "_svp", spy)
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=seed)
    mask = gen_mask(dims, 0.3, seed=seed)
    res = complete_m(mask, mask.observe(t), truth=t)
    assert [r for r, _, _ in tried] == wrong + [6]
    for r, steps, accepted in tried[:-1]:
        assert not accepted and steps <= 2 * PLATEAU_WINDOW, (r, steps)
    assert tried[-1][2]
    assert res.converged and res.rel_err_vs_truth <= 1e-3


def criterion_7(seed):
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=seed)
    mask = gen_mask(dims, 0.3, seed=seed)
    return mask, mask.observe(t), t


def test_complete_m_decomposes_the_unfolding_once_per_full_svt(monkeypatch):
    # criterion 7, seed 0: the scale is the one value-only SVD of the
    # 100 x 100 unfolding; the gap candidates read the spectrum svt keeps
    # and each candidate's projection sweeps from the continuation's block,
    # so every other full-size SVD is a continuation svt on the full route
    mask, b, t = criterion_7(0)
    svds, full_svt = [], []
    real_svd, real_svt = np.linalg.svd, solvers.svt

    def svd(a, *args, **kwargs):
        if a.shape == (100, 100):
            svds.append(kwargs.get("compute_uv", True))
        return real_svd(a, *args, **kwargs)

    def svt(m, tau, warm=None):
        out = real_svt(m, tau, warm)
        full_svt.append(warm.path == "full")
        return out

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(solvers, "svt", svt)
    res = complete_m(mask, b, truth=t)
    assert res.converged and res.rel_err_vs_truth <= 1e-3
    assert svds.count(False) == 1
    assert svds.count(True) == sum(full_svt) > 0


@pytest.mark.parametrize("seed", [3, 6, 8])
def test_gap_candidates_from_svt_spectrum_match_full_svd(monkeypatch, seed):
    # at every stage end of these criterion-7 solves (each rejects at least
    # one candidate) the spectrum svt recorded gives the candidates that the
    # SVD of its output gives
    assert _gap_candidates(np.zeros(0)) == [1]
    assert _gap_candidates(np.linalg.svd(np.zeros((4, 4)), compute_uv=False)) == [1]
    last, checked = [], []
    real_svt = solvers.svt

    def svt(m, tau, warm=None):
        last[:] = [real_svt(m, tau, warm)]
        return last[0]

    def gap_candidates(s):
        cand = _gap_candidates(s)
        assert cand == _gap_candidates(np.linalg.svd(last[0], compute_uv=False))
        checked.append(cand)
        return cand

    monkeypatch.setattr(solvers, "svt", svt)
    monkeypatch.setattr(solvers, "_gap_candidates", gap_candidates)
    mask, b, t = criterion_7(seed)
    assert complete_m(mask, b, truth=t).converged
    assert len(checked) >= 2


def test_complete_m_rejects_pairing_of_the_wrong_order():
    # a pairing of two axes on an order-4 mask: raised on entry, as rpca_m
    # does, instead of a solve on a 4 x 4 "unfolding"
    dims = (4, 4, 4, 4)
    t = gen_cp(dims, 2, seed=0)
    mask = gen_mask(dims, 0.5, seed=0)
    with pytest.raises(ValueError, match="pairing order 2 != tensor order 4"):
        complete_m(mask, mask.observe(t), Pairing((0,), (1,)))
    with pytest.raises(ValueError, match="pairing order 2 != tensor order 4"):
        rpca_m(t, Pairing((0,), (1,)))


def test_complete_m_is_scale_invariant():
    # criterion 7, seed 0: the step and stall tests are relative at any
    # data scale (a floor of 1 on their denominators made them absolute),
    # and the solve runs on the data scaled to unit magnitude, so neither
    # its line search nor its norms square 1e-170 or 1e160 out of range
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=0)
    mask = gen_mask(dims, 0.3, seed=0)
    scales = (1e-300, 1e-170, 1e-8, 1.0, 1e4, 1e160, 1e300)
    results = [complete_m(mask, mask.observe(t * scale), truth=t * scale)
               for scale in scales]
    base = results[scales.index(1.0)]
    assert len({res.iters for res in results}) == 1
    for scale, res in zip(scales, results):
        assert res.converged and res.rel_err_vs_truth <= 1e-3
        assert abs(res.rel_err_vs_truth - base.rel_err_vs_truth) <= 1e-9
        assert res.rank_report.m_plus == res.rank_report.m_minus == 6
        # divided by the scale first: the norm of the tensor itself would
        # underflow or overflow at the extreme scales
        assert np.linalg.norm(res.recovered / scale - base.recovered) <= (
            1e-9 * np.linalg.norm(base.recovered))


@pytest.mark.parametrize("k", [0, 1, 5, 300])
def test_complete_m_max_iters_caps_continuation_and_refinement(k):
    # criterion 7, seed 0: one budget covers both phases, and the result
    # reports the residual of the tensor it returns whatever the cut
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=0)
    mask = gen_mask(dims, 0.3, seed=0)
    b = mask.observe(t)
    cfg = SolverConfig(max_iters=k)
    res = complete_m(mask, b, cfg=cfg)
    resid = np.linalg.norm(mask.observe(res.recovered) - b) / np.linalg.norm(b)
    assert res.iters <= k
    assert res.iters == len(res.residual_trace)
    assert res.rel_err_all == pytest.approx(resid, rel=1e-9)
    assert not res.converged or resid <= cfg.rel_tol
    if k == 300:
        # rank 6 is validated at a stage end, well inside the budget
        assert res.converged


def test_complete_m_floor_stage_returns_the_continuation_iterate(monkeypatch):
    # a 2^4 rank-4 CP tensor with 15 of its 16 entries observed: its 4 x 4
    # unfolding has full rank, and on this mask no rank-3 matrix fits the
    # samples either, so every stage's candidates (ranks 1 to 3) plateau
    # and are rejected, and continuation runs down to its floor stage,
    # where the data is fitted and the iterate is returned as converged.
    # (A fully observed tensor is returned at once, without continuation.)
    tried = []

    def spy(x, r, *args):
        y = _svp(x, r, *args)
        tried.append((r, y is None))
        return y

    monkeypatch.setattr(solvers, "_svp", spy)
    dims = (2, 2, 2, 2)
    t = gen_cp(dims, 4, seed=0)
    mask = gen_mask(dims, 15 / 16, seed=1)
    assert mask.count == 15
    res = complete_m(mask, mask.observe(t), cfg=SolverConfig(max_iters=20000), truth=t)
    assert tried == [(1, True), (2, True), (3, True)]
    assert res.iters == 5964 == len(res.residual_trace)
    assert res.converged and res.rel_err_all == res.residual_trace[-1] <= 1e-6


@pytest.mark.parametrize("k, calls", [(14, []), (15, []), (16, [(6, 1)])])
def test_complete_m_leaves_no_refinement_a_budget_below_two(monkeypatch, k, calls):
    # criterion 7, seed 0: the first stage ends after 14 steps with rank 6
    # as its candidate; a candidate needs one step of its own and one for
    # the step back, so with fewer than 2 left the solve skips it
    seen = []

    def spy(x, r, block, flat, b, bscale, iters, trace, accept):
        seen.append((r, iters))
        return _svp(x, r, block, flat, b, bscale, iters, trace, accept)

    monkeypatch.setattr(solvers, "_svp", spy)
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=0)
    mask = gen_mask(dims, 0.3, seed=0)
    res = complete_m(mask, mask.observe(t), cfg=SolverConfig(max_iters=k))
    assert seen == calls
    assert res.iters == k == len(res.residual_trace) and not res.converged
    assert res.rel_err_all == res.residual_trace[-1]


def test_complete_m_returns_a_fully_observed_tensor_at_once():
    # P_obs = I leaves one feasible point; the masked gradient steps took
    # 566 iterations to reach it on this instance
    t = gen_cp((5, 5, 5, 5), 2, seed=0)
    mask = gen_mask(t.shape, 1.0, seed=0)
    res = complete_m(mask, mask.observe(t), truth=t)
    assert (res.iters, res.converged, res.rel_err_all, res.rel_err_vs_truth) == (0, True, 0.0, 0.0)
    assert res.residual_trace == [] and np.array_equal(res.recovered, t)
    assert res.rank_report.m_plus == 2


def test_complete_m_crossed_pairing():
    t = gen_cp(DIMS, 2, seed=2)
    mask = gen_mask(DIMS, 0.6, seed=3)
    res = complete_m(mask, mask.observe(t), Pairing.parse("1,3|2,4"), truth=t)
    assert res.converged
    assert res.rel_err_vs_truth <= 1e-6


def test_complete_m_rectangular_dims():
    dims = (4, 6, 5, 7)
    t = gen_cp(dims, 2, seed=4)
    mask = gen_mask(dims, 0.6, seed=5)
    res = complete_m(mask, mask.observe(t), truth=t)
    assert res.converged and res.rel_err_vs_truth <= 1e-6


def test_complete_m_empty_mask_returns_zero():
    mask = gen_mask(DIMS, 0.0, seed=0)
    res = complete_m(mask, np.zeros(0, dtype=np.complex128))
    assert res.converged
    assert np.array_equal(res.recovered, np.zeros(DIMS))
    assert res.rank_report.m_plus == 0


def test_complete_m_deterministic():
    t = gen_cp(DIMS, 2, seed=6)
    mask = gen_mask(DIMS, 0.6, seed=7)
    r1 = complete_m(mask, mask.observe(t))
    r2 = complete_m(mask, mask.observe(t))
    assert np.array_equal(r1.recovered, r2.recovered)
    assert r1.iters == r2.iters
    assert r1.residual_trace == r2.residual_trace


# --------------------------------------------------------------- complete_n


def test_complete_n_success_regime():
    # tiny rank and dense sampling: the mode-unfolding model's home turf
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 2, seed=0)
    mask = gen_mask(dims, 0.7, seed=0)
    res = complete_n(mask, mask.observe(t), truth=t)
    assert res.converged
    assert res.rel_err_vs_truth <= 1e-3
    assert res.rank_report.tucker == (2, 2, 2, 2)
    # consensus keeps observed entries pinned exactly
    assert np.array_equal(mask.observe(res.recovered), mask.observe(t))
    assert res.rel_err_all == 0.0


def test_complete_n_empty_mask_returns_zero():
    res = complete_n(gen_mask(DIMS, 0.0, seed=0), np.zeros(0))
    assert res.converged and not res.recovered.any()


# ------------------------------------------------------------------- rpca_m


def test_rpca_m_splits_low_rank_plus_sparse():
    dims = (8, 8, 8, 8)
    y0 = gen_cp(dims, 2, seed=3)
    z0 = gen_sparse_noise(dims, 0.05, seed=4)
    res = rpca_m(y0 + z0, truth=y0)
    assert res.converged
    assert res.rel_err_vs_truth <= 1e-5
    assert res.rel_err_all <= 1e-5
    assert res.rank_report.m_plus == 2 and res.rank_report.m_minus == 2
    # sparse part carries the planted corruption
    assert np.linalg.norm(res.sparse - z0) <= 1e-4 * np.linalg.norm(z0)


def test_rpca_m_lambda_default_is_inverse_sqrt_rows():
    # overriding lam with the documented default must not change the
    # result; the rows are those of the pairing's own unfolding, n1*n3
    # under 1,3|2,4, not the default's n1*n2
    for dims, pairing, rows in (((8, 8, 8, 8), None, 64),
                                ((3, 4, 5, 6), Pairing((0, 2), (1, 3)), 15)):
        f = gen_cp(dims, 2, seed=5) + gen_sparse_noise(dims, 0.05, seed=6)
        nrow = square_unfold(f, pairing).shape[0]
        assert nrow == rows
        r1 = rpca_m(f, pairing)
        r2 = rpca_m(f, pairing, cfg=SolverConfig(lam=1.0 / np.sqrt(nrow)))
        assert np.array_equal(r1.recovered, r2.recovered)


def test_rpca_m_clean_input_gives_zero_sparse_part():
    y0 = gen_cp(DIMS, 2, seed=7)
    res = rpca_m(y0, truth=y0)
    assert res.converged
    assert res.rel_err_vs_truth <= 1e-5
    assert np.abs(res.sparse).max() <= 1e-5 * np.abs(y0).max()


def test_rpca_m_zero_tensor():
    res = rpca_m(np.zeros(DIMS))
    assert res.converged and res.iters == 0
    assert not res.recovered.any() and not res.sparse.any()


# ------------------------------------------------------------------- rpca_n


def test_rpca_n_success_regime():
    dims = (8, 8, 8, 8)
    y0 = gen_cp(dims, 2, seed=3)
    z0 = gen_sparse_noise(dims, 0.05, seed=4)
    res = rpca_n(y0 + z0, truth=y0)
    assert res.converged
    assert res.rel_err_vs_truth <= 1e-5
    assert res.rel_err_all <= 1e-5
    assert res.rank_report.tucker == (2, 2, 2, 2)


@pytest.mark.parametrize("dims", [(8, 8, 8, 8), (4,) * 6, (3, 4, 5, 6)])
def test_rpca_n_lambda_default_is_inverse_sqrt_rows(dims):
    # as for rpca_m, the default is 1/sqrt of the square unfolding's row
    # count: n1*n2 at order 4 (12 at (3, 4, 5, 6)), n1*n2*n3 at order 6
    f = gen_cp(dims, 2, seed=5) + gen_sparse_noise(dims, 0.05, seed=6)
    nrow = square_unfold(f).shape[0]
    cfg = SolverConfig(max_iters=30)
    r1 = rpca_n(f, cfg=cfg)
    r2 = rpca_n(f, cfg=SolverConfig(max_iters=30, lam=1.0 / np.sqrt(nrow)))
    assert np.array_equal(r1.recovered, r2.recovered)
    assert np.array_equal(r1.sparse, r2.sparse)


# -------------------------------------------------------- complete_supersym


def test_complete_supersym_recovers_exactly_symmetric():
    t = gen_supersym(7, 4, 3, seed=5)
    mask = gen_mask(t.shape, 0.4, seed=6)
    b = mask.observe(t)
    res = complete_supersym(mask, b, truth=t)
    assert res.converged
    assert res.rel_err_vs_truth <= 1e-6
    assert res.rank_report.rank_m == 3
    # symmetry and data fidelity hold exactly, not just to tolerance
    assert is_super_symmetric(res.recovered, 1e-13)
    assert np.allclose(mask.observe(res.recovered), b, atol=1e-12)


def test_complete_supersym_detects_inconsistent_data():
    t = gen_supersym(5, 4, 2, seed=7)
    # observe entries (0,1,0,0) and (1,0,0,0): same orbit, then break one
    i = np.ravel_multi_index((0, 1, 0, 0), t.shape, order="F")
    j = np.ravel_multi_index((1, 0, 0, 0), t.shape, order="F")
    mask = Mask(dims=t.shape, flat=tuple(sorted((int(i), int(j)))))
    b = mask.observe(t)
    b[0] += 1.0
    with pytest.raises(ValueError, match="inconsistent"):
        complete_supersym(mask, b)


def test_complete_supersym_consistency_check_is_relative():
    # the in-orbit spread is measured against the data's own size, so
    # non-symmetric data is refused and symmetric data accepted at any scale
    mask = gen_mask((6,) * 4, 0.4, seed=0)
    iters = set()
    for scale in (1e4, 1.0, 1e-9, 1e-11, 1e-13):
        t = scale * gen_cp((6,) * 4, 3, seed=0)
        with pytest.raises(ValueError, match="inconsistent"):
            complete_supersym(mask, mask.observe(t))
        s = scale * gen_supersym(6, 4, 3, 0)
        res = complete_supersym(mask, mask.observe(s), truth=s)
        assert res.converged and res.rel_err_vs_truth <= 1e-6
        iters.add(res.iters)
    assert len(iters) == 1  # the solve itself is scale-invariant


def test_complete_supersym_rejects_bad_dims():
    with pytest.raises(ValueError):
        complete_supersym(gen_mask((4, 4, 5, 5), 0.5, seed=0), np.zeros(200))


def test_complete_supersym_empty_mask():
    res = complete_supersym(gen_mask((4, 4, 4, 4), 0.0, seed=0), np.zeros(0))
    assert res.converged and not res.recovered.any()


def _full_space_supersym(mask, values):
    """complete_supersym's ADMM on the whole n^h x n^h unfolding, with the
    orbit projection over every entry: the uncompressed model, the
    reference for the compressed one. Returns (tensor, iters, converged)."""
    _, _, b, e, flat = solvers._sampled_entry(mask, values, None, None, None)
    ids = orbit_ids(mask.dims)
    counts = np.bincount(ids)
    ob = ids[flat]
    ob_cnt = np.bincount(ob, minlength=counts.size)
    ob_val = orbit_sum(b, ob, counts.size) / np.maximum(ob_cnt, 1)

    def z_step(w, rho):
        vals = orbit_sum(w.reshape(-1), ids, counts.size) / counts
        vals[ob_cnt > 0] = ob_val[ob_cnt > 0]
        w.reshape(-1)[:] = vals[ids]
        return w

    rows = math.isqrt(ids.size)
    z0 = z_step(np.zeros((rows, rows), dtype=np.complex128), None)
    warm = SvtWarm()
    _, z, it, conv, _, _ = _admm(1, None, lambda j, v, rho: svt(v, 1.0 / rho, warm), z_step,
                                 z0, spectral_norm(z0), SolverConfig(), entries=z0.size)
    # z is super-symmetric, so its C layout is the tensor's
    return z.reshape(mask.dims) * 2.0 ** e, it, conv


# criterion 9 at seeds 0-2, and an order-6 instance: (n, order, rank,
# ratio, seed)
FULL_SPACE_CASES = [(10, 4, 8, 0.4, 0), (10, 4, 8, 0.4, 1), (10, 4, 8, 0.4, 2),
                    (4, 6, 2, 0.2, 0)]


@pytest.mark.parametrize("n, order, r, ratio, seed", FULL_SPACE_CASES)
def test_complete_supersym_matches_the_full_space_solve(monkeypatch, n, order, r, ratio, seed):
    # every svt runs on the m x m symmetric compression, m = C(n + h - 1, h)
    # with h half the order, and the solve takes the full-space solve's
    # steps to the same tensor
    s = gen_supersym(n, order, r, seed=seed)
    mask = gen_mask(s.shape, ratio, seed=seed)
    b = mask.observe(s)
    shapes = []
    monkeypatch.setattr(solvers, "svt", lambda m, *a: shapes.append(m.shape) or svt(m, *a))
    res = complete_supersym(mask, b)
    monkeypatch.undo()
    ref, iters, converged = _full_space_supersym(mask, b)
    m = math.comb(n + order // 2 - 1, order // 2)
    assert len(shapes) == res.iters and set(shapes) == {(m, m)}
    assert (res.iters, res.converged) == (iters, converged) and converged
    assert np.linalg.norm(res.recovered - ref) <= 1e-12 * np.linalg.norm(ref)


# ------------------------------------------------------- non-finite input


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_solvers_reject_non_finite_input(bad):
    t = gen_supersym(4, 4, 2, seed=0)
    mask = gen_mask(t.shape, 0.5, seed=0)
    b = mask.observe(t)
    b[3] = bad
    data = t.copy()
    data[1, 2, 3, 0] = bad
    calls = [
        lambda: complete_m(mask, b),
        lambda: complete_n(mask, b),
        lambda: complete_supersym(mask, b),
        lambda: rpca_m(data),
        lambda: rpca_n(data),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call()


# ------------------------------------------------------- shapes at entry


def test_solvers_reject_a_mis_shaped_truth_before_the_solve(monkeypatch):
    # the error against the truth broadcasts: t[..., :1] read 2.23 on a
    # recovery good to 1e-7, and a shape that cannot broadcast failed only
    # after the whole solve
    t = gen_cp(DIMS, 2, seed=0)
    mask = gen_mask(DIMS, 0.5, seed=0)
    b = mask.observe(t)
    s = gen_supersym(6, 4, 2, seed=0)
    for name in ("svt", "_admm"):
        monkeypatch.setattr(solvers, name, lambda *a, **k: pytest.fail("the solve started"))
    calls = [
        lambda truth: complete_m(mask, b, truth=truth),
        lambda truth: complete_n(mask, b, truth=truth),
        lambda truth: rpca_m(t, truth=truth),
        lambda truth: rpca_n(t, truth=truth),
        lambda truth: complete_supersym(mask, mask.observe(s), truth=truth),
    ]
    for truth in (t[..., :1], t[..., :2]):
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(
                    f"truth shape {truth.shape} != data shape {DIMS}")):
                call(truth)


def test_mode_models_reject_odd_order_before_the_solve(monkeypatch):
    # the square models' message, before any iteration (m_ranks used to
    # reject the order only after a full solve), and before the data is
    # scaled (complete_n used to scale its values first)
    monkeypatch.setattr(solvers, "_admm", lambda *a, **k: pytest.fail("the solve started"))
    for name in ("_unit_scale", "_unit_exponent"):
        monkeypatch.setattr(solvers, name, lambda *a, **k: pytest.fail("the data was scaled"))
    t = gen_cp((6, 6, 6), 2, seed=0)
    mask = gen_mask(t.shape, 0.5, seed=0)
    for call in (lambda: complete_n(mask, mask.observe(t)), lambda: rpca_n(t),
                 lambda: complete_m(mask, mask.observe(t)), lambda: rpca_m(t)):
        with pytest.raises(ValueError, match="order must be even, got 3"):
            call()


def test_solvers_report_the_first_fault_in_entry_order(monkeypatch):
    # two faults per call, and every solver among the calls: all five check
    # the config, the shape, the pairing (odd order included) and the
    # truth, in that order, and the sampled ones then the values. Before,
    # the values spoke before the pairing and the truth, rpca_m and rpca_n
    # checked the truth before the pairing, and complete_n found odd order
    # only after it had scaled its values
    for name in ("_unit_scale", "_unit_exponent"):
        monkeypatch.setattr(solvers, name, lambda *a, **k: pytest.fail("the data was scaled"))
    t = gen_cp(DIMS, 2, seed=0)
    mask = gen_mask(DIMS, 0.5, seed=0)
    short = mask.observe(t)[:-1]
    odd = gen_cp((6, 6, 6), 2, seed=0)
    odd_mask = gen_mask(odd.shape, 0.5, seed=0)
    odd_short = odd_mask.observe(odd)[:-1]
    wrong = Pairing((0,), (1,))
    truth = t[..., :1]
    mis_shaped = f"truth shape {truth.shape} != data shape {DIMS}"
    calls = [
        # these five said "expected 648 values, got shape (647,)" before
        # (108 and 107 at order 3)
        (lambda: complete_m(mask, short, wrong), "pairing order 2 != tensor order 4"),
        (lambda: complete_m(odd_mask, odd_short), "order must be even, got 3"),
        (lambda: complete_n(mask, short, truth=truth), mis_shaped),
        (lambda: complete_n(odd_mask, odd_short), "order must be even, got 3"),
        (lambda: complete_supersym(mask, short, truth=truth), mis_shaped),
        # these two said "truth shape (6, 6, 6, 1) != data shape (6, 6, 6, 6)"
        # before ((6, 6, 1) and (6, 6, 6) for rpca_n)
        (lambda: rpca_m(t, wrong, truth=truth), "pairing order 2 != tensor order 4"),
        (lambda: rpca_n(odd, truth=odd[..., :1]), "order must be even, got 3"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("solve", [rpca_m, rpca_n])
@pytest.mark.parametrize("shape", [(0, 2, 2, 2), (2, 2, 2, 0), (2, 0), (), (3,)])
def test_robust_solvers_refuse_degenerate_shapes_at_entry(monkeypatch, solve, shape):
    # an empty axis warned "divide by zero" in the lam default, ran the
    # solve and failed only in the rank report; order 0 failed in rpca_n
    # with the bare "max() arg is an empty sequence"
    monkeypatch.setattr(solvers, "_admm", lambda *a, **k: pytest.fail("the solve started"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(
                f"needs order >= 2 and no zero-length axis, got shape {shape}")):
            solve(np.zeros(shape))


@pytest.mark.parametrize("solve", [complete_m, complete_n, complete_supersym])
@pytest.mark.parametrize("shape", [(0, 0, 0, 0), (2, 0, 2, 2), (0, 0), ()])
def test_sampled_solvers_refuse_degenerate_masks_at_entry(monkeypatch, solve, shape):
    # an empty axis set the solve up and failed only in the rank report,
    # and order 0 failed with numpy's bare "multiple indices are not
    # supported for 0d arrays"; complete_supersym's cubical check runs
    # after the entry checks, so it gives (2, 0, 2, 2) their message too
    for name in ("svt", "_admm"):
        monkeypatch.setattr(solvers, name, lambda *a, **k: pytest.fail("the solve started"))
    mask = gen_mask(shape, 0.5, seed=0)
    message = f"needs order >= 2 and no zero-length axis, got shape {shape}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            solve(mask, np.zeros(mask.count))


def test_complete_supersym_checks_its_config_first(monkeypatch):
    # the cubical check follows the entry checks every solver makes, the
    # config first; it used to run before them, so a bad config on a
    # non-cubical mask was reported as the mask's shape
    monkeypatch.setattr(solvers, "_admm", lambda *a, **k: pytest.fail("the solve started"))
    mask = gen_mask((4, 4, 5, 5), 0.5, seed=0)
    values = np.zeros(mask.count)
    with pytest.raises(ValueError, match="rel_tol must be finite and >= 0, got -1"):
        complete_supersym(mask, values, SolverConfig(rel_tol=-1))
    with pytest.raises(ValueError, match=re.escape(
            "needs a cubical even-order tensor, got dims (4, 4, 5, 5)")):
        complete_supersym(mask, values)
    odd = gen_mask((3, 3, 3), 0.5, seed=0)
    with pytest.raises(ValueError, match="order must be even, got 3"):
        complete_supersym(odd, np.zeros(odd.count))


def test_complete_supersym_report_takes_one_count(monkeypatch):
    # the answer is super-symmetric, so its rank report certifies the 10
    # pairings of an order-6 instance from one sketch: numerical_rank,
    # behind the per-pairing loop, never runs
    t = gen_supersym(5, 6, 3, seed=1)
    mask = gen_mask(t.shape, 0.3, seed=2)
    sketches = []
    sketch = ranks._sketch_rank
    monkeypatch.setattr(ranks, "numerical_rank", lambda *a, **k: pytest.fail("loop ran"))
    monkeypatch.setattr(ranks, "_sketch_rank",
                        lambda *a, **k: sketches.append(a[0].shape) or sketch(*a, **k))
    res = complete_supersym(mask, mask.observe(t), truth=t)
    assert res.converged and res.rel_err_vs_truth <= 1e-5
    assert sketches == [(125, 125)]
    assert len(res.rank_report.pairing_ranks) == 10 and res.rank_report.rank_m == 3


def test_completion_solvers_reject_mis_sized_values_before_the_solve(monkeypatch):
    # one value per observed entry: a single value used to broadcast over
    # the mask and run a full solve, and a short vector failed inside the
    # solve with numpy's messages
    t = gen_cp(DIMS, 2, seed=0)
    mask = gen_mask(DIMS, 0.5, seed=0)
    s = gen_supersym(6, 4, 2, seed=0)
    assert mask.count == 648
    for name in ("svt", "_admm"):
        monkeypatch.setattr(solvers, name, lambda *a, **k: pytest.fail("the solve started"))
    b = mask.observe(t)
    sb = mask.observe(s)
    for solve, vals in ((complete_m, b), (complete_n, b), (complete_supersym, sb)):
        for bad in (vals[:-1], vals.reshape(2, -1), np.array([1.0 + 0j]), [1.0]):
            with pytest.raises(ValueError, match=re.escape(
                    f"expected 648 values, got shape {np.shape(bad)}")):
                solve(mask, bad)


# (field, value, the reason in the message); the CLI rejects the same values
# as usage errors before it builds a config
BAD_CONFIGS = [
    ("rel_tol", -1.0, "finite and >= 0"),
    ("rel_tol", np.nan, "finite and >= 0"),
    ("rel_tol", np.inf, "finite and >= 0"),
    ("lam", -1.0, "None or finite and > 0"),
    ("lam", 0.0, "None or finite and > 0"),
    ("lam", np.nan, "None or finite and > 0"),
    ("lam", np.inf, "None or finite and > 0"),
    ("max_iters", -3, "an integer >= 0"),
    ("max_iters", 2.5, "an integer >= 0"),
]


@pytest.mark.parametrize("field, value, reason", BAD_CONFIGS)
def test_solvers_reject_an_invalid_config_before_scaling(monkeypatch, field, value, reason):
    # a negative or NaN rel_tol ran every solver out of its budget, a
    # negative lam drove the robust solvers to errors of 1e120, a negative
    # max_iters returned 0 iterations without a word, and a fractional one
    # failed inside the ADMM loop
    t = gen_cp(DIMS, 2, seed=0)
    mask = gen_mask(DIMS, 0.5, seed=0)
    b = mask.observe(t)
    sb = mask.observe(gen_supersym(6, 4, 2, seed=0))
    for name in ("_unit_scale", "_unit_exponent"):
        monkeypatch.setattr(solvers, name, lambda *a, **k: pytest.fail("the data was scaled"))
    cfg = SolverConfig(**{field: value})
    calls = [
        lambda: complete_m(mask, b, cfg=cfg),
        lambda: complete_n(mask, b, cfg),
        lambda: complete_supersym(mask, sb, cfg),
        lambda: rpca_m(t, cfg=cfg),
        lambda: rpca_n(t, cfg),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"{field} must be {reason}, got {value}")):
            call()


def test_config_rules_cover_every_field_once():
    # one range rule per SolverConfig field, in field order: a new field
    # without a rule fails here
    names = [name for name, _ in solvers._CONFIG_RULES]
    assert names == [f.name for f in fields(SolverConfig)]


def test_checked_names_the_first_bad_field_in_rule_order():
    with pytest.raises(ValueError, match="^max_iters must be an integer >= 0, got -1$"):
        solvers._checked(SolverConfig(max_iters=-1, rel_tol=-1.0))
    with pytest.raises(ValueError, match="^rel_tol must be finite and >= 0, got -1.0$"):
        solvers._checked(SolverConfig(rel_tol=-1.0, lam=-1.0))
    assert solvers._checked(None) == SolverConfig()


# iterations of the four ADMM solvers on the instances of acceptance
# criteria 7 (complete_n), 8 (rpca_m, rpca_n) and 9 (complete_supersym),
# seeds 0-2: the counts the driver took before it ran its consensus one
# block at a time, which reorders its arithmetic but not its steps
PINNED_ITERS = {
    "complete_n": (113, 111, 100),
    "rpca_n": (35, 40, 38),
    "rpca_m": (27, 26, 25),
    "complete_supersym": (83, 42, 38),
}


def _acceptance_solve(name, seed):
    dims = (10, 10, 10, 10)
    if name == "complete_n":
        t, mask = gen_cp(dims, 6, seed=seed), gen_mask(dims, 0.3, seed=seed)
        return complete_n(mask, mask.observe(t))
    if name == "complete_supersym":
        s = gen_supersym(10, 4, 8, seed=seed)
        mask = gen_mask(s.shape, 0.4, seed=seed)
        return complete_supersym(mask, mask.observe(s))
    data = gen_cp(dims, 4, seed=seed) + gen_sparse_noise(dims, 0.05, seed=seed)
    return (rpca_m if name == "rpca_m" else rpca_n)(data)


@pytest.mark.parametrize("name", sorted(PINNED_ITERS))
def test_admm_solvers_take_their_pinned_iterations(name):
    got = tuple(_acceptance_solve(name, seed) for seed in range(3))
    assert [r.iters for r in got] == list(PINNED_ITERS[name])
    assert all(r.converged for r in got)


# ------------------------------------------------------ shared ADMM driver

# each solve takes a data multiplier k (0 gives all-zero data) and a config
_T = gen_cp(DIMS, 2, seed=10)
_MASK = gen_mask(DIMS, 0.6, seed=11)
_NOISY = _T + gen_sparse_noise(DIMS, 0.05, seed=12)
_S = gen_supersym(6, 4, 2, seed=13)
_SMASK = gen_mask(_S.shape, 0.5, seed=14)
ADMM_SOLVES = {
    "complete_n": lambda k, cfg: complete_n(_MASK, k * _MASK.observe(_T), cfg),
    "rpca_m": lambda k, cfg: rpca_m(k * _NOISY, cfg=cfg),
    "rpca_n": lambda k, cfg: rpca_n(k * _NOISY, cfg=cfg),
    "complete_supersym": lambda k, cfg: complete_supersym(_SMASK, k * _SMASK.observe(_S), cfg),
}


@pytest.mark.parametrize("name", sorted(ADMM_SOLVES))
def test_admm_driver_contract(name):
    solve = ADMM_SOLVES[name]
    # only rpca_m certifies a duality gap
    gapped = name == "rpca_m"
    zero = solve(0.0, SolverConfig())
    assert zero.iters == 0 and zero.converged and zero.residual_trace == []
    assert not zero.recovered.any()
    assert zero.sparse is None or not zero.sparse.any()
    assert zero.duality_gap == (0.0 if gapped else None)

    capped = solve(1.0, SolverConfig(max_iters=3))
    assert capped.iters == 3 and not capped.converged
    assert len(capped.residual_trace) == 3
    assert (capped.duality_gap is None) != gapped

    unrun = solve(1.0, SolverConfig(max_iters=0))
    assert unrun.iters == 0 and not unrun.converged
    assert unrun.duality_gap == (1.0 if gapped else None)
    if name in ("rpca_m", "rpca_n"):
        # every block is z0 + c = the data, and the sparse part zero (rpca_n
        # read its unwritten stack and returned L = 0)
        assert np.array_equal(unrun.recovered, _NOISY)
        assert not unrun.sparse.any() and unrun.rel_err_all == 0.0

    r1 = solve(1.0, SolverConfig())
    r2 = solve(1.0, SolverConfig())
    assert r1.converged and r1.iters == len(r1.residual_trace)
    assert r1.duality_gap == r2.duality_gap
    assert (r1.duality_gap is None) != gapped
    assert np.array_equal(r1.recovered, r2.recovered)
    assert (r1.sparse is None) == (r2.sparse is None)
    assert r1.sparse is None or np.array_equal(r1.sparse, r2.sparse)
    assert r1.residual_trace == r2.residual_trace


# small instances of the acceptance families: criterion 8 for the robust
# solvers, criterion 7 for complete_n, criterion 9 (seed 0) for
# complete_supersym; each takes a data multiplier k
_C8_LOW = gen_cp((10, 10, 10, 10), 4, seed=0)
_C8_DATA = _C8_LOW + gen_sparse_noise((10, 10, 10, 10), 0.05, seed=0)
_C7_T = gen_cp((10, 10, 10, 10), 6, seed=0)
_C7_MASK = gen_mask((10, 10, 10, 10), 0.3, seed=0)
_C9_S = gen_supersym(10, 4, 8, seed=0)
_C9_MASK = gen_mask(_C9_S.shape, 0.4, seed=0)
SCALED_SOLVES = {
    "complete_n": lambda k: complete_n(_C7_MASK, _C7_MASK.observe(k * _C7_T)),
    "rpca_m": lambda k: rpca_m(k * _C8_DATA),
    "rpca_n": lambda k: rpca_n(k * _C8_DATA),
    "complete_supersym": lambda k: complete_supersym(_C9_MASK, _C9_MASK.observe(k * _C9_S)),
}


@pytest.mark.parametrize("name", sorted(SCALED_SOLVES))
def test_admm_stopping_test_is_scale_invariant(name):
    # both tolerances are relative to the data's spectral scale, so the
    # solve takes the same steps at any scale and returns the scaled result
    # (an absolute primal tolerance in data units stopped rpca_m and
    # complete_supersym early on small data)
    solve = SCALED_SOLVES[name]
    base = solve(1.0)
    assert base.converged
    for scale in (1e4, 1e-4, 1e-9, 1e-170, 1e160, 1e-300, 1e300):
        res = solve(scale)
        assert (res.iters, res.converged) == (base.iters, base.converged), scale
        assert res.rank_report == base.rank_report, scale
        assert abs(res.rel_err_all - base.rel_err_all) <= 1e-9, scale
        # rpca_m's certified gap is relative, so it reads the same too
        assert (res.duality_gap is None) == (base.duality_gap is None)
        if base.duality_gap is not None:
            assert abs(res.duality_gap - base.duality_gap) <= 1e-12, scale
        for got, ref in ((res.recovered, base.recovered), (res.sparse, base.sparse)):
            if ref is not None:
                # divided by the scale: at 1e-170 and 1e160 the norm of
                # the scaled tensor would underflow or overflow
                assert np.linalg.norm(got / scale - ref) <= 1e-9 * np.linalg.norm(ref), scale


@pytest.mark.parametrize("solve", [rpca_m, rpca_n])
def test_in_place_scaling_leaves_the_data_alone(solve):
    # rpca_m scales its own unfolding in place and both scale their results
    # back in place: the caller's tensor is untouched, also in Fortran
    # order, where the default unfolding is a view of it, and data times
    # 2^-600 gives results of exactly 2^-600 times the unscaled ones
    data = np.asfortranarray(_C8_DATA)
    keep = data.copy()
    base = solve(data)
    assert np.array_equal(data, keep)
    small = 2.0 ** -600 * data
    res = solve(small)
    assert np.array_equal(small, 2.0 ** -600 * keep)
    assert res.iters == base.iters and res.rank_report == base.rank_report
    assert np.array_equal(res.recovered, 2.0 ** -600 * base.recovered)
    assert np.array_equal(res.sparse, 2.0 ** -600 * base.sparse)


# every solver on small instances; the robust ones on C- and on
# Fortran-ordered data (read_tensor returns Fortran order), the completion
# ones on a vector of observed values
_NOISY_C = np.ascontiguousarray(_NOISY)
LAYOUT_SOLVES = {
    "complete_m": lambda: complete_m(_MASK, _MASK.observe(_T)),
    "complete_n": lambda: complete_n(_MASK, _MASK.observe(_T)),
    "complete_supersym": lambda: complete_supersym(_SMASK, _SMASK.observe(_S)),
    "rpca_m-C": lambda: rpca_m(_NOISY_C),
    "rpca_m-F": lambda: rpca_m(np.asfortranarray(_NOISY)),
    "rpca_n-C": lambda: rpca_n(_NOISY_C),
    "rpca_n-F": lambda: rpca_n(np.asfortranarray(_NOISY)),
}


@pytest.mark.parametrize("name", sorted(LAYOUT_SOLVES))
def test_solvers_iterate_on_c_ordered_arrays(monkeypatch, name):
    # one memory layout: z0, c and every x_step and z_step result the ADMM
    # driver sees are C-contiguous, like its own buffers, and so is every
    # matrix complete_m hands svt and rank_project
    seen = []

    def look(what, a):
        seen.append((what, a is None or a.flags.c_contiguous))
        return a

    def admm(d, c, x_step, z_step, z0, *args, **kw):
        look("z0", z0)
        look("c", c)
        return _admm(d, c, lambda j, v, rho: look("x_step", x_step(j, v, rho)),
                     lambda w, rho: look("z_step", z_step(w, rho)), z0, *args, **kw)

    def kernel(what, f):
        return lambda m, *args: f(look(what, m), *args)

    monkeypatch.setattr(solvers, "_admm", admm)
    monkeypatch.setattr(solvers, "svt", kernel("svt", solvers.svt))
    monkeypatch.setattr(solvers, "rank_project", kernel("rank_project", solvers.rank_project))
    res = LAYOUT_SOLVES[name]()
    assert res.converged and res.iters > 0
    assert {what for what, _ in seen} >= (
        {"svt", "rank_project"} if name == "complete_m" else {"z0", "c", "x_step", "z_step"})
    assert sorted({what for what, ok in seen if not ok}) == []


@pytest.mark.parametrize("pairing", [None, Pairing((0, 2), (1, 3)), "mode"])
def test_sample_flat_indexes_the_unfolding_in_c_order(pairing):
    # the square model under either pairing, and the mode model ("mode"),
    # whose block is the tensor itself
    square = pairing != "mode"
    pairing = pairing if square else None
    t = gen_cp((3, 4, 5, 6), 2, seed=1)
    mask = gen_mask(t.shape, 0.3, seed=2)
    _, model, axes = solvers._entry(None, t.shape, None, pairing, square)
    m = square_unfold(t, Pairing.default(4) if pairing is None else pairing) if square else t
    assert (model.shape, model.d, model.size) == (m.shape, 1 if square else 4, t.size)
    assert (model.warm is None) != square
    flat = solvers._sampled_entry(mask, mask.observe(t), None, None, pairing, square)[4]
    assert np.array_equal(solvers._sampled(np.ascontiguousarray(m), flat), mask.observe(t))
    # rpca_m's one-pass unfolding: t's axes in that order, laid out in C
    # order, are the model's block, and the model folds it back to t
    block = np.ascontiguousarray(t.transpose(axes)).reshape(model.shape)
    assert np.array_equal(block, m)
    assert np.array_equal(model.fold(block), t)


def test_complete_supersym_solves_on_the_compression(monkeypatch):
    # at 6^4 the driver sees one 21 x 21 block, m = C(7, 2), while its
    # stopping test counts the whole unfolding's 1296 entries
    seen = []
    admm = solvers._admm

    def spy(d, c, x_step, z_step, z0, *args, **kwargs):
        seen.append((d, z0.shape, kwargs["entries"]))
        return admm(d, c, x_step, z_step, z0, *args, **kwargs)

    monkeypatch.setattr(solvers, "_admm", spy)
    t = gen_supersym(6, 4, 2, seed=13)
    mask = gen_mask(t.shape, 0.5, seed=14)
    res = complete_supersym(mask, mask.observe(t), truth=t)
    assert seen == [(1, (21, 21), 1296)]
    assert res.recovered.shape == t.shape and res.converged


@functools.cache
def _rpca_m_20_4():
    """rpca_m on the 20^4 rank-8 instance with 5% corruption, seed 0."""
    dims = (20, 20, 20, 20)
    low = gen_cp(dims, 8, seed=0)
    return rpca_m(low + gen_sparse_noise(dims, 0.05, seed=0), truth=low)


def test_rpca_m_converges_within_150_iterations_at_20_4():
    # the bound the period rule met alone (131 iterations, 194 before its
    # tolerance gate); the growth test below holds the solver to 45
    res = _rpca_m_20_4()
    assert res.converged and res.iters <= 150
    assert res.rel_err_vs_truth <= 1e-4 and res.rel_err_all <= 1e-5
    assert res.rank_report.m_plus == res.rank_report.m_minus == 8


def test_rpca_m_grows_its_penalty_at_20_4():
    # doubling rho while the primal test fails inside the band stops the
    # 20^4 instance in 36 iterations (131 on the period rule alone), at a
    # certified gap within rel_tol and criterion 8's bounds
    res = _rpca_m_20_4()
    assert res.converged and res.iters <= 45
    assert res.rel_err_vs_truth <= 1e-4 and res.rel_err_all <= 1e-5
    assert res.rank_report.m_plus == res.rank_report.m_minus == 8
    assert 0.0 <= res.duality_gap <= SolverConfig().rel_tol


def _rpca_m_objective(f, y, lam):
    """||Y||_* + lam * ||F - Y||_1 at the feasible split (Y, F - Y), by a
    full SVD."""
    return (np.linalg.svd(y, compute_uv=False).sum()
            + lam * np.abs(f - y).sum())


def test_rpca_m_duality_gap_is_certified(monkeypatch):
    # criterion 8, seed 0: the gap rebuilt here from the driver's dual with
    # full SVDs matches the solver's, whose primal value reads the nuclear
    # norm off svt's recorded spectrum, and it bounds the suboptimality
    # against a much tighter solve
    dims = (10, 10, 10, 10)
    data = gen_cp(dims, 4, seed=0) + gen_sparse_noise(dims, 0.05, seed=0)
    seen = {}
    real_gap = solvers._rpca_m_gap

    def spy(f, y, spectrum, dual, lam):
        seen["dual"] = dual.copy()  # the gap reuses its buffer
        return real_gap(f, y, spectrum, dual, lam)

    monkeypatch.setattr(solvers, "_rpca_m_gap", spy)
    res = rpca_m(data)
    monkeypatch.undo()
    f = square_unfold(data)
    y = square_unfold(res.recovered)
    lam = 1.0 / np.sqrt(f.shape[0])
    p = _rpca_m_objective(f, y, lam)
    dual = -seen["dual"]
    dual /= max(1.0, np.abs(dual).max() / lam, np.linalg.svd(dual, compute_uv=False)[0])
    gap = (p - np.vdot(dual, f).real) / p
    assert res.converged and 0.0 < res.duality_gap <= SolverConfig().rel_tol
    assert abs(gap - res.duality_gap) <= 1e-10
    ref = rpca_m(data, cfg=SolverConfig(rel_tol=1e-10))
    assert ref.converged
    p_ref = _rpca_m_objective(f, square_unfold(ref.recovered), lam)
    assert (p - p_ref) / p <= res.duality_gap


def test_rpca_m_converges_on_unstructured_data():
    # a random tensor has no low-rank + sparse split; growing rho whenever
    # the primal test fails ran it out of its budget, the band gate keeps
    # it converging
    rng = np.random.default_rng(5)
    t = rng.standard_normal((8, 8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8, 8))
    res = rpca_m(t)
    assert res.converged and res.iters < SolverConfig().max_iters
    assert 0.0 < res.duality_gap <= 1e-5


def _toy_admm(monkeypatch, rho, max_iters=2000, grow=False):
    """min 0.5*||x - a||^2 + 1.5*||z||^2 subject to x - z = c through _admm,
    with prox closures that record every call. The toy's data scale is 1,
    so the penalty starts at PENALTY_SCALE, set here to rho times its
    value."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    c = rng.standard_normal(50)
    xs, zs = [], []

    def x_step(j, v, rho):
        assert j == 0
        x = (a + rho * v) / (1.0 + rho)
        xs.append((rho, v.copy(), x))
        return x

    def z_step(w, rho):
        w_in = w.copy()
        np.multiply(w, rho / (3.0 + rho), out=w)
        zs.append((rho, w_in, w.copy()))
        return w

    monkeypatch.setattr(solvers, "PENALTY_SCALE", PENALTY_SCALE * rho)
    out = _admm(1, c, x_step, z_step, np.zeros(50, dtype=np.complex128), 1.0,
                SolverConfig(max_iters=max_iters), entries=50, grow=grow)
    return out, c, xs, zs


def _toy_tests(c, xs, zs, k):
    """The stopping test of the toy's iteration k + 1 (0-based k), rebuilt
    from the recorded steps: each residual relative to its scale, and
    whether each test passes. The toy's data scale is 1."""
    cfg = SolverConfig()
    rho, _, x = xs[k]
    _, w, z = zs[k]
    z_old = zs[k - 1][2] if k else np.zeros_like(z)
    u = w - z
    r_pri = np.linalg.norm(x - z - c)
    r_dua = rho * np.linalg.norm(z - z_old)
    size_pri = max(np.linalg.norm(x), np.linalg.norm(z), np.linalg.norm(c))
    size_dua = rho * np.linalg.norm(u)
    pri_ok = r_pri <= ABS_TOL + cfg.rel_tol * size_pri
    dua_ok = r_dua <= np.sqrt(z.size) * ABS_TOL + cfg.rel_tol * size_dua
    return r_pri / size_pri, r_dua / size_dua, pri_ok, dua_ok


# from 1e-3 and 1e3 times PENALTY_SCALE the penalty starts far off balance,
# so the band moves rho; from 0.3 times it the relative residuals stay
# within BALANCE_BAND of each other, and only the tolerance gate moves it,
# once the primal test passes and the dual one not
@pytest.mark.parametrize("rho", [1e-3, 1e3, 0.3])
def test_admm_penalty_balancing(monkeypatch, rho):
    (_, _, it, conv, trace, _), c, xs, zs = _toy_admm(monkeypatch, rho)
    assert conv and it == len(trace) == len(xs) == len(zs)
    rhos = [r for r, _, _ in xs]
    assert [r for r, _, _ in zs] == rhos
    changes = [k for k in range(1, it) if rhos[k] != rhos[k - 1]]
    # rho is moved, and only after a balancing period
    assert changes
    assert all(k % BALANCE_PERIOD == 0 for k in changes)
    # each move steps toward the residual whose test fails: up for the
    # primal one, down for the dual one
    for k in changes:
        rel_pri, rel_dua, pri_ok, dua_ok = _toy_tests(c, xs, zs, k - 1)
        if rhos[k] > rhos[k - 1]:
            assert not pri_ok and (dua_ok or rel_pri > BALANCE_BAND * rel_dua)
        else:
            assert not dua_ok and (pri_ok or rel_dua > BALANCE_BAND * rel_pri)
        if rho == 0.3:
            assert pri_ok != dua_ok
            assert rel_pri < BALANCE_BAND * rel_dua and rel_dua < BALANCE_BAND * rel_pri
    _assert_dual_carries_over(c, xs, zs, it)
    capped = _toy_admm(monkeypatch, rho, max_iters=3)[0]
    assert capped[2] == 3 and not capped[3] and len(capped[4]) == 3


def _assert_dual_carries_over(c, xs, zs, it):
    """The unscaled dual rho * u carries over every iteration, across a
    change of rho too: iteration k ends with u = w_k - z_k, and iteration
    k + 1 starts from v = z_k + c - u (recovering u from v and z cancels,
    so the tolerance scales with the operands)."""
    for k in range(it - 1):
        rho_k, w_k, z_k = zs[k]
        rho_next, v_next, _ = xs[k + 1]
        gap = np.linalg.norm(rho_next * (z_k + c - v_next) - rho_k * (w_k - z_k))
        size = max(rho_k, rho_next) * (np.linalg.norm(c) + np.linalg.norm(w_k)
                                       + np.linalg.norm(z_k))
        assert gap <= 1e-12 * size


# with grow (rpca_m's schedule), rho doubles after every iteration whose
# primal test fails with the relative dual residual within BALANCE_BAND of
# the primal one; every other move is the period rule's. From 1e-3 the
# growth runs for several iterations in a row, from 1e3 and 0.3 it
# alternates with the period rule's steps down.
@pytest.mark.parametrize("rho", [1e-3, 1e3, 0.3])
def test_admm_penalty_growth(monkeypatch, rho):
    (_, _, it, conv, trace, dual), c, xs, zs = _toy_admm(monkeypatch, rho, grow=True)
    assert conv and it == len(trace) == len(xs) == len(zs)
    rhos = [r for r, _, _ in xs]
    assert [r for r, _, _ in zs] == rhos
    grown = periodic = 0
    for k in range(1, it):
        rel_pri, rel_dua, pri_ok, dua_ok = _toy_tests(c, xs, zs, k - 1)
        if not pri_ok and rel_dua <= BALANCE_BAND * rel_pri:
            assert rhos[k] == BALANCE_FACTOR * rhos[k - 1]
            grown += 1
        elif rhos[k] != rhos[k - 1]:
            assert k % BALANCE_PERIOD == 0
            if rhos[k] > rhos[k - 1]:
                assert not pri_ok and (dua_ok or rel_pri > BALANCE_BAND * rel_dua)
            else:
                assert not dua_ok and (pri_ok or rel_dua > BALANCE_BAND * rel_pri)
            periodic += 1
    assert grown and periodic
    _assert_dual_carries_over(c, xs, zs, it)
    # the driver hands back the unscaled dual rho * u of the last iteration
    rho_end, w_end, z_end = zs[-1]
    assert np.allclose(dual, rho_end * (w_end - z_end), rtol=0, atol=1e-12 * rho_end)


def test_norm_helper_matches_numpy():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 9, 10, 11)) + 1j * rng.standard_normal((4, 9, 10, 11))
    cases = [
        a,  # C order
        np.asfortranarray(a),
        a.transpose(2, 0, 3, 1),  # neither
        np.broadcast_to(a[0], a.shape),  # a consensus z against a stack
        a.real,
    ]
    for b in cases:
        ref = np.linalg.norm(b)
        assert abs(_norm(b) - ref) <= 1e-15 * ref
    assert _norm(np.zeros((0, 3), dtype=np.complex128)) == 0.0


def _driver_peak(c, d=None):
    """tracemalloc peak of 12 iterations of _admm on a complex toy, in
    arrays of x's size. x is one 400x400 block, or with d a d-fold stack of
    200x200 blocks against one consensus z, as in complete_n and rpca_n.
    The proxes allocate as little as the contract allows: x_step writes
    into its own slice of a stack, z_step writes over the mean it is
    handed."""
    rng = np.random.default_rng(4)
    shape = (1, 400, 400) if d is None else (d, 200, 200)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    buf = np.empty(shape, dtype=np.complex128)

    def x_step(j, v, rho):
        np.multiply(v, rho, out=buf[j])
        np.add(buf[j], a[j], out=buf[j])
        return np.divide(buf[j], 1.0 + rho, out=buf[j])

    def z_step(w, rho):
        return np.multiply(w, rho / (3.0 + rho), out=w)

    z0 = np.zeros(shape[1:], dtype=np.complex128)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _admm(shape[0], c, x_step, z_step, z0, 1.0, SolverConfig(max_iters=12),
                    entries=shape[0] * z0.size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[2] == 12
    return (peak - base) / buf.nbytes


@pytest.mark.parametrize("c", ["array", None, "consensus"])
def test_admm_driver_allocates_no_temporaries(c):
    # z0 and x's buffer exist before the count starts, and the z step
    # writes over the mean it is handed, so _admm adds the scaled dual
    # u and one spare block: two arrays of x's size at the peak. Any
    # per-iteration temporary of x's size (v = z + c - u as an expression,
    # x - 0.0, a new z, the old z held past its use) makes it three or
    # more. Against a 4-fold stack of blocks, z, c and the spare are single
    # blocks: u and the spare make 1.25 stacks, and the blocks' mean is
    # summed in place in the spare. One more block (a new z, a mean of the
    # blocks formed anew, or a temp for each block's term) makes 1.5 or
    # more; a chunk temp of 2^14 entries read 1.355.
    rng = np.random.default_rng(5)
    if c == "consensus":
        assert _driver_peak(rng.standard_normal((200, 200)) + 0j, d=4) < 1.3
        return
    if c == "array":
        c = rng.standard_normal((400, 400)) + 0j
    assert _driver_peak(c) < 2.1


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("with_c", [False, True])
def test_admm_mean_is_the_blocks_mean(with_c, d):
    # the z step's input at the second iteration, where the duals are the
    # first iteration's residuals, against numpy's mean of the blocks'
    # terms (x_j - c) + u_j: bitwise for one block, whose mean is that one
    # expression, and within a few ulps of the terms for four, summed in
    # place in another order
    rng = np.random.default_rng(9)
    shape = (d, 30, 40)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c = rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:]) if with_c else None
    xs, ws, zs = [], [], []

    def x_step(j, v, rho):
        x = (a[j] + rho * v) / (1.0 + rho)
        xs.append(x)
        return x

    def z_step(w, rho):
        ws.append(w.copy())
        np.multiply(w, rho / (3.0 + rho), out=w)
        zs.append(w.copy())
        return w

    _admm(d, c, x_step, z_step, np.zeros(shape[1:], dtype=np.complex128), 1.0,
          SolverConfig(max_iters=2), entries=a.size)
    cc = 0.0 if c is None else c
    x1, x2 = np.stack(xs[:d]), np.stack(xs[d:])
    u = (x1 - zs[0]) - cc  # the duals start at zero
    assert u.any()
    ref = ((x2 - cc) + u if with_c else x2 + u).mean(axis=0)
    if d == 1:
        assert np.array_equal(ws[1], ref)
    else:
        size = (np.abs(x2) + np.abs(cc) + np.abs(u)).sum(axis=0)
        assert np.all(np.abs(ws[1] - ref) <= 4 * np.finfo(float).eps * size)


def test_mode_model_x_step_writes_into_the_stack():
    # one x step of complete_n and rpca_n at 20^4: mode_svt writes each
    # mode straight into its slice of the stack, which also holds a middle
    # mode's contiguous unfolding copy until the product overwrites it. On
    # the Gram route the peak is a small fraction of a tensor (a copy of
    # its own would make it one); the SVD fallback reads the same copy and
    # adds the SVD's left vectors, one tensor. A tensordot product moved
    # into the stack would add one more.
    t = gen_cp((20,) * 4, 12, seed=0)
    stack, x_step, sigma0 = solvers._mode_model(t)
    rng = np.random.default_rng(8)
    v = t + 0.1 * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
    # the Gram route, then the SVD's
    for rho, bound in ((PENALTY_SCALE / sigma0, 0.1), (1.0, 1.1)):
        for j in range(t.ndim):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = x_step(j, v, rho)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.base is stack and np.shares_memory(out, stack[j])
            assert (peak - base) / t.nbytes <= bound


# the perfbench robust_supersym instances before relabelling, and the
# complete_n instance of ROADMAP item 4 (r = 12, 30% observed)
_D20 = (20, 20, 20, 20)
_R20 = gen_cp(_D20, 8, seed=0) + gen_sparse_noise(_D20, 0.05, seed=0)
_C20_MASK = gen_mask(_D20, 0.3, seed=0)
_C20_VALUES = _C20_MASK.observe(gen_cp(_D20, 12, seed=0))
_S20_MASK = gen_mask(_D20, 0.4, seed=0)
_S20_VALUES = _S20_MASK.observe(gen_supersym(20, 4, 8, seed=0))
# tracemalloc peak of each ADMM solver at 20^4, in tensors of that size
# (14.55, 13.46, 7.59 and 7.66 while each z step returned a new z, 12.15
# and 11.46 for rpca_n and complete_n while the driver kept two block
# buffers, 11.26 and 10.57 while it summed the blocks' mean through a
# chunk temp, 7.56 for complete_supersym while it iterated on the whole
# unfolding). The mode models hold the 4-fold stack, the 4 duals and two
# blocks (the spare and z); rpca_n adds its scaled data and the soft
# threshold's real factor (11.15), complete_n its samples and their index
# (10.47). complete_supersym iterates on 210 x 210 matrices, so none of its
# ADMM variables is tensor-sized (4.56)
PEAK_TENSORS = {
    "rpca_n": (11.3, lambda cfg: rpca_n(_R20, cfg=cfg)),
    "complete_n": (10.6, lambda cfg: complete_n(_C20_MASK, _C20_VALUES, cfg)),
    "rpca_m": (7.3, lambda cfg: rpca_m(_R20, cfg=cfg)),
    "complete_supersym": (4.7, lambda cfg: complete_supersym(_S20_MASK, _S20_VALUES, cfg)),
}


@pytest.mark.parametrize("name", sorted(PEAK_TENSORS))
def test_admm_solvers_hold_their_variables_and_no_more(name):
    # three iterations reach the same peak as a full solve: every
    # iteration allocates the same arrays
    bound, solve = PEAK_TENSORS[name]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve(SolverConfig(max_iters=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iters == 3
    assert (peak - base) / _R20.nbytes <= bound


def _mode_nuclear(t):
    return sum(np.linalg.svd(mode_unfold(t, j), compute_uv=False).sum()
               for j in range(t.ndim)) / t.ndim


def test_complete_n_converges_on_criterion_7():
    # the baseline of criterion 7, seed 0: its primal residual meets the
    # tolerance long before its dual one, which only a balanced penalty
    # brings down in budget; it must stop at the optimum a much tighter
    # solve reaches
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=0)
    mask = gen_mask(dims, 0.3, seed=0)
    b = mask.observe(t)
    res = complete_n(mask, b)
    assert res.converged and res.iters <= 500
    assert np.array_equal(mask.observe(res.recovered), b)
    ref = complete_n(mask, b, SolverConfig(rel_tol=1e-9))
    assert ref.converged
    assert _mode_nuclear(res.recovered) == pytest.approx(_mode_nuclear(ref.recovered),
                                                         rel=1e-4)


def test_mode_spectra_come_from_gram_matrices(monkeypatch):
    # the mode models' scale and rank_one_factorize's direction are read
    # off the mode Gram matrices: no SVD of a mode unfolding's shape runs
    # (the prox and the rank reports take the Gram route here too)
    seen = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        seen.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    d20 = (20, 20, 20, 20)
    low = gen_cp(d20, 8, seed=0)
    assert rpca_n(low + gen_sparse_noise(d20, 0.05, seed=0)).converged
    assert complete_n(_C7_MASK, _C7_MASK.observe(_C7_T)).converged
    b = complex_normal(np.random.default_rng(0), 10)
    t = outer(outer(b, b), outer(b, b))
    bhat = rank_one_factorize(t)
    assert np.linalg.norm(outer(outer(bhat, bhat), outer(bhat, bhat)) - t) <= (
        1e-8 * np.linalg.norm(t))
    assert seen  # the square unfoldings' rank reports still decompose
    assert not {(8000, 20), (1000, 10)} & set(seen)


# ----------------------------------------------------------------- reports


def test_solve_result_row_keys():
    t = gen_cp(DIMS, 2, seed=8)
    mask = gen_mask(DIMS, 0.6, seed=9)
    row = complete_m(mask, mask.observe(t), truth=t).to_row()
    assert set(row) == {
        "iters", "converged", "rel_err", "rel_err_all",
        "m_plus", "m_minus", "tucker",
    }
    assert row["tucker"] == "2,2,2,2"
