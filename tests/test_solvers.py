"""Recovery solvers: exact-regime recovery, feasibility, edge cases.

Instances sit comfortably inside each model's success region (verified over
many seeds while freezing), so recovery to ~1e-6 is the expected outcome,
not a lucky draw. Failure regimes are exercised by the acceptance suite.
"""

import functools
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from mrank import solvers
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
from mrank.synth import Mask, gen_cp, gen_mask, gen_sparse_noise, gen_supersym
from mrank.tensor import Pairing, is_super_symmetric, mode_unfold, square_unfold, vec


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
    # data scale (a floor of 1 on their denominators made them absolute)
    dims = (10, 10, 10, 10)
    t = gen_cp(dims, 6, seed=0)
    mask = gen_mask(dims, 0.3, seed=0)
    results = [complete_m(mask, mask.observe(t * scale), truth=t * scale)
               for scale in (1e-8, 1.0, 1e4)]
    assert len({res.iters for res in results}) == 1
    for res in results:
        assert res.converged and res.rel_err_vs_truth <= 1e-3
        assert res.rank_report.m_plus == res.rank_report.m_minus == 6


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
    # overriding lam with the documented default must not change the result
    dims = (8, 8, 8, 8)
    f = gen_cp(dims, 2, seed=5) + gen_sparse_noise(dims, 0.05, seed=6)
    nrow = square_unfold(f).shape[0]
    r1 = rpca_m(f)
    r2 = rpca_m(f, cfg=SolverConfig(lam=1.0 / np.sqrt(nrow)))
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
    for scale in (1e4, 1e-4, 1e-9):
        res = solve(scale)
        assert (res.iters, res.converged) == (base.iters, base.converged), scale
        # rpca_m's certified gap is relative, so it reads the same too
        assert (res.duality_gap is None) == (base.duality_gap is None)
        if base.duality_gap is not None:
            assert abs(res.duality_gap - base.duality_gap) <= 1e-12, scale
        for got, ref in ((res.recovered, base.recovered), (res.sparse, base.sparse)):
            if ref is not None:
                ref = scale * ref
                assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref), scale


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

    def x_step(v, rho):
        x = (a + rho * v) / (1.0 + rho)
        xs.append((rho, v.copy(), x))
        return x

    def z_step(w, rho):
        z = rho * w / (3.0 + rho)
        zs.append((rho, w.copy(), z.copy()))
        return z

    monkeypatch.setattr(solvers, "PENALTY_SCALE", PENALTY_SCALE * rho)
    out = _admm(c.shape, c, x_step, z_step, np.zeros(50, dtype=np.complex128), 1.0,
                SolverConfig(max_iters=max_iters), grow=grow)
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
    assert _norm(0.0) == 0.0  # the scalar c of the completion models


def _driver_peak(c, d=None):
    """tracemalloc peak of 12 iterations of _admm on a complex toy, in
    arrays of x's size. x is 400x400, or with d a d-fold stack of 200x200
    copies against one consensus z, as in complete_n and rpca_n (c then
    broadcasts too). The proxes allocate as little as the contract allows:
    x_step writes into its own buffer, z_step returns one new array."""
    rng = np.random.default_rng(4)
    shape = (400, 400) if d is None else (d, 200, 200)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    buf = np.empty(shape, dtype=np.complex128)

    def x_step(v, rho):
        np.multiply(v, rho, out=buf)
        np.add(buf, a, out=buf)
        return np.divide(buf, 1.0 + rho, out=buf)

    def z_step(w, rho):
        if d is None:
            return w * (rho / (3.0 + rho))
        z = w.mean(axis=0)
        z *= rho / (3.0 + rho)
        return z

    z0 = np.zeros(shape[1:] if d else shape, dtype=np.complex128)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _admm(shape, c, x_step, z_step, z0, 1.0, SolverConfig(max_iters=12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[2] == 12
    return (peak - base) / buf.nbytes


@pytest.mark.parametrize("c", ["array", 0.0, "consensus"])
def test_admm_driver_allocates_no_temporaries(c):
    # the driver keeps the scaled dual u and one work buffer; with z and
    # the z step's new z that is four arrays of x's size at the peak. Any
    # per-iteration temporary of x's size (v = z + c - u as an expression,
    # x - 0.0, the old z held past its use) makes it five or more. Against
    # a 4-fold stack, z and c are single tensors: u, the work buffer, z and
    # the new z make 2.5 stacks, and a stack-sized temporary (c broadcast
    # into a new array) makes 3.25 or more.
    rng = np.random.default_rng(5)
    if c == "consensus":
        assert _driver_peak(rng.standard_normal((200, 200)) + 0j, d=4) < 2.6
        return
    if c == "array":
        c = rng.standard_normal((400, 400)) + 0j
    assert _driver_peak(c) < 4.1


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
