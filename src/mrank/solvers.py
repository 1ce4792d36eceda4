"""Convex recovery of even-order tensors through their unfoldings.

Five solvers share one config:

    complete_m        -- nuclear-norm completion on a square unfolding
    complete_n        -- completion on the (1/d)-weighted sum of mode
                         unfolding nuclear norms (consensus ADMM baseline)
    rpca_m            -- sparse + low-rank split of a square unfolding
    rpca_n            -- the mode-unfolding analogue of rpca_m
    complete_supersym -- completion constrained to super-symmetric tensors

All are deterministic. The ADMM penalty is made scale-invariant by dividing
by the spectral norm of the data unfolding, so the dimensionless defaults
work at any data scale; `cfg.rho` stays fixed during a solve. Data must be
finite: NaN or Inf raises ValueError on entry.

Every svt call site keeps its own SvtWarm (one per mode in complete_n and
rpca_n), created inside the solve, so consecutive iterations warm-start the
kernel and concurrent solves share nothing. In practice the square 400x400
iterates of rpca_m and complete_supersym, whose kept rank stays small, take
the warm subspace route; the tall mode unfoldings of complete_n and rpca_n
take the Gram route; complete_m's 100x100 iterates keep too high a rank for
the subspace route and stay on the full SVD (see linalg.svt).

complete_m runs fixed-point continuation (singular value thresholding with
a shrinking threshold mu) and then a spectral-gap-guided rank-projection
refinement: candidate ranks are read off the gaps of the continuation
solution and tried in ascending order, each validated by the observed-entry
residual. The refinement is what recovers instances near the sampling
boundary where the plain nuclear-norm optimum is no longer the low-rank
truth (hard truncation of trailing singular values, the same ingredient the
classical approximate-SVD continuation solvers rely on).
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import SvtWarm, complex_soft_threshold, spectral_norm, svt
from .ranks import RECOVERED_RANK_TOL, RankReport, m_ranks
from .synth import Mask
from .tensor import Pairing, as_tensor, mode_fold, mode_unfold, square_fold, square_unfold

__all__ = [
    "PENALTY_SCALE",
    "SolverConfig",
    "SolveResult",
    "complete_m",
    "complete_n",
    "rpca_m",
    "rpca_n",
    "complete_supersym",
]

# Dimensionless ADMM penalty at unit spectral scale; calibrated once over the
# completion/robust regimes exercised by the tests (anything in [10, 100]
# converges, 40 is robustly fast). Effective penalty = PENALTY_SCALE * rho /
# sigma_max(data unfolding).
PENALTY_SCALE = 40.0

# Gradient step for the masked least-squares sweeps; the sampling operator
# has unit Lipschitz constant, so any step below 2 is safe.
GRAD_STEP = 1.99

# Rank-projection refinement: spectral gaps at least GAP_MIN flag candidate
# ranks, at most MAX_CANDIDATES are tried (ascending).
GAP_MIN = 2.0
MAX_CANDIDATES = 4
REFINE_MAX_ITERS = 500


@dataclass
class SolverConfig:
    """Shared solver settings.

    mu_schedule drives the completion continuation: (initial fraction of
    sigma_max, shrink factor per stage, floor fraction of sigma_max).
    lam is the sparsity weight for the robust solvers; None means
    1/sqrt(rows of the unfolding). seed is carried for interface parity;
    the solvers are deterministic and draw no randomness.
    """

    max_iters: int = 2000
    abs_tol: float = 1e-8
    rel_tol: float = 1e-6
    rho: float = 1.0
    lam: float | None = None
    mu_schedule: tuple = (0.25, 0.25, 1e-8)
    seed: int = 0


@dataclass
class SolveResult:
    """Outcome of one solve.

    recovered is the estimated tensor (for the robust solvers, the low-rank
    part; `sparse` carries the other summand). rel_err_vs_truth is filled
    when the caller supplies the ground truth. rel_err_all is the relative
    constraint violation: observed-entry residual for completion, full
    additive-split residual for the robust solvers. rank_report is computed
    at the recovered-rank tolerance. residual_trace logs one relative
    residual per iteration.
    """

    recovered: np.ndarray
    iters: int
    converged: bool
    rank_report: RankReport
    sparse: np.ndarray | None = None
    rel_err_vs_truth: float | None = None
    rel_err_all: float | None = None
    residual_trace: list = field(default_factory=list)
    message: str = ""

    def to_row(self) -> dict:
        row = {
            "iters": self.iters,
            "converged": self.converged,
            "rel_err": self.rel_err_vs_truth,
            "rel_err_all": self.rel_err_all,
            "m_plus": self.rank_report.m_plus,
            "m_minus": self.rank_report.m_minus,
            "tucker": ",".join(str(r) for r in self.rank_report.tucker),
        }
        if self.message:
            row["message"] = self.message
        return row


def _require_finite(a, name: str) -> None:
    """Reject NaN/Inf data before it reaches LAPACK, which would fail with
    an unrelated "SVD did not converge" or return a NaN solution."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contain non-finite entries (NaN or Inf)")


def _rel_err(est, truth) -> float | None:
    if truth is None:
        return None
    truth = as_tensor(truth)
    denom = np.linalg.norm(truth)
    return float(np.linalg.norm(as_tensor(est) - truth) / max(denom, np.finfo(float).tiny))


def _mask_matrix_flat(mask: Mask, pairing: Pairing) -> np.ndarray:
    """Observed positions as Fortran-order flat indices of the unfolding."""
    multi = mask.multi_indices()
    row_dims = tuple(mask.dims[a] for a in pairing.row)
    col_dims = tuple(mask.dims[a] for a in pairing.col)
    rows = np.ravel_multi_index([multi[a] for a in pairing.row], row_dims, order="F")
    cols = np.ravel_multi_index([multi[a] for a in pairing.col], col_dims, order="F")
    nrow = int(np.prod(row_dims, dtype=np.int64))
    return rows + nrow * cols


def _residual_grad(x, flat, b):
    """Gradient of 0.5*||P_obs(x) - b||^2 in matrix form, plus the residual norm."""
    xf = x.reshape(-1, order="F")
    g = np.zeros_like(xf)
    r = xf[flat] - b
    g[flat] = r
    return g.reshape(x.shape, order="F"), float(np.linalg.norm(r))


def _gap_candidates(x) -> list:
    """Candidate ranks from the largest relative gaps of the spectrum."""
    s = np.linalg.svd(x, compute_uv=False)
    pos = s[s > 1e-12 * max(float(s[0]), np.finfo(float).tiny)]
    if pos.size <= 1:
        return [max(int(pos.size), 1)]
    ratios = pos[:-1] / pos[1:]
    cand = [int(i) + 1 for i in np.argsort(-ratios) if ratios[i] >= GAP_MIN]
    return sorted(cand[:MAX_CANDIDATES]) or [int(pos.size)]


def complete_m(mask: Mask, values, pairing: Pairing | None = None,
               cfg: SolverConfig | None = None, truth=None) -> SolveResult:
    """Complete a tensor from observed entries by minimizing the nuclear
    norm of the square unfolding under the given pairing.

    Fixed-point continuation: x <- svt(x - step * grad, step * mu) with mu
    shrinking along cfg.mu_schedule (fractions of the masked unfolding's
    spectral norm), then the rank-projection refinement described in the
    module docstring. Observed entries of the result match the data within
    cfg.rel_tol (relative). rel_err_all is the observed-entry residual of
    the returned tensor, also when every refinement candidate is rejected.
    """
    cfg = cfg or SolverConfig()
    pr = Pairing.default(len(mask.dims)) if pairing is None else pairing
    b = np.asarray(values, dtype=np.complex128)
    _require_finite(b, "observed values")
    flat = _mask_matrix_flat(mask, pr)
    nrow, ncol = pr.matrix_shape(mask.dims)
    xf = np.zeros(nrow * ncol, dtype=np.complex128)
    xf[flat] = b
    x = xf.reshape((nrow, ncol), order="F")
    bnorm = float(np.linalg.norm(b))
    sigma0 = spectral_norm(x)
    if sigma0 == 0.0:
        rec = square_fold(x, mask.dims, pr)
        return SolveResult(rec, 0, True, m_ranks(rec, RECOVERED_RANK_TOL),
                           rel_err_vs_truth=_rel_err(rec, truth), rel_err_all=0.0)

    mu0, shrink, floor_frac = cfg.mu_schedule
    mu = mu0 * sigma0
    mu_floor = floor_frac * sigma0
    trace = []
    it = 0
    converged = False
    warm = SvtWarm()
    g, rnorm = _residual_grad(x, flat, b)
    while it < cfg.max_iters:
        xn = svt(x - GRAD_STEP * g, GRAD_STEP * mu, warm)
        step = np.linalg.norm(xn - x) / max(1.0, np.linalg.norm(x))
        x = xn
        g, rnorm = _residual_grad(x, flat, b)
        it += 1
        trace.append(rnorm / max(bnorm, np.finfo(float).tiny))
        # inner tolerance loosens with mu so early stages hand off quickly
        if step < max(cfg.rel_tol, 1e-2 * mu / sigma0):
            if mu <= mu_floor:
                converged = trace[-1] <= cfg.rel_tol
                break
            mu = max(mu * shrink, mu_floor)

    # rank-projection refinement, self-validated by the data residual; a
    # candidate rank is only trusted when the samples overdetermine it
    # (count >= dim of the rank-r manifold), else a perfect data fit would
    # certify nothing
    accept = 0.1 * cfg.rel_tol
    x_resid = rnorm / max(bnorm, np.finfo(float).tiny)
    tried = False
    for r in _gap_candidates(x):
        if b.size < r * (nrow + ncol - r):
            continue
        tried = True
        y = x.copy()
        ok = False
        for _ in range(REFINE_MAX_ITERS):
            g, rnorm = _residual_grad(y, flat, b)
            u, s, vh = np.linalg.svd(y - GRAD_STEP * g, full_matrices=False)
            yn = (u[:, :r] * s[:r]) @ vh[:r]
            change = np.linalg.norm(yn - y) / max(1.0, np.linalg.norm(y))
            y = yn
            it += 1
            res = float(np.linalg.norm(y.reshape(-1, order="F")[flat] - b))
            trace.append(res / max(bnorm, np.finfo(float).tiny))
            if trace[-1] <= accept:
                ok = True
                break
            if change < 1e-10:
                break
        if ok:
            x = y
            converged = True
            break
    else:
        if tried:
            # every candidate was rejected: stepping back to the continuation
            # iterate is logged as one more step, so the trace ends with the
            # residual of the tensor returned
            it += 1
            trace.append(x_resid)

    rec = square_fold(x, mask.dims, pr)
    return SolveResult(
        recovered=rec,
        iters=it,
        converged=converged,
        rank_report=m_ranks(rec, RECOVERED_RANK_TOL),
        rel_err_vs_truth=_rel_err(rec, truth),
        rel_err_all=trace[-1] if trace else x_resid,
        residual_trace=trace,
    )


def complete_n(mask: Mask, values, cfg: SolverConfig | None = None,
               truth=None) -> SolveResult:
    """Complete a tensor by minimizing the (1/d)-weighted sum of the mode
    unfoldings' nuclear norms: consensus ADMM with one auxiliary tensor and
    one svt per mode per iteration. The consensus tensor keeps observed
    entries pinned to the data, so the result is exactly feasible."""
    cfg = cfg or SolverConfig()
    dims = mask.dims
    d = len(dims)
    b = np.asarray(values, dtype=np.complex128)
    _require_finite(b, "observed values")
    x = mask.fill(b)
    sigma0 = max(spectral_norm(mode_unfold(x, j)) for j in range(d))
    rank_tol = RECOVERED_RANK_TOL
    if sigma0 == 0.0:
        return SolveResult(x, 0, True, m_ranks(x, rank_tol),
                           rel_err_vs_truth=_rel_err(x, truth), rel_err_all=0.0)
    rho = PENALTY_SCALE * cfg.rho / sigma0
    ys = [x.copy() for _ in range(d)]
    us = [np.zeros(dims, dtype=np.complex128) for _ in range(d)]
    warms = [SvtWarm() for _ in range(d)]
    rt_n = np.sqrt(d * x.size)
    trace = []
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        for j in range(d):
            ys[j] = mode_fold(
                svt(mode_unfold(x - us[j], j), (1.0 / d) / rho, warms[j]), dims, j)
        xf = np.mean([ys[j] + us[j] for j in range(d)], axis=0).reshape(-1, order="F")
        xf[mask.flat] = b
        xn = xf.reshape(dims, order="F")
        r_pri = np.sqrt(sum(np.linalg.norm(ys[j] - xn) ** 2 for j in range(d)))
        r_dua = rho * np.sqrt(d) * np.linalg.norm(xn - x)
        x = xn
        for j in range(d):
            us[j] = us[j] + ys[j] - x
        trace.append(r_pri / max(1.0, np.sqrt(d) * np.linalg.norm(x)))
        e_pri = rt_n * cfg.abs_tol + cfg.rel_tol * max(
            np.sqrt(sum(np.linalg.norm(y) ** 2 for y in ys)),
            np.sqrt(d) * np.linalg.norm(x),
        )
        e_dua = rt_n * cfg.abs_tol + cfg.rel_tol * rho * np.sqrt(
            sum(np.linalg.norm(u) ** 2 for u in us)
        )
        if r_pri <= e_pri and r_dua <= e_dua:
            converged = True
            break
    return SolveResult(
        recovered=x,
        iters=it,
        converged=converged,
        rank_report=m_ranks(x, rank_tol),
        rel_err_vs_truth=_rel_err(x, truth),
        rel_err_all=0.0,  # observed entries pinned exactly
        residual_trace=trace,
    )


def rpca_m(t, pairing: Pairing | None = None, cfg: SolverConfig | None = None,
           truth=None) -> SolveResult:
    """Split a tensor into low-rank + sparse parts on a square unfolding:
    minimize ||Y||_* + lam * sum|Z_ij| subject to Y + Z = unfold(t).
    Two-block ADMM; Y comes from svt, Z from modulus soft thresholding."""
    cfg = cfg or SolverConfig()
    t = as_tensor(t)
    _require_finite(t, "data")
    pr = Pairing.default(t.ndim) if pairing is None else pairing
    f = square_unfold(t, pr)
    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(f.shape[0])
    sigma0 = spectral_norm(f)
    if sigma0 == 0.0:
        z = np.zeros_like(t)
        return SolveResult(z, 0, True, m_ranks(z, RECOVERED_RANK_TOL), sparse=z,
                           rel_err_vs_truth=_rel_err(z, truth), rel_err_all=0.0)
    rho = PENALTY_SCALE * cfg.rho / sigma0
    y = np.zeros_like(f)
    z = np.zeros_like(f)
    u = np.zeros_like(f)
    rt_n = np.sqrt(f.size)
    fnorm = np.linalg.norm(f)
    trace = []
    converged = False
    it = 0
    warm = SvtWarm()
    for it in range(1, cfg.max_iters + 1):
        y = svt(f - z - u, 1.0 / rho, warm)
        zn = complex_soft_threshold(f - y - u, lam / rho)
        r_pri = np.linalg.norm(y + zn - f)
        r_dua = rho * np.linalg.norm(zn - z)
        z = zn
        u = u + y + z - f
        trace.append(r_pri / max(fnorm, np.finfo(float).tiny))
        e_pri = rt_n * cfg.abs_tol + cfg.rel_tol * max(
            np.linalg.norm(y), np.linalg.norm(z), fnorm
        )
        e_dua = rt_n * cfg.abs_tol + cfg.rel_tol * rho * np.linalg.norm(u)
        if r_pri <= e_pri and r_dua <= e_dua:
            converged = True
            break
    rec = square_fold(y, t.shape, pr)
    return SolveResult(
        recovered=rec,
        iters=it,
        converged=converged,
        rank_report=m_ranks(rec, RECOVERED_RANK_TOL),
        sparse=square_fold(z, t.shape, pr),
        rel_err_vs_truth=_rel_err(rec, truth),
        rel_err_all=float(np.linalg.norm(y + z - f) / max(fnorm, np.finfo(float).tiny)),
        residual_trace=trace,
    )


def rpca_n(t, cfg: SolverConfig | None = None, truth=None) -> SolveResult:
    """Mode-unfolding analogue of rpca_m: minimize (1/d) * sum_j ||W_j||_*
    over mode unfoldings plus lam * l1 of the sparse part, with every
    W_j + Z = t. lam defaults to 1/sqrt(n1*n2) as in rpca_m."""
    cfg = cfg or SolverConfig()
    t = as_tensor(t)
    _require_finite(t, "data")
    dims = t.shape
    d = t.ndim
    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(dims[0] * dims[1])
    sigma0 = max(spectral_norm(mode_unfold(t, j)) for j in range(d))
    if sigma0 == 0.0:
        z = np.zeros_like(t)
        return SolveResult(z, 0, True, m_ranks(z, RECOVERED_RANK_TOL), sparse=z,
                           rel_err_vs_truth=_rel_err(z, truth), rel_err_all=0.0)
    rho = PENALTY_SCALE * cfg.rho / sigma0
    ws = [np.zeros(dims, dtype=np.complex128) for _ in range(d)]
    us = [np.zeros(dims, dtype=np.complex128) for _ in range(d)]
    z = np.zeros(dims, dtype=np.complex128)
    warms = [SvtWarm() for _ in range(d)]
    rt_n = np.sqrt(d * t.size)
    fnorm = np.linalg.norm(t)
    trace = []
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        for j in range(d):
            ws[j] = mode_fold(
                svt(mode_unfold(t - z - us[j], j), (1.0 / d) / rho, warms[j]), dims, j)
        zn = complex_soft_threshold(
            np.mean([t - ws[j] - us[j] for j in range(d)], axis=0), lam / (d * rho)
        )
        r_pri = np.sqrt(sum(np.linalg.norm(ws[j] + zn - t) ** 2 for j in range(d)))
        r_dua = rho * np.sqrt(d) * np.linalg.norm(zn - z)
        z = zn
        for j in range(d):
            us[j] = us[j] + ws[j] + z - t
        trace.append(r_pri / max(np.sqrt(d) * fnorm, np.finfo(float).tiny))
        e_pri = rt_n * cfg.abs_tol + cfg.rel_tol * max(
            np.sqrt(sum(np.linalg.norm(w) ** 2 for w in ws)),
            np.sqrt(d) * np.linalg.norm(z),
            np.sqrt(d) * fnorm,
        )
        e_dua = rt_n * cfg.abs_tol + cfg.rel_tol * rho * np.sqrt(
            sum(np.linalg.norm(u) ** 2 for u in us)
        )
        if r_pri <= e_pri and r_dua <= e_dua:
            converged = True
            break
    y = np.mean(ws, axis=0)
    return SolveResult(
        recovered=y,
        iters=it,
        converged=converged,
        rank_report=m_ranks(y, RECOVERED_RANK_TOL),
        sparse=z,
        rel_err_vs_truth=_rel_err(y, truth),
        rel_err_all=float(np.linalg.norm(y + z - t) / max(fnorm, np.finfo(float).tiny)),
        residual_trace=trace,
    )


def _orbit_structure(dims):
    """Orbit id per Fortran-order flat index under axis-index permutations.

    Entries whose multi-indices are permutations of each other form one
    orbit; a super-symmetric tensor is exactly one that is constant on every
    orbit."""
    n = dims[0]
    order = len(dims)
    multi = np.array(np.unravel_index(np.arange(n**order), dims, order="F"))
    key = np.sort(multi, axis=0)
    strides = (n ** np.arange(order)).astype(np.int64)
    canon = (key * strides[:, None]).sum(axis=0)
    _, ids = np.unique(canon, return_inverse=True)
    return ids


def complete_supersym(mask: Mask, values, cfg: SolverConfig | None = None,
                      truth=None, feas_tol: float = 1e-8) -> SolveResult:
    """Complete a super-symmetric tensor: minimize the nuclear norm of the
    square unfolding over tensors that are super-symmetric and match the
    observed entries.

    ADMM splits the unfolding variable (svt step) from the constrained
    tensor variable. The projection onto {super-symmetric} intersect
    {observed entries fixed} has a closed form because both sets are affine
    and symmetry means constancy on index-permutation orbits: free orbits
    take their orbit mean, observed orbits take their observed value. The
    returned tensor is therefore exactly super-symmetric and exactly
    feasible.

    Raises ValueError when observed values disagree inside one orbit beyond
    feas_tol (relative): no super-symmetric tensor can match such data.
    """
    cfg = cfg or SolverConfig()
    dims = mask.dims
    if len(set(dims)) > 1 or len(dims) % 2:
        raise ValueError(f"needs a cubical even-order tensor, got dims {dims}")
    n = dims[0]
    b = np.asarray(values, dtype=np.complex128)
    _require_finite(b, "observed values")
    ids = _orbit_structure(dims)
    n_orb = int(ids.max()) + 1 if ids.size else 0
    counts = np.bincount(ids, minlength=n_orb).astype(np.float64)

    ob_ids = ids[mask.flat]
    ob_cnt = np.bincount(ob_ids, minlength=n_orb)
    observed = ob_cnt > 0
    ob_sum = np.bincount(ob_ids, weights=b.real, minlength=n_orb) + 1j * np.bincount(
        ob_ids, weights=b.imag, minlength=n_orb
    )
    ob_val = np.zeros(n_orb, dtype=np.complex128)
    ob_val[observed] = ob_sum[observed] / ob_cnt[observed]
    spread = np.abs(b - ob_val[ob_ids])
    scale = max(1.0, float(np.abs(b).max()) if b.size else 1.0)
    if b.size and spread.max() > feas_tol * scale:
        raise ValueError(
            "observed values are inconsistent under symmetry "
            f"(max in-orbit spread {spread.max():.2e}); no super-symmetric "
            "tensor matches the data"
        )

    def project(flat_tensor):
        sums = np.bincount(ids, weights=flat_tensor.real, minlength=n_orb) + (
            1j * np.bincount(ids, weights=flat_tensor.imag, minlength=n_orb)
        )
        vals = sums / counts
        vals[observed] = ob_val[observed]
        return vals[ids]

    nrow = n ** (len(dims) // 2)
    y = project(np.zeros(n ** len(dims), dtype=np.complex128)).reshape(
        nrow, nrow, order="F"
    )
    sigma0 = spectral_norm(y)
    if sigma0 == 0.0:
        rec = square_fold(y, dims)
        return SolveResult(rec, 0, True, m_ranks(rec, RECOVERED_RANK_TOL),
                           rel_err_vs_truth=_rel_err(rec, truth), rel_err_all=0.0)
    rho = PENALTY_SCALE * cfg.rho / sigma0
    u = np.zeros_like(y)
    rt_n = float(nrow)
    trace = []
    converged = False
    it = 0
    warm = SvtWarm()
    for it in range(1, cfg.max_iters + 1):
        x = svt(y - u, 1.0 / rho, warm)
        yn = project((x + u).reshape(-1, order="F")).reshape(nrow, nrow, order="F")
        r_pri = np.linalg.norm(x - yn)
        r_dua = rho * np.linalg.norm(yn - y)
        y = yn
        u = u + x - y
        trace.append(r_pri / max(1.0, np.linalg.norm(y)))
        e_pri = rt_n * cfg.abs_tol + cfg.rel_tol * max(
            np.linalg.norm(x), np.linalg.norm(y)
        )
        e_dua = rt_n * cfg.abs_tol + cfg.rel_tol * rho * np.linalg.norm(u)
        if r_pri <= e_pri and r_dua <= e_dua:
            converged = True
            break
    rec = square_fold(y, dims)
    return SolveResult(
        recovered=rec,
        iters=it,
        converged=converged,
        rank_report=m_ranks(rec, RECOVERED_RANK_TOL),
        rel_err_vs_truth=_rel_err(rec, truth),
        rel_err_all=0.0,  # projection pins observed orbits exactly
        residual_trace=trace,
    )
