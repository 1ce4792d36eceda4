"""Recovery of even-order tensors through their unfoldings.

Five solvers share one config:

    complete_m        -- completion on a square unfolding: the first
                         rank-r fit the samples validate, refined from
                         nuclear-norm continuation, or else the
                         continuation iterate
    complete_n        -- completion on the (1/d)-weighted sum of mode
                         unfolding nuclear norms (consensus ADMM baseline)
    rpca_m            -- sparse + low-rank split of a square unfolding
    rpca_n            -- the mode-unfolding analogue of rpca_m
    complete_supersym -- completion constrained to super-symmetric tensors

All are deterministic. Any finite magnitude is supported, from the
smallest normal double to the largest: each solver runs on its data times
2^-e, e the binary exponent of the largest modulus (tensor._unit_scale),
and multiplies its results back by 2^e, so no square or norm inside a
solve can overflow or underflow, and a solve takes the same steps at every
scale (bitwise, times 2^e, for data scaled by a power of two). The pass
that reads that modulus is also the data's finiteness check: NaN or Inf
raises ValueError on entry, naming the count (tensor._unit_exponent).
Errors against the truth and the rank report are taken at the solve's
scale. Where the solver owns the array, the scaling is done in place:
rpca_m scales its own unfolding of the data, and every solver scales its
results back (_result).

complete_n, rpca_m, rpca_n and complete_supersym are one ADMM driver,
_admm, run on the constraint x - z = c with two prox steps each (see its
docstring for the variables of each model). It owns the penalty, the dual
update, the stopping test and the trace, and allocates no array of the
constraint's size per iteration: besides x and z it keeps two, the scaled
dual and one work buffer. The initial penalty is made scale-invariant by
dividing by the spectral norm of the data unfolding, and both stopping
tolerances are relative to that norm, so the dimensionless defaults work,
and a solve takes the same steps, at any data scale. From
there, residual balancing moves the penalty by factors of two when the
primal and dual residuals drift far apart, or when one stopping test passes
and the other does not (see _admm): the first is what lets the complete_n
baseline meet its dual test, the second what stops rpca_m's primal residual
from crawling once its dual test has passed. rpca_m alone moves its penalty
faster, through _admm's grow keyword: rho doubles after every iteration
whose primal test fails while the relative dual residual stays within
BALANCE_BAND of the primal one, as in the inexact augmented Lagrangian
method for this model (Lin, Chen and Ma 2010), which grows it every
iteration. The band gate keeps inputs with no low-rank + sparse structure
converging. rpca_m also certifies its answer: SolveResult.duality_gap is
the relative gap between its primal value and the value of the driver's
final dual, made dual feasible (see _rpca_m_gap). All five solvers build
their SolveResult with _result.

Every svt call site keeps its own SvtWarm, created inside the solve, so
consecutive iterations warm-start the kernel and concurrent solves share
nothing. In practice the square 400x400 iterates of rpca_m and
complete_supersym, whose kept rank stays small, take the warm subspace
route, and complete_m's 100x100 continuation iterates keep too high a rank
for it and stay on the full SVD (see linalg.svt). complete_n and rpca_n
never unfold: their prox on mode j is linalg.mode_svt, a mode-j product
with an n_j x n_j matrix built from the mode's Gram matrix, and their
driver's scale, the largest spectral norm of the data's mode unfoldings,
is read off the same Gram spectra (linalg.mode_spectrum).

complete_m runs fixed-point continuation (singular value thresholding with
a shrinking threshold mu; Ma, Goldfarb and Chen 2011) and validates ranks
at the end of every continuation stage. Candidate ranks are read off the
largest spectral gaps of the stage's iterate and tried in ascending order;
each is refined on the rank-r matrices by conjugate gradient iterative
hard thresholding (CGIHT; Blanchard, Tanner and Wei 2015), singular value
projection (Jain, Meka and Dhillon 2010) with exact line-search steps along
conjugate directions. A candidate is accepted when the observed-entry
residual falls to 0.1 * rel_tol, provided the samples overdetermine rank
r, and rejected as soon as that residual plateaus: a rank below the truth
cannot fit the data, and its residual flattens within a few dozen steps,
while the right rank's keeps falling geometrically. The solve returns the
first accepted rank; a rejected rank is not tried again, and continuation
goes on from its own iterate. The refinement is what recovers instances
near the sampling boundary, where the plain nuclear-norm optimum is no
longer the low-rank truth, and the right rank usually shows after the
first stage or two, so the solve stops long before the continuation floor.
cfg.max_iters caps continuation and refinement together. Each projection
runs through linalg.rank_project with one warm block per candidate: the
continuation's block seeds it, and after that two or three subspace sweeps
of an (r + OVERSAMPLE)-wide block replace each full SVD; it also hands back
the column space the line search needs. The gap candidates are read off
the spectrum the continuation's last svt recorded, so no SVD is repeated.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import (OVERSAMPLE, SvtWarm, complex_l1, complex_soft_threshold,
                     mode_spectrum, mode_svt, rank_project, spectral_norm, svt)
from .ranks import RECOVERED_RANK_TOL, RankReport, m_ranks
from .synth import Mask
from .tensor import (
    Pairing,
    _unit_exponent,
    _unit_scale,
    as_tensor,
    orbit_ids,
    orbit_sum,
    square_fold,
    square_unfold,
)

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
# converges, 40 is robustly fast). The ADMM penalty starts at PENALTY_SCALE /
# sigma_max(data unfolding).
PENALTY_SCALE = 40.0

# Absolute part of the ADMM stopping test (see _admm), dimensionless: the
# primal test's absolute term is ABS_TOL * sigma_max(data unfolding), in
# data units, and the dual test's is sqrt(n) * ABS_TOL on the dimensionless
# rho * (z - z_old), n the constraint's entry count.
ABS_TOL = 1e-8

# complete_m's continuation: (initial fraction of sigma_max, shrink factor
# per stage, floor fraction of sigma_max).
MU_SCHEDULE = (0.25, 0.25, 1e-8)

# complete_supersym rejects observations that disagree inside one orbit by
# more than FEAS_TOL times the largest observed modulus.
FEAS_TOL = 1e-8

# Residual balancing of the ADMM penalty (see _admm): every BALANCE_PERIOD
# iterations, rho is multiplied (divided) by BALANCE_FACTOR when the primal
# (dual) stopping test fails and either the other test passes or the failing
# relative residual exceeds BALANCE_BAND times the other. A power of two
# keeps the rescaled dual exact.
BALANCE_PERIOD = 5
BALANCE_BAND = 50.0
BALANCE_FACTOR = 2.0

# Gradient step of the continuation's masked least-squares sweeps; the
# sampling operator has unit Lipschitz constant, so any step below 2 is safe.
GRAD_STEP = 1.99

# Rank-projection refinement at each continuation stage end: spectral gaps
# at least GAP_MIN flag candidate ranks, at most MAX_CANDIDATES are tried
# (ascending), each for at most REFINE_MAX_ITERS steps.
GAP_MIN = 2.0
MAX_CANDIDATES = 4
REFINE_MAX_ITERS = 500
# A candidate is rejected once its observed residual has plateaued: more
# than PLATEAU_WINDOW steps in, still above PLATEAU_RATIO times its value
# PLATEAU_WINDOW steps earlier. Right candidates converge linearly: on the
# 17 criterion-7-family parity instances (rank 6 at 30% and 25%, rank 4 at
# 20%) their worst 20-step ratio is 0.25 under CGIHT and was 0.664 under
# plain projection steps, while wrong ones flatten at 0.91 to 0.98.
PLATEAU_WINDOW = 20
PLATEAU_RATIO = 0.9


@dataclass
class SolverConfig:
    """Shared solver settings.

    lam is the sparsity weight for the robust solvers; None means
    1/sqrt(rows of the unfolding). rel_tol and ABS_TOL set the ADMM
    stopping test (see _admm); complete_m uses rel_tol alone, as its
    acceptance level. The solvers are deterministic and draw no
    randomness.
    """

    max_iters: int = 2000
    rel_tol: float = 1e-6
    lam: float | None = None


@dataclass
class SolveResult:
    """Outcome of one solve.

    recovered is the estimated tensor (for the robust solvers, the low-rank
    part; `sparse` carries the other summand). rel_err_vs_truth is filled
    when the caller supplies the ground truth. rel_err_all is the relative
    constraint violation: observed-entry residual for completion, full
    additive-split residual for the robust solvers. rank_report is computed
    at the recovered-rank tolerance. residual_trace holds one entry per
    iteration, so len(residual_trace) == iters. For the four ADMM solvers
    the entry is r_pri / max(||x||, ||z||, ||c||): the primal residual over
    the scale that rel_tol multiplies in the stopping test. For complete_m
    it is the observed-entry residual, relative to the data, of the iterate
    each step produced: a continuation step, a refinement step, or the
    step back to the continuation iterate after a rejected candidate.
    duality_gap is rpca_m's certified relative duality gap (see
    _rpca_m_gap): an upper bound on how far its objective lies above the
    optimum, relative to the objective; None for the other solvers.
    converged does not depend on it.
    """

    recovered: np.ndarray
    iters: int
    converged: bool
    rank_report: RankReport
    sparse: np.ndarray | None = None
    rel_err_vs_truth: float | None = None
    rel_err_all: float | None = None
    residual_trace: list = field(default_factory=list)
    duality_gap: float | None = None

    def to_row(self) -> dict:
        return {
            "iters": self.iters,
            "converged": self.converged,
            "rel_err": self.rel_err_vs_truth,
            "rel_err_all": self.rel_err_all,
            "m_plus": self.rank_report.m_plus,
            "m_minus": self.rank_report.m_minus,
            "tucker": ",".join(str(r) for r in self.rank_report.tucker),
        }


def _rel_err(est, truth) -> float | None:
    if truth is None:
        return None
    truth = as_tensor(truth)
    denom = np.linalg.norm(truth)
    return float(np.linalg.norm(as_tensor(est) - truth) / max(denom, np.finfo(float).tiny))


def _result(rec, e, iters, converged, truth, rel_err_all, trace,
            sparse=None, duality_gap=None) -> SolveResult:
    """The SolveResult of a solve run on the data times 2^-e (_unit_scale):
    the rank report is taken on rec and the error against truth times 2^-e,
    at the solve's scale, and then rec and sparse, arrays the solver owns,
    are multiplied by 2^e in place and returned."""
    if truth is not None:
        truth = as_tensor(truth) * 2.0 ** -e
    report = m_ranks(rec, RECOVERED_RANK_TOL)
    err = _rel_err(rec, truth)
    rec *= 2.0 ** e
    if sparse is not None:
        sparse *= 2.0 ** e
    return SolveResult(rec, iters, converged, report, sparse=sparse, rel_err_vs_truth=err,
                       rel_err_all=rel_err_all, residual_trace=trace,
                       duality_gap=duality_gap)


def _mask_matrix_flat(mask: Mask, pairing: Pairing) -> np.ndarray:
    """Observed positions as Fortran-order flat indices of the unfolding."""
    multi = mask.multi_indices()
    row_dims = tuple(mask.dims[a] for a in pairing.row)
    col_dims = tuple(mask.dims[a] for a in pairing.col)
    rows = np.ravel_multi_index([multi[a] for a in pairing.row], row_dims, order="F")
    cols = np.ravel_multi_index([multi[a] for a in pairing.col], col_dims, order="F")
    nrow = int(np.prod(row_dims, dtype=np.int64))
    return rows + nrow * cols


def _sampled(m, flat):
    """The entries of the unfolding m at the Fortran-order flat indices."""
    return m.reshape(-1, order="F")[flat]


def _residual_grad(x, flat, b):
    """Gradient of 0.5*||P_obs(x) - b||^2 in matrix form, plus the residual norm."""
    g = np.zeros(x.size, dtype=x.dtype)
    r = _sampled(x, flat) - b
    g[flat] = r
    return g.reshape(x.shape, order="F"), float(np.linalg.norm(r))


def _gap_candidates(s) -> list:
    """Candidate ranks from the largest relative gaps of the spectrum s
    (nonincreasing; empty, as for a zero matrix, gives [1])."""
    pos = s[s > 1e-12 * max(float(s.max(initial=0.0)), np.finfo(float).tiny)]
    if pos.size <= 1:
        return [max(int(pos.size), 1)]
    ratios = pos[:-1] / pos[1:]
    cand = [int(i) + 1 for i in np.argsort(-ratios) if ratios[i] >= GAP_MIN]
    return sorted(cand[:MAX_CANDIDATES]) or [int(pos.size)]


def _svp(x, r, block, flat, b, bscale, iters, trace, accept):
    """Rank-r refinement from x by conjugate gradient iterative hard
    thresholding (CGIHT; Blanchard, Tanner and Wei 2015), the accelerated
    form of singular value projection (Jain, Meka and Dhillon 2010).

    The first step projects x onto rank r, sweeping from block, the
    continuation's warm block cut to r + OVERSAMPLE columns (rank_project
    runs the full SVD when it is narrower). Each later step moves the rank-r
    iterate y along d = R + beta * d_prev, R the residual on the observed
    entries (zero elsewhere), and projects back:
    y <- rank_project(y + alpha * d, r), warm across steps. With P_U the
    projection onto y's column space U (which rank_project hands back) and
    A the sampling of the observed entries, beta makes A(P_U d) orthogonal
    to A(P_U d_prev), and alpha minimizes the observed residual along
    P_U d, both exactly:

        beta  = -<A(P_U d_prev), A(P_U R)> / ||A(P_U d_prev)||^2
        alpha =  <A(P_U d), A(R)> / ||A(P_U d)||^2

    with <a, b> = a^H b, so on complex data both are complex scalars. The
    first direction is R itself.

    Each step logs its observed-entry residual. Returns y once that
    residual is <= accept; None after iters steps, when a step barely moves
    y, or when the residual has plateaued: more than PLATEAU_WINDOW steps
    in, it is still above PLATEAU_RATIO times its value PLATEAU_WINDOW
    steps earlier."""
    tiny = np.finfo(float).tiny
    warm = SvtWarm(v=block)
    y, u = rank_project(x, r, warm)
    change = np.inf
    d = None
    for it in range(iters):
        if it:
            rm = -g  # R: b - y on the observed entries, zero elsewhere
            pr = _sampled(u @ (u.conj().T @ rm), flat)
            if d is None:
                d, pd = rm, pr
            else:
                pp = _sampled(u @ (u.conj().T @ d), flat)
                beta = -np.vdot(pp, pr) / max(np.vdot(pp, pp).real, tiny)
                d = rm + beta * d
                pd = pr + beta * pp  # A(P_U d), by linearity
            alpha = np.vdot(pd, _sampled(rm, flat)) / max(np.vdot(pd, pd).real, tiny)
            yn, u = rank_project(y + alpha * d, r, warm)
            change = np.linalg.norm(yn - y) / max(np.linalg.norm(y), tiny)
            y = yn
        g, rnorm = _residual_grad(y, flat, b)
        trace.append(rnorm / bscale)
        if trace[-1] <= accept:
            return y
        if change < 1e-10 or (it >= PLATEAU_WINDOW and
                              trace[-1] > PLATEAU_RATIO * trace[-1 - PLATEAU_WINDOW]):
            return None
    return None


def complete_m(mask: Mask, values, pairing: Pairing | None = None,
               cfg: SolverConfig | None = None, truth=None) -> SolveResult:
    """Complete a tensor from observed entries on the square unfolding
    under the given pairing: return the first rank-r fit that the samples
    validate, or else the iterate of nuclear-norm continuation. This is not
    the nuclear-norm minimizer in general; near the sampling boundary that
    minimizer can miss the low-rank truth while the rank-r fit recovers it.

    Fixed-point continuation: x <- svt(x - step * grad, step * mu) with mu
    shrinking along MU_SCHEDULE (fractions of the masked unfolding's
    spectral norm). At the end of every stage the stage's gap candidates
    are refined by CGIHT (see _svp) and validated, as the module docstring
    describes, and the first accepted one is returned (converged). A
    candidate is rejected when its steps stall, when its residual
    plateaus (PLATEAU_WINDOW, PLATEAU_RATIO) or after its step budget.
    The stage and stall tests compare step lengths with the iterate's
    norm, so the solve takes the same steps at any data scale. cfg.max_iters
    bounds continuation and refinement together: a candidate gets
    min(REFINE_MAX_ITERS, budget left - 1) steps, the one spared for the
    step back when it is rejected. When the floor stage or the budget is
    reached with nothing accepted, the continuation iterate is returned,
    converged only if its observed residual is within cfg.rel_tol.
    rel_err_all is always the observed-entry residual of the returned
    tensor, and residual_trace[-1] when iters > 0.
    """
    cfg = cfg or SolverConfig()
    pr = Pairing.default(len(mask.dims)) if pairing is None else pairing
    if pr.order != len(mask.dims):
        raise ValueError(f"pairing order {pr.order} != tensor order {len(mask.dims)}")
    b, e = _unit_scale(values, "observed values")
    flat = _mask_matrix_flat(mask, pr)
    nrow, ncol = pr.matrix_shape(mask.dims)
    xf = np.zeros(nrow * ncol, dtype=np.complex128)
    xf[flat] = b
    x = xf.reshape((nrow, ncol), order="F")
    bscale = max(float(np.linalg.norm(b)), np.finfo(float).tiny)
    sigma0 = spectral_norm(x)
    if sigma0 == 0.0:
        return _result(square_fold(x, mask.dims, pr), e, 0, True, truth, 0.0, [])

    mu0, shrink, floor_frac = MU_SCHEDULE
    mu = mu0 * sigma0
    mu_floor = floor_frac * sigma0
    # a candidate rank is only trusted when the samples overdetermine it
    # (count >= dim of the rank-r manifold), else a perfect data fit would
    # certify nothing; a rank rejected once is not tried again
    accept = 0.1 * cfg.rel_tol
    rejected = set()
    trace = []
    converged = False
    warm = SvtWarm()
    g, rnorm = _residual_grad(x, flat, b)
    resid = rnorm / bscale
    while len(trace) < cfg.max_iters:
        xn = svt(x - GRAD_STEP * g, GRAD_STEP * mu, warm)
        step = np.linalg.norm(xn - x) / max(np.linalg.norm(x), np.finfo(float).tiny)
        x = xn
        g, rnorm = _residual_grad(x, flat, b)
        resid = rnorm / bscale
        trace.append(resid)
        # inner tolerance loosens with mu so early stages hand off quickly
        if step >= max(cfg.rel_tol, 1e-2 * mu / sigma0):
            continue
        # x is svt's output: its spectrum and right singular block are on warm
        for r in _gap_candidates(warm.s):
            if r in rejected or b.size < r * (nrow + ncol - r):
                continue
            left = cfg.max_iters - len(trace)
            if left < 2:
                break
            y = _svp(x, r, warm.v[:, :r + OVERSAMPLE], flat, b, bscale,
                     min(REFINE_MAX_ITERS, left - 1), trace, accept)
            if y is not None:
                return _result(square_fold(y, mask.dims, pr), e, len(trace), True,
                               truth, trace[-1], trace)
            rejected.add(r)
            # stepping back to the continuation iterate is logged as one
            # more step, so a solve that ends here ends its trace with the
            # residual of the tensor it returns
            trace.append(resid)
        if mu <= mu_floor:
            converged = resid <= cfg.rel_tol
            break
        mu = max(mu * shrink, mu_floor)

    return _result(square_fold(x, mask.dims, pr), e, len(trace), converged, truth,
                   resid, trace)


def _norm(a) -> float:
    """||a||_F as one dot product over a's memory, in whatever order it is
    laid out; np.linalg.norm makes two passes over a complex array."""
    a = np.ravel(a, order="K")
    return float(np.sqrt(np.vdot(a, a).real))


def _admm(shape, c, x_step, z_step, z0, scale: float, cfg: SolverConfig, *,
          grow: bool = False):
    """Scaled-form ADMM for min f(x) + g(z) subject to x - z = c (Boyd et
    al. 2011, section 3.1.1), the one loop behind complete_n, rpca_m,
    rpca_n and complete_supersym.

    x_step(v, rho) = prox_{f/rho}(v) and z_step(w, rho) = prox_{g/rho}(w).
    Both only read their input, whose buffer the driver reuses: x_step
    returns an array that does not alias v (it may reuse its own buffer
    from call to call), and z_step returns a new array. z0 is overwritten.
    shape is x's shape, the constraint's full shape; v and w always have
    it. z and c may be compact arrays that broadcast to it (a consensus
    tensor shared by stacked mode copies), and their norms count every
    copy. The models:

        complete_n         x = the d mode copies, stacked; z = the consensus
                           tensor with observed entries pinned; c = 0
        rpca_m             x = Y; z = -Z; c = the data unfolding F
        rpca_n             x = the stacked mode copies; z = -Z; c = t
        complete_supersym  x = svt(z - u); z = the orbit projection; c = 0

    Soft thresholding is odd, so z = -Z needs no sign handling in the robust
    z steps. The loop stops when r_pri = ||x - z - c|| <= e_pri and
    r_dua = rho * ||z - z_old|| <= e_dua, with
        e_pri = ABS_TOL * scale + rel_tol * max(||x||, ||z||, ||c||)
        e_dua = sqrt(n) * ABS_TOL + rel_tol * rho * ||u||
    over the n constraint entries, scale being the spectral norm of the
    data that the caller passes. ABS_TOL is dimensionless in both: e_pri
    is in data units through scale, and e_dua is dimensionless, like r_dua,
    since rho scales as 1 / scale. So a solve takes the same steps on data
    multiplied by any factor. Each iteration logs r_pri over the relative
    part of e_pri's scale. Without an iteration to run (zero scale, which
    means zero data, or cfg.max_iters below 1) the point (z0 + c, z0) is
    returned after 0 iterations, converged only for zero data, where it is
    the feasible optimum.

    The penalty starts at rho = PENALTY_SCALE / scale and is balanced on
    the residuals (Boyd et al. 2011, section 3.4.1; He, Yang and Wang 2000;
    relative form as in Wohlberg 2017, "ADMM penalty parameter selection by
    residual balancing"). Every BALANCE_PERIOD iterations that end
    unconverged, rho steps toward the failing residual: it is multiplied
    by BALANCE_FACTOR when the primal test fails and either the dual test
    passes or the relative primal residual
    r_pri / max(||x||, ||z||, ||c||) exceeds BALANCE_BAND times the
    relative dual residual r_dua / (rho * ||u||), and divided by it in the
    mirror case. u is rescaled by old/new rho at the change, so the
    unscaled dual rho * u is continuous. The wide band moves a penalty far
    off balance, as in the fixed-penalty complete_n, whose primal residual
    met its tolerance long before its dual one and ran out its budget. The
    tolerance gate (exactly one test passes) moves a penalty whose
    residuals stay within the band but shrink at different rates, as in
    rpca_m, whose primal residual crawled for a hundred iterations after
    its dual test had passed.

    grow=True (rpca_m only) adds one rule ahead of the period: after any
    iteration whose primal test fails and whose relative dual residual is
    at most BALANCE_BAND times the relative primal one, rho is multiplied
    by BALANCE_FACTOR and u divided by it, and the period rule is skipped
    for that iteration; at every other iteration the period rule runs as
    above. On rpca_m this takes 24 to 36 iterations where the period rule
    alone took 51 to 173 (criterion 8 and 20^4 instances). On the other
    models it slows the solve down, and without the band gate it runs
    rpca_m on a random tensor out of its budget.

    Memory: the driver allocates two complex arrays of x's shape, both
    before the first x step, and none per iteration: the scaled dual u,
    starting at zero, and one work buffer. The work buffer holds
    v = z + c - u, then w = x - c + u, then the new u = w - z, while the
    old u's buffer takes r = u_new - u_old (the primal residual x - z - c)
    and the two swap; z - z_old is formed in z_old's buffer.
    A scalar zero c (complete_n, complete_supersym) adds no pass at all.
    Every norm is one dot product over the array's memory (_norm).

    Returns (x, z, iters, converged, trace, dual), dual being the final
    unscaled dual rho * u, written over u's buffer (Boyd et al.'s y for
    the constraint x - z - c = 0), or None when no iteration ran.
    """
    if scale == 0.0 or cfg.max_iters < 1:
        return z0 + c, z0, 0, scale == 0.0, [], None
    zero_c = np.isscalar(c) and c == 0.0
    rho = PENALTY_SCALE / scale
    n = int(np.prod(shape))
    k = np.sqrt(n / z0.size)  # copies of each z entry in the constraint
    c_term = np.sqrt(n / np.size(c)) * _norm(c)
    abs_pri = ABS_TOL * scale
    abs_dua = np.sqrt(n) * ABS_TOL
    tiny = np.finfo(float).tiny
    u = np.zeros(shape, dtype=np.complex128)  # the scaled dual
    work = np.empty(shape, dtype=np.complex128)
    z, trace = z0, []
    for it in range(1, cfg.max_iters + 1):
        if zero_c:
            v = np.subtract(z, u, out=work)
        else:
            v = np.add(z, c, out=work)
            v -= u
        x = None  # the last x is dead, so x_step may reuse its memory
        x = x_step(v, rho)
        if zero_c:
            w = np.add(x, u, out=work)
        else:
            w = np.subtract(x, c, out=work)
            w += u
        z_new = z_step(w, rho)
        w -= z_new  # the new u
        r = np.subtract(w, u, out=u)  # x - z - c, in the old u's buffer
        u, work = w, r
        r_pri = _norm(r)
        # z - z_old in the old z's buffer, which is then released
        r_dua = rho * k * _norm(np.subtract(z_new, z, out=z))
        z = z_new
        size_pri = max(_norm(x), k * _norm(z), c_term)
        rel_pri = r_pri / max(size_pri, tiny)
        trace.append(rel_pri)
        size_dua = rho * _norm(u)
        pri_ok = r_pri <= abs_pri + cfg.rel_tol * size_pri
        dua_ok = r_dua <= abs_dua + cfg.rel_tol * size_dua
        if pri_ok and dua_ok:
            return x, z, it, True, trace, np.multiply(u, rho, out=u)
        rel_dua = r_dua / max(size_dua, tiny)
        if grow and not pri_ok and rel_dua <= BALANCE_BAND * rel_pri:
            step = BALANCE_FACTOR
        elif it % BALANCE_PERIOD:
            continue
        elif not pri_ok and (dua_ok or rel_pri > BALANCE_BAND * rel_dua):
            step = BALANCE_FACTOR
        elif not dua_ok and (pri_ok or rel_dua > BALANCE_BAND * rel_pri):
            step = 1.0 / BALANCE_FACTOR
        else:
            continue
        rho *= step
        u /= step  # rho * u, the unscaled dual, is unchanged
    return x, z, it, False, trace, np.multiply(u, rho, out=u)


def _mode_model(t):
    """The x side of the mode-unfolding models on the tensor t: the d-fold
    stack of mode copies, x_step writing into it, and the largest spectral
    norm of t's mode unfoldings, the driver's scale, read off each mode's
    Gram spectrum (linalg.mode_spectrum) without unfolding. x_step sets
    stack[j] to the (1/d)-weighted nuclear-norm prox of v[j] on mode
    unfolding j (linalg.mode_svt), written straight into the stack."""
    d = t.ndim
    stack = np.zeros((d,) + t.shape, dtype=np.complex128)

    def x_step(v, rho):
        for j in range(d):
            mode_svt(v[j], j, (1.0 / d) / rho, out=stack[j])
        return stack

    return stack, x_step, max(mode_spectrum(t, j)[0].max(initial=0.0) for j in range(d))


def complete_n(mask: Mask, values, cfg: SolverConfig | None = None,
               truth=None) -> SolveResult:
    """Complete a tensor by minimizing the (1/d)-weighted sum of the mode
    unfoldings' nuclear norms: consensus ADMM with x the d mode copies
    (stacked, one mode_svt per mode per iteration) and z the consensus
    tensor, x_j - z = 0. The consensus keeps observed entries pinned to the
    data, so the result is exactly feasible."""
    cfg = cfg or SolverConfig()
    dims = mask.dims
    b, e = _unit_scale(values, "observed values")
    x0 = mask.fill(b)

    def z_step(w, rho):
        zf = w.mean(axis=0).reshape(-1, order="F")
        zf[mask.flat] = b
        return zf.reshape(dims, order="F")

    stack, x_step, sigma0 = _mode_model(x0)
    _, z, it, conv, trace, _ = _admm(stack.shape, 0.0, x_step, z_step, x0, sigma0, cfg)
    # observed entries pinned exactly
    return _result(z, e, it, conv, truth, 0.0, trace)


def rpca_m(t, pairing: Pairing | None = None, cfg: SolverConfig | None = None,
           truth=None) -> SolveResult:
    """Split a tensor into low-rank + sparse parts on a square unfolding:
    minimize ||Y||_* + lam * sum|Z_ij| subject to Y + Z = unfold(t).
    ADMM with x = Y (svt), z = -Z (modulus soft thresholding, which is odd)
    and c = unfold(t), growing its penalty while the primal test fails
    (_admm's grow). duality_gap is the certified relative gap at the
    returned split (_rpca_m_gap)."""
    cfg = cfg or SolverConfig()
    t = as_tensor(t)
    e = _unit_exponent(t, "data")
    pr = Pairing.default(t.ndim) if pairing is None else pairing
    # the scaled unfolding, written once into a new array: C order, like
    # svt's outputs and the driver's buffers, so the driver's passes over f
    # run on one layout
    f = np.multiply(square_unfold(t, pr), 2.0 ** -e, order="C")
    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(f.shape[0])
    warm = SvtWarm()
    y, z, it, conv, trace, dual = _admm(
        f.shape, f, lambda v, rho: svt(v, 1.0 / rho, warm),
        lambda w, rho: complex_soft_threshold(w, lam / rho),
        np.zeros_like(f), spectral_norm(f), cfg, grow=True)
    return _result(square_fold(y, t.shape, pr), e, it, conv, truth, _rel_err(y - z, f),
                   trace, sparse=square_fold(-z, t.shape, pr),
                   duality_gap=_rpca_m_gap(f, y, warm.s, dual, lam))


def _rpca_m_gap(f, y, spectrum, dual, lam) -> float:
    """Certified relative duality gap of rpca_m at the feasible split
    (Y, F - Y), Y = y with singular values `spectrum`: (P - D) / P with
    P = ||Y||_* + lam * ||F - Y||_1 and D = Re<L, F>, L the driver's final
    dual made feasible for the dual problem
        max Re<L, F> subject to ||L||_2 <= 1, max|L_ij| <= lam
    (Candes, Li, Ma and Wright 2011). The driver hands back dual =
    rho * u, and L = -dual divided by max(1, max|L_ij| / lam, ||L||_2): the
    soft threshold keeps L in the box already, so the spectral norm is the
    divisor that matters. D <= the optimum <= P, so the gap bounds the
    relative suboptimality of P. F - Y is formed in the dual's buffer once
    the dual is read. Without an iteration (dual None) Y = F and the zero
    dual certify a gap of 1, or 0 for zero data."""
    if dual is None:
        return float(f.any())
    norm = max(1.0, float(np.abs(dual).max()) / lam, spectral_norm(dual))
    d = -np.vdot(dual, f).real / norm
    p = float(spectrum.sum()) + lam * complex_l1(np.subtract(f, y, out=dual))
    return (p - d) / p


def rpca_n(t, cfg: SolverConfig | None = None, truth=None) -> SolveResult:
    """Mode-unfolding analogue of rpca_m: minimize (1/d) * sum_j ||W_j||_*
    over mode unfoldings plus lam * l1 of the sparse part Z, with every
    W_j + Z = t. ADMM with x the stacked W_j, z = -Z shared by all of them
    and c = t. lam defaults to 1/sqrt(n1*n2) as in rpca_m."""
    cfg = cfg or SolverConfig()
    t, e = _unit_scale(t, "data")
    dims = t.shape
    d = t.ndim
    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(dims[0] * dims[1])
    stack, x_step, sigma0 = _mode_model(t)
    _, z, it, conv, trace, _ = _admm(
        stack.shape, t, x_step,
        lambda w, rho: complex_soft_threshold(w.mean(axis=0), lam / (d * rho)),
        np.zeros_like(t), sigma0, cfg)
    y = stack.mean(axis=0)
    return _result(y, e, it, conv, truth, _rel_err(y - z, t), trace, sparse=-z)


def complete_supersym(mask: Mask, values, cfg: SolverConfig | None = None,
                      truth=None) -> SolveResult:
    """Complete a super-symmetric tensor: minimize the nuclear norm of the
    square unfolding over tensors that are super-symmetric and match the
    observed entries.

    ADMM with x the unfolding (svt step) and z the constrained tensor,
    x - z = 0. The projection onto {super-symmetric} intersect {observed
    entries fixed} has a closed form because both sets are affine and
    symmetry means constancy on index-permutation orbits (tensor.orbit_ids):
    free orbits take their orbit mean, observed orbits take their observed
    value. The returned tensor is therefore exactly super-symmetric and
    exactly feasible.

    Raises ValueError when observed values disagree inside one orbit beyond
    FEAS_TOL (relative): no super-symmetric tensor can match such data.
    """
    cfg = cfg or SolverConfig()
    dims = mask.dims
    if len(set(dims)) > 1 or len(dims) % 2:
        raise ValueError(f"needs a cubical even-order tensor, got dims {dims}")
    b, e = _unit_scale(values, "observed values")
    ids = orbit_ids(dims)
    counts = np.bincount(ids)
    n_orb = counts.size

    ob_ids = ids[mask.flat]
    ob_cnt = np.bincount(ob_ids, minlength=n_orb)
    observed = ob_cnt > 0
    ob_val = np.zeros(n_orb, dtype=np.complex128)
    ob_val[observed] = orbit_sum(b, ob_ids, n_orb)[observed] / ob_cnt[observed]
    spread = np.abs(b - ob_val[ob_ids])
    scale = float(np.abs(b).max(initial=np.finfo(float).tiny))
    if b.size and spread.max() > FEAS_TOL * scale:
        raise ValueError(
            "observed values are inconsistent under symmetry "
            f"(max in-orbit spread {spread.max():.2e}); no super-symmetric "
            "tensor matches the data"
        )

    nrow, ncol = Pairing.default(len(dims)).matrix_shape(dims)

    def z_step(w, rho):
        vals = orbit_sum(w.reshape(-1, order="F"), ids, n_orb) / counts
        vals[observed] = ob_val[observed]
        return vals[ids].reshape(nrow, ncol, order="F")

    z0 = z_step(np.zeros((nrow, ncol), dtype=np.complex128), None)
    warm = SvtWarm()
    _, z, it, conv, trace, _ = _admm(
        z0.shape, 0.0, lambda v, rho: svt(v, 1.0 / rho, warm), z_step, z0,
        spectral_norm(z0), cfg)
    # projection pins observed orbits exactly
    return _result(square_fold(z, dims), e, it, conv, truth, 0.0, trace)
