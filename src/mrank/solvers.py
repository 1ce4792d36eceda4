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

All are deterministic. Every array a solver iterates on is C-ordered,
whatever the layout of its input, and observed entries are addressed by
C-order flat indices computed once per solve (_sample_flat): complete_m
and complete_supersym index the square unfolding, complete_n the tensor.
The square models take their pairing through _square_axes, which checks
it against the tensor's order and gives the axis order in which the
tensor's C layout is its C-ordered square unfolding.

Any finite magnitude is supported, from the smallest normal double to the
largest: each solver runs on its data times 2^-e, e the binary exponent of
the largest modulus (tensor._unit_scale), and multiplies its results back
by 2^e, so no square or norm inside a solve can overflow or underflow, and
a solve takes the same steps at every scale (bitwise, times 2^e, for data
scaled by a power of two). The pass that reads that modulus is also the
data's finiteness check: NaN or Inf raises ValueError on entry, naming the
count (tensor._unit_exponent). Errors against the truth and the rank
report are taken at the solve's scale. rpca_m and rpca_n write their
scaled data once, into a new C-ordered array (rpca_m reads the tensor in
_square_axes's order, so that array is its unfolding), and every solver
scales its results back in place (_result).

complete_n, rpca_m, rpca_n and complete_supersym are one consensus ADMM
driver, _admm, run on d blocks x_j - z = c with two prox steps each: d = 1
for the square models, and d = the order for the mode models, whose blocks
are the mode copies (see its docstring for the variables of each model).
It owns the penalty, the dual update, the stopping test and the trace, and
runs the blocks one at a time. No block-sized array is allocated per
iteration, by _admm or by a z step, beyond the prox kernels' own work
arrays (svt's factors, the soft threshold's real factor of at most
linalg.SHRINK_BLOCK entries): besides the blocks _admm keeps z, the d
scaled duals and two block buffers (one for d = 1); each z step writes its
prox over the blocks' mean, which _admm hands it in one of its buffers,
and _admm rotates z's old buffer into that role. The initial penalty is
made scale-invariant by dividing by the spectral norm of the data
unfolding, and both stopping tolerances are relative to that norm, so the
dimensionless defaults work, and a solve takes the same steps, at any data
scale. From there, residual balancing moves the penalty by factors of two
when the primal and dual residuals drift far apart, or when one stopping
test passes and the other does not (see _admm): the first is what lets the
complete_n baseline meet its dual test, the second what stops rpca_m's
primal residual from crawling once its dual test has passed. rpca_m alone
moves its penalty faster, through _admm's grow keyword: rho doubles after
every iteration whose primal test fails while the relative dual residual
stays within BALANCE_BAND of the primal one, as in the inexact augmented
Lagrangian method for this model (Lin, Chen and Ma 2010), which grows it
every iteration. The band gate keeps inputs with no low-rank + sparse
structure converging. rpca_m also certifies its answer:
SolveResult.duality_gap is the relative gap between its primal value and
the value of the driver's final dual, made dual feasible (see
_rpca_m_gap). All five solvers build their SolveResult with _result.

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

from .linalg import (OVERSAMPLE, SvtWarm, _check_rel_tol, complex_l1,
                     complex_soft_threshold, mode_spectrum, mode_svt, rank_project,
                     spectral_norm, svt)
from .ranks import RECOVERED_RANK_TOL, RankReport, m_ranks
from .synth import Mask
from .tensor import (
    Pairing,
    _resolve_pairing,
    _unit_exponent,
    _unit_scale,
    as_tensor,
    orbit_ids,
    orbit_sum,
    square_fold,
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
    randomness. Every solver checks the config on entry, before it reads
    its data, field by field in this order (solvers._CONFIG_RULES):
    max_iters must be an integer >= 0, rel_tol finite and >= 0, and lam
    None or finite and > 0, or ValueError names the first bad field and
    its value.
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


def _check_max_iters(max_iters, name: str) -> None:
    """An iteration budget is an integer >= 0, or ValueError names it as
    `name` (the field, or the CLI's flag)."""
    if not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {max_iters}")


def _check_lam(lam, name: str) -> None:
    """A sparsity weight is None (the default) or finite and > 0, or
    ValueError names it as `name` (the field, or the CLI's flag)."""
    if lam is not None and not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"{name} must be None or finite and > 0, got {lam}")


# each SolverConfig field with its range rule, in field order: _checked
# checks them in this order, and the CLI checks the flag of each field's
# name with the same rule
_CONFIG_RULES = (("max_iters", _check_max_iters), ("rel_tol", _check_rel_tol), ("lam", _check_lam))


def _checked(cfg: SolverConfig | None) -> SolverConfig:
    """cfg, or the default config when None, after a check of its fields:
    ValueError names the first bad field and its value."""
    cfg = cfg or SolverConfig()
    for name, check in _CONFIG_RULES:
        check(getattr(cfg, name), name)
    return cfg


def _check_truth(truth, dims) -> None:
    """Reject, before the solve, a truth that would broadcast in _result."""
    if truth is not None and np.shape(truth) != tuple(dims):
        raise ValueError(f"truth shape {np.shape(truth)} != data shape {tuple(dims)}")


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


def _square_axes(pairing: Pairing | None, order: int):
    """(pr, axes) for a square solver on a tensor of the given order: pr is
    the pairing, the default one when None, and ValueError is raised when
    its order differs; axes is the axis order in which a C-ordered tensor's
    memory is its C-ordered square unfolding under pr, each group reversed,
    since square_unfold merges a group's indices first-index-fastest."""
    pr = _resolve_pairing(pairing, order)
    return pr, pr.row[::-1] + pr.col[::-1]


def _sample_flat(mask: Mask, axes) -> np.ndarray:
    """The observed entries' C-order flat indices in the tensor with its
    axes taken in the order axes: positions in the C-ordered square
    unfolding for _square_axes's order, in the C-ordered tensor for
    range(order)."""
    multi = mask.multi_indices()
    return np.ravel_multi_index([multi[a] for a in axes], [mask.dims[a] for a in axes])


def _sampled(m, flat):
    """The entries of the C-ordered unfolding m at the C-order flat indices,
    read through a view of m."""
    return m.reshape(-1)[flat]


def _residual_grad(x, flat, b):
    """Gradient of 0.5*||P_obs(x) - b||^2 in matrix form (C order), plus the
    residual norm."""
    g = np.zeros(x.shape, dtype=x.dtype)
    r = _sampled(x, flat) - b
    g.reshape(-1)[flat] = r
    return g, float(np.linalg.norm(r))


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
    tensor, and residual_trace[-1] when iters > 0. Zero data, or a mask
    that observes every entry, returns the data at once: 0 iterations,
    converged.
    """
    cfg = _checked(cfg)
    mask.check(values)
    pr, axes = _square_axes(pairing, len(mask.dims))
    _check_truth(truth, mask.dims)
    b, e = _unit_scale(values, "observed values")
    flat = _sample_flat(mask, axes)
    nrow, ncol = pr.matrix_shape(mask.dims)
    x = np.zeros((nrow, ncol), dtype=np.complex128)
    x.reshape(-1)[flat] = b
    # zero data, whose optimum is zero, or every entry observed, where the
    # data is the only feasible point (the masked gradient steps would
    # crawl to it, by a factor of GRAD_STEP - 1 per step)
    if b.size == x.size or (sigma0 := spectral_norm(x)) == 0.0:
        return _result(square_fold(x, mask.dims, pr), e, 0, True, truth, 0.0, [])
    bscale = max(float(np.linalg.norm(b)), np.finfo(float).tiny)

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


def _sq_norm(a) -> float:
    """||a||_F^2 as one dot product over a's memory, in whatever order it is
    laid out; np.linalg.norm makes two passes over a complex array."""
    a = np.ravel(a, order="K")
    return float(np.vdot(a, a).real)


def _norm(a) -> float:
    """||a||_F through _sq_norm."""
    return float(np.sqrt(_sq_norm(a)))


def _admm(d: int, c, x_step, z_step, z0, scale: float, cfg: SolverConfig, *,
          grow: bool = False):
    """Scaled-form consensus ADMM for min sum_j f_j(x_j) + g(z) subject to
    x_j - z = c for j = 0..d-1 (Boyd et al. 2011, sections 3.1.1 and 7.1),
    the one loop behind complete_n, rpca_m, rpca_n and complete_supersym.

    x_step(j, v, rho) = prox_{f_j/rho}(v) and z_step(w, rho) =
    prox_{g/(d rho)}(w), w the mean of the blocks x_j - c + u_j. x_step
    only reads v, whose buffer the loop reuses, and returns an array
    that does not alias it (it may reuse its own buffer for block j from
    call to call). z_step writes its result over w and returns w: w is a
    buffer the loop owns, and the loop rotates its buffers rather than
    receive a new z. z0 becomes one of those buffers, so it is
    overwritten. Every block x_j, v, w, z and c have z0's shape (c may
    also be the scalar 0), and the constraint's norms count the d blocks.
    One memory layout: z0, c and every x_step result are C-contiguous, as
    are the driver's own buffers, so no pass mixes layouts. The models:

        complete_n         d = order; x_j = mode copy j (mode_svt); z = the
                           consensus tensor with observed entries pinned; c = 0
        rpca_m             d = 1; x = Y; z = -Z; c = the data unfolding F
        rpca_n             d = order; x_j = W_j, the mode copies; z = -Z; c = t
        complete_supersym  d = 1; x = svt(z - u); z = the orbit projection;
                           c = 0

    Soft thresholding is odd, so z = -Z needs no sign handling in the robust
    z steps. With x and u the d blocks stacked, the loop stops when
    r_pri = ||x - z - c|| <= e_pri and r_dua = rho * sqrt(d) * ||z - z_old||
    <= e_dua, with
        e_pri = ABS_TOL * scale + rel_tol * max(||x||, sqrt(d) ||z||, sqrt(d) ||c||)
        e_dua = sqrt(n) * ABS_TOL + rel_tol * rho * ||u||
    over the n constraint entries, scale being the spectral norm of the
    data that the caller passes. ABS_TOL is dimensionless in both: e_pri
    is in data units through scale, and e_dua is dimensionless, like r_dua,
    since rho scales as 1 / scale. So a solve takes the same steps on data
    multiplied by any factor. Each iteration logs r_pri over the relative
    part of e_pri's scale. Without an iteration to run (zero scale, which
    means zero data, or cfg.max_iters below 1) every block is z0 + c, z is
    z0, and 0 iterations are returned, converged only for zero data, where
    that is the feasible optimum.

    The penalty starts at rho = PENALTY_SCALE / scale and is balanced on
    the residuals (Boyd et al. 2011, section 3.4.1; He, Yang and Wang 2000;
    relative form as in Wohlberg 2017, "ADMM penalty parameter selection by
    residual balancing"). Every BALANCE_PERIOD iterations that end
    unconverged, rho steps toward the failing residual: it is multiplied
    by BALANCE_FACTOR when the primal test fails and either the dual test
    passes or the relative primal residual
    r_pri / max(||x||, sqrt(d) ||z||, sqrt(d) ||c||) exceeds BALANCE_BAND
    times the relative dual residual r_dua / (rho * ||u||), and divided by
    it in the mirror case. u is rescaled by old/new rho at the change, so
    the unscaled dual rho * u is continuous. The wide band moves a penalty
    far off balance, as in the fixed-penalty complete_n, whose primal
    residual met its tolerance long before its dual one and ran out its
    budget. The tolerance gate (exactly one test passes) moves a penalty
    whose residuals stay within the band but shrink at different rates, as
    in rpca_m, whose primal residual crawled for a hundred iterations after
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

    Memory: besides the blocks x_j, the loop keeps the d scaled duals u_j,
    starting at zero, z, and two block buffers v and w (one, v = w, when
    d = 1), all allocated before the first x step, z0 being z's. It
    allocates no array per iteration, and a z step writes over w (the prox
    kernels keep their own work arrays, such as complex_soft_threshold's
    real factor of at most SHRINK_BLOCK entries). Each iteration runs the
    blocks twice. The first pass forms v = z + c - u_j, takes
    x_j = x_step(j, v, rho), and adds x_j - c + u_j into w, which then holds
    the blocks' mean for z_step (for d = 1, w is v). z_step turns w into
    z_new, and z_new - z_old is formed in z_old's buffer for r_dua; that
    buffer is then the next w (and, for d = 1, the next v), and z_new is z.
    The second pass forms r_j = x_j - z_new - c in v and adds it into u_j.
    So complete_n and rpca_n hold the stack of mode copies, the d duals and
    three single blocks (v, w, z); rpca_m and complete_supersym hold x, u, v
    and z. A scalar zero c (complete_n, complete_supersym) adds no pass at
    all. Every norm is one dot product over the array's memory (_norm),
    summed over the blocks for x and r.

    Returns (xs, z, iters, converged, trace, dual), xs the d blocks x_j and
    dual the final unscaled dual rho * u (Boyd et al.'s y for the
    constraint x - z - c = 0), written over u's buffer: the d-fold stack,
    or for d = 1 the one block; None when no iteration ran.
    """
    if scale == 0.0 or cfg.max_iters < 1:
        return (z0 + c,) * d, z0, 0, scale == 0.0, [], None
    zero_c = np.isscalar(c) and c == 0.0
    rho = PENALTY_SCALE / scale
    n = d * z0.size
    k = np.sqrt(d)  # copies of each z entry in the constraint
    c_term = k * _norm(c)
    abs_pri = ABS_TOL * scale
    abs_dua = np.sqrt(n) * ABS_TOL
    tiny = np.finfo(float).tiny
    u = np.zeros((d,) + z0.shape, dtype=np.complex128)  # the scaled duals
    v = np.empty(z0.shape, dtype=np.complex128)
    w = v if d == 1 else np.empty_like(v)
    xs = [None] * d
    z, trace = z0, []
    del z0  # z's buffer, which the rotation below turns into w
    for it in range(1, cfg.max_iters + 1):
        sq_x = 0.0
        for j in range(d):
            if zero_c:
                np.subtract(z, u[j], out=v)
            else:
                np.add(z, c, out=v)
                v -= u[j]
            xs[j] = None  # the last x_j is dead, so x_step may reuse its memory
            x = xs[j] = x_step(j, v, rho)
            sq_x += _sq_norm(x)
            # x_j - c + u_j: straight into w for the first block, then
            # through v (read by x_step already) and added into w
            b = v if j else w
            if zero_c:
                np.add(x, u[j], out=b)
            else:
                np.subtract(x, c, out=b)
                b += u[j]
            if j:
                w += b
        if d > 1:
            w /= d
        z_new = z_step(w, rho)  # over w
        # z - z_old in the old z's buffer, which then serves as w, and for
        # d = 1 as v, whose old buffer z_new has taken
        r_dua = rho * k * _norm(np.subtract(z_new, z, out=z))
        w, z = z, z_new
        if d == 1:
            v = w
        sq_pri = 0.0
        for j in range(d):
            r = np.subtract(xs[j], z, out=v)  # x_j - z - c
            if not zero_c:
                r -= c
            u[j] += r
            sq_pri += _sq_norm(r)
        r_pri = np.sqrt(sq_pri)
        size_pri = max(np.sqrt(sq_x), k * _norm(z), c_term)
        rel_pri = r_pri / max(size_pri, tiny)
        trace.append(rel_pri)
        size_dua = rho * _norm(u)
        pri_ok = r_pri <= abs_pri + cfg.rel_tol * size_pri
        dua_ok = r_dua <= abs_dua + cfg.rel_tol * size_dua
        if pri_ok and dua_ok:
            return xs, z, it, True, trace, _dual(u, rho)
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
    return xs, z, it, False, trace, _dual(u, rho)


def _dual(u, rho):
    """The unscaled dual rho * u over u's buffer: the stack of d blocks, or
    the one block when d = 1."""
    u *= rho
    return u if len(u) > 1 else u[0]


def _mode_model(t):
    """The x side of the mode-unfolding models on the tensor t: the d-fold
    stack of mode copies, x_step writing into it, and the largest spectral
    norm of t's mode unfoldings, the driver's scale, read off each mode's
    Gram spectrum (linalg.mode_spectrum) without unfolding. x_step(j, v,
    rho) sets stack[j] to the (1/d)-weighted nuclear-norm prox of the
    tensor v on mode unfolding j (linalg.mode_svt), written straight into
    the stack, and returns that slice. Odd order raises ValueError, as for
    the square models."""
    d = t.ndim
    if d % 2:
        raise ValueError(f"order must be even, got {d}")
    stack = np.zeros((d,) + t.shape, dtype=np.complex128)

    def x_step(j, v, rho):
        return mode_svt(v, j, (1.0 / d) / rho, out=stack[j])

    return stack, x_step, max(mode_spectrum(t, j)[0].max(initial=0.0) for j in range(d))


def complete_n(mask: Mask, values, cfg: SolverConfig | None = None,
               truth=None) -> SolveResult:
    """Complete a tensor by minimizing the (1/d)-weighted sum of the mode
    unfoldings' nuclear norms: consensus ADMM with x the d mode copies
    (stacked, one mode_svt per mode per iteration) and z the consensus
    tensor, x_j - z = 0. The consensus keeps observed entries pinned to the
    data, so the result is exactly feasible."""
    cfg = _checked(cfg)
    mask.check(values)
    dims = mask.dims
    _check_truth(truth, dims)
    b, e = _unit_scale(values, "observed values")
    flat = _sample_flat(mask, range(len(dims)))

    def z_step(w, rho):
        w.reshape(-1)[flat] = b
        return w

    x0 = z_step(np.zeros(dims, dtype=np.complex128), None)
    x_step, sigma0 = _mode_model(x0)[1:]
    z, it, conv, trace = _admm(len(dims), 0.0, x_step, z_step, x0, sigma0, cfg)[1:5]
    # the stack goes with x_step, the dual with _admm's tuple, and x0, a
    # buffer of _admm's that may be dead by now, before the rank report
    del x_step, x0
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
    cfg = _checked(cfg)
    t = as_tensor(t)
    _check_truth(truth, t.shape)
    pr, axes = _square_axes(pairing, t.ndim)
    e = _unit_exponent(t, "data")
    # the scaled unfolding, written once: t read in the order axes into a
    # new C-ordered array, which is then square_unfold(t, pr) as it lies
    f = np.multiply(t.transpose(axes), 2.0 ** -e, order="C").reshape(pr.matrix_shape(t.shape))
    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(f.shape[0])
    warm = SvtWarm()
    (y,), z, it, conv, trace, dual = _admm(
        1, f, lambda j, v, rho: svt(v, 1.0 / rho, warm),
        lambda w, rho: complex_soft_threshold(w, lam / rho, out=w),
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
    and c = t, t's scaled copy written in C order. lam defaults, as in
    rpca_m, to 1/sqrt of the square unfolding's row count, n_1 * ... *
    n_(d/2) (n1*n2 at order 4)."""
    cfg = _checked(cfg)
    t = as_tensor(t)
    _check_truth(truth, t.shape)
    e = _unit_exponent(t, "data")
    t = np.multiply(t, 2.0 ** -e, order="C")
    d = t.ndim
    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(np.prod(t.shape[:d // 2]))
    stack, x_step, sigma0 = _mode_model(t)
    xs, z, it, conv, trace = _admm(
        d, t, x_step, lambda w, rho: complex_soft_threshold(w, lam / (d * rho), out=w),
        np.zeros_like(t), sigma0, cfg)[:5]
    # without an iteration every block is the data (_admm), and the stack
    # was never written
    y = stack.mean(axis=0) if it else xs[0]
    # the stack and, with _admm's tuple, the dual go before the rank report
    del stack, x_step, xs
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
    cfg = _checked(cfg)
    mask.check(values)
    dims = mask.dims
    if len(set(dims)) > 1 or len(dims) % 2:
        raise ValueError(f"needs a cubical even-order tensor, got dims {dims}")
    _check_truth(truth, dims)
    b, e = _unit_scale(values, "observed values")
    # the orbit id of every entry of the unfolding, in C order: an entry's
    # C-order flat index spells, in base n, a permutation of its tensor
    # multi-index, so orbit_ids's own layout names the same orbits
    ids = orbit_ids(dims)
    counts = np.bincount(ids)
    n_orb = counts.size

    pr, axes = _square_axes(None, len(dims))
    ob_ids = ids[_sample_flat(mask, axes)]
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

    nrow, ncol = pr.matrix_shape(dims)

    def z_step(w, rho):
        vals = orbit_sum(w.reshape(-1), ids, n_orb) / counts
        vals[observed] = ob_val[observed]
        # ids are valid by construction; numpy's default mode="raise"
        # buffers a full-size copy to write into out
        np.take(vals, ids, out=w.reshape(-1), mode="clip")
        return w

    z0 = z_step(np.zeros((nrow, ncol), dtype=np.complex128), None)
    warm = SvtWarm()
    z, it, conv, trace = _admm(
        1, 0.0, lambda j, v, rho: svt(v, 1.0 / rho, warm), z_step, z0,
        spectral_norm(z0), cfg)[1:5]
    del z0  # a buffer of _admm's that may be dead by now
    # projection pins observed orbits exactly
    return _result(square_fold(z, dims, pr), e, it, conv, truth, 0.0, trace)
