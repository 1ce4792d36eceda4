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

All are deterministic. Every solver enters through _entry, which checks,
in this order, the config (_checked), the shape (order >= 2 and no
zero-length axis), the pairing (the default one when None, which refuses
odd order for the mode models as for the square ones) and the truth's
shape, raising ValueError for the first that fails, before any data is
read. The sampled solvers then check the values against the mask
(Mask.check); complete_supersym checks before all of these that its mask
is cubical of even order. Every array a solver iterates on is C-ordered,
whatever the layout of its input: _entry also gives the axis order in
which a C-ordered tensor's memory is the model's C-ordered data, the
square unfolding under the pairing or the tensor itself. Observed entries
are addressed by C-order flat indices in that order, computed once per
solve (_sampled_entry): complete_m and complete_supersym index the square
unfolding, complete_n the tensor.

Any finite magnitude is supported, from the smallest normal double to the
largest: each solver runs on its data times 2^-e, e the binary exponent of
the largest modulus (tensor._unit_scale), and multiplies its results back
by 2^e, so no square or norm inside a solve can overflow or underflow, and
a solve takes the same steps at every scale (bitwise, times 2^e, for data
scaled by a power of two). The pass that reads that modulus is also the
data's finiteness check: NaN or Inf raises ValueError on entry, naming the
count (tensor._unit_exponent). Errors against the truth and the rank
report are taken at the solve's scale. rpca_m and rpca_n write their
scaled data once, into a new C-ordered array, reading the tensor in
_entry's axis order (so for rpca_m that array is its unfolding), and every
solver scales its results back in place (_result).

complete_n, rpca_m, rpca_n and complete_supersym are one convex solve,
_convex, which runs one consensus ADMM driver, _admm, on d blocks
x_j - z = c with two prox steps each. Each solver supplies only its model,
its c (None for completion, x_j - z = 0) and its z step:

    complete_n         the mode copies (d = the order), c None; z step:
                       pin the observed entries
    rpca_m             the square unfolding (d = 1), c = the unfolding;
                       z step: soft threshold at lam / rho
    rpca_n             the mode copies, c = the tensor; z step: soft
                       threshold at lam / (d rho)
    complete_supersym  the symmetric compression of the square
                       unfolding, c None; z step: the orbit mean, with the
                       observed orbits pinned

The square model's x step is svt of the unfolding under the solver's
pairing, the mode model's the stacked mode copies' mode_svt (_mode_model).
rpca_m and rpca_n share their entry and their lam default, 1/sqrt of the
rows of the pairing's unfolding (_rpca); the sampled solvers share theirs
(_sampled_entry). _convex owns everything else: the start point z0 (the
pinned zeros for completion, zero for the split), the driver's scale read
off the data, the one _admm call, the memory the solve drops before its
rank report, and the SolveResult. _admm owns the penalty, the dual
update, the stopping test and the trace, and runs the blocks one at a
time.

complete_supersym runs on a compression of its unfolding. For an
order-2h tensor with every dim n, its unfolding M has rows and columns in
the symmetric tensors Sym^h, of dimension m = C(n + h - 1, h) in place of
n^h: z is constant on index-permutation orbits, and svt and the dual
update keep x and u in Sym^h (x) Sym^h (Comon, Golub, Lim and Mourrain
2008 use the same space for symmetric tensors). So it runs on the
compression A = P^T M P, P the n^h x m isometry whose column for row orbit
o is o's indicator over sqrt(|o|): A = wt * M[reps][:, reps], reps one row
of each orbit and wt[o, p] = sqrt(|o| |p|), and M = P A P^T. Norms,
spectral norms and svt commute with P, so the solve takes the same steps
on m x m matrices (210 x 210 in place of 400 x 400 at 20^4, 220 x 220 in
place of 1000 x 1000 at 10^6); only the stopping test's absolute dual term
still counts the whole unfolding's entries.

No block-sized array is allocated per iteration, by _admm or by a z step,
beyond the prox kernels' own work arrays (svt's factors, the soft
threshold's real factor of at most linalg.SHRINK_BLOCK entries): besides
the blocks _admm keeps z, the d scaled duals and one spare block; each z
step writes its prox over the blocks' mean, which _admm sums in place in
the spare, and _admm rotates z's old buffer into that role. The initial
penalty is made scale-invariant by dividing by the spectral norm of the
data unfolding, and both stopping tolerances are relative to that norm, so
the dimensionless defaults work, and a solve takes the same steps, at any
data scale. From there, residual balancing moves the penalty by factors
of two when the primal and dual residuals drift far apart, or when one stopping test passes and the other does not
(see _admm): the first is what lets the complete_n baseline meet its dual
test, the second what stops rpca_m's primal residual from crawling once
its dual test has passed. rpca_m alone moves its penalty faster, through
_admm's grow keyword: rho doubles after every iteration whose primal test
fails while the relative dual residual stays within BALANCE_BAND of the
primal one, as in the inexact augmented Lagrangian method for this model
(Lin, Chen and Ma 2010), which grows it every iteration. The band gate
keeps inputs with no low-rank + sparse structure converging. rpca_m also
certifies its answer: SolveResult.duality_gap is the relative gap between
its primal value and the value of the driver's final dual, made dual
feasible (see _rpca_m_gap). complete_m and _convex build every SolveResult
with _result.

Every svt call site keeps its own SvtWarm, created inside the solve, so
consecutive iterations warm-start the kernel and concurrent solves share
nothing. In practice rpca_m's square 400x400 iterates and
complete_supersym's 210x210 ones, whose kept rank stays small, take the
warm subspace route, and complete_m's 100x100 continuation iterates keep
too high a rank for it and stay on the full SVD (see linalg.svt). complete_n and rpca_n
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

import math
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


def _entry(cfg, dims, truth, pairing, square: bool = True):
    """The entry checks of every solver, in this order: the config
    (_checked); the shape, as order < 2 or a zero-length axis leaves no
    unfolding to solve on; the pairing, the default one when None, which
    refuses odd order (_resolve_pairing); and the truth's shape, which
    would otherwise broadcast in _result. Returns (cfg, pr, axes): the
    checked config, the pairing (None for the mode model) and the axis
    order in which a C-ordered tensor's memory is the model's C-ordered
    data: pr's groups each reversed, since square_unfold merges a group's
    indices first-index-fastest, or range(order) for the mode model."""
    cfg = _checked(cfg)
    if len(dims) < 2 or 0 in dims:
        raise ValueError(f"needs order >= 2 and no zero-length axis, got shape {tuple(dims)}")
    pr = _resolve_pairing(pairing, len(dims))
    if truth is not None and np.shape(truth) != tuple(dims):
        raise ValueError(f"truth shape {np.shape(truth)} != data shape {tuple(dims)}")
    return (cfg, pr, pr.row[::-1] + pr.col[::-1]) if square else (cfg, None, range(len(dims)))


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


def _sampled_entry(mask: Mask, values, cfg, truth, pairing, square: bool = True):
    """The entry of the sampled solvers: _entry's checks on the mask's
    shape, then the values against the mask (Mask.check), then the values
    scaled. Returns (cfg, pr, b, e, flat): _entry's config and pairing,
    the observed values times 2^-e (_unit_scale) and their C-order flat
    indices with the tensor's axes in _entry's order, which are positions
    in the C-ordered square unfolding under pr, or in the tensor."""
    cfg, pr, axes = _entry(cfg, mask.dims, truth, pairing, square)
    mask.check(values)
    b, e = _unit_scale(values, "observed values")
    multi = mask.multi_indices()
    return cfg, pr, b, e, np.ravel_multi_index([multi[a] for a in axes],
                                               [mask.dims[a] for a in axes])


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
    cfg, pr, b, e, flat = _sampled_entry(mask, values, cfg, truth, pairing)
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
          entries: int, grow: bool = False):
    """Scaled-form consensus ADMM for min sum_j f_j(x_j) + g(z) subject to
    x_j - z = c for j = 0..d-1 (Boyd et al. 2011, sections 3.1.1 and 7.1),
    the one loop behind complete_n, rpca_m, rpca_n and complete_supersym.

    x_step(j, v, rho) = prox_{f_j/rho}(v) and z_step(w, rho) =
    prox_{g/(d rho)}(w), w the mean of the blocks x_j - c + u_j. v and w
    are the loop's one spare block. x_step only reads v, which the loop
    reuses, and returns an array that does not alias it (it may reuse its
    own buffer for block j from call to call). z_step writes its result
    over w and returns w, and the loop rotates the spare and z rather
    than receive a new z. z0 becomes one of those buffers, so it is
    overwritten. Every block x_j, the spare, z and c have z0's shape; c is
    None for completion, whose constraint is x_j - z = 0. The constraint's
    norms count the d blocks.
    One memory layout: z0, c and every x_step result are C-contiguous, as
    are the driver's own buffers, so no pass mixes layouts. Its one caller
    is _convex, which runs these models (the module docstring has each
    solver's z step):

        complete_n         d = order; x_j = mode copy j (mode_svt); z = the
                           consensus tensor with observed entries pinned; c None
        rpca_m             d = 1; x = Y (svt); z = -Z; c = the data unfolding F
        rpca_n             d = order; x_j = W_j, the mode copies; z = -Z; c = t
        complete_supersym  d = 1; x = svt(z - u) and z = the orbit
                           projection, both on the symmetric compression
                           of the unfolding; c None

    Soft thresholding is odd, so z = -Z needs no sign handling in the robust
    z steps. With x and u the d blocks stacked, the loop stops when
    r_pri = ||x - z - c|| <= e_pri and r_dua = rho * sqrt(d) * ||z - z_old||
    <= e_dua, with
        e_pri = ABS_TOL * scale + rel_tol * max(||x||, sqrt(d) ||z||, sqrt(d) ||c||)
        e_dua = sqrt(n) * ABS_TOL + rel_tol * rho * ||u||
    with n the constraint's entry count, `entries` (the d blocks' entries;
    complete_supersym's compressed model counts the whole unfolding's),
    scale being the spectral norm of the data that the caller passes.
    ABS_TOL is dimensionless in both: e_pri is in data units through
    scale, and e_dua is dimensionless, like r_dua, since rho scales as
    1 / scale. So a solve takes the same steps on data multiplied by any
    factor. Each iteration logs r_pri over the relative part of e_pri's
    scale. Without an iteration to run (zero scale, which means zero data,
    or cfg.max_iters below 1) every block is z0 + c (z0 itself for c
    None), z is z0, and 0 iterations are returned, converged only for zero
    data, where that is the feasible optimum.

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
    starting at zero, z and one spare block f, all allocated before the
    first x step, z0 being z's. It allocates no array per iteration, and a
    z step writes over f (the prox kernels keep their own work arrays, such
    as complex_soft_threshold's real factor of at most SHRINK_BLOCK
    entries). Each iteration runs the blocks three times. The first pass
    forms f = (z + c) - u_j and takes x_j = x_step(j, f, rho); f is dead
    once the last x step has read it. The second sums the blocks' mean of
    (x_j - c) + u_j in place in f (_mean_into). z_step turns f into z_new,
    and z_new - z_old is formed in z_old's buffer for r_dua; that buffer is
    then the next f, and z_new is z. The third pass forms
    r_j = (x_j - z_new) - c in f and adds it into u_j. So complete_n and
    rpca_n hold the stack of mode copies, the d duals and two single
    blocks (the spare and z); rpca_m and complete_supersym hold x, u, f and
    z. c None (complete_n, complete_supersym) adds no pass at all. Every
    norm is one dot product over the array's memory (_norm), summed over
    the blocks for x and r.

    Returns (xs, z, iters, converged, trace, dual), xs the d blocks x_j and
    dual the final unscaled dual rho * u (Boyd et al.'s y for the
    constraint x - z - c = 0), written over u's buffer: the d-fold stack,
    or for d = 1 the one block; None when no iteration ran.
    """
    if scale == 0.0 or cfg.max_iters < 1:
        return (z0 if c is None else z0 + c,) * d, z0, 0, scale == 0.0, [], None
    rho = PENALTY_SCALE / scale
    k = np.sqrt(d)  # copies of each z entry in the constraint
    c_term = 0.0 if c is None else k * _norm(c)
    abs_pri = ABS_TOL * scale
    abs_dua = np.sqrt(entries) * ABS_TOL
    tiny = np.finfo(float).tiny
    u = np.zeros((d,) + z0.shape, dtype=np.complex128)  # the scaled duals
    f = np.empty(z0.shape, dtype=np.complex128)  # the spare block
    xs = [None] * d
    z, trace = z0, []
    del z0  # z's buffer, which the rotation below turns into f
    for it in range(1, cfg.max_iters + 1):
        sq_x = 0.0
        for j in range(d):
            if c is None:
                np.subtract(z, u[j], out=f)
            else:
                np.add(z, c, out=f)
                f -= u[j]
            xs[j] = None  # the last x_j is dead, so x_step may reuse its memory
            x = xs[j] = x_step(j, f, rho)
            sq_x += _sq_norm(x)
        _mean_into(f, xs, u, c)
        z_new = z_step(f, rho)  # over f
        # z - z_old in the old z's buffer, which then serves as f, whose
        # old buffer z_new has taken
        r_dua = rho * k * _norm(np.subtract(z_new, z, out=z))
        f, z = z, z_new
        sq_pri = 0.0
        for j in range(d):
            r = np.subtract(xs[j], z, out=f)  # x_j - z - c
            if c is not None:
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


def _mean_into(f, xs, u, c):
    """Write the mean of the blocks (x_j - c) + u_j into f (x_j + u_j for c
    None), summed in place: f = (x_0 - c) + u_0, then f += x_j, f -= c and
    f += u_j for each later block, then f /= d. One block takes the one
    expression (x - c) + u, or x + u."""
    if c is None:
        np.add(xs[0], u[0], out=f)
    else:
        np.subtract(xs[0], c, out=f)
        f += u[0]
    for x, uj in zip(xs[1:], u[1:]):
        f += x
        if c is not None:
            f -= c
        f += uj
    if len(xs) > 1:
        f /= len(xs)


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
    the stack, and returns that slice."""
    d = t.ndim
    stack = np.zeros((d,) + t.shape, dtype=np.complex128)

    def x_step(j, v, rho):
        return mode_svt(v, j, (1.0 / d) / rho, out=stack[j])

    return stack, x_step, max(mode_spectrum(t, j)[0].max(initial=0.0) for j in range(d))


def _convex(pr, dims, c, z_step, cfg: SolverConfig, truth, e: int, lam=None,
            sym=None) -> SolveResult:
    """The one convex solve behind complete_n, rpca_m, rpca_n and
    complete_supersym: _admm on the model pr names, with the caller's
    z_step, on data times 2^-e, answered through _result.

    pr is a Pairing for the square model (d = 1, x = svt of the C-ordered
    square unfolding under pr, with its own SvtWarm) or None for the mode
    model (d = the order, x the stacked mode copies, _mode_model). sym is
    (m, answer) for complete_supersym: its square model runs on the m x m
    symmetric compression of the unfolding (module docstring), whose
    stopping test still counts the whole unfolding's entries (_admm's
    entries), and the solve answers answer(), the tensor of the last z
    step. c is None for completion, whose constraint is x_j - z = 0 and
    whose z0 is z_step of zeros (rho None): the observed entries pinned.
    Otherwise c is the scaled data of the split x_j - z = c, laid out in
    C order as the model's data (reshaped here to the model's shape), z0
    is zero and z = -Z, Z the sparse part. The driver's scale is read off
    the data: z0 for completion, c for the split. Only the square split
    grows its penalty (_admm's grow).

    The duals and z0's buffer, which may be dead by now, go before the
    stack's mean is formed, and the stack of mode copies and the blocks
    before the rank report. Completion answers z, with rel_err_all 0, as
    the pinned entries are exactly feasible. The split answers x (for the
    mode model the stack's mean, once an iteration has written it) with
    sparse = -z, rel_err_all its split residual against c and, for the
    square model, rpca_m's certified duality gap at the sparsity weight
    lam (_rpca_m_gap)."""
    shape = dims if pr is None else (sym[0],) * 2 if sym else pr.matrix_shape(dims)
    d = len(dims) if pr is None else 1
    if c is None:
        z0 = z_step(np.zeros(shape, dtype=np.complex128), None)
    else:
        c = c.reshape(shape)
    warm = SvtWarm()  # the square model's
    stack, x_step, scale = _mode_model(z0 if c is None else c) if pr is None else (
        None, lambda j, v, rho: svt(v, 1.0 / rho, warm), spectral_norm(z0 if c is None else c))
    if c is not None:
        z0 = np.zeros(shape, dtype=np.complex128)
    xs, z, it, conv, trace, dual = _admm(d, c, x_step, z_step, z0, scale, cfg,
                                         entries=d * math.prod(dims),
                                         grow=pr is not None and c is not None)
    gap = None if pr is None or c is None else _rpca_m_gap(c, xs[0], warm.s, dual, lam)
    del dual, z0
    if c is None:
        x, err = z, 0.0
    else:
        # without an iteration every block is the data (_admm), and the
        # stack was never written
        x = stack.mean(axis=0) if stack is not None and it else xs[0]
    del stack, x_step, xs
    if c is not None:
        err, z = _rel_err(x - z, c), -z
    if sym:
        x = sym[1]()
    elif pr is not None:
        x, z = square_fold(x, dims, pr), square_fold(z, dims, pr)
    return _result(x, e, it, conv, truth, err, trace, sparse=None if c is None else z,
                   duality_gap=gap)


def complete_n(mask: Mask, values, cfg: SolverConfig | None = None,
               truth=None) -> SolveResult:
    """Complete a tensor by minimizing the (1/d)-weighted sum of the mode
    unfoldings' nuclear norms: consensus ADMM with x the d mode copies
    (stacked, one mode_svt per mode per iteration) and z the consensus
    tensor, x_j - z = 0. The consensus keeps observed entries pinned to the
    data, so the result is exactly feasible."""
    cfg, _, b, e, flat = _sampled_entry(mask, values, cfg, truth, None, square=False)

    def z_step(w, rho):
        w.reshape(-1)[flat] = b
        return w

    return _convex(None, mask.dims, None, z_step, cfg, truth, e)


def rpca_m(t, pairing: Pairing | None = None, cfg: SolverConfig | None = None,
           truth=None) -> SolveResult:
    """Split a tensor into low-rank + sparse parts on a square unfolding:
    minimize ||Y||_* + lam * sum|Z_ij| subject to Y + Z = unfold(t).
    ADMM with x = Y (svt), z = -Z (modulus soft thresholding, which is odd)
    and c = unfold(t), growing its penalty while the primal test fails
    (_admm's grow). duality_gap is the certified relative gap at the
    returned split (_rpca_m_gap)."""
    return _rpca(t, pairing, cfg, truth, square=True)


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
    return _rpca(t, None, cfg, truth, square=False)


def _rpca(t, pairing, cfg, truth, square: bool) -> SolveResult:
    """rpca_m (square) or rpca_n: _entry's checks and the data's
    finiteness, then the split on the data times 2^-e. lam defaults to
    1/sqrt of the rows of the square unfolding under the pairing (the
    default one for rpca_n), and the z step soft-thresholds the mean of
    the d blocks at lam / (d rho)."""
    t = as_tensor(t)
    cfg, pr, axes = _entry(cfg, t.shape, truth, pairing, square)
    e = _unit_exponent(t, "data")
    dims, d = t.shape, t.ndim if pr is None else 1
    # the scaled data, written once into a new C-ordered array with t's
    # axes in the order axes, so that for the square split it is
    # square_unfold(t, pr) as it lies; for either model the first half of
    # its axes spans the rows of the unfolding that lam's default counts
    t = np.multiply(t.transpose(axes), 2.0 ** -e, order="C")
    lam = cfg.lam if cfg.lam is not None else 1.0 / np.sqrt(math.prod(t.shape[:t.ndim // 2]))
    return _convex(pr, dims, t, lambda w, rho: complex_soft_threshold(w, lam / (d * rho), out=w),
                   cfg, truth, e, lam)


def complete_supersym(mask: Mask, values, cfg: SolverConfig | None = None,
                      truth=None) -> SolveResult:
    """Complete a super-symmetric tensor: minimize the nuclear norm of the
    square unfolding over tensors that are super-symmetric and match the
    observed entries.

    ADMM with x the unfolding (svt step) and z the constrained tensor,
    x - z = 0, both held as the symmetric compression A = P^T M P of the
    n^h x n^h unfolding M (h half the order), an m x m matrix with
    m = C(n + h - 1, h), P the isometry onto Sym^h (module docstring).
    The projection onto {super-symmetric} intersect {observed entries
    fixed} has a closed form because both sets are affine and symmetry
    means constancy on index-permutation orbits (tensor.orbit_ids): free
    orbits take their orbit mean, observed orbits take their observed
    value. The returned tensor holds the last projection's orbit values,
    so it is exactly super-symmetric and exactly feasible.

    Raises ValueError when the mask is not cubical of even order, before
    any other check, when it has a zero-length axis or order 0
    (_entry), or when observed values disagree inside one orbit
    beyond FEAS_TOL (relative): no super-symmetric tensor can match such
    data.
    """
    dims = mask.dims
    if len(set(dims)) > 1 or len(dims) % 2:
        raise ValueError(f"needs a cubical even-order tensor, got dims {dims}")
    cfg, pr, b, e, flat = _sampled_entry(mask, values, cfg, truth, None)
    # the orbit id of every entry of the unfolding, in C order: an entry's
    # C-order flat index spells, in base n, a permutation of its tensor
    # multi-index, so orbit_ids's own layout names the same orbits
    ids = orbit_ids(dims)
    counts = np.bincount(ids)
    n_orb = counts.size
    ob_ids = ids[flat]
    del flat  # not held through the solve
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

    # the compression A = P^T M P of the unfolding M (module docstring):
    # with reps a representative of each row orbit, A = wt * M[reps][:, reps]
    # and tid the tensor orbit of each entry of A
    rid = orbit_ids(dims[:len(dims) // 2])
    reps = np.unique(rid, return_index=True)[1]
    root = np.sqrt(np.bincount(rid))
    wt = np.outer(root, root)
    tid = ids.reshape(rid.size, rid.size)[np.ix_(reps, reps)].reshape(-1)
    vals = None  # the last z step's orbit values

    def z_step(a, rho):
        nonlocal vals
        # A's entry (o, p) is sqrt(|o| |p|) times each of the |o| |p|
        # unfolding entries it stands for, so wt * A holds their sums
        a *= wt
        vals = orbit_sum(a.reshape(-1), tid, n_orb) / counts
        vals[observed] = ob_val[observed]
        # tid is valid by construction; numpy's default mode="raise"
        # buffers a copy to write into out
        np.take(vals, tid, out=a.reshape(-1), mode="clip")
        a *= wt
        return a

    # the tensor is the last z step's orbit values, expanded
    return _convex(pr, dims, None, z_step, cfg, truth, e,
                   sym=(reps.size, lambda: np.take(vals, ids).reshape(dims)))
