"""Matrix kernels shared by the rank machinery and the solvers.

All routines work on complex128 matrices. Singular values are always
returned in nonincreasing order (LAPACK convention).

numerical_rank counts singular values above a relative threshold. On a
matrix large enough for it to pay, it first sketches the range with a
Gaussian test matrix and returns the count only when an a-posteriori error
bound certifies it; otherwise it runs the full LAPACK SVD. The test matrix
is drawn in each call from a generator with a fixed seed, so the count is
a deterministic function of the matrix, whatever the thread.

svt, the nuclear-norm prox of the square-unfolding solvers, picks one of
two exact routes per call from the caller's warm state: a warm-started
block subspace iteration when the previous call's kept rank is small
against the matrix, and the full LAPACK SVD otherwise. mode_svt is the same
prox on one mode unfolding of a tensor, done as a mode product with a small
matrix built from the mode's Gram matrix, without unfolding. rank_project, the exact rank-r
projection (best rank-r approximation) behind complete_m's refinement,
which also hands back the projection's column space, runs the same
subspace sweeps from a warm block of r + OVERSAMPLE columns
and falls back to the full SVD when they do not converge; one sweep loop,
_sweeps, serves both. The warm state (SvtWarm) belongs to the caller;
there is no module-level cache or random state, so results are
deterministic and independent of threading.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, qr, sqrtm

from .tensor import mode_unfold

__all__ = [
    "DEFAULT_RANK_TOL",
    "TakagiResult",
    "numerical_rank",
    "spectrum_rank",
    "nuclear_norm",
    "spectral_norm",
    "takagi",
    "SvtWarm",
    "svt",
    "mode_svt",
    "rank_project",
    "complex_soft_threshold",
    "complex_l1",
]

# Relative threshold separating genuine from numerically-zero singular values
# on exactly generated data. Solver outputs carry their own looser tolerance
# (see ranks.RECOVERED_RANK_TOL): their error floor sits far above 1e-8.
DEFAULT_RANK_TOL = 1e-8


# takagi accepts m when ||m - m.T||_F <= TAKAGI_SYM_TOL * ||m||_F, and groups
# singular values whose gaps are at most TAKAGI_GROUP_TOL * sigma_max.
TAKAGI_SYM_TOL = 1e-10
TAKAGI_GROUP_TOL = 1e-8


@dataclass
class TakagiResult:
    """Symmetric factorization m = w @ diag(s) @ w.T with unitary w, s >= 0."""

    w: np.ndarray
    s: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.w * self.s) @ self.w.T


def _check_rel_tol(rel_tol):
    if not (np.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")


def spectrum_rank(s, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count the singular values s (nonincreasing, as LAPACK returns them)
    above rel_tol * s[0]; 0 when s is empty or s[0] is zero. For callers
    that already hold the spectrum. Raises ValueError for a negative or
    non-finite rel_tol."""
    _check_rel_tol(rel_tol)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


# First width of numerical_rank's range sketch; a failed attempt doubles it.
SKETCH_WIDTH = 16
# A k-wide sketch attempt on an m x n matrix costs about
# SKETCH_COST * k / min(m, n) full value-only SVDs (complex128, one BLAS
# thread, square n = 64..900 and k = 8..128: 1.1 to 2.8, 2.3 or less at
# k <= 64). The attempts of one call may total min(m, n) / SKETCH_COST
# columns, so the failed ones cost about one full SVD at most, and the
# sketch runs only where its first attempt fits: min(m, n) >= 40.
SKETCH_COST = 2.5
# Columns of M - QB formed at a time when the sketch measures its residual.
RESIDUAL_BLOCK = 64
# Seed of the generator each call creates to draw Omega.
SKETCH_SEED = 0


def _residual_norm(m, q, b):
    """||M - QB||_F, one RESIDUAL_BLOCK of columns at a time, so no
    temporary is as large as M."""
    total = 0.0
    for j in range(0, m.shape[1], RESIDUAL_BLOCK):
        r = q @ b[:, j:j + RESIDUAL_BLOCK]
        r -= m[:, j:j + RESIDUAL_BLOCK]
        total += np.vdot(r, r).real
    return np.sqrt(total)


def _sketch_rank(m, rel_tol):
    """The certified count of numerical_rank's sketch route, or None when
    no attempt within the budget certifies it."""
    rows, cols = m.shape
    rng = np.random.default_rng(SKETCH_SEED)
    q = np.empty((rows, 0), dtype=np.complex128)
    k = SKETCH_WIDTH
    spent = 0
    while SKETCH_COST * (spent + k) <= min(rows, cols):
        # the last attempt's Q spans M times the earlier columns of Omega,
        # so only the new columns are multiplied
        omega = rng.standard_normal((cols, k - q.shape[1], 2)).view(np.complex128)
        y = np.empty((rows, k), dtype=np.complex128, order="F")
        y[:, :q.shape[1]] = q
        np.matmul(m, omega[..., 0], out=y[:, q.shape[1]:])
        # factored in place: numpy's qr holds several copies of y at once,
        # which showed as a higher peak RSS on rank reports
        q = qr(y, mode="economic", overwrite_a=True, check_finite=False)[0]
        b = q.conj().T @ m
        s = np.linalg.svd(b, compute_uv=False)
        # with every s_i above rel_tol * s[0] the block has filled and no
        # residual can certify the attempt; otherwise the count is below k
        if s[-1] <= rel_tol * s[0]:
            e = _residual_norm(m, q, b)
            if s[0] == 0.0 and e == 0.0:
                return 0
            delta = e + SUBSPACE_TOL * s[0]
            above = int(np.count_nonzero(s > rel_tol * (s[0] + delta) + delta))
            below = int(np.count_nonzero(s <= rel_tol * s[0] - 2 * delta))
            if delta < rel_tol * s[0] and above + below == k:  # so s[0] > 0
                return above
        spent += k
        k *= 2
    return None


def numerical_rank(m, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rel_tol * sigma_max; 0 for a zero matrix.

    Certified sketch route (Halko, Martinsson and Tropp 2011, section 4.3),
    taken when min(m.shape) >= SKETCH_COST * SKETCH_WIDTH and rel_tol > 0:
    Q is an orthonormal basis of the range of M @ Omega for a k-column
    complex Gaussian Omega, drawn from a generator seeded with SKETCH_SEED
    in this call; B = Q^H M, s holds the singular values of B and
    e = ||M - QB||_F. With delta = e + SUBSPACE_TOL * s[0] (a rounding
    margin), M^H M >= B^H B and Weyl's inequality give

        s_i <= sigma_i(M) <= s_i + delta,   sigma_{k+1}(M) <= delta,

    so the threshold rel_tol * sigma_1(M) lies in
    [rel_tol * s[0], rel_tol * (s[0] + delta)]. The count of s_i above
    rel_tol * (s[0] + delta) + delta is returned when every other s_i is at
    or below rel_tol * s[0] - 2 * delta, delta < rel_tol * s[0], that count
    is below k and s[0] > 0: every sigma_i(M) then clears the threshold by
    delta, far more than the full SVD's own rounding, so the full SVD
    counts the same. s[0] = e = 0 certifies the zero matrix. A failed
    certificate doubles k: Omega gains k new columns and Q is
    re-orthonormalized together with M times them. The attempts of one
    call stop at the budget SKETCH_COST sets, about one full SVD.

    Fallback: the full value-only LAPACK SVD, counted by spectrum_rank. It
    runs on smaller matrices, for rel_tol = 0, and whenever the certificate
    fails within the budget, for instance on a singular value within
    about delta of the threshold or on a matrix of nearly full rank.

    Raises ValueError for a negative or non-finite rel_tol.
    """
    _check_rel_tol(rel_tol)
    m = np.asarray(m)
    if m.size == 0:
        return 0
    if rel_tol > 0 and min(m.shape) >= SKETCH_COST * SKETCH_WIDTH:
        r = _sketch_rank(m, rel_tol)
        if r is not None:
            return r
    return spectrum_rank(np.linalg.svd(m, compute_uv=False), rel_tol)


def nuclear_norm(m) -> float:
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


def spectral_norm(m) -> float:
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def takagi(m) -> TakagiResult:
    """Factor a complex symmetric matrix as m = w @ diag(s) @ w.T.

    Built from the SVD m = u @ diag(s) @ vh: for symmetric m the matrix
    z = u.T @ v is block-diagonal over groups of equal singular values,
    unitary and symmetric there, and w = u @ conj(sqrtm(z)) absorbs the
    phase mismatch block by block. Groups are found by relative gaps of
    size TAKAGI_GROUP_TOL * sigma_max, which rides over the fp jitter of
    truly repeated singular values.

    Raises ValueError when m is not square or not symmetric within
    TAKAGI_SYM_TOL * ||m||_F, relative at any scale.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"takagi needs a square matrix, got shape {m.shape}")
    bound = TAKAGI_SYM_TOL * max(np.linalg.norm(m), np.finfo(float).tiny)
    if np.linalg.norm(m - m.T) > bound:
        raise ValueError("takagi needs a (complex) symmetric matrix")
    if m.shape[0] == 0:
        return TakagiResult(np.zeros((0, 0), np.complex128), np.zeros(0))
    u, s, vh = np.linalg.svd(m)
    v = vh.conj().T
    scale = s[0] if s[0] > 0 else 1.0
    blocks = []
    start = 0
    for i in range(1, s.size + 1):
        if i == s.size or s[start] - s[i] > TAKAGI_GROUP_TOL * scale:
            idx = slice(start, i)
            blocks.append(sqrtm(u[:, idx].T @ v[:, idx]))
            start = i
    q = block_diag(*blocks)
    return TakagiResult(u @ q.conj(), s)


@dataclass
class SvtWarm:
    """Warm state carried from one `svt` or `rank_project` call to the next
    at one call site.

    v holds the previous call's kept right singular vectors plus up to
    OVERSAMPLE more (columns, orthonormal); it seeds the next call's
    subspace iteration. path names the route the last call took,
    "subspace" or "full". s is the spectrum of the last svt output, its
    kept singular values already shrunk by tau, recorded on both routes, so
    s.sum() is that output's nuclear norm (rank_project leaves it alone).
    A solver creates one per call site (one per candidate rank in
    complete_m's refinement) and passes it to each call.
    """

    v: np.ndarray | None = None
    path: str = ""
    s: np.ndarray | None = None


# Warm block width = previous kept rank + OVERSAMPLE (Halko, Martinsson and
# Tropp 2011 use 5 to 10 extra columns).
OVERSAMPLE = 8
# Subspace sweeps before giving up and running the full SVD.
SWEEP_CAP = 16
# A sweep stops when the kept Ritz triplets satisfy ||M v - s u|| <=
# SUBSPACE_TOL * s_max: the output is then the exact svt of a matrix within
# about that distance of M.
SUBSPACE_TOL = 1e-12
# One full SVD of an m x n matrix costs about as much as
# FULL_SVD_SWEEPS * min(m, n) / k subspace sweeps of a k-wide block
# (complex128, one BLAS thread, square n = 100..600: the SVD costs 7 to 20
# products of width n, a sweep 4 to 11 of width k, ratio 1.8 to 1.9).
FULL_SVD_SWEEPS = 1.8


def _subspace_pays(rows, cols, k):
    """Whether a k-wide block may try subspace iteration on a rows x cols
    matrix: its whole sweep budget must cost no more than one full SVD, so
    a fallback at most doubles a call. That is k <= 0.11 * min(rows, cols):
    kept rank <= 37 at 400 x 400, <= 3 at 100 x 100."""
    return SWEEP_CAP * k <= FULL_SVD_SWEEPS * min(rows, cols)


def _sweeps(m, v, kept):
    """Block subspace iteration on m from the orthonormal block v, with
    Rayleigh-Ritz through the SVD of Q^H M, shared by svt's subspace route
    and rank_project. kept(s) names how many leading Ritz triplets the caller
    needs. Returns (u, s, vh, v) once those triplets satisfy
    ||M v_i - s_i u_i|| <= SUBSPACE_TOL * s_max, with u their left vectors,
    s and vh every Ritz value and right vector and v = vh^H; None when the
    block fills (kept >= its width) or SWEEP_CAP sweeps do not converge."""
    k = v.shape[1]
    y = m @ v
    for _ in range(SWEEP_CAP):
        q = np.linalg.qr(y)[0]
        ub, s, vh = np.linalg.svd(q.conj().T @ m, full_matrices=False)
        keep = kept(s)
        if keep >= k:
            return None
        v = vh.conj().T
        y = m @ v
        u = q @ ub[:, :keep]
        if np.linalg.norm(y[:, :keep] - u * s[:keep]) <= SUBSPACE_TOL * s[0]:
            return u, s, vh, v
    return None


def _svt_subspace(m, tau, warm):
    """svt's subspace route: sweeps from the warm block. None when the block
    fills (every Ritz value above tau) or the sweeps do not converge."""
    out = _sweeps(m, warm.v, lambda s: int(np.count_nonzero(s > tau)))
    if out is None:
        return None
    u, s, vh, v = out
    keep = u.shape[1]
    warm.v = v[:, : keep + OVERSAMPLE]
    warm.s = s[:keep] - tau
    if keep == 0:
        return np.zeros_like(m)
    return (u * (s[:keep] - tau)) @ vh[:keep]


def svt(m, tau: float, warm: SvtWarm | None = None) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau,
    clipping at zero. The proximal map of tau * nuclear norm.

    Two exact routes, chosen from the warm state:

    1. subspace -- a matrix whose warm block (the previous call's kept
       right singular vectors plus OVERSAMPLE more) is narrow enough that
       SWEEP_CAP sweeps cost no more than one full SVD: block subspace
       iteration with Rayleigh-Ritz until the kept triplets' residual is
       below SUBSPACE_TOL * s_max. The full SVD runs instead when the block
       fills (kept rank = block width) or the sweep cap is hit.
    2. full -- the LAPACK SVD of M, which also seeds the warm block.

    Both agree with the full SVD to about 1e-12 relative. Route 1 only
    sees directions its block reaches: a new singular direction exactly
    orthogonal to the block would be missed. In the solvers each iterate
    moves a little from the last, and the OVERSAMPLE spare columns hold the
    directions just below tau, the ones that can rise above it next.

    warm is the caller's SvtWarm for this call site, updated in place
    (each route stores the next block, the output's spectrum and its own
    name). The caller
    owns it, so calls stay independent across threads and the result is a
    deterministic function of the call sequence. Without warm, route 2 runs.
    """
    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    if (warm is not None and warm.v is not None and warm.v.shape[0] == cols
            and _subspace_pays(rows, cols, warm.v.shape[1])):
        out = _svt_subspace(m, tau, warm)
        if out is not None:
            warm.path = "subspace"
            return out
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > tau
    if warm is not None:
        warm.v = vh[: int(keep.sum()) + OVERSAMPLE].conj().T
        warm.path = "full"
        warm.s = s[keep] - tau
    if not keep.any():
        return np.zeros_like(m)
    return (u[:, keep] * (s[keep] - tau)) @ vh[keep]


# mode_svt's Gram matrix squares the spectrum, so eigenvalue noise of
# eps * s_max^2 shows up as singular values near sqrt(eps) * s_max. Its
# eigenvectors are used only when tau clears that noise by this factor; the
# output error is then about eps * s_max / tau <= 1.5e-12 relative.
GRAM_TAU_MARGIN = 1e4


def mode_svt(t, mode: int, tau: float) -> np.ndarray:
    """svt on the mode-`mode` unfolding of the tensor t, folded back: the
    proximal map of tau * ||mode unfolding||_*, without unfolding t.

    With M the unfolding (mode index as column) and M^H M = V diag(s^2) V^H,
    svt(M, tau) = M P with P = V diag(max(1 - tau/s, 0)) V^H, n x n for
    n = t.shape[mode]: the mode-`mode` product of t with P^T (De Lathauwer,
    De Moor and Vandewalle 2000). M^H M is contracted from t over every
    other axis. When tau is below GRAM_TAU_MARGIN * sqrt(eps) * s_max, too
    close to the noise the squaring adds, V and s come from the SVD of M
    instead. Agrees with the full-SVD svt of M to about 1e-12 relative.
    """
    t = np.asarray(t, dtype=np.complex128)
    others = [a for a in range(t.ndim) if a != mode]
    w, v = np.linalg.eigh(np.tensordot(t.conj(), t, axes=(others, others)))
    s = np.sqrt(np.maximum(w, 0.0))
    if tau < GRAM_TAU_MARGIN * np.sqrt(np.finfo(float).eps) * s.max(initial=0.0):
        _, s, vh = np.linalg.svd(mode_unfold(t, mode), full_matrices=False)
        v = vh.conj().T
    keep = s > tau
    if not keep.any():
        return np.zeros_like(t)
    vk = v[:, keep]
    p = (vk * (1.0 - tau / s[keep])) @ vk.conj().T
    return np.moveaxis(np.tensordot(t, p, axes=([mode], [0])), -1, mode)


def rank_project(m, r: int, warm: SvtWarm | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The best rank-r approximation of m (Eckart and Young): its leading r
    singular triplets, or m itself, to rounding, when r >= min(m.shape).

    With a warm block of exactly r + OVERSAMPLE columns from the previous
    call at this site, the subspace sweeps of svt's route 1 run until the
    leading r Ritz triplets pass the same SUBSPACE_TOL residual test, and
    the block moves on. Otherwise, or when the sweeps do not converge, the
    full SVD runs and seeds the block. Both routes agree with the full-SVD
    truncation to about 1e-12 relative; as with svt, the warm route only
    sees directions its block reaches, which suits iterates that move a
    little per call. Unlike svt's route 1 there is no width gate: on such
    iterates two or three sweeps of the block replace a full SVD.
    warm.path records the route taken ("subspace" or "full").

    Returns (x, u): the projection and its leading left singular vectors
    (min(r, rows, cols) orthonormal columns spanning x's column space),
    which both routes already hold, so a caller that needs the column space
    runs no second SVD.
    """
    m = np.asarray(m, dtype=np.complex128)
    width = r + OVERSAMPLE
    if warm is not None and warm.v is not None and warm.v.shape == (m.shape[1], width):
        out = _sweeps(m, warm.v, lambda s: r)
        if out is not None:
            u, s, vh, warm.v = out
            warm.path = "subspace"
            return (u * s[:r]) @ vh[:r], u
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    if warm is not None:
        warm.v = vh[:width].conj().T
        warm.path = "full"
    u = u[:, :r]
    return (u * s[:r]) @ vh[:r], u


def complex_soft_threshold(m, tau: float) -> np.ndarray:
    """Entrywise modulus shrinkage z * max(1 - tau/|z|, 0), the proximal map
    of tau * sum(|z_i|) with |.| the complex modulus."""
    m = np.asarray(m, dtype=np.complex128)
    # the factor max(1 - tau / max(|m|, tiny), 0), built in place in one
    # real array: no temporary per operation, and the same rounding
    f = np.abs(m)
    np.maximum(f, np.finfo(float).tiny, out=f)
    with np.errstate(over="ignore"):  # tau / tiny -> inf clips to 0 below
        np.divide(tau, f, out=f)
    np.subtract(1.0, f, out=f)
    np.maximum(f, 0.0, out=f)
    return m * f


def complex_l1(m) -> float:
    """Sum of complex moduli, sum(sqrt(re^2 + im^2))."""
    return float(np.abs(np.asarray(m)).sum())
