"""Matrix kernels shared by the rank machinery and the solvers.

All routines work on complex128 matrices. Singular values are always
returned in nonincreasing order (LAPACK convention).

numerical_rank counts singular values above a relative threshold. On a
matrix large enough for it to pay, it first sketches the range with a
Gaussian test matrix and returns the count only when an a-posteriori error
bound certifies it; otherwise it runs the full LAPACK SVD. The test matrix
is drawn in each call from a generator with a fixed seed, so the count is
a deterministic function of the matrix, whatever the thread, and the first
attempt's width (m_ranks passes the previous pairing's rank plus
OVERSAMPLE) moves only the work.

numerical_rank, nuclear_norm, spectral_norm and svt take one matrix: any
other number of axes raises ValueError naming the routine and the shape
(_matrix). Every routine here that reaches LAPACK rejects NaN and Inf
entries first, with ValueError naming their count. A routine that reads
the data's largest modulus anyway does it in that same pass,
tensor._unit_exponent, which counts entries only when that modulus is not
finite: takagi's symmetry test, _gram's rescaling (taken exactly when the
Gram trace is not finite or tiny, so a NaN or Inf in the matrix always
reaches it) and numerical_rank's fallback. The others make one counting
pass, tensor._require_finite: spectral_norm, nuclear_norm and the full SVD
of _leading (behind svt and rank_project). numerical_rank's sketch sees a
NaN or Inf in M @ Omega, so a low-rank matrix certified there is read
once.

The mode routines read one view and one matrix kernel. _unfolding(t, mode)
is the mode unfolding up to a row permutation (a view of t for the first
and last modes, one copy for a middle mode, which mode_svt writes into its
own output buffer); _gram forms a matrix's n x n
Gram matrix with one BLAS zherk, rescaled by a power of two where the
squares would overflow or underflow, and _gram_rank certifies a numerical
rank from its eigenvalues:
    mode_spectrum -- the singular values and right singular vectors of the
                     unfolding, from the Gram matrix's eigendecomposition
                     (the solvers' mode-model scale, rank_one_factorize's
                     direction, mode_svt's projector)
    mode_rank     -- numerical_rank of the unfolding (the Tucker ranks):
                     _gram_rank, else numerical_rank of the view
    mode_svt      -- the nuclear-norm prox on the unfolding, as a mode
                     product with a matrix built from mode_spectrum, with
                     the SVD of the view as its fallback for a tau within
                     the squaring's noise

svt, the nuclear-norm prox of the square-unfolding solvers, and
rank_project, the exact rank-r projection behind complete_m's refinement
(which also hands back the projection's column space), are thin callers
of one kernel, _leading: the leading singular triplets of a matrix, swept
from the caller's warm block when it fits, else from the full LAPACK SVD,
with the block moved on and the route named. Each caller passes its own
gate: svt a cost test on the block width, rank_project an exact width of
r + OVERSAMPLE. The warm state (SvtWarm) belongs to the caller; there is
no module-level cache or random state, so results are deterministic and
independent of threading.

complex_soft_threshold, the l1 prox of the robust solvers, builds its real
factor one block of leading-axis rows at a time, at most SHRINK_BLOCK =
2^15 entries (256 KiB of float64, or one row if a row is larger), so its
work array is bounded by that block whatever the size of m.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, block_diag, qr, sqrtm

from .tensor import _require_finite, _unit_exponent, _unit_scale

__all__ = [
    "DEFAULT_RANK_TOL",
    "TakagiResult",
    "numerical_rank",
    "nuclear_norm",
    "spectral_norm",
    "takagi",
    "svt",
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


def _check_rel_tol(rel_tol, name: str) -> None:
    """The range rule of a relative rank or stopping tolerance: finite and
    >= 0, or ValueError naming it as `name` (a field, or the CLI's flag)."""
    if not (np.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {rel_tol}")


def _check_tau(tau):
    """The prox kernels' threshold: >= 0, +inf included (its output is
    zero); NaN fails the comparison too."""
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")


def _matrix(m, name: str) -> np.ndarray:
    """m as an array, or ValueError naming `name` and m's shape unless m is
    2-D: the gate of the public matrix kernels, which would otherwise read a
    stack of matrices, or fail on it with an unrelated message."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"{name} needs a 2-D matrix, got shape {m.shape}")
    return m


def spectrum_rank(s, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count the singular values s (nonincreasing, as LAPACK returns them)
    above rel_tol * s[0]; 0 when s is empty or s[0] is zero. For callers
    that already hold the spectrum. Raises ValueError for a negative or
    non-finite rel_tol."""
    _check_rel_tol(rel_tol, "rel_tol")
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


# Default first width of numerical_rank's range sketch; a failed attempt
# doubles it.
SKETCH_WIDTH = 16
# A k-wide sketch attempt on an m x n matrix costs about c * k / min(m, n)
# full value-only SVDs (complex128, one BLAS thread, square n = 64..900 and
# k = 8..128): c = 0.3 to 0.8 for an attempt whose sketch is judged full
# (one product with M and the QR of Y), and 0.9 to 2.6 for one that also
# forms B, its SVD and the residual (a second and third product with M).
# The attempts of one call may total min(m, n) / SKETCH_COST columns, so
# the failed ones cost about one full SVD at most even when each forms B,
# and the sketch runs only where its first attempt fits: at the default
# width, min(m, n) >= 40.
SKETCH_COST = 2.5
# Columns of M - QB formed at a time when the sketch measures its residual.
RESIDUAL_BLOCK = 64
# Seed of the generator each call creates to draw Omega.
SKETCH_SEED = 0


def _residual_norm(m, q, b, top):
    """||M - QB||_F, one RESIDUAL_BLOCK of columns at a time, so no
    temporary is as large as M. Each block is scaled by 2^-e, e the binary
    exponent of top (the caller's s[0]), before its squares are summed, so
    they neither underflow nor overflow at any scale of M."""
    e = int(np.frexp(top)[1])
    total = 0.0
    for j in range(0, m.shape[1], RESIDUAL_BLOCK):
        r = q @ b[:, j:j + RESIDUAL_BLOCK]
        r -= m[:, j:j + RESIDUAL_BLOCK]
        np.ldexp(r.view(np.float64), -e, out=r.view(np.float64))
        total += np.vdot(r, r).real
    with np.errstate(over="ignore"):  # an infinite residual certifies nothing
        return np.ldexp(np.sqrt(total), e)


def _sketch_rank(m, rel_tol, k, slack=0.0):
    """The certified count of numerical_rank's sketch route, first trying a
    k-wide sketch, or None when no attempt within the budget certifies it.

    The count holds for every matrix M' with ||M' - m||_2 <= slack (m
    itself for slack 0): by Weyl's inequality sigma_i(M') lies within
    slack of sigma_i(m), so in [s_i - slack, s_i + delta + slack], and
    sigma_{k+1}(M') <= delta + slack. numerical_rank's certificate then
    holds with delta + slack for delta in every bound and s[0] - slack for
    s[0] where it sets the threshold's lower end, which is all the slack
    changes: with slack 0 every formula is numerical_rank's. With slack > 0
    the first attempt that forms B and fails the certificate returns None,
    as the slack alone bounds delta from below at every width."""
    rows, cols = m.shape
    rng = np.random.default_rng(SKETCH_SEED)
    q = np.empty((rows, 0), dtype=np.complex128)
    d = np.empty(0)
    spent = 0
    while SKETCH_COST * (spent + k) <= min(rows, cols):
        # the last attempt's Q spans M times the earlier columns of Omega,
        # so only the new columns are multiplied
        j = q.shape[1]
        omega = rng.standard_normal((cols, k - j, 2)).view(np.complex128)
        y = np.empty((rows, k), dtype=np.complex128, order="F")
        y[:, :j] = q
        # a NaN or Inf in M makes a row of M @ Omega non-finite, so a
        # finite product shows M finite at the price of a look at Y; a
        # non-finite one (or an overflow) goes to the caller's full check
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(m, omega[..., 0], out=y[:, j:])
        if not np.isfinite(y[:, j:]).all():
            return None
        # factored in place: numpy's qr holds several copies of y at once,
        # which showed as a higher peak RSS on rank reports
        q, r = qr(y, mode="economic", overwrite_a=True, check_finite=False)
        # d is |diag R| of the QR of the whole sketch M @ Omega: the new
        # columns' R block continues the earlier attempts' triangle. With
        # every d_i above rel_tol * max(d) the sketch is judged full and no
        # B is formed, for a full sketch certifies nothing
        d = np.concatenate([d, np.abs(r.diagonal()[j:])])
        if d.min() <= rel_tol * d.max():
            b = q.conj().T @ m
            s = np.linalg.svd(b, compute_uv=False)
            # with every s_i above rel_tol * s[0] the block has filled and
            # no residual can certify the attempt
            if s[-1] <= rel_tol * s[0]:
                e = _residual_norm(m, q, b, s[0])
                if s[0] == 0.0 and e == 0.0 and slack == 0.0:
                    return 0
                delta = e + SUBSPACE_TOL * s[0] + slack
                low = s[0] - slack
                above = int(np.count_nonzero(s > rel_tol * (s[0] + delta) + delta))
                below = int(np.count_nonzero(s <= rel_tol * low - 2 * delta))
                if delta < rel_tol * low and above + below == k:  # so s[0] > slack
                    return above
            # delta >= slack at every width: a wider sketch cannot clear a
            # failure the slack causes
            if slack:
                return None
        spent += k
        k *= 2
    return None


def numerical_rank(m, rel_tol: float = DEFAULT_RANK_TOL, *, width: int = SKETCH_WIDTH) -> int:
    """Count singular values above rel_tol * sigma_max; 0 for a zero matrix.

    Certified sketch route (Halko, Martinsson and Tropp 2011, sections
    4.3-4.4), taken when rel_tol > 0 and the first attempt fits the budget
    (min(m.shape) >= SKETCH_COST * width): Q R is the QR factorization of
    the sketch Y = M @ Omega for a k-column complex Gaussian Omega, drawn
    from a generator seeded with SKETCH_SEED in this call, k = width at
    first. The attempt is judged on Y alone, from the diagonal of R: B is
    formed only when some |R_ii| is at or below rel_tol * max |R_jj|, which
    puts a singular value of Y at or below rel_tol times its largest, as
    sigma_min(Y) <= min |R_ii| and max |R_jj| <= sigma_max(Y). Otherwise Y
    is taken as full, as a Gaussian sketch of a matrix of rank above k is,
    and the next width is tried at once: a full sketch certifies nothing,
    and a misjudged one costs an attempt, never the count. With B = Q^H M
    formed, s holds its singular values and, when
    s[-1] <= rel_tol * s[0], e = ||M - QB||_F. With
    delta = e + SUBSPACE_TOL * s[0] (a rounding margin), M^H M >= B^H B and
    Weyl's inequality give

        s_i <= sigma_i(M) <= s_i + delta,   sigma_{k+1}(M) <= delta,

    so the threshold rel_tol * sigma_1(M) lies in
    [rel_tol * s[0], rel_tol * (s[0] + delta)]. The count of s_i above
    rel_tol * (s[0] + delta) + delta is returned when every other s_i is at
    or below rel_tol * s[0] - 2 * delta, delta < rel_tol * s[0], that count
    is below k and s[0] > 0: every sigma_i(M) then clears the threshold by
    delta, far more than the full SVD's own rounding, so the full SVD
    counts the same. s[0] = e = 0 certifies the zero matrix. A full sketch
    or a failed certificate doubles k: Omega gains k new columns and Q is
    re-orthonormalized together with M times them. The attempts of one
    call stop at the budget SKETCH_COST sets, about one full SVD.

    width, the first attempt's sketch width, only moves the work: a width
    just above the rank certifies in one attempt, one past the budget goes
    straight to the full SVD, and the count is the same for every width.
    m_ranks passes each pairing the previous pairing's rank plus
    OVERSAMPLE.

    The same certificate with a slack (_sketch_rank's slack argument; 0
    here) counts for every matrix within that spectral distance of m:
    Weyl's inequality moves each singular value by at most the slack, so
    delta + slack replaces delta in every bound and s[0] - slack replaces
    s[0] at the threshold's lower end. m_ranks certifies one count for
    all the square unfoldings of a nearly super-symmetric tensor this way.

    Fallback: the full value-only LAPACK SVD, counted by spectrum_rank. It
    runs on smaller matrices, for rel_tol = 0, and whenever the certificate
    fails within the budget, for instance on a singular value within
    about delta of the threshold or on a matrix of nearly full rank. When
    sigma_max exceeds the largest double (entries near 1e308), the SVD of
    m times 2^-e, e from the gate pass (tensor._unit_exponent), counts.

    Raises ValueError for a negative or non-finite rel_tol, a width below
    one, an m that is not 2-D, or NaN or Inf entries in m, before any
    LAPACK call: the sketch route sees them in M @ Omega, and the gate pass
    over m runs before the fallback SVD.
    """
    _check_rel_tol(rel_tol, "rel_tol")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    m = _matrix(m, "numerical_rank")
    if m.size == 0:
        return 0
    if rel_tol > 0 and SKETCH_COST * width <= min(m.shape):
        r = _sketch_rank(m, rel_tol, width)
        if r is not None:
            return r
    e = _unit_exponent(m, "numerical_rank")
    s = np.linalg.svd(m, compute_uv=False)
    if not np.isfinite(s[0]):  # no copy of m unless its spectrum overflowed
        s = np.linalg.svd(m * 2.0 ** -e, compute_uv=False)
    return spectrum_rank(s, rel_tol)


def nuclear_norm(m) -> float:
    m = _matrix(m, "nuclear_norm")
    _require_finite(m, "nuclear_norm")
    return float(np.linalg.svd(m, compute_uv=False).sum())


def spectral_norm(m) -> float:
    m = _matrix(m, "spectral_norm")
    if m.size == 0:
        return 0.0
    _require_finite(m, "spectral_norm")
    return float(np.linalg.svd(m, compute_uv=False)[0])


def takagi(m) -> TakagiResult:
    """Factor a complex symmetric matrix as m = w @ diag(s) @ w.T.

    Built from the SVD m = u @ diag(s) @ vh: for symmetric m the matrix
    z = u.T @ v is block-diagonal over groups of equal singular values,
    unitary and symmetric there, and w = u @ conj(sqrtm(z)) absorbs the
    phase mismatch block by block. Groups are found by relative gaps of
    size TAKAGI_GROUP_TOL * sigma_max, which rides over the fp jitter of
    truly repeated singular values. A group at or below n * eps * sigma_max
    is numerically zero: any unitary block serves it, so it keeps u's own
    columns and takes no square root.

    Raises ValueError when m is not square, holds NaN or Inf entries, or is
    not symmetric within TAKAGI_SYM_TOL * ||m||_F, relative at any scale:
    both norms are taken of m times 2^-e (tensor._unit_scale), where they
    neither overflow nor underflow.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"takagi needs a square matrix, got shape {m.shape}")
    ms = _unit_scale(m, "takagi")[0]
    bound = TAKAGI_SYM_TOL * max(np.linalg.norm(ms), np.finfo(float).tiny)
    if np.linalg.norm(ms - ms.T) > bound:
        raise ValueError("takagi needs a (complex) symmetric matrix")
    if m.shape[0] == 0:
        return TakagiResult(np.zeros((0, 0), np.complex128), np.zeros(0))
    u, s, vh = np.linalg.svd(m)
    v = vh.conj().T
    zero = s.size * np.finfo(float).eps * s[0]
    blocks = []
    start = 0
    for i in range(1, s.size + 1):
        if i == s.size or s[start] - s[i] > TAKAGI_GROUP_TOL * s[0]:
            idx = slice(start, i)
            blocks.append(np.eye(i - start) if s[start] <= zero
                          else sqrtm(u[:, idx].T @ v[:, idx]))
            start = i
    q = block_diag(*blocks)
    return TakagiResult(u @ q.conj(), s)


@dataclass
class SvtWarm:
    """Warm state of the leading-triplet kernel (_leading), carried from one
    `svt` or `rank_project` call to the next at one call site.

    v holds the previous call's kept right singular vectors plus up to
    OVERSAMPLE more (columns, orthonormal); it seeds the next call's
    subspace iteration. path names the route the last call took,
    "subspace" or "full". s is the spectrum of the last svt output, its
    kept singular values already shrunk by tau, recorded on both routes, so
    s.sum() is that output's nuclear norm (rank_project leaves it alone).
    A solver creates one per call site (one per candidate rank in
    complete_m's refinement, seeded from the continuation's block) and
    passes it to each call.
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


def _leading(m, warm, kept, fits):
    """The leading singular triplets of m, as (u, s, vh) with kept(s) of
    them kept, s a nonincreasing spectrum: the kernel behind svt and
    rank_project.

    When warm holds a block v (orthonormal columns) whose shape the
    caller's fits accepts, block subspace iteration runs from it, with
    Rayleigh-Ritz through the SVD of Q^H M, until the kept Ritz triplets
    satisfy ||M v_i - s_i u_i|| <= SUBSPACE_TOL * s_max ("subspace"). It
    gives up when the block fills (kept >= its width) or after SWEEP_CAP
    sweeps, and then, as without a block, the LAPACK SVD of m runs
    ("full"). Both routes agree with the full SVD to about 1e-12 relative.
    The sweeps only see directions the block reaches, which suits iterates
    that move a little per call; the OVERSAMPLE spare columns hold the
    directions just below the kept ones, those that can rise next. warm,
    when given, moves on to the kept right vectors plus up to OVERSAMPLE
    more and records the route in warm.path. NaN or Inf entries in m raise
    ValueError before any LAPACK call: they show in the first product
    m @ v, and the full SVD's input is checked.
    """
    m = np.asarray(m, dtype=np.complex128)
    if warm is not None and warm.v is not None and fits(warm.v.shape):
        v = warm.v
        # a NaN or Inf in m makes y non-finite, whatever v is, and sends m
        # to the check before the full SVD
        with np.errstate(over="ignore", invalid="ignore"):
            y = m @ v
        for _ in range(SWEEP_CAP if np.isfinite(y).all() else 0):
            q = np.linalg.qr(y)[0]
            ub, s, vh = np.linalg.svd(q.conj().T @ m, full_matrices=False)
            keep = kept(s)
            if keep >= v.shape[1]:
                break
            v = vh.conj().T
            y = m @ v
            u = q @ ub[:, :keep]
            if np.linalg.norm(y[:, :keep] - u * s[:keep]) <= SUBSPACE_TOL * s[0]:
                warm.v = v[:, :keep + OVERSAMPLE]
                warm.path = "subspace"
                return u, s[:keep], vh[:keep]
    _require_finite(m, "matrix")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = kept(s)
    if warm is not None:
        warm.v = vh[:keep + OVERSAMPLE].conj().T
        warm.path = "full"
    return u[:, :keep], s[:keep], vh[:keep]


def svt(m, tau: float, warm: SvtWarm | None = None) -> np.ndarray:
    """Singular value thresholding: shrink every singular value by tau,
    clipping at zero. The proximal map of tau * nuclear norm.

    The triplets above tau come from _leading. Its subspace route runs
    when the warm block is narrow enough that SWEEP_CAP sweeps cost no
    more than one full SVD (_subspace_pays); else, or without warm, the
    full SVD runs. warm is the caller's SvtWarm for this call site,
    updated in place (the next block, the route and the output's
    spectrum). The caller owns it, so calls stay independent across
    threads and the result is a deterministic function of the call
    sequence. Raises ValueError for a NaN or negative tau or an m that is
    not 2-D; tau = +inf gives the zero matrix.
    """
    _check_tau(tau)
    rows, cols = _matrix(m, "svt").shape
    u, s, vh = _leading(
        m, warm, lambda s: int(np.count_nonzero(s > tau)),
        lambda shape: shape[0] == cols and _subspace_pays(rows, cols, shape[1]))
    s = s - tau
    if warm is not None:
        warm.s = s
    return (u * s) @ vh


def _unfolding(t, mode, buf=None):
    """The mode-`mode` unfolding of the complex128 tensor t up to a row
    permutation (which moves neither singular values nor right singular
    vectors): K x n, n = t.shape[mode], the mode index as column. The
    C-ordered t is read as (a, n, b) around the mode: (a, n) for b = 1 and
    (n, b) transposed for a = 1 are views, a middle mode one (n, a * b)
    copy, transposed, written into buf when given (a C-contiguous array of
    t's size, not overlapping t). A Fortran-ordered t (as read_tensor
    returns it) is read as t.T at mode ndim - 1 - mode, a t in neither
    order copied."""
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order {t.ndim}")
    if t.flags.f_contiguous and not t.flags.c_contiguous:
        t, mode = t.T, t.ndim - 1 - mode
    t = np.ascontiguousarray(t)
    a, n, b = math.prod(t.shape[:mode]), t.shape[mode], math.prod(t.shape[mode + 1:])
    if b == 1:
        return t.reshape(a, n)
    x = t.reshape(a, n, b)
    if a > 1:
        copy = np.empty((n, a, b), dtype=t.dtype) if buf is None else buf.reshape(n, a, b)
        np.copyto(copy, x.transpose(1, 0, 2))
        x = copy
    return x.reshape(n, a * b).T


# Below tiny / eps, products rounded into the subnormal range could err by
# more than eps times the Gram trace.
GRAM_TRACE_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


def _gram(m, name):
    """(g, e, conj): g the upper triangle of the Gram matrix G = M^H M of
    M = 2^-e m, or of conj(G) when conj is True (then its eigenvectors are
    the conjugates of m's right singular vectors), from one BLAS zherk on
    whichever face of m is Fortran-contiguous: m itself, or m.T when m is
    C-contiguous. e = 0 unless the trace is not finite or below
    GRAM_TRACE_FLOOR; then g is re-formed from m times 2^-e
    (tensor._unit_scale), exact up to entries below 2^-1022 of the
    largest. A NaN or Inf makes the trace NaN or Inf, so that pass is the
    gate of the routines that read g: ValueError naming `name` and the
    count, before any LAPACK call."""
    conj = m.flags.c_contiguous
    a, trans = (m.T, 0) if conj else (m, 2)  # conj(G) = a a^H, or G = a^H a
    g = blas.zherk(1.0, a, trans=trans)
    trace = g.diagonal().real.sum()
    if np.isfinite(trace) and trace >= GRAM_TRACE_FLOOR:
        return g, 0, conj
    a, e = _unit_scale(a, name)
    return blas.zherk(1.0, a, trans=trans), e, conj


# The margin of the Gram certificate: the computed Gram eigenvalues lie
# within GRAM_ERR * (K + n) * eps * tr(G) of sigma_i^2 for a K x n matrix.
# The Gram's rounding is at most gamma_K * ||M||_F^2 (Higham 2002, section
# 3.5) and the eigensolver's backward error a small multiple of
# n * eps * ||G||_2, both below that with room.
GRAM_ERR = 4.0


def _gram_rank(m, rel_tol, name):
    """numerical_rank(m, rel_tol) of the K x n matrix m certified from the
    eigenvalues of its Gram matrix (_gram), or None. By Weyl's inequality
    each eigenvalue lambda_i of the computed Gram matrix lies within
    delta = GRAM_ERR * (K + n) * eps * tr(G) of sigma_i^2, so the squared
    threshold rel_tol^2 * sigma_1^2 lies within rel_tol^2 * delta of
    rel_tol^2 * lambda_1. The count of lambda_i above
    rel_tol^2 * (lambda_1 + delta) + 2 * delta is returned when every other
    lambda_i is below rel_tol^2 * (lambda_1 - delta) - 2 * delta: every
    sigma_i^2 then clears the threshold by delta, more than a full SVD's
    own rounding, so the full SVD counts the same. None for a singular
    value within about delta / sigma_1 of the threshold, a rank-deficient
    m at a threshold below delta, a zero or empty m, and rel_tol = 0. NaN
    or Inf raise ValueError naming `name` (_gram's gate)."""
    if rel_tol == 0 or m.size == 0:
        return None
    g = _gram(m, name)[0]
    w = np.linalg.eigvalsh(g, UPLO="U")
    delta = GRAM_ERR * (m.shape[0] + m.shape[1]) * np.finfo(float).eps * g.diagonal().real.sum()
    tol2 = rel_tol * rel_tol
    above = int(np.count_nonzero(w > tol2 * (w[-1] + delta) + 2 * delta))
    below = int(np.count_nonzero(w < tol2 * (w[-1] - delta) - 2 * delta))
    return above if above + below == w.size else None


def mode_spectrum(t, mode: int) -> tuple[np.ndarray, np.ndarray]:
    """The singular values (nonincreasing) and the right singular vectors
    (as rows) of the mode-`mode` unfolding M of t, as
    np.linalg.svd(mode_unfold(t, mode), full_matrices=False)[1:] returns
    them, from the eigendecomposition of the n x n Gram matrix (_gram) of
    _unfolding(t, mode), so at any finite scale of t.

    The Gram matrix squares the spectrum: a singular value is accurate to
    about eps * s_max^2 / s absolutely, so those below sqrt(eps) * s_max
    are noise. Each vector is determined up to a unit phase, as from the
    SVD. Raises ValueError for a mode out of range or NaN or Inf entries in
    t (_gram's gate, before any LAPACK call).
    """
    return _spectrum(_unfolding(np.asarray(t, dtype=np.complex128), mode))


def _spectrum(m):
    """mode_spectrum of the unfolding m (_unfolding's view or copy)."""
    k = min(m.shape)
    if k == 0:
        return np.zeros(0), np.zeros((0, m.shape[1]), dtype=np.complex128)
    g, e, conj = _gram(m, "tensor")
    w, v = np.linalg.eigh(g, UPLO="U")
    # eigh's vectors are those of G, or their conjugates when conj is set;
    # the rows of V^H, largest eigenvalue first
    vh = (v if conj else v.conj()).T[::-1][:k]
    return np.ldexp(np.sqrt(np.maximum(w[::-1][:k], 0.0)), e), vh


def mode_rank(t, mode: int, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """numerical_rank of the mode-`mode` unfolding of t: _gram_rank of the
    view _unfolding(t, mode), else numerical_rank of the same view. Raises
    ValueError for a negative or non-finite rel_tol, a mode out of range,
    or NaN or Inf entries in t (the gate of _gram, or of numerical_rank's
    fallback, before any LAPACK call)."""
    _check_rel_tol(rel_tol, "rel_tol")
    m = _unfolding(np.asarray(t, dtype=np.complex128), mode)
    r = _gram_rank(m, rel_tol, "tensor")
    return numerical_rank(m, rel_tol) if r is None else r


# mode_svt's Gram matrix squares the spectrum, so eigenvalue noise of
# eps * s_max^2 shows up as singular values near sqrt(eps) * s_max. Its
# eigenvectors are used only when tau clears that noise by this factor; the
# output error is then about eps * s_max / tau <= 1.5e-12 relative.
GRAM_TAU_MARGIN = 1e4


def mode_svt(t, mode: int, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """svt on the mode-`mode` unfolding of the tensor t, folded back: the
    proximal map of tau * ||mode unfolding||_*, without unfolding t.

    With M the unfolding (mode index as column) and M = U diag(s) V^H,
    svt(M, tau) = M P with P = V diag(max(1 - tau/s, 0)) V^H, n x n for
    n = t.shape[mode]: the mode-`mode` product of t with P^T (De Lathauwer,
    De Moor and Vandewalle 2000). V and s come from mode_spectrum, so any
    finite t is handled, and NaN or Inf raises ValueError. When tau is below
    GRAM_TAU_MARGIN * sqrt(eps) * s_max, too close to the noise the Gram
    matrix's squaring adds, they come from the SVD of _unfolding(t, mode)
    instead. The product is one matmul over t viewed as (a, n, b) around
    the mode, written into out when given (a C-contiguous complex128 array
    of t's shape, not overlapping t), else into a new array; either is
    returned. out is dead until the product overwrites it, so a middle
    mode's unfolding copy, read by the Gram matrix and by the SVD
    fallback, is written into out: the call allocates nothing of t's size
    but its SVD fallback's left vectors. Agrees with the full-SVD svt of M
    to about 1e-12 relative. Raises ValueError for a NaN or negative tau,
    or an out of the wrong kind or overlapping t; tau = +inf gives zero.
    """
    _check_tau(tau)
    t = np.ascontiguousarray(t, dtype=np.complex128)
    if out is None:
        out = np.empty_like(t)
    elif out.shape != t.shape or out.dtype != np.complex128 or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex128 array of t's shape")
    elif np.may_share_memory(out, t):
        raise ValueError("out must not overlap t")
    if t.size == 0:
        return out
    m = _unfolding(t, mode, out)
    s, vh = _spectrum(m)
    if tau < GRAM_TAU_MARGIN * np.sqrt(np.finfo(float).eps) * s[0]:
        _, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = int(np.count_nonzero(s > tau))
    if not keep:
        out.fill(0.0)
        return out
    # P summed from the smallest kept value up, in eigh's order
    vk = vh[keep - 1::-1].conj().T
    p = (vk * (1.0 - tau / s[keep - 1::-1])) @ vk.conj().T
    a, n = math.prod(t.shape[:mode]), t.shape[mode]
    if mode == t.ndim - 1:
        np.matmul(t.reshape(a, n), p, out=out.reshape(a, n))
    else:
        np.matmul(p.T, t.reshape(a, n, -1), out=out.reshape(a, n, -1))
    return out


def rank_project(m, r: int, warm: SvtWarm | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The best rank-r approximation of m (Eckart and Young): its leading r
    singular triplets from _leading, or m itself, to rounding, when
    r >= min(m.shape).

    The subspace route runs from a warm block of exactly r + OVERSAMPLE
    columns, left by the previous call at this site or seeded by the
    caller. There is no cost gate on the width, unlike svt: on iterates
    that move a little per call, two or three sweeps replace a full SVD.
    warm.path records the route taken ("subspace" or "full").

    Returns (x, u): the projection and its leading left singular vectors
    (min(r, rows, cols) orthonormal columns spanning x's column space), so
    a caller that needs the column space runs no second SVD. Raises
    ValueError unless r is an integer >= 0.
    """
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise ValueError(f"r must be an integer >= 0, got {r}")
    cols = np.shape(m)[1]
    u, s, vh = _leading(m, warm, lambda s: r,
                        lambda shape: shape == (cols, r + OVERSAMPLE))
    return (u * s) @ vh, u


# Entries of m whose real factor complex_soft_threshold builds at a time.
SHRINK_BLOCK = 1 << 15


def complex_soft_threshold(m, tau: float, out: np.ndarray | None = None) -> np.ndarray:
    """Entrywise modulus shrinkage z * max(1 - tau/|z|, 0), the proximal map
    of tau * sum(|z_i|) with |.| the complex modulus. The result is written
    into out when given (a complex128 array of m's shape, either m itself,
    to shrink m in place, or one that shares no memory with m), else into
    a new array; either is returned. The work goes one block of m's
    leading-axis rows at a time, at most SHRINK_BLOCK entries (one row if a
    row is larger), so with out given, one real array of a block's shape is
    the call's only allocation besides numpy's own casting buffer. A 0-d m
    is one row. Raises ValueError for a NaN or negative tau; tau = +inf
    gives zero."""
    _check_tau(tau)
    m = np.asarray(m, dtype=np.complex128)
    out = np.empty_like(m) if out is None else out
    rows, dst = (m, out) if m.ndim else (m[None], out[None])
    step = max(1, SHRINK_BLOCK // max(1, math.prod(rows.shape[1:])))
    buf = np.empty(rows[:step].shape)
    for i in range(0, len(rows), step):
        # the block's factor max(1 - tau / max(|m|, tiny), 0), built in
        # place in buf: no temporary per operation, and the same rounding
        f = np.abs(rows[i:i + step], out=buf[:len(rows) - i])
        np.maximum(f, np.finfo(float).tiny, out=f)
        with np.errstate(over="ignore"):  # tau / tiny -> inf clips to 0 below
            np.divide(tau, f, out=f)
        np.subtract(1.0, f, out=f)
        np.maximum(f, 0.0, out=f)
        np.multiply(rows[i:i + step], f, out=dst[i:i + step])
    return out


def complex_l1(m) -> float:
    """Sum of complex moduli, sum(sqrt(re^2 + im^2))."""
    return float(np.abs(np.asarray(m)).sum())
