"""Matricization ranks and structured decompositions of even-order tensors.

For an order-2d tensor, every balanced pairing of the axes yields a square
unfolding; the minimum and maximum unfolding rank over the canonical
pairings bracket the CP rank from below (max) and, for order 4, from above
(n1*n3 * min, dims sorted ascending). Super-symmetric tensors admit
decompositions t = sum_i B_i (x) B_i whose factors can always be made
super-symmetric themselves without changing the term count: the
stage-wise construction of the proof composes to the orbit mean
tensor.symmetrize of each factor, which is what `strongly_symmetrize`
applies. A rank-one super-symmetric tensor c * b^{(x) 2d} has a rank-one
mode-0 unfolding whose row space is spanned by b (`rank_one_factorize`).
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .linalg import (DEFAULT_RANK_TOL, OVERSAMPLE, SKETCH_WIDTH, mode_rank, mode_spectrum,
                     numerical_rank, spectrum_rank, takagi)
from .tensor import (
    Pairing,
    _outer_sum,
    _require_finite,
    _resolve_pairing,
    _unit_exponent,
    as_tensor,
    canonical_pairings,
    is_super_symmetric,
    square_unfold,
    symmetrize,
    unvec,
)

__all__ = [
    "RECOVERED_RANK_TOL",
    "RankReport",
    "MDecomposition",
    "m_ranks",
    "m_decompose",
    "symmetric_m_decompose",
    "strongly_symmetrize",
    "rank_one_factorize",
    "cp_exact_for_kron",
    "scp_bound_interval",
]

# Rank tolerance for tensors coming out of an iterative solver. Their error
# floor (~rel_tol of the solve) shows up as noise singular values in the
# unfoldings, far above DEFAULT_RANK_TOL but well below 1e-4 at the accuracy
# the solvers reach.
RECOVERED_RANK_TOL = 1e-4

# strongly_symmetrize rejects a rebuilt decomposition farther than
# DRIFT_TOL * ||t||_F from t.
DRIFT_TOL = 1e-6


@dataclass
class RankReport:
    """Unfolding ranks of one even-order tensor.

    pairing_ranks maps each canonical pairing (text form) to the rank of its
    square unfolding; m_plus/m_minus are their max/min. tucker holds the
    mode-unfolding ranks. cp_lower = m_plus bounds the CP rank from below at
    any even order; cp_upper = n1*n3*m_minus (dims sorted) is the order-4
    upper bound and None otherwise.
    """

    dims: tuple
    m_plus: int
    m_minus: int
    tucker: tuple
    pairing_ranks: dict
    cp_lower: int
    cp_upper: int | None
    rel_tol: float = DEFAULT_RANK_TOL

    @property
    def rank_m(self) -> int | None:
        """The common pairing rank when all pairings agree (as they do for
        super-symmetric tensors), else None."""
        vals = set(self.pairing_ranks.values())
        return vals.pop() if len(vals) == 1 else None

    def to_dict(self) -> dict:
        """The fields in order, tuples as lists."""
        return {**asdict(self), "dims": list(self.dims), "tucker": list(self.tucker)}


def m_ranks(t, rel_tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank report over all canonical pairings and modes of an even-order
    tensor. Every entry is the count a full SVD of its unfolding gives at
    rel_tol. Pairing ranks come from numerical_rank, which certifies large
    low-rank unfoldings from a sketch. The pairings of one tensor tend to
    share a rank, so each pairing's first sketch is the previous pairing's
    rank plus OVERSAMPLE wide (the first pairing's SKETCH_WIDTH): it
    usually certifies in one attempt, and after a near-full-rank pairing
    the next goes straight to the full SVD. Tucker ranks come from
    mode_rank, certified from the eigenvalues of the mode's Gram matrix
    where they can be (not for rank-deficient modes at rel_tol 1e-8, a
    singular value at the threshold or rel_tol = 0). Raises ValueError for
    odd order, a zero-length axis, a negative or non-finite rel_tol, or
    NaN or Inf entries in t (checked once, before any LAPACK call)."""
    t = as_tensor(t)
    if t.ndim % 2 or t.ndim < 2:
        raise ValueError(f"m_ranks needs even order >= 2, got order {t.ndim}")
    if 0 in t.shape:
        raise ValueError(f"m_ranks: zero dimension in {t.shape}")
    _require_finite(t, "m_ranks")
    pranks = {}
    width = SKETCH_WIDTH
    for pr in canonical_pairings(t.ndim):
        r = numerical_rank(square_unfold(t, pr), rel_tol, width=width)
        pranks[str(pr)] = r
        width = r + OVERSAMPLE
    tucker = tuple(mode_rank(t, j, rel_tol) for j in range(t.ndim))
    m_plus = max(pranks.values())
    m_minus = min(pranks.values())
    cp_upper = None
    if t.ndim == 4:
        n = sorted(t.shape)
        cp_upper = n[0] * n[2] * m_minus
    return RankReport(
        dims=t.shape,
        m_plus=m_plus,
        m_minus=m_minus,
        tucker=tucker,
        pairing_ranks=pranks,
        cp_lower=m_plus,
        cp_upper=cp_upper,
        rel_tol=rel_tol,
    )


@dataclass
class MDecomposition:
    """t = sum_i A_i (x) B_i arranged along a pairing.

    kind is "asymmetric" (A_i, B_i unrelated), "symmetric" (B_i is A_i), or
    "strongly_symmetric" (B_i is A_i and each factor is super-symmetric).
    Factors are order-d tensors shaped by the pairing's row/column dims; the
    outer products reconstruct the *permuted* tensor, so `reconstruct`
    applies the inverse axis permutation to land back on `dims`.
    """

    dims: tuple
    pairing: Pairing
    kind: str
    factors: list = field(default_factory=list)  # list of (A_i, B_i)

    @property
    def term_count(self) -> int:
        return len(self.factors)

    def reconstruct(self) -> np.ndarray:
        axes = self.pairing.row + self.pairing.col
        acc = _outer_sum(self.factors, (self.dims[a] for a in axes))
        return np.transpose(acc, np.argsort(axes))


def m_decompose(t, pairing: Pairing | None = None,
                rel_tol: float = DEFAULT_RANK_TOL) -> MDecomposition:
    """Minimal-term decomposition t = sum_i A_i (x) B_i for one pairing.

    The SVD of the square unfolding gives rank-many dyads m = sum_i s_i *
    u_i * vh_i; the scaled left vector folds into A_i over the row-group
    dims and the row vh_i folds into B_i over the column-group dims. NaN or
    Inf entries in t raise ValueError before the SVD.
    """
    t = as_tensor(t)
    _require_finite(t, "m_decompose")
    pr = _resolve_pairing(pairing, t.ndim)
    m = square_unfold(t, pr)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    r = spectrum_rank(s, rel_tol)
    row_dims = tuple(t.shape[a] for a in pr.row)
    col_dims = tuple(t.shape[a] for a in pr.col)
    factors = [
        (unvec(s[i] * u[:, i], row_dims), unvec(vh[i], col_dims))
        for i in range(r)
    ]
    return MDecomposition(dims=t.shape, pairing=pr, kind="asymmetric", factors=factors)


def symmetric_m_decompose(t, rel_tol: float = DEFAULT_RANK_TOL) -> MDecomposition:
    """Decompose a super-symmetric tensor as t = sum_i B_i (x) B_i.

    The square unfolding of a super-symmetric tensor is complex symmetric,
    so its Takagi factorization m = w diag(s) w.T provides the terms:
    B_i = fold(sqrt(s_i) * w_i). Term count equals rank(m). The symmetric
    part (m + m.T) / 2 is factored: is_super_symmetric accepts t at 1e-8
    relative, takagi checks m at 1e-10, and an exactly super-symmetric t
    gives an m that the average moves by rounding only.
    """
    t = as_tensor(t)
    if not is_super_symmetric(t):
        raise ValueError("symmetric_m_decompose needs a super-symmetric tensor")
    pr = Pairing.default(t.ndim)
    m = square_unfold(t, pr)
    res = takagi((m + m.T) / 2)
    r = spectrum_rank(res.s, rel_tol)
    half_dims = tuple(t.shape[a] for a in pr.row)
    factors = []
    for i in range(r):
        b = unvec(np.sqrt(res.s[i]) * res.w[:, i], half_dims)
        factors.append((b, b))
    return MDecomposition(dims=t.shape, pairing=pr, kind="symmetric", factors=factors)


def strongly_symmetrize(dec: MDecomposition, t) -> MDecomposition:
    """Rebuild t = sum_i B_i (x) B_i with super-symmetric factors: each B_i
    becomes its orbit mean symmetrize(B_i), the average of B_i over every
    permutation of its d axes.

    The paper's proof does this in stages: stage m replaces B by the mean
    of B and its swaps of axis m with axes 0..m-1. Those swaps are coset
    representatives of S_m in S_{m+1}, so the stages compose to the mean
    over S_d. The sum is unchanged because t is super-symmetric: averaging
    it over independent permutations of its two halves leaves it fixed, and
    that average of sum_i B_i (x) B_i is sum_i sym(B_i) (x) sym(B_i). Term
    count is preserved; factors may come out zero.

    Raises ValueError when the rebuilt sum is more than DRIFT_TOL * ||t||_F
    from t, which is the symptom of a t that is not actually super-symmetric
    or a decomposition that does not reconstruct it. The test is relative
    at any scale: both norms are taken times 2^-e (tensor._unit_exponent of
    t, which raises ValueError for NaN or Inf entries in t), where they
    neither overflow nor underflow.
    """
    t = as_tensor(t)
    if dec.kind not in ("symmetric", "strongly_symmetric"):
        raise ValueError(f"needs a symmetric decomposition, got kind={dec.kind!r}")
    scale = 2.0 ** -_unit_exponent(t, "strongly_symmetrize")
    bs = [symmetrize(a) for a, _ in dec.factors]
    strong = MDecomposition(dims=dec.dims, pairing=dec.pairing,
                            kind="strongly_symmetric", factors=[(b, b) for b in bs])
    tnorm = max(float(np.linalg.norm(t * scale)), np.finfo(float).tiny)
    diff = strong.reconstruct() - t
    drift = np.linalg.norm(np.multiply(diff, scale, out=diff)) / tnorm
    if drift > DRIFT_TOL:
        raise ValueError(f"reconstruction drift {drift:.2e} after symmetrizing "
                         "the factors; input is not super-symmetric")
    return strong


def rank_one_factorize(t, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Recover b with t = b^{(x) 2d} from a super-symmetric tensor whose
    square unfolding has rank one.

    For t = c * b^{(x) 2d} the mode-0 unfolding is the dyad
    vec(b^{(x) 2d-1}) (c*b)^T, so the top row of its vh, as
    linalg.mode_spectrum reads it off the mode's Gram matrix, is parallel
    to b, and the 2d-th root of the scale fixes the length. Among the 2d
    roots of unity that all reproduce t, the returned representative puts
    the phase of the largest-modulus entry closest to zero, making the
    output deterministic.
    """
    t = as_tensor(t)
    if t.ndim % 2 or len(set(t.shape)) > 1:
        raise ValueError("rank_one_factorize needs an even-order cubical tensor")
    if not is_super_symmetric(t):
        raise ValueError("rank_one_factorize needs a super-symmetric tensor")
    if numerical_rank(square_unfold(t), rel_tol) != 1:
        raise ValueError("square unfolding rank is not one")
    u = mode_spectrum(t, 0)[1][0]
    k = int(np.argmax(np.abs(u)))
    beta = t[(k,) * t.ndim] / u[k] ** t.ndim
    b = np.power(beta, 1.0 / t.ndim) * u
    # choose the 2d-th root of unity putting arg(b[argmax |b|]) nearest zero
    roots = np.exp(2j * np.pi * np.arange(t.ndim) / t.ndim)
    k = int(np.argmax(np.abs(b)))
    b = b * roots[np.argmin(np.abs(np.angle(roots * b[k])))]
    return b


def cp_exact_for_kron(factors) -> int:
    """Exact CP rank of outer(factors[0], ..., factors[d-1]) built from
    matrices: the product of the factors' ranks."""
    out = 1
    for f in factors:
        out *= numerical_rank(np.asarray(f, dtype=np.complex128))
    return out


def scp_bound_interval(t, rel_tol: float = DEFAULT_RANK_TOL) -> tuple:
    """Bracket the symmetric CP rank of a super-symmetric order-4 tensor:
    (rank_M, (n + 4n^2) * rank_M) with rank_M the common unfolding rank."""
    t = as_tensor(t)
    if t.ndim != 4 or len(set(t.shape)) > 1:
        raise ValueError("scp_bound_interval needs an order-4 cubical tensor")
    if not is_super_symmetric(t):
        raise ValueError("scp_bound_interval needs a super-symmetric tensor")
    n = t.shape[0]
    r = numerical_rank(square_unfold(t), rel_tol)
    return (r, (n + 4 * n * n) * r)
