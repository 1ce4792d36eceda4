"""Matricization ranks and structured decompositions of even-order tensors.

For an order-2d tensor, every balanced pairing of the axes yields a square
unfolding; the minimum and maximum unfolding rank over the canonical
pairings bracket the CP rank from below (max) and, for order 4, from above
(n1*n3 * min, dims sorted ascending). Super-symmetric tensors admit
decompositions t = sum_i B_i (x) B_i whose factors can always be made
super-symmetric themselves without changing the term count; the stage-wise
construction for that lives in `strongly_symmetrize`.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_RANK_TOL, numerical_rank, spectrum_rank, takagi
from .tensor import (
    Pairing,
    as_tensor,
    canonical_pairings,
    is_super_symmetric,
    mode_unfold,
    outer,
    square_fold,
    square_unfold,
    unvec,
    vec,
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
        return {
            "dims": list(self.dims),
            "m_plus": self.m_plus,
            "m_minus": self.m_minus,
            "tucker": list(self.tucker),
            "pairing_ranks": dict(self.pairing_ranks),
            "cp_lower": self.cp_lower,
            "cp_upper": self.cp_upper,
            "rel_tol": self.rel_tol,
        }


def m_ranks(t, rel_tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank report over all canonical pairings and modes of an even-order
    tensor. Every entry is numerical_rank's count at rel_tol, the same as
    a full SVD's: large low-rank unfoldings get it from a certified sketch.
    Raises ValueError for odd order."""
    t = as_tensor(t)
    if t.ndim % 2 or t.ndim < 2:
        raise ValueError(f"m_ranks needs even order >= 2, got order {t.ndim}")
    pranks = {}
    for pr in canonical_pairings(t.ndim):
        pranks[str(pr)] = numerical_rank(square_unfold(t, pr), rel_tol)
    tucker = tuple(numerical_rank(mode_unfold(t, j), rel_tol) for j in range(t.ndim))
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
        perm_dims = tuple(self.dims[a] for a in axes)
        acc = np.zeros(perm_dims, dtype=np.complex128)
        for a, b in self.factors:
            acc += outer(a, b)
        return np.transpose(acc, np.argsort(axes))


def m_decompose(t, pairing: Pairing | None = None,
                rel_tol: float = DEFAULT_RANK_TOL) -> MDecomposition:
    """Minimal-term decomposition t = sum_i A_i (x) B_i for one pairing.

    The SVD of the square unfolding gives rank-many dyads m = sum_i s_i *
    u_i * vh_i; the scaled left vector folds into A_i over the row-group
    dims and the row vh_i folds into B_i over the column-group dims.
    """
    t = as_tensor(t)
    pr = Pairing.default(t.ndim) if pairing is None else pairing
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


def symmetric_m_decompose(t, rel_tol: float = DEFAULT_RANK_TOL,
                          sym_tol: float = 1e-8) -> MDecomposition:
    """Decompose a super-symmetric tensor as t = sum_i B_i (x) B_i.

    The square unfolding of a super-symmetric tensor is complex symmetric,
    so its Takagi factorization m = w diag(s) w.T provides the terms:
    B_i = fold(sqrt(s_i) * w_i). Term count equals rank(m).
    """
    t = as_tensor(t)
    if not is_super_symmetric(t, sym_tol):
        raise ValueError("symmetric_m_decompose needs a super-symmetric tensor")
    pr = Pairing.default(t.ndim)
    m = square_unfold(t, pr)
    res = takagi(m)
    r = spectrum_rank(res.s, rel_tol)
    half_dims = tuple(t.shape[a] for a in pr.row)
    factors = []
    for i in range(r):
        b = unvec(np.sqrt(res.s[i]) * res.w[:, i], half_dims)
        factors.append((b, b))
    return MDecomposition(dims=t.shape, pairing=pr, kind="symmetric", factors=factors)


def strongly_symmetrize(dec: MDecomposition, t, drift_tol: float = 1e-6) -> MDecomposition:
    """Rebuild t = sum_i B_i (x) B_i with super-symmetric factors.

    Stage m symmetrizes axis m into axes 0..m-1 of every factor: with
    swaps_j = B with axes j and m exchanged, the stage splits
    B = A + sum_j C_j where A = (B + sum_j swaps_j)/(m+1) is symmetric over
    axes 0..m and C_j = (B - swaps_j)/(m+1). Each C_j can be removed from
    every factor without changing the sum of B (x) B -- that cancellation is
    exactly what super-symmetry of t buys -- so the inner loop subtracts them
    one at a time and verifies the reconstruction after every removal.
    Term count is preserved; factors may come out zero.

    Raises ValueError when the drift after any removal step exceeds
    drift_tol * max(1, ||t||_F), which is the symptom of a t that is not
    actually super-symmetric or a decomposition that does not reconstruct it.
    """
    t = as_tensor(t)
    if dec.kind not in ("symmetric", "strongly_symmetric"):
        raise ValueError(f"needs a symmetric decomposition, got kind={dec.kind!r}")
    d = t.ndim // 2
    bs = [a.copy() for a, _ in dec.factors]
    tnorm = max(1.0, float(np.linalg.norm(t)))

    def recon(fs):
        axes = dec.pairing.row + dec.pairing.col
        acc = np.zeros(tuple(t.shape[a] for a in axes), dtype=np.complex128)
        for b in fs:
            acc += outer(b, b)
        return np.transpose(acc, np.argsort(axes))

    for m in range(1, d):
        removals = [
            [(b - np.swapaxes(b, j, m)) / (m + 1) for j in range(m)] for b in bs
        ]
        for j in range(m):
            for i in range(len(bs)):
                bs[i] = bs[i] - removals[i][j]
            drift = np.linalg.norm(recon(bs) - t) / tnorm
            if drift > drift_tol:
                raise ValueError(
                    f"reconstruction drift {drift:.2e} after removing component "
                    f"(stage {m}, swap {j}); input is not super-symmetric"
                )
    return MDecomposition(
        dims=dec.dims,
        pairing=dec.pairing,
        kind="strongly_symmetric",
        factors=[(b, b) for b in bs],
    )


def rank_one_factorize(t, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Recover b with t = b^{(x) 2d} from a super-symmetric tensor whose
    square unfolding has rank one.

    Takagi of the unfolding gives the single dyad, folding it gives the
    order-d half A with t = A (x) A; a second factorization of A (Takagi
    again for d = 2, the dominant singular pair of its first mode unfolding
    otherwise) gives the direction of b, and the 2d-th root of the scale
    fixes its length. Among the 2d roots of unity that all reproduce t, the
    returned representative puts the phase of the largest-modulus entry
    closest to zero, making the output deterministic.
    """
    t = as_tensor(t)
    if t.ndim % 2 or len(set(t.shape)) > 1:
        raise ValueError("rank_one_factorize needs an even-order cubical tensor")
    if not is_super_symmetric(t, 1e-8):
        raise ValueError("rank_one_factorize needs a super-symmetric tensor")
    d = t.ndim // 2
    n = t.shape[0]
    res = takagi(square_unfold(t))
    if spectrum_rank(res.s, rel_tol) != 1:
        raise ValueError("square unfolding rank is not one")
    a = unvec(np.sqrt(res.s[0]) * res.w[:, 0], (n,) * d)

    if d == 2:
        # a is a symmetric rank-one matrix: one more Takagi dyad
        a = (a + a.T) / 2
        res2 = takagi(a)
        u = res2.w[:, 0]
    else:
        # a = sigma * b^{(x) d}; its mode-0 unfolding is the dyad
        # vec(b^{(x) d-1}) (sigma*b)^T, whose top row of vh is parallel to b
        _, _, vh = np.linalg.svd(mode_unfold(a, 0), full_matrices=False)
        u = vh[0]
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
    if not is_super_symmetric(t, 1e-8):
        raise ValueError("scp_bound_interval needs a super-symmetric tensor")
    n = t.shape[0]
    r = numerical_rank(square_unfold(t), rel_tol)
    return (r, (n + 4 * n * n) * r)
