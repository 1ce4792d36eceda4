"""Unfolding ranks and convex recovery for even-order complex tensors.

The package groups the d row axes and d column axes of a 2d-order tensor
into square matricizations (one per balanced pairing of the axes), measures
tensor complexity by the max/min rank over those unfoldings, certifies
bounds on the rank-one term count, and recovers low-rank tensors from
partial or corrupted data by convex optimization on the unfoldings.
"""

from .fileio import (
    read_frames,
    read_tensor,
    write_frames,
    write_report,
    write_tensor,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    TakagiResult,
    complex_l1,
    complex_soft_threshold,
    nuclear_norm,
    numerical_rank,
    spectral_norm,
    svt,
    takagi,
)
from .ranks import (
    RECOVERED_RANK_TOL,
    MDecomposition,
    RankReport,
    cp_exact_for_kron,
    m_decompose,
    m_ranks,
    rank_one_factorize,
    scp_bound_interval,
    strongly_symmetrize,
    symmetric_m_decompose,
)
from .solvers import (
    PENALTY_SCALE,
    SolveResult,
    SolverConfig,
    complete_m,
    complete_n,
    complete_supersym,
    rpca_m,
    rpca_n,
)
from .synth import (
    InstanceSpec,
    Mask,
    complex_normal,
    gen_cp,
    gen_kron,
    gen_mask,
    gen_sparse_noise,
    gen_supersym,
)
from .tensor import (
    Pairing,
    as_tensor,
    canonical_pairings,
    is_super_symmetric,
    mode_fold,
    mode_unfold,
    outer,
    permute,
    square_fold,
    square_unfold,
    symmetrize,
    unvec,
    vec,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_RANK_TOL",
    "RECOVERED_RANK_TOL",
    "PENALTY_SCALE",
    "Pairing",
    "RankReport",
    "MDecomposition",
    "TakagiResult",
    "InstanceSpec",
    "Mask",
    "SolverConfig",
    "SolveResult",
    "as_tensor",
    "vec",
    "unvec",
    "permute",
    "outer",
    "canonical_pairings",
    "square_unfold",
    "square_fold",
    "mode_unfold",
    "mode_fold",
    "symmetrize",
    "is_super_symmetric",
    "svt",
    "takagi",
    "numerical_rank",
    "nuclear_norm",
    "spectral_norm",
    "complex_l1",
    "complex_soft_threshold",
    "m_ranks",
    "m_decompose",
    "symmetric_m_decompose",
    "strongly_symmetrize",
    "rank_one_factorize",
    "cp_exact_for_kron",
    "scp_bound_interval",
    "complex_normal",
    "gen_cp",
    "gen_kron",
    "gen_supersym",
    "gen_mask",
    "gen_sparse_noise",
    "complete_m",
    "complete_n",
    "rpca_m",
    "rpca_n",
    "complete_supersym",
    "read_tensor",
    "write_tensor",
    "read_frames",
    "write_frames",
    "write_report",
]
