"""The package namespace: `mrank` exports exactly its modules' public names."""

import mrank
from mrank import fileio, linalg, ranks, solvers, synth, tensor

MODULES = (fileio, linalg, ranks, solvers, synth, tensor)

# the names mrank exported before its __all__ was built from the modules'
EXPORTED = {
    "DEFAULT_RANK_TOL", "RECOVERED_RANK_TOL", "PENALTY_SCALE",
    "Pairing", "RankReport", "MDecomposition", "TakagiResult", "InstanceSpec",
    "Mask", "SolverConfig", "SolveResult",
    "as_tensor", "vec", "unvec", "permute", "outer", "canonical_pairings",
    "square_unfold", "square_fold", "mode_unfold", "mode_fold", "symmetrize",
    "is_super_symmetric",
    "svt", "takagi", "numerical_rank", "nuclear_norm", "spectral_norm",
    "complex_l1", "complex_soft_threshold",
    "m_ranks", "m_decompose", "symmetric_m_decompose", "strongly_symmetrize",
    "rank_one_factorize", "cp_exact_for_kron", "scp_bound_interval",
    "complex_normal", "gen_cp", "gen_kron", "gen_supersym", "gen_mask",
    "gen_sparse_noise",
    "complete_m", "complete_n", "rpca_m", "rpca_n", "complete_supersym",
    "read_tensor", "write_tensor", "read_frames", "write_frames", "write_report",
}


def test_package_all_is_the_modules_all():
    names = [n for m in MODULES for n in m.__all__]
    assert mrank.__all__ == names
    assert len(set(names)) == len(names)


def test_every_exported_name_is_its_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(mrank, name) is getattr(m, name), (m.__name__, name)


def test_exported_names_are_unchanged():
    assert len(EXPORTED) == 53
    assert set(mrank.__all__) == EXPORTED
