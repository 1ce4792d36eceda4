"""Output checks for the benchmark, made apart from the program under test.

Each check compares an output with a known answer (the generated truth, or a
rank fixed when the instance was generated) or with a property the method
must have (feasibility, an objective no worse than the truth's, symmetry).
Nothing here imports mrank or compares with a stored copy of its output:
unfoldings, ranks, norms, orbit means and the MTEN reader are computed here
from numpy and scipy alone, so a fault in the program cannot vouch for
itself. Every check returns a list of problems; an empty list is a pass.

Tolerances are those of tests/test_acceptance.py.
"""

import struct
from itertools import combinations
from math import comb

import numpy as np
from scipy.linalg import svdvals

RECOVERED_RANK_TOL = 1e-4  # rank tolerance for solver outputs
COMPLETION_ERR = 1e-3  # completion error against the truth
LOW_RANK_ERR = 1e-4  # robust recovery: low-rank part against the truth
SPLIT_ERR = 1e-5  # robust recovery: relative ||L + S - data||
SYMMETRY_TOL = 1e-6  # super-symmetry of a completed tensor
FACTOR_SYMMETRY_TOL = 1e-8  # super-symmetry of decomposition factors
RECONSTRUCTION_ERR = 1e-7  # strongly symmetric decomposition
RANK_ONE_ERR = 1e-8  # rank-one round trip
ORBIT_MEAN_TOL = 1e-12  # symmetrize against the orbit mean


def rel(a, b) -> float:
    """||a - b||_F / ||b||_F."""
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), np.finfo(float).tiny))


def row_groups(order: int) -> list:
    """Row axes of every balanced split with axis 0 in the rows."""
    d = order // 2
    return [(0,) + rest for rest in combinations(range(1, order), d - 1)]


def unfold(t, rows) -> np.ndarray:
    """Square matricization with the given axes as rows."""
    cols = tuple(a for a in range(t.ndim) if a not in rows)
    nrow = int(np.prod([t.shape[a] for a in rows]))
    return np.transpose(t, tuple(rows) + cols).reshape(nrow, -1)


def mode_matrix(t, j) -> np.ndarray:
    """Mode-j matricization, mode index as rows (ranks and norms only)."""
    return np.moveaxis(t, j, 0).reshape(t.shape[j], -1)


def rank(m, tol) -> int:
    s = svdvals(m)
    return int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0


def nuclear(m) -> float:
    return float(svdvals(m).sum())


def square_ranks(t, tol=RECOVERED_RANK_TOL) -> list:
    return [rank(unfold(t, rows), tol) for rows in row_groups(t.ndim)]


def mode_nuclear_mean(t) -> float:
    """(1/D) * sum of the mode unfoldings' nuclear norms."""
    return sum(nuclear(mode_matrix(t, j)) for j in range(t.ndim)) / t.ndim


def symmetry_defect(t) -> float:
    """Largest ||t - t with axes j, j+1 swapped|| over j, relative to
    max(1, ||t||). Adjacent swaps generate every axis permutation."""
    if len(set(t.shape)) > 1:
        return float("inf")
    scale = max(1.0, float(np.linalg.norm(t)))
    return max(
        (float(np.linalg.norm(t - np.swapaxes(t, j, j + 1))) / scale
         for j in range(t.ndim - 1)),
        default=0.0,
    )


def observed(t, flat) -> np.ndarray:
    """Entries of t at Fortran-order flat positions."""
    return t.reshape(-1, order="F")[flat]


def orbit_mean(t) -> np.ndarray:
    """Mean of t over each orbit of index tuples under axis permutations:
    entries whose sorted multi-indices agree share one orbit."""
    n, order = t.shape[0], t.ndim
    idx = np.indices(t.shape).reshape(order, -1)
    key = np.ravel_multi_index(np.sort(idx, axis=0), t.shape)
    _, ids = np.unique(key, return_inverse=True)
    flat = t.reshape(-1)
    count = np.bincount(ids)
    mean = (np.bincount(ids, flat.real) + 1j * np.bincount(ids, flat.imag)) / count
    return mean[ids].reshape((n,) * order)


def read_mten(path) -> np.ndarray:
    """Parse an MTEN version-1 file: magic, version, order, little-endian
    uint64 dims, Fortran-order little-endian complex128 entries."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:5] != b"MTEN\x01":
        raise ValueError(f"{path}: bad MTEN header")
    order = raw[5]
    dims = struct.unpack(f"<{order}Q", raw[6 : 6 + 8 * order])
    flat = np.frombuffer(raw, dtype="<c16", offset=6 + 8 * order)
    return flat.reshape(dims, order="F")


def _expect(problems, ok, text):
    if not ok:
        problems.append(text)


def check_complete_m(rec, rel_err_all, truth, flat, values, r, rel_tol) -> list:
    """Error against the truth, rank r on every square unfolding, and an
    observed residual within rel_tol that equals the reported one."""
    p = []
    err = rel(rec, truth)
    _expect(p, err <= COMPLETION_ERR, f"error {err:.3g} > {COMPLETION_ERR}")
    ranks = square_ranks(rec)
    _expect(p, ranks == [r] * len(ranks), f"square ranks {ranks}, expected {r}")
    res = rel(observed(rec, flat), values)
    _expect(p, res <= rel_tol, f"observed residual {res:.3g} > {rel_tol}")
    _expect(p, rel_err_all is not None and np.isclose(res, rel_err_all, rtol=1e-6, atol=0),
            f"reported rel_err_all {rel_err_all} != observed residual {res:.6g}")
    return p


def check_complete_n(rec, truth, flat, values) -> list:
    """Observed entries equal the data bitwise, and the objective the solver
    minimises is no larger than the (feasible) truth's."""
    p = []
    _expect(p, np.array_equal(observed(rec, flat), values), "observed entries moved")
    got, ref = mode_nuclear_mean(rec), mode_nuclear_mean(truth)
    _expect(p, got <= ref, f"mode nuclear objective {got:.6g} > truth's {ref:.6g}")
    return p


def _split_slack(e, lam, nuclear_of) -> float:
    """Objective change that removing the split residual e could cause."""
    return nuclear_of(e) + lam * float(np.abs(e).sum())


def check_rpca_m(low, sparse, data, low_truth, sparse_truth, r) -> list:
    """Split residual, low-rank error and ranks, and an objective
    ||L||_* + lam ||S||_1 (square unfolding, lam = 1/sqrt(rows)) no larger
    than the true split's, up to what the split residual can account for."""
    p = []
    split = rel(low + sparse, data)
    _expect(p, split <= SPLIT_ERR, f"split residual {split:.3g} > {SPLIT_ERR}")
    err = rel(low, low_truth)
    _expect(p, err <= LOW_RANK_ERR, f"low-rank error {err:.3g} > {LOW_RANK_ERR}")
    ranks = square_ranks(low)
    _expect(p, ranks == [r] * len(ranks), f"square ranks {ranks}, expected {r}")
    rows = tuple(range(low.ndim // 2))  # the solver's default pairing
    lam = 1.0 / np.sqrt(unfold(low, rows).shape[0])

    def obj(a, b):
        return nuclear(unfold(a, rows)) + lam * float(np.abs(b).sum())

    got, ref = obj(low, sparse), obj(low_truth, sparse_truth)
    slack = _split_slack(low + sparse - data, lam, lambda e: nuclear(unfold(e, rows)))
    _expect(p, got <= ref + slack, f"objective {got:.8g} > truth's {ref:.8g} + {slack:.2g}")
    return p


def check_rpca_n(low, sparse, data, low_truth, sparse_truth) -> list:
    """Split residual, and an objective mean_j ||L_(j)||_* + lam ||S||_1
    (lam = 1/sqrt(n1*n2)) no larger than the true split's, up to what the
    split residual can account for."""
    p = []
    split = rel(low + sparse, data)
    _expect(p, split <= SPLIT_ERR, f"split residual {split:.3g} > {SPLIT_ERR}")
    lam = 1.0 / np.sqrt(data.shape[0] * data.shape[1])

    def obj(a, b):
        return mode_nuclear_mean(a) + lam * float(np.abs(b).sum())

    got, ref = obj(low, sparse), obj(low_truth, sparse_truth)
    slack = _split_slack(low + sparse - data, lam, mode_nuclear_mean)
    _expect(p, got <= ref + slack, f"objective {got:.8g} > truth's {ref:.8g} + {slack:.2g}")
    return p


def check_complete_supersym(rec, truth, flat, values, r) -> list:
    """Error, common unfolding rank r, super-symmetry, and observed entries
    kept to rounding."""
    p = []
    err = rel(rec, truth)
    _expect(p, err <= COMPLETION_ERR, f"error {err:.3g} > {COMPLETION_ERR}")
    ranks = square_ranks(rec)
    _expect(p, ranks == [r] * len(ranks), f"square ranks {ranks}, expected {r}")
    sym = symmetry_defect(rec)
    _expect(p, sym <= SYMMETRY_TOL, f"symmetry defect {sym:.3g} > {SYMMETRY_TOL}")
    drift = float(np.abs(observed(rec, flat) - values).max())
    bound = 1e-12 * max(1.0, float(np.abs(values).max()))
    _expect(p, drift <= bound, f"observed entries moved by {drift:.3g}")
    return p


def check_rank_report(rep, dims, r, k=None) -> list:
    """A CP instance of r terms has every pairing rank r and Tucker ranks
    min(n_j, r); a matrix-product (kron) instance with inner rank k has
    m_plus = r*k^2, m_minus = r and Tucker ranks min(r*k, n_j). The bounds
    are cp_lower = m_plus and, at order 4 only, cp_upper = n1*n3*m_minus."""
    p = []
    order = len(dims)
    pranks = rep["pairing_ranks"]
    _expect(p, list(rep["dims"]) == list(dims), f"dims {rep['dims']} != {list(dims)}")
    _expect(p, len(pranks) == comb(order, order // 2) // 2,
            f"{len(pranks)} pairings for order {order}")
    if k is None:
        _expect(p, set(pranks.values()) == {r}, f"pairing ranks {pranks}, expected {r}")
        m_plus, m_minus, tucker = r, r, [min(n, r) for n in dims]
    else:
        m_plus, m_minus, tucker = r * k * k, r, [min(r * k, n) for n in dims]
    _expect(p, rep["m_plus"] == m_plus, f"m_plus {rep['m_plus']} != {m_plus}")
    _expect(p, rep["m_minus"] == m_minus, f"m_minus {rep['m_minus']} != {m_minus}")
    _expect(p, list(rep["tucker"]) == tucker, f"tucker {rep['tucker']} != {tucker}")
    _expect(p, rep["cp_lower"] == rep["m_plus"], "cp_lower != m_plus")
    n = sorted(dims)
    upper = n[0] * n[2] * rep["m_minus"] if order == 4 else None
    _expect(p, rep["cp_upper"] == upper, f"cp_upper {rep['cp_upper']} != {upper}")
    return p


def check_mten_round_trip(path, t) -> list:
    back = read_mten(path)
    ok = back.shape == t.shape and back.tobytes(order="F") == t.tobytes(order="F")
    return [] if ok else [f"{path}: MTEN round trip is not bitwise"]


def check_symmetrize(out, x, s) -> list:
    """Equal to the orbit mean of x, super-symmetric, and self-adjoint
    against a super-symmetric s: <sym(x), s> = <x, s>."""
    p = []
    scale = float(np.linalg.norm(x))
    dev = float(np.linalg.norm(out - orbit_mean(x))) / scale
    _expect(p, dev <= ORBIT_MEAN_TOL, f"differs from the orbit mean by {dev:.3g}")
    sym = symmetry_defect(out)
    _expect(p, sym <= ORBIT_MEAN_TOL, f"symmetry defect {sym:.3g}")
    gap = abs(np.vdot(s, out) - np.vdot(s, x)) / (scale * float(np.linalg.norm(s)))
    _expect(p, gap <= ORBIT_MEAN_TOL, f"<sym(x), s> - <x, s> = {gap:.3g}")
    return p


def check_strong_decomposition(factors, t, r) -> list:
    """r terms t = sum_i B_i (x) B_i with every B_i super-symmetric."""
    p = []
    _expect(p, len(factors) == r, f"{len(factors)} terms, expected {r}")
    sym = max((symmetry_defect(b) for b in factors), default=0.0)
    _expect(p, sym <= FACTOR_SYMMETRY_TOL, f"factor symmetry defect {sym:.3g}")
    recon = sum(np.multiply.outer(b, b) for b in factors)
    err = rel(recon, t)
    _expect(p, err <= RECONSTRUCTION_ERR, f"reconstruction error {err:.3g}")
    return p


def check_rank_one(b, t) -> list:
    """b^{(x) D} reproduces the rank-one tensor t."""
    power = b
    for _ in range(t.ndim - 1):
        power = np.multiply.outer(power, b)
    err = rel(power, t)
    return [] if err <= RANK_ONE_ERR else [f"rank-one round trip error {err:.3g}"]
