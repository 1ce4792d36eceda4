"""The benchmark's workloads: inputs built from the seed, the timed
operations, and the check each operation's output must pass.

Solver instances are fixed base instances of the families in
tests/test_acceptance.py, relabelled by the seed: every mode's indices are
permuted (one shared permutation for a super-symmetric tensor, so symmetry
is kept) and the whole tensor is turned by a global phase. A relabelled
instance is a different input with the same spectra, the same answer up to
the relabelling and the same solver work, so the seed varies the inputs
without varying the iteration counts. (rpca_m takes 170 to 410 iterations
on instance seeds 0 to 5 of the 20^4 family, which would swamp any change
being measured.) Rank reports and symmetrize cost the same on any input, so
they use instance seed = seed directly.

Operations reach the program through module attributes at call time, so
the tracer's wrappers see them.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import mrank.cli as cli
import mrank.fileio as fileio
import mrank.ranks as ranks
import mrank.solvers as solvers
import mrank.synth as synth
import mrank.tensor as tensor

# stream label of the benchmark's own draws, apart from synth's labels 1..3
_BENCH_STREAM = 7


@dataclass
class Op:
    """One timed operation. `key` names the per-operation time it adds to."""

    key: str
    run: Callable[[], object]
    check: Callable[[object], list]


def relabelling(rng, dims, symmetric):
    """Index permutation per mode and a global phase."""
    if symmetric:
        perm = rng.permutation(dims[0])
        perms = [perm] * len(dims)
    else:
        perms = [rng.permutation(n) for n in dims]
    return perms, np.exp(2j * np.pi * rng.random())


def relabel(t, perms, phase):
    """Entry (j_1..j_D) of the result is phase * t[perm_1[j_1], ...]."""
    return phase * t[np.ix_(*perms)]


def relabel_mask(mask, perms):
    """The mask observing the relabelled positions of mask's entries."""
    multi = mask.multi_indices()
    new = [np.argsort(p)[i] for p, i in zip(perms, multi)]
    flat = np.ravel_multi_index(new, mask.dims, order="F")
    return synth.Mask(mask.dims, np.sort(flat))


def _completion_ops(truth, mask, values, r, rel_tol):
    return [
        Op("complete_m_s",
           lambda: solvers.complete_m(mask, values),
           lambda res: checks.check_complete_m(res.recovered, res.rel_err_all, truth,
                                               mask.flat, values, r, rel_tol)),
        Op("complete_n_s",
           lambda: solvers.complete_n(mask, values),
           lambda res: checks.check_complete_n(res.recovered, truth, mask.flat, values)),
    ]


def completion(seed, workdir):
    """complete_m and complete_n on criterion 7's family: rank-6 CP tensors,
    10^4, 30% of entries observed. Base instance seeds 0, 1 and 2."""
    dims, r, ratio = (10, 10, 10, 10), 6, 0.3
    rng = np.random.default_rng([seed, _BENCH_STREAM])
    rel_tol = solvers.SolverConfig().rel_tol
    ops = []
    for base in (0, 1, 2):
        perms, phase = relabelling(rng, dims, False)
        truth = relabel(synth.gen_cp(dims, r, base), perms, phase)
        mask = relabel_mask(synth.gen_mask(dims, ratio, base), perms)
        ops += _completion_ops(truth, mask, mask.observe(truth), r, rel_tol)
    return ops


def robust_supersym(seed, workdir):
    """rpca_m and rpca_n on a 20^4 rank-8 CP tensor with 5% sparse
    corruption, and complete_supersym on a 20^4 rank-8 super-symmetric
    tensor with 40% observed. Base instance seed 0."""
    dims, r, density, ratio = (20, 20, 20, 20), 8, 0.05, 0.4
    rng = np.random.default_rng([seed, _BENCH_STREAM])
    perms, phase = relabelling(rng, dims, False)
    low = relabel(synth.gen_cp(dims, r, 0), perms, phase)
    noise = relabel(synth.gen_sparse_noise(dims, density, 0), perms, phase)
    data = low + noise
    sperms, sphase = relabelling(rng, dims, True)
    sym = relabel(synth.gen_supersym(dims[0], len(dims), r, 0), sperms, sphase)
    smask = relabel_mask(synth.gen_mask(dims, ratio, 0), sperms)
    svalues = smask.observe(sym)
    return [
        Op("rpca_m_s",
           lambda: solvers.rpca_m(data),
           lambda res: checks.check_rpca_m(res.recovered, res.sparse, data, low, noise, r)),
        Op("rpca_n_s",
           lambda: solvers.rpca_n(data),
           lambda res: checks.check_rpca_n(res.recovered, res.sparse, data, low, noise)),
        Op("complete_supersym_s",
           lambda: solvers.complete_supersym(smask, svalues),
           lambda res: checks.check_complete_supersym(res.recovered, sym, smask.flat,
                                                      svalues, r)),
    ]


# name, dims, term count r, inner rank k (kron form) or None (CP form)
RANK_REPORTS = (
    ("cp_30", (30, 30, 30, 30), 40, None),
    ("cp_25_30", (25, 25, 30, 30), 40, None),
    ("cp_order6", (8,) * 6, 20, None),
    ("kron", (16, 16, 16, 16), 3, 3),
    ("supersym_order8", (4,) * 8, 6, None),
)


def _rank_report_op(path, t, dims, r, k):
    report = path + ".json"

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["rank", path, "--output", report, "--format", "json"])
        if code != 0:
            raise RuntimeError(f"mrank rank {path} exited {code}")

    def check(_):
        with open(report) as fh:
            rep = json.load(fh)
        os.remove(report)
        return checks.check_rank_report(rep, dims, r, k) + checks.check_mten_round_trip(path, t)

    return Op("rank_report_s", run, check)


def _decompose_op(t, r):
    def run():
        dec = ranks.symmetric_m_decompose(t)
        return [b for b, _ in ranks.strongly_symmetrize(dec, t).factors]

    return Op("decompose_s", run, lambda fs: checks.check_strong_decomposition(fs, t, r))


def _rank_one_op(b, order):
    t = b
    for _ in range(order - 1):
        t = np.multiply.outer(t, b)
    return Op("rank_one_s", lambda: ranks.rank_one_factorize(t),
              lambda bhat: checks.check_rank_one(bhat, t))


def ranks_workload(seed, workdir):
    """`mrank rank` reports through mrank.cli.main on MTEN files written
    here, symmetrize on a 4^8 tensor, symmetric -> strongly symmetric
    decompositions at orders 4 and 6, and rank-one factorizations at orders
    4 and 6."""
    ops = []
    tensors = {}
    for name, dims, r, k in RANK_REPORTS:
        if k is not None:
            t = synth.gen_kron(dims, r, k, seed)
        elif name.startswith("supersym"):
            t = synth.gen_supersym(dims[0], len(dims), r, seed)
        else:
            t = synth.gen_cp(dims, r, seed)
        path = os.path.join(workdir, name + ".mten")
        fileio.write_tensor(path, t)
        tensors[name] = t
        ops.append(_rank_report_op(path, t, dims, r, k))

    rng = np.random.default_rng([seed, _BENCH_STREAM])
    x = rng.standard_normal((4,) * 8) + 1j * rng.standard_normal((4,) * 8)
    s = tensors["supersym_order8"]
    ops.append(Op("symmetrize_s", lambda: tensor.symmetrize(x),
                  lambda out: checks.check_symmetrize(out, x, s)))

    for n, order, r in ((8, 4, 5), (5, 6, 4)):
        ops.append(_decompose_op(synth.gen_supersym(n, order, r, seed), r))
    for n, order in ((10, 4), (6, 6)):
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ops.append(_rank_one_op(b, order))
    return ops


WORKLOADS = {"completion": completion, "robust_supersym": robust_supersym,
            "ranks": ranks_workload}


def build(workload, seed, workdir):
    """Generate the workload's inputs (its set-up) and return its operations."""
    ops = WORKLOADS[workload](seed, workdir)
    np.linalg.svd(np.ones((64, 64), dtype=np.complex128))  # warm up LAPACK
    return ops
