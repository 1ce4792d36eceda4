"""Write one sha256 per solve of a fixed set of solver runs.

    python3 tools/solver_digests.py OUTFILE

Runs the `mrank` package under src/ next to this script on fixed seeds and
writes one line per solve, "name iters converged digest", to OUTFILE. The
digest covers the solve's `recovered` and `sparse` arrays (their shape,
dtype and bytes), `iters`, `converged`, `residual_trace`, `duality_gap`,
`rel_err_vs_truth`, `rel_err_all` and the rank report, so two runs agree
line for line only when every solve is bitwise equal. The iteration count
and the converged flag are also written in the clear, so where a change
moves bits a diff still shows which solves kept their steps. The set:

- acceptance criteria 7 (complete_n), 8 (rpca_m, rpca_n) and 9
  (complete_supersym) at 10^4, seeds 0-2, with their truths;
- complete_m on criterion 7, seeds 0-4, under the default pairing and
  under 1,3|2,4;
- the robust solvers with an explicit lam, and rpca_m under 1,3|2,4;
- each ADMM solver on zero data, with max_iters 0 and 3, and on data
  scaled by 2^-600;
- dims (3,4,5,6), the robust solvers also under 1,3|2,4, and 4^6;
- the benchmark's robust_supersym instances before relabelling, at 20^4,
  seed 0: rpca_m and rpca_n on rank 8 with 5% corruption, and
  complete_supersym on rank 8 with 40% observed.

BLAS is pinned to one thread unless the environment sets its thread
count. About 8 seconds on one core. A change that must leave every solve
bitwise equal shows it with the same BLAS thread count on both sides:

    python3 tools/solver_digests.py PARENT.txt   # in a checkout of the parent
    python3 tools/solver_digests.py CHANGE.txt   # in the change's checkout
    diff PARENT.txt CHANGE.txt

A change that may move bits but not steps keeps the first three columns:

    diff <(cut -d' ' -f1-3 PARENT.txt) <(cut -d' ' -f1-3 CHANGE.txt)
"""

import hashlib
import os
import sys
from pathlib import Path

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mrank.solvers import (SolverConfig, complete_m, complete_n,  # noqa: E402
                           complete_supersym, rpca_m, rpca_n)
from mrank.synth import gen_cp, gen_mask, gen_sparse_noise, gen_supersym  # noqa: E402
from mrank.tensor import Pairing  # noqa: E402

D10 = (10, 10, 10, 10)
D20 = (20, 20, 20, 20)
P1324 = Pairing((0, 2), (1, 3))


def _completion(solve, t, ratio, seed, **kw):
    mask = gen_mask(t.shape, ratio, seed=seed)
    return lambda cfg=None, k=1.0: solve(mask, k * mask.observe(t), cfg=cfg, truth=k * t, **kw)


def _robust(solve, low, seed, **kw):
    data = low + gen_sparse_noise(low.shape, 0.05, seed=seed)
    return lambda cfg=None, k=1.0: solve(k * data, cfg=cfg, truth=k * low, **kw)


def solves() -> dict:
    """name -> a thunk that runs one solve and returns its SolveResult."""
    runs = {}
    for seed in range(3):
        c7, c8 = gen_cp(D10, 6, seed=seed), gen_cp(D10, 4, seed=seed)
        runs[f"c7_complete_n_{seed}"] = _completion(complete_n, c7, 0.3, seed)
        runs[f"c8_rpca_m_{seed}"] = _robust(rpca_m, c8, seed)
        runs[f"c8_rpca_n_{seed}"] = _robust(rpca_n, c8, seed)
        runs[f"c9_complete_supersym_{seed}"] = _completion(
            complete_supersym, gen_supersym(10, 4, 8, seed=seed), 0.4, seed)
    for seed in range(5):
        c7 = gen_cp(D10, 6, seed=seed)
        runs[f"c7_complete_m_{seed}"] = _completion(complete_m, c7, 0.3, seed)
        runs[f"c7_complete_m_1324_{seed}"] = _completion(complete_m, c7, 0.3, seed,
                                                        pairing=P1324)
    small, lam = gen_cp((6, 6, 6, 6), 2, seed=10), SolverConfig(lam=0.05)
    admm = {
        "complete_n": _completion(complete_n, small, 0.6, 11),
        "rpca_m": _robust(rpca_m, small, 12),
        "rpca_n": _robust(rpca_n, small, 12),
        "complete_supersym": _completion(complete_supersym, gen_supersym(6, 4, 2, seed=13),
                                         0.5, 14),
    }
    for name, run in admm.items():
        runs[f"{name}_zero"] = lambda run=run: run(k=0.0)
        runs[f"{name}_iters0"] = lambda run=run: run(SolverConfig(max_iters=0))
        runs[f"{name}_iters3"] = lambda run=run: run(SolverConfig(max_iters=3))
        runs[f"{name}_tiny"] = lambda run=run: run(k=2.0 ** -600)
    for name in ("rpca_m", "rpca_n"):
        runs[f"{name}_lam"] = lambda run=admm[name]: run(lam)
    runs["rpca_m_1324"] = _robust(rpca_m, small, 12, pairing=P1324)
    for tag, dims in (("3456", (3, 4, 5, 6)), ("4x6", (4,) * 6)):
        t = gen_cp(dims, 2, seed=20)
        runs[f"complete_n_{tag}"] = _completion(complete_n, t, 0.6, 21)
        runs[f"rpca_m_{tag}"] = _robust(rpca_m, t, 22)
        runs[f"rpca_n_{tag}"] = _robust(rpca_n, t, 22)
    runs["rpca_m_3456_1324"] = _robust(rpca_m, gen_cp((3, 4, 5, 6), 2, seed=20), 22,
                                       pairing=P1324)
    runs["complete_supersym_4x6"] = _completion(
        complete_supersym, gen_supersym(4, 6, 2, seed=23), 0.5, 24)
    low = gen_cp(D20, 8, seed=0)
    runs["b20_rpca_m_0"] = _robust(rpca_m, low, 0)
    runs["b20_rpca_n_0"] = _robust(rpca_n, low, 0)
    runs["b20_complete_supersym_0"] = _completion(
        complete_supersym, gen_supersym(20, 4, 8, seed=0), 0.4, 0)
    return runs


def digest(res) -> str:
    """sha256 of every field of a SolveResult that a solve computes."""
    h = hashlib.sha256()
    for a in (res.recovered, res.sparse):
        h.update(b"None" if a is None else repr((a.shape, a.dtype.str)).encode() + a.tobytes())
    scalars = (res.duality_gap, res.rel_err_vs_truth, res.rel_err_all)
    h.update(repr((int(res.iters), bool(res.converged), [float(r) for r in res.residual_trace],
                   [None if s is None else float(s) for s in scalars],
                   res.rank_report.to_dict())).encode())
    return h.hexdigest()


def main(argv) -> int:
    if len(argv) != 1:
        sys.exit(__doc__)
    lines = []
    for name, run in solves().items():
        res = run()
        lines.append(f"{name} {res.iters} {res.converged} {digest(res)}\n")
    Path(argv[0]).write_text("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
