"""Per-layer tracing from outside the program.

`Tracer.install` replaces the program's public functions, in every mrank
module namespace that holds them, with wrappers that time each call, and
restores the originals on `uninstall`. Nothing in the program changes.
`numpy.linalg.svd` is wrapped as `lapack.svd` because the solvers call it
directly.

For every span the tracer keeps calls, inclusive seconds and self seconds
(inclusive minus the time of wrapped calls made inside it). It also counts
solver iterations and, for the SVD layers, the work sum(m * n * min(m, n))
over the calls, computed from the matrix shapes (never measured), plus a
histogram of those shapes.
"""

import functools
import importlib
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("mrank", "mrank.tensor", "mrank.linalg", "mrank.ranks", "mrank.solvers",
           "mrank.synth", "mrank.fileio", "mrank.cli")

SOLVERS = ("complete_m", "complete_n", "rpca_m", "rpca_n", "complete_supersym")

# span name -> (module, functions it covers)
SPANS = {
    "tensor.square_unfold": ("mrank.tensor", ("square_unfold",)),
    "tensor.square_fold": ("mrank.tensor", ("square_fold",)),
    "tensor.mode_unfold": ("mrank.tensor", ("mode_unfold",)),
    "tensor.mode_fold": ("mrank.tensor", ("mode_fold",)),
    "tensor.symmetrize": ("mrank.tensor", ("symmetrize",)),
    "tensor.is_super_symmetric": ("mrank.tensor", ("is_super_symmetric",)),
    "linalg.svt": ("mrank.linalg", ("svt",)),
    "linalg.numerical_rank": ("mrank.linalg", ("numerical_rank",)),
    "linalg.spectral_norm": ("mrank.linalg", ("spectral_norm",)),
    "linalg.takagi": ("mrank.linalg", ("takagi",)),
    "linalg.complex_soft_threshold": ("mrank.linalg", ("complex_soft_threshold",)),
    "lapack.svd": ("numpy.linalg", ("svd",)),
    "ranks.m_ranks": ("mrank.ranks", ("m_ranks",)),
    "ranks.symmetric_m_decompose": ("mrank.ranks", ("symmetric_m_decompose",)),
    "ranks.strongly_symmetrize": ("mrank.ranks", ("strongly_symmetrize",)),
    "ranks.rank_one_factorize": ("mrank.ranks", ("rank_one_factorize",)),
    **{f"solvers.{s}": ("mrank.solvers", (s,)) for s in SOLVERS},
    "synth.gen": ("mrank.synth", ("gen_cp", "gen_kron", "gen_supersym", "gen_sparse_noise")),
    "synth.gen_mask": ("mrank.synth", ("gen_mask",)),
    "fileio.read_tensor": ("mrank.fileio", ("read_tensor",)),
    "fileio.write_tensor": ("mrank.fileio", ("write_tensor",)),
    "cli.main": ("mrank.cli", ("main",)),
}

WORK_SPANS = ("linalg.svt", "linalg.numerical_rank", "lapack.svd")


def svd_work(m) -> int:
    """m * n * min(m, n) for the (stack of) matrices in the first argument."""
    shape = np.shape(m)
    if len(shape) < 2:
        return 0
    rows, cols = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * rows * cols * min(rows, cols)


def metric_names() -> list:
    """Every per-layer metric a traced run reports, in report order."""
    names = [f"{span}.{part}" for span in SPANS for part in ("calls", "s", "self_s")]
    names += [f"solvers.{s}.iters" for s in SOLVERS]
    names += [f"{span}.work" for span in WORK_SPANS]
    return names


def metric_unit(name: str) -> str:
    return "s" if name.endswith((".s", ".self_s")) else "count"


class Tracer:
    """Span statistics for one traced phase. `clock` is injectable so the
    self-time arithmetic can be tested on a synthetic call tree."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.counts = Counter()  # iterations and computed work
        self.shapes = defaultdict(Counter)
        self._stack = []  # child seconds of each open span
        self._patched = []

    def wrap(self, span, fn):
        work = span in WORK_SPANS
        iters = span.startswith("solvers.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span, start)
            if work and args:
                self.counts[f"{span}.work"] += svd_work(args[0])
                self.shapes[span]["x".join(map(str, np.shape(args[0])))] += 1
            if iters:
                self.counts[f"{span}.iters"] += out.iters
            return out

        return traced

    def _close(self, span, start):
        took = self.clock() - start
        children = self._stack.pop()
        if self._stack:
            self._stack[-1] += took
        self.calls[span] += 1
        self.seconds[span] += took
        self.self_seconds[span] += took - children

    def install(self):
        """Wrap every span's functions wherever the program refers to them."""
        namespaces = [importlib.import_module(m) for m in MODULES]
        for span, (home, names) in SPANS.items():
            home_mod = importlib.import_module(home)
            for name in names:
                orig = getattr(home_mod, name)
                wrapped = self.wrap(span, orig)
                for mod in {home_mod, *namespaces}:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, orig))
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def metrics(self) -> dict:
        """Per-layer metric values of this phase, by metric name."""
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.s"] = self.seconds[span]
            out[f"{span}.self_s"] = self.self_seconds[span]
        for s in SOLVERS:
            out[f"solvers.{s}.iters"] = self.counts[f"solvers.{s}.iters"]
        for span in WORK_SPANS:
            out[f"{span}.work"] = self.counts[f"{span}.work"]
        return out
