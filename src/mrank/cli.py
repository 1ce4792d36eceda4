"""Command line surface.

Subcommands:
    rank            -- unfolding rank report for an MTEN tensor file
    gen             -- write a synthetic instance (plus a JSON sidecar)
    complete        -- mask and complete a tensor (square or mode model)
    rpca            -- sparse + low-rank split (square or mode model)
    sym-complete    -- super-symmetric completion
    table1..table5  -- seeded benchmark grids over synthetic instances, one
                       TABLES entry each
    video-complete  -- mask and complete a PPM frame stack
    video-decompose -- split a PPM frame stack into background/foreground

Exit codes: 0 success, 2 bad flags (out-of-range numbers included, such as
a --ratio outside [0, 1] or a negative --seed, a --pairing given with
--model n, which has no square unfolding, and an MRANK_THREADS that is set
but not a positive integer), 3 I/O, format or invalid input data
(an unreadable file, NaN or Inf entries, data a solver rejects such as
observations no super-symmetric tensor matches), 4 solver did not converge
(the partial result and report are still written). Table commands never
exit 4: failed trials show up as converged=False rows.

The solver flags --max-iters, --rel-tol and --lam each set the SolverConfig
field of the same name, and each is range-checked by the rule that
solvers._CONFIG_RULES pairs with that field, the rule every solver applies
to its config.

Reports are deterministic: same flags, seed and BLAS thread count give
byte-identical output (table error columns move in the 10th digit with it).
Trials of a table command run in a thread pool sized by MRANK_THREADS
(default 1, also when empty); row order is by seed regardless of
completion order.
"""

import argparse
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .fileio import (_cell, _write_json, read_frames, read_tensor, write_frames, write_report,
                     write_tensor)
from .linalg import DEFAULT_RANK_TOL, _check_rel_tol
from .ranks import m_ranks
from .solvers import (
    _CONFIG_RULES,
    SolverConfig,
    complete_m,
    complete_n,
    complete_supersym,
    rpca_m,
    rpca_n,
)
from .synth import InstanceSpec, _check_fraction, gen_mask, gen_sparse_noise
from .tensor import Pairing

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NOCONV = 4


class UsageError(Exception):
    pass


def _parse_dims(text: str) -> tuple:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse dims {text!r}") from None
    if not dims or any(n < 1 for n in dims):
        raise UsageError(f"bad dims {text!r}")
    return dims


def _parse_pairing(text: str | None, order: int) -> Pairing | None:
    if text is None:
        return None
    try:
        return Pairing.parse(text, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# the numeric flags whose range rule the library owns, each with the
# validator the library itself calls on the value the flag sets: a
# SolverConfig field's flag first, then the rank tolerance and the fractions
_RANGE_RULES = (*((f"--{name.replace('_', '-')}", check) for name, check in _CONFIG_RULES),
                ("--tol", _check_rel_tol),
                ("--ratio", _check_fraction),
                ("--density", _check_fraction))


def _check_flags(args) -> None:
    """Reject out-of-range numeric flags of any command before it reads
    input or starts a solve: these are usage errors, not a solver that did
    not converge or data that cannot be read."""
    for flag, check in _RANGE_RULES:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            try:
                check(value, flag)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    if getattr(args, "pairing", None) is not None and getattr(args, "model", "m") != "m":
        raise UsageError("--pairing applies to --model m only")


def _solver_config(args) -> SolverConfig:
    """The SolverConfig each set flag of a field's name overrides."""
    return SolverConfig(**{f.name: getattr(args, f.name) for f in fields(SolverConfig)
                           if getattr(args, f.name, None) is not None})


def _print_result(res, label: str) -> None:
    print(f"{label}: converged={res.converged} iters={res.iters}")
    if res.rel_err_vs_truth is not None:
        print(f"  rel_err_vs_truth: {_cell(res.rel_err_vs_truth)}")
    if res.rel_err_all is not None:
        print(f"  rel_err_all:      {_cell(res.rel_err_all)}")
    rep = res.rank_report
    print(f"  m_plus={rep.m_plus} m_minus={rep.m_minus} tucker={_cell(rep.tucker)}")


# ---------------------------------------------------------------- rank / gen


def _cmd_rank(args) -> int:
    t = read_tensor(args.input)
    rep = m_ranks(t, args.tol)
    print(f"dims: {_cell(rep.dims)}")
    for name, rk in rep.pairing_ranks.items():
        print(f"pairing {name}: rank {rk}")
    print(f"m_plus:  {rep.m_plus}")
    print(f"m_minus: {rep.m_minus}")
    print(f"tucker:  {_cell(rep.tucker)}")
    if rep.cp_upper is not None:
        print(f"cp bounds: [{rep.cp_lower}, {rep.cp_upper}]")
    if args.output:
        if args.format == "json":
            _write_json(args.output, rep.to_dict())
        else:
            row = rep.to_dict()
            del row["rel_tol"]
            write_report(args.output, [row], "csv")
    return EXIT_OK


def _cmd_gen(args) -> int:
    dims = _parse_dims(args.dims)
    try:
        spec = InstanceSpec(dims=dims, r=args.r, form=args.form,
                            seed=args.seed, k=args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    t = spec.generate()
    write_tensor(args.output, t)
    _write_json(args.output + ".json", spec.to_dict())
    print(f"wrote {args.output} dims={args.dims} form={args.form} "
          f"r={args.r} seed={args.seed}")
    return EXIT_OK


# ------------------------------------------------------------ single solves


def _finish(args, res, label: str, frames=()) -> int:
    """The ending every single solve shares: print the result, write the
    recovered tensor (--output), the sparse part (--sparse-output) or the
    (stem, stack) frame sets under --out-dir, then the one-row --report.
    Exit 0 if the solve converged, else 4."""
    _print_result(res, label)
    if getattr(args, "output", None):
        write_tensor(args.output, res.recovered)
    if getattr(args, "sparse_output", None) is not None and res.sparse is not None:
        write_tensor(args.sparse_output, res.sparse)
    for stem, stack in frames:
        os.makedirs(args.out_dir, exist_ok=True)
        write_frames([os.path.join(args.out_dir, f"{stem}_{k:04d}.ppm")
                      for k in range(stack.shape[3])], stack)
    if getattr(args, "report", None):
        write_report(args.report, [res.to_row()], args.format)
    return EXIT_OK if res.converged else EXIT_NOCONV


def _observe(args):
    """Read the input tensor and observe --ratio of its entries, the mask
    drawn from --seed. Returns the tensor, the mask, the observed values
    and the truth: the --truth file, or else the full input tensor."""
    t = read_tensor(args.input)
    mask = gen_mask(t.shape, args.ratio, args.seed)
    values = mask.observe(t)
    truth = read_tensor(args.truth) if args.truth else t
    return t, mask, values, truth


def _cmd_complete(args) -> int:
    cfg = _solver_config(args)
    t, mask, values, truth = _observe(args)
    if args.model == "m":
        pairing = _parse_pairing(args.pairing, t.ndim)
        res = complete_m(mask, values, pairing, cfg, truth=truth)
    else:
        res = complete_n(mask, values, cfg, truth=truth)
    return _finish(args, res, f"complete_{args.model}")


def _cmd_rpca(args) -> int:
    cfg = _solver_config(args)
    t = read_tensor(args.input)
    truth = read_tensor(args.truth) if args.truth else None
    data = t
    if args.density is not None:
        data = t + gen_sparse_noise(t.shape, args.density, args.seed)
        if truth is None:
            truth = t  # input was the clean low-rank part
    if args.model == "m":
        pairing = _parse_pairing(args.pairing, t.ndim)
        res = rpca_m(data, pairing, cfg, truth=truth)
    else:
        res = rpca_n(data, cfg, truth=truth)
    return _finish(args, res, f"rpca_{args.model}")


def _cmd_sym_complete(args) -> int:
    cfg = _solver_config(args)
    _, mask, values, truth = _observe(args)
    res = complete_supersym(mask, values, cfg, truth=truth)
    return _finish(args, res, "complete_supersym")


# ------------------------------------------------------------------- tables


def _thread_count() -> int:
    """Trial workers from MRANK_THREADS: 1 when unset or empty, else a
    positive integer, or a usage error."""
    raw = os.environ.get("MRANK_THREADS", "")
    if not raw:
        return 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise UsageError(f"MRANK_THREADS must be a positive integer, got {raw!r}")
    return workers


def _run_grid(settings, trial_fn, trials: int, base_seed: int):
    """Run trial_fn(setting, seed) for every setting and the per-trial
    seeds base_seed, base_seed + 1, ... in a pool of _thread_count()
    workers.

    Returns one list of trial rows per setting, in seed order, whatever
    the completion order. A trial that raises cancels the trials not yet
    started, and its exception propagates."""
    seeds = [base_seed + t for t in range(trials)]
    pool = ThreadPoolExecutor(max_workers=_thread_count())
    try:
        rows = list(pool.map(trial_fn, [s for s in settings for _ in seeds],
                             seeds * len(settings)))
    finally:
        pool.shutdown(cancel_futures=True)
    return [rows[i * trials:(i + 1) * trials] for i in range(len(settings))]


def _mean(rows, key):
    """The mean of a trial column over the rows where it is not None: per
    entry for lists, written as comma-joined %.6g, else a float; None when
    no row has it."""
    vals = [r[key] for r in rows if r.get(key) is not None]
    if not vals:
        return None
    mean = np.mean(np.array(vals, dtype=float), axis=0)
    if isinstance(vals[0], list):
        return _cell(list(mean))
    return float(mean)


def _aggregate(setting: dict, rows: list) -> dict:
    """One report row per setting: the setting's values as label columns
    (dims joined by commas), then the trial counts, then the mean of every
    other trial column, in the trial rows' order."""
    agg = {k: _cell(v) if isinstance(v, tuple) else v for k, v in setting.items()}
    agg["trials"] = len(rows)
    agg["n_converged"] = sum(1 for r in rows if r.get("converged", True))
    agg["converged"] = agg["n_converged"] == len(rows)
    for key in rows[0]:
        if key != "converged":
            agg[key] = _mean(rows, key)
    return agg


def _emit(args, rows) -> int:
    if args.output:
        write_report(args.output, rows, args.format)
        print(f"wrote {args.output} ({len(rows)} rows)")
    else:
        write_report(sys.stdout, rows, args.format)
    return EXIT_OK


def _rank_trial(s, seed, cfg):
    # table1 samples CP sums; table2 matrix Kronecker forms, k = r
    t = InstanceSpec(form="kron" if "k" in s else "cp", seed=seed, **s).generate()
    rep = m_ranks(t)
    return {"tucker": list(rep.tucker), "m_plus": rep.m_plus, "m_minus": rep.m_minus}


def _completion_trial(s, seed, cfg):
    truth = InstanceSpec(dims=s["dims"], r=s["r"], form="cp", seed=seed).generate()
    mask = gen_mask(s["dims"], s["ratio"], seed)
    values = mask.observe(truth)
    res_m = complete_m(mask, values, None, cfg, truth=truth)
    res_n = complete_n(mask, values, cfg, truth=truth)
    return {
        "n_rel_err": res_n.rel_err_vs_truth,
        "n_tucker": list(res_n.rank_report.tucker),
        "n_conv": res_n.converged,
        "m_rel_err": res_m.rel_err_vs_truth,
        "m_plus": res_m.rank_report.m_plus,
        "m_minus": res_m.rank_report.m_minus,
        "converged": res_m.converged,
    }


def _supersym_trial(s, seed, cfg):
    dims = (s["n"],) * 4
    truth = InstanceSpec(dims=dims, r=s["r"], form="supersym", seed=seed).generate()
    mask = gen_mask(dims, s["ratio"], seed)
    res = complete_supersym(mask, mask.observe(truth), cfg, truth=truth)
    rep = res.rank_report
    return {
        "rel_err": res.rel_err_vs_truth,
        "rank_m": rep.rank_m if rep.rank_m is not None else rep.m_plus,
        "converged": res.converged,
    }


def _robust_trial(s, seed, cfg):
    low = InstanceSpec(dims=s["dims"], r=s["r"], form="cp", seed=seed).generate()
    data = low + gen_sparse_noise(s["dims"], s["density"], seed)
    res_m = rpca_m(data, None, cfg, truth=low)
    res_n = rpca_n(data, cfg, truth=low)
    return {
        "n_rel_err_all": res_n.rel_err_all,
        "n_rel_err_lr": res_n.rel_err_vs_truth,
        "n_tucker": list(res_n.rank_report.tucker),
        "n_conv": res_n.converged,
        "m_rel_err_all": res_m.rel_err_all,
        "m_rel_err_lr": res_m.rel_err_vs_truth,
        "m_plus": res_m.rank_report.m_plus,
        "m_minus": res_m.rank_report.m_minus,
        "converged": res_m.converged,
    }


class Table(NamedTuple):
    """One benchmark table. Each setting is a dict of the row's label
    columns; a FLAG value is read from the table flag of that name. The
    trial runs trial(setting, seed, cfg) once per setting and seed, and
    returns the row of columns averaged into the report (_aggregate)."""

    name: str
    help: str
    flags: dict  # extra float flags and their defaults
    desk: list
    full: list
    trial: Callable


FLAG = None

TABLES = (
    Table("table1", "rank estimation on random sums of rank-one terms", {},
          desk=[{"dims": (10, 10, 10, 10), "r": 12},
                {"dims": (15, 15, 15, 15), "r": 18}],
          full=[{"dims": dims, "r": r} for dims, r in (
              ((10, 10, 10, 10), 12), ((10, 10, 15, 15), 12),
              ((15, 15, 15, 15), 18), ((15, 15, 18, 18), 18),
              ((20, 20, 20, 20), 30), ((20, 20, 25, 25), 30),
              ((25, 25, 30, 30), 40), ((30, 30, 30, 30), 40))],
          trial=_rank_trial),
    Table("table2", "rank estimation on random matrix outer products", {},
          desk=[{"dims": (10, 10, 10, 10), "r": k, "k": k} for k in (2, 3)],
          full=[{"dims": dims, "r": k, "k": k} for dims, ks in (
              ((10, 10, 10, 10), (2, 3, 4)), ((10, 10, 15, 15), (2, 3, 4)),
              ((15, 15, 20, 20), (2, 3, 4)), ((20, 20, 20, 20), (3, 4, 5)),
              ((20, 20, 30, 30), (3, 4, 5))) for k in ks],
          trial=_rank_trial),
    # the full grid fixes its ratios; only the desk row reads --ratio
    Table("table3", "completion: square unfolding vs mode unfolding baseline",
          {"ratio": 0.3},
          desk=[{"dims": (10, 10, 10, 10), "r": 6, "ratio": FLAG}],
          full=[{"dims": dims, "r": r, "ratio": ratio} for dims, rs in (
              ((10, 10, 10, 10), (2, 4, 6)), ((15, 15, 15, 15), (3, 6, 9)),
              ((20, 20, 20, 20), (4, 8, 12)))
              for r in rs for ratio in (0.7, 0.5, 0.3)],
          trial=_completion_trial),
    Table("table4", "super-symmetric completion grid", {"ratio": 0.4},
          desk=[{"n": 10, "r": 8, "ratio": FLAG}],
          full=[{"n": n, "r": r, "ratio": FLAG} for n, r in (
              (10, 8), (10, 12), (15, 8), (15, 20),
              (20, 15), (20, 25), (25, 15), (25, 30))],
          trial=_supersym_trial),
    Table("table5", "robust recovery: square unfolding vs mode unfolding "
          "baseline", {"density": 0.05, "lam": None},
          desk=[{"dims": (10, 10, 10, 10), "r": 4, "density": FLAG}],
          full=[{"dims": dims, "r": r, "density": FLAG} for dims, rs in (
              ((10, 10, 10, 10), (2, 4, 6, 8, 12)),
              ((15, 15, 15, 15), (3, 6, 9, 12, 18)),
              ((20, 20, 20, 20), (4, 8, 12, 16, 24))) for r in rs],
          trial=_robust_trial),
)


def _cmd_table(table: Table, args) -> int:
    settings = [{k: getattr(args, k) if v is FLAG else v for k, v in s.items()}
                for s in (table.full if args.full else table.desk)]
    cfg = _solver_config(args)
    per = _run_grid(settings, partial(table.trial, cfg=cfg),
                    args.trials, args.seed)
    rows = [_aggregate(s, per[i]) for i, s in enumerate(settings)]
    return _emit(args, rows)


# -------------------------------------------------------------------- video


def _cmd_video_complete(args) -> int:
    cfg = _solver_config(args)
    t = read_frames(sorted(args.frames))
    mask = gen_mask(t.shape, args.ratio, args.seed)
    values = mask.observe(t)
    res = complete_m(mask, values, None, cfg, truth=t)
    return _finish(args, res, "video complete_m",
                   [("recovered", res.recovered), ("masked", mask.fill(values))])


def _cmd_video_decompose(args) -> int:
    cfg = _solver_config(args)
    t = read_frames(sorted(args.frames))
    res = rpca_m(t, None, cfg)
    # foreground shown by magnitude so complex parts stay visible
    foreground = np.abs(res.sparse).astype(np.complex128)
    return _finish(args, res, "video rpca_m",
                   [("background", res.recovered), ("foreground", foreground)])


# ------------------------------------------------------------------- parser


def _add_report_flags(p) -> None:
    p.add_argument("--report", help="write a one-row report file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_solver_flags(p, seed=True, seed_help=None, lam=False) -> None:
    """The solver flags; --seed only where the command draws something,
    --lam only where its solver has a sparsity weight."""
    p.add_argument("--max-iters", type=int)
    p.add_argument("--rel-tol", type=float)
    if lam:
        p.add_argument("--lam", type=float)
    if seed:
        p.add_argument("--seed", type=int, default=0, help=seed_help)


def _add_table_flags(p, **defaults) -> None:
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--full", action="store_true",
                   help="run the full-size grid instead of the desk-scale one")
    p.add_argument("--output", help="report path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    for name, val in defaults.items():
        p.add_argument(f"--{name}", type=float, default=val)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mrank",
        description="Unfolding ranks and convex recovery for even-order "
                    "complex tensors.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("rank", help="rank report for an MTEN file")
    p.add_argument("input")
    p.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)
    p.add_argument("--output", help="write the report to a file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    p.add_argument("--form", choices=("cp", "kron", "supersym"), required=True)
    p.add_argument("--dims", required=True, help="comma separated, e.g. 10,10,10,10")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, default=0, help="factor rank (kron form)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, help="MTEN path; a .json sidecar "
                   "with the recipe is written next to it")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("complete", help="mask and complete a tensor")
    p.add_argument("input")
    p.add_argument("--ratio", type=float, required=True,
                   help="observed fraction of entries")
    p.add_argument("--model", choices=("m", "n"), default="m",
                   help="square unfolding (m) or mode unfolding sum (n)")
    p.add_argument("--pairing", help='square unfolding split, e.g. "1,2|3,4"')
    p.add_argument("--truth", help="MTEN file with the ground truth")
    p.add_argument("--output", help="write the recovered tensor")
    _add_solver_flags(p)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("rpca", help="sparse + low-rank split")
    p.add_argument("input")
    p.add_argument("--density", type=float,
                   help="add this fraction of sparse noise before solving")
    p.add_argument("--model", choices=("m", "n"), default="m")
    p.add_argument("--pairing")
    p.add_argument("--truth")
    p.add_argument("--output", help="write the low-rank part")
    p.add_argument("--sparse-output", help="write the sparse part")
    _add_solver_flags(p, seed_help="seeds the --density noise only", lam=True)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_rpca)

    p = sub.add_parser("sym-complete", help="super-symmetric completion")
    p.add_argument("input")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--truth")
    p.add_argument("--output")
    _add_solver_flags(p)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_sym_complete)

    for table in TABLES:
        p = sub.add_parser(table.name, help=table.help)
        _add_table_flags(p, **table.flags)
        p.set_defaults(fn=partial(_cmd_table, table))

    p = sub.add_parser("video-complete", help="mask and complete PPM frames")
    p.add_argument("frames", nargs="+", help="PPM files (sorted before use)")
    p.add_argument("--ratio", type=float, default=0.2)
    p.add_argument("--out-dir", required=True)
    _add_solver_flags(p)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_video_complete)

    p = sub.add_parser("video-decompose",
                       help="split PPM frames into background + foreground")
    p.add_argument("frames", nargs="+")
    p.add_argument("--out-dir", required=True)
    _add_solver_flags(p, seed=False, lam=True)
    _add_report_flags(p)
    p.set_defaults(fn=_cmd_video_decompose)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
