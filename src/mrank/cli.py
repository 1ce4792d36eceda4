"""Command line surface.

Subcommands:
    rank            -- unfolding rank report for an MTEN tensor file
    gen             -- write a synthetic instance (plus a JSON sidecar)
    complete        -- mask and complete a tensor (square or mode model)
    rpca            -- sparse + low-rank split (square or mode model)
    sym-complete    -- super-symmetric completion
    table1..table5  -- seeded benchmark grids over synthetic instances
    video-complete  -- mask and complete a PPM frame stack
    video-decompose -- split a PPM frame stack into background/foreground

Exit codes: 0 success, 2 bad flags (out-of-range numbers included, such as
a --ratio outside [0, 1]), 3 I/O, format or invalid input data
(an unreadable file, NaN or Inf entries, data a solver rejects such as
observations no super-symmetric tensor matches), 4 solver did not converge
(the partial result and report are still written). Table commands never
exit 4: failed trials show up as converged=False rows.

Reports are deterministic: same flags and seed give byte-identical output.
Trials of a table command run in a thread pool sized by MRANK_THREADS
(default 1); row order is by seed regardless of completion order.
"""

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .fileio import read_frames, read_tensor, write_frames, write_report, write_tensor
from .linalg import DEFAULT_RANK_TOL
from .ranks import m_ranks
from .solvers import (
    SolverConfig,
    complete_m,
    complete_n,
    complete_supersym,
    rpca_m,
    rpca_n,
)
from .synth import InstanceSpec, gen_mask, gen_sparse_noise
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


def _check_flags(args) -> None:
    """Reject out-of-range numeric flags of any command before it reads
    input or starts a solve: these are usage errors, not a solver that did
    not converge or data that cannot be read."""
    max_iters = getattr(args, "max_iters", None)
    if max_iters is not None and max_iters < 0:
        raise UsageError(f"--max-iters must be >= 0, got {max_iters}")
    for name in ("rel_tol", "tol"):
        tol = getattr(args, name, None)
        if tol is not None and not (np.isfinite(tol) and tol >= 0):
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be finite and >= 0, got {tol}")
    lam = getattr(args, "lam", None)
    if lam is not None and not (np.isfinite(lam) and lam > 0):
        raise UsageError(f"--lam must be finite and > 0, got {lam}")
    for name in ("ratio", "density"):
        frac = getattr(args, name, None)
        if frac is not None and not 0.0 <= frac <= 1.0:
            raise UsageError(f"--{name} must be in [0, 1], got {frac}")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")


def _solver_config(args) -> SolverConfig:
    cfg = SolverConfig()
    if getattr(args, "max_iters", None) is not None:
        cfg.max_iters = args.max_iters
    if getattr(args, "rel_tol", None) is not None:
        cfg.rel_tol = args.rel_tol
    if getattr(args, "lam", None) is not None:
        cfg.lam = args.lam
    return cfg


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _print_result(res, label: str) -> None:
    print(f"{label}: converged={res.converged} iters={res.iters}")
    if res.rel_err_vs_truth is not None:
        print(f"  rel_err_vs_truth: {_fmt(res.rel_err_vs_truth)}")
    if res.rel_err_all is not None:
        print(f"  rel_err_all:      {_fmt(res.rel_err_all)}")
    rep = res.rank_report
    print(f"  m_plus={rep.m_plus} m_minus={rep.m_minus} "
          f"tucker={','.join(str(x) for x in rep.tucker)}")
    if res.message:
        print(f"  note: {res.message}")


def _write_single_report(args, rows) -> None:
    if getattr(args, "report", None):
        write_report(args.report, rows, args.format)


# ---------------------------------------------------------------- rank / gen


def _cmd_rank(args) -> int:
    t = read_tensor(args.input)
    rep = m_ranks(t, args.tol)
    print(f"dims: {','.join(str(n) for n in rep.dims)}")
    for name, rk in rep.pairing_ranks.items():
        print(f"pairing {name}: rank {rk}")
    print(f"m_plus:  {rep.m_plus}")
    print(f"m_minus: {rep.m_minus}")
    print(f"tucker:  {','.join(str(x) for x in rep.tucker)}")
    if rep.cp_upper is not None:
        print(f"cp bounds: [{rep.cp_lower}, {rep.cp_upper}]")
    if args.output:
        if args.format == "json":
            with open(args.output, "w") as fh:
                json.dump(rep.to_dict(), fh, indent=2)
                fh.write("\n")
        else:
            row = {
                "dims": ",".join(str(n) for n in rep.dims),
                "m_plus": rep.m_plus,
                "m_minus": rep.m_minus,
                "tucker": ",".join(str(x) for x in rep.tucker),
                "pairing_ranks": ";".join(
                    f"{k}={v}" for k, v in rep.pairing_ranks.items()
                ),
                "cp_lower": rep.cp_lower,
                "cp_upper": rep.cp_upper,
            }
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
    with open(args.output + ".json", "w") as fh:
        json.dump(spec.to_dict(), fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.output} dims={args.dims} form={args.form} "
          f"r={args.r} seed={args.seed}")
    return EXIT_OK


# ------------------------------------------------------------ single solves


def _load_truth(args):
    if getattr(args, "truth", None):
        return read_tensor(args.truth)
    return None


def _cmd_complete(args) -> int:
    cfg = _solver_config(args)
    t = read_tensor(args.input)
    mask = gen_mask(t.shape, args.ratio, args.seed)
    values = mask.observe(t)
    truth = _load_truth(args)
    if truth is None:
        truth = t  # input is the full tensor; masking happened here
    if args.model == "m":
        pairing = _parse_pairing(args.pairing, t.ndim)
        res = complete_m(mask, values, pairing, cfg, truth=truth)
    else:
        res = complete_n(mask, values, cfg, truth=truth)
    _print_result(res, f"complete_{args.model}")
    if args.output:
        write_tensor(args.output, res.recovered)
    _write_single_report(args, [res.to_row()])
    return EXIT_OK if res.converged else EXIT_NOCONV


def _cmd_rpca(args) -> int:
    cfg = _solver_config(args)
    t = read_tensor(args.input)
    truth = _load_truth(args)
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
    _print_result(res, f"rpca_{args.model}")
    if args.output:
        write_tensor(args.output, res.recovered)
    if args.sparse_output is not None and res.sparse is not None:
        write_tensor(args.sparse_output, res.sparse)
    _write_single_report(args, [res.to_row()])
    return EXIT_OK if res.converged else EXIT_NOCONV


def _cmd_sym_complete(args) -> int:
    cfg = _solver_config(args)
    t = read_tensor(args.input)
    mask = gen_mask(t.shape, args.ratio, args.seed)
    values = mask.observe(t)
    truth = _load_truth(args)
    if truth is None:
        truth = t
    res = complete_supersym(mask, values, cfg, truth=truth)
    _print_result(res, "complete_supersym")
    if args.output:
        write_tensor(args.output, res.recovered)
    _write_single_report(args, [res.to_row()])
    return EXIT_OK if res.converged else EXIT_NOCONV


# ------------------------------------------------------------------- tables


def _thread_count() -> int:
    raw = os.environ.get("MRANK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _run_grid(settings, trial_fn, trials: int, base_seed: int):
    """Run trial_fn(setting, seed) for every setting and per-trial seed.

    Returns {setting index: [trial row, ...]} with trial order fixed by
    seed, whatever the completion order."""
    jobs = [
        (i, base_seed + t)
        for i in range(len(settings))
        for t in range(trials)
    ]
    results = {}
    workers = _thread_count()
    if workers == 1:
        for i, seed in jobs:
            results[(i, seed)] = trial_fn(settings[i], seed)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futs = {(i, seed): pool.submit(trial_fn, settings[i], seed)
                    for i, seed in jobs}
            for key, fut in futs.items():
                results[key] = fut.result()
    out = {}
    for i in range(len(settings)):
        out[i] = [results[(i, base_seed + t)] for t in range(trials)]
    return out


def _mean(rows, key):
    vals = [r[key] for r in rows if r.get(key) is not None]
    return float(np.mean(vals)) if vals else None


def _mean_tuple(rows, key):
    vals = [r[key] for r in rows if r.get(key) is not None]
    if not vals:
        return ""
    mean = np.mean(np.array(vals, dtype=float), axis=0)
    return ",".join(f"{x:.6g}" for x in mean)


def _aggregate(label_cols: dict, rows: list, spec_cols: tuple) -> dict:
    """One report row per setting: label columns, then trial averages."""
    agg = dict(label_cols)
    agg["trials"] = len(rows)
    agg["n_converged"] = sum(1 for r in rows if r.get("converged", True))
    agg["converged"] = agg["n_converged"] == len(rows)
    for key, kind in spec_cols:
        agg[key] = _mean_tuple(rows, key) if kind == "tuple" else _mean(rows, key)
    return agg


def _emit(args, rows) -> int:
    if args.output:
        write_report(args.output, rows, args.format)
        print(f"wrote {args.output} ({len(rows)} rows)")
    else:
        write_report(sys.stdout, rows, args.format)
    return EXIT_OK


def _cmd_table1(args) -> int:
    if args.full:
        settings = [
            ((10, 10, 10, 10), 12), ((10, 10, 15, 15), 12),
            ((15, 15, 15, 15), 18), ((15, 15, 18, 18), 18),
            ((20, 20, 20, 20), 30), ((20, 20, 25, 25), 30),
            ((25, 25, 30, 30), 40), ((30, 30, 30, 30), 40),
        ]
    else:
        settings = [((10, 10, 10, 10), 12), ((15, 15, 15, 15), 18)]

    def trial(setting, seed):
        dims, r = setting
        t = InstanceSpec(dims=dims, r=r, form="cp", seed=seed).generate()
        rep = m_ranks(t)
        return {"m_plus": rep.m_plus, "m_minus": rep.m_minus,
                "tucker": list(rep.tucker)}

    per = _run_grid(settings, trial, args.trials, args.seed)
    rows = []
    for i, (dims, r) in enumerate(settings):
        rows.append(_aggregate(
            {"dims": ",".join(map(str, dims)), "r": r},
            per[i],
            (("tucker", "tuple"), ("m_plus", "num"), ("m_minus", "num")),
        ))
    return _emit(args, rows)


def _cmd_table2(args) -> int:
    if args.full:
        grid = [((10, 10, 10, 10), (2, 3, 4)), ((10, 10, 15, 15), (2, 3, 4)),
                ((15, 15, 20, 20), (2, 3, 4)), ((20, 20, 20, 20), (3, 4, 5)),
                ((20, 20, 30, 30), (3, 4, 5))]
    else:
        grid = [((10, 10, 10, 10), (2, 3))]
    settings = [(dims, rk) for dims, rks in grid for rk in rks]

    def trial(setting, seed):
        dims, rk = setting
        t = InstanceSpec(dims=dims, r=rk, form="kron", seed=seed, k=rk).generate()
        rep = m_ranks(t)
        return {"m_plus": rep.m_plus, "m_minus": rep.m_minus,
                "tucker": list(rep.tucker)}

    per = _run_grid(settings, trial, args.trials, args.seed)
    rows = []
    for i, (dims, rk) in enumerate(settings):
        rows.append(_aggregate(
            {"dims": ",".join(map(str, dims)), "r": rk, "k": rk},
            per[i],
            (("tucker", "tuple"), ("m_plus", "num"), ("m_minus", "num")),
        ))
    return _emit(args, rows)


def _cmd_table3(args) -> int:
    if args.full:
        grid = [((10, 10, 10, 10), (2, 4, 6)), ((15, 15, 15, 15), (3, 6, 9)),
                ((20, 20, 20, 20), (4, 8, 12))]
        ratios = (0.7, 0.5, 0.3)
    else:
        grid = [((10, 10, 10, 10), (6,))]
        ratios = (args.ratio,)
    settings = [(dims, r, ratio)
                for dims, rs in grid for r in rs for ratio in ratios]

    def trial(setting, seed):
        dims, r, ratio = setting
        truth = InstanceSpec(dims=dims, r=r, form="cp", seed=seed).generate()
        mask = gen_mask(dims, ratio, seed)
        values = mask.observe(truth)
        res_m = complete_m(mask, values, None, truth=truth)
        res_n = complete_n(mask, values, truth=truth)
        return {
            "n_rel_err": res_n.rel_err_vs_truth,
            "n_tucker": list(res_n.rank_report.tucker),
            "m_rel_err": res_m.rel_err_vs_truth,
            "m_plus": res_m.rank_report.m_plus,
            "m_minus": res_m.rank_report.m_minus,
            "converged": res_m.converged,
        }

    per = _run_grid(settings, trial, args.trials, args.seed)
    rows = []
    for i, (dims, r, ratio) in enumerate(settings):
        rows.append(_aggregate(
            {"dims": ",".join(map(str, dims)), "r": r, "ratio": ratio},
            per[i],
            (("n_rel_err", "num"), ("n_tucker", "tuple"), ("m_rel_err", "num"),
             ("m_plus", "num"), ("m_minus", "num")),
        ))
    return _emit(args, rows)


def _cmd_table4(args) -> int:
    if args.full:
        settings = [(10, 8), (10, 12), (15, 8), (15, 20),
                    (20, 15), (20, 25), (25, 15), (25, 30)]
    else:
        settings = [(10, 8)]

    def trial(setting, seed):
        n, r = setting
        dims = (n,) * 4
        truth = InstanceSpec(dims=dims, r=r, form="supersym", seed=seed).generate()
        mask = gen_mask(dims, args.ratio, seed)
        res = complete_supersym(mask, mask.observe(truth), truth=truth)
        rep = res.rank_report
        return {
            "rel_err": res.rel_err_vs_truth,
            "rank_m": rep.rank_m if rep.rank_m is not None else rep.m_plus,
            "converged": res.converged,
        }

    per = _run_grid(settings, trial, args.trials, args.seed)
    rows = []
    for i, (n, r) in enumerate(settings):
        rows.append(_aggregate(
            {"n": n, "r": r, "ratio": args.ratio},
            per[i],
            (("rel_err", "num"), ("rank_m", "num")),
        ))
    return _emit(args, rows)


def _cmd_table5(args) -> int:
    if args.full:
        grid = [((10, 10, 10, 10), (2, 4, 6, 8, 12)),
                ((15, 15, 15, 15), (3, 6, 9, 12, 18)),
                ((20, 20, 20, 20), (4, 8, 12, 16, 24))]
    else:
        grid = [((10, 10, 10, 10), (4,))]
    settings = [(dims, r) for dims, rs in grid for r in rs]

    def trial(setting, seed):
        dims, r = setting
        low = InstanceSpec(dims=dims, r=r, form="cp", seed=seed).generate()
        data = low + gen_sparse_noise(dims, args.density, seed)
        cfg = SolverConfig(lam=args.lam)
        res_m = rpca_m(data, None, cfg, truth=low)
        res_n = rpca_n(data, cfg, truth=low)
        return {
            "n_rel_err_all": res_n.rel_err_all,
            "n_rel_err_lr": res_n.rel_err_vs_truth,
            "n_tucker": list(res_n.rank_report.tucker),
            "m_rel_err_all": res_m.rel_err_all,
            "m_rel_err_lr": res_m.rel_err_vs_truth,
            "m_plus": res_m.rank_report.m_plus,
            "m_minus": res_m.rank_report.m_minus,
            "converged": res_m.converged,
        }

    per = _run_grid(settings, trial, args.trials, args.seed)
    rows = []
    for i, (dims, r) in enumerate(settings):
        rows.append(_aggregate(
            {"dims": ",".join(map(str, dims)), "r": r, "density": args.density},
            per[i],
            (("n_rel_err_all", "num"), ("n_rel_err_lr", "num"),
             ("n_tucker", "tuple"), ("m_rel_err_all", "num"),
             ("m_rel_err_lr", "num"), ("m_plus", "num"), ("m_minus", "num")),
        ))
    return _emit(args, rows)


# -------------------------------------------------------------------- video


def _frame_paths(out_dir: str, stem: str, count: int) -> list:
    os.makedirs(out_dir, exist_ok=True)
    return [os.path.join(out_dir, f"{stem}_{k:04d}.ppm") for k in range(count)]


def _cmd_video_complete(args) -> int:
    cfg = _solver_config(args)
    t = read_frames(sorted(args.frames))
    mask = gen_mask(t.shape, args.ratio, args.seed)
    res = complete_m(mask, mask.observe(t), None, cfg, truth=t)
    _print_result(res, "video complete_m")
    n_frames = t.shape[3]
    write_frames(_frame_paths(args.out_dir, "recovered", n_frames), res.recovered)
    masked = mask.fill(mask.observe(t))
    write_frames(_frame_paths(args.out_dir, "masked", n_frames), masked)
    _write_single_report(args, [res.to_row()])
    return EXIT_OK if res.converged else EXIT_NOCONV


def _cmd_video_decompose(args) -> int:
    cfg = _solver_config(args)
    t = read_frames(sorted(args.frames))
    res = rpca_m(t, None, cfg)
    _print_result(res, "video rpca_m")
    n_frames = t.shape[3]
    write_frames(_frame_paths(args.out_dir, "background", n_frames), res.recovered)
    # foreground shown by magnitude so complex parts stay visible
    write_frames(_frame_paths(args.out_dir, "foreground", n_frames),
                 np.abs(res.sparse).astype(np.complex128))
    _write_single_report(args, [res.to_row()])
    return EXIT_OK if res.converged else EXIT_NOCONV


# ------------------------------------------------------------------- parser


def _add_report_flags(p) -> None:
    p.add_argument("--report", help="write a one-row report file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_solver_flags(p) -> None:
    p.add_argument("--max-iters", type=int)
    p.add_argument("--rel-tol", type=float)
    p.add_argument("--lam", type=float)
    p.add_argument("--seed", type=int, default=0)


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
    _add_solver_flags(p)
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

    p = sub.add_parser("table1", help="rank estimation on random sums of "
                       "rank-one terms")
    _add_table_flags(p)
    p.set_defaults(fn=_cmd_table1)

    p = sub.add_parser("table2", help="rank estimation on random matrix "
                       "outer products")
    _add_table_flags(p)
    p.set_defaults(fn=_cmd_table2)

    p = sub.add_parser("table3", help="completion: square unfolding vs mode "
                       "unfolding baseline")
    _add_table_flags(p, ratio=0.3)
    p.set_defaults(fn=_cmd_table3)

    p = sub.add_parser("table4", help="super-symmetric completion grid")
    _add_table_flags(p, ratio=0.4)
    p.set_defaults(fn=_cmd_table4)

    p = sub.add_parser("table5", help="robust recovery: square unfolding vs "
                       "mode unfolding baseline")
    _add_table_flags(p, density=0.05)
    p.add_argument("--lam", type=float, default=None)
    p.set_defaults(fn=_cmd_table5)

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
    _add_solver_flags(p)
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
