"""Benchmark for mrank: time to a checked solution per solver, and time to a
rank report, on three workloads. See README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is completion, robust_supersym, ranks, or all (each workload in its
own process, one after another). Run from the root of a checkout: the
program is imported from its src/ directory, and outputs go to
perfbench/out/. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with
--trace 1 they are the per-layer ones of tracer.py.

A run repeats rounds of the workload's operations until --seconds have
passed (at least one round; a traced run alternates untraced and traced
rounds and has at least one of each). Times are medians over rounds.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("completion", "robust_supersym", "ranks")
SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set-up alone, in a child process, to time it
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def pin_threads():
    """Pin BLAS to one thread before numpy loads it (numpy is imported only
    after this): the thread count changes every SVD time, and more BLAS
    threads than cores would oversubscribe them. Child processes inherit
    the pin."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["MRANK_THREADS"] = "1"


def load_program():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not (SRC / "mrank" / "__init__.py").is_file():
        sys.exit(f"error: no mrank sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def blas_threads():
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    return int(getattr(lib, sym)())
    except OSError:
        pass
    return None


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def setup_once(workload, seed):
    """Build the workload's inputs in a scratch directory, then remove it."""
    import workloads

    workdir = tempfile.mkdtemp(prefix="setup-", dir=OUT)
    try:
        workloads.build(workload, seed, workdir)
    finally:
        shutil.rmtree(workdir)


def setup_samples(args):
    """Wall time of whole set-ups (interpreter start, imports, inputs, MTEN
    files, LAPACK warm-up), each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def run_round(ops, tracer=None):
    """Run every operation once, then check the output of each that did not
    raise. A raising operation counts as failed; a wrong output is a problem."""
    times = {}
    failures, problems = [], []
    for op in ops:
        if tracer:
            tracer.install()
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # counted, and the run goes on
            failures.append(f"{op.key}: {exc!r}")
            continue
        finally:
            times[op.key] = times.get(op.key, 0.0) + time.perf_counter() - start
            if tracer:
                tracer.uninstall()
        problems += [f"{op.key}: {p}" for p in op.check(out)]
    return {"traced": tracer is not None, "wall_s": sum(times.values()), "op_s": times,
            "attempted": len(ops), "failures": failures, "problems": problems}


def median_of(rows, key):
    return statistics.median(row[key] for row in rows)


def run_workload(args):
    import tracer as tracing
    import workloads

    env = environment()
    setup = setup_samples(args)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setup_trace = tracing.Tracer() if args.trace else None
        if setup_trace:
            with setup_trace:
                ops = workloads.build(args.workload, args.seed, workdir)
        else:
            ops = workloads.build(args.workload, args.seed, workdir)

        rounds, tracers = [], []
        start = time.perf_counter()
        while True:
            tr = tracing.Tracer() if args.trace and len(rounds) % 2 == 1 else None
            rounds.append(run_round(ops, tr))
            if tr:
                tracers.append(tr)
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or tracers):
                break
    finally:
        shutil.rmtree(workdir)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_samples_s": setup,
        "rounds": rounds,
        "op_s": {k: statistics.median(r["op_s"][k] for r in plain) for k in plain[0]["op_s"]},
    }
    if args.trace:
        per_round = [t.metrics() for t in tracers]
        setup_part = setup_trace.metrics()
        metrics = {}
        for name in tracing.metric_names():
            metrics[name] = setup_part[name] + statistics.median(m[name] for m in per_round)
        counts = [{k: v for k, v in m.items() if tracing.metric_unit(k) == "count"}
                  for m in per_round]
        record["counts_repeat"] = all(c == counts[0] for c in counts)
        record["trace_overhead_s"] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        units = {name: tracing.metric_unit(name) for name in metrics}
        trace_file = {"setup": setup_part, "rounds": per_round,
                      "shapes": {span: dict(c) for t in tracers[:1]
                                 for span, c in t.shapes.items()}}
        with open(OUT / f"{args.workload}-seed{args.seed}-trace.json", "w") as fh:
            json.dump(trace_file, fh, indent=1)
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": median_of(plain, "wall_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    record["metrics"] = metrics

    attempted = sum(r["attempted"] for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    problems = [p for r in rounds for p in r["problems"]]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record | {"result": result}, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds "
          f"({len(traced)} traced), ops attempted {attempted}, failed {len(failures)}, "
          f"correct {result['correct']}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for key, value in record["op_s"].items():
        print(f"op {key}: {value:.4f} s")
    if args.trace:
        print(f"tracing overhead: {record['trace_overhead_s']:.4f} s "
              f"(traced wall_s minus untraced wall_s); counts repeat: {record['counts_repeat']}")
    for failure in failures:
        print(f"failed: {failure}")
    for problem in problems:
        print(f"problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"metric {name}: {m['value']} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process; a combined result line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    load_program()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        setup_once(args.workload, args.seed)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
