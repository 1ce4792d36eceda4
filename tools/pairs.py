"""Compare the benchmark's end-to-end metrics of two checkouts, in pairs.

    python3 tools/pairs.py PARENT CHANGE [--pairs N] [--seed S] [--seconds T]
                           [--workload NAME]

PARENT and CHANGE are the roots of two checkouts. Pair i runs
`perfbench/run.py --workload NAME --seed S+i --seconds T --trace 0` once in
each, the parent first on even i and the change first on odd i, so a drift
of the machine during the batch does not favour either side. NAME is one
of the workloads of CHANGE's BENCHMARK.json, or all (the default); an
unknown name exits 2 before any run. Every pair's values are printed as
they come, then, for each end-to-end metric of CHANGE's BENCHMARK.json on
NAME (on each workload for all):

- each side's median and quartiles over the pairs;
- the change's win count, the pairs in which it is better than the parent;
- the median's relative change and whether it stays within the metric's
  bound (read as a fraction of the parent's median);
- "unresolved" when the parent's own spread (its quartile range over its
  median) is wider than that bound, since such a batch cannot show a
  change of the bound's size either way;
- whether a gain meets the rule: at least 10 pairs, the change better in
  at least 9 of 10 of them, and a median gap wider than the parent's
  quartile range.

Exit status 0 when every run ended with "correct": true and no failed
operation, else 1.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

# a gain needs the change better in this share of at least MIN_PAIRS pairs
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quantile(values, q):
    """The q-quantile of values, interpolating linearly between the sorted
    values (numpy's default method)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(parent, change, better="lower", bound=None):
    """Statistics of one metric over paired runs: parent[i] and change[i]
    come from pair i."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = quantile(parent, 0.5), quantile(change, 0.5)
    p_iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    rel = (c_med - p_med) / p_med if p_med else 0.0
    out = {
        "parent": [quantile(parent, q) for q in (0.25, 0.5, 0.75)],
        "change": [quantile(change, q) for q in (0.25, 0.5, 0.75)],
        "wins": wins,
        "pairs": len(parent),
        "rel_change": rel,
        "gain": (len(parent) >= MIN_PAIRS and wins >= math.ceil(WIN_SHARE * len(parent))
                 and sign * (p_med - c_med) > p_iqr),
    }
    if bound is not None:
        out["within_bound"] = sign * rel <= bound
        out["unresolved"] = p_iqr > bound * abs(p_med)
    return out


def run_side(root, seed, seconds, workload):
    """The result line of one `perfbench/run.py --workload workload` run in
    the checkout at root, its metrics keyed "workload.metric" as in the
    combined line of an all run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if workload != "all":
        result["metrics"] = {f"{workload}.{k}": v for k, v in result["metrics"].items()}
    return result


def end_to_end(root):
    with open(Path(root) / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [w["name"] for w in spec["workloads"]], spec["end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workload", default="all",
                    help="one of BENCHMARK.json's workloads, or all")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    workloads, metrics = end_to_end(args.change)
    if args.workload != "all":
        if args.workload not in workloads:
            ap.error(f"--workload must be one of {', '.join(workloads)} or all, "
                     f"got {args.workload!r}")
        workloads = [args.workload]
    roots = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_side(roots[side], seed, args.seconds, args.workload)
            ok &= result["correct"] is True and result["failed"] == 0
            runs[side].append(result)
        cells = []
        for w in workloads:
            for m in metrics:
                key = f"{w}.{m['name']}"
                cells.append(f"{key} {runs['parent'][-1]['metrics'][key]['value']:.4g}/"
                             f"{runs['change'][-1]['metrics'][key]['value']:.4g}")
        print(f"pair {i + 1} seed {seed} first {order[0]} (parent/change): " + ", ".join(cells),
              flush=True)

    print(f"\n{args.pairs} pairs; quartiles q1 median q3; wins = pairs in which the change "
          "is better")
    for w in workloads:
        for m in metrics:
            key = f"{w}.{m['name']}"
            s = summarize([r["metrics"][key]["value"] for r in runs["parent"]],
                          [r["metrics"][key]["value"] for r in runs["change"]],
                          m["better"], m.get("bound"))
            verdict = "unresolved" if s["unresolved"] else (
                "within bound" if s["within_bound"] else "WORSE THAN BOUND")
            print(f"{key} [{m['unit']}]: parent {' '.join(f'{v:.4g}' for v in s['parent'])}, "
                  f"change {' '.join(f'{v:.4g}' for v in s['change'])}, "
                  f"median {s['rel_change']:+.1%}, wins {s['wins']}/{s['pairs']}, {verdict}, "
                  f"gain {'met' if s['gain'] else 'not met'}")
    runs_ok = "every run correct with 0 failed" if ok else "SOME RUN INCORRECT OR FAILED"
    print(runs_ok)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
