"""Write every output form of the mrank CLI for fixed seeds.

    python3 tools/outputs.py OUTDIR

Runs the `mrank` package under src/ next to this script, in-process, with
OUTDIR as the working directory:

- `gen` on a CP 10^4, a CP 4^6, a super-symmetric 8^4 and a
  super-symmetric 5^6 instance, each with its JSON sidecar (the last two
  take m_ranks's one certified count for all their pairings);
- `rank` on each of them as text, CSV and JSON;
- `complete` (--model m and n), `rpca` (m and n) and `sym-complete`, each
  with its stdout, a CSV and a JSON `--report` and the recovered MTEN file;
- `table1` to `table5` as CSV and JSON with `--trials 2`, and `table2` as
  JSON on stdout;
- `video-complete` and `video-decompose`, each with its stdout, a JSON
  `--report` and its frames under `--out-dir`, on five 6 x 5 PPM frames of
  one seeded scene: four written by `write_frames` and one written by hand
  with comments and CR/LF/tab runs in its header;
- a few out-of-range flags, whose usage message shows which rule speaks
  first (exit 2);
- two inputs the solvers refuse on entry (exit 3): `complete --model n` on
  an order-3 CP 4^3 file, and `complete` with a `--truth` file of another
  shape.

Each command's stdout, stderr and exit status go to OUTDIR/<name>.out, next
to the files it writes. BLAS is pinned to one thread unless the
environment sets its thread count; table trials run in MRANK_THREADS
workers, as `mrank` runs them. A few seconds on one core.

A change that must not move any output shows it with the same BLAS thread
count on both sides:

    python3 tools/outputs.py OUT_PARENT     # in a checkout of the parent
    python3 tools/outputs.py OUT_CHANGE     # in the change's checkout
    diff -r OUT_PARENT OUT_CHANGE

Reports are byte-identical at any MRANK_THREADS, so running the script
under MRANK_THREADS=1 and again under 2 and diffing the two directories
checks that claim for every table.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from mrank.cli import TABLES, main  # noqa: E402
from mrank.fileio import write_frames  # noqa: E402

GEN = {
    "cp10": ["--form", "cp", "--dims", "10,10,10,10", "--r", "6", "--seed", "3"],
    "cp4x6": ["--form", "cp", "--dims", "4,4,4,4,4,4", "--r", "5", "--seed", "1"],
    "sym8": ["--form", "supersym", "--dims", "8,8,8,8", "--r", "3", "--seed", "2"],
    "sym5x6": ["--form", "supersym", "--dims", "5,5,5,5,5,5", "--r", "4", "--seed", "3"],
}

# the order-3 input of the odd-order refusal below; it has no rank report,
# as m_ranks refuses odd order too
ODD_GEN = ["gen", "--form", "cp", "--dims", "4,4,4", "--r", "2", "--seed", "1",
           "--output", "cp4x3.mten"]

SOLVES = {
    "complete_m": ["complete", "cp10.mten", "--ratio", "0.4", "--seed", "5",
                   "--rel-tol", "1e-7"],
    "complete_n": ["complete", "cp10.mten", "--ratio", "0.4", "--seed", "5",
                   "--model", "n", "--max-iters", "300"],
    "rpca_m": ["rpca", "cp10.mten", "--density", "0.05", "--seed", "4",
               "--lam", "0.12"],
    "rpca_n": ["rpca", "cp10.mten", "--density", "0.05", "--seed", "4",
               "--model", "n", "--max-iters", "300"],
    "sym_complete": ["sym-complete", "sym8.mten", "--ratio", "0.4", "--seed", "6"],
}

VIDEO = {
    "video_complete": ["video-complete", "--ratio", "0.7", "--seed", "1", "--rel-tol", "2e-2"],
    "video_decompose": ["video-decompose", "--rel-tol", "1e-4"],
}

ERRORS = {
    "error_max_iters": ["complete", "cp10.mten", "--ratio", "0.4", "--max-iters", "-1",
                        "--rel-tol", "-1"],
    "error_lam": ["rpca", "cp10.mten", "--lam", "-1", "--density", "2"],
    "error_tol": ["rank", "cp10.mten", "--tol", "nan"],
    "error_table": ["table5", "--lam", "0", "--density", "-1", "--trials", "0"],
    "refuse_odd_order": ["complete", "cp4x3.mten", "--ratio", "0.4", "--model", "n"],
    "refuse_truth_shape": ["complete", "cp10.mten", "--ratio", "0.4", "--truth",
                           "cp4x6.mten"],
}


def run(name, argv) -> None:
    """Run one command, its stdout, stderr and exit status to name.out."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    Path(f"{name}.out").write_text(f"{out.getvalue()}exit {code}\n")


def write_video() -> list:
    """The frame files of the video runs: a seeded 6 x 5 scene written four
    times by write_frames, then its pixels once more under a header with
    comments before, between and right after its fields."""
    scene = np.random.default_rng(7).uniform(0.25, 0.75, size=(6, 5, 3, 1))
    paths = [f"frame_{k}.ppm" for k in range(5)]
    write_frames(paths[:4], np.repeat(scene, 4, axis=3))
    pixels = Path(paths[0]).read_bytes()[len(b"P6\n5 6\n255\n"):]
    Path(paths[4]).write_bytes(b"# by hand\nP6#magic\r\n5\t# width\n# height:\n6 255\n" + pixels)
    return paths


def write_all(outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    os.chdir(outdir)
    for name, argv in GEN.items():
        run(f"gen_{name}", ["gen", *argv, "--output", f"{name}.mten"])
        run(f"rank_{name}", ["rank", f"{name}.mten"])
        for fmt in ("csv", "json"):
            run(f"rank_{name}_{fmt}", ["rank", f"{name}.mten", "--format", fmt,
                                       "--output", f"rank_{name}.{fmt}"])
    for name, argv in SOLVES.items():
        for fmt in ("csv", "json"):
            run(f"{name}_{fmt}", [*argv, "--format", fmt, "--report", f"{name}.{fmt}",
                                  "--output", f"{name}_{fmt}.mten"])
    for table in TABLES:
        for fmt in ("csv", "json"):
            run(f"{table.name}_{fmt}", [table.name, "--trials", "2", "--format", fmt,
                                        "--output", f"{table.name}.{fmt}"])
    run("table2_stdout_json", ["table2", "--trials", "2", "--format", "json"])
    frames = write_video()
    for name, (cmd, *flags) in VIDEO.items():
        run(name, [cmd, *frames, *flags, "--out-dir", name, "--format", "json",
                   "--report", f"{name}.json"])
    run("gen_cp4x3", ODD_GEN)
    for name, argv in ERRORS.items():
        run(name, argv)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    write_all(sys.argv[1])
