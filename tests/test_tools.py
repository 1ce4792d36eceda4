"""The measurement scripts under tools/: code line counts, paired
benchmark statistics, the CLI output-parity run and the solver digests."""

import dataclasses
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import pairs  # noqa: E402
import solver_digests  # noqa: E402
from mrank.ranks import m_ranks  # noqa: E402
from mrank.solvers import SolveResult  # noqa: E402

# 7 code lines, counted by hand: the import, the constant, the class line,
# the def line, both lines of the two-line statement and the return; the
# module, class and function docstrings, the comments and the blank lines
# are not code, while a string that is not a docstring is
SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment on its own line
NAME = """not a docstring"""


class Thing:
    """Class docstring."""

    def size(self):
        """Function docstring,

        with a blank line inside."""
        total = (1 +
                 2)
        return total
'''


def test_code_lines_counts_a_fixture_by_hand(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py"), str(path)],
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == ["sample.py 7", "total 7"]


def test_code_lines_default_counts_every_package_module():
    out = subprocess.run([sys.executable, str(TOOLS / "code_lines.py")],
                         check=True, capture_output=True, text=True).stdout.splitlines()
    names = [line.split()[0] for line in out[:-1]]
    assert names == sorted(p.name for p in (TOOLS.parent / "src" / "mrank").glob("*.py"))
    assert out[-1] == f"total {sum(int(line.split()[1]) for line in out[:-1])}"


def test_pairs_quantiles_interpolate_like_numpy():
    assert pairs.quantile([3.0], 0.25) == 3.0
    assert pairs.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert pairs.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.25) == 2.0


@pytest.mark.parametrize("change, wins, gain", [
    # better in all 10 pairs by more than the parent's quartile range (4.5)
    ([x - 5.0 for x in range(10, 20)], 10, True),
    # 8 wins of 10 are too few, however large the gap
    ([x - 5.0 for x in range(10, 18)] + [30.0, 30.0], 8, False),
    # 10 wins, but a median gap within the parent's quartile range
    ([x - 4.0 for x in range(10, 20)], 10, False),
])
def test_pairs_gain_rule(change, wins, gain):
    s = pairs.summarize([float(x) for x in range(10, 20)], change, "lower", 0.25)
    assert (s["wins"], s["gain"]) == (wins, gain)


def test_pairs_bound_and_spread():
    parent = [10.0, 10.0, 10.0, 10.0]
    assert pairs.summarize(parent, [12.0] * 4, "lower", 0.25)["within_bound"]
    assert not pairs.summarize(parent, [13.0] * 4, "lower", 0.25)["within_bound"]
    assert pairs.summarize(parent, [13.0] * 4, "higher", 0.25)["within_bound"]
    # fewer than 10 pairs never show a gain
    assert not pairs.summarize(parent, [1.0] * 4, "lower", 0.25)["gain"]
    # a parent spread wider than the bound leaves the metric unresolved
    assert pairs.summarize([6.0, 8.0, 12.0, 14.0], [10.0] * 4, "lower", 0.25)["unresolved"]
    assert not pairs.summarize(parent, [10.0] * 4, "lower", 0.25)["unresolved"]


def _fake_run(calls):
    """A subprocess.run stand-in for pairs.run_side: records each command
    and answers with the result line of one single-workload run."""
    def run(cmd, **kwargs):
        calls.append(cmd)
        metrics = {n: {"value": 1.0 + len(calls), "unit": "s"}
                   for n in ("setup_s", "wall_s", "peak_rss_mb")}
        line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics})
        return types.SimpleNamespace(stdout=f"workload log\n{line}\n")
    return run


def test_pairs_runs_and_summarizes_one_workload(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(pairs.subprocess, "run", _fake_run(calls))
    root = str(TOOLS.parent)
    assert pairs.main([root, root, "--pairs", "2", "--seconds", "1",
                       "--workload", "robust_supersym"]) == 0
    assert len(calls) == 4
    for cmd in calls:
        assert cmd[cmd.index("--workload") + 1] == "robust_supersym"
    out = capsys.readouterr().out.splitlines()
    rows = [line for line in out if line.endswith(("gain met", "gain not met"))]
    assert [row.split(" [")[0] for row in rows] == [
        f"robust_supersym.{m}" for m in ("setup_s", "wall_s", "peak_rss_mb")]
    assert out[-1] == "every run correct with 0 failed"


def test_pairs_rejects_an_unknown_workload(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(pairs.subprocess, "run", _fake_run(calls))
    root = str(TOOLS.parent)
    with pytest.raises(SystemExit) as exc:
        pairs.main([root, root, "--workload", "nope"])
    assert exc.value.code == 2 and calls == []
    assert "--workload must be one of completion, robust_supersym, ranks or all" in \
        capsys.readouterr().err


def test_outputs_writes_every_form(tmp_path):
    # one run of the output-parity script: every command's stdout file with
    # its exit status, the report and tensor files, the usage errors and the
    # solvers' entry refusals
    subprocess.run([sys.executable, str(TOOLS / "outputs.py"), str(tmp_path)],
                   check=True, capture_output=True, text=True)
    names = {p.name for p in tmp_path.iterdir()}
    for stem in ("cp10", "cp4x6", "sym8", "sym5x6"):
        assert {f"{stem}.mten", f"{stem}.mten.json", f"rank_{stem}.csv",
                f"rank_{stem}.json"} <= names
    for stem in ("complete_m", "complete_n", "rpca_m", "rpca_n", "sym_complete"):
        assert {f"{stem}.csv", f"{stem}.json", f"{stem}_csv.mten"} <= names
    assert {f"table{i}.{fmt}" for i in range(1, 6) for fmt in ("csv", "json")} <= names
    # the video runs: their frames, reports and frame sets
    assert {f"frame_{k}.ppm" for k in range(5)} | {"video_complete.json",
                                                  "video_decompose.json"} <= names
    for stem, sets in (("video_complete", ("masked", "recovered")),
                       ("video_decompose", ("background", "foreground"))):
        assert {p.name for p in (tmp_path / stem).iterdir()} == {
            f"{s}_{k:04d}.ppm" for s in sets for k in range(5)}
    assert {"cp4x3.mten", "refuse_odd_order.out", "refuse_truth_shape.out"} <= names
    assert (tmp_path / "refuse_odd_order.out").read_text() == (
        "error: order must be even, got 3\nexit 3\n")
    assert (tmp_path / "refuse_truth_shape.out").read_text() == (
        "error: truth shape (4, 4, 4, 4, 4, 4) != data shape (10, 10, 10, 10)\nexit 3\n")
    codes = {"error": 2, "refuse": 3}
    for out in tmp_path.glob("*.out"):
        last = out.read_text().splitlines()[-1]
        assert last == f"exit {codes.get(out.name.split('_')[0], 0)}", out.name


def test_solver_digests_writes_one_line_per_solve(tmp_path):
    # one run of the bitwise-parity script: a "name iters converged sha256"
    # line per solve, each of the 52 names once, every solver among them;
    # the capped and the zero-data solves show their counts and flags, and
    # the benchmark's 20^4 solves converge
    out = tmp_path / "digests.txt"
    subprocess.run([sys.executable, str(TOOLS / "solver_digests.py"), str(out)],
                   check=True, capture_output=True, text=True)
    lines = [line.split(" ") for line in out.read_text().splitlines()]
    names = [name for name, *_ in lines]
    assert names == list(solver_digests.solves()) and len(set(names)) == len(names) == 52
    assert all(len(line) == 4 and re.fullmatch("[0-9]+", line[1])
               and line[2] in ("True", "False") and re.fullmatch("[0-9a-f]{64}", line[3])
               for line in lines)
    steps = {name: (iters, conv) for name, iters, conv, _ in lines}
    for solver in ("complete_n", "rpca_m", "rpca_n", "complete_supersym"):
        assert steps[f"{solver}_iters3"] == ("3", "False"), solver
        assert steps[f"{solver}_zero"] == ("0", "True"), solver
    for solver in ("complete_m", "complete_n", "rpca_m", "rpca_n", "complete_supersym"):
        assert any(solver in name for name in names), solver
    for solver in ("rpca_m", "rpca_n", "complete_supersym"):
        assert steps[f"b20_{solver}_0"][1] == "True", solver


def test_solver_digest_sees_every_field():
    # a change of one ulp, one flag or one count in any field moves the
    # digest; equal results share it
    base = SolveResult(np.zeros((2, 2, 2, 2), dtype=np.complex128), 3, True,
                       m_ranks(np.zeros((2, 2, 2, 2))), residual_trace=[0.5, 0.25])
    bumped = base.recovered.copy()
    bumped[0, 0, 0, 0] = np.nextafter(0.0, 1.0)
    variants = [
        {"recovered": bumped},
        {"sparse": np.zeros((2, 2, 2, 2), dtype=np.complex128)},
        {"iters": 4},
        {"converged": False},
        {"residual_trace": [0.5, np.nextafter(0.25, 1.0)]},
        {"duality_gap": 0.0},
        {"rel_err_vs_truth": 0.0},
        {"rel_err_all": 0.0},
        {"rank_report": dataclasses.replace(base.rank_report, m_plus=1)},
    ]
    digests = [solver_digests.digest(dataclasses.replace(base, **v)) for v in variants]
    assert solver_digests.digest(base) == solver_digests.digest(dataclasses.replace(base))
    assert len({solver_digests.digest(base), *digests}) == len(variants) + 1
