"""The measurement scripts under tools/: code line counts, paired
benchmark statistics and the CLI output-parity run."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import pairs  # noqa: E402

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


def test_outputs_writes_every_form(tmp_path):
    # one run of the output-parity script: every command's stdout file with
    # its exit status, the report and tensor files, and the usage errors
    subprocess.run([sys.executable, str(TOOLS / "outputs.py"), str(tmp_path)],
                   check=True, capture_output=True, text=True)
    names = {p.name for p in tmp_path.iterdir()}
    for stem in ("cp10", "cp4x6", "sym8"):
        assert {f"{stem}.mten", f"{stem}.mten.json", f"rank_{stem}.csv",
                f"rank_{stem}.json"} <= names
    for stem in ("complete_m", "complete_n", "rpca_m", "rpca_n", "sym_complete"):
        assert {f"{stem}.csv", f"{stem}.json", f"{stem}_csv.mten"} <= names
    assert {f"table{i}.{fmt}" for i in range(1, 6) for fmt in ("csv", "json")} <= names
    for out in tmp_path.glob("*.out"):
        last = out.read_text().splitlines()[-1]
        assert last == ("exit 2" if out.name.startswith("error_") else "exit 0"), out.name
