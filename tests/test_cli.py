"""End-to-end CLI behavior: flags, exit codes, report stability."""

import json
import time
from dataclasses import fields

import numpy as np
import pytest

from mrank.cli import TABLES, _run_grid, _solver_config, build_parser, main
from mrank.fileio import read_frames, read_tensor, write_frames, write_tensor
from mrank.solvers import SolverConfig, rpca_m
from mrank.synth import gen_supersym


def run(argv):
    return main([str(a) for a in argv])


# ------------------------------------------------------------- gen and rank


def test_gen_then_rank(tmp_path, capsys):
    t_path = tmp_path / "t.mten"
    assert run(["gen", "--form", "cp", "--dims", "10,10,10,10", "--r", "12",
                "--seed", "7", "--output", t_path]) == 0
    sidecar = json.loads((tmp_path / "t.mten.json").read_text())
    assert sidecar == {"dims": [10, 10, 10, 10], "r": 12, "form": "cp",
                       "seed": 7, "k": 0}
    capsys.readouterr()
    assert run(["rank", t_path]) == 0
    out = capsys.readouterr().out
    assert "m_plus:  12" in out
    assert "m_minus: 12" in out
    assert "tucker:  10,10,10,10" in out


def test_rank_zero_tensor(tmp_path, capsys):
    path = tmp_path / "z.mten"
    write_tensor(path, np.zeros((3, 3, 3, 3), dtype=np.complex128))
    assert run(["rank", path]) == 0
    out = capsys.readouterr().out
    assert "m_plus:  0" in out and "m_minus: 0" in out


def test_rank_report_files(tmp_path):
    t_path = tmp_path / "t.mten"
    run(["gen", "--form", "kron", "--dims", "8,8,8,8", "--r", "2", "--k", "2",
         "--seed", "1", "--output", t_path])
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    assert run(["rank", t_path, "--output", csv_path]) == 0
    assert run(["rank", t_path, "--output", json_path, "--format", "json"]) == 0
    line = csv_path.read_text().splitlines()[1]
    assert line.startswith('"8,8,8,8",8,2,"4,4,4,4"')
    rep = json.loads(json_path.read_text())
    assert rep["m_plus"] == 8 and rep["m_minus"] == 2
    assert rep["pairing_ranks"]["1,2|3,4"] == 2


def test_rank_report_csv_row_at_order_6(tmp_path):
    # the whole row: ten pairing ranks joined by semicolons, and an empty
    # cp_upper, which only order 4 has
    t_path = tmp_path / "t.mten"
    run(["gen", "--form", "kron", "--dims", "2,3,2,3,2,3", "--r", "1", "--k", "2",
         "--seed", "0", "--output", t_path])
    csv_path = tmp_path / "r.csv"
    assert run(["rank", t_path, "--output", csv_path, "--format", "csv"]) == 0
    assert csv_path.read_text().splitlines() == [
        "dims,m_plus,m_minus,tucker,pairing_ranks,cp_lower,cp_upper",
        '"2,3,2,3,2,3",8,2,"2,2,2,2,2,2",'
        '"1,2,3|4,5,6=2;1,2,4|3,5,6=2;1,2,5|3,4,6=2;1,2,6|3,4,5=2;1,3,4|2,5,6=2;'
        '1,3,5|2,4,6=8;1,3,6|2,4,5=8;1,4,5|2,3,6=8;1,4,6|2,3,5=8;1,5,6|2,3,4=2",8,',
    ]


# the whole bytes of the three JSON files the CLI writes: indent 2, key
# order, number forms and the trailing newline
GEN_SIDECAR = """{
  "dims": [
    3,
    3,
    3,
    3
  ],
  "r": 2,
  "form": "cp",
  "seed": 0,
  "k": 0
}
"""

RANK_JSON = """{
  "dims": [
    3,
    3,
    3,
    3
  ],
  "m_plus": 2,
  "m_minus": 2,
  "tucker": [
    2,
    2,
    2,
    2
  ],
  "pairing_ranks": {
    "1,2|3,4": 2,
    "1,3|2,4": 2,
    "1,4|2,3": 2
  },
  "cp_lower": 2,
  "cp_upper": 18,
  "rel_tol": 1e-08
}
"""

TABLE1_JSON = """[
  {
    "dims": "10,10,10,10",
    "r": 12,
    "trials": 1,
    "n_converged": 1,
    "converged": true,
    "tucker": "10,10,10,10",
    "m_plus": 12.0,
    "m_minus": 12.0
  },
  {
    "dims": "15,15,15,15",
    "r": 18,
    "trials": 1,
    "n_converged": 1,
    "converged": true,
    "tucker": "15,15,15,15",
    "m_plus": 18.0,
    "m_minus": 18.0
  }
]
"""


def test_json_files_golden_bytes(tmp_path):
    t_path = tmp_path / "t.mten"
    assert run(["gen", "--form", "cp", "--dims", "3,3,3,3", "--r", "2", "--seed", "0",
                "--output", t_path]) == 0
    assert (tmp_path / "t.mten.json").read_bytes() == GEN_SIDECAR.encode()
    assert run(["rank", t_path, "--format", "json", "--output", tmp_path / "r.json"]) == 0
    assert (tmp_path / "r.json").read_bytes() == RANK_JSON.encode()
    assert run(["table1", "--trials", "1", "--format", "json",
                "--output", tmp_path / "t1.json"]) == 0
    assert (tmp_path / "t1.json").read_bytes() == TABLE1_JSON.encode()


# -------------------------------------------------------------- solve paths


def test_complete_roundtrip(tmp_path, capsys):
    t_path = tmp_path / "t.mten"
    rec_path = tmp_path / "rec.mten"
    rep_path = tmp_path / "rep.csv"
    run(["gen", "--form", "cp", "--dims", "6,6,6,6", "--r", "2", "--seed", "2",
         "--output", t_path])
    code = run(["complete", t_path, "--ratio", "0.6", "--seed", "1",
                "--output", rec_path, "--report", rep_path])
    assert code == 0
    t = read_tensor(t_path)
    rec = read_tensor(rec_path)
    assert np.linalg.norm(rec - t) <= 1e-5 * np.linalg.norm(t)
    header, row = rep_path.read_text().splitlines()
    assert header.split(",")[:3] == ["iters", "converged", "rel_err"]
    assert ",True," in "," + row + ","


def test_complete_baseline_model(tmp_path):
    t_path = tmp_path / "t.mten"
    run(["gen", "--form", "cp", "--dims", "10,10,10,10", "--r", "2",
         "--seed", "3", "--output", t_path])
    assert run(["complete", t_path, "--ratio", "0.7", "--model", "n"]) == 0


def test_rpca_with_planted_noise(tmp_path):
    t_path = tmp_path / "y.mten"
    y_path = tmp_path / "yrec.mten"
    z_path = tmp_path / "zrec.mten"
    run(["gen", "--form", "cp", "--dims", "8,8,8,8", "--r", "2", "--seed", "4",
         "--output", t_path])
    code = run(["rpca", t_path, "--density", "0.05", "--seed", "5",
                "--output", y_path, "--sparse-output", z_path])
    assert code == 0
    y0 = read_tensor(t_path)
    assert np.linalg.norm(read_tensor(y_path) - y0) <= 1e-5 * np.linalg.norm(y0)
    assert read_tensor(z_path).shape == (8, 8, 8, 8)


def test_complete_crossed_pairing(tmp_path, capsys):
    t_path = tmp_path / "t.mten"
    rec_path = tmp_path / "rec.mten"
    run(["gen", "--form", "cp", "--dims", "6,6,6,6", "--r", "2", "--seed", "2",
         "--output", t_path])
    capsys.readouterr()
    assert run(["complete", t_path, "--ratio", "0.6", "--seed", "3",
                "--pairing", "1,3|2,4", "--output", rec_path]) == 0
    assert capsys.readouterr().out.startswith("complete_m: converged=True")
    t = read_tensor(t_path)
    assert np.linalg.norm(read_tensor(rec_path) - t) <= 1e-5 * np.linalg.norm(t)


def test_rpca_mode_model(tmp_path, capsys):
    t_path = tmp_path / "y.mten"
    z_path = tmp_path / "zrec.mten"
    run(["gen", "--form", "cp", "--dims", "8,8,8,8", "--r", "2", "--seed", "4",
         "--output", t_path])
    capsys.readouterr()
    assert run(["rpca", t_path, "--model", "n", "--density", "0.05", "--seed", "5",
                "--sparse-output", z_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rpca_n: converged=True")
    assert "rel_err_vs_truth" in out  # the clean input is the truth
    assert read_tensor(z_path).shape == (8, 8, 8, 8)


def test_rpca_lam_reaches_the_solver(tmp_path):
    t_path = tmp_path / "y.mten"
    y_path = tmp_path / "yrec.mten"
    run(["gen", "--form", "cp", "--dims", "6,6,6,6", "--r", "2", "--seed", "4",
         "--output", t_path])
    assert run(["rpca", t_path, "--lam", "0.2", "--output", y_path]) == 0
    t = read_tensor(t_path)
    ref = rpca_m(t, cfg=SolverConfig(lam=0.2))
    assert np.array_equal(read_tensor(y_path), ref.recovered)
    assert not np.array_equal(ref.recovered, rpca_m(t).recovered)


def test_sym_complete(tmp_path, capsys):
    t_path = tmp_path / "s.mten"
    write_tensor(t_path, gen_supersym(7, 4, 3, seed=6))
    assert run(["sym-complete", t_path, "--ratio", "0.4", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "converged=True" in out


@pytest.mark.parametrize("cmd", [["rpca", "in.mten"],
                                 ["video-decompose", "f.ppm", "--out-dir", "d"]])
def test_solver_config_sets_each_field_from_its_flag(cmd):
    # every SolverConfig field has a flag of its name on these commands; a
    # flag left out keeps the field's default
    def config(*flags):
        return _solver_config(build_parser().parse_args([*cmd, *flags]))

    flags = {"max_iters": ["--max-iters", "7"], "rel_tol": ["--rel-tol", "1e-3"],
             "lam": ["--lam", "0.5"]}
    values = {"max_iters": 7, "rel_tol": 1e-3, "lam": 0.5}
    assert list(flags) == [f.name for f in fields(SolverConfig)]
    assert config() == SolverConfig()
    for name, flag in flags.items():
        assert config(*flag) == SolverConfig(**{name: values[name]})
    assert config(*(x for flag in flags.values() for x in flag)) == SolverConfig(**values)


# --------------------------------------------------------------- exit codes


def test_exit_bad_flags(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["complete"])  # missing required --ratio and input
    assert exc.value.code == 2
    # flag-level validation after parsing also exits 2
    assert run(["gen", "--form", "cp", "--dims", "x,y", "--r", "1",
                "--output", tmp_path / "t.mten"]) == 2
    assert run(["gen", "--form", "kron", "--dims", "4,4,4,4", "--r", "1",
                "--output", tmp_path / "t.mten"]) == 2  # k missing
    capsys.readouterr()
    assert run(["gen", "--form", "cp", "--dims", "4,4,4,4", "--r", "1",
                "--seed", "-1", "--output", tmp_path / "t.mten"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "t.mten").exists()


@pytest.mark.parametrize("cmd", [["complete", "--ratio", "0.6"], ["rpca"],
                                 ["sym-complete", "--ratio", "0.6"]])
@pytest.mark.parametrize("flag", [["--max-iters", "-3"], ["--rel-tol", "nan"],
                                  ["--rel-tol", "inf"], ["--rel-tol", "-0.001"],
                                  ["--lam", "-1"], ["--lam", "0"], ["--lam", "nan"],
                                  ["--lam", "inf"], ["--seed", "-3"]])
def test_exit_bad_solver_flags(tmp_path, capsys, cmd, flag):
    # rejected before any solve: a negative budget, a tolerance that no
    # residual can meet or a sparsity weight that is not a positive number
    # is a usage error, not a solver that did not converge; --lam belongs to
    # the robust commands (rpca here), and the completion commands do not
    # parse it at all
    path = tmp_path / "t.mten"
    write_tensor(path, gen_supersym(4, 4, 2, seed=0))
    argv = [cmd[0], path, *cmd[1:], *flag]
    if flag[0] == "--lam" and cmd[0] != "rpca":
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    else:
        assert run(argv) == 2
    captured = capsys.readouterr()
    assert flag[0] in captured.err
    assert "converged" not in captured.out


@pytest.mark.parametrize("cmd", [["complete", "--ratio", "0.6"],
                                 ["sym-complete", "--ratio", "0.6"],
                                 ["video-complete", "--out-dir", "vc"]])
def test_lam_only_where_a_solver_reads_it(tmp_path, capsys, cmd):
    # completion has no sparsity weight: a valid --lam is still an unknown
    # flag there, not one silently ignored
    path = tmp_path / "t.mten"
    with pytest.raises(SystemExit) as exc:
        run([cmd[0], path, *cmd[1:], "--lam", "0.5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--lam" in captured.err and captured.out == ""


@pytest.mark.parametrize("cmd", [["complete", "--ratio", "0.5"], ["rpca"]])
@pytest.mark.parametrize("pairing", ["garbage", "1,2|3,4"])
def test_exit_pairing_with_mode_model(tmp_path, capsys, cmd, pairing):
    # the mode model has no square unfolding: a --pairing it would never
    # read is a usage error, valid or not, and no solve starts
    path = tmp_path / "t.mten"
    out = tmp_path / "rec.mten"
    write_tensor(path, gen_supersym(4, 4, 2, seed=0))
    argv = [cmd[0], path, *cmd[1:], "--model", "n", "--pairing", pairing, "--output", out]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "--pairing applies to --model m only" in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("pairing", ["garbage", "1,2|3", "1,1|2,3", "1,2|3,5"])
def test_exit_malformed_pairing(tmp_path, capsys, pairing):
    path = tmp_path / "t.mten"
    out = tmp_path / "rec.mten"
    write_tensor(path, gen_supersym(4, 4, 2, seed=0))
    capsys.readouterr()
    assert run(["complete", path, "--ratio", "0.5", "--pairing", pairing,
                "--output", out]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert not out.exists()


def test_exit_zero_length_dims(tmp_path, capsys):
    path = tmp_path / "t.mten"
    assert run(["gen", "--form", "cp", "--dims", "0,3", "--r", "1",
                "--output", path]) == 2
    assert "bad dims" in capsys.readouterr().err
    assert not path.exists()


@pytest.mark.parametrize("tol", ["-1", "-0.5", "nan", "inf"])
def test_exit_bad_rank_tol(tmp_path, capsys, tol):
    # a negative threshold counts every singular value and a non-finite one
    # none: a usage error, not a report
    path = tmp_path / "t.mten"
    write_tensor(path, gen_supersym(4, 4, 2, seed=0))
    assert run(["rank", path, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "--tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["complete", "--ratio", "1.5"],
                                  ["sym-complete", "--ratio", "1.5"],
                                  ["rpca", "--density", "-0.1"]])
def test_exit_bad_fraction_flags(tmp_path, capsys, argv):
    # a fraction outside [0, 1] is a bad flag (2), not an input error (3)
    path = tmp_path / "t.mten"
    write_tensor(path, gen_supersym(4, 4, 2, seed=0))
    assert run([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert argv[1] in captured.err
    assert "converged" not in captured.out


@pytest.mark.parametrize("argv", [["table3", "--trials", "0"],
                                  ["table3", "--trials", "-2"],
                                  ["table3", "--ratio", "1.5"],
                                  ["table5", "--lam", "-1"],
                                  ["table5", "--lam", "0"],
                                  ["table5", "--lam", "nan"],
                                  ["table5", "--lam", "inf"],
                                  ["table5", "--density", "-0.1"],
                                  ["table1", "--seed", "-1"]])
def test_exit_bad_table_flags(capsys, argv):
    # rejected before any trial runs, so no report row is printed
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert argv[1] in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("threads", ["abc", "0", "-1"])
def test_exit_bad_thread_count(capsys, monkeypatch, threads):
    # a worker count that is set but not a positive integer is a usage
    # error, not a silent single-threaded run
    monkeypatch.setenv("MRANK_THREADS", threads)
    assert run(["table1", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert "MRANK_THREADS" in captured.err
    assert captured.out == ""


def test_exit_io_error(tmp_path, capsys):
    assert run(["rank", tmp_path / "missing.mten"]) == 3
    bad = tmp_path / "bad.mten"
    bad.write_bytes(b"not a tensor")
    assert run(["rank", bad]) == 3


def test_exit_inconsistent_supersym_data(tmp_path, capsys):
    # data that no super-symmetric tensor matches is invalid input (exit 3)
    path = tmp_path / "t.mten"
    run(["gen", "--form", "cp", "--dims", "4,4,4,4", "--r", "2", "--seed", "1",
         "--output", path])
    capsys.readouterr()
    assert run(["sym-complete", path, "--ratio", "0.5"]) == 3
    assert "inconsistent" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["complete", "--ratio", "0.5"],
                                  ["complete", "--ratio", "0.5", "--model", "n"],
                                  ["rpca"], ["rpca", "--model", "n"],
                                  ["sym-complete", "--ratio", "0.5"]])
def test_exit_mis_shaped_truth(tmp_path, capsys, argv):
    # a --truth of another shape is invalid input (exit 3), named before
    # the solve rather than by numpy's broadcast error after it
    path, truth = tmp_path / "t.mten", tmp_path / "truth.mten"
    write_tensor(path, gen_supersym(4, 4, 2, seed=0))
    write_tensor(truth, np.zeros((4, 4, 4, 2)))
    capsys.readouterr()
    assert run([argv[0], path, *argv[1:], "--truth", truth]) == 3
    assert "truth shape (4, 4, 4, 2) != data shape (4, 4, 4, 4)" in capsys.readouterr().err


def test_exit_non_finite_input(tmp_path, capsys):
    # a NaN in the file is a data error (exit 3) caught on reading, before
    # it can reach LAPACK or a report
    t = gen_supersym(6, 4, 2, seed=0)
    t[0, 1, 2, 3] = np.nan
    path = tmp_path / "nan.mten"
    write_tensor(path, t)
    capsys.readouterr()
    for argv in (["rank", path], ["complete", path, "--ratio", "0.5"],
                 ["rpca", path], ["sym-complete", path, "--ratio", "0.5"]):
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert "non-finite entries" in captured.err
        assert "nan" not in captured.out


def test_exit_nonconvergence_with_partial_output(tmp_path, capsys):
    # full-rank random data at low sampling cannot be completed: honest fail
    rng = np.random.default_rng(0)
    t_path = tmp_path / "noise.mten"
    write_tensor(t_path, rng.standard_normal((4, 4, 4, 4))
                 + 1j * rng.standard_normal((4, 4, 4, 4)))
    rec = tmp_path / "rec.mten"
    rep = tmp_path / "rep.csv"
    code = run(["complete", t_path, "--ratio", "0.3", "--max-iters", "50",
                "--output", rec, "--report", rep])
    assert code == 4
    assert rec.exists() and rep.exists()  # partial result still written
    assert "False" in rep.read_text()


# ------------------------------------------------------------------- tables


def test_table2_desk_values(tmp_path):
    out = tmp_path / "t2.csv"
    assert run(["table2", "--trials", "3", "--output", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("dims,r,k,trials,n_converged,converged,tucker")
    assert lines[1] == '"10,10,10,10",2,2,3,3,True,"4,4,4,4",8,2'
    assert lines[2] == '"10,10,10,10",3,3,3,3,True,"9,9,9,9",27,3'


@pytest.mark.parametrize("table, header", [
    ("table1", "dims,r,trials,n_converged,converged,tucker,m_plus,m_minus"),
    ("table3", "dims,r,ratio,trials,n_converged,converged,n_rel_err,n_tucker,"
               "n_conv,m_rel_err,m_plus,m_minus"),
    ("table4", "n,r,ratio,trials,n_converged,converged,rel_err,rank_m"),
    ("table5", "dims,r,density,trials,n_converged,converged,n_rel_err_all,"
               "n_rel_err_lr,n_tucker,n_conv,m_rel_err_all,m_rel_err_lr,"
               "m_plus,m_minus"),
])
def test_table_csv_header(tmp_path, table, header):
    # column names and order: label columns, the trial counts, then the
    # averaged columns (table2's header is pinned in test_table2_desk_values)
    out = tmp_path / "t.csv"
    assert run([table, "--trials", "1", "--output", out]) == 0
    assert out.read_text().splitlines()[0] == header


def test_table_written_to_stdout(capsys):
    assert run(["table2", "--trials", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["dims,r,k,trials,n_converged,converged,tucker,m_plus,m_minus",
                     '"10,10,10,10",2,2,1,1,True,"4,4,4,4",8,2',
                     '"10,10,10,10",3,3,1,1,True,"9,9,9,9",27,3']
    assert run(["table2", "--trials", "1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["r"], r["tucker"], r["m_plus"]) for r in rows] == [
        (2, "4,4,4,4", 8.0), (3, "9,9,9,9", 27.0)]


def test_table_full_grid_sizes():
    # the --full grids, read without running them
    sizes = {t.name: len(t.full) for t in TABLES}
    assert sizes == {"table1": 8, "table2": 15, "table3": 27, "table4": 8,
                     "table5": 15}


def test_table1_byte_identical_and_threaded(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run(["table1", "--trials", "2", "--output", a]) == 0
    assert run(["table1", "--trials", "2", "--output", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("MRANK_THREADS", "4")
    assert run(["table1", "--trials", "2", "--output", c]) == 0
    assert a.read_bytes() == c.read_bytes()  # row order fixed by seed
    monkeypatch.setenv("MRANK_THREADS", "")  # empty means one worker
    assert run(["table1", "--trials", "2", "--output", c]) == 0
    assert a.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_grid_fails_fast(monkeypatch, threads):
    # a trial that raises ends the grid with its error, and the trials not
    # yet started are cancelled rather than run out, with any worker count
    monkeypatch.setenv("MRANK_THREADS", threads)
    calls = []

    def trial(setting, seed):
        calls.append(seed)
        if seed == 0:
            raise ValueError("bad trial")
        time.sleep(0.05)
        return {}

    with pytest.raises(ValueError, match="bad trial"):
        _run_grid([{}] * 4, trial, 5, 0)
    assert len(calls) <= 1 + int(threads)


@pytest.mark.parametrize("table", ["table3", "table4", "table5"])
def test_table3_byte_identical_and_threaded(tmp_path, monkeypatch, table):
    # the solver tables: completion in table3 and the robust split in
    # table5, each with a mode-unfolding baseline, and super-symmetric
    # completion in table4; rows and their digits are fixed by the seed,
    # whatever the thread count
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run([table, "--trials", "2", "--output", a]) == 0
    assert run([table, "--trials", "2", "--output", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    monkeypatch.setenv("MRANK_THREADS", "4")
    assert run([table, "--trials", "2", "--output", c]) == 0
    assert a.read_bytes() == c.read_bytes()


def test_table1_seed_changes_nothing_generic(tmp_path):
    # different base seed, same generic ranks
    out = tmp_path / "t1.csv"
    assert run(["table1", "--trials", "2", "--seed", "42", "--output", out]) == 0
    body = out.read_text()
    assert '"10,10,10,10",12,2,2,True,"10,10,10,10",12,12' in body


def test_table4_json(tmp_path):
    out = tmp_path / "t4.json"
    assert run(["table4", "--trials", "1", "--format", "json",
                "--output", out]) == 0
    rows = json.loads(out.read_text())
    assert rows[0]["n"] == 10 and rows[0]["r"] == 8
    assert rows[0]["rel_err"] <= 1e-3
    assert rows[0]["rank_m"] == 8


# -------------------------------------------------------------------- video


def _write_stack(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.25, 0.75, size=(8, 10, 3))
    stack = np.stack([base for _ in range(4)], axis=-1)
    paths = [tmp_path / f"frame_{k}.ppm" for k in range(4)]
    write_frames(paths, stack.astype(np.complex128))
    return paths, stack


def test_video_complete(tmp_path, capsys):
    paths, stack = _write_stack(tmp_path)
    out_dir = tmp_path / "vc"
    code = run(["video-complete", *paths, "--ratio", "0.7", "--seed", "1",
                "--rel-tol", "2e-2", "--out-dir", out_dir])
    assert code == 0
    rec_paths = sorted(out_dir.glob("recovered_*.ppm"))
    assert len(rec_paths) == 4
    rec = read_frames(rec_paths)
    assert rec.shape == (8, 10, 3, 4)
    # static frames at 60% sampling: recovery close at 8-bit precision
    assert np.linalg.norm(rec - stack) <= 0.05 * np.linalg.norm(stack)
    assert len(sorted(out_dir.glob("masked_*.ppm"))) == 4


def test_video_decompose(tmp_path):
    paths, stack = _write_stack(tmp_path, seed=1)
    out_dir = tmp_path / "vd"
    code = run(["video-decompose", *paths, "--rel-tol", "1e-4",
                "--out-dir", out_dir])
    assert code == 0
    bg = read_frames(sorted(out_dir.glob("background_*.ppm")))
    fg = read_frames(sorted(out_dir.glob("foreground_*.ppm")))
    assert bg.shape == fg.shape == (8, 10, 3, 4)
    # static video: background carries the data, foreground is dark
    assert np.linalg.norm(bg - stack) <= 0.05 * np.linalg.norm(stack)
    assert np.abs(fg).max() <= 0.1


def test_video_decompose_takes_no_seed(tmp_path, capsys):
    # it draws nothing, so a --seed would be a flag that changes no byte
    paths, _ = _write_stack(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(["video-decompose", *paths, "--seed", "5", "--out-dir", tmp_path / "vd"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "vd").exists()
