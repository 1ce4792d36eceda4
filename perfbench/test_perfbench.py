"""Self-tests of the benchmark: every output check rejects a known-wrong
answer (and passes the right one), the tracer's self-time arithmetic holds
on a synthetic call tree, and the relabelling keeps instances equivalent.
Small sizes only, so the whole file runs in a few seconds."""

import json
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracer
import workloads

RNG = np.random.default_rng(2040)


def cnormal(*shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def cp(dims, r):
    t = np.zeros(dims, dtype=np.complex128)
    for _ in range(r):
        term = cnormal(dims[0])
        for n in dims[1:]:
            term = np.multiply.outer(term, cnormal(n))
        t += term
    return t


def power(v, order):
    t = v
    for _ in range(order - 1):
        t = np.multiply.outer(t, v)
    return t


def supersym(n, order, r):
    return sum(power(cnormal(n), order) for _ in range(r))


DIMS, R = (5, 5, 5, 5), 2
TRUTH = cp(DIMS, R)
FLAT = np.sort(RNG.choice(625, size=400, replace=False))
VALUES = checks.observed(TRUTH, FLAT)
EXTRA = cp(DIMS, 1) * 1e-2  # one more term: rank r + 1


def test_complete_m_check():
    assert checks.check_complete_m(TRUTH, 0.0, TRUTH, FLAT, VALUES, R, 1e-6) == []
    assert checks.check_complete_m(TRUTH * (1 + 1e-2), 0.0, TRUTH, FLAT, VALUES, R, 1e-6)
    assert checks.check_complete_m(TRUTH + EXTRA, 0.0, TRUTH, FLAT, VALUES, R, 1e-6)
    # a reported residual that is not the returned tensor's
    assert checks.check_complete_m(TRUTH, 7.5e-5, TRUTH, FLAT, VALUES, R, 1e-6)


def test_complete_n_check():
    assert checks.check_complete_n(TRUTH, TRUTH, FLAT, VALUES) == []
    moved = TRUTH.copy().reshape(-1, order="F")
    moved[FLAT[0]] += 1e-12
    assert checks.check_complete_n(moved.reshape(DIMS, order="F"), TRUTH, FLAT, VALUES)
    free = np.setdiff1d(np.arange(TRUTH.size), FLAT)
    worse = TRUTH.copy().reshape(-1, order="F")
    worse[free] += cnormal(free.size)  # feasible, but a larger objective
    assert checks.check_complete_n(worse.reshape(DIMS, order="F"), TRUTH, FLAT, VALUES)


def split_instance():
    sparse = np.zeros(TRUTH.size, dtype=np.complex128)
    pos = RNG.choice(TRUTH.size, size=30, replace=False)
    sparse[pos] = cnormal(30)
    sparse = sparse.reshape(DIMS)
    return sparse, TRUTH + sparse


def test_rpca_m_check():
    sparse, data = split_instance()
    assert checks.check_rpca_m(TRUTH, sparse, data, TRUTH, sparse, R) == []
    assert checks.check_rpca_m(TRUTH, sparse + 1e-3, data, TRUTH, sparse, R)
    assert checks.check_rpca_m(TRUTH + EXTRA, sparse - EXTRA, data, TRUTH, sparse, R)


def test_rpca_n_check():
    sparse, data = split_instance()
    assert checks.check_rpca_n(TRUTH, sparse, data, TRUTH, sparse) == []
    assert checks.check_rpca_n(TRUTH, sparse + 1e-3, data, TRUTH, sparse)
    # feasible, but the objective is worse than the true split's
    problems = checks.check_rpca_n(TRUTH + 10 * EXTRA, sparse - 10 * EXTRA, data, TRUTH, sparse)
    assert any("objective" in p for p in problems)


def test_complete_supersym_check():
    t = supersym(4, 4, 3)
    flat = np.sort(RNG.choice(t.size, size=100, replace=False))
    values = checks.observed(t, flat)
    assert checks.check_complete_supersym(t, t, flat, values, 3) == []
    free = np.setdiff1d(np.arange(t.size), flat)
    skew = t.copy().reshape(-1, order="F")
    skew[free[0]] += 1e-3 * np.linalg.norm(t)  # one entry off its orbit
    problems = checks.check_complete_supersym(skew.reshape(t.shape, order="F"), t, flat,
                                              values, 3)
    assert any("symmetry" in p for p in problems)
    assert checks.check_complete_supersym(t + 1e-2 * supersym(4, 4, 1), t, flat, values, 3)


def report(dims, pranks, m_plus, m_minus, tucker, cp_upper):
    return {"dims": list(dims), "pairing_ranks": pranks, "m_plus": m_plus,
            "m_minus": m_minus, "tucker": tucker, "cp_lower": m_plus, "cp_upper": cp_upper}


def test_rank_report_check():
    dims = (30, 30, 30, 30)
    pranks = {"1,2|3,4": 40, "1,3|2,4": 40, "1,4|2,3": 40}
    good = report(dims, pranks, 40, 40, [30] * 4, 30 * 30 * 40)
    assert checks.check_rank_report(good, dims, 40) == []
    assert checks.check_rank_report(good | {"m_plus": 41}, dims, 40)
    assert checks.check_rank_report(good | {"cp_upper": None}, dims, 40)
    assert checks.check_rank_report(good | {"pairing_ranks": pranks | {"1,4|2,3": 41}},
                                    dims, 40)
    kron = report((16,) * 4, {"1,2|3,4": 3, "1,3|2,4": 27, "1,4|2,3": 27}, 27, 3, [9] * 4,
                  16 * 16 * 3)
    assert checks.check_rank_report(kron, (16,) * 4, 3, 3) == []
    assert checks.check_rank_report(kron | {"tucker": [16] * 4}, (16,) * 4, 3, 3)
    order6 = report((8,) * 6, {str(i): 20 for i in range(10)}, 20, 20, [8] * 6, None)
    assert checks.check_rank_report(order6, (8,) * 6, 20) == []
    assert checks.check_rank_report(order6 | {"cp_upper": 3200}, (8,) * 6, 20)


def test_mten_round_trip_check(tmp_path):
    t = cnormal(2, 3, 4)
    raw = b"MTEN\x01\x03" + struct.pack("<3Q", *t.shape) + t.tobytes(order="F")
    path = tmp_path / "t.mten"
    path.write_bytes(raw)
    assert checks.check_mten_round_trip(path, t) == []
    path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 1]))
    assert checks.check_mten_round_trip(path, t)


def test_symmetrize_check():
    x = cnormal(3, 3, 3, 3)
    s = supersym(3, 4, 2)
    assert checks.check_symmetrize(checks.orbit_mean(x), x, s) == []
    assert checks.check_symmetrize(x, x, s)
    assert checks.check_symmetrize(checks.orbit_mean(x) * (1 + 1e-9), x, s)


def test_decomposition_checks():
    vs = [cnormal(4) for _ in range(3)]
    factors = [np.multiply.outer(v, v) for v in vs]
    t = sum(np.multiply.outer(b, b) for b in factors)
    assert checks.check_strong_decomposition(factors, t, 3) == []
    assert checks.check_strong_decomposition(factors[:2], t, 3)
    skew = [b + np.diag(np.ones(3), 1) * 1e-3 for b in factors]
    assert checks.check_strong_decomposition(skew, t, 3)
    b = cnormal(5)
    assert checks.check_rank_one(b * 1j, power(b, 4)) == []  # any 4th root of unity
    assert checks.check_rank_one(b * (1 + 1e-6), power(b, 4))


def test_self_time_on_synthetic_call_tree():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tr = tracer.Tracer(clock=lambda: now[0])
    leaf = tr.wrap("linalg.svt", lambda m: tick(2.0))
    mid = tr.wrap("tensor.mode_fold", lambda: (tick(1.0), leaf(np.zeros((3, 4))), tick(0.5)))

    def top():
        tick(1.0)
        mid()
        leaf(np.zeros((5, 2)))
        tick(0.25)
        return SimpleNamespace(iters=7)

    tr.wrap("solvers.complete_n", top)()
    m = tr.metrics()
    assert m["linalg.svt.calls"] == 2 and m["linalg.svt.s"] == 4.0
    assert m["linalg.svt.self_s"] == 4.0
    assert m["tensor.mode_fold.s"] == 3.5 and m["tensor.mode_fold.self_s"] == 1.5
    assert m["solvers.complete_n.s"] == 6.75 and m["solvers.complete_n.self_s"] == 1.25
    assert m["solvers.complete_n.iters"] == 7
    assert m["linalg.svt.work"] == 3 * 4 * 3 + 5 * 2 * 2


def test_install_wraps_every_reference_and_restores_it():
    import mrank.linalg
    import mrank.solvers

    svt = mrank.linalg.svt
    with tracer.Tracer() as tr:
        assert mrank.solvers.svt is mrank.linalg.svt is not svt
        mrank.solvers.svt(np.eye(3, dtype=np.complex128), 0.5)
    assert mrank.solvers.svt is svt and mrank.linalg.svt is svt
    assert tr.calls["linalg.svt"] == 1 and tr.calls["lapack.svd"] == 1


def test_benchmark_json_names_match_the_tracer():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert [m["unit"] for m in spec["per_layer"]] == [
        tracer.metric_unit(n) for n in tracer.metric_names()]


@pytest.mark.parametrize("symmetric", [False, True])
def test_relabelling_keeps_the_instance_equivalent(symmetric):
    from mrank.synth import Mask

    dims = (4, 4, 4, 4)
    t = supersym(4, 4, 2) if symmetric else cp(dims, 2)
    mask = Mask(dims, np.sort(RNG.choice(t.size, size=90, replace=False)))
    perms, phase = workloads.relabelling(np.random.default_rng(3), dims, symmetric)
    t2 = workloads.relabel(t, perms, phase)
    mask2 = workloads.relabel_mask(mask, perms)
    assert np.allclose(np.sort_complex(mask2.observe(t2)),
                       np.sort_complex(phase * mask.observe(t)), rtol=0, atol=1e-12)
    for rows in checks.row_groups(4):
        assert np.allclose(np.linalg.svd(checks.unfold(t2, rows), compute_uv=False),
                           np.linalg.svd(checks.unfold(t, rows), compute_uv=False))
    if symmetric:
        assert checks.symmetry_defect(t2) < 1e-12
