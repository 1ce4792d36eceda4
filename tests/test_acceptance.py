"""Acceptance criteria for the package, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (streamed past pytest's
capture so it is visible in a plain `pytest -v` run) and then asserts the
same flag. Tolerances are pinned here and nowhere else:

  1  rank estimation, sum-of-dyads form, two sizes, 5 seeds, all exact, <60 s
  2  rank estimation, matrix-product form, r=k=2 and 3, >=4/5 seeds, <120 s
  3  single-term matrix-product instances: exact rank formulas, 20/20
  4  upper/lower bound inequalities on 50 random instances, no violation
  5  symmetric -> strongly symmetric rewrite: count kept, factors symmetric
     at 1e-8, reconstruction <= 1e-7, 20/20
  6  rank-one round trip at 1e-8, 20/20
  7  completion contrast at 30% sampling: square model <= 1e-3 with ranks 6
     in >=4/5 seeds, mode baseline >= 0.1 in >=4/5 seeds, <600 s
  8  robust recovery: LR error <= 1e-4, split error <= 1e-5, ranks 4,
     >=4/5 seeds, <600 s
  9  super-symmetric completion at 40%: error <= 1e-3, rank 8, symmetric at
     1e-6, >=2/3 seeds
  10 property suites: 1000 bitwise fold round trips, prox identities,
     Takagi <= 1e-9 over 100 draws, full determinism

Beside the criteria, the square model's sampling-boundary rows (rank 6 at
25% and rank 4 at 20% of 10^4) must each be recovered to 1e-3 with ranks r.
"""

import time

import numpy as np
import pytest

from mrank.linalg import complex_soft_threshold, spectral_norm, svt, takagi
from mrank.ranks import (
    cp_exact_for_kron,
    m_ranks,
    rank_one_factorize,
    strongly_symmetrize,
    symmetric_m_decompose,
)
from mrank.solvers import (
    SolverConfig,
    complete_m,
    complete_n,
    complete_supersym,
    rpca_m,
    rpca_n,
)
from mrank.synth import (
    complex_normal,
    gen_cp,
    gen_kron,
    gen_mask,
    gen_sparse_noise,
    gen_supersym,
)
from mrank.tensor import (
    Pairing,
    is_super_symmetric,
    mode_fold,
    mode_unfold,
    outer,
    square_fold,
    square_unfold,
)

SEEDS_5 = range(5)


@pytest.fixture
def say(capfd):
    def _say(ok: bool, name: str, detail: str):
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)

    return _say


def test_criterion_01_rank_estimation_cp(say):
    t0 = time.monotonic()
    failures = []
    for dims, r in [((10, 10, 10, 10), 12), ((15, 15, 15, 15), 18)]:
        for seed in SEEDS_5:
            rep = m_ranks(gen_cp(dims, r, seed=seed))
            if not (rep.m_plus == rep.m_minus == r and rep.tucker == dims):
                failures.append((dims, r, seed))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    say(ok, "criterion 1",
        f"cp rank estimation exact in {10 - len(failures)}/10 trials, "
        f"{elapsed:.1f}s (limit 60s)")
    assert ok, failures


def test_criterion_02_rank_estimation_kron(say):
    t0 = time.monotonic()
    expect = {2: (8, 2, (4, 4, 4, 4)), 3: (27, 3, (9, 9, 9, 9))}
    counts = {}
    for rk, (mp, mm, tk) in expect.items():
        hits = 0
        for seed in SEEDS_5:
            rep = m_ranks(gen_kron((10, 10, 10, 10), r=rk, k=rk, seed=seed))
            hits += rep.m_plus == mp and rep.m_minus == mm and rep.tucker == tk
        counts[rk] = hits
    elapsed = time.monotonic() - t0
    ok = all(h >= 4 for h in counts.values()) and elapsed < 120.0
    say(ok, "criterion 2",
        f"r=k=2: {counts[2]}/5, r=k=3: {counts[3]}/5 (need >=4/5), "
        f"{elapsed:.1f}s (limit 120s)")
    assert ok, counts


def test_criterion_03_single_term_exactness(say):
    rng = np.random.default_rng(2026)
    n = 8
    failures = []
    for trial in range(20):
        r1, r2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = complex_normal(rng, (n, r1)) @ complex_normal(rng, (r1, n))
        b = complex_normal(rng, (n, r2)) @ complex_normal(rng, (r2, n))
        rep = m_ranks(outer(a, b))
        good = (
            rep.tucker == (r1, r1, r2, r2)
            and rep.m_plus == r1 * r2
            and rep.m_minus == 1
            and cp_exact_for_kron([a, b]) == r1 * r2
        )
        if not good:
            failures.append((trial, r1, r2, rep.m_plus, rep.m_minus, rep.tucker))
    ok = not failures
    say(ok, "criterion 3",
        f"single-term rank formulas exact in {20 - len(failures)}/20 instances "
        "(zero failures allowed)")
    assert ok, failures


def test_criterion_04_bound_inequalities(say):
    rng = np.random.default_rng(2027)
    violations = []
    for trial in range(50):
        dims = tuple(int(d) for d in rng.integers(2, 13, size=4))
        r = int(rng.integers(1, 16))
        rep = m_ranks(gen_cp(dims, r, seed=trial))
        n = sorted(dims)
        if max(rep.pairing_ranks.values()) > r:
            violations.append(("pairing>r", trial, dims, r))
        if rep.m_plus > n[0] * n[2] * rep.m_minus:
            violations.append(("upper-bound", trial, dims, r))
    ok = not violations
    say(ok, "criterion 4",
        f"rank <= r and m_plus <= n1*n3*m_minus on {50 - len(violations)}/50 "
        "random instances (zero violations allowed)")
    assert ok, violations


def test_criterion_05_strong_symmetrization(say):
    rng = np.random.default_rng(2028)
    failures = []
    for trial in range(20):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, 6))
        t = gen_supersym(n, 4, r, seed=1000 + trial)
        dec = symmetric_m_decompose(t)
        strong = strongly_symmetrize(dec, t)
        recon = strong.reconstruct()
        rel = np.linalg.norm(recon - t) / np.linalg.norm(t)
        good = (
            strong.term_count == dec.term_count
            and all(is_super_symmetric(a, 1e-8) for a, _ in strong.factors)
            and rel <= 1e-7
        )
        if not good:
            failures.append((trial, n, r, rel))
    ok = not failures
    say(ok, "criterion 5",
        f"strongly symmetric rewrite kept term count, symmetric factors at "
        f"1e-8, reconstruction <= 1e-7 in {20 - len(failures)}/20 instances")
    assert ok, failures


def test_criterion_06_rank_one_round_trip(say):
    rng = np.random.default_rng(2029)
    failures = []
    for trial in range(20):
        n = int(rng.integers(2, 11))
        b = complex_normal(rng, n)
        t = outer(outer(b, b), outer(b, b))
        bhat = rank_one_factorize(t)
        that = outer(outer(bhat, bhat), outer(bhat, bhat))
        rel = np.linalg.norm(that - t) / np.linalg.norm(t)
        if rel > 1e-8:
            failures.append((trial, n, rel))
    ok = not failures
    say(ok, "criterion 6",
        f"rank-one factor round trip <= 1e-8 in {20 - len(failures)}/20 draws")
    assert ok, failures


def test_criterion_07_completion_contrast(say):
    t0 = time.monotonic()
    dims, r, ratio = (10, 10, 10, 10), 6, 0.3
    m_hits = 0
    n_hits = 0
    details = []
    for seed in SEEDS_5:
        truth = gen_cp(dims, r, seed=seed)
        mask = gen_mask(dims, ratio, seed=seed)
        values = mask.observe(truth)
        res_m = complete_m(mask, values, truth=truth)
        res_n = complete_n(mask, values, truth=truth)
        m_ok = (
            res_m.rel_err_vs_truth <= 1e-3
            and res_m.rank_report.m_plus == r
            and res_m.rank_report.m_minus == r
        )
        n_ok = res_n.rel_err_vs_truth >= 0.1
        m_hits += m_ok
        n_hits += n_ok
        details.append((seed, res_m.rel_err_vs_truth, res_n.rel_err_vs_truth))
    elapsed = time.monotonic() - t0
    ok = m_hits >= 4 and n_hits >= 4 and elapsed < 600.0
    say(ok, "criterion 7",
        f"square model <=1e-3 with ranks {r}: {m_hits}/5, mode baseline "
        f">=0.1: {n_hits}/5 (need >=4/5 each), {elapsed:.1f}s (limit 600s)")
    assert ok, details


@pytest.mark.parametrize("r, ratio, seed",
                         [(6, 0.25, s) for s in range(4)] + [(4, 0.2, s) for s in range(3)])
def test_completion_boundary_rows(r, ratio, seed):
    dims = (10, 10, 10, 10)
    truth = gen_cp(dims, r, seed=seed)
    mask = gen_mask(dims, ratio, seed=seed)
    res = complete_m(mask, mask.observe(truth), truth=truth)
    assert res.rel_err_vs_truth <= 1e-3
    assert res.rank_report.m_plus == res.rank_report.m_minus == r


def test_criterion_08_robust_recovery(say):
    t0 = time.monotonic()
    dims, r, density = (10, 10, 10, 10), 4, 0.05
    hits = 0
    details = []
    for seed in SEEDS_5:
        low = gen_cp(dims, r, seed=seed)
        data = low + gen_sparse_noise(dims, density, seed=seed)
        # lam = 1/sqrt(n1*n2) is the solver default for this unfolding
        res = rpca_m(data, truth=low)
        good = (
            res.rel_err_vs_truth <= 1e-4
            and res.rel_err_all <= 1e-5
            and res.rank_report.m_plus == r
            and res.rank_report.m_minus == r
        )
        hits += good
        details.append((seed, res.rel_err_vs_truth, res.rel_err_all))
    elapsed = time.monotonic() - t0
    ok = hits >= 4 and elapsed < 600.0
    say(ok, "criterion 8",
        f"LR err <=1e-4, split err <=1e-5, ranks {r}: {hits}/5 "
        f"(need >=4/5), {elapsed:.1f}s (limit 600s)")
    assert ok, details


def test_criterion_09_supersym_completion(say):
    t0 = time.monotonic()
    n, r, ratio = 10, 8, 0.4
    hits = 0
    details = []
    for seed in range(3):
        truth = gen_supersym(n, 4, r, seed=seed)
        mask = gen_mask(truth.shape, ratio, seed=seed)
        res = complete_supersym(mask, mask.observe(truth), truth=truth)
        good = (
            res.rel_err_vs_truth <= 1e-3
            and res.rank_report.rank_m == r
            and is_super_symmetric(res.recovered, 1e-6)
        )
        hits += good
        details.append((seed, res.rel_err_vs_truth, res.rank_report.rank_m))
    elapsed = time.monotonic() - t0
    ok = hits >= 2
    say(ok, "criterion 9",
        f"err <=1e-3, rank {r}, symmetric at 1e-6: {hits}/3 (need >=2/3), "
        f"{elapsed:.1f}s")
    assert ok, details


def test_criterion_10_property_suites(say):
    problems = []

    # 1000 random tensors: square and mode fold round trips, bitwise
    rng = np.random.default_rng(2030)
    for trial in range(1000):
        order = int(rng.choice([2, 4, 6]))
        hi = 5 if order < 6 else 4
        dims = tuple(int(d) for d in rng.integers(1, hi, size=order))
        t = complex_normal(rng, dims)
        axes = list(range(order))
        rng.shuffle(axes)
        pr = Pairing(tuple(axes[: order // 2]), tuple(axes[order // 2 :]))
        if not np.array_equal(square_fold(square_unfold(t, pr), dims, pr), t):
            problems.append(("square-fold", trial, dims, str(pr)))
        mode = int(rng.integers(0, order))
        if not np.array_equal(mode_fold(mode_unfold(t, mode), dims, mode), t):
            problems.append(("mode-fold", trial, dims, mode))

    # prox identities at the threshold extremes
    rng = np.random.default_rng(2031)
    for trial in range(100):
        m = complex_normal(rng, (int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        if not np.allclose(svt(m, 0.0), m, atol=1e-12):
            problems.append(("svt-zero", trial))
        if not np.allclose(svt(m, spectral_norm(m) + 1e-12), 0.0):
            problems.append(("svt-max", trial))
        if not np.array_equal(complex_soft_threshold(m, 0.0), m):
            problems.append(("soft-zero", trial))
        if not np.allclose(complex_soft_threshold(m, np.abs(m).max() + 1e-12), 0.0):
            problems.append(("soft-max", trial))

    # Takagi reconstruction over 100 random complex symmetric matrices
    rng = np.random.default_rng(2032)
    for trial in range(100):
        n = int(rng.integers(1, 11))
        a = complex_normal(rng, (n, n))
        m = (a + a.T) / 2
        res = takagi(m)
        err = np.linalg.norm((res.w * res.s) @ res.w.T - m)
        if err > 1e-9 * max(1.0, np.linalg.norm(m)):
            problems.append(("takagi", trial, n, err))

    # determinism: every generator and every solver, fixed seeds
    dims = (6, 6, 6, 6)
    gens = [
        lambda: gen_cp(dims, 2, seed=3),
        lambda: gen_kron(dims, 2, 2, seed=3),
        lambda: gen_supersym(6, 4, 2, seed=3),
        lambda: np.asarray(gen_mask(dims, 0.5, seed=3).flat),
        lambda: gen_sparse_noise(dims, 0.1, seed=3),
    ]
    for i, g in enumerate(gens):
        if not np.array_equal(g(), g()):
            problems.append(("generator-determinism", i))
    t = gen_cp(dims, 2, seed=4)
    mask = gen_mask(dims, 0.6, seed=4)
    values = mask.observe(t)
    noisy = t + gen_sparse_noise(dims, 0.05, seed=5)
    sym = gen_supersym(6, 4, 2, seed=6)
    sym_mask = gen_mask(sym.shape, 0.4, seed=6)
    cfg = SolverConfig()
    solves = [
        lambda: complete_m(mask, values, cfg=cfg).recovered,
        lambda: complete_n(mask, values, cfg=cfg).recovered,
        lambda: rpca_m(noisy, cfg=cfg).recovered,
        lambda: rpca_n(noisy, cfg=cfg).recovered,
        lambda: complete_supersym(sym_mask, sym_mask.observe(sym), cfg=cfg).recovered,
    ]
    for i, s in enumerate(solves):
        if not np.array_equal(s(), s()):
            problems.append(("solver-determinism", i))

    ok = not problems
    say(ok, "criterion 10",
        "1000 bitwise fold round trips, prox identities, Takagi <= 1e-9 "
        f"over 100 draws, determinism -- {len(problems)} problems")
    assert ok, problems[:10]
