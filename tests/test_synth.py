"""Instance generators, masks, and sparse noise.

Rank facts asserted here hold generically for Gaussian factors and were
checked over many seeds while freezing these tests; each test also pins the
exact sizes/counts, which are deterministic.
"""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrank.cli import main
from mrank.fileio import read_tensor
from mrank.ranks import m_ranks
from mrank.synth import (
    InstanceSpec,
    Mask,
    complex_normal,
    gen_cp,
    gen_kron,
    gen_mask,
    gen_sparse_noise,
    gen_supersym,
)
from mrank.tensor import is_super_symmetric, outer


def test_complex_normal_shape_and_parts():
    rng = np.random.default_rng(0)
    z = complex_normal(rng, (100, 100))
    assert z.dtype == np.complex128
    # both parts drawn: unit variance each, nothing degenerate
    assert 0.9 < z.real.std() < 1.1
    assert 0.9 < z.imag.std() < 1.1


def test_generators_deterministic():
    assert np.array_equal(gen_cp((4, 5, 6, 7), 3, seed=1), gen_cp((4, 5, 6, 7), 3, seed=1))
    assert not np.array_equal(gen_cp((4, 5, 6, 7), 3, seed=1), gen_cp((4, 5, 6, 7), 3, seed=2))
    assert np.array_equal(gen_kron((4, 4, 4, 4), 2, 2, seed=3), gen_kron((4, 4, 4, 4), 2, 2, seed=3))
    assert np.array_equal(gen_supersym(4, 4, 2, seed=4), gen_supersym(4, 4, 2, seed=4))


# Reference copies of the generators' term loops as they were written
# before the rank-one sums moved into tensor._outer_sum: each term is
# drawn, then added onto the running sum, in draw order. A factor-built
# tensor is bitwise equal to a generator's only while this order holds.
def _cp_loop(dims, r, seed):
    rng = np.random.default_rng([seed, 1])
    t = np.zeros(dims, dtype=np.complex128)
    for _ in range(r):
        t += outer(*[complex_normal(rng, n) for n in dims])
    return t


def _kron_loop(dims, r, k, seed):
    rng = np.random.default_rng([seed, 1])
    t = np.zeros(dims, dtype=np.complex128)
    for _ in range(r):
        t += outer(*[complex_normal(rng, (dims[j], k)) @ complex_normal(rng, (k, dims[j + 1]))
                     for j in range(0, len(dims), 2)])
    return t


def _supersym_loop(n, order, r, seed):
    rng = np.random.default_rng([seed, 1])
    t = np.zeros((n,) * order, dtype=np.complex128)
    for _ in range(r):
        t += outer(*[complex_normal(rng, n)] * order)
    return t


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("make, ref", [
    (lambda s: gen_cp((4, 5, 6, 7), 9, s), lambda s: _cp_loop((4, 5, 6, 7), 9, s)),
    (lambda s: gen_cp((2, 3, 2, 4, 3, 2), 7, s), lambda s: _cp_loop((2, 3, 2, 4, 3, 2), 7, s)),
    (lambda s: gen_cp((3, 4, 5, 6), 0, s), lambda s: _cp_loop((3, 4, 5, 6), 0, s)),
    (lambda s: gen_kron((6, 7, 8, 9), 3, 2, s), lambda s: _kron_loop((6, 7, 8, 9), 3, 2, s)),
    (lambda s: gen_kron((3, 4, 3, 4, 2, 3), 2, 2, s),
     lambda s: _kron_loop((3, 4, 3, 4, 2, 3), 2, 2, s)),
    (lambda s: gen_kron((3, 4, 3, 4), 0, 2, s), lambda s: _kron_loop((3, 4, 3, 4), 0, 2, s)),
    (lambda s: gen_supersym(5, 4, 4, s), lambda s: _supersym_loop(5, 4, 4, s)),
    (lambda s: gen_supersym(3, 6, 3, s), lambda s: _supersym_loop(3, 6, 3, s)),
    (lambda s: gen_supersym(3, 6, 0, s), lambda s: _supersym_loop(3, 6, 0, s)),
], ids=["cp4", "cp6", "cp_r0", "kron4", "kron6", "kron_r0", "supersym4", "supersym6",
        "supersym_r0"])
def test_generators_add_their_terms_in_draw_order(make, ref, seed):
    assert _bitwise_equal(make(seed), ref(seed))


def test_gen_cp_rank_facts():
    for seed in range(3):
        t = gen_cp((6, 7, 8, 5), 4, seed=seed)
        rep = m_ranks(t)
        assert rep.m_plus == rep.m_minus == 4
        assert rep.tucker == (4, 4, 4, 4)
    # r above a dimension: modes saturate, pairings keep r
    t = gen_cp((4, 4, 4, 4), 6, seed=0)
    rep = m_ranks(t)
    assert rep.m_plus == rep.m_minus == 6
    assert rep.tucker == (4, 4, 4, 4)


def test_gen_kron_rank_facts():
    for seed in range(3):
        t = gen_kron((8, 8, 8, 8), r=2, k=2, seed=seed)
        rep = m_ranks(t)
        assert rep.m_minus == 2
        assert rep.m_plus == 8
        assert rep.tucker == (4, 4, 4, 4)


def test_gen_kron_single_term_matches_factor_ranks():
    # r = 1: aligned pairing rank 1, crossed pairings k^2, modes k
    t = gen_kron((7, 7, 7, 7), r=1, k=3, seed=5)
    rep = m_ranks(t)
    assert rep.m_minus == 1
    assert rep.m_plus == 9
    assert rep.tucker == (3, 3, 3, 3)


def test_gen_supersym_symmetry_and_rank():
    for seed in range(3):
        t = gen_supersym(6, 4, 3, seed=seed)
        assert t.shape == (6, 6, 6, 6)
        assert is_super_symmetric(t, 1e-12)
        rep = m_ranks(t)
        assert rep.rank_m == 3
    t6 = gen_supersym(3, 6, 2, seed=0)
    assert t6.shape == (3,) * 6
    assert is_super_symmetric(t6, 1e-12)


def test_instance_spec_reads_a_gen_sidecar(tmp_path):
    out = tmp_path / "t.mten"
    assert main(["gen", "--form", "kron", "--dims", "4,6,4,6", "--r", "2", "--k", "2",
                 "--seed", "3", "--output", str(out)]) == 0
    with open(str(out) + ".json") as fh:
        spec = InstanceSpec.from_dict(json.load(fh))
    assert spec == InstanceSpec(dims=(4, 6, 4, 6), r=2, form="kron", seed=3, k=2)
    assert np.array_equal(spec.generate(), read_tensor(str(out)))


def test_instance_spec_round_trip_and_validation():
    for spec in (InstanceSpec(dims=(6, 6, 6, 6), r=2, form="kron", seed=9, k=2),
                 InstanceSpec(dims=(3, 4, 5, 6), r=3, form="cp", seed=4),
                 InstanceSpec(dims=(5, 5, 5, 5), r=2, form="supersym", seed=7)):
        # the dataclass's fields in order, with dims as a list
        assert list(spec.to_dict()) == [f.name for f in fields(InstanceSpec)]
        again = InstanceSpec.from_dict(spec.to_dict())
        assert again == spec
        assert np.array_equal(spec.generate(), again.generate())
    kron = InstanceSpec(dims=(6, 6, 6, 6), r=2, form="kron", seed=9, k=2)
    assert kron.to_dict() == {"dims": [6, 6, 6, 6], "r": 2, "form": "kron", "seed": 9, "k": 2}
    # k, at its default, may be left out
    assert InstanceSpec.from_dict({k: v for k, v in spec.to_dict().items() if k != "k"}) == spec
    with pytest.raises(ValueError):
        InstanceSpec(dims=(4, 4), r=1, form="nope", seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(dims=(4, 4, 4, 4), r=1, form="kron", seed=0)  # k missing
    with pytest.raises(ValueError):
        InstanceSpec(dims=(4, 5, 4, 4), r=1, form="supersym", seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(dims=(4, 4, 4), r=1, form="supersym", seed=0)  # odd order
    with pytest.raises(ValueError):
        InstanceSpec(dims=(), r=1, form="cp", seed=0)
    with pytest.raises(ValueError):
        InstanceSpec(dims=(4, 0), r=1, form="cp", seed=0)
    # r, seed and k are integers: numpy's are taken as ints, others refused
    spec = InstanceSpec(dims=(4, 4), r=np.int64(2), form="cp", seed=np.int32(1))
    assert type(spec.r) is int and type(spec.seed) is int and spec.to_dict()["r"] == 2
    for bad in ({"r": 2.0}, {"r": "2"}, {"seed": 1.5}, {"seed": True}, {"k": None}):
        with pytest.raises(ValueError, match="must be an integer"):
            InstanceSpec(**{"dims": (4, 4), "r": 1, "form": "cp", "seed": 0} | bad)
    # and so is each dim, which int() used to truncate or convert
    spec = InstanceSpec(dims=(np.int64(4), np.int32(3)), r=1, form="cp", seed=0)
    assert spec.dims == (4, 3) and all(type(n) is int for n in spec.dims)
    for bad, first in (((4.7, 4, True, 4), "4.7"), ((4, True), "True"), (("4", 4), "'4'")):
        with pytest.raises(ValueError, match=f"^each dim must be an integer, got {first}$"):
            InstanceSpec(dims=bad, r=1, form="cp", seed=0)
    with pytest.raises(ValueError, match="^each dim must be an integer, got 4.9$"):
        InstanceSpec.from_dict({"dims": [4.9, 4], "r": 1, "form": "cp", "seed": 0})


# -------------------------------------------------------------------- masks


def test_gen_mask_counts_and_order():
    dims = (5, 6, 7)
    mask = gen_mask(dims, 0.3, seed=0)
    assert mask.count == round(0.3 * 210)
    flat = np.asarray(mask.flat)
    assert np.all(np.diff(flat) > 0)  # sorted, distinct
    assert flat.min() >= 0 and flat.max() < 210
    assert gen_mask(dims, 0.0, seed=1).count == 0
    assert gen_mask(dims, 1.0, seed=1).count == 210


def test_gen_mask_deterministic():
    a = gen_mask((4, 4, 4, 4), 0.4, seed=7)
    b = gen_mask((4, 4, 4, 4), 0.4, seed=7)
    assert np.array_equal(a.flat, b.flat)
    c = gen_mask((4, 4, 4, 4), 0.4, seed=8)
    assert not np.array_equal(a.flat, c.flat)


def test_mask_observe_fill_round_trip():
    rng = np.random.default_rng(11)
    dims = (3, 4, 5)
    t = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
    mask = gen_mask(dims, 0.5, seed=2)
    values = mask.observe(t)
    assert values.shape == (mask.count,)
    filled = mask.fill(values)
    # observed entries restored, the rest zero
    assert np.array_equal(mask.observe(filled), values)
    total = np.zeros(np.prod(dims), dtype=np.complex128)
    total[np.asarray(mask.flat)] = values
    assert np.array_equal(filled, total.reshape(dims, order="F"))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
def test_mask_fill_observe_property(dims, data):
    # any subset of positions: fill places values at exactly those Fortran
    # flat positions, observe reads them back bitwise
    dims = tuple(dims)
    total = int(np.prod(dims))
    flat = sorted(data.draw(st.sets(st.integers(0, total - 1), max_size=total)))
    mask = Mask(dims=dims, flat=flat)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = complex_normal(rng, (mask.count,))
    filled = mask.fill(values)
    assert filled.shape == dims
    assert np.array_equal(mask.observe(filled), values)
    off = np.ones(total, dtype=bool)
    off[flat] = False
    assert not filled.reshape(-1, order="F")[off].any()
    t = complex_normal(rng, dims)
    assert np.array_equal(mask.observe(t), t.reshape(-1, order="F")[flat])


def test_mask_first_index_fastest_positions():
    # flat index 1 must be entry (1, 0), not (0, 1)
    mask = Mask(dims=(2, 3), flat=(1,))
    t = np.array([[0.0, 2.0, 4.0], [1.0, 3.0, 5.0]])
    assert mask.observe(t)[0] == 1.0


def test_mask_validation():
    with pytest.raises(ValueError):
        Mask(dims=(2, 2), flat=(0, 0))  # duplicate
    with pytest.raises(ValueError):
        Mask(dims=(2, 2), flat=(4,))  # out of range
    with pytest.raises(ValueError):
        gen_mask((2, 2), 1.5, seed=0)


@pytest.mark.parametrize("flat", [
    [1.5, 7.9],
    np.array([1.0, 2.0]),
    np.array([[0, 1], [2, 3]]),
    [True, False],
    3,
])
def test_mask_rejects_indices_that_are_not_a_1d_integer_array(flat):
    with pytest.raises(ValueError, match="1-D integer array"):
        Mask(dims=(3, 3), flat=flat)


def test_mask_accepts_an_empty_list():
    mask = Mask(dims=(3, 3), flat=[])
    assert mask.count == 0 and mask.flat.dtype == np.int64


# -------------------------------------------------------------- sparse noise


def test_gen_sparse_noise():
    dims = (6, 6, 6, 6)
    z = gen_sparse_noise(dims, 0.05, seed=3)
    assert z.shape == dims
    nnz = int(np.count_nonzero(z))
    assert nnz == round(0.05 * 6**4)
    assert np.array_equal(z, gen_sparse_noise(dims, 0.05, seed=3))
    assert np.count_nonzero(gen_sparse_noise(dims, 0.0, seed=4)) == 0


def _mask_and_noise_by_hand(dims, fraction, seed):
    # the draws gen_mask and gen_sparse_noise must make, written out:
    # positions from the labeled stream (mask 2, noise 3), then the noise
    # values from the same stream
    total = int(np.prod(dims, dtype=np.int64))
    count = int(round(fraction * total))
    flat = np.sort(np.random.default_rng([seed, 2]).choice(total, size=count, replace=False))
    rng = np.random.default_rng([seed, 3])
    pos = rng.choice(total, size=count, replace=False)
    noise = np.zeros(total, dtype=np.complex128)
    noise[pos] = complex_normal(rng, count)
    return flat, noise.reshape(dims, order="F")


@pytest.mark.parametrize("seed", range(4))
def test_mask_and_noise_draws_are_the_positions_draw(seed):
    for dims in [(1,), (7,), (3, 4), (5, 5, 5, 5), (4, 3, 2, 3, 2, 1)]:
        for fraction in (0.0, 0.05, 0.3, 1.0):
            flat, noise = _mask_and_noise_by_hand(dims, fraction, seed)
            assert np.array_equal(gen_mask(dims, fraction, seed).flat, flat)
            got = gen_sparse_noise(dims, fraction, seed)
            assert got.tobytes() == noise.tobytes() and got.shape == noise.shape


def test_noise_and_mask_streams_independent_of_factors():
    # same seed drives factors, mask, and noise through separate streams:
    # the generated tensor must not change when a mask is also drawn
    t1 = gen_cp((4, 4, 4, 4), 2, seed=5)
    _ = gen_mask((4, 4, 4, 4), 0.5, seed=5)
    t2 = gen_cp((4, 4, 4, 4), 2, seed=5)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(
        gen_sparse_noise((4, 4, 4, 4), 0.1, seed=5),
        gen_cp((4, 4, 4, 4), 2, seed=5).reshape(4, 4, 4, 4),
    )
