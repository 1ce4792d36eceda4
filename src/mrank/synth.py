"""Seeded synthetic instances: low-rank tensors, masks, sparse corruption.

Every generator takes a single master seed and draws from a labeled
sub-stream (factors=1, mask=2, noise=3), so an instance, its mask, and its
corruption can be varied independently while staying reproducible. Complex
entries are standard normal in each of the real and imaginary parts.

gen_cp, gen_kron and gen_supersym draw their terms one at a time, each
term's factors in mode order, and densify them through tensor._outer_sum,
which adds the terms' outer products in draw order. gen_mask and
gen_sparse_noise share one positions draw, _positions: round(fraction *
total) distinct flat indices without replacement from their sub-stream,
after which gen_sparse_noise draws its values from the same stream.

Mask, InstanceSpec, gen_cp, gen_kron, gen_mask and gen_sparse_noise take
their dims through one rule, _dims: each an integer (a numpy integer too;
a float, a bool or a string is refused) and none negative, or ValueError.
"""

from dataclasses import asdict, dataclass, fields
from numbers import Integral

import numpy as np

from .tensor import _outer_sum, as_tensor

__all__ = [
    "InstanceSpec",
    "Mask",
    "complex_normal",
    "gen_cp",
    "gen_kron",
    "gen_supersym",
    "gen_mask",
    "gen_sparse_noise",
]

_FACTORS, _MASK, _NOISE = 1, 2, 3


def _integer(v, name: str) -> int:
    """v as an int, or ValueError names it as `name` when it is not an
    integer: a bool, a float or a string is refused, a numpy integer is
    not."""
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    return int(v)


def _dims(dims) -> tuple:
    """dims as a tuple of ints, or ValueError: each dim must be an integer
    (_integer) and none negative. A zero-length axis, and order 0, are
    representable; the solvers refuse them at entry."""
    dims = tuple(_integer(n, "each dim") for n in dims)
    if any(n < 0 for n in dims):
        raise ValueError(f"dims must be >= 0, got {dims}")
    return dims


@dataclass(frozen=True)
class InstanceSpec:
    """Recipe for one synthetic instance."""

    dims: tuple
    r: int
    form: str  # "cp" | "kron" | "supersym"
    seed: int
    k: int = 0  # inner factor rank, kron form only

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims(self.dims))
        for name in ("r", "seed", "k"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.form not in ("cp", "kron", "supersym"):
            raise ValueError(f"unknown form {self.form!r}")
        if any(n < 1 for n in self.dims) or not self.dims:
            raise ValueError(f"bad dims {self.dims}")
        if self.r < 0:
            raise ValueError(f"bad term count r={self.r}")
        if self.form == "kron" and (self.k < 1 or len(self.dims) % 2):
            raise ValueError("kron form needs k >= 1 and even order")
        if self.form == "supersym" and (len(set(self.dims)) > 1 or len(self.dims) % 2):
            raise ValueError("supersym form needs equal dims and even order")

    def to_dict(self) -> dict:
        """The fields in order, dims as a list."""
        return {**asdict(self), "dims": list(self.dims)}

    @classmethod
    def from_dict(cls, d: dict) -> "InstanceSpec":
        """The spec whose to_dict is d: each field d names, the rest at
        their defaults."""
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})

    def generate(self) -> np.ndarray:
        if self.form == "cp":
            return gen_cp(self.dims, self.r, self.seed)
        if self.form == "kron":
            return gen_kron(self.dims, self.r, self.k, self.seed)
        return gen_supersym(self.dims[0], len(self.dims), self.r, self.seed)


def complex_normal(rng, shape) -> np.ndarray:
    """Independent standard normal real and imaginary parts."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gen_cp(dims, r: int, seed: int) -> np.ndarray:
    """Sum of r outer products of independent complex normal vectors, one
    vector per mode per term. CP rank is r generically (for r within the
    maximal possible rank)."""
    dims = _dims(dims)
    rng = np.random.default_rng([seed, _FACTORS])
    return _outer_sum(([complex_normal(rng, n) for n in dims] for _ in range(r)), dims)


def gen_kron(dims, r: int, k: int, seed: int) -> np.ndarray:
    """Sum of r outer products of rank-k matrices, one matrix per adjacent
    dim pair: t = sum_i A_i1 (x) ... (x) A_id with A_ij = G @ H,
    G complex normal n_{2j-1} x k and H complex normal k x n_{2j}.

    Generic ranks at order 4: min pairing rank r, max pairing rank r*k^2,
    mode ranks min(r*k, n_j)."""
    dims = _dims(dims)
    if len(dims) % 2:
        raise ValueError("gen_kron needs even order")
    rng = np.random.default_rng([seed, _FACTORS])
    return _outer_sum(([complex_normal(rng, (dims[j], k)) @ complex_normal(rng, (k, dims[j + 1]))
                        for j in range(0, len(dims), 2)] for _ in range(r)), dims)


def gen_supersym(n: int, order: int, r: int, seed: int) -> np.ndarray:
    """Sum of r outer powers v^{(x) order} of complex normal vectors;
    super-symmetric by construction, unfolding rank r generically."""
    if order % 2 or order < 2:
        raise ValueError("gen_supersym needs even order >= 2")
    rng = np.random.default_rng([seed, _FACTORS])
    return _outer_sum(([complex_normal(rng, n)] * order for _ in range(r)), (n,) * order)


@dataclass(frozen=True)
class Mask:
    """Observed entries of a tensor, stored as sorted Fortran-order flat
    indices (distinct by construction). dims must pass _dims, and flat must
    be a 1-D array of integers (an empty list too), distinct and in range,
    or ValueError is raised."""

    dims: tuple
    flat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims(self.dims))
        flat = np.asarray(self.flat)
        if flat.ndim != 1 or (flat.size and not np.issubdtype(flat.dtype, np.integer)):
            raise ValueError(f"mask indices must be a 1-D integer array, got "
                             f"{flat.dtype} of shape {flat.shape}")
        flat = flat.astype(np.int64, copy=False)
        object.__setattr__(self, "flat", flat)
        total = int(np.prod(self.dims, dtype=np.int64))
        if flat.size and (flat.min() < 0 or flat.max() >= total):
            raise ValueError("mask indices out of range")
        if np.unique(flat).size != flat.size:
            raise ValueError("mask indices must be distinct")

    @property
    def count(self) -> int:
        return int(self.flat.size)

    def multi_indices(self) -> tuple:
        """Per-axis index arrays of the observed entries."""
        return np.unravel_index(self.flat, self.dims, order="F")

    def observe(self, t) -> np.ndarray:
        """Values of t at the observed entries."""
        t = as_tensor(t)
        if t.shape != self.dims:
            raise ValueError(f"tensor dims {t.shape} != mask dims {self.dims}")
        return t.reshape(-1, order="F")[self.flat]

    def check(self, values) -> None:
        """Raise ValueError unless values is a vector of one value per
        observed entry."""
        if np.shape(values) != (self.count,):
            raise ValueError(f"expected {self.count} values, got shape {np.shape(values)}")

    def fill(self, values) -> np.ndarray:
        """Tensor with the observed values in place and zeros elsewhere."""
        self.check(values)
        values = np.asarray(values, dtype=np.complex128)
        out = np.zeros(int(np.prod(self.dims, dtype=np.int64)), dtype=np.complex128)
        out[self.flat] = values
        return out.reshape(self.dims, order="F")


def _check_fraction(value, name: str) -> None:
    """A fraction of a tensor's entries lies in [0, 1], or ValueError names
    it as `name` (the argument, or the CLI's flag)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


def _positions(dims, fraction: float, name: str, seed: int, label: int):
    """The positions draw of gen_mask and gen_sparse_noise: after the
    fraction's range check (ValueError names it as `name`),
    round(fraction * total) distinct Fortran-order flat indices in draw
    order, drawn without replacement from the `label` sub-stream. Returns
    (rng, total, pos); rng goes on from where the draw ended."""
    _check_fraction(fraction, name)
    total = int(np.prod(dims, dtype=np.int64))
    rng = np.random.default_rng([seed, label])
    return rng, total, rng.choice(total, size=int(round(fraction * total)), replace=False)


def gen_mask(dims, ratio: float, seed: int) -> Mask:
    """Uniform mask without replacement observing round(ratio * prod(dims))
    entries."""
    dims = _dims(dims)
    _, _, pos = _positions(dims, ratio, "ratio", seed, _MASK)
    return Mask(dims=dims, flat=np.sort(pos))


def gen_sparse_noise(dims, density: float, seed: int) -> np.ndarray:
    """Tensor with exactly round(density * prod(dims)) complex normal
    entries at uniform positions, zero elsewhere; the values are drawn
    after the positions, from the same stream."""
    dims = _dims(dims)
    rng, total, pos = _positions(dims, density, "density", seed, _NOISE)
    out = np.zeros(total, dtype=np.complex128)
    out[pos] = complex_normal(rng, pos.size)
    return out.reshape(dims, order="F")
