"""Dense complex tensors and their matricizations.

Tensors are plain complex128 ndarrays. Every flattening that the public
functions and the MTEN file format expose is first-index-fastest (Fortran
order), so ``vec(t) == t.reshape(-1, order="F")`` and the entry at
multi-index (i_1, ..., i_D) sits at flat position
``i_1 + i_2*n_1 + i_3*n_1*n_2 + ...`` (0-based); a Mask's indices count the
same way. Inside a solve the solvers work on C-ordered arrays and C-order
sample indices, as the solvers module describes.

Contents:
    Pairing             -- a balanced split of the 2d axes into a row group
                           and a column group
    canonical_pairings  -- the C(2d,d)/2 splits with axis 0 pinned to rows
    vec / unvec         -- Fortran-order flattening and its inverse
    permute             -- axis permutation (numpy transpose semantics)
    outer               -- tensor (outer) product of any number of factors;
                           _outer_sum adds such products, in order, onto a
                           zero tensor (the CP, Kronecker and symmetric
                           sums of synth and ranks)
    square_unfold/fold  -- balanced matricization for a pairing, and inverse
    mode_unfold/fold    -- single-mode matricization (mode as column index)
    orbit_ids/orbit_sum -- index-permutation orbits of a cubical tensor
    symmetrize          -- orbit mean (average over all axis permutations)
    is_super_symmetric  -- invariance under every axis permutation, read off
                           _symmetry_defect, the largest change of t under
                           an adjacent axis swap (ranks.m_ranks's slack)

A pairing given to square_unfold, square_fold, ranks.m_decompose or a
square solver is checked in one place, _resolve_pairing: None means the
default pairing, and a pairing of another order than the tensor's raises
ValueError.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

__all__ = [
    "Pairing",
    "as_tensor",
    "canonical_pairings",
    "vec",
    "unvec",
    "permute",
    "outer",
    "square_unfold",
    "square_fold",
    "mode_unfold",
    "mode_fold",
    "symmetrize",
    "is_super_symmetric",
]


def as_tensor(t) -> np.ndarray:
    """Coerce input to a complex128 ndarray."""
    return np.asarray(t, dtype=np.complex128)


@dataclass(frozen=True)
class Pairing:
    """A balanced split of 2d tensor axes into row and column groups.

    Axes are 0-based internally; the text form ("1,2|3,4") is 1-based to
    match the usual table notation. A pairing is canonical when both groups
    are ascending and axis 0 is in the row group; `canonicalize` maps any
    valid split there (transposing the unfolding, which preserves rank).
    """

    row: tuple
    col: tuple

    def __post_init__(self):
        row, col = tuple(self.row), tuple(self.col)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        order = len(row) + len(col)
        if len(row) != len(col):
            raise ValueError(f"row/col groups must have equal size, got {row}|{col}")
        if sorted(row + col) != list(range(order)):
            raise ValueError(f"groups must partition 0..{order - 1}, got {row}|{col}")

    @property
    def order(self) -> int:
        return len(self.row) + len(self.col)

    @classmethod
    def default(cls, order: int) -> "Pairing":
        """First half of the axes as rows, second half as columns."""
        if order % 2:
            raise ValueError(f"order must be even, got {order}")
        d = order // 2
        return cls(tuple(range(d)), tuple(range(d, order)))

    @classmethod
    def parse(cls, text: str, order: int | None = None) -> "Pairing":
        """Parse the 1-based text form, e.g. "1,3|2,4", the form str gives."""
        try:
            row, col = (tuple(int(x) - 1 for x in group.split(",")) for group in text.split("|"))
        except Exception as exc:
            raise ValueError(f"cannot parse pairing {text!r}") from exc
        pr = cls(row, col)
        if order is not None and pr.order != order:
            raise ValueError(f"pairing {text!r} has order {pr.order}, expected {order}")
        return pr

    def __str__(self) -> str:
        return ",".join(str(a + 1) for a in self.row) + "|" + ",".join(
            str(a + 1) for a in self.col
        )

    def canonicalize(self) -> "Pairing":
        row, col = tuple(sorted(self.row)), tuple(sorted(self.col))
        if 0 in col:
            row, col = col, row
        return Pairing(row, col)

    def matrix_shape(self, dims) -> tuple:
        dims = tuple(dims)
        return (
            int(np.prod([dims[a] for a in self.row], dtype=np.int64)),
            int(np.prod([dims[a] for a in self.col], dtype=np.int64)),
        )


def canonical_pairings(order: int) -> list:
    """All canonical balanced pairings of `order` axes.

    Swapping the two groups transposes the unfolding and reordering within a
    group permutes rows or columns, so only splits with axis 0 in the row
    group are distinct for rank purposes: C(2d, d)/2 of them.
    """
    if order % 2 or order < 2:
        raise ValueError(f"order must be even and >= 2, got {order}")
    d = order // 2
    out = []
    for rest in combinations(range(1, order), d - 1):
        row = (0,) + rest
        col = tuple(a for a in range(order) if a not in row)
        out.append(Pairing(row, col))
    return out


def vec(t) -> np.ndarray:
    """Flatten first-index-fastest."""
    return as_tensor(t).reshape(-1, order="F")


def unvec(v, dims) -> np.ndarray:
    v = as_tensor(v)
    dims = tuple(int(n) for n in dims)
    if v.size != int(np.prod(dims, dtype=np.int64)):
        raise ValueError(f"cannot reshape {v.size} entries to dims {dims}")
    return v.reshape(dims, order="F")


def permute(t, axes) -> np.ndarray:
    """Permute axes: result[i_1..i_D] = t[i_{axes[1]}..i_{axes[D]}] (0-based)."""
    t = as_tensor(t)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(t.ndim)):
        raise ValueError(f"axes {axes} is not a permutation of 0..{t.ndim - 1}")
    return np.transpose(t, axes)


def outer(*factors) -> np.ndarray:
    """Tensor product of the factors, taken left to right: dims concatenate,
    entries multiply, and outer(a, b, c) is outer(outer(a, b), c)."""
    return reduce(np.multiply.outer, map(as_tensor, factors))


def _outer_sum(terms, dims) -> np.ndarray:
    """The sum of outer(*factors) over terms, an iterable of factor lists,
    each added in turn onto a zero complex128 tensor of dims."""
    t = np.zeros(tuple(dims), dtype=np.complex128)
    for factors in terms:
        t += outer(*factors)
    return t


def _resolve_pairing(pairing: Pairing | None, order: int) -> Pairing:
    """The pairing to use on a tensor of the given order: the default one
    for None, else pairing itself, which must be of that order or
    ValueError is raised."""
    pr = Pairing.default(order) if pairing is None else pairing
    if pr.order != order:
        raise ValueError(f"pairing order {pr.order} != tensor order {order}")
    return pr


def square_unfold(t, pairing: Pairing | None = None) -> np.ndarray:
    """Balanced matricization of an even-order tensor.

    Row index merges the pairing's row-group indices first-index-fastest,
    column index likewise for the column group. With the default pairing
    (first half | second half) the matrix reuses the tensor's own Fortran
    layout, so unfold followed by fold is a bitwise round trip.
    """
    t = as_tensor(t)
    pr = _resolve_pairing(pairing, t.ndim)
    nrow, ncol = pr.matrix_shape(t.shape)
    return np.transpose(t, pr.row + pr.col).reshape(nrow, ncol, order="F")


def square_fold(m, dims, pairing: Pairing | None = None) -> np.ndarray:
    """Inverse of `square_unfold` for the given dims and pairing."""
    m = as_tensor(m)
    dims = tuple(int(n) for n in dims)
    pr = _resolve_pairing(pairing, len(dims))
    if m.shape != pr.matrix_shape(dims):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} under {pr}")
    perm_dims = tuple(dims[a] for a in pr.row + pr.col)
    t = m.reshape(perm_dims, order="F")
    return np.transpose(t, np.argsort(pr.row + pr.col))


def mode_unfold(t, mode: int) -> np.ndarray:
    """Single-mode matricization with the mode index as the column index.

    Rows merge the remaining indices in their original relative order,
    first-index-fastest. For an order-2 tensor, mode 0 gives the transpose
    and mode 1 the matrix itself.
    """
    t = as_tensor(t)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode {mode} out of range for order {t.ndim}")
    return np.moveaxis(t, mode, -1).reshape(-1, t.shape[mode], order="F")


def mode_fold(m, dims, mode: int) -> np.ndarray:
    """Inverse of `mode_unfold` for the given dims."""
    m = as_tensor(m)
    dims = tuple(int(n) for n in dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode {mode} out of range for dims {dims}")
    rest = tuple(n for i, n in enumerate(dims) if i != mode)
    if m.shape != (int(np.prod(rest, dtype=np.int64)) if rest else 1, dims[mode]):
        raise ValueError(f"matrix shape {m.shape} does not match dims {dims} at mode {mode}")
    return np.moveaxis(m.reshape(rest + (dims[mode],), order="F"), -1, mode)


def orbit_ids(dims) -> np.ndarray:
    """Orbit id of every flat index of a cubical tensor.

    Entries whose multi-indices are permutations of each other form one
    orbit of the axis permutations; ids run over 0..n_orbits-1. A tensor is
    super-symmetric exactly when it is constant on every orbit. Fortran and
    C flat order give the same array, since reversing a multi-index is one
    of its permutations."""
    dims = tuple(int(n) for n in dims)
    if len(set(dims)) > 1:
        raise ValueError(f"orbits need equal dims, got {dims}")
    # the sorted multi-index, read as base-n digits, names the orbit; ids
    # number the names in ascending order. Narrow index types and a table
    # of used names (in place of np.unique) keep peak memory near one
    # int64 array of the tensor's size.
    key = np.sort(np.indices(dims, dtype=np.min_scalar_type(max(dims, default=0))), axis=0)
    canon = np.zeros(dims, dtype=np.int64)
    for k, digits in enumerate(key):
        canon += digits * np.int64(dims[0]) ** k
    used = np.zeros(canon.size, dtype=bool)
    used[canon] = True
    return (np.cumsum(used) - 1)[canon.reshape(-1)]


def orbit_sum(v, ids, n_orbits: int) -> np.ndarray:
    """Per-orbit sums of the complex values v, where v[k] lies in orbit ids[k]."""
    return np.bincount(ids, weights=v.real, minlength=n_orbits) + 1j * np.bincount(
        ids, weights=v.imag, minlength=n_orbits
    )


def symmetrize(t) -> np.ndarray:
    """Orthogonal projection onto the super-symmetric subspace: every entry
    becomes the mean of its orbit, which equals the average of t over all
    axis permutations. Requires equal dims."""
    t = as_tensor(t)
    ids = orbit_ids(t.shape)
    counts = np.bincount(ids)
    mean = orbit_sum(t.reshape(-1), ids, counts.size) / counts
    return mean[ids].reshape(t.shape)


def _require_finite(a, name: str) -> None:
    """Reject NaN/Inf data before it reaches LAPACK, which would fail with
    an unrelated "did not converge", spin for good, or return a NaN result:
    ValueError naming the count of non-finite entries."""
    bad = a.size - int(np.count_nonzero(np.isfinite(a)))
    if bad:
        raise ValueError(f"{name}: {bad} non-finite entries (NaN or Inf)")


def _unit_exponent(a, name: str) -> int:
    """The binary exponent e of a's largest modulus (0 for zero data), kept
    within [-1023, 1023], where 2^e and 2^-e are both finite: a * 2^-e has
    its largest modulus in [0.5, 1), so its squares and norms neither
    overflow nor underflow, and multiplying by a power of two is exact
    outside the subnormal range.

    This is the data gate of the package: the one pass that reads the
    largest modulus also checks a. That modulus is not finite exactly when
    a holds a NaN or an Inf, or a finite complex entry whose modulus
    overflows, and only then are the entries counted (_require_finite),
    raising ValueError for NaN or Inf and giving e = 1023 otherwise."""
    with np.errstate(over="ignore"):  # a modulus above the largest double
        top = float(np.abs(a).max(initial=0.0))
    return _top_exponent(top, a, name)


def _top_exponent(top, a, name: str) -> int:
    """_unit_exponent of a given its largest modulus top, read by the
    caller."""
    if not np.isfinite(top):
        _require_finite(a, name)
        return 1023
    return min(max(int(np.frexp(top)[1]), -1023), 1023)


def _unit_scale(a, name: str):
    """(a * 2^-e, e) for the complex128 array a, a copy, with
    e = _unit_exponent(a, name), so the scaled data's largest modulus lies
    in [0.5, 1) and NaN or Inf raises ValueError. Multiplying by a power of
    two is exact outside the subnormal range, so a solve on the scaled data
    takes the same steps at any data magnitude, and none of its squares or
    norms can overflow or underflow."""
    a = as_tensor(a)
    e = _unit_exponent(a, name)
    return a * 2.0 ** -e, e


# Entries of t that _symmetry_defect reads per block (1 MiB of complex128),
# or one leading-axis row where a row is larger.
DEFECT_BLOCK = 1 << 16


def _symmetry_defect(t, name: str) -> tuple:
    """(defect, norm, e) for a cubical complex128 t: with s = t * 2^-e and
    e = _unit_exponent(t, name), defect is the largest ||s - swap_j(s)||_F
    over the adjacent axis swaps j (swap_j exchanges axes j and j + 1) and
    norm is ||s||_F; defect * 2^e is the defect in t's units. Two passes
    over t, each one block of leading-axis rows at a time (DEFECT_BLOCK
    entries), so no temporary is as large as t, and the squares of s
    neither overflow nor underflow at any scale. NaN or Inf entries raise
    ValueError naming their count (the data gate of _unit_exponent)."""
    t = t.reshape(1) if t.ndim == 0 else t
    step = max(1, DEFECT_BLOCK // max(1, t[:1].size))
    blocks = [slice(i, i + step) for i in range(0, t.shape[0], step)]
    with np.errstate(over="ignore"):  # a modulus above the largest double
        top = float(np.max([np.abs(t[b]).max(initial=0.0) for b in blocks], initial=0.0))
    e = _top_exponent(top, t, name)
    scale = 2.0 ** -e
    swaps = [np.swapaxes(t, j, j + 1) for j in range(t.ndim - 1)]
    sq = [0.0] * len(swaps)
    norm2 = 0.0
    s_buf = np.empty(t[:step].shape, dtype=np.complex128)
    d_buf = np.empty_like(s_buf)
    for b in blocks:
        s = np.multiply(t[b], scale, out=s_buf[:len(t[b])])
        norm2 += np.vdot(s, s).real
        for j, w in enumerate(swaps):
            d = np.multiply(w[b], scale, out=d_buf[:len(s)])
            d -= s
            sq[j] += np.vdot(d, d).real
    return float(np.sqrt(max(sq, default=0.0))), float(np.sqrt(norm2)), e


def is_super_symmetric(t, tol: float = 1e-8) -> bool:
    """True iff every adjacent-transposition image of t differs by at most
    tol * ||t||_F, a test relative to t at any scale (the zero tensor is
    symmetric): the largest such difference and the norm are taken of t
    times 2^-e, one block at a time (_symmetry_defect), where they neither
    overflow nor underflow. Adjacent transpositions generate the full
    permutation group, so this checks invariance under all of it. A
    cubical t with NaN or Inf entries raises ValueError."""
    t = as_tensor(t)
    if len(set(t.shape)) > 1:
        return False
    defect, norm, _ = _symmetry_defect(t, "is_super_symmetric")
    return defect <= tol * max(norm, np.finfo(float).tiny)
