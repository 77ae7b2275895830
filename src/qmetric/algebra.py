"""Block matrix algebras A = M_{n1} (+) ... (+) M_{nK} and their tensor powers.

Elements are dense complex matrices with an enforced block-support pattern:
order-1 elements are block diagonal in M_D with D = sum(n_k), order-2
elements live in M_{D^2} supported on pairs of blocks, order-3 elements in
M_{D^3} on triples.  The structure maps used by the rest of the package are
defined here: the leg swap (flip), the embedding that inserts an identity
tensor leg in the middle, the multiplication map a (x) b -> ab, and the
projector onto the quantum diagonal.

A supported element of order m is block diagonal once its coordinates are
grouped by block-label tuple: it is the direct sum of its K^m cells, the
cell of (k1, ..., km) having size n_k1 ... n_km.  `cells` gives those index
groups, one group per cell size.  The spectral functions (`op_norm` and
`min_eig` on elements, `cellwise_eigh`, `cellwise_norm` and
`cellwise_min_eig`) work one stacked LAPACK call per group instead of one
call on the dense D^m x D^m matrix.
Cells of size one, and stacks that are exactly zero, need no LAPACK call
at all.  The dense maps stay as the reference the tests compare against.

`cells` and `AlgebraShape.block_labels` are the only code that knows where
a block's coordinates sit; no dense support mask exists.  Element
validation, random draws, the diagonal projector, the search's structure
basis and flat cell vectors, the direct sum and the tensor-product
regrouping are built from them.
Validation gathers an element's cells to count the nonzeros inside the
support, and the element keeps them, read-only, as `cells`: each element
is gathered once in its lifetime.

`require_finite`, the one numeric guard, refuses NaN, infinities and finite
parts beyond ENTRY_BOUND in every element, state, metric space and
configuration as it is made, in code or from a document alike.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

# An element is accepted as self-adjoint when ||x - x*|| <= HERM_TOL * max(1, ||x||).
HERM_TOL = 1e-10


class SupportError(ValueError):
    """Matrix data has nonzero entries outside the admissible block pattern."""


class ShapeMismatchError(ValueError):
    """Operands belong to different algebra shapes or tensor orders."""


class NonFiniteError(ValueError):
    """Numeric input holds a NaN or infinite entry, or a finite one beyond ENTRY_BOUND."""


# The largest magnitude of a real or imaginary part or a distance: 2**24 of headroom below
# the float maximum keeps the checks' three-term sums and cell norms finite.
ENTRY_BOUND = 2.0**1000


def require_finite(arr: np.ndarray, what: str, entry=lambda k: f"entry {k}") -> None:
    """Raise NonFiniteError when arr holds a NaN, an inf or a finite part beyond ENTRY_BOUND.

    A NaN anywhere, or an inf with no finite part beyond the bound, gives the
    non-finite error naming `what`; else the first part beyond the bound is
    named by entry(flat index of its entry).  Within the bound the check
    costs a min and a max over the parts, and no copy of C-ordered data.
    """
    arr = np.asarray(arr)
    pairs = arr.dtype.kind == "c"
    parts = np.ascontiguousarray(arr).view(float) if pairs else arr
    if -ENTRY_BOUND <= parts.min(initial=0.0) and parts.max(initial=0.0) <= ENTRY_BOUND:
        return
    size = np.abs(parts).ravel()
    over = np.flatnonzero((size > ENTRY_BOUND) & (size < np.inf))
    if over.size and not np.isnan(size.max()):
        k = int(over[0])
        raise NonFiniteError(
            f"{entry(k // 2 if pairs else k)} has magnitude {size[k]:.6g}; "
            "finite values above 2**1000 (about 1.07e301) are rejected"
        )
    bad = np.count_nonzero(~np.isfinite(arr))
    raise NonFiniteError(f"{what} must be finite; found {bad} NaN or infinite entries")


@dataclass(frozen=True)
class AlgebraShape:
    """Block dimensions (n1, ..., nK) of the algebra (+)_k M_{n_k}."""

    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        blocks = tuple(int(n) for n in self.blocks)
        if not blocks:
            raise ValueError("an algebra shape needs at least one block")
        if any(n < 1 for n in blocks):
            raise ValueError(f"block dimensions must be >= 1, got {blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        """Dimension D of the defining representation space C^D."""
        return sum(self.blocks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def is_classical(self) -> bool:
        """True when every block is 1x1, i.e. the algebra is commutative."""
        return all(n == 1 for n in self.blocks)

    def block_ranges(self) -> list[tuple[int, int]]:
        """Half-open index ranges [start, stop) of each block inside C^D."""
        out, start = [], 0
        for n in self.blocks:
            out.append((start, start + n))
            start += n
        return out

    def block_labels(self) -> np.ndarray:
        """Block index of every coordinate of C^D."""
        return np.repeat(np.arange(self.num_blocks), self.blocks)


def as_shape(shape: AlgebraShape | Sequence[int]) -> AlgebraShape:
    if isinstance(shape, AlgebraShape):
        return shape
    return AlgebraShape(tuple(shape))


class CellGroup(NamedTuple):
    """The cells of order-m elements that have one size.

    Row c of `labels` is the block-label tuple (k1, ..., km) of one cell and
    row c of `index` lists its coordinates in ascending order, which is
    row-major in the local leg offsets, so a cell of a @ b (x) c is the
    Kronecker product of the corresponding blocks.
    """

    labels: np.ndarray
    index: np.ndarray


@lru_cache(maxsize=None)
def cells(blocks: tuple[int, ...], order: int) -> tuple[CellGroup, ...]:
    """The cells of order-fold tensor elements, one group per cell size.

    Coordinate (r1..rm) lies in the cell of its block-label tuple.  An entry
    is admissible iff its row and column lie in the same cell (block(r_i) ==
    block(c_i) on every leg), so every supported element is the direct sum
    of its cells.  Each coordinate lies in exactly one cell.  Groups come in
    ascending size, and the cells of a group in order of (leg block sizes,
    labels), so each size is one stacked LAPACK call.
    """
    if order not in (1, 2, 3):
        raise ValueError("only tensor orders 1, 2, 3 are supported")
    shape = AlgebraShape(blocks)
    sizes = np.asarray(shape.blocks)
    starts = np.asarray([a for a, _ in shape.block_ranges()])
    labels = np.asarray(list(itertools.product(range(shape.num_blocks), repeat=order)))
    leg_sizes = sizes[labels]
    weights = shape.dim ** np.arange(order - 1, -1, -1)
    by_cell_size: dict[int, list] = {}
    for legs in sorted(set(map(tuple, leg_sizes.tolist()))):
        sel = labels[(leg_sizes == legs).all(axis=1)]
        offsets = np.asarray(list(np.ndindex(*legs)))
        index = (starts[sel][:, None, :] + offsets[None, :, :]) @ weights
        by_cell_size.setdefault(index.shape[1], []).append((sel, index))
    groups = []
    for _, parts in sorted(by_cell_size.items()):
        group = CellGroup(*(np.concatenate(arrs) for arrs in zip(*parts)))
        for arr in group:
            arr.setflags(write=False)
        groups.append(group)
    return tuple(groups)


# A sequence of (index, mats) pairs: mats[c] is the restriction of a matrix
# to the coordinates index[c], so together the pairs describe a direct sum.
CellStacks = Sequence[tuple[np.ndarray, np.ndarray]]


def cell_stacks(arr: np.ndarray, blocks: tuple[int, ...], order: int) -> CellStacks:
    """Cells of a supported order-fold matrix, one stack per cell size.

    Leading axes of arr carry over: a stack of matrices of shape (k, N, N)
    gives cell stacks of shape (k, cells, n, n).
    """
    return [
        (g.index, arr[..., g.index[:, :, None], g.index[:, None, :]])
        for g in cells(blocks, order)
    ]


def assemble(stacks: CellStacks, dim: int) -> np.ndarray:
    """The dense dim x dim matrix of a direct sum, zero outside its cells."""
    out = np.zeros((dim, dim), dtype=complex)
    for index, mats in stacks:
        out[index[:, :, None], index[:, None, :]] = mats
    return out


def adjoints(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of every matrix in a stack."""
    return mats.conj().swapaxes(-1, -2)


def matrix_norms(mats: np.ndarray) -> np.ndarray:
    """Operator norm of every matrix in a stack.

    A stack of 1x1 matrices, or one that is exactly zero, needs no LAPACK
    call: LAPACK's norm of a zero matrix is +0.0 too.  A NaN makes a stack
    nonzero, so it still reaches the SVD.
    """
    if mats.shape[-1] == 1:
        return np.abs(mats[..., 0, 0])
    if not mats.any():
        return np.zeros(mats.shape[:-2])
    # the largest singular value, which np.linalg.norm(mats, 2, axis=(-2, -1)) also takes
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def cellwise_norm(stacks: CellStacks) -> float:
    """Operator norm of a direct sum: the largest cell norm."""
    return max([0.0] + [float(matrix_norms(mats).max()) for _, mats in stacks])


def cellwise_eigh(stacks: CellStacks) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Eigen-decomposition of the hermitian part of every cell.

    Returns (index, vals, vecs) triples, one per cell size, with vals[c]
    ascending and vecs[c][:, j] the unit eigenvector of vals[c][j].
    """
    out = []
    for index, mats in stacks:
        if mats.shape[1] == 1:
            vals, vecs = mats[:, :, 0].real.copy(), np.ones_like(mats)
        else:
            vals, vecs = np.linalg.eigh((mats + adjoints(mats)) / 2.0)
        out.append((index, vals, vecs))
    return out


def lowest_eigenpair(eighs) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a `cellwise_eigh` result, with a unit eigenvector.

    The vector is its cell's, embedded into the full coordinates, which the
    cells partition.
    """
    best, where, vec = np.inf, None, None
    dim = 0
    for index, vals, vecs in eighs:
        dim += index.size
        c = int(np.argmin(vals[:, 0]))
        if where is None or vals[c, 0] < best:
            best, where, vec = float(vals[c, 0]), index[c], vecs[c, :, 0]
    out = np.zeros(dim, dtype=complex)
    out[where] = vec
    return best, out


def hermitian_defect(stacks: CellStacks) -> float:
    """Operator norm of x - x* for the direct sum x."""
    return cellwise_norm([(index, mats - adjoints(mats)) for index, mats in stacks])


def cellwise_min_eig(stacks: CellStacks, tol: float = HERM_TOL) -> tuple[float, np.ndarray]:
    """`min_eig` of a direct sum, computed one cell size at a time."""
    gap = hermitian_defect(stacks)
    if gap > tol * max(1.0, cellwise_norm(stacks)):
        raise ValueError(f"input is not self-adjoint within tolerance (defect {gap:.3e})")
    return lowest_eigenpair(cellwise_eigh(stacks))


def _validate_data(shape: AlgebraShape, order: int, data) -> tuple[np.ndarray, CellStacks]:
    """A read-only copy of data, and its cells, read-only too.

    The cells are gathered once, to count the nonzeros inside the support,
    and kept, so no element gathers its cells twice.
    """
    d = shape.dim**order
    arr = np.array(data, dtype=complex, order="C")
    if arr.shape != (d, d):
        raise ShapeMismatchError(
            f"expected a {d}x{d} matrix for order {order} over blocks "
            f"{shape.blocks}, got {arr.shape}"
        )
    require_finite(arr, "matrix data")
    stacks = tuple(cell_stacks(arr, shape.blocks, order))
    if np.count_nonzero(arr) != sum(np.count_nonzero(mats) for _, mats in stacks):
        worst = np.max(np.abs(arr - assemble(stacks, d)))
        raise SupportError(
            f"entries outside the order-{order} block pattern must be exactly "
            f"zero (largest offender {worst:.3e})"
        )
    for out in (arr, *(mats for _, mats in stacks)):
        out.setflags(write=False)
    return arr, stacks


@dataclass(frozen=True, eq=False)
class _Element:
    shape: AlgebraShape
    data: np.ndarray
    _cells: CellStacks = field(init=False, repr=False)

    order: ClassVar[int] = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", as_shape(self.shape))
        data, stacks = _validate_data(self.shape, self.order, self.data)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_cells", stacks)

    @classmethod
    def zeros(cls, shape: AlgebraShape | Sequence[int]):
        shape = as_shape(shape)
        d = shape.dim**cls.order
        return cls(shape, np.zeros((d, d), dtype=complex))

    def _like(self, data: np.ndarray):
        return type(self)(self.shape, data)

    def _check_same(self, other) -> None:
        if type(other) is not type(self) or other.shape != self.shape:
            raise ShapeMismatchError(
                f"cannot combine {type(self).__name__} over {self.shape.blocks} "
                f"with {type(other).__name__}"
            )

    @property
    def adjoint(self):
        return self._like(self.data.conj().T)

    @property
    def cells(self) -> CellStacks:
        """The cells of this element, see `cell_stacks`: kept, read-only, from its validation."""
        return self._cells

    def is_selfadjoint(self, tol: float = HERM_TOL) -> bool:
        stacks = self.cells
        return hermitian_defect(stacks) <= tol * max(1.0, cellwise_norm(stacks))

    def _result(self, op, operand):
        """The element op(self.data, operand).

        An overflow gives inf or NaN silently, so the new element refuses it
        with a NonFiniteError rather than numpy warning first.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            data = op(self.data, operand)
        return self._like(data)

    def __add__(self, other):
        self._check_same(other)
        return self._result(np.add, other.data)

    def __sub__(self, other):
        self._check_same(other)
        return self._result(np.subtract, other.data)

    def __mul__(self, scalar):
        return self._result(np.multiply, complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.data)

    def __matmul__(self, other):
        self._check_same(other)
        return self._result(np.matmul, other.data)

    def allclose(self, other, tol: float = 1e-12) -> bool:
        self._check_same(other)
        return bool(np.all(np.abs(self.data - other.data) <= tol))

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(blocks={self.shape.blocks}, "
            f"dim={self.shape.dim ** self.order})"
        )


class AlgebraElement(_Element):
    """Element of A, a block diagonal D x D complex matrix."""

    order = 1


class BiElement(_Element):
    """Element of A (x) A, a D^2 x D^2 complex matrix on the pair-block pattern."""

    order = 2


class TriElement(_Element):
    """Element of A (x) A (x) A, a D^3 x D^3 complex matrix on the triple-block pattern."""

    order = 3


_ELEMENT_BY_ORDER = {1: AlgebraElement, 2: BiElement, 3: TriElement}


def element_type(order: int):
    return _ELEMENT_BY_ORDER[order]


def identity(shape: AlgebraShape | Sequence[int]) -> AlgebraElement:
    """The unit 1_A, the D x D identity matrix."""
    shape = as_shape(shape)
    return AlgebraElement(shape, np.eye(shape.dim, dtype=complex))


def permute_legs(mat: np.ndarray, perm: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Reorder the tensor legs of a matrix on C^{d1} (x) ... (x) C^{dm}.

    Output leg j carries input leg perm[j], applied to rows and columns
    simultaneously, so a1 (x) ... (x) am maps to a_{perm[0]} (x) ... (x) a_{perm[m-1]}.
    Leading axes of mat carry over.
    """
    m = len(perm)
    lead = mat.shape[:-2]
    k = len(lead)
    dims = tuple(int(d) for d in dims)
    total = int(np.prod(dims))
    tensor = mat.reshape(lead + dims + dims)
    axes = tuple(range(k)) + tuple(k + p for p in perm) + tuple(k + m + p for p in perm)
    return np.ascontiguousarray(tensor.transpose(axes)).reshape(lead + (total, total))


def tensor2(x: AlgebraElement, y: AlgebraElement) -> BiElement:
    """Kronecker product x (x) y with lexicographic leg ordering."""
    if x.shape != y.shape:
        raise ShapeMismatchError("tensor2 requires both factors over the same shape")
    return BiElement(x.shape, np.kron(x.data, y.data))


def flip(r: BiElement) -> BiElement:
    """The leg swap a (x) b -> b (x) a, extended linearly."""
    d = r.shape.dim
    return BiElement(r.shape, permute_legs(r.data, (1, 0), (d, d)))


def mid_embed(r: BiElement) -> TriElement:
    """The unital *-homomorphism a (x) b -> a (x) 1 (x) b."""
    d = r.shape.dim
    wide = np.kron(r.data, np.eye(d, dtype=complex))
    return TriElement(r.shape, permute_legs(wide, (0, 2, 1), (d, d, d)))


def _multiply(arr: np.ndarray, dim: int) -> np.ndarray:
    """The multiplication map on dim^2 x dim^2 arrays: out[p, t] = sum_q arr[(p, q), (q, t)].

    Leading axes of arr carry over.
    """
    return np.einsum("...pqqt->...pt", arr.reshape(arr.shape[:-2] + (dim,) * 4))


def mult_map(r: BiElement) -> AlgebraElement:
    """The multiplication map a (x) b -> ab, extended linearly."""
    return AlgebraElement(r.shape, _multiply(r.data, r.shape.dim))


def swap_matrix(n: int) -> np.ndarray:
    """The swap unitary on C^n (x) C^n."""
    return np.eye(n * n, dtype=complex)[np.arange(n * n).reshape(n, n).T.ravel()]


@lru_cache(maxsize=None)
def _diag_projector_cached(blocks: tuple[int, ...]) -> BiElement:
    stacks = []
    for g in cells(blocks, 2):
        on_diag = g.index[g.labels[:, 0] == g.labels[:, 1]]
        if len(on_diag):
            n = math.isqrt(g.index.shape[1])  # a diagonal cell (k, k) has size n_k^2
            sym = (np.eye(n * n, dtype=complex) + swap_matrix(n)) / 2.0
            stacks.append((on_diag, np.broadcast_to(sym, (len(on_diag),) + sym.shape)))
    return BiElement(blocks, assemble(stacks, sum(blocks) ** 2))


def diag_projector(shape: AlgebraShape | Sequence[int]) -> BiElement:
    """Projector onto the quantum diagonal of A (x) A.

    Block-wise it is the symmetric-subspace projector (I + S_i)/2 on the
    (i, i) cell, with S_i the swap on C^{n_i} (x) C^{n_i}, and zero on every
    cross cell.  For an all-ones shape this reduces to the 0/1 indicator of
    the classical diagonal.
    """
    return _diag_projector_cached(as_shape(shape).blocks)


def op_norm_array(arr: np.ndarray) -> float:
    if arr.size == 0:
        return 0.0
    return float(np.linalg.norm(arr, 2))


def op_norm(x) -> float:
    """Operator norm (largest singular value); cell by cell on an element."""
    if isinstance(x, _Element):
        return cellwise_norm(x.cells)
    return op_norm_array(np.asarray(x, dtype=complex))


def min_eig(x, tol: float = HERM_TOL) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a self-adjoint element, with a unit eigenvector.

    Raises ValueError when the input fails the self-adjointness tolerance.
    An element is solved cell by cell; a bare array densely.
    """
    if isinstance(x, _Element):
        return cellwise_min_eig(x.cells, tol)
    arr = np.asarray(x, dtype=complex)
    gap = op_norm_array(arr - arr.conj().T)
    if gap > tol * max(1.0, op_norm_array(arr)):
        raise ValueError(f"input is not self-adjoint within tolerance (defect {gap:.3e})")
    sym = (arr + arr.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    return float(vals[0]), vecs[:, 0]


def random_element(
    shape: AlgebraShape | Sequence[int],
    order: int,
    rng: np.random.Generator,
    hermitian: bool = False,
) -> _Element:
    """Random supported element with independent standard complex entries."""
    shape = as_shape(shape)
    d = shape.dim**order
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    raw = assemble(cell_stacks(raw, shape.blocks, order), d)
    if hermitian:
        raw = (raw + raw.conj().T) / 2.0
    return element_type(order)(shape, raw)


def zero_clip(arr: np.ndarray) -> np.ndarray:
    """Copy of arr with real and imaginary parts below 1e-14 in magnitude set to exact zero."""
    out = arr.copy()
    out.real[np.abs(out.real) < 1e-14] = 0.0
    out.imag[np.abs(out.imag) < 1e-14] = 0.0
    return out


def complex_pairs(arr) -> list:
    """The entries of arr in row-major order as [re, im] pairs of floats."""
    flat = np.asarray(arr, dtype=complex).ravel()
    return np.stack([flat.real, flat.imag], axis=1).tolist()
