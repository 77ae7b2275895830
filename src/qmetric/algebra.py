"""Block matrix algebras A = M_{n1} (+) ... (+) M_{nK} and their tensor powers.

An order-1 element is a block diagonal matrix in M_D with D = sum(n_k), an
order-2 element lives in M_{D^2} supported on pairs of blocks, an order-3
element in M_{D^3} on triples.  The structure maps used by the rest of the
package are defined here: the leg swap (flip), the embedding that inserts
an identity tensor leg in the middle, the multiplication map a (x) b -> ab,
and the projector onto the quantum diagonal.

A supported element of order m is block diagonal once its coordinates are
grouped by block-label tuple: it is the direct sum of its K^m cells, the
cell of (k1, ..., km) having size n_k1 ... n_km.  `cells` gives those index
groups, one group per cell size.  An element is stored as its flat cell
vector, the cells one after another in `cells` order, each row-major; its
`cells` are read-only views of that vector, and its dense `data` is built
from them only when something asks for it.  Arithmetic, the adjoint, the
flip and the multiplication map work on the cells: flip cell (k, l) is a
reordering of cell (l, k), and block k of m(r) comes from the (k, k) cell
of r alone.  The spectral functions (`op_norm` and `min_eig` on elements,
`cellwise_eigh`, `cellwise_norm` and `cellwise_min_eig`) work one stacked
LAPACK call per group instead of one call on the dense D^m x D^m matrix.
Cells of size one, and stacks that are exactly zero, need no LAPACK call
at all.  The dense maps (`mid_embed`, `tensor2`, `_multiply`,
`permute_legs`) stay as the reference the tests compare against.

`cells` and `AlgebraShape.block_labels` are the only code that knows where
a block's coordinates sit; no dense support mask exists.  `_places` derives
from `cells` where each entry sits in the flat cell vector, in tables of at
most D^m entries.  Element validation, random draws, the diagonal
projector, the search's structure basis, the direct sum and the
tensor-product regrouping are built from them.  An element built from a
dense matrix gathers its cells once, to count the nonzeros inside the
support, and keeps the validated copy as its `data`; a document reader
puts its entries straight into the flat cell vector.

`require_finite`, the one numeric guard, refuses NaN, infinities and finite
parts beyond ENTRY_BOUND in every element, state, metric space and
configuration as it is made, in code or from a document alike.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to share between threads; two threads
that ask for an element's `data` at once build equal arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    # parts.min(initial=0.0) and parts.max(initial=0.0), as the ufunc reductions they call
    low, high = np.minimum.reduce(parts, None, initial=0.0), np.maximum.reduce(parts, None, initial=0.0)
    if -ENTRY_BOUND <= low and high <= ENTRY_BOUND:
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
    """shape as an AlgebraShape, one instance per blocks tuple and the types of its items.

    Blocks that do not hash are made into a new shape each time, so they
    are refused as AlgebraShape refuses them.
    """
    if isinstance(shape, AlgebraShape):
        return shape
    blocks = tuple(shape)
    try:
        return _shape(blocks, tuple(map(type, blocks)))
    except TypeError:
        return AlgebraShape(blocks)


@lru_cache(maxsize=None)
def _shape(blocks: tuple, types: tuple) -> AlgebraShape:
    # keyed on the types too: 2 + 0j equals 2 but is no block dimension
    return AlgebraShape(blocks)


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


class _Places(NamedTuple):
    """Where the entries of order-fold elements sit in their flat cell vector.

    The flat cell vector holds the cells one after another, in `cells`
    order, each row-major.  Coordinate u of C^N, N = D^order, lies in cell
    cell[u], at position row[u] of that cell's index row, and row u of its
    cell starts at entry base[u]; so entry (u, v) of a cell sits at
    base[u] + row[v].  `views` gives each group's (index, first entry, last
    entry + 1, stack shape).  Every table has N entries or fewer.
    """

    cell: np.ndarray
    row: np.ndarray
    base: np.ndarray
    views: tuple[tuple[np.ndarray, int, int, tuple[int, int, int]], ...]
    total: int


@lru_cache(maxsize=None)
def _places(blocks: tuple[int, ...], order: int) -> _Places:
    coords = sum(blocks) ** order
    cell, row, base = (np.empty(coords, dtype=np.intp) for _ in range(3))
    views, at, k = [], 0, 0
    for g in cells(blocks, order):
        c, n = g.index.shape
        cell[g.index] = (k + np.arange(c))[:, None]
        row[g.index] = np.arange(n)
        base[g.index] = at + n * np.arange(c * n).reshape(c, n)
        views.append((g.index, at, at + c * n * n, (c, n, n)))
        at, k = at + c * n * n, k + c
    for arr in (cell, row, base):
        arr.setflags(write=False)
    return _Places(cell, row, base, tuple(views), at)


def storage_size(blocks: tuple[int, ...], order: int) -> int:
    """The number of entries in the flat cell vector of order-fold elements."""
    return _places(blocks, order).total


def storage_position(blocks: tuple[int, ...], order: int, rows, cols) -> np.ndarray:
    """The flat cell vector position of each dense entry (rows, cols); each must lie in a cell."""
    places = _places(blocks, order)
    return places.base[rows] + places.row[cols]


def storage_coordinates(blocks: tuple[int, ...], order: int) -> tuple[np.ndarray, np.ndarray]:
    """The dense row and column of each entry of the flat cell vector."""
    views = _places(blocks, order).views
    rows = [np.repeat(index, shape[1], axis=1).ravel() for index, _, _, shape in views]
    cols = [np.tile(index, (1, shape[1])).ravel() for index, _, _, shape in views]
    return np.concatenate(rows), np.concatenate(cols)


def cell_views(flat: np.ndarray, blocks: tuple[int, ...], order: int) -> CellStacks:
    """The cells of a flat cell vector as views of it, one (index, mats) pair per cell size.

    Leading axes of flat carry over: a stack of shape (k, size) gives views
    of shape (k, cells, n, n).
    """
    lead = flat.shape[:-1]
    return tuple((index, flat[..., a:b].reshape(lead + shape)) for index, a, b, shape in _places(blocks, order).views)


def flatten_cells(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The flat cell vector of one cell stack per cell size; leading axes carry over."""
    return np.concatenate([m.reshape(m.shape[:-3] + (math.prod(m.shape[-3:]),)) for m in mats], axis=-1, dtype=complex)


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
    """The dense dim x dim matrix of a direct sum, zero outside its cells.

    Leading axes of the stacks carry over.
    """
    lead = stacks[0][1].shape[:-3] if stacks else ()
    out = np.zeros(lead + (dim, dim), dtype=complex)
    for index, mats in stacks:
        out[..., index[:, :, None], index[:, None, :]] = mats
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


def cellwise_eigh(stacks: CellStacks) -> list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
    """Eigen-decomposition of the hermitian part of every cell.

    Returns (index, vals, vecs) triples, one per cell size, with vals[c]
    ascending and vecs[c][:, j] the unit eigenvector of vals[c][j].  A cell
    of size one has the eigenvalue Re z of its entry z and the eigenvector
    1, so a stack of them needs no LAPACK call and gets no eigenvector
    stack: its vecs is None.
    """
    out = []
    for index, mats in stacks:
        if mats.shape[1] == 1:
            out.append((index, mats[:, :, 0].real.copy(), None))
        else:
            out.append((index, *np.linalg.eigh((mats + adjoints(mats)) / 2.0)))
    return out


def lowest_eigenvalue(eighs) -> tuple[float, tuple[int, int]]:
    """Smallest eigenvalue of a `cellwise_eigh` result, read from the values alone, and where it lies.

    Where is (the cell size's place in eighs, the cell's place in its
    stack), which `lowest_eigenvector` reads; a check asks for the vector
    only when it fails.
    """
    best, at = np.inf, None
    for k, (_, vals, _) in enumerate(eighs):
        c = int(vals[:, 0].argmin())
        if at is None or vals[c, 0] < best:
            best, at = float(vals[c, 0]), (k, c)
    return best, at


def lowest_eigenvector(eighs, at: tuple[int, int]) -> np.ndarray:
    """The unit eigenvector of the lowest eigenvalue of the cell at, embedded into the full coordinates.

    The cells partition the coordinates, and the vector is zero outside its cell.
    """
    k, c = at
    index, _, vecs = eighs[k]
    out = np.zeros(sum(index.size for index, _, _ in eighs), dtype=complex)
    out[index[c]] = 1.0 if vecs is None else vecs[c, :, 0]
    return out


def lowest_eigenpair(eighs) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of a `cellwise_eigh` result, with a unit eigenvector: the values first, then the vector."""
    value, at = lowest_eigenvalue(eighs)
    return value, lowest_eigenvector(eighs, at)


def hermitian_defect(stacks: CellStacks) -> float:
    """Operator norm of x - x* for the direct sum x."""
    return cellwise_norm([(index, mats - adjoints(mats)) for index, mats in stacks])


def cellwise_min_eig(stacks: CellStacks, tol: float = HERM_TOL) -> tuple[float, np.ndarray]:
    """`min_eig` of a direct sum, computed one cell size at a time."""
    gap = hermitian_defect(stacks)
    if gap > tol * max(1.0, cellwise_norm(stacks)):
        raise ValueError(f"input is not self-adjoint within tolerance (defect {gap:.3e})")
    return lowest_eigenpair(cellwise_eigh(stacks))


def _require_finite_cells(flat: np.ndarray, blocks: tuple[int, ...], order: int) -> None:
    """`require_finite` on a flat cell vector, an entry named by its dense index as on the dense matrix."""
    try:
        require_finite(flat, "matrix data")
    except NonFiniteError:
        rows, cols = storage_coordinates(blocks, order)
        at = rows * sum(blocks) ** order + cols
        ranked = np.argsort(at)
        require_finite(flat[ranked], "matrix data", lambda k: f"entry {at[ranked[k]]}")
        raise


def _support_error(order: int, outside: np.ndarray) -> SupportError:
    """The error for nonzero entries outside the cells, naming the largest of their magnitudes."""
    return SupportError(
        f"entries outside the order-{order} block pattern must be exactly "
        f"zero (largest offender {np.max(outside):.3e})"
    )


def _validate_data(shape: AlgebraShape, order: int, data) -> tuple[np.ndarray, np.ndarray]:
    """A read-only copy of data, and its flat cell vector, read-only too.

    The cells are gathered once, to count the nonzeros inside the support.
    """
    d = shape.dim**order
    arr = np.array(data, dtype=complex, order="C")
    if arr.shape != (d, d):
        raise ShapeMismatchError(
            f"expected a {d}x{d} matrix for order {order} over blocks "
            f"{shape.blocks}, got {arr.shape}"
        )
    require_finite(arr, "matrix data")
    flat = flatten_cells([mats for _, mats in cell_stacks(arr, shape.blocks, order)])
    if np.count_nonzero(arr) != np.count_nonzero(flat):
        raise _support_error(order, np.abs(arr - assemble(cell_views(flat, shape.blocks, order), d)))
    arr.setflags(write=False)
    return arr, flat


class _Element:
    """An element of the order-fold tensor power of A, stored as its flat cell vector.

    The flat cell vector (see `_places`) is the only storage; `cells` are
    read-only views of it, and `data`, the dense matrix, is built from them
    the first time something asks for it.  An element built from a dense
    matrix keeps the validated copy of it as `data`, signed zeros included.
    Elements are immutable.
    """

    __slots__ = ("shape", "_flat", "_cells", "_data")
    order: ClassVar[int] = 0

    def __init__(self, shape: AlgebraShape | Sequence[int], data) -> None:
        shape = as_shape(shape)
        arr, flat = _validate_data(shape, self.order, data)
        self._set(shape, flat, arr)

    def _set(self, shape: AlgebraShape, flat: np.ndarray, data: np.ndarray | None) -> None:
        flat.setflags(write=False)
        for name, value in (("shape", shape), ("_flat", flat), ("_cells", None), ("_data", data)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    @classmethod
    def _from_flat(cls, shape: AlgebraShape | Sequence[int], flat: np.ndarray):
        """The element whose flat cell vector is flat, which it takes over: no one else may write it."""
        shape = as_shape(shape)
        _require_finite_cells(flat, shape.blocks, cls.order)
        out = cls.__new__(cls)
        out._set(shape, flat, None)
        return out

    @classmethod
    def _from_cells(cls, shape: AlgebraShape | Sequence[int], mats: Sequence[np.ndarray]):
        """The element with the given cells, one stack per cell size in `cells` order."""
        return cls._from_flat(shape, flatten_cells(mats))

    @classmethod
    def _from_entries(cls, shape: AlgebraShape, at: np.ndarray, values: np.ndarray):
        """The element whose dense matrix holds values at the ascending row-major indices at, zero elsewhere.

        Refuses what the dense constructor refuses, with its messages: a
        value that `require_finite` refuses, named by its dense index, then
        a nonzero value outside the cells.
        """
        blocks, n = shape.blocks, shape.dim**cls.order
        require_finite(values, "matrix data", lambda k: f"entry {at[k]}")
        places = _places(blocks, cls.order)
        rows, cols = np.divmod(at, n)
        inside = places.cell[rows] == places.cell[cols]
        if not inside.all():
            if values[~inside].any():
                raise _support_error(cls.order, np.abs(values[~inside]))
            rows, cols, values = rows[inside], cols[inside], values[inside]
        flat = np.zeros(places.total, dtype=complex)
        flat[places.base[rows] + places.row[cols]] = values
        out = cls.__new__(cls)
        out._set(shape, flat, None)
        return out

    @classmethod
    def zeros(cls, shape: AlgebraShape | Sequence[int]):
        shape = as_shape(shape)
        return cls._from_flat(shape, np.zeros(storage_size(shape.blocks, cls.order), dtype=complex))

    @property
    def data(self) -> np.ndarray:
        """The dense D^m x D^m matrix, read-only, built from the cells on first use."""
        if self._data is None:
            data = assemble(self.cells, self.shape.dim**self.order)
            data.setflags(write=False)
            object.__setattr__(self, "_data", data)
        return self._data

    @property
    def cells(self) -> CellStacks:
        """The cells of this element, see `cell_stacks`: read-only views of its flat cell vector."""
        if self._cells is None:
            object.__setattr__(self, "_cells", cell_views(self._flat, self.shape.blocks, self.order))
        return self._cells

    def _check_same(self, other) -> None:
        if type(other) is not type(self) or other.shape != self.shape:
            raise ShapeMismatchError(
                f"cannot combine {type(self).__name__} over {self.shape.blocks} "
                f"with {type(other).__name__}"
            )

    @property
    def adjoint(self):
        return self._from_cells(self.shape, [adjoints(mats) for _, mats in self.cells])

    def is_selfadjoint(self, tol: float = HERM_TOL) -> bool:
        stacks = self.cells
        return hermitian_defect(stacks) <= tol * max(1.0, cellwise_norm(stacks))

    def _result(self, op, *operands):
        """The element with the flat cell vector op(*operands).

        An overflow gives inf or NaN silently, so the new element refuses it
        with a NonFiniteError rather than numpy warning first.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            flat = op(*operands)
        return self._from_flat(self.shape, flat)

    def __add__(self, other):
        self._check_same(other)
        return self._result(np.add, self._flat, other._flat)

    def __sub__(self, other):
        self._check_same(other)
        return self._result(np.subtract, self._flat, other._flat)

    def __mul__(self, scalar):
        return self._result(np.multiply, self._flat, complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._from_flat(self.shape, -self._flat)

    def __matmul__(self, other):
        """The product, cell by cell: the cells of a direct sum multiply apart."""
        self._check_same(other)
        pairs = zip(self.cells, other.cells)
        return self._result(lambda: flatten_cells([a @ b for (_, a), (_, b) in pairs]))

    def allclose(self, other, tol: float = 1e-12) -> bool:
        self._check_same(other)
        return bool(np.all(np.abs(self._flat - other._flat) <= tol))

    def __reduce__(self):
        return type(self)._from_flat, (self.shape, self._flat.copy())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(blocks={self.shape.blocks}, "
            f"dim={self.shape.dim ** self.order})"
        )


class AlgebraElement(_Element):
    """Element of A, a block diagonal D x D complex matrix."""

    __slots__ = ()
    order = 1


class BiElement(_Element):
    """Element of A (x) A, a D^2 x D^2 complex matrix on the pair-block pattern."""

    __slots__ = ()
    order = 2


class TriElement(_Element):
    """Element of A (x) A (x) A, a D^3 x D^3 complex matrix on the triple-block pattern."""

    __slots__ = ()
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


@lru_cache(maxsize=None)
def _flip_gathers(blocks: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Where the flip of an order-2 element reads its cells, per cell size the index arrays of one gather.

    Coordinate i D + j of C^D (x) C^D swaps to j D + i, so cell (k, l) of
    flip(r) is cell (l, k) of r, of the same size, with its coordinates
    reordered: cell c of flip(r) is mats[partner[c]][perm[c]][:, perm[c]],
    with mats the stack of r's cells of that size.  Returns partner, and
    perm as rows and as columns, broadcast against each other.
    """
    d, places = sum(blocks), _places(blocks, 2)
    out, first = [], 0
    for g in cells(blocks, 2):
        swapped = g.index % d * d + g.index // d
        perm = places.row[swapped]
        out.append(((places.cell[swapped[:, 0]] - first)[:, None, None], perm[:, :, None], perm[:, None, :]))
        first += len(g.index)
    return tuple(out)


def flip_cells(stacks: CellStacks, blocks: tuple[int, ...]) -> list[np.ndarray]:
    """The cells of the flip of an order-2 direct sum, one stack per cell size, gathered from its cells.

    Leading axes of the stacks carry over.
    """
    return [mats[..., partner, rows, cols] for (_, mats), (partner, rows, cols) in zip(stacks, _flip_gathers(blocks))]


def flip(r: BiElement) -> BiElement:
    """The leg swap a (x) b -> b (x) a, extended linearly."""
    return BiElement._from_cells(r.shape, flip_cells(r.cells, r.shape.blocks))


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


@lru_cache(maxsize=None)
def _mult_gathers(blocks: tuple[int, ...]) -> tuple[tuple[int, np.ndarray, int], ...]:
    """Per block size n, in `cells(blocks, 1)` order: the order-2 group of size n^2 and its (k, k) cells.

    The (k, k) cells of one size n^2 come in the order of k, as the blocks
    of size n do.
    """
    groups = cells(blocks, 2)
    sizes = [g.index.shape[1] for g in groups]
    out = []
    for g in cells(blocks, 1):
        n = g.index.shape[1]
        labels = groups[sizes.index(n * n)].labels
        out.append((sizes.index(n * n), np.flatnonzero(labels[:, 0] == labels[:, 1]), n))
    return tuple(out)


def mult_cells(r: BiElement) -> list[np.ndarray]:
    """The cells of mult_map(r), one stack per block size.

    An entry ((p, q), (q, t)) lies in a cell only when p, q and t share a
    block k, so block k of m(r) comes from the (k, k) cell of r alone: the
    multiplication map of that n_k^2 x n_k^2 cell, which is the cell itself
    when n_k = 1.
    """
    stacks = r.cells
    return [
        stacks[at][1][on_diag] if n == 1 else _multiply(stacks[at][1][on_diag], n)
        for at, on_diag, n in _mult_gathers(r.shape.blocks)
    ]


def mult_map(r: BiElement) -> AlgebraElement:
    """The multiplication map a (x) b -> ab, extended linearly."""
    return AlgebraElement._from_cells(r.shape, mult_cells(r))


def swap_matrix(n: int) -> np.ndarray:
    """The swap unitary on C^n (x) C^n."""
    return np.eye(n * n, dtype=complex)[np.arange(n * n).reshape(n, n).T.ravel()]


@lru_cache(maxsize=None)
def _diag_projector_cached(blocks: tuple[int, ...]) -> BiElement:
    stacks = []
    for g in cells(blocks, 2):
        c, size = g.index.shape
        mats = np.zeros((c, size, size), dtype=complex)
        on_diag = g.labels[:, 0] == g.labels[:, 1]
        if on_diag.any():
            n = math.isqrt(size)  # a diagonal cell (k, k) has size n_k^2
            mats[on_diag] = (np.eye(n * n, dtype=complex) + swap_matrix(n)) / 2.0
        stacks.append(mats)
    return BiElement._from_cells(blocks, stacks)


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
    """Random supported element with independent standard complex entries.

    The draw is of the whole dense matrix, and the element keeps its cells.
    """
    shape = as_shape(shape)
    d = shape.dim**order
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mats = [mats for _, mats in cell_stacks(raw, shape.blocks, order)]
    if hermitian:
        mats = [(m + adjoints(m)) / 2.0 for m in mats]
    return element_type(order)._from_cells(shape, mats)


def zero_clip(arr: np.ndarray) -> np.ndarray:
    """Copy of arr with real and imaginary parts below 1e-14 in magnitude set to exact zero."""
    parts = np.ascontiguousarray(arr, dtype=complex).view(float)
    return np.where(np.abs(parts) < 1e-14, 0.0, parts).view(complex)
