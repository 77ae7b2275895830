"""Closed-form constructions of quantum metrics.

Covers the embedding of finite classical metric spaces (all-ones shapes),
positive combinations on a fixed shape, direct sums with a cross-distance
term, and tensor products with the summed metric.  Constructors return
unverified candidates; callers certify them with axioms.verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    AlgebraShape,
    BiElement,
    ShapeMismatchError,
    cells,
    op_norm,
    require_finite,
    storage_coordinates,
    storage_position,
    storage_size,
)
from .axioms import ALGEBRAIC, REPRESENTATION, MetricCandidate


class MetricInputError(ValueError):
    """The input distance matrix violates the classical metric axioms."""


@dataclass(frozen=True)
class FiniteMetricSpace:
    """A finite metric space given by its symmetric distance matrix."""

    dist: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise MetricInputError("distance matrix must be square")
        n = d.shape[0]
        require_finite(d, "distance matrix", lambda k: f"distance {k} (d({k // n}, {k % n}))")
        # np.allclose(d, d.T, atol=1e-12) without its handling of infinities, which d cannot hold
        if not (np.abs(d - d.T) <= 1e-12 + 1e-5 * np.abs(d.T)).all():
            raise MetricInputError("distance matrix must be symmetric")
        if (np.abs(d.diagonal()) > 1e-12).any():
            raise MetricInputError("self-distances must be zero")
        # d <= 0 off the diagonal: the diagonal of this mask is cleared, whatever d's memory order
        nonpositive = d <= 0
        nonpositive.flat[:: n + 1] = False
        if nonpositive.any():
            raise MetricInputError("distances between distinct points must be positive")
        # fails[i, j, k]: d(i, j) > d(i, k) + d(k, j); the first in (i, j, k)
        # order names the error
        fails = d[:, :, None] > d[:, None, :] + d.T[None, :, :] + 1e-12
        if fails.any():
            i, j, k = np.unravel_index(np.argmax(fails), fails.shape)
            raise MetricInputError(f"triangle inequality fails on ({i}, {j}, {k})")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "dist", d)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    @property
    def shape(self) -> AlgebraShape:
        return AlgebraShape((1,) * self.n)


def from_finite_metric(space: FiniteMetricSpace) -> MetricCandidate:
    """Embed a classical metric as a diagonal candidate on the all-ones shape.

    The entry at diagonal position (x, y) is the distance d(x, y): the 1x1
    cell of coordinate x D + y.
    """
    shape, dist = space.shape, space.dist.ravel()
    return MetricCandidate(BiElement._from_cells(shape, [dist[g.index][:, :, None] for g in cells(shape.blocks, 2)]))


def conic_combine(m1: MetricCandidate, m2: MetricCandidate, r: float) -> MetricCandidate:
    """The combination rho1 + r * rho2 on a common shape, r > 0."""
    if m1.shape != m2.shape:
        raise ShapeMismatchError("conic_combine requires candidates on the same shape")
    if r <= 0:
        raise ValueError("the combination weight must be positive")
    return MetricCandidate(m1.rho + r * m2.rho)


def direct_sum_bound(m1: MetricCandidate, m2: MetricCandidate) -> float:
    """Smallest admissible cross-distance: half the larger diameter."""
    return max(op_norm(m1.rho), op_norm(m2.rho)) / 2.0


def direct_sum(m1: MetricCandidate, m2: MetricCandidate, r: float) -> MetricCandidate:
    """Candidate on the concatenated shape with cross-distance term r.

    rho1 sits on the (A1, A1) cells, rho2 on (A2, A2), and r times the
    identity on both cross cells.  r must be positive and at least half the
    larger diameter; smaller values are rejected because the construction
    is only known to produce a metric from the bound upward.
    """
    bound = direct_sum_bound(m1, m2)
    if r <= 0:
        raise ValueError("the cross-distance must be positive")
    if r < bound * (1.0 - 1e-12):
        raise ValueError(
            f"cross-distance {r} is below the admissible bound {bound}"
        )
    s1, s2 = m1.shape, m2.shape
    shape = AlgebraShape(s1.blocks + s2.blocks)
    values = np.concatenate([m1.rho._flat, m2.rho._flat, [0.0, r]])
    # adding 0.0 makes every zero entry +0.0, as adding into a zero matrix does
    return MetricCandidate(BiElement._from_flat(shape, 0.0 + values[_direct_sum_gather(s1.blocks, s2.blocks)]))


@lru_cache(maxsize=None)
def _direct_sum_gather(first: tuple[int, ...], second: tuple[int, ...]) -> np.ndarray:
    """Where each entry of a direct sum's flat cell vector reads the vector [rho1, rho2, 0, r].

    A cell (k, l) with both blocks in summand i is that cell of rho_i, its
    coordinates in the same order, and a cross cell is r times the identity.
    """
    d1, d2 = sum(first), sum(second)
    d, size1, size2 = d1 + d2, storage_size(first, 2), storage_size(second, 2)
    rows, cols = storage_coordinates(first + second, 2)
    (p1, q1), (p2, q2) = np.divmod(rows, d), np.divmod(cols, d)
    out = np.where(rows == cols, size1 + size2 + 1, size1 + size2)
    one, two = (p1 < d1) & (q1 < d1), (p1 >= d1) & (q1 >= d1)
    out[one] = storage_position(first, 2, p1[one] * d1 + q1[one], p2[one] * d1 + q2[one])
    at = [x[two] - d1 for x in (p1, q1, p2, q2)]
    out[two] = size1 + storage_position(second, 2, at[0] * d2 + at[1], at[2] * d2 + at[3])
    out.setflags(write=False)
    return out


def _grouping_permutation(s1: AlgebraShape, s2: AlgebraShape) -> np.ndarray:
    """Reordering of C^{D1} (x) C^{D2} that makes product blocks contiguous.

    Composite coordinates (p, q) are grouped by (block(p), block(q)) in
    lexicographic order, preserving the original order inside each group.
    """
    lab1, lab2 = s1.block_labels(), s2.block_labels()
    # lexsort is stable and sorts by its last key first
    return np.lexsort((np.tile(lab2, s1.dim), np.repeat(lab1, s2.dim)))


def tensor_product(
    m1: MetricCandidate, m2: MetricCandidate, mode: str = REPRESENTATION
) -> MetricCandidate:
    """Candidate rho1 (x) 1 + 1 (x) rho2 on the product algebra.

    The shape has one block n_i * m_j per pair of factor blocks, in
    lexicographic pair order.  On all-ones shapes this is the sum metric
    d1(x, x') + d2(y, y').  In algebraic mode the first factor must be
    commutative (all-ones), matching the scope of the algebraic product
    construction.
    """
    s1, s2 = m1.shape, m2.shape
    if mode == ALGEBRAIC and not s1.is_classical:
        raise ValueError(
            "algebraic-mode tensor products require a commutative first factor"
        )
    one, only_one, two, only_two = _tensor_gather(s1.blocks, s2.blocks)
    flat = m1.rho._flat[one] * only_one + only_two * m2.rho._flat[two]
    return MetricCandidate(BiElement._from_flat(tuple(n * m for n in s1.blocks for m in s2.blocks), flat))


@lru_cache(maxsize=None)
def _tensor_gather(first: tuple[int, ...], second: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Where each entry of a tensor product's flat cell vector reads rho1 and rho2, with the factor of each.

    Coordinate w of the product's C^{D1 D2} is the pair (a, c), a in C^{D1}
    and c in C^{D2}, with a D2 + c = order[w] (`_grouping_permutation`).  The
    entry at ((a1, c1) (a2, c2), (b1, e1) (b2, e2)) is
    rho1[a1 a2, b1 b2] [c1 c2 = e1 e2] + [a1 a2 = b1 b2] rho2[c1 c2, e1 e2],
    each bracket a complex 1 or 0, as the dense rho1 (x) 1 + 1 (x) rho2 has it.
    """
    s1, s2 = AlgebraShape(first), AlgebraShape(second)
    d1, d2 = s1.dim, s2.dim
    order = _grouping_permutation(s1, s2)
    rows, cols = storage_coordinates(tuple(n * m for n in first for m in second), 2)
    (a1, c1), (a2, c2) = (np.divmod(order[w], d2) for w in np.divmod(rows, d1 * d2))
    (b1, e1), (b2, e2) = (np.divmod(order[w], d2) for w in np.divmod(cols, d1 * d2))
    one = storage_position(first, 2, a1 * d1 + a2, b1 * d1 + b2)
    two = storage_position(second, 2, c1 * d2 + c2, e1 * d2 + e2)
    out = (one, ((c1 == e1) & (c2 == e2)).astype(complex), two, ((a1 == b1) & (a2 == b2)).astype(complex))
    for arr in out:
        arr.setflags(write=False)
    return out
