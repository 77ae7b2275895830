"""Closed-form constructions of quantum metrics.

Covers the embedding of finite classical metric spaces (all-ones shapes),
positive combinations on a fixed shape, direct sums with a cross-distance
term, and tensor products with the summed metric.  Constructors return
unverified candidates; callers certify them with axioms.verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraShape,
    BiElement,
    ShapeMismatchError,
    op_norm,
    permute_legs,
    require_finite,
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
        if np.any(np.abs(np.diag(d)) > 1e-12):
            raise MetricInputError("self-distances must be zero")
        off = d[~np.eye(n, dtype=bool)]
        if off.size and np.any(off <= 0):
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

    The entry at diagonal position (x, y) is the distance d(x, y).
    """
    return MetricCandidate(BiElement(space.shape, np.diag(space.dist.ravel().astype(complex))))


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
    d1, d2 = s1.dim, s2.dim
    d = d1 + d2
    shape = AlgebraShape(s1.blocks + s2.blocks)
    data = np.zeros((d * d, d * d), dtype=complex)
    # rho_i sits on rows and columns (p, q) with p and q in A_i, r * 1 on
    # those with p in one summand and q in the other
    legs = data.reshape(d, d, d, d)
    one, two = slice(0, d1), slice(d1, d)
    for (p, q), block in (
        ((one, one), m1.rho.data),
        ((two, two), m2.rho.data),
        ((one, two), r * np.eye(d1 * d2, dtype=complex)),
        ((two, one), r * np.eye(d2 * d1, dtype=complex)),
    ):
        view = legs[p, q, p, q]
        view += block.reshape(view.shape)
    return MetricCandidate(BiElement(shape, data))


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
    d1, d2 = s1.dim, s2.dim
    blocks = tuple(n * m for n in s1.blocks for m in s2.blocks)
    shape = AlgebraShape(blocks)
    raw = np.kron(m1.rho.data, np.eye(d2 * d2, dtype=complex)) + np.kron(
        np.eye(d1 * d1, dtype=complex), m2.rho.data
    )
    # regroup legs (H1, H1, H2, H2) -> (H1, H2, H1, H2)
    mixed = permute_legs(raw, (0, 2, 1, 3), (d1, d1, d2, d2))
    # reorder each composite leg so product blocks are contiguous
    order = _grouping_permutation(s1, s2)
    dd = d1 * d2
    full = (order[:, None] * dd + order[None, :]).ravel()
    data = mixed[full[:, None], full]
    return MetricCandidate(BiElement(shape, data))
