"""Lipschitz seminorm and transport distance induced by a metric candidate.

The seminorm of a in A is the operator norm of (a (x) 1 - 1 (x) a) applied
to the pseudo-inverse of the candidate; on classical shapes this is the best
Lipschitz constant.  Both factors are supported elements, so the product is
computed per cell: cell (k, l) is (a_k (x) 1 - 1 (x) a_l) pinv_(k,l), and
no D^2 x D^2 matrix is formed.  The induced distance between states is the
supremum of |phi(a) - psi(a)| over self-adjoint a in the unit seminorm
ball.  On all-ones shapes the supremum is exact: between point masses it is
a shortest-path length under the distances, which needs no program, and
between other states it is computed by linear programming.  On general
shapes the result is a bracket instead of a bare number, since the
supremum may be unattained or infinite: the lower end is the value at the
one feasible point a = P(delta) / lip(P(delta)), with delta = phi - psi and
P removing the trace, and the upper end comes from a pure-state
decomposition.  The bracket is only as tight as that one point; it closes
on some inputs (two-point spaces, point masses at comparable distances)
and stays open on others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .algebra import (
    AlgebraElement,
    AlgebraShape,
    BiElement,
    CellStacks,
    ShapeMismatchError,
    adjoints,
    as_shape,
    assemble,
    cells,
    cellwise_eigh,
    cellwise_norm,
    hermitian_param_basis,
    matrix_norms,
    op_norm,
    op_norm_array,
    require_finite,
)
from .axioms import (
    MetricCandidate,
    ToleranceConfig,
    check_diag_vanish,
    check_nondegenerate,
    check_positive,
)

STATE_TOL = 1e-9
# pure components of a state with weight at most this are left out of the upper end
WEIGHT_TOL = 1e-12
# relative width below which a transport bracket counts as closed
BRACKET_TOL = 1e-9


class PreconditionError(ValueError):
    """The candidate does not satisfy the axioms this operation relies on."""


@dataclass(frozen=True)
class State:
    """A state on A: one PSD density per block, total trace one."""

    shape: AlgebraShape
    densities: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        shape = as_shape(self.shape)
        object.__setattr__(self, "shape", shape)
        if len(self.densities) != shape.num_blocks:
            raise ValueError(
                f"need {shape.num_blocks} block densities, got {len(self.densities)}"
            )
        dens = []
        total = 0.0
        for n, d in zip(shape.blocks, self.densities):
            arr = np.array(d, dtype=complex)
            if arr.shape != (n, n):
                raise ValueError(f"block density must be {n}x{n}, got {arr.shape}")
            require_finite(arr, "block densities")
            total += float(np.trace(arr).real)
            arr.setflags(write=False)
            dens.append(arr)
        # one stacked norm and eigensolve per block size, none on 1x1
        # blocks; the first block failing a test, in block order, names the
        # error
        not_herm = np.zeros(shape.num_blocks, dtype=bool)
        not_psd = np.zeros(shape.num_blocks, dtype=bool)
        for g in cells(shape.blocks, 1):
            where = g.labels[:, 0]
            stack = np.stack([dens[k] for k in where])
            adj = adjoints(stack)
            scale = np.maximum(1.0, matrix_norms(stack))
            not_herm[where] = matrix_norms(stack - adj) > STATE_TOL * scale
            herm = (stack + adj) / 2.0
            lowest = herm[:, 0, 0].real if herm.shape[-1] == 1 else np.linalg.eigvalsh(herm)[:, 0]
            not_psd[where] = lowest < -STATE_TOL
        for herm_fails, psd_fails in zip(not_herm, not_psd):
            if herm_fails:
                raise ValueError("block densities must be self-adjoint")
            if psd_fails:
                raise ValueError("block densities must be positive semidefinite")
        if abs(total - 1.0) > STATE_TOL:
            raise ValueError(f"total trace must be 1, got {total}")
        object.__setattr__(self, "densities", tuple(dens))

    @classmethod
    def classical(cls, weights) -> "State":
        """Probability vector as a state on the all-ones shape."""
        w = np.asarray(weights, dtype=float)
        shape = AlgebraShape((1,) * w.size)
        return cls(shape, tuple(np.array([[v]], dtype=complex) for v in w))

    def as_element(self) -> AlgebraElement:
        d = self.shape.dim
        out = np.zeros((d, d), dtype=complex)
        for (a, b), dens in zip(self.shape.block_ranges(), self.densities):
            out[a:b, a:b] = dens
        return AlgebraElement(self.shape, out)

    def pair(self, a: AlgebraElement) -> float:
        """The pairing phi(a) = sum_k tr(d_k a_k); real for self-adjoint a."""
        if a.shape != self.shape:
            raise ShapeMismatchError("state and element live over different shapes")
        return float(np.trace(self.as_element().data @ a.data).real)


@dataclass(frozen=True)
class PureState:
    """A vector state supported in a single block."""

    shape: AlgebraShape
    block: int
    vector: np.ndarray

    def __post_init__(self) -> None:
        shape = as_shape(self.shape)
        object.__setattr__(self, "shape", shape)
        if not 0 <= self.block < shape.num_blocks:
            raise ValueError(f"block index {self.block} out of range")
        v = np.asarray(self.vector, dtype=complex).ravel()
        n = shape.blocks[self.block]
        if v.size != n:
            raise ValueError(f"vector must have length {n}, got {v.size}")
        require_finite(v, "pure-state vector")
        if abs(np.linalg.norm(v) - 1.0) > STATE_TOL:
            raise ValueError("pure-state vector must have unit norm")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    def embedded(self) -> np.ndarray:
        """The vector inside C^D, zero outside its block."""
        out = np.zeros(self.shape.dim, dtype=complex)
        a, b = self.shape.block_ranges()[self.block]
        out[a:b] = self.vector
        return out

    def to_state(self) -> State:
        dens = []
        for k, n in enumerate(self.shape.blocks):
            if k == self.block:
                dens.append(np.outer(self.vector, self.vector.conj()))
            else:
                dens.append(np.zeros((n, n), dtype=complex))
        return State(self.shape, tuple(dens))


def _rho_of(candidate) -> BiElement:
    if isinstance(candidate, MetricCandidate):
        return candidate.rho
    if isinstance(candidate, BiElement):
        return candidate
    raise TypeError("expected a MetricCandidate or BiElement")


def metric_pseudo_inverse(candidate, cfg: ToleranceConfig | None = None) -> BiElement:
    """Pseudo-inverse of the candidate: inverts it off the diagonal subspace.

    Requires positivity, diagonal vanishing, and nondegeneracy; with those
    the pseudo-inverse equals the inverse of the restriction off the
    diagonal, extended by zero.  Refuses degenerate candidates since the
    inverse would be ambiguous.
    """
    rho = _rho_of(candidate)
    cfg = cfg if cfg is not None else ToleranceConfig()
    scale = op_norm(rho) or 1.0
    failures = []
    if not check_positive(rho, cfg, scale).passed:
        failures.append("positivity")
    if not check_diag_vanish(rho, cfg, scale).passed:
        failures.append("diagonal vanishing")
    if not failures and not check_nondegenerate(rho, cfg, scale, prerequisites_ok=True).passed:
        failures.append("nondegeneracy")
    if failures:
        raise PreconditionError(
            "pseudo-inverse needs a candidate passing positivity, diagonal "
            f"vanishing, and nondegeneracy; failed: {', '.join(failures)}"
        )
    cutoff = cfg.resolved_floor(scale) / 2.0
    parts = []
    for index, vals, vecs in cellwise_eigh(rho.cells):
        inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
        parts.append((index, (vecs * inv[:, None, :]) @ adjoints(vecs)))
    return BiElement(rho.shape, assemble(parts, rho.shape.dim**2))


def _tensor_cells(x: np.ndarray, y: np.ndarray, blocks: tuple[int, ...]) -> CellStacks:
    """The cells of x (x) y for block diagonal D x D arrays x and y.

    Coordinate r of C^D (x) C^D has the legs divmod(r, D), so entry (r, s)
    of a cell is x[r1, s1] y[r2, s2]: cell (k, l) is x_k (x) y_l.  Leading
    axes of x and y broadcast together and carry over.
    """
    d = sum(blocks)
    out = []
    for g in cells(blocks, 2):
        first, second = np.divmod(g.index, d)
        out.append((
            g.index,
            x[..., first[:, :, None], first[:, None, :]] * y[..., second[:, :, None], second[:, None, :]],
        ))
    return out


def _seminorm_cells(a: np.ndarray, pinv: BiElement) -> CellStacks:
    """The cells of (a (x) 1 - 1 (x) a) pinv, cell (k, l) being (a_k (x) 1 - 1 (x) a_l) pinv_(k,l).

    a is a block diagonal D x D array; its leading axes carry over.
    """
    blocks = pinv.shape.blocks
    eye = np.eye(pinv.shape.dim)
    return [
        (index, (left - right) @ p)
        for (index, left), (_, right), (_, p) in zip(
            _tensor_cells(a, eye, blocks), _tensor_cells(eye, a, blocks), pinv.cells
        )
    ]


def lip_seminorm(a: AlgebraElement, candidate, pinv: BiElement | None = None) -> float:
    """Seminorm ||(a (x) 1 - 1 (x) a) rho^+||; zero exactly on multiples of 1."""
    rho = _rho_of(candidate)
    if a.shape != rho.shape:
        raise ShapeMismatchError("element and candidate live over different shapes")
    if pinv is None:
        pinv = metric_pseudo_inverse(candidate)
    return cellwise_norm(_seminorm_cells(a.data, pinv))


def check_leibniz(
    a: AlgebraElement,
    b: AlgebraElement,
    candidate,
    tol: float = 1e-9,
) -> tuple[bool, float]:
    """Product rule estimate for commuting a, b.

    Returns (holds, slack) with slack = ||a|| lip(b) + lip(a) ||b|| - lip(ab),
    nonnegative up to the tolerance when ab = ba.  Non-commuting inputs are
    rejected: the estimate is only established for commuting pairs.
    """
    comm = op_norm(a @ b - b @ a)
    scale = max(1.0, op_norm(a) * op_norm(b))
    if comm > tol * scale:
        raise ValueError(f"inputs do not commute (commutator norm {comm:.3e})")
    pinv = metric_pseudo_inverse(candidate)
    lip_ab = lip_seminorm(a @ b, candidate, pinv)
    bound = op_norm(a) * lip_seminorm(b, candidate, pinv) + lip_seminorm(a, candidate, pinv) * op_norm(b)
    slack = bound - lip_ab
    return slack >= -tol * max(1.0, bound), slack


def pure_state_bound(v: PureState, w: PureState, candidate) -> float:
    """Upper bound ||rho (v (x) w)|| on the distance between cross-block vector states."""
    rho = _rho_of(candidate)
    if v.shape != rho.shape or w.shape != rho.shape:
        raise ShapeMismatchError("pure states and candidate live over different shapes")
    if v.block == w.block:
        raise ValueError("the bound needs pure states in two distinct blocks")
    vec = np.kron(v.embedded(), w.embedded())
    return float(np.linalg.norm(rho.data @ vec))


@dataclass(frozen=True)
class MKDistance:
    """Bracket result of a transport-distance computation."""

    lower: float
    upper: float
    converged: bool
    iterations: int
    unbounded: bool = False

    def to_dict(self) -> dict:
        return {
            "lower": None if math.isinf(self.lower) else float(self.lower),
            "upper": None if math.isinf(self.upper) else float(self.upper),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "unbounded": bool(self.unbounded),
        }


def _classical_weights(state: State) -> np.ndarray:
    return np.array([float(d[0, 0].real) for d in state.densities])


def _point_mass(weights: np.ndarray) -> int | None:
    """The point i when weights are exactly those of delta_i, else None."""
    hits = np.flatnonzero(weights)
    return int(hits[0]) if hits.size == 1 and weights[hits[0]] == 1.0 else None


def _shortest_paths(dmat: np.ndarray) -> np.ndarray:
    """Shortest-path lengths under the arc weights d(x, y), x != y (Floyd-Warshall).

    A negative diagonal entry of the result marks a negative cycle.
    """
    dist = dmat.copy()
    np.fill_diagonal(dist, 0.0)
    for k in range(len(dist)):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def _mk_classical_lp(p: np.ndarray, q: np.ndarray, dmat: np.ndarray) -> float:
    """Exact supremum on an all-ones shape via its linear program.

    Maximize sum (p - q) a subject to a(x) - a(y) <= d(x, y); the first
    coordinate is pinned to zero to remove the constant gauge direction.
    """
    n = len(dmat)
    # one row per ordered pair x != y, in row-major order
    x, y = np.nonzero(~np.eye(n, dtype=bool))
    rows = np.zeros((x.size, n))
    rows[np.arange(x.size), x] = 1.0
    rows[np.arange(x.size), y] = -1.0
    bounds = [(0.0, 0.0)] + [(None, None)] * (n - 1)
    res = linprog(q - p, A_ub=rows, b_ub=dmat[x, y], bounds=bounds, method="highs")
    if not res.success:
        raise RuntimeError(f"transport linear program failed: {res.message}")
    return float(-res.fun)


def _mk_exact(phi: State, psi: State, rho: BiElement) -> float:
    """Exact supremum on an all-ones shape.

    Between point masses delta_i and delta_j the program's value is the
    length of a shortest path from i to j under the arc weights d(x, y):
    d(i, j) for a metric, possibly less where the triangle inequality
    fails.  Other states, and distances with a negative cycle, for which
    the program is infeasible, run the program.
    """
    n = rho.shape.dim
    dmat = np.diagonal(rho.data).real.reshape(n, n)
    p, q = _classical_weights(phi), _classical_weights(psi)
    i, j = _point_mass(p), _point_mass(q)
    if i is not None and j is not None:
        dist = _shortest_paths(dmat)
        if not (np.diagonal(dist) < 0.0).any():
            return float(dist[i, j])
    return _mk_classical_lp(p, q, dmat)


def _eigen_frame(state: State) -> tuple[np.ndarray, np.ndarray]:
    """Block eigen-decomposition of a state on the coordinates of C^D.

    Returns the eigenvalues of its block densities, weights[r] belonging to
    coordinate r, and the block diagonal unitary whose column r is the
    matching unit eigenvector.
    """
    eighs = cellwise_eigh(state.as_element().cells)
    weights = np.zeros(state.shape.dim)
    for index, vals, _ in eighs:
        weights[index] = vals
    return weights, assemble([(index, vecs) for index, _, vecs in eighs], state.shape.dim)


def _mk_upper_bound(phi: State, psi: State, rho: BiElement) -> float:
    """Upper end: sum of p q b(v, w) over the weighted block eigenvectors v of phi and w of psi.

    b(v, w) = ||rho (v (x) w)|| for v and w in distinct blocks.  In one
    block it is 0 for equal vectors and otherwise, by the triangle property
    of the transport distance, the least ||rho (v (x) u)|| + ||rho (u (x) w)||
    over basis vectors u of the other blocks (infinite when there are none).
    Every norm comes from one product per cell group.
    """
    shape = rho.shape
    d = shape.dim
    (p, v), (q, w) = _eigen_frame(phi), _eigen_frame(psi)
    eye = np.eye(d)
    # entry (r, s) of norms[t] is ||rho (x_r (x) y_s)|| for the columns of
    # (x, y) = (v, w), (v, 1) and (1, w)
    norms = np.zeros((3, d * d))
    products = _tensor_cells(np.stack([v, v, eye]), np.stack([w, eye, w]), shape.blocks)
    for (index, vecs), (_, cell) in zip(products, rho.cells):
        norms[:, index] = np.linalg.norm(cell @ vecs, axis=-2)
    bound, to_mid, from_mid = norms.reshape(3, d, d)
    labels = shape.block_labels()
    same = labels[:, None] == labels[None, :]
    used = (p[:, None] > WEIGHT_TOL) & (q[None, :] > WEIGHT_TOL)
    bound[same] = 0.0
    r, s = np.nonzero(used & same & (np.abs(v.conj().T @ w) < 1.0 - 1e-12))
    other = labels[None, :] != labels[r, None]
    bound[r, s] = np.where(other, to_mid[r] + from_mid[:, s].T, np.inf).min(axis=1)
    if np.isinf(bound[used]).any():
        return math.inf
    return float(np.outer(p, q)[used] @ bound[used])


def _mk_lower(phi: State, psi: State, rho: BiElement, pinv: BiElement) -> float:
    """Lower end of the bracket: the objective at a / lip(a), a = P(delta).

    With delta = phi - psi and P removing the trace, a / lip(a) lies in the
    unit seminorm ball and gives |tr(delta a)| / lip(a).  A zero-seminorm
    direction on which the states differ makes the supremum infinite.
    """
    shape = rho.shape
    d = shape.dim
    delta = phi.as_element().data - psi.as_element().data
    basis = hermitian_param_basis(shape, 1)
    # real matrix of the seminorm map on the hermitian parameter basis, one
    # row per entry of a cell
    t = np.concatenate(
        [mats.reshape(len(basis), -1) for _, mats in _seminorm_cells(basis, pinv)], axis=1
    )
    tmat = np.concatenate([t.real, t.imag], axis=1).T
    _, s, vt = np.linalg.svd(tmat, full_matrices=False)
    null_tol = 1e-10 * max(1.0, s[0] if s.size else 0.0)
    null_vectors = vt[np.sum(s > null_tol):]
    # the identity spans part of the kernel, and states may differ in
    # trace within STATE_TOL, so only the trace-free part is tested
    a = delta - (np.trace(delta) / d) * np.eye(d)
    for nv in null_vectors:
        k = np.einsum("a,aij->ij", nv, basis)
        if abs(np.vdot(a, k).real) > 1e-10 * max(1.0, op_norm_array(delta)):
            return math.inf
    lip = cellwise_norm(_seminorm_cells(a, pinv))
    return abs(float(np.trace(delta @ a).real)) / lip if lip > 0 else 0.0


def mk_distance(
    phi: State,
    psi: State,
    candidate,
    cfg: ToleranceConfig | None = None,
    method: str = "auto",
    max_iter: int = 500,
) -> MKDistance:
    """Transport distance bracket between two states.

    On all-ones shapes (method "auto" or "lp") the exact value is returned
    as a zero-width bracket: a shortest-path length between point masses,
    which needs no program, and the linear program's value between other
    states.  Otherwise
    (or with method "ascent") the lower end is |tr(delta a)| / lip(a) for
    the trace-free part a of delta = phi - psi, and a pure-state
    decomposition gives the upper end; a zero-seminorm direction that
    separates the states yields the unbounded marker, since the distance
    is only a semimetric.  converged means the bracket has closed to
    BRACKET_TOL relative.  max_iter is accepted and has no effect: the
    lower end is computed in closed form, and iterations is always 0.
    """
    rho = _rho_of(candidate)
    if phi.shape != rho.shape or psi.shape != rho.shape:
        raise ShapeMismatchError("states and candidate live over different shapes")
    if method not in ("auto", "lp", "ascent"):
        raise ValueError("method must be one of auto, lp, ascent")
    use_lp = rho.shape.is_classical and method in ("auto", "lp")
    if method == "lp" and not rho.shape.is_classical:
        raise ValueError("the exact path applies to all-ones shapes only")
    if use_lp:
        value = _mk_exact(phi, psi, rho)
        return MKDistance(value, value, True, 0)
    lower = _mk_lower(phi, psi, rho, metric_pseudo_inverse(candidate, cfg))
    if math.isinf(lower):
        return MKDistance(math.inf, math.inf, True, 0, unbounded=True)
    upper = _mk_upper_bound(phi, psi, rho)
    converged = math.isfinite(upper) and upper - lower <= BRACKET_TOL * max(1.0, upper)
    return MKDistance(lower, upper, converged, 0)
