"""Lipschitz seminorm and transport distance induced by a metric candidate.

The seminorm of a in A is the operator norm of (a (x) 1 - 1 (x) a) applied
to the pseudo-inverse of the candidate; on classical shapes this is the best
Lipschitz constant.  Both factors are supported elements, so the product is
computed per cell: cell (k, l) is (a_k (x) 1 - 1 (x) a_l) pinv_(k,l), and
no D^2 x D^2 matrix is formed.  The induced distance between states is the
supremum of |phi(a) - psi(a)| over self-adjoint a in the unit seminorm
ball.  On all-ones shapes the supremum is exact: by Kantorovich duality it
is the cheapest transport of one state onto the other at the shortest-path
lengths under the distances, which between point masses is one such
length and between other states is solved by successive shortest paths.
On general shapes the result is a bracket instead of a bare number: the
lower end is the value at the one feasible point a = P(delta) / lip(P(delta)),
with delta = phi - psi and P removing the trace, and the upper end comes
from a pure-state decomposition.  The supremum over trace-free a is finite,
since once the pseudo-inverse exists the seminorm vanishes only on the
multiples of 1 (Rieffel, "Metrics on state spaces", Doc. Math. 4, 1999):
on a cell (k, l), k != l, the pseudo-inverse is invertible, so
a_k (x) 1 = 1 (x) a_l and both are one scalar; on a single block M_n,
n >= 2, vanishing on the antisymmetric subspace forces a scalar.  The
bracket is only as tight as that one point; it closes on some inputs
(two-point spaces, point masses at comparable distances) and stays open
on others.

A state is the block diagonal element of its densities, held from
construction whichever way it is built.  Its validation runs on that
element's cells, one stacked pass per cell size with no loop over the
blocks, and the computations here read that one element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
    matrix_norms,
    op_norm,
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


class NegativeCycleError(PreconditionError, RuntimeError):
    """The distances of an all-ones candidate have a negative cycle.

    No element then satisfies the seminorm constraints.  It is also a
    RuntimeError, so callers that catch the solver's RuntimeError still
    catch it.
    """


def _check_densities(elem: AlgebraElement) -> None:
    """Validate the block densities of a state, the cells of elem, one stacked pass per cell size.

    elem is a finite order-1 element, so its cells are the densities of its
    blocks stacked by size.  They must be self-adjoint and PSD within
    STATE_TOL, with total trace one.  Of several failing blocks the first in
    block order names the error.
    """
    num_blocks = elem.shape.num_blocks
    not_herm = np.zeros(num_blocks, dtype=bool)
    not_psd = np.zeros(num_blocks, dtype=bool)
    traces = np.zeros(num_blocks)
    for g, (_, stack) in zip(cells(elem.shape.blocks, 1), elem.cells):
        where = g.labels[:, 0]
        adj = adjoints(stack)
        scale = np.maximum(1.0, matrix_norms(stack))
        not_herm[where] = matrix_norms(stack - adj) > STATE_TOL * scale
        herm = (stack + adj) / 2.0
        lowest = herm[:, 0, 0].real if herm.shape[-1] == 1 else np.linalg.eigvalsh(herm)[:, 0]
        not_psd[where] = lowest < -STATE_TOL
        traces[where] = np.trace(stack, axis1=1, axis2=2).real
    # the first failing block names the error, self-adjointness before positivity
    fails = np.flatnonzero(not_herm | not_psd)
    if fails.size:
        if not_herm[fails[0]]:
            raise ValueError("block densities must be self-adjoint")
        raise ValueError("block densities must be positive semidefinite")
    # added up in block order, whatever the grouping by size
    total = sum(traces.tolist(), 0.0)
    if abs(total - 1.0) > STATE_TOL:
        raise ValueError(f"total trace must be 1, got {total}")


@dataclass(frozen=True, eq=False)
class State:
    """A state on A: one PSD density per block, total trace one.

    A state is the block diagonal element of its densities, held from
    construction and returned by `as_element`.  Every state is made from
    its element and validated on that element's cells (`_check_densities`),
    and its densities are read-only views of those cells.  Built from
    densities, it first tests every block's shape, then every block's
    finiteness, then assembles the element.
    """

    shape: AlgebraShape
    densities: tuple[np.ndarray, ...]
    _element: AlgebraElement = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        shape = as_shape(self.shape)
        if len(self.densities) != shape.num_blocks:
            raise ValueError(
                f"need {shape.num_blocks} block densities, got {len(self.densities)}"
            )
        dens = []
        for n, d in zip(shape.blocks, self.densities):
            arr = np.asarray(d, dtype=complex)
            if arr.shape != (n, n):
                raise ValueError(f"block density must be {n}x{n}, got {arr.shape}")
            dens.append(arr)
        for arr in dens:
            require_finite(arr, "block densities")
        stacks = [(g.index, np.stack([dens[k] for k in g.labels[:, 0]])) for g in cells(shape.blocks, 1)]
        self._adopt(AlgebraElement(shape, assemble(stacks, shape.dim)))

    def _adopt(self, elem: AlgebraElement) -> None:
        """Validate elem, an order-1 element, and keep it; the densities are views of its cells."""
        _check_densities(elem)
        dens = [None] * elem.shape.num_blocks
        for g, (_, mats) in zip(cells(elem.shape.blocks, 1), elem.cells):
            for k, mat in zip(g.labels[:, 0].tolist(), mats):
                dens[k] = mat
        object.__setattr__(self, "shape", elem.shape)
        object.__setattr__(self, "densities", tuple(dens))
        object.__setattr__(self, "_element", elem)

    @classmethod
    def _from_element(cls, elem: AlgebraElement) -> "State":
        """The state whose densities are the blocks of elem, a finite order-1 element."""
        state = cls.__new__(cls)
        state._adopt(elem)
        return state

    @classmethod
    def classical(cls, weights) -> "State":
        """Probability vector as a state on the all-ones shape."""
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"weights must be a vector, got an array of shape {w.shape}")
        finite = np.isfinite(w)
        if not finite.all():
            # the first bad weight names the error, as its 1x1 block would
            require_finite(w[[finite.argmin()]], "block densities")
        return cls._from_element(AlgebraElement(AlgebraShape((1,) * w.size), np.diag(w)))

    def as_element(self) -> AlgebraElement:
        """The block diagonal element with the densities as its blocks."""
        return self._element

    def pair(self, a: AlgebraElement) -> float:
        """The pairing phi(a) = sum_k tr(d_k a_k); real for self-adjoint a."""
        if a.shape != self.shape:
            raise ShapeMismatchError("state and element live over different shapes")
        return float(np.trace(self.as_element().data @ a.data).real)


@dataclass(frozen=True, eq=False)
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
        out[self.shape.block_labels() == self.block] = self.vector
        return out

    def to_state(self) -> State:
        """The state of the vector: its projector as the one cell of its block, +0.0 elsewhere."""
        index = np.flatnonzero(self.shape.block_labels() == self.block)
        data = assemble([(index[None], np.outer(self.vector, self.vector.conj())[None])], self.shape.dim)
        return State._from_element(AlgebraElement(self.shape, data))


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
    """Bracket result of a transport-distance computation.

    iterations and unbounded are kept only for the keys of `to_dict`: they
    always read 0 and False.
    """

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


def _transport(w: np.ndarray, dist: np.ndarray) -> tuple[float, int]:
    """Least cost of shipping the positive part of w onto its negative part at costs dist.

    Successive shortest paths (Ahuja, Magnanti & Orlin, Network Flows,
    1993, ch. 9) on the bipartite graph from the points with w > 0 to those
    with w < 0.  dist must be a shortest-path closure with no negative
    cycle, so shipping straight from source to sink is never dearer than
    through other points.  Each round labels the residual graph by
    Bellman-Ford, from every source with supply left: forward arcs cost
    dist, and an arc with flow on it adds a backward arc at -dist.  The
    cheapest path to a sink with demand left then carries as much as its
    source, its sink and its backward arcs allow.  Point 0 takes whatever
    imbalance w carries, which is what pinning a(0) = 0 does in the dual.

    Returns the cost and the number of augmentations.  Each augmentation
    empties a source, fills a sink or clears the flow on a backward arc;
    random instances take one or two per node (point with w != 0), and the
    loop raises RuntimeError once it reaches nodes**2.
    """
    w = w.copy()
    w[0] = -w[1:].sum()
    src, snk = np.flatnonzero(w > 0.0), np.flatnonzero(w < 0.0)
    k, nodes = src.size, src.size + snk.size
    cost = dist[src][:, snk]
    left = np.concatenate([w[src], -w[snk]])
    flow = np.zeros_like(cost)
    # arcs[u, v] is the residual cost of node u to node v, sources first
    arcs = np.full((nodes, nodes), np.inf)
    arcs[:k, k:] = cost
    # a label moves only on a gain above the rounding of a path's length,
    # so zero-cost two-cycles never enter the predecessor tree
    slack = 1e-12 * float(cost.max(initial=0.0))
    columns = np.arange(nodes)
    bound = nodes * nodes
    for count in range(bound + 1):
        if not (left[:k] > 0.0).any() or not (left[k:] > 0.0).any():
            return float((flow * cost).sum()), count
        arcs[k:, :k] = np.where(flow.T > 0.0, -cost.T, np.inf)
        label = np.where((left > 0.0) & (columns < k), 0.0, np.inf)
        pred = np.full(nodes, -1)
        for _ in range(nodes):
            reach = label[:, None] + arcs
            best = reach.argmin(axis=0)
            shorter = reach[best, columns]
            gain = shorter < label - slack
            if not gain.any():
                break
            label[gain] = shorter[gain]
            pred[gain] = best[gain]
        else:
            raise RuntimeError("transport solver found a negative residual cycle")
        ends = np.flatnonzero((left > 0.0) & (columns >= k))
        path = [int(ends[label[ends].argmin()])]
        while pred[path[-1]] >= 0 and len(path) <= nodes:
            path.append(int(pred[path[-1]]))
        if len(path) > nodes:
            raise RuntimeError("transport solver found a cycle of predecessors")
        # path runs sink, source, sink, ..., source with supply left
        path = np.array(path)
        fwd = (path[1::2], path[0::2] - k)
        back = (path[1:-1:2], path[2::2] - k)
        amount = min(left[path[0]], left[path[-1]], flow[back].min(initial=np.inf))
        flow[back] -= amount
        flow[fwd] += amount
        left[path[0]] -= amount
        left[path[-1]] -= amount
    raise RuntimeError(f"transport solver reached its bound of {bound} augmentations")


def exact_distance(dmat: np.ndarray, p, q) -> float:
    """Exact supremum on an all-ones shape whose distances are the n x n array dmat.

    p and q are both point indices or both weight vectors of length n.  The
    unit ball is |a(x) - a(y)| <= d(x, y) for every ordered pair, so the
    arc from x to y weighs min(d(x, y), d(y, x)); the two differ where rho
    is not flip symmetric, or a metric space's distances are symmetric only
    within its tolerance.  Under the shortest-path lengths of those
    weights the supremum is a transport cost (Kantorovich duality): d(i, j)
    between point masses delta_i and delta_j for a metric, possibly less
    where the triangle inequality fails, and the cheapest shipping of
    p - q between other states.  A negative cycle leaves the unit ball
    empty.  The candidate of a finite metric space carries the space's
    distances on its diagonal, so a query on the space passes them in
    directly and needs neither the candidate nor the states.
    """
    dist = _shortest_paths(np.minimum(dmat, dmat.T))
    if (np.diagonal(dist) < 0.0).any():
        raise NegativeCycleError(
            "transport failed: the distances have a negative cycle, so no element "
            "satisfies the constraints"
        )
    i, j = (x if isinstance(x, int) else _point_mass(x) for x in (p, q))
    if i is not None and j is not None:
        return float(dist[i, j])
    return _transport(p - q, dist)[0]


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


def _mk_lower(phi: State, psi: State, pinv: BiElement) -> float:
    """Lower end of the bracket: the objective at a / lip(a), a = P(delta).

    With delta = phi - psi and P removing the trace, a / lip(a) lies in the
    unit seminorm ball and gives |tr(delta a)| / lip(a).  The states may
    differ in trace within STATE_TOL, which P keeps out of the objective.
    """
    d = pinv.shape.dim
    delta = phi.as_element().data - psi.as_element().data
    a = delta - (np.trace(delta) / d) * np.eye(d)
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

    On all-ones shapes (method "auto") the exact value is returned as a
    zero-width bracket: a shortest-path length between point masses, and
    the cheapest transport at those lengths between other states.
    Otherwise (or with method "ascent") the lower end is
    |tr(delta a)| / lip(a) for the trace-free part a of delta = phi - psi,
    and a pure-state decomposition gives the upper end.  converged means
    the bracket has closed to BRACKET_TOL relative.  max_iter is accepted
    and has no effect: the lower end is computed in closed form, and
    iterations is always 0, as unbounded is always False.
    """
    rho = _rho_of(candidate)
    if phi.shape != rho.shape or psi.shape != rho.shape:
        raise ShapeMismatchError("states and candidate live over different shapes")
    if method not in ("auto", "ascent"):
        raise ValueError("method must be one of auto, ascent")
    if method == "auto" and rho.shape.is_classical:
        n = rho.shape.dim
        p, q = (np.diagonal(x.as_element().data).real for x in (phi, psi))
        value = exact_distance(np.diagonal(rho.data).real.reshape(n, n), p, q)
        return MKDistance(value, value, True, 0)
    lower = _mk_lower(phi, psi, metric_pseudo_inverse(candidate, cfg))
    upper = _mk_upper_bound(phi, psi, rho)
    converged = math.isfinite(upper) and upper - lower <= BRACKET_TOL * max(1.0, upper)
    return MKDistance(lower, upper, converged, 0)
