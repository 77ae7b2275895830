"""Feasibility search for quantum metrics by alternating projections.

The constraint system factors into three closed convex sets over the lifted
pair (rho, S), where S tracks the triangle slack operator:

  (a) an affine set: rho in the structural subspace (hermitian, supported,
      flip symmetric, and either vanishing against the diagonal projector or
      in the kernel of the multiplication map), with tr(rho) pinned to a
      target, coupled to S = rho (x) 1 + 1 (x) rho - mid(rho);
  (b) a shifted cone: rho at least the floor on the complement of the
      diagonal subspace and zero on the diagonal subspace;
  (c) the positive cone for S.

Dykstra's scheme cycles through the three projections with correction
terms, which converges to a point of the intersection whenever one exists.
The correction of the affine set (a) is normal to it and never moves its
projection, so only (b) and (c), which act on rho and S apart, carry one.
Candidates are only reported after certification by the axiom checker; a
failure to converge is reported as evidence, never as an infeasibility
proof.

Every projection keeps rho and S block diagonal by cells (see
`algebra.cells`), so the search holds only their cells and never forms
the dense D^3 x D^3 slack; (b) and (c) are stacked clips per cell group.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraShape,
    BiElement,
    _multiply,
    adjoints,
    as_shape,
    cells,
    diag_projector,
    hermitian_param_basis,
    permute_legs,
    random_element,
    require_finite,
    zero_clip,
)
from .axioms import (
    MODES,
    REPRESENTATION,
    AxiomReport,
    MetricCandidate,
    ToleranceConfig,
    triangle_slack_cells,
    verify,
)


@dataclass(frozen=True)
class SearchConfig:
    """Configuration of one feasibility search."""

    shape: AlgebraShape
    floor: float = 1e-3
    trace_target: float | None = None
    max_iter: int = 5000
    restarts: int = 4
    seed: int = 0
    residual_tol: float = 1e-8
    include_triangle: bool = True
    normalization: str = "trace"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", as_shape(self.shape))
        target = [] if self.trace_target is None else [self.trace_target]
        require_finite(
            np.asarray([self.floor, self.residual_tol, *target], dtype=float),
            "floor, residual_tol and trace_target",
        )
        if self.floor <= 0 or self.residual_tol <= 0:
            raise ValueError("floor and residual_tol must be positive")
        if self.max_iter < 1 or self.restarts < 1:
            raise ValueError("max_iter and restarts must be >= 1")
        if self.trace_target is not None and self.trace_target <= 0:
            raise ValueError("trace_target must be positive")
        if self.normalization not in ("trace", "opnorm"):
            raise ValueError("normalization must be 'trace' or 'opnorm'")

    @property
    def resolved_trace(self) -> float:
        if self.trace_target is not None:
            return float(self.trace_target)
        return float(self.shape.dim**2)

    def to_dict(self) -> dict:
        return {
            "shape": list(self.shape.blocks),
            "floor": self.floor,
            "trace_target": self.resolved_trace,
            "max_iter": self.max_iter,
            "restarts": self.restarts,
            "seed": self.seed,
            "residual_tol": self.residual_tol,
            "include_triangle": self.include_triangle,
            "normalization": self.normalization,
        }


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a feasibility search over all restarts."""

    status: str
    candidate: MetricCandidate | None
    residual_history: np.ndarray
    best_residual: float
    seed_used: int
    iterations_run: int
    restarts_run: int
    mode: str
    config: SearchConfig

    @property
    def found(self) -> bool:
        return self.status == "candidate_found"


def project_psd(x: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Nearest (Frobenius) hermitian matrix with spectrum bounded below by floor.

    Leading axes carry over, one clip per matrix; 1x1 matrices need no
    LAPACK call.
    """
    if x.shape[-1] == 1:
        return np.maximum(x.real, floor)
    vals, vecs = np.linalg.eigh((x + adjoints(x)) / 2.0)
    return (vecs * np.maximum(vals, floor)[..., None, :]) @ adjoints(vecs)


@lru_cache(maxsize=None)
def _structure_basis_cached(blocks: tuple[int, ...], mode: str) -> np.ndarray:
    shape = AlgebraShape(blocks)
    d = shape.dim
    params = hermitian_param_basis(shape, 2)
    n = params.shape[0]
    rows = [(params - permute_legs(params, (1, 0), (d, d))).reshape(n, -1)]
    if mode == REPRESENTATION:
        q = np.eye(d * d, dtype=complex) - diag_projector(shape).data
        compressed = q @ params @ q
        rows.append((params - compressed).reshape(n, -1))
    else:
        rows.append(_multiply(params, d).reshape(n, -1))
    cmat = np.concatenate(
        [np.concatenate([r.real, r.imag], axis=1) for r in rows], axis=1
    ).T
    _, s, vt = np.linalg.svd(cmat, full_matrices=False)
    tol = 1e-10 * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    null_vecs = vt[rank:]
    basis = np.einsum("ma,aij->mij", null_vecs, params)
    basis.setflags(write=False)
    return basis


def structure_basis(shape: AlgebraShape | Sequence[int], mode: str = REPRESENTATION) -> np.ndarray:
    """Orthonormal basis (stacked) of the structural subspace for a mode."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    return _structure_basis_cached(as_shape(shape).blocks, mode)


def project_structure(
    rho: BiElement, mode: str = REPRESENTATION
) -> BiElement:
    """Orthogonal projection onto the structural subspace.

    Hermitizes, flip-symmetrizes, restricts to the admissible support, and
    enforces the mode's diagonal condition, all in one orthogonal
    projection, so the map is idempotent by construction.
    """
    basis = structure_basis(rho.shape, mode)
    coeffs = np.einsum("nij,ij->n", basis.conj(), rho.data).real
    return BiElement(rho.shape, np.einsum("n,nij->ij", coeffs, basis))


def _layout(blocks: tuple[int, ...], order: int) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """The flat cell vector of order-fold elements: the cell groups one after another.

    Returns the flat position (row * N + col) in the dense N x N matrix
    of every entry, and the (cells, n, n) shape of each size's stretch.
    """
    dim = sum(blocks) ** order
    at = [g.index[:, :, None] * dim + g.index[:, None, :] for g in cells(blocks, order)]
    return np.concatenate([a.ravel() for a in at]), [a.shape for a in at]


def _clip(z: np.ndarray, groups: list) -> np.ndarray:
    """Each group of cells of z clipped by `project_psd`, zero outside the groups."""
    out = np.zeros_like(z)
    for cols, shape, u, uh, floor in groups:
        mats = z[cols].reshape(shape)
        if u is None:
            out[cols] = project_psd(mats, floor).ravel()
        else:
            out[cols] = (u @ project_psd(uh @ mats @ u, floor) @ uh).ravel()
    return out


def _cone_groups(blocks: tuple[int, ...], floor: float) -> list:
    """The clip groups of set (b) on the flat cell vector of rho.

    With u an isometry onto the range of a cell of 1 - P, P the diagonal
    projector, the cell x goes to u clip(u* x u, floor) u*.  A group holds
    the cells of one size and rank: (positions, stack shape, u, u*, floor),
    u None at full rank.  Rank-0 cells (1x1 diagonal cells) are in none.
    """
    pos, shapes = _layout(blocks, 2)
    p = diag_projector(blocks).data.ravel()[pos]
    groups, start = [], 0
    for c, n, _ in shapes:
        size = c * n * n
        vals, vecs = np.linalg.eigh(np.eye(n) - p[start : start + size].reshape(c, n, n))
        rank = np.count_nonzero(vals > 0.5, axis=1)
        for k in np.unique(rank[rank > 0]):
            sel = np.flatnonzero(rank == k)
            cols = (start + sel[:, None] * n * n + np.arange(n * n)).ravel()
            u = None if k == n else vecs[sel, :, n - k :]
            groups.append((cols, (len(sel), n, n), u, None if u is None else adjoints(u), floor))
        start += size
    return groups


class _SearchContext:
    """Projection data for one (shape, mode, config), held on cells.

    An iterate is one flat complex vector z: the cells of rho (see
    `_layout`), then those of the slack S unless the triangle is dropped.
    The rows of `span` are the structure basis and its triangle lift in
    the same coordinates.  A cell of S is clipped at 0, a cell of rho as
    `_cone_groups` says.
    """

    def __init__(self, cfg: SearchConfig, mode: str) -> None:
        self.cfg = cfg
        self.mode = mode
        self.shape = cfg.shape
        blocks = self.shape.blocks
        basis = structure_basis(self.shape, mode)
        m = basis.shape[0]
        if m == 0:
            raise ValueError(
                f"the structural subspace over blocks {blocks} is trivial"
            )
        self.traces = np.einsum("nii->n", basis).real
        self.pos, _ = _layout(blocks, 2)
        self.n_rho = len(self.pos)
        parts = [basis.reshape(m, -1)[:, self.pos]]
        if cfg.include_triangle:
            parts += [mats.reshape(m, -1) for _, mats in triangle_slack_cells(basis, blocks)]
        # real view: Re <w, z> = w.real . z.real + w.imag . z.imag is one real product
        self.span = np.ascontiguousarray(np.concatenate(parts, axis=1)).view(float)
        lift = self.span[:, 2 * self.n_rho :]
        h_inv = np.linalg.inv(np.eye(m) + lift @ lift.T)
        xc = h_inv @ self.traces
        c_dot_xc = float(self.traces @ xc)
        if abs(c_dot_xc) < 1e-14:
            raise ValueError(
                "no structural direction carries trace; the normalization "
                "cannot be pinned on this shape"
            )
        # the least-squares coefficients with the trace pinned: x = gain b + pinned
        self.gain = h_inv - np.outer(xc, xc) / c_dot_xc
        self.pinned = cfg.resolved_trace / c_dot_xc * xc
        self.cone = _cone_groups(blocks, cfg.floor)
        self.slack, start = [], self.n_rho
        for g in cells(blocks, 3) if cfg.include_triangle else []:
            c, n = g.index.shape
            self.slack.append((slice(start, start + c * n * n), (c, n, n), None, None, 0.0))
            start += c * n * n
        self.groups = self.cone + self.slack

    def coefficients(self, z: np.ndarray) -> np.ndarray:
        """Re <span_k, z> for every row of span; z may hold only rho's cells."""
        return self.span[:, : 2 * len(z)] @ z.view(float)

    def point(self, x: np.ndarray) -> np.ndarray:
        """The iterate sum_k x_k span_k for real coefficients x."""
        return (x @ self.span).view(complex)

    def project_affine(self, z: np.ndarray) -> np.ndarray:
        return self.point(self.gain @ self.coefficients(z) + self.pinned)

    def project_cones(self, z: np.ndarray) -> np.ndarray:
        """Sets (b) and (c); cells outside every group (1x1 diagonal cells) go to 0."""
        return _clip(z, self.groups)

    def cone_distances(self, z: np.ndarray) -> tuple[float, float]:
        """Frobenius distances of rho to set (b) and of S to set (c).

        The first is formed as an explicit projection difference, since
        aggregate norm identities would cancel catastrophically near
        feasibility; the second is the norm of S's negative eigenvalues.
        """
        rho = z[: self.n_rho]
        neg = [
            np.minimum(z[cols].real if n == 1 else np.linalg.eigvalsh(z[cols].reshape(c, n, n)), 0.0)
            for cols, (c, n, _), *_ in self.slack
        ]
        db = np.linalg.norm(rho - _clip(rho, self.cone))
        return float(db), float(np.sqrt(sum(np.vdot(v, v) for v in neg)))

    def rho(self, z: np.ndarray) -> np.ndarray:
        """The dense D^2 x D^2 matrix of rho's cells in z."""
        d2 = self.shape.dim**2
        out = np.zeros(d2 * d2, dtype=complex)
        out[self.pos] = z[: self.n_rho]
        return out.reshape(d2, d2)


def _certification_config(cfg: SearchConfig) -> ToleranceConfig:
    tol = max(1e-9, 100.0 * cfg.residual_tol)
    return ToleranceConfig(
        eq_tol=tol,
        psd_tol=tol,
        strict_floor=cfg.floor * 0.5,
        sample_count=8,
        seed=cfg.seed,
    )


def certify(
    rho: BiElement,
    cfg: SearchConfig,
    mode: str = REPRESENTATION,
    shape: AlgebraShape | Sequence[int] | None = None,
) -> AxiomReport:
    """Axiom verification with search-grade tolerances."""
    return verify(rho, _certification_config(cfg), mode=mode, shape=shape)


def _start_point(ctx: _SearchContext, rng: np.random.Generator) -> np.ndarray:
    for _ in range(64):
        g = random_element(ctx.shape, 2, rng).data
        coeffs = ctx.coefficients((g @ g.conj().T).ravel()[ctx.pos])
        tr = float(ctx.traces @ coeffs)
        if abs(tr) < 1e-10:
            continue
        return ctx.point(coeffs * (ctx.cfg.resolved_trace / tr))
    raise RuntimeError("failed to draw a usable starting point")


@dataclass
class _RestartResult:
    found: bool
    candidate: MetricCandidate | None
    history: np.ndarray
    best_residual: float
    iterations: int


def _run_restart(ctx: _SearchContext, rng: np.random.Generator) -> _RestartResult:
    cfg = ctx.cfg
    # z is always the projection onto the affine set (a); the Dykstra
    # correction of (a) is normal to it and never moves that projection
    z = ctx.project_affine(_start_point(ctx, rng))
    corr = np.zeros_like(z)
    history = np.empty((cfg.max_iter, 3))
    best = np.inf
    last_certify = -10**9
    for it in range(cfg.max_iter):
        # distances to (b) and (c) are measured here, where the iterate
        # satisfies (a) exactly; after the cone steps below they vanish
        # by construction
        db, dc = ctx.cone_distances(z)
        # sets (b) and (c): shifted cone on rho, positive cone on the slack
        y = z + corr
        cones = ctx.project_cones(y)
        corr = y - cones
        # set (a): affine structural/trace/coupling step
        z = ctx.project_affine(cones)
        da = float(np.linalg.norm(cones - z))
        history[it] = (da, db, dc)
        residual = max(da, db, dc)
        best = min(best, residual)
        if residual < cfg.residual_tol and it - last_certify >= 200:
            last_certify = it
            candidate_rho = BiElement(ctx.shape, zero_clip(ctx.rho(z)))
            report = certify(candidate_rho, cfg, ctx.mode)
            # with the triangle constraint dropped (diagnostic runs), gate
            # on the remaining axioms but attach the full report
            ok = all(
                rec.passed
                for rec in report.records
                if cfg.include_triangle or rec.axiom != "v"
            )
            if ok:
                cand = MetricCandidate(candidate_rho, report)
                return _RestartResult(True, cand, history[: it + 1], best, it + 1)
    return _RestartResult(False, None, history, best, cfg.max_iter)


def feasibility_search(cfg: SearchConfig, mode: str = REPRESENTATION) -> SearchOutcome:
    """Run the alternating-projection search over seeded restarts.

    Only candidates that pass certification are reported as found; the
    outcome with the smallest best residual (ties: lowest restart index)
    represents the search otherwise.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    ctx = _SearchContext(cfg, mode)
    results: list[_RestartResult] = []
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=cfg.seed, spawn_key=(restart,))
        )
        result = _run_restart(ctx, rng)
        results.append(result)
        if result.found:
            break
    found = [(k, r) for k, r in enumerate(results) if r.found]
    if found:
        k, r = found[0]
    else:
        k, r = min(enumerate(results), key=lambda kr: (kr[1].best_residual, kr[0]))
    candidate = r.candidate
    if candidate is not None and cfg.normalization == "opnorm":
        scale = candidate.diameter
        if scale > 0:
            rescaled = BiElement(cfg.shape, zero_clip(candidate.rho.data / scale))
            report = certify(rescaled, _rescaled_cfg(cfg, 1.0 / scale), mode)
            candidate = MetricCandidate(rescaled, report)
    return SearchOutcome(
        status="candidate_found" if r.found else "no_convergence",
        candidate=candidate,
        residual_history=r.history,
        best_residual=float(r.best_residual),
        seed_used=k,
        iterations_run=r.iterations,
        restarts_run=len(results),
        mode=mode,
        config=cfg,
    )


def _rescaled_cfg(cfg: SearchConfig, factor: float) -> SearchConfig:
    return replace(
        cfg, floor=cfg.floor * factor, trace_target=cfg.resolved_trace * factor, normalization="trace"
    )
