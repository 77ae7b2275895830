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
Candidates are only reported after certification by the axiom checker; a
failure to converge is reported as evidence, never as an infeasibility
proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraShape,
    BiElement,
    as_shape,
    cells,
    diag_projector,
    hermitian_param_basis,
    random_element,
    zero_clip,
)
from .axioms import (
    MODES,
    REPRESENTATION,
    AxiomReport,
    MetricCandidate,
    ToleranceConfig,
    triangle_slack,
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
    """Nearest (Frobenius) matrix with spectrum bounded below by floor."""
    sym = (x + x.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(sym)
    return (vecs * np.maximum(vals, floor)) @ vecs.conj().T


@lru_cache(maxsize=None)
def _structure_basis_cached(blocks: tuple[int, ...], mode: str) -> np.ndarray:
    shape = AlgebraShape(blocks)
    d = shape.dim
    params = hermitian_param_basis(shape, 2)
    n = params.shape[0]
    folded = params.reshape(n, d, d, d, d)
    flipped = folded.transpose(0, 2, 1, 4, 3).reshape(n, d * d, d * d)
    rows = [(params - flipped).reshape(n, -1)]
    if mode == REPRESENTATION:
        q = np.eye(d * d, dtype=complex) - diag_projector(shape).data
        compressed = q @ params @ q
        rows.append((params - compressed).reshape(n, -1))
    else:
        mapped = np.einsum("npqqt->npt", folded)
        rows.append(mapped.reshape(n, -1))
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
    arr = _project_span(basis, rho.data)
    return BiElement(rho.shape, arr)


def _project_span(basis: np.ndarray, arr: np.ndarray) -> np.ndarray:
    if basis.shape[0] == 0:
        return np.zeros_like(arr)
    coeffs = np.einsum("nij,ij->n", basis.conj(), arr).real
    return np.einsum("n,nij->ij", coeffs, basis)


@lru_cache(maxsize=None)
def _offdiag_basis_cached(blocks: tuple[int, ...]) -> np.ndarray:
    """Columns spanning the complement of the diagonal subspace, cell-pure.

    A cross cell (i, j), i != j, gives a unit column per coordinate; a
    diagonal cell (i, i) gives (e_pq - e_qp) / sqrt(2) per local offset pair
    p < q.  Columns follow the label pairs in lexicographic order, then the
    row-major local offsets.
    """
    keys, plus, minus = [], [], []
    for g in cells(blocks, 2):
        key = g.labels @ (len(blocks), 1)
        cross = g.labels[:, 0] != g.labels[:, 1]
        keys.append(np.repeat(key[cross], g.index.shape[1]))
        plus.append(g.index[cross].ravel())
        minus.append(np.full(plus[-1].size, -1))
        if g.legs[0] == g.legs[1]:
            n = g.legs[0]
            p, q = np.triu_indices(n, 1)
            diag = g.index[~cross]
            keys.append(np.repeat(key[~cross], len(p)))
            plus.append(diag[:, p * n + q].ravel())
            minus.append(diag[:, q * n + p].ravel())
    order = np.argsort(np.concatenate(keys), kind="stable")
    plus, minus = np.concatenate(plus)[order], np.concatenate(minus)[order]
    d = sum(blocks)
    u = np.zeros((d * d, len(order)), dtype=complex)
    pair = minus >= 0
    u[plus, np.arange(len(order))] = np.where(pair, 1.0 / np.sqrt(2.0), 1.0)
    u[minus[pair], np.flatnonzero(pair)] = -1.0 / np.sqrt(2.0)
    u.setflags(write=False)
    return u


def _project_offdiag_cone(arr: np.ndarray, u: np.ndarray, floor: float) -> np.ndarray:
    """Projection onto {rho zero on the diagonal subspace, >= floor off it}."""
    if u.shape[1] == 0:
        return np.zeros_like(arr)
    comp = u.conj().T @ ((arr + arr.conj().T) / 2.0) @ u
    comp = (comp + comp.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(comp)
    lifted = (vecs * np.maximum(vals, floor)) @ vecs.conj().T
    return u @ lifted @ u.conj().T


class _SearchContext:
    """Precomputed projection data for one (shape, mode, config)."""

    def __init__(self, cfg: SearchConfig, mode: str) -> None:
        self.cfg = cfg
        self.mode = mode
        self.shape = cfg.shape
        self.d = self.shape.dim
        self.basis = structure_basis(self.shape, mode)
        m = self.basis.shape[0]
        if m == 0:
            raise ValueError(
                f"the structural subspace over blocks {self.shape.blocks} is trivial"
            )
        d2 = self.d * self.d
        self.basis_flat = self.basis.reshape(m, d2 * d2)
        self.traces = np.einsum("nii->n", self.basis).real
        if self.cfg.include_triangle:
            self.lifted_basis = np.stack([triangle_slack(b, self.d) for b in self.basis])
            d3 = self.d**3
            self.lifted_flat = self.lifted_basis.reshape(m, d3 * d3)
            gram = (self.lifted_flat.conj() @ self.lifted_flat.T).real
            h = np.eye(m) + gram
        else:
            self.lifted_basis = None
            self.lifted_flat = None
            h = np.eye(m)
        self.h_inv = np.linalg.inv(h)
        self.xc = self.h_inv @ self.traces
        self.c_dot_xc = float(self.traces @ self.xc)
        if abs(self.c_dot_xc) < 1e-14:
            raise ValueError(
                "no structural direction carries trace; the normalization "
                "cannot be pinned on this shape"
            )
        self.offdiag = _offdiag_basis_cached(self.shape.blocks)
        # scalar fast path when the complement of the diagonal is a line
        self.offdiag_outer = (
            np.outer(self.offdiag[:, 0], self.offdiag[:, 0].conj())
            if self.offdiag.shape[1] == 1
            else None
        )

    def project_affine(self, rho: np.ndarray, s: np.ndarray | None):
        b = (self.basis_flat.conj() @ rho.ravel()).real
        if self.cfg.include_triangle and s is not None:
            b = b + (self.lifted_flat.conj() @ s.ravel()).real
        x0 = self.h_inv @ b
        mu = (self.cfg.resolved_trace - self.traces @ x0) / self.c_dot_xc
        x = x0 + mu * self.xc
        d2 = self.d * self.d
        rho_new = (x @ self.basis_flat).reshape(d2, d2)
        s_new = None
        if self.cfg.include_triangle:
            d3 = self.d**3
            s_new = (x @ self.lifted_flat).reshape(d3, d3)
        return rho_new, s_new

    def project_cone(self, rho: np.ndarray) -> np.ndarray:
        if self.offdiag_outer is not None:
            u = self.offdiag[:, 0]
            c = float(np.real(u.conj() @ rho @ u))
            return max(c, self.cfg.floor) * self.offdiag_outer
        return _project_offdiag_cone(rho, self.offdiag, self.cfg.floor)

    def cone_distance(self, rho: np.ndarray) -> float:
        """Frobenius distance to the shifted-cone set.

        Formed as an explicit projection difference; aggregate norm
        identities would cancel catastrophically near feasibility.
        """
        return float(np.linalg.norm(rho - self.project_cone(rho)))

    def affine_distance(self, rho: np.ndarray, s: np.ndarray | None) -> float:
        pa_rho, pa_s = self.project_affine(rho, s)
        da_sq = float(np.linalg.norm(rho - pa_rho) ** 2)
        if self.cfg.include_triangle and s is not None:
            da_sq += float(np.linalg.norm(s - pa_s) ** 2)
        return float(np.sqrt(da_sq))


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


def _start_point(ctx: _SearchContext, rng: np.random.Generator):
    for _ in range(64):
        g = random_element(ctx.shape, 2, rng).data
        raw = g @ g.conj().T
        coeffs = np.einsum("nij,ij->n", ctx.basis.conj(), raw).real
        tr = float(ctx.traces @ coeffs)
        if abs(tr) < 1e-10:
            continue
        coeffs = coeffs * (ctx.cfg.resolved_trace / tr)
        rho = np.einsum("n,nij->ij", coeffs, ctx.basis)
        s = triangle_slack(rho, ctx.d) if ctx.cfg.include_triangle else None
        return rho, s
    raise RuntimeError("failed to draw a usable starting point")


def _polish_candidate(ctx: _SearchContext, rho: np.ndarray, s: np.ndarray | None) -> BiElement:
    pa_rho, _ = ctx.project_affine(rho, s)
    return BiElement(ctx.shape, zero_clip(pa_rho))


@dataclass
class _RestartResult:
    found: bool
    candidate: MetricCandidate | None
    history: np.ndarray
    best_residual: float
    iterations: int


def _run_restart(ctx: _SearchContext, rng: np.random.Generator) -> _RestartResult:
    cfg = ctx.cfg
    rho, s = _start_point(ctx, rng)
    with_s = cfg.include_triangle
    corr_a_rho = np.zeros_like(rho)
    corr_a_s = np.zeros_like(s) if with_s else None
    corr_b = np.zeros_like(rho)
    corr_c = np.zeros_like(s) if with_s else None
    history = np.empty((cfg.max_iter, 3))
    best = np.inf
    last_certify = -10**9
    for it in range(cfg.max_iter):
        # set (a): affine structural/trace/coupling step
        ya_rho = rho + corr_a_rho
        ya_s = s + corr_a_s if with_s else None
        rho, s = ctx.project_affine(ya_rho, ya_s)
        corr_a_rho = ya_rho - rho
        if with_s:
            corr_a_s = ya_s - s
        # distances to (b) and (c) are measured here, where the iterate
        # satisfies (a) exactly; after the cone steps below they vanish
        # by construction
        db = ctx.cone_distance(rho)
        dc = 0.0
        if with_s:
            vals = np.linalg.eigvalsh(s)
            dc = float(np.linalg.norm(np.minimum(vals, 0.0)))
        # set (b): shifted cone on the rho component
        yb = rho + corr_b
        rho = ctx.project_cone(yb)
        corr_b = yb - rho
        # set (c): positive cone on the slack component
        if with_s:
            yc = s + corr_c
            s = project_psd(yc)
            corr_c = yc - s
        da = ctx.affine_distance(rho, s)
        history[it] = (da, db, dc)
        residual = max(da, db, dc)
        best = min(best, residual)
        if residual < cfg.residual_tol and it - last_certify >= 200:
            last_certify = it
            candidate_rho = _polish_candidate(ctx, rho, s)
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
    return SearchConfig(
        shape=cfg.shape,
        floor=cfg.floor * factor,
        trace_target=cfg.resolved_trace * factor,
        max_iter=cfg.max_iter,
        restarts=cfg.restarts,
        seed=cfg.seed,
        residual_tol=cfg.residual_tol,
        include_triangle=cfg.include_triangle,
        normalization="trace",
    )
