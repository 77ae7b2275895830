"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (loops over pairs and triples, a
primal transport program, direct index arithmetic) and shares no code with
the package paths it checks.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from qmetric import AlgebraShape, BiElement, PureState, pure_state_bound, triangle_defect
from qmetric.search import structure_basis


def classical_axioms(d: np.ndarray, tol: float = 1e-12) -> dict:
    """Brute-force check of the five classical metric axioms on a matrix."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    nonneg = bool(np.all(d >= -tol))
    zero_diag = bool(np.all(np.abs(np.diag(d)) <= tol))
    nondeg = all(d[x, y] > tol for x in range(n) for y in range(n) if x != y)
    symmetric = bool(np.all(np.abs(d - d.T) <= tol))
    triangle = all(
        d[x, y] <= d[x, z] + d[z, y] + tol
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )
    return {
        "i": nonneg,
        "ii": zero_diag,
        "iii": nondeg,
        "iv": symmetric,
        "v": triangle,
        "all": nonneg and zero_diag and nondeg and symmetric and triangle,
    }


def embed_distance_matrix(d: np.ndarray) -> BiElement:
    """Diagonal embedding of an arbitrary square matrix, without validation."""
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    data = np.zeros((n * n, n * n), dtype=complex)
    for x in range(n):
        for y in range(n):
            data[x * n + y, x * n + y] = d[x, y]
    return BiElement(AlgebraShape((1,) * n), data)


def lipschitz_constant(d: np.ndarray, values: np.ndarray) -> float:
    """Best Lipschitz constant of a function on a finite metric space."""
    n = d.shape[0]
    best = 0.0
    for x in range(n):
        for y in range(n):
            if x != y:
                best = max(best, abs(values[x] - values[y]) / d[x, y])
    return best


def transport_lp_primal(d: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Primal Kantorovich program: cheapest coupling of p and q under cost d."""
    n = d.shape[0]
    cost = np.asarray(d, dtype=float).ravel()
    a_eq = []
    b_eq = []
    for x in range(n):
        row = np.zeros(n * n)
        row[x * n : (x + 1) * n] = 1.0
        a_eq.append(row)
        b_eq.append(p[x])
    for y in range(n):
        row = np.zeros(n * n)
        row[y::n] = 1.0
        a_eq.append(row)
        b_eq.append(q[y])
    res = linprog(
        cost,
        A_eq=np.asarray(a_eq),
        b_eq=np.asarray(b_eq),
        bounds=[(0, None)] * (n * n),
        method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


def random_metric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random valid metric: shortest-path closure of random symmetric weights."""
    w = rng.uniform(0.2, 2.0, size=(n, n)) * scale
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i, j] = min(d[i, j], d[i, k] + d[k, j])
    return d


def plant_triangle_violation(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    """Stretch one distance well past a two-leg path, keeping symmetry."""
    n = d.shape[0]
    out = d.copy()
    x, y, z = rng.permutation(n)[:3]
    out[x, y] = out[y, x] = d[x, z] + d[z, y] + 0.5
    return out


def plant_negativity(rng: np.random.Generator, d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    out = d.copy()
    x, y = rng.permutation(n)[:2]
    out[x, y] = out[y, x] = -0.3
    return out


# ---------------------------------------------------------------------------
# The transport bracket's pieces on dense matrices: the seminorm map with
# Kronecker products, and the pure-state upper end one pair at a time
# through the public `pure_state_bound`.
# ---------------------------------------------------------------------------


def commutator_gap(a: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """(a (x) 1 - 1 (x) a) pinv as one dense D^2 x D^2 matrix."""
    eye = np.eye(a.shape[0], dtype=complex)
    return (np.kron(a, eye) - np.kron(eye, a)) @ pinv


def pure_decomposition(state, weight_tol: float = 1e-12) -> list:
    """(weight, block, unit vector) for each eigenvector of each block density."""
    parts = []
    for k, dens in enumerate(state.densities):
        vals, vecs = np.linalg.eigh((dens + dens.conj().T) / 2.0)
        for w, v in zip(vals, vecs.T):
            if w > weight_tol:
                parts.append((float(w), k, v / np.linalg.norm(v)))
    return parts


def pair_bound(rho: BiElement, i: int, v: np.ndarray, j: int, w: np.ndarray) -> float:
    """Bound on the distance between two block vector states.

    Cross-block pairs take `pure_state_bound`; a same-block pair is 0 for
    equal vectors and otherwise routed through the best basis vector of
    another block.
    """
    shape = rho.shape
    if i != j:
        return pure_state_bound(PureState(shape, i, v), PureState(shape, j, w), rho)
    if abs(np.vdot(v, w)) >= 1.0 - 1e-12:
        return 0.0
    best = math.inf
    for l, n in enumerate(shape.blocks):
        if l == i:
            continue
        for u in np.eye(n, dtype=complex):
            mid = PureState(shape, l, u)
            via = pure_state_bound(PureState(shape, i, v), mid, rho) + pure_state_bound(
                mid, PureState(shape, j, w), rho
            )
            best = min(best, via)
    return best


def pure_state_upper_bound(phi, psi, rho: BiElement) -> float:
    """Weighted sum of `pair_bound` over the pure components of phi and psi."""
    total = 0.0
    for pw, i, v in pure_decomposition(phi):
        for qw, j, w in pure_decomposition(psi):
            b = pair_bound(rho, i, v, j, w)
            if math.isinf(b):
                return math.inf
            total += pw * qw * b
    return total


# ---------------------------------------------------------------------------
# Block layout by direct index arithmetic: the loop forms of the structures
# the package builds from `algebra.cells`.  Coordinate (p, q) of C^D (x) C^D
# is p * D + q.
# ---------------------------------------------------------------------------


def _ranges(blocks) -> list:
    out, start = [], 0
    for n in blocks:
        out.append((start, start + n))
        start += n
    return out


def swap_matrix(n: int) -> np.ndarray:
    s = np.zeros((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            s[i * n + j, j * n + i] = 1.0
    return s


def diag_projector(blocks) -> np.ndarray:
    d = sum(blocks)
    out = np.zeros((d * d, d * d), dtype=complex)
    for a, b in _ranges(blocks):
        n = b - a
        idx = [i * d + j for i in range(a, b) for j in range(a, b)]
        out[np.ix_(idx, idx)] = (np.eye(n * n, dtype=complex) + swap_matrix(n)) / 2.0
    return out


def canonical_mult_one(blocks) -> np.ndarray:
    p = diag_projector(blocks)
    d = sum(blocks)
    for (a, b), n in zip(_ranges(blocks), blocks):
        idx = [i * d + j for i in range(a, b) for j in range(a, b)]
        p[np.ix_(idx, idx)] *= 2.0 / (n + 1)
    return p


def _admissible(blocks, order: int, r: int, c: int) -> bool:
    """Whether entry (r, c) of an order-fold matrix pairs equal blocks on every leg."""
    d = sum(blocks)
    label = [k for k, n in enumerate(blocks) for _ in range(n)]
    for leg in range(order):
        step = d ** (order - 1 - leg)
        if label[r // step % d] != label[c // step % d]:
            return False
    return True


@functools.lru_cache(maxsize=None)
def support_mask(blocks: tuple, order: int) -> np.ndarray:
    """Admissibility of every entry of an order-fold matrix, one entry at a time."""
    d = sum(blocks) ** order
    mask = np.array([[_admissible(blocks, order, r, c) for c in range(d)] for r in range(d)])
    mask.setflags(write=False)
    return mask


def hermitian_param_basis(blocks, order: int) -> np.ndarray:
    d = sum(blocks) ** order
    mats = []
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for a in range(d):
        for b in range(a, d):
            if not _admissible(blocks, order, a, b):
                continue
            m = np.zeros((d, d), dtype=complex)
            if a == b:
                m[a, a] = 1.0
                mats.append(m)
            else:
                m[a, b] = inv_sqrt2
                m[b, a] = inv_sqrt2
                mats.append(m)
                m2 = np.zeros((d, d), dtype=complex)
                m2[a, b] = 1j * inv_sqrt2
                m2[b, a] = -1j * inv_sqrt2
                mats.append(m2)
    return np.stack(mats)


def offdiag_basis(blocks) -> np.ndarray:
    d = sum(blocks)
    ranges = _ranges(blocks)
    cols = []
    for i, (a1, b1) in enumerate(ranges):
        for j, (a2, b2) in enumerate(ranges):
            if i != j:
                for p in range(a1, b1):
                    for q in range(a2, b2):
                        e = np.zeros(d * d, dtype=complex)
                        e[p * d + q] = 1.0
                        cols.append(e)
            else:
                for p in range(a1, b1):
                    for q in range(p + 1, b1):
                        e = np.zeros(d * d, dtype=complex)
                        e[p * d + q] = 1.0 / np.sqrt(2.0)
                        e[q * d + p] = -1.0 / np.sqrt(2.0)
                        cols.append(e)
    if not cols:
        return np.zeros((d * d, 0), dtype=complex)
    return np.column_stack(cols)


def direct_sum(rho1: np.ndarray, d1: int, rho2: np.ndarray, d2: int, r: float) -> np.ndarray:
    d = d1 + d2
    data = np.zeros((d * d, d * d), dtype=complex)

    def embed(block_rho, off1, off2, n1, n2):
        rows = [(off1 + i) * d + (off2 + j) for i in range(n1) for j in range(n2)]
        data[np.ix_(rows, rows)] += block_rho

    embed(rho1, 0, 0, d1, d1)
    embed(rho2, d1, d1, d2, d2)
    embed(r * np.eye(d1 * d2, dtype=complex), 0, d1, d1, d2)
    embed(r * np.eye(d2 * d1, dtype=complex), d1, 0, d2, d1)
    return data


def grouping_permutation(blocks1, blocks2) -> np.ndarray:
    lab1 = [k for k, n in enumerate(blocks1) for _ in range(n)]
    lab2 = [k for k, n in enumerate(blocks2) for _ in range(n)]
    d1, d2 = len(lab1), len(lab2)
    keys = [(lab1[p], lab2[q], p, q) for p in range(d1) for q in range(d2)]
    return np.asarray(sorted(range(d1 * d2), key=lambda k: keys[k]), dtype=np.intp)


def complex_pairs(arr) -> list:
    """[re, im] pairs of an array's entries, one entry at a time."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).ravel()]


def alg_nondegenerate_loop(rho: BiElement, nus, eq_tol: float) -> tuple[bool, float, np.ndarray | None]:
    """The sampled iii_alg check, one sample and one cell at a time.

    For each nu, the smallest singular value of every cell of rho + nu.
    The first sample with a strictly smaller value wins; within a sample,
    the first cell in the order (cell size, leg sizes, block labels).
    Returns (passed, margin, witness), the witness None on a pass.
    """
    blocks = rho.shape.blocks
    d = sum(blocks)
    ranges = _ranges(blocks)
    pairs = sorted(
        itertools.product(range(len(blocks)), repeat=2),
        key=lambda k: (blocks[k[0]] * blocks[k[1]], blocks[k[0]], blocks[k[1]]),
    )
    worst, witness = np.inf, None
    for nu in nus:
        total = rho.data + nu.data
        for k1, k2 in pairs:
            idx = [p * d + q for p in range(*ranges[k1]) for q in range(*ranges[k2])]
            cell = total[np.ix_(idx, idx)]
            if len(idx) == 1:
                s, vh = np.abs(cell[0]), np.ones((1, 1), dtype=complex)
            else:
                _, s, vh = np.linalg.svd(cell)
            smin, vec = s[-1], vh[-1].conj()
            if smin < worst:
                worst = float(smin)
                witness = np.zeros(d * d, dtype=complex)
                witness[idx] = vec
    margin = worst - eq_tol
    return margin > 0, margin, None if margin > 0 else witness


# ---------------------------------------------------------------------------
# The feasibility search's projections on dense matrices: the D^2 x D^2 rho,
# the D^3 x D^3 slack S, the structure basis lifted through the dense slack,
# and the off-diagonal columns above.  The search holds only the cells.  The
# structure basis is the package's, which its own tests pin, and the dense
# slack is `triangle_defect`, the reference the cell kernel is checked on.
# ---------------------------------------------------------------------------


def dense_psd(x: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Nearest hermitian matrix with spectrum at least floor, by one dense eigh."""
    vals, vecs = np.linalg.eigh((x + x.conj().T) / 2.0)
    return (vecs * np.maximum(vals, floor)) @ vecs.conj().T


class DenseSearchContext:
    """The three projection sets of the search, on dense matrices."""

    def __init__(self, cfg, mode: str) -> None:
        self.cfg = cfg
        shape = cfg.shape
        self.basis = structure_basis(shape, mode)
        m = self.basis.shape[0]
        self.basis_flat = self.basis.reshape(m, -1)
        self.traces = np.einsum("nii->n", self.basis).real
        if cfg.include_triangle:
            lifted = np.stack([triangle_defect(BiElement(shape, b)).data for b in self.basis])
            self.lifted_flat = lifted.reshape(m, -1)
            h = np.eye(m) + (self.lifted_flat.conj() @ self.lifted_flat.T).real
        else:
            h = np.eye(m)
        self.h_inv = np.linalg.inv(h)
        self.xc = self.h_inv @ self.traces
        self.c_dot_xc = float(self.traces @ self.xc)
        self.offdiag = offdiag_basis(shape.blocks)

    def project_affine(self, rho: np.ndarray, s: np.ndarray | None):
        b = (self.basis_flat.conj() @ rho.ravel()).real
        if s is not None:
            b = b + (self.lifted_flat.conj() @ s.ravel()).real
        x0 = self.h_inv @ b
        x = x0 + (self.cfg.resolved_trace - self.traces @ x0) / self.c_dot_xc * self.xc
        rho_new = (x @ self.basis_flat).reshape(rho.shape)
        return rho_new, None if s is None else (x @ self.lifted_flat).reshape(s.shape)

    def project_cone(self, rho: np.ndarray) -> np.ndarray:
        """Zero on the diagonal subspace, at least the floor off it."""
        u = self.offdiag
        if u.shape[1] == 0:
            return np.zeros_like(rho)
        return u @ dense_psd(u.conj().T @ rho @ u, self.cfg.floor) @ u.conj().T

    def cone_distance(self, rho: np.ndarray) -> float:
        return float(np.linalg.norm(rho - self.project_cone(rho)))

    def slack_distance(self, s: np.ndarray) -> float:
        return float(np.linalg.norm(np.minimum(np.linalg.eigvalsh(s), 0.0)))

    def affine_distance(self, rho: np.ndarray, s: np.ndarray | None) -> float:
        pa_rho, pa_s = self.project_affine(rho, s)
        da_sq = float(np.linalg.norm(rho - pa_rho) ** 2)
        if s is not None:
            da_sq += float(np.linalg.norm(s - pa_s) ** 2)
        return float(np.sqrt(da_sq))
