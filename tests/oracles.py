"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (loops over pairs and triples, a
primal transport program, direct index arithmetic) and shares no code with
the package paths it checks.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.optimize import linprog

from qmetric import (
    AlgebraShape,
    AxiomRecord,
    BiElement,
    PureState,
    flip,
    min_eig,
    mult_map,
    op_norm,
    pure_state_bound,
    triangle_defect,
)


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


def ulps(value: float, steps: int) -> float:
    """value moved steps representable doubles up (steps > 0) or down."""
    for _ in range(abs(steps)):
        value = float(np.nextafter(value, np.inf if steps > 0 else -np.inf))
    return value


_BOUND = 2.0**1000


def _bound_fault(values: list, what: str, entry) -> str | None:
    """The error require_finite raises for a row-major list of floats, in plain loops, or None.

    A NaN anywhere, or an infinity with no finite value above 2**1000,
    gives the count of NaN and infinite values; else the first finite
    value above the bound is named by entry(k).
    """
    over = [k for k, v in enumerate(values) if math.isfinite(v) and abs(v) > _BOUND]
    if over and not any(math.isnan(v) for v in values):
        k = over[0]
        return f"{entry(k)} has magnitude {abs(values[k]):.6g}; finite values above 2**1000 (about 1.07e301) are rejected"
    bad = sum(not math.isfinite(v) for v in values)
    if bad:
        return f"{what} must be finite; found {bad} NaN or infinite entries"
    return None


def metric_space_fault(d) -> str | None:
    """The message FiniteMetricSpace(d) raises for a square d, or None when it accepts d.

    Checked entry by entry in plain loops, in the order the space checks:
    finiteness and the 2**1000 bound, symmetry (|d(i, j) - d(j, i)| <=
    1e-12 + 1e-5 |d(j, i)|), self-distances within 1e-12, positivity off
    the diagonal, then the first (i, j, k) with d(i, j) > d(i, k) + d(k, j)
    + 1e-12.
    """
    rows = [[float(v) for v in row] for row in np.asarray(d, dtype=float)]
    n = len(rows)
    fault = _bound_fault(
        [v for row in rows for v in row], "distance matrix", lambda k: f"distance {k} (d({k // n}, {k % n}))"
    )
    if fault:
        return fault
    pairs = [(i, j) for i in range(n) for j in range(n)]
    if any(not abs(rows[i][j] - rows[j][i]) <= 1e-12 + 1e-5 * abs(rows[j][i]) for i, j in pairs):
        return "distance matrix must be symmetric"
    if any(abs(rows[i][i]) > 1e-12 for i in range(n)):
        return "self-distances must be zero"
    if any(i != j and rows[i][j] <= 0 for i, j in pairs):
        return "distances between distinct points must be positive"
    for i, j in pairs:
        for k in range(n):
            if rows[i][j] > rows[i][k] + rows[k][j] + 1e-12:
                return f"triangle inequality fails on ({i}, {j}, {k})"
    return None


def state_fault(densities) -> str | None:
    """The message State raises for finite block densities of the right shapes, or None when it accepts them.

    Block by block in block order, self-adjointness before positivity:
    ||z - z*|| <= STATE_TOL max(1, ||z||) and the lowest eigenvalue of
    (z + z*) / 2 at least -STATE_TOL, a 1x1 block z by arithmetic on its
    entry (defect 2 |Im z|, norm |z|, eigenvalue Re z), a larger one by
    dense LAPACK calls on it alone; then the traces, added up in block
    order, within STATE_TOL of one.
    """
    tol = 1e-9
    total = 0.0
    for z in densities:
        z = np.asarray(z, dtype=complex)
        if z.shape == (1, 1):
            w = complex(z[0, 0])
            defect, norm, lowest, trace = 2.0 * abs(w.imag), abs(w), w.real, w.real
        else:
            defect = float(np.linalg.norm(z - z.conj().T, 2))
            norm = float(np.linalg.norm(z, 2))
            lowest = float(np.linalg.eigvalsh((z + z.conj().T) / 2.0)[0])
            trace = sum(float(z[i, i].real) for i in range(len(z)))
        if defect > tol * max(1.0, norm):
            return "block densities must be self-adjoint"
        if lowest < -tol:
            return "block densities must be positive semidefinite"
        total += trace
    if abs(total - 1.0) > tol:
        return f"total trace must be 1, got {total}"
    return None


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


def transport_lp_dual(d: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Kantorovich dual over the unit ball |a(x) - a(y)| <= d(x, y), one pair at a time.

    Both orders of every pair x != y give a constraint, so the ball needs
    no symmetric d; a(0) is pinned to zero.  The objective is scaled to
    unit size and solved at HiGHS's tightest tolerances, so weights that
    differ by about 1e-9 (a trace off 1 within the state tolerance) still
    count.
    """
    n = d.shape[0]
    c = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    scale = float(np.abs(c).max(initial=0.0)) or 1.0
    rows, bounds = [], []
    for x in range(n):
        for y in range(n):
            if x != y:
                for sign in (1.0, -1.0):
                    row = np.zeros(n)
                    row[x], row[y] = sign, -sign
                    rows.append(row)
                    bounds.append(d[x, y])
    res = linprog(
        c / scale,
        A_ub=np.asarray(rows).reshape(-1, n),
        b_ub=np.asarray(bounds),
        bounds=[(0.0, 0.0)] + [(None, None)] * (n - 1),
        method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert res.success, res.message
    return float(-res.fun) * scale


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


def seminorm_kernel(rho: BiElement, cut: float = 1e-10) -> np.ndarray:
    """The self-adjoint a with (a (x) 1 - 1 (x) a) rho^+ = 0, as a stack of D x D matrices.

    The map is built densely on this module's hermitian basis, rho^+ by a
    dense pseudo-inverse, and its kernel taken by SVD: the right singular
    vectors whose value is at most cut times the largest.
    """
    blocks = rho.shape.blocks
    basis = hermitian_param_basis(blocks, 1)
    pinv = np.linalg.pinv(rho.data, rcond=cut, hermitian=True)
    cols = np.stack([commutator_gap(b, pinv).ravel() for b in basis], axis=1)
    _, s, vh = np.linalg.svd(np.concatenate([cols.real, cols.imag]))
    return np.einsum("ka,aij->kij", vh[s <= cut * s[0]], basis)


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


def block_unitary(blocks, rng: np.random.Generator) -> np.ndarray:
    """A random block-diagonal unitary of C^D: one Haar unitary per block, by QR."""
    u = np.zeros((sum(blocks), sum(blocks)), dtype=complex)
    for a, b in _ranges(blocks):
        n = b - a
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u[a:b, a:b] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u


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


def structure_basis(blocks, mode: str) -> np.ndarray:
    """Orthonormal basis of the structural subspace, by an SVD over `hermitian_param_basis`.

    The conditions on rho are flip symmetry, S rho S = rho with S the swap,
    and in representation mode Q rho Q = rho with Q = 1 - the diagonal
    projector, in algebraic mode m(rho) = 0 by the defining sum.
    """
    d = sum(blocks)
    params = hermitian_param_basis(blocks, 2)
    swap = swap_matrix(d)
    q = np.eye(d * d) - diag_projector(blocks)
    columns = []
    for m in params:
        if mode == "representation":
            diag = m - q @ m @ q
        else:
            diag = multiply(m, d)
        columns.append(np.concatenate([(swap @ m @ swap - m).ravel(), diag.ravel()]))
    c = np.array(columns).T
    _, sv, vt = np.linalg.svd(np.concatenate([c.real, c.imag]), full_matrices=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    return np.einsum("ka,aij->kij", vt[rank:], params)


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


def tensor_product(rho1: np.ndarray, blocks1, rho2: np.ndarray, blocks2) -> np.ndarray:
    """rho1 (x) 1 + 1 (x) rho2, its composite coordinates (p, q) regrouped by grouping_permutation."""
    d1, d2 = sum(blocks1), sum(blocks2)
    raw = np.kron(rho1, np.eye(d2 * d2, dtype=complex)) + np.kron(np.eye(d1 * d1, dtype=complex), rho2)
    # legs (p1, p2, q1, q2) -> (p1, q1, p2, q2)
    mixed = raw.reshape((d1, d1, d2, d2) * 2).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(raw.shape)
    order = grouping_permutation(blocks1, blocks2)
    full = (order[:, None] * d1 * d2 + order[None, :]).ravel()
    return mixed[np.ix_(full, full)]


def complex_pairs(arr) -> list:
    """[re, im] pairs of an array's entries, one entry at a time."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(arr).ravel()]


# ---------------------------------------------------------------------------
# The exchange documents, built entry by entry from public attributes only,
# so that a writer's text, and each to_dict, is checked against an encoder
# and a builder that share nothing with the package's own.
# ---------------------------------------------------------------------------


def _clipped(v: float) -> float:
    return 0.0 if abs(v) < 1e-14 else v


def matrix_doc(x, **after) -> dict:
    """The matrix document of x, from x.data, each part below 1e-14 in magnitude an exact zero; after's fields last."""
    d = len(x.data)
    data = [[_clipped(re), _clipped(im)] for re, im in complex_pairs(x.data)]
    return {"shape": list(x.shape.blocks), "order": x.order, "rows": d, "cols": d, "data": data, **after}


def state_doc(state) -> dict:
    """The state document: its matrix document with the densities' summed trace."""
    return matrix_doc(state.as_element(), trace=sum(float(np.trace(w).real) for w in state.densities))


def record_doc(rec) -> dict:
    out = {"axiom": rec.axiom, "passed": bool(rec.passed), "margin": None if math.isnan(rec.margin) else float(rec.margin)}
    if rec.witness is not None:
        out["witness"] = complex_pairs(rec.witness)
    if rec.indeterminate:
        out["indeterminate"] = True
    if rec.note:
        out["note"] = rec.note
    return out


def report_doc(report) -> dict:
    return {
        "mode": report.mode,
        "shape": list(report.shape.blocks),
        "passed": all(bool(r.passed) for r in report.records),
        "records": [record_doc(r) for r in report.records],
        "tolerances": report.config.to_dict(),
        "seed": report.config.seed,
    }


def outcome_doc(outcome) -> dict:
    """The search outcome document; a history of n > 1000 rows keeps rows round(k (n - 1) / 999), k < 1000."""
    hist = np.asarray(outcome.residual_history, dtype=float)
    n = len(hist)
    picks = [round(k * (n - 1) / 999) for k in range(1000)] if hist.size and n > 1000 else range(n)
    cand = outcome.candidate
    return {
        "status": outcome.status,
        "best_residual": float(outcome.best_residual),
        "seed_used": int(outcome.seed_used),
        "iterations_run": int(outcome.iterations_run),
        "restarts_run": int(outcome.restarts_run),
        "mode": outcome.mode,
        "config": outcome.config.to_dict(),
        "residual_history": [[float(v) for v in hist[k]] for k in picks],
        "candidate": None if cand is None else matrix_doc(cand.rho),
        "report": None if cand is None or cand.report is None else report_doc(cand.report),
    }


# ---------------------------------------------------------------------------
# The algebraic nondegeneracy axiom iii_alg quantifies over the test
# elements nu: positive, flip symmetric, with m(nu) = 1.  The package decides
# it exactly on cells; these oracles probe that decision from both sides, a
# refuting nu built from a failing record's witness and random test elements
# that must not go below a passing record's margin.
# ---------------------------------------------------------------------------


def multiply(arr: np.ndarray, d: int) -> np.ndarray:
    """The multiplication map on a D^2 x D^2 matrix, by its defining sum."""
    out = np.zeros((d, d), dtype=complex)
    for p in range(d):
        for t in range(d):
            out[p, t] = sum(arr[p * d + q, q * d + t] for q in range(d))
    return out


def exempt_projector(blocks) -> np.ndarray:
    """The diagonal projector's part on the (k, k) cells with n_k = 1."""
    d = sum(blocks)
    out = np.zeros((d * d, d * d), dtype=complex)
    for a, b in _ranges(blocks):
        if b - a == 1:
            out[a * d + a, a * d + a] = 1.0
    return out


def swap_family(blocks, c: float) -> np.ndarray:
    """(+)_k (n_k 1 - F_k) on the (k, k) cells, with F_k the swap, and c 1 on every cross cell."""
    d = sum(blocks)
    label = [k for k, n in enumerate(blocks) for _ in range(n)]
    out = np.zeros((d * d, d * d), dtype=complex)
    for p in range(d):
        for q in range(d):
            if label[p] == label[q]:
                out[p * d + q, p * d + q] += blocks[label[p]]
                out[p * d + q, q * d + p] -= 1.0
            else:
                out[p * d + q, p * d + q] = c
    return out


def mult_one_samples(blocks, count: int, seed: int) -> list:
    """Random test elements, the canonical element first.

    Each other one adds a random positive flip-symmetric perturbation w to
    the canonical element, subtracts (y (x) 1 + 1 (x) y) / 2 with y = m(w),
    which restores m(nu) = 1, and mixes toward the identity until positive.
    """
    d = sum(blocks)
    mask = support_mask(tuple(blocks), 2)
    swap, eye = swap_matrix(d), np.eye(d)
    base = canonical_mult_one(blocks)
    rng = np.random.default_rng(seed)
    out = [base]
    for _ in range(count - 1):
        g = (rng.standard_normal(mask.shape) + 1j * rng.standard_normal(mask.shape)) * mask
        w = g @ g.conj().T
        w = (w + swap @ w @ swap) / 2.0
        w *= 0.5 / max(1.0, np.linalg.norm(w, 2))
        y = multiply(w, d)
        nu = base + w - (np.kron(y, eye) + np.kron(eye, y)) / 2.0
        nu = (nu + nu.conj().T) / 2.0
        lam = np.linalg.eigvalsh(nu)[0]
        if lam < 0:
            c = -lam / (1.0 - lam)
            nu = (1.0 - c) * nu + c * np.eye(d * d)
        out.append(nu)
    return out


def least_singular_value(rho: BiElement, nus) -> float:
    """The least smallest singular value of rho + nu over the test elements, densely."""
    return min(float(np.linalg.svd(rho.data + nu, compute_uv=False)[-1]) for nu in nus)


def takagi_unitary(xs: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """A unitary U with xs = U S U^T, S >= 0 diagonal, for complex symmetric xs.

    The columns for the positive values s are u = a + ib, (a, b) an
    eigenvector of [[Re xs, Im xs], [Im xs, -Re xs]] for s; they satisfy
    xs conj(u) = s u.  Any orthonormal completion serves for s = 0, since
    xs conj(v) = 0 for every v orthogonal to them (Horn & Johnson, Matrix
    Analysis, 2nd ed., Cor. 4.4.4).
    """
    n = len(xs)
    vals, vecs = np.linalg.eigh(np.block([[xs.real, xs.imag], [xs.imag, -xs.real]]))
    keep = vals > tol * max(1.0, vals[-1])
    u = vecs[:n, keep] + 1j * vecs[n:, keep]
    q, _ = np.linalg.qr(u, mode="complete")
    return np.concatenate([u, q[:, u.shape[1] :]], axis=1)


def refuting_nu(blocks, witness: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """A test element nu that kills the witness x of a refuted iii_alg record.

    x must lie in one cell.  On a cross cell the canonical element, which is
    zero there, kills it.  On a (k, k) cell with n = n_k >= 2, let X_s be
    the symmetric n x n matrix of (x + Fx) / 2.  The cell of nu is
    |Omega><Omega|, Omega = sum_p e_p (x) e_p, when X_s = 0, and otherwise
    sum_{p<q} |w_pq><w_pq| / (n - 1) with w_pq = vec(U (E_pq + E_qp) U^T)
    and X_s = U S U^T the Takagi form.  Each w_pq is symmetric, so nu kills
    the antisymmetric part of x; <w_pq, x_s> = tr((E_pq + E_qp) S) = 0; and
    m(|w><w|) = W W* for symmetric W sums to (n - 1) 1.  The other diagonal
    cells keep the canonical element.
    """
    d = sum(blocks)
    label = [k for k, n in enumerate(blocks) for _ in range(n)]
    hit = {(label[i // d], label[i % d]) for i in np.flatnonzero(np.abs(witness) > tol)}
    assert len(hit) == 1, f"the witness spans the cells {sorted(hit)}"
    ((k, l),) = hit
    nu = canonical_mult_one(blocks)
    if k != l:
        return nu
    n = blocks[k]
    if n == 1:
        raise ValueError("m(nu) = 1 makes nu = 1 on a 1x1 diagonal cell; nothing refutes there")
    a, b = _ranges(blocks)[k]
    idx = [p * d + q for p in range(a, b) for q in range(a, b)]
    x = witness[idx].reshape(n, n)
    xs = (x + x.T) / 2.0
    if np.abs(xs).max() <= tol:
        ws, weight = [np.eye(n).ravel()], 1.0
    else:
        u = takagi_unitary(xs, tol)
        units = np.eye(n)
        ws = [
            (u @ (np.outer(units[p], units[q]) + np.outer(units[q], units[p])) @ u.T).ravel()
            for p in range(n)
            for q in range(p + 1, n)
        ]
        weight = 1.0 / (n - 1)
    nu[np.ix_(idx, idx)] = weight * sum(np.outer(w, w.conj()) for w in ws)
    return nu


# ---------------------------------------------------------------------------
# Checks iv, iii and ii_alg on the intermediate elements they were first
# written with: flip(rho) - rho, rho + P and m(rho), each built and validated
# as an element and solved on its own cells.  Dense LAPACK on the .data of
# those elements agrees with them only to rounding, so these forms are the
# ones the package's records must equal bit for bit.
# ---------------------------------------------------------------------------


def flip_symmetric_record(rho: BiElement, cfg, scale: float) -> AxiomRecord:
    defect = op_norm(flip(rho) - rho)
    return AxiomRecord("iv", defect <= cfg.eq_tol * scale, -defect)


def nondegenerate_record(rho: BiElement, cfg) -> AxiomRecord:
    """Check iii with its prerequisites taken as met; P is the index-loop projector below, times the norm."""
    scale = op_norm(rho) or 1.0
    lam, vec = min_eig(rho + scale * BiElement(rho.shape, diag_projector(rho.shape.blocks)))
    margin = lam - cfg.resolved_floor(scale)
    return AxiomRecord("iii", margin >= 0, margin, witness=None if margin >= 0 else vec)


def alg_diag_record(rho: BiElement, cfg, scale: float) -> AxiomRecord:
    defect = op_norm(mult_map(rho))
    return AxiomRecord("ii_alg", defect <= cfg.eq_tol * scale, -defect)


# ---------------------------------------------------------------------------
# The feasibility search's projections on dense matrices: the D^2 x D^2 rho,
# the D^3 x D^3 slack S, the structure basis lifted through the dense slack,
# and the off-diagonal columns above.  The search holds only the cells.  The
# structure basis is the one above, and the dense slack is
# `triangle_defect`, the reference the cell kernel is checked on.
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
        self.basis = structure_basis(shape.blocks, mode)
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
