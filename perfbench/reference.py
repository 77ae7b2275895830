"""Independent references for the benchmark: input builders and oracles.

Nothing here imports qmetric.  The oracles are brute force (loops over
pairs and triples, the primal transport program) and follow the ones in
tests/oracles.py.  They are kept as a copy so that an edit to the tests
can change neither the benchmark's inputs nor its verdicts.

Matrices are written straight into the exchange format: a matrix document
carries `shape`, `order`, `rows`, `cols` and `data` as row-major [re, im]
pairs; a state document adds `trace`; a metric-space document is
{"n": points, "d": row-major distances}.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


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
    a_eq, b_eq = [], []
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
    if not res.success:
        raise RuntimeError(f"reference transport program failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# Input builders
# ---------------------------------------------------------------------------


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


def embed_classical(d: np.ndarray) -> np.ndarray:
    """Diagonal D^2 x D^2 matrix with d(x, y) at position (x, y)."""
    return np.diag(np.asarray(d, dtype=complex).ravel())


def m2_block(lam: float) -> np.ndarray:
    """The admissible two-level candidate: lam times the antisymmetric projector, doubled."""
    out = np.zeros((4, 4), dtype=complex)
    out[1, 1] = out[2, 2] = lam
    out[1, 2] = out[2, 1] = -lam
    return out


def direct_sum_matrix(r1: np.ndarray, d1: int, r2: np.ndarray, d2: int, r: float) -> np.ndarray:
    """rho1 on (A1, A1), rho2 on (A2, A2) and r times the identity on both cross cells."""
    d = d1 + d2
    out = np.zeros((d * d, d * d), dtype=complex)

    def cell(off1: int, n1: int, off2: int, n2: int) -> np.ndarray:
        return np.array([(off1 + i) * d + off2 + j for i in range(n1) for j in range(n2)])

    for block, idx in (
        (r1, cell(0, d1, 0, d1)),
        (r2, cell(d1, d2, d1, d2)),
        (r * np.eye(d1 * d2), cell(0, d1, d1, d2)),
        (r * np.eye(d2 * d1), cell(d1, d2, 0, d1)),
    ):
        out[np.ix_(idx, idx)] = block
    return out


def random_density_blocks(rng: np.random.Generator, blocks) -> list[np.ndarray]:
    """One positive density per block, all traces summing to one."""
    dens = []
    for n in blocks:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        dens.append(g @ g.conj().T)
    total = sum(float(np.trace(w).real) for w in dens)
    return [w / total for w in dens]


def block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    d = sum(b.shape[0] for b in blocks)
    out = np.zeros((d, d), dtype=complex)
    start = 0
    for b in blocks:
        n = b.shape[0]
        out[start : start + n, start : start + n] = b
        start += n
    return out


def matrix_doc(blocks, order: int, arr: np.ndarray) -> dict:
    arr = np.asarray(arr, dtype=complex)
    return {
        "shape": list(blocks),
        "order": order,
        "rows": arr.shape[0],
        "cols": arr.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in arr.ravel()],
    }


def state_doc(blocks, densities: list[np.ndarray]) -> dict:
    doc = matrix_doc(blocks, 1, block_diag(densities))
    doc["trace"] = float(sum(np.trace(w).real for w in densities))
    return doc


def metric_space_doc(d: np.ndarray) -> dict:
    return {"n": int(d.shape[0]), "d": [float(v) for v in np.asarray(d).ravel()]}


def doc_matrix(doc: dict) -> np.ndarray:
    """Dense matrix of an exchange matrix document."""
    flat = np.array([complex(re, im) for re, im in doc["data"]])
    return flat.reshape(int(doc["rows"]), int(doc["cols"]))
