"""Quantum metric axiom checks with signed margins.

A candidate metric is an element rho of A (x) A.  Two axiom sets are
supported.  In "representation" mode the diagonal conditions are phrased
against the quantum-diagonal projector: rho must be positive (i),
annihilate the diagonal projector (ii), be bounded below away from zero on
the complement of the diagonal (iii), be flip symmetric (iv), and satisfy
the operator triangle inequality (v).  In "algebraic" mode (ii) and (iii)
are replaced by multiplication-map conditions: m(rho) = 0 (ii_alg) and
invertibility of rho + nu for every positive flip-symmetric nu with
m(nu) = 1 (iii_alg, checked by sampling, so a pass means "not falsified").

Every check returns a record with a signed margin (positive means satisfied
with slack) instead of raising, so failing candidates produce a complete
diagnostic profile.

The spectral work runs on the cells of rho (see `algebra.cells`): rho is
the direct sum of its K^2 pair cells and the triangle slack of its K^3
triple cells, so the cost grows with the sum of the cell sizes cubed, not
with D^9.  The triangle check builds each slack cell straight from the
cells of rho and never forms the D^3 x D^3 slack; `triangle_defect` keeps
the dense slack as the reference the tests compare against.  The
feasibility search lifts its whole structure basis through
`triangle_slack_cells` in one call.

The test elements nu of the sampled iii_alg check depend only on (shape,
count, seed), never on rho: they are drawn once per process and cached, and
every rho + nu is solved in one stacked SVD per cell size.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    AlgebraShape,
    BiElement,
    CellStacks,
    ShapeMismatchError,
    TriElement,
    _multiply,
    adjoints,
    as_shape,
    assemble,
    cell_stacks,
    cells,
    cellwise_eigh,
    cellwise_min_singular,
    cellwise_norm,
    complex_pairs,
    diag_projector,
    flip,
    hermitian_defect,
    lowest_eigenpair,
    mult_map,
    op_norm,
    permute_legs,
    random_element,
    require_finite,
)

REPRESENTATION = "representation"
ALGEBRAIC = "algebraic"
MODES = (REPRESENTATION, ALGEBRAIC)

# Relative nondegeneracy floor used when ToleranceConfig.strict_floor is None.
DEFAULT_FLOOR_REL = 1e-8


@dataclass(frozen=True)
class ToleranceConfig:
    """Numeric tolerances for axiom checking.

    eq_tol and psd_tol are applied on the unit-normalized candidate.  The
    nondegeneracy floor is absolute; when strict_floor is None it resolves
    to DEFAULT_FLOOR_REL times the candidate norm (absolute DEFAULT_FLOOR_REL
    for a zero candidate).  sample_count and seed drive the sampled
    invertibility check.
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-9
    strict_floor: float | None = None
    sample_count: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        floor = [] if self.strict_floor is None else [self.strict_floor]
        require_finite(np.asarray([self.eq_tol, self.psd_tol, *floor], dtype=float), "tolerances")
        if self.eq_tol < 0 or self.psd_tol < 0:
            raise ValueError("tolerances must be nonnegative")
        if self.strict_floor is not None and self.strict_floor <= 0:
            raise ValueError("strict_floor must be positive when given")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")

    def resolved_floor(self, scale: float) -> float:
        if self.strict_floor is not None:
            return self.strict_floor
        return DEFAULT_FLOOR_REL * scale if scale > 0 else DEFAULT_FLOOR_REL

    def to_dict(self) -> dict:
        return {
            "eq_tol": self.eq_tol,
            "psd_tol": self.psd_tol,
            "strict_floor": self.strict_floor,
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class AxiomRecord:
    """Outcome of a single axiom check.

    margin is signed: positive means satisfied with that much slack.  An
    indeterminate record marks a check whose preconditions failed; its
    margin is NaN.
    """

    axiom: str
    passed: bool
    margin: float
    witness: np.ndarray | None = None
    indeterminate: bool = False
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {
            "axiom": self.axiom,
            "passed": bool(self.passed),
            "margin": None if np.isnan(self.margin) else float(self.margin),
        }
        if self.witness is not None:
            out["witness"] = complex_pairs(self.witness)
        if self.indeterminate:
            out["indeterminate"] = True
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class AxiomReport:
    """Full verdict of one verification run."""

    mode: str
    shape: AlgebraShape
    records: tuple[AxiomRecord, ...]
    config: ToleranceConfig

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def record(self, axiom: str) -> AxiomRecord:
        for r in self.records:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    @property
    def failing(self) -> tuple[str, ...]:
        return tuple(r.axiom for r in self.records if not r.passed)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "shape": list(self.shape.blocks),
            "passed": self.passed,
            "records": [r.to_dict() for r in self.records],
            "tolerances": self.config.to_dict(),
            "seed": self.config.seed,
        }


@dataclass(frozen=True)
class MetricCandidate:
    """A candidate metric element bundled with its verification status."""

    rho: BiElement
    report: AxiomReport | None = None

    @property
    def shape(self) -> AlgebraShape:
        return self.rho.shape

    @property
    def diameter(self) -> float:
        return op_norm(self.rho)

    def verified(self, mode: str = REPRESENTATION) -> bool:
        return self.report is not None and self.report.mode == mode and self.report.passed


def _cfg(cfg: ToleranceConfig | None) -> ToleranceConfig:
    return cfg if cfg is not None else ToleranceConfig()


def check_positive(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Positivity: rho self-adjoint and with nonnegative spectrum."""
    cfg = _cfg(cfg)
    stacks = rho.cells
    herm_defect = hermitian_defect(stacks)
    margin, vec = lowest_eigenpair(cellwise_eigh(stacks))
    selfadj = herm_defect <= cfg.eq_tol * scale
    passed = selfadj and margin >= -cfg.psd_tol * scale
    witness = None if passed else vec
    note = "" if selfadj else f"self-adjointness defect {herm_defect:.3e}"
    return AxiomRecord("i", passed, margin, witness=witness, note=note)


def check_flip_symmetric(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Flip symmetry: swapping the two tensor legs leaves rho unchanged."""
    cfg = _cfg(cfg)
    defect = op_norm(flip(rho) - rho)
    return AxiomRecord("iv", defect <= cfg.eq_tol * scale, -defect)


def check_diag_vanish(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Diagonal vanishing: rho annihilates the diagonal projector."""
    cfg = _cfg(cfg)
    p = diag_projector(rho.shape)
    defect = cellwise_norm([(i, r @ q) for (i, r), (_, q) in zip(rho.cells, p.cells)])
    return AxiomRecord("ii", defect <= cfg.eq_tol * scale, -defect)


def check_nondegenerate(
    rho: BiElement,
    cfg: ToleranceConfig | None = None,
    scale: float | None = None,
    prerequisites_ok: bool | None = None,
) -> AxiomRecord:
    """Nondegeneracy: rho bounded below by the floor off the diagonal.

    Operationalized as lambda_min(rho + P) >= floor, with P the diagonal
    projector; equivalent to invertibility of the compression of rho to the
    complement of the diagonal once positivity and diagonal vanishing hold.
    When those prerequisites fail the restriction is ill-defined and the
    record is flagged indeterminate.
    """
    cfg = _cfg(cfg)
    if scale is None:
        scale = op_norm(rho) or 1.0
    if prerequisites_ok is None:
        prerequisites_ok = (
            check_positive(rho, cfg, scale).passed and check_diag_vanish(rho, cfg, scale).passed
        )
    if not prerequisites_ok:
        return AxiomRecord(
            "iii",
            False,
            float("nan"),
            indeterminate=True,
            note="positivity or diagonal vanishing failed; restriction ill-defined",
        )
    floor = cfg.resolved_floor(op_norm(rho))
    lam, vec = lowest_eigenpair(cellwise_eigh((rho + diag_projector(rho.shape)).cells))
    margin = lam - floor
    witness = None if margin >= 0 else vec
    return AxiomRecord("iii", margin >= 0, margin, witness=witness)


def triangle_defect(rho: BiElement) -> TriElement:
    """The triangle slack operator rho (x) 1 + 1 (x) rho - mid(rho), formed densely."""
    d = rho.shape.dim
    eye = np.eye(d, dtype=complex)
    wide = np.kron(rho.data, eye)
    return TriElement(rho.shape, wide + np.kron(eye, rho.data) - permute_legs(wide, (0, 2, 1), (d, d, d)))


@lru_cache(maxsize=None)
def _slack_gathers(blocks: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """Where each entry of each triangle-slack cell reads rho.

    For row (r1 r2 r3) and column (c1 c2 c3) of one triple cell the slack
    entry is rho[r1 r2, c1 c2] [r3 = c3] + [r1 = c1] rho[r2 r3, c2 c3]
    - [r2 = c2] rho[r1 r3, c1 c3].  Per cell size this returns the cell
    coordinates and three flat indices into rho's entries, one per term,
    pointing one past the last entry (a zero) where the bracket is 0.
    """
    d = sum(blocks)
    zero = d**4

    def at(a, b, c, e, keep):
        return np.where(keep, (a * d + b) * d * d + c * d + e, zero)

    out = []
    for g in cells(blocks, 3):
        rows, cols = g.index[:, :, None], g.index[:, None, :]
        r1, r2, r3 = rows // (d * d), rows // d % d, rows % d
        c1, c2, c3 = cols // (d * d), cols // d % d, cols % d
        out.append((
            g.index,
            at(r1, r2, c1, c2, r3 == c3),
            at(r2, r3, c2, c3, r1 == c1),
            at(r1, r3, c1, c3, r2 == c2),
        ))
    return tuple(out)


def triangle_slack_cells(arr: np.ndarray, blocks: tuple[int, ...]) -> CellStacks:
    """The cells of the triangle slack of a supported D^2 x D^2 array.

    Entry for entry equal to `triangle_defect`, whose dense slack is never
    formed.  Leading axes carry over as in `cell_stacks`: a stack of shape
    (k, D^2, D^2) gives cell stacks of shape (k, cells, n, n).
    """
    lead = arr.shape[:-2]
    flat = np.concatenate([arr.reshape(lead + (-1,)), np.zeros(lead + (1,))], axis=-1)
    return [(index, flat[..., a] + flat[..., b] - flat[..., c]) for index, a, b, c in _slack_gathers(blocks)]


def check_triangle(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Triangle inequality: the triangle slack operator is positive."""
    cfg = _cfg(cfg)
    lam, vec = lowest_eigenpair(cellwise_eigh(triangle_slack_cells(rho.data, rho.shape.blocks)))
    passed = lam >= -cfg.psd_tol * scale
    return AxiomRecord("v", passed, lam, witness=None if passed else vec)


def check_alg_diag(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Algebraic diagonal vanishing: the multiplication map sends rho to zero."""
    cfg = _cfg(cfg)
    defect = op_norm(mult_map(rho))
    return AxiomRecord("ii_alg", defect <= cfg.eq_tol * scale, -defect)


def canonical_mult_one(shape: AlgebraShape | Sequence[int]) -> BiElement:
    """Deterministic positive flip-symmetric element with m(nu) = 1.

    Per-block scaling of the diagonal projector: (I + S_i) / (n_i + 1) on
    the (i, i) cell.  On an all-ones shape this is the classical diagonal
    indicator.
    """
    shape = as_shape(shape)
    # row (p, q) of a diagonal cell (i, i) has p in block i, so it takes 2 / (n_i + 1)
    row_scale = np.repeat(2.0 / (np.asarray(shape.blocks) + 1)[shape.block_labels()], shape.dim)
    return BiElement(shape, diag_projector(shape).data * row_scale[:, None])


# Entries kept by each sampled-test-element cache.  Search certification
# passes each job's own seed, and one entry at D = 18 holds about 13 MB.
_SAMPLE_CACHE_SIZE = 32


@lru_cache(maxsize=_SAMPLE_CACHE_SIZE)
def _mult_one_samples(
    blocks: tuple[int, ...], count: int, seed: int, max_attempts: int
) -> tuple[BiElement, ...]:
    """The body of `sample_mult_one_elements`, cached per argument tuple."""
    if count < 1:
        raise ValueError("count must be >= 1")
    shape = AlgebraShape(blocks)
    d = shape.dim
    out = [canonical_mult_one(shape)]
    rng = np.random.Generator(np.random.Philox(key=seed))
    eye2 = np.eye(d * d, dtype=complex)
    eye1 = np.eye(d, dtype=complex)
    base = out[0].data

    # Every matrix below is supported, so its spectra are those of its cells.
    def norm(arr: np.ndarray, order: int = 2) -> float:
        return cellwise_norm(cell_stacks(arr, shape.blocks, order))

    def lowest(arr: np.ndarray) -> float:
        return lowest_eigenpair(cellwise_eigh(cell_stacks(arr, shape.blocks, 2)))[0]

    for _ in range(count - 1):
        accepted = None
        for _attempt in range(max_attempts):
            g = random_element(shape, 2, rng)
            w = assemble([(i, c @ adjoints(c)) for i, c in g.cells], d * d)
            w = (w + permute_legs(w, (1, 0), (d, d))) / 2.0
            w *= 0.5 / max(1.0, norm(w))
            y = _multiply(w, d)
            # (y (x) 1 + 1 (x) y) / 2, the products np.kron would form
            lift = (y[:, None, :, None] * eye1[None, :, None, :]
                    + eye1[:, None, :, None] * y[None, :, None, :]).reshape(d * d, d * d) / 2.0
            nu = base + w - lift
            nu = (nu + nu.conj().T) / 2.0
            lam = lowest(nu)
            if lam < 0:
                c = (-lam + 1e-12) / (1.0 - lam + 1e-12)
                nu = (1.0 - c) * nu + c * eye2
                lam = lowest(nu)
            m_defect = norm(_multiply(nu, d) - eye1, order=1)
            flip_defect = norm(permute_legs(nu, (1, 0), (d, d)) - nu)
            if lam >= -1e-12 and m_defect <= 1e-10 and flip_defect <= 1e-10:
                accepted = BiElement(shape, nu)
                break
        if accepted is None:
            raise RuntimeError("test-element sampler failed to produce a valid element")
        out.append(accepted)
    return tuple(out)


def sample_mult_one_elements(
    shape: AlgebraShape | Sequence[int],
    count: int,
    seed: int,
    max_attempts: int = 64,
) -> list[BiElement]:
    """Positive flip-symmetric test elements with m(nu) = 1.

    The canonical element always comes first.  The rest start from it, add
    a random positive flip-symmetric perturbation, subtract a lift that
    restores m(nu) = 1, and mix toward the identity of A (x) A (also on the
    slice) until positive again.  Randomness is counter-based from the seed.

    The elements depend only on (shape, count, seed, max_attempts), so they
    are drawn once per process and cached; each call returns a fresh list
    of the same read-only elements.  `check_alg_nondegenerate_sampled`
    solves all of them in one stacked SVD per cell size.  Raises ValueError
    when count < 1.
    """
    return list(_mult_one_samples(as_shape(shape).blocks, count, seed, max_attempts))


@lru_cache(maxsize=_SAMPLE_CACHE_SIZE)
def _sample_cells(
    blocks: tuple[int, ...], count: int, seed: int
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Cells of the sampled test elements, one (count, cells, n, n) stack per cell size."""
    nus = sample_mult_one_elements(blocks, count, seed)
    stacks = tuple(cell_stacks(np.stack([nu.data for nu in nus]), blocks, 2))
    for _, mats in stacks:
        mats.setflags(write=False)
    return stacks


def check_alg_nondegenerate_sampled(rho: BiElement, cfg: ToleranceConfig | None = None) -> AxiomRecord:
    """Sampled invertibility of rho + nu over the m(nu) = 1 slice.

    A pass means no sampled nu falsified invertibility; it is evidence, not
    proof.  The margin is the worst smallest singular value minus eq_tol.
    The test elements depend only on (shape, sample_count, seed): they are
    drawn once per process, and every rho + nu is solved in one stacked SVD
    per cell size without forming rho + nu.  The first sample with a
    strictly smaller value gives the witness.
    """
    cfg = _cfg(cfg)
    samples = _sample_cells(rho.shape.blocks, cfg.sample_count, cfg.seed)
    worst = np.inf
    worst_vec = None
    for smin, vec in cellwise_min_singular(rho.cells, samples):
        if smin < worst:
            worst = smin
            worst_vec = vec
    margin = worst - cfg.eq_tol
    passed = margin > 0
    witness = None if passed else worst_vec
    note = "sampled check: pass means not falsified"
    return AxiomRecord("iii_alg", passed, margin, witness=witness, note=note)


def verify(
    rho: BiElement,
    cfg: ToleranceConfig | None = None,
    mode: str = REPRESENTATION,
    shape: AlgebraShape | Sequence[int] | None = None,
) -> AxiomReport:
    """Run the five checks of the selected mode and collect all margins.

    Tolerances are applied as if rho were normalized to unit operator norm;
    margins are reported in the original scale.  No short-circuiting: every
    axiom is evaluated so a failing candidate is fully diagnosed.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if shape is not None and as_shape(shape) != rho.shape:
        raise ShapeMismatchError(
            f"candidate has blocks {rho.shape.blocks}, expected {as_shape(shape).blocks}"
        )
    cfg = _cfg(cfg)
    scale = op_norm(rho) or 1.0
    rec_i = check_positive(rho, cfg, scale)
    rec_iv = check_flip_symmetric(rho, cfg, scale)
    rec_v = check_triangle(rho, cfg, scale)
    if mode == REPRESENTATION:
        rec_ii = check_diag_vanish(rho, cfg, scale)
        rec_iii = check_nondegenerate(
            rho, cfg, scale, prerequisites_ok=rec_i.passed and rec_ii.passed
        )
    else:
        rec_ii = check_alg_diag(rho, cfg, scale)
        rec_iii = check_alg_nondegenerate_sampled(rho, cfg)
    records = (rec_i, rec_ii, rec_iii, rec_iv, rec_v)
    return AxiomReport(mode=mode, shape=rho.shape, records=records, config=cfg)


# ---------------------------------------------------------------------------
# The two-level no-go computation.
#
# On the single-block shape (2), the joint solutions of positivity, diagonal
# vanishing, nondegeneracy and flip symmetry form a one-parameter family
# rho(t), t > 0, and its triangle slack operator is never positive, so no
# candidate on that shape passes all five checks.  The reference matrices
# below are fixed by that computation; the quadratic form identity provides
# an independent hand-checkable certificate.
# ---------------------------------------------------------------------------

M2_SHAPE = AlgebraShape((2,))

M2_DIAG_PROJECTOR = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

# Triangle slack of the admissible family at unit parameter.
M2_TRIANGLE_DEFECT = np.array(
    [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 0, 1, 0, 0, 0],
        [0, -1, 2, 0, -1, 0, 0, 0],
        [0, 0, 0, 0, 0, -1, 1, 0],
        [0, 1, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, -1, 0, 2, -1, 0],
        [0, 0, 0, 1, 0, -1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=float,
)

# Real vector on which the triangle slack form evaluates to -2 at unit scale.
M2_NOGO_WITNESS = np.array([0.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])


def m2_admissible(lam: float) -> BiElement:
    """The admissible candidate family on the shape (2).

    The general joint solution of positivity, diagonal vanishing,
    nondegeneracy, and flip symmetry on a single 2x2 block: a positive
    multiple of the rank-one projector onto the antisymmetric vector,
    scaled so the nonzero eigenvalue is 2 * lam.
    """
    if lam <= 0:
        raise ValueError("the family parameter must be positive")
    data = np.zeros((4, 4), dtype=complex)
    data[1, 1] = data[2, 2] = lam
    data[1, 2] = data[2, 1] = -lam
    return BiElement(M2_SHAPE, data)


def m2_defect_quadratic_form(x: np.ndarray) -> float:
    """Closed form of <M x, x> / lam for the unit-scale triangle slack M.

    Indices follow the 1-based convention x = (x1, ..., x8).
    """
    x = np.asarray(x, dtype=float)
    x2, x3, x4, x5, x6, x7 = x[1], x[2], x[3], x[4], x[5], x[6]
    return float(
        (x3 - x2 - x5) ** 2
        + (x3**2 - x2**2 - x5**2)
        + (x6 - x4 - x7) ** 2
        + (x6**2 - x4**2 - x7**2)
    )
