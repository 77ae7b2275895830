"""Quantum metric axiom checks with signed margins.

A candidate metric is an element rho of A (x) A.  Two axiom sets are
supported.  In "representation" mode the diagonal conditions are phrased
against the quantum-diagonal projector: rho must be positive (i),
annihilate the diagonal projector (ii), be bounded below away from zero on
the complement of the diagonal (iii), be flip symmetric (iv), and satisfy
the operator triangle inequality (v).  In "algebraic" mode (ii) and (iii)
are replaced by multiplication-map conditions: m(rho) = 0 (ii_alg) and
invertibility of rho + nu for every positive flip-symmetric nu with
m(nu) = 1 (iii_alg).

Every check returns a record with a signed margin (positive means satisfied
with slack) instead of raising, so failing candidates produce a complete
diagnostic profile.

The spectral work runs on the cells of rho (see `algebra.cells`): rho is
the direct sum of its K^2 pair cells and the triangle slack of its K^3
triple cells, so the cost grows with the sum of the cell sizes cubed, not
with D^9.  The checks read the cells of rho, views of its flat cell
vector, and build no intermediate element and no dense matrix: check iv
gathers the cells of flip(rho) from those of rho, ii_alg reads the (k, k)
cells only, and the triangle check builds each slack cell straight from
the flat cell vector and never forms the D^3 x D^3 slack.
`triangle_defect` keeps the dense slack as the reference the tests compare
against.  The feasibility search lifts its whole structure basis, held in
flat cell vectors, through `triangle_slack_cells` in one call.

The spectral checks (i, iii, iii_alg, v) read the lowest eigenvalue of
their cells first and embed a witness, that cell's eigenvector in the full
coordinates, only when they fail.

Checks iii and iii_alg share one kernel, lambda_min(rho + shift) minus the
floor over the cells: the shift is the diagonal projector for iii, and for
iii_alg its part on the 1x1 diagonal cells, both scaled by the candidate
norm, as the floor is, so the verdicts are scale-correct.
The iii_alg decision is exact, not sampled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import (
    ENTRY_BOUND,
    AlgebraShape,
    BiElement,
    CellStacks,
    ShapeMismatchError,
    TriElement,
    as_shape,
    cells,
    cellwise_eigh,
    cellwise_norm,
    diag_projector,
    flip_cells,
    hermitian_defect,
    lowest_eigenvalue,
    lowest_eigenvector,
    mult_cells,
    op_norm,
    permute_legs,
    require_finite,
    storage_position,
    storage_size,
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
    for a zero candidate).  sample_count and seed are recorded in report
    documents but read by no check: iii_alg is decided exactly.
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-9
    strict_floor: float | None = None
    sample_count: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        values = (self.eq_tol, self.psd_tol) + (() if self.strict_floor is None else (self.strict_floor,))
        # a float within the bound passes require_finite; anything else goes through it, for its error
        if not all(type(v) is float and -ENTRY_BOUND <= v <= ENTRY_BOUND for v in values):
            require_finite(np.asarray(values, dtype=float), "tolerances")
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
        return {name: getattr(self, name) for name in _TOLERANCE_FIELDS}


_TOLERANCE_FIELDS = tuple(f.name for f in fields(ToleranceConfig))


@dataclass(frozen=True, eq=False)
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
        """The record's document, parsed from the text its writer lays out."""
        from . import exchange  # which imports this module, through construct

        return exchange._plain(exchange._record_node(self))


@dataclass(frozen=True, eq=False)
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
        """The report's document, parsed from the text `save_report` and `verify --json` lay out."""
        from . import exchange  # which imports this module, through construct

        return exchange._plain(exchange._report_node(self))


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
    return _positive(rho, cfg, scale)[0]


def _positive(rho: BiElement, cfg: ToleranceConfig | None, scale: float):
    """`check_positive`'s record together with the `cellwise_eigh` of rho's cells it read."""
    cfg = _cfg(cfg)
    stacks = rho.cells
    herm_defect = hermitian_defect(stacks)
    eighs = cellwise_eigh(stacks)
    margin, at = lowest_eigenvalue(eighs)
    selfadj = herm_defect <= cfg.eq_tol * scale
    passed = selfadj and margin >= -cfg.psd_tol * scale
    witness = None if passed else lowest_eigenvector(eighs, at)
    note = "" if selfadj else f"self-adjointness defect {herm_defect:.3e}"
    return AxiomRecord("i", passed, margin, witness=witness, note=note), eighs


def check_flip_symmetric(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Flip symmetry: swapping the two tensor legs leaves rho unchanged."""
    cfg = _cfg(cfg)
    defect = cellwise_norm([(i, f - r) for (i, r), f in zip(rho.cells, flip_cells(rho.cells, rho.shape.blocks))])
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

    Operationalized as lambda_min(rho + scale P) >= floor, with P the
    diagonal projector and scale the candidate norm (1 for a zero
    candidate) unless given; equivalent to invertibility of the compression
    of rho to the complement of the diagonal once positivity and diagonal
    vanishing hold.  The shift and the floor both follow scale, so the
    verdict does not change when rho is rescaled.  When the prerequisites
    fail the restriction is ill-defined and the record is flagged
    indeterminate.
    """
    cfg = _cfg(cfg)
    if scale is None:
        scale = op_norm(rho) or 1.0
    if prerequisites_ok is None:
        prerequisites_ok = (
            check_positive(rho, cfg, scale).passed and check_diag_vanish(rho, cfg, scale).passed
        )
    note = "positivity or diagonal vanishing failed; restriction ill-defined"
    shift = diag_projector(rho.shape).cells
    return _nondegenerate("iii", rho, shift, scale, cfg.resolved_floor(scale), prerequisites_ok, note)


def _nondegenerate(
    axiom: str, rho: BiElement, shift: CellStacks, scale: float, floor: float, prerequisites_ok: bool, note: str
) -> AxiomRecord:
    """The nondegeneracy kernel of both modes: lambda_min(rho + scale shift) - floor, cell by cell.

    shift lists one cell stack per cell size of rho, or 0.0 for a size it
    leaves alone.  When the prerequisites fail the record is indeterminate,
    with a NaN margin and the note.
    """
    if not prerequisites_ok:
        return AxiomRecord(axiom, False, float("nan"), indeterminate=True, note=note)
    shifted = [(i, r + scale * q) for (i, r), (_, q) in zip(rho.cells, shift)]
    eighs = cellwise_eigh(shifted)
    lam, at = lowest_eigenvalue(eighs)
    margin = lam - floor
    witness = None if margin >= 0 else lowest_eigenvector(eighs, at)
    return AxiomRecord(axiom, margin >= 0, margin, witness=witness)


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
    coordinates and three positions in rho's flat cell vector, one per
    term, pointing one past its last entry (a zero) where the bracket is 0.
    Each entry read lies in a cell of rho, as the legs of a triple cell lie
    in the blocks of a cell.
    """
    d = sum(blocks)
    zero = storage_size(blocks, 2)

    def at(a, b, c, e, keep):
        return np.where(keep, storage_position(blocks, 2, a * d + b, c * d + e), zero)

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


def triangle_slack_cells(flat: np.ndarray, blocks: tuple[int, ...]) -> CellStacks:
    """The cells of the triangle slack of an order-2 element with the flat cell vector flat.

    Entry for entry equal to `triangle_defect`, whose dense slack is never
    formed.  Leading axes of flat carry over: a stack of shape (k, size)
    gives cell stacks of shape (k, cells, n, n).
    """
    lead = flat.shape[:-1]
    flat = np.concatenate([flat, np.zeros(lead + (1,))], axis=-1)
    return [(index, flat[..., a] + flat[..., b] - flat[..., c]) for index, a, b, c in _slack_gathers(blocks)]


def check_triangle(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Triangle inequality: the triangle slack operator is positive."""
    cfg = _cfg(cfg)
    eighs = cellwise_eigh(triangle_slack_cells(rho._flat, rho.shape.blocks))
    lam, at = lowest_eigenvalue(eighs)
    passed = lam >= -cfg.psd_tol * scale
    return AxiomRecord("v", passed, lam, witness=None if passed else lowest_eigenvector(eighs, at))


def check_alg_diag(rho: BiElement, cfg: ToleranceConfig | None = None, scale: float = 1.0) -> AxiomRecord:
    """Algebraic diagonal vanishing: the multiplication map sends rho to zero."""
    cfg = _cfg(cfg)
    defect = cellwise_norm([(None, mats) for mats in mult_cells(rho)])
    return AxiomRecord("ii_alg", defect <= cfg.eq_tol * scale, -defect)


def check_alg_nondegenerate_sampled(
    rho: BiElement,
    cfg: ToleranceConfig | None = None,
    scale: float | None = None,
    prerequisites_ok: bool | None = None,
) -> AxiomRecord:
    """Algebraic nondegeneracy: rho + nu is invertible for every test element nu.

    A test element is positive and flip symmetric, with m(nu) = 1.  The
    decision is exact, not sampled; the name is kept for compatibility.
    For positive rho the axiom holds iff rho is definite on every cell
    except the (k, k) cells with n_k = 1, where m(nu) = 1 forces nu = 1
    (README, "Notes on semantics", has the proof).  So the margin is
    lambda_min(rho + scale P1) - floor, with P1 the part of the diagonal
    projector on those exempt cells, and the witness of a failure is its
    cell's lowest eigenvector.  Positivity is the prerequisite: when it
    fails the record is indeterminate.  scale and prerequisites_ok are
    computed when not given.
    """
    cfg = _cfg(cfg)
    if scale is None:
        scale = op_norm(rho) or 1.0
    if prerequisites_ok is None:
        prerequisites_ok = check_positive(rho, cfg, scale).passed
    # the cells of size 1 are the exempt cells, where the projector is 1, and
    # the cross cells of two 1x1 blocks, where it is 0
    shift = [(i, q if q.shape[-1] == 1 else 0.0) for i, q in diag_projector(rho.shape).cells]
    note = "positivity failed; the exact decision needs positive rho"
    return _nondegenerate("iii_alg", rho, shift, scale, cfg.resolved_floor(scale), prerequisites_ok, note)


def verify(
    rho: BiElement,
    cfg: ToleranceConfig | None = None,
    mode: str = REPRESENTATION,
    shape: AlgebraShape | Sequence[int] | None = None,
) -> AxiomReport:
    """Run the five checks of the selected mode and collect all margins.

    Tolerances are applied as if rho were normalized to unit operator norm,
    and margins are reported in the original scale; checks iii and iii_alg
    shift rho by the diagonal projector, or its exempt part, times the
    candidate norm, so every verdict is the same for rho and s rho, s > 0.
    No short-circuiting: every axiom is evaluated so a failing candidate is
    fully diagnosed.
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
        rec_iii = check_alg_nondegenerate_sampled(rho, cfg, scale, prerequisites_ok=rec_i.passed)
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
