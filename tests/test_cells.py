"""The cell-wise spectral kernel against the dense reference maps.

Every supported element is the direct sum of its cells, so each check must
give the verdict and, to rounding, the margin that the dense D^m x D^m
computation gives.  The dense side below uses only the dense structure maps
(`triangle_defect`, `diag_projector`, `flip`, `mult_map`) and LAPACK on the
full matrices.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetric import (
    AlgebraShape,
    BiElement,
    MetricCandidate,
    SupportError,
    ToleranceConfig,
    TriElement,
    check_alg_diag,
    check_flip_symmetric,
    check_nondegenerate,
    check_positive,
    check_triangle,
    diag_projector,
    flip,
    from_finite_metric,
    lip_seminorm,
    metric_pseudo_inverse,
    min_eig,
    mult_map,
    op_norm,
    tensor_product,
    triangle_defect,
    verify,
)
from qmetric.algebra import (
    _diag_projector_cached,
    _multiply,
    adjoints,
    assemble,
    cell_stacks,
    cells,
    cellwise_min_eig,
    element_type,
    flatten_cells,
    lowest_eigenpair,
    matrix_norms,
    op_norm_array,
    permute_legs,
    random_element,
    swap_matrix,
)
from qmetric.axioms import check_alg_nondegenerate_sampled, m2_admissible, triangle_slack_cells
from qmetric.construct import FiniteMetricSpace, _grouping_permutation, direct_sum
from qmetric.lipschitz import State, _eigen_frame, _seminorm_cells
from qmetric.search import _cone_groups

import oracles

from oracles import (
    classical_axioms,
    embed_distance_matrix,
    plant_negativity,
    plant_triangle_violation,
    random_metric,
)

BLOCK_SHAPES = [(2,), (3,), (2, 1), (2, 2), (2, 1, 1), (2, 2, 2), (3, 3, 3)]
ALL_SHAPES = [(1,) * n for n in range(1, 10)] + BLOCK_SHAPES


def dense_norm(arr: np.ndarray) -> float:
    return float(np.linalg.norm(arr, 2)) if arr.size else 0.0


def dense_min_eig(arr: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)[0])


def dense_records(rho: BiElement, cfg: ToleranceConfig, mode: str) -> dict:
    """Verdict and margin of every axiom, computed on the dense matrices."""
    arr = rho.data
    norm = dense_norm(arr)
    scale = norm or 1.0
    eq, psd = cfg.eq_tol * scale, cfg.psd_tol * scale
    lam_i = dense_min_eig(arr)
    out = {"i": (dense_norm(arr - arr.conj().T) <= eq and lam_i >= -psd, lam_i)}
    flip_defect = dense_norm(flip(rho).data - arr)
    out["iv"] = (flip_defect <= eq, -flip_defect)
    lam_v = dense_min_eig(triangle_defect(rho).data)
    out["v"] = (lam_v >= -psd, lam_v)
    if mode == "representation":
        p = diag_projector(rho.shape).data
        vanish = dense_norm(arr @ p)
        out["ii"] = (vanish <= eq, -vanish)
        if out["i"][0] and out["ii"][0]:
            margin = dense_min_eig(arr + scale * p) - cfg.resolved_floor(norm)
            out["iii"] = (margin >= 0, margin)
        else:
            out["iii"] = (False, float("nan"))
    else:
        m_defect = dense_norm(mult_map(rho).data)
        out["ii_alg"] = (m_defect <= eq, -m_defect)
        if out["i"][0]:
            shift = scale * oracles.exempt_projector(rho.shape.blocks)
            margin = dense_min_eig(arr + shift) - cfg.resolved_floor(norm)
            out["iii_alg"] = (margin >= 0, margin)
        else:
            out["iii_alg"] = (False, float("nan"))
    return out


def metric_like(blocks, rng) -> BiElement:
    """Positive, flip-symmetric, vanishing on the diagonal: only v may fail."""
    g = random_element(blocks, 2, rng).data
    w = g @ g.conj().T
    w = (w + flip(BiElement(blocks, w)).data) / 2.0
    q = np.eye(w.shape[0]) - diag_projector(blocks).data
    return BiElement(blocks, q @ w @ q)


def candidates(blocks, rng) -> list:
    """Passing, failing and messy elements over one shape."""
    out = [BiElement.zeros(blocks), metric_like(blocks, rng)]
    out.append(random_element(blocks, 2, rng, hermitian=True))
    if all(n == 1 for n in blocks) and len(blocks) >= 3:
        d = random_metric(rng, len(blocks))
        out += [embed_distance_matrix(d), embed_distance_matrix(plant_triangle_violation(rng, d))]
        out.append(embed_distance_matrix(plant_negativity(rng, d)))
    if blocks == (2,):
        out.append(m2_admissible(1.5))
    if blocks == (2, 2):
        m2 = MetricCandidate(m2_admissible(1.0))
        out.append(direct_sum(m2, m2, 1.0).rho)
    return out


def tensor_candidates(rng) -> list:
    two = from_finite_metric(FiniteMetricSpace(random_metric(rng, 2)))
    three = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
    return [
        tensor_product(three, two).rho,
        tensor_product(two, MetricCandidate(m2_admissible(0.5))).rho,
    ]


def cell_id(blocks, order) -> np.ndarray:
    """The cell number of every coordinate, -1 where no cell claims it."""
    d = sum(blocks) ** order
    ids = np.full(d, -1)
    k = 0
    for g in cells(blocks, order):
        for row in g.index:
            assert np.all(ids[row] == -1), "a coordinate lies in two cells"
            ids[row] = k
            k += 1
    return ids


class TestCells:
    @pytest.mark.parametrize("blocks", ALL_SHAPES + [(1, 3), (3, 1, 2)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_partition_matches_support(self, blocks, order):
        ids = cell_id(blocks, order)
        assert np.all(ids >= 0)
        assert ids.max() + 1 == len(blocks) ** order
        same_cell = ids[:, None] == ids[None, :]
        assert np.array_equal(same_cell, oracles.support_mask(blocks, order))

    @pytest.mark.parametrize("blocks", [(2, 1), (1, 2, 3), (1, 4, 2)])
    def test_cell_sizes_and_labels(self, blocks):
        for order in (1, 2, 3):
            groups = cells(blocks, order)
            # one group per size, sizes ascending
            sizes = [g.index.shape[1] for g in groups]
            assert sizes == sorted(set(sizes))
            for g in groups:
                assert g.index.shape[0] == len(g.labels)
                assert all(np.prod([blocks[k] for k in lab]) == g.index.shape[1] for lab in g.labels)
                keys = [(tuple(blocks[k] for k in lab), tuple(lab)) for lab in g.labels.tolist()]
                assert keys == sorted(keys)
                assert np.all(np.diff(g.index, axis=1) > 0)

    def test_classical_cells_are_points(self):
        groups = cells((1,) * 5, 3)
        assert len(groups) == 1 and groups[0].index.shape == (125, 1)

    @pytest.mark.parametrize("blocks", [(2, 1), (1, 2), (2, 2)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_support_error_names_the_largest_offender(self, blocks, order):
        rng = np.random.default_rng(order + sum(blocks))
        data = random_element(blocks, order, rng).data.copy()
        off = np.flatnonzero(~oracles.support_mask(blocks, order))
        data.flat[rng.choice(off, size=3, replace=False)] = [1e-3, -2.5e-2j, 4e-4 + 3e-4j]
        with pytest.raises(SupportError, match=r"largest offender 2\.500e-02"):
            element_type(order)(blocks, data)
        data.flat[off] = complex(-0.0, -0.0)
        assert np.signbit(data.flat[off].real).all()
        assert element_type(order)(blocks, data).data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("blocks", ALL_SHAPES + [(1, 2, 3), (3, 1, 2), (1, 4, 2)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_random_element_zeroes_off_support(self, blocks, order):
        d = sum(blocks) ** order
        rng, again = np.random.default_rng(order), np.random.default_rng(order)
        for hermitian in (False, True):
            raw = again.standard_normal((d, d)) + 1j * again.standard_normal((d, d))
            raw[~oracles.support_mask(blocks, order)] = 0.0
            if hermitian:
                raw = (raw + raw.conj().T) / 2.0
            assert random_element(blocks, order, rng, hermitian).data.tobytes() == raw.tobytes()

    def test_validation_holds_one_copy_of_the_data(self):
        # classical n = 12: D^3 = 1728, so the data takes 47.8 MB
        d = 12**3
        data = np.zeros((d, d), dtype=complex)
        np.fill_diagonal(data, np.arange(d))
        tracemalloc.start()
        try:
            TriElement((1,) * 12, data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * data.nbytes


@pytest.mark.parametrize("lead", [(), (3,), (2, 4)])
def test_matrix_norms_equal_numpy_operator_norms(lead):
    rng = np.random.default_rng(len(lead))
    for n in range(1, 10):
        mats = rng.standard_normal(lead + (5, n, n)) + 1j * rng.standard_normal(lead + (5, n, n))
        want = np.linalg.norm(mats, 2, axis=(-2, -1))
        if n == 1:
            # a 1x1 norm is the modulus, without LAPACK, so it may differ in the last bit
            np.testing.assert_allclose(matrix_norms(mats), want, rtol=1e-15, atol=0.0)
        else:
            assert np.array_equal(matrix_norms(mats), want)
    # an exactly zero stack needs no LAPACK call, and a NaN makes a stack nonzero
    for n in (2, 3, 5):
        zero = np.zeros(lead + (4, n, n), dtype=complex)
        signed = zero.copy()
        signed.real[..., 0, :] = -0.0
        signed.imag[..., :, -1] = -0.0
        mixed = zero.copy()
        mixed[..., 1, :, :] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        with_nan = zero.copy()
        with_nan[..., 2, 0, n - 1] = np.nan
        for mats in (zero, signed, -zero.real, mixed, with_nan, with_nan.real, mixed + with_nan):
            assert _outcome(matrix_norms, mats) == _outcome(np.linalg.norm, mats, 2, axis=(-2, -1))


def _outcome(norms, *args, **kwargs):
    """The bytes and dtype of norms(*args, **kwargs), or the type of error it raises.

    LAPACK may refuse a NaN ("SVD did not converge") or return NaN.
    """
    try:
        out = norms(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        return type(exc)
    return out.dtype, out.shape, out.tobytes()


class TestKeptCells:
    """An element keeps the cells its validation gathered."""

    @pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1, 1), (2, 1), (1, 2, 3)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_kept_cells_are_the_gathered_cells(self, blocks, order):
        x = random_element(blocks, order, np.random.default_rng(order))
        kept, fresh = x.cells, cell_stacks(x.data, blocks, order)
        assert x.cells is kept and len(kept) == len(fresh)
        for (index, mats), (want_index, want) in zip(kept, fresh):
            assert np.array_equal(index, want_index)
            assert mats.dtype == want.dtype and mats.tobytes() == want.tobytes()
            assert not mats.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                mats[...] = 0

    @pytest.mark.parametrize("blocks", ALL_SHAPES + ["tensor"])
    def test_checks_match_their_intermediate_elements(self, blocks):
        rng = np.random.default_rng(len(str(blocks)))
        rhos = tensor_candidates(rng) if blocks == "tensor" else candidates(blocks, rng)
        cfg = ToleranceConfig()
        for rho in rhos:
            scale = op_norm(rho) or 1.0
            for got, want in (
                (check_flip_symmetric(rho, cfg, scale), oracles.flip_symmetric_record(rho, cfg, scale)),
                (check_nondegenerate(rho, cfg, scale, True), oracles.nondegenerate_record(rho, cfg)),
                (check_alg_diag(rho, cfg, scale), oracles.alg_diag_record(rho, cfg, scale)),
            ):
                assert (got.axiom, got.passed, got.margin.hex()) == (want.axiom, want.passed, want.margin.hex())
                assert (got.witness is None) == (want.witness is None)
                if got.witness is not None:
                    assert got.witness.tobytes() == want.witness.tobytes()


class TestCellStorage:
    """The flat cell vector is an element's only storage; the dense matrix is made from it."""

    @staticmethod
    def _pair(blocks, order, rng):
        """The same element built from the dense matrix and from its cells."""
        dense = random_element(blocks, order, rng).data.copy()
        kind = element_type(order)
        return kind(blocks, dense), kind._from_cells(blocks, [mats for _, mats in cell_stacks(dense, blocks, order)])

    @staticmethod
    def _same(x, y):
        assert type(x) is type(y) and x.shape == y.shape
        assert len(x.cells) == len(y.cells)
        for (i, a), (j, b) in zip(x.cells, y.cells):
            assert np.array_equal(i, j) and a.tobytes() == b.tobytes()
        assert np.array_equal(x.data, y.data)

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_cells_and_dense_make_equal_elements(self, blocks, order):
        rng = np.random.default_rng(order + 10 * len(blocks) + sum(blocks))
        (x, y), (u, v) = self._pair(blocks, order, rng), self._pair(blocks, order, rng)
        self._same(x, y)
        assert x.data is x.data and not y.data.flags.writeable
        if all(n == 1 for n in blocks):
            # on an all-ones shape the flat cell vector is the diagonal
            assert np.array_equal(x._flat, np.diagonal(x.data))
        results = [
            (x + u, y + v), (x - u, y - v), (x * (0.5 - 2j), y * (0.5 - 2j)), (3.0 * x, 3.0 * y),
            (-x, -y), (x @ u, y @ v), (x.adjoint, y.adjoint),
        ]
        if order == 2:
            results += [(flip(x), flip(y)), (mult_map(x), mult_map(y))]
        for got, want in results:
            self._same(got, want)
        # the cell maps against the dense ones
        d = sum(blocks)
        tol = 1e-12 * max(1.0, np.abs(x.data).max() * np.abs(u.data).max() * d**order)
        assert np.abs((x @ u).data - x.data @ u.data).max() <= tol
        assert np.array_equal(x.adjoint.data, x.data.conj().T)
        if order == 2:
            assert np.array_equal(flip(x).data, permute_legs(x.data, (1, 0), (d, d)))
            assert np.abs(mult_map(x).data - _multiply(x.data, d)).max() <= tol

    @pytest.mark.parametrize("blocks", [(1,), (2, 1), (1, 2, 3)])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_storage_is_read_only_and_dense_is_made_once(self, blocks, order):
        x = random_element(blocks, order, np.random.default_rng(order))
        with pytest.raises(ValueError, match="read-only"):
            x._flat[0] = 1.0
        with pytest.raises(AttributeError):
            x.shape = AlgebraShape(blocks)
        assert x._data is None
        dense = x.data
        assert x.data is dense and not dense.flags.writeable
        assert np.array_equal(dense, assemble(x.cells, sum(blocks) ** order))


class TestLayoutOracles:
    """Structures built from the cells equal their index-loop forms exactly."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_swap_matrix(self, n):
        assert np.array_equal(swap_matrix(n), oracles.swap_matrix(n))

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    def test_projectors(self, blocks):
        fresh = _diag_projector_cached.__wrapped__(blocks)
        assert np.array_equal(fresh.data, oracles.diag_projector(blocks))

    # the direct sum is a dense D^2 x D^2 matrix: 690 MB at D = 9
    @pytest.mark.parametrize("blocks", [b for b in ALL_SHAPES if sum(b) <= 6])
    def test_direct_sum(self, blocks):
        rng = np.random.default_rng(len(blocks) + sum(blocks))
        cut = max(1, len(blocks) // 2)
        parts = (blocks[:cut], blocks[cut:] or blocks)
        m1, m2 = (MetricCandidate(random_element(b, 2, rng, hermitian=True)) for b in parts)
        r = 1.0 + max(op_norm(m1.rho), op_norm(m2.rho))
        expected = oracles.direct_sum(m1.rho.data, m1.shape.dim, m2.rho.data, m2.shape.dim, r)
        assert np.array_equal(direct_sum(m1, m2, r).rho.data, expected)

    @pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1), (2, 1), (1, 2, 1), (1, 1, 1)])
    def test_tensor_product(self, blocks):
        rng = np.random.default_rng(len(blocks) + 3 * sum(blocks))
        for other in [(1,), (2,), (1, 1), (2, 1), (1, 2)]:
            m1, m2 = (MetricCandidate(random_element(b, 2, rng, hermitian=True)) for b in (blocks, other))
            want = oracles.tensor_product(m1.rho.data, blocks, m2.rho.data, other)
            got = tensor_product(m1, m2).rho
            assert got.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    def test_grouping_permutation(self, blocks):
        for other in [(1,), (2,), (2, 1), (1, 2, 1), blocks]:
            got = _grouping_permutation(AlgebraShape(blocks), AlgebraShape(other))
            assert np.array_equal(got, oracles.grouping_permutation(blocks, other))

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    def test_offdiag_columns_complement_the_diagonal(self, blocks):
        # the search's per-cell isometries u have orthonormal columns, and
        # their u u* are the cells of 1 - P (the identity where u is None)
        complement = BiElement(blocks, np.eye(sum(blocks) ** 2) - diag_projector(blocks).data)._flat
        spanned = np.zeros_like(complement)
        for cols, shape, u, uh, _ in _cone_groups(blocks, 1.0):
            if u is None:
                spanned[cols] = np.broadcast_to(np.eye(shape[1]), shape).ravel()
            else:
                assert np.allclose(uh @ u, np.eye(u.shape[2]), atol=1e-14)
                spanned[cols] = (u @ uh).ravel()
        assert np.allclose(spanned, complement, atol=1e-14)


class TestExactAlgebraicCheck:
    """iii_alg probed from both sides: refuted by an explicit nu, unbeaten by random ones."""

    @pytest.mark.parametrize("blocks", ALL_SHAPES + ["tensor"])
    def test_failures_are_refuted_by_an_explicit_nu(self, blocks):
        rng = np.random.default_rng(len(str(blocks)) + 16)
        rhos = tensor_candidates(rng) if blocks == "tensor" else candidates(blocks, rng)
        for rho in rhos:
            rec = verify(rho, mode="algebraic").record("iii_alg")
            if rec.passed or rec.indeterminate:
                continue
            b, d = rho.shape.blocks, rho.shape.dim
            scale = op_norm(rho) or 1.0
            nu = oracles.refuting_nu(b, rec.witness)
            BiElement(b, nu)  # supported
            assert np.linalg.eigvalsh(nu)[0] >= -1e-12
            swap = oracles.swap_matrix(d)
            assert np.abs(swap @ nu @ swap - nu).max() <= 1e-12
            assert np.abs(oracles.multiply(nu, d) - np.eye(d)).max() <= 1e-12
            reach = abs(rec.margin + ToleranceConfig().resolved_floor(scale))
            assert np.linalg.norm((rho.data + nu) @ rec.witness) <= reach + 1e-12 * scale

    @pytest.mark.parametrize("blocks", ALL_SHAPES + ["tensor"])
    def test_passes_hold_against_sampled_nu(self, blocks):
        # on every cell but the exempt ones rho + nu >= rho; there rho + nu = rho + 1
        rng = np.random.default_rng(len(str(blocks)) + 61)
        rhos = tensor_candidates(rng) if blocks == "tensor" else candidates(blocks, rng)
        if blocks != "tensor":
            rhos.append(BiElement(blocks, oracles.swap_family(blocks, 2.0)))
        for rho in rhos:
            rec = verify(rho, mode="algebraic").record("iii_alg")
            if not rec.passed:
                continue
            scale = op_norm(rho) or 1.0
            nus = oracles.mult_one_samples(rho.shape.blocks, 8, sum(rho.shape.blocks))
            bound = min(rec.margin + ToleranceConfig().resolved_floor(scale), 1.0)
            assert oracles.least_singular_value(rho, nus) >= bound - 1e-12 * scale

    def test_standalone_call_equals_the_verify_record(self):
        rng = np.random.default_rng(7)
        for blocks in [(2,), (2, 1), (1, 1, 1)]:
            for rho in candidates(blocks, rng):
                got = check_alg_nondegenerate_sampled(rho)
                want = verify(rho, mode="algebraic").record("iii_alg")
                assert (got.passed, got.indeterminate, got.note) == (want.passed, want.indeterminate, want.note)
                assert np.array_equal(got.margin, want.margin, equal_nan=True)


@pytest.mark.parametrize("blocks", ALL_SHAPES + ["tensor"])
@pytest.mark.parametrize("mode", ["representation", "algebraic"])
def test_cell_and_dense_agree(blocks, mode):
    rng = np.random.default_rng(sum(map(ord, f"{blocks}{mode}")))
    rhos = tensor_candidates(rng) if blocks == "tensor" else candidates(blocks, rng)
    cfg = ToleranceConfig()
    for rho in rhos:
        tol = 1e-12 * max(1.0, dense_norm(rho.data))
        assert op_norm(rho) == pytest.approx(dense_norm(rho.data), rel=0, abs=tol)
        assert op_norm(rho.data) == pytest.approx(op_norm(rho), rel=0, abs=tol)
        sym = rho + rho.adjoint
        assert min_eig(sym.data)[0] == pytest.approx(min_eig(sym)[0], rel=0, abs=2 * tol)
        dense = dense_records(rho, cfg, mode)
        report = verify(rho, cfg, mode=mode)
        for rec in report.records:
            passed, margin = dense[rec.axiom]
            assert rec.passed == passed, (rho, rec.axiom)
            if np.isnan(margin):
                assert rec.indeterminate
            else:
                assert abs(rec.margin - margin) <= tol, (rho, rec.axiom)


def test_op_norm_of_an_empty_array_is_zero():
    assert op_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("blocks", [(1,) * 4, (2,), (2, 1), (2, 2), (2, 2, 2)])
def test_witnesses_reach_the_margin(blocks):
    rng = np.random.default_rng(sum(blocks) + len(blocks))
    seen = 0
    for rho in candidates(blocks, rng):
        tol = 1e-12 * max(1.0, dense_norm(rho.data))
        floor = ToleranceConfig().resolved_floor(op_norm(rho))
        lam, vec = min_eig(rho + rho.adjoint)
        for witness, matrix, value in (
            (check_triangle(rho).witness, triangle_defect(rho).data, check_triangle(rho).margin),
            (check_positive(rho).witness, rho.data, check_positive(rho).margin),
            (
                check_nondegenerate(rho).witness,
                rho.data + diag_projector(blocks).data,
                check_nondegenerate(rho).margin + floor,
            ),
            (vec, (rho + rho.adjoint).data, lam),
        ):
            if witness is None:
                continue
            seen += 1
            assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
            sym = (matrix + matrix.conj().T) / 2.0
            assert np.vdot(witness, sym @ witness).real == pytest.approx(value, abs=10 * tol)
    assert seen


def test_nondegenerate_witness():
    rho = BiElement.zeros((2, 1))
    rec = check_nondegenerate(rho)
    assert not rec.passed and rec.witness is not None
    shifted = rho.data + diag_projector((2, 1)).data
    assert np.linalg.norm(rec.witness) == pytest.approx(1.0)
    quad = np.vdot(rec.witness, shifted @ rec.witness).real
    assert quad == pytest.approx(rec.margin + ToleranceConfig().resolved_floor(0.0), abs=1e-12)


def full_eigh(stacks) -> list:
    """`cellwise_eigh` as LAPACK gives it on every cell size, 1x1 cells with their eigenvector stack too."""
    return [(index, *np.linalg.eigh((mats + adjoints(mats)) / 2.0)) for index, mats in stacks]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


WITNESS_SHAPES = [(1, 1, 1), (2,), (2, 1), (2, 2), (2, 1, 1)]


@pytest.mark.parametrize("blocks", WITNESS_SHAPES)
def test_witnesses_on_demand_are_the_dense_reference(blocks):
    """Each spectral check's margin and witness are, bit for bit, the lowest eigenpair of the full eigh.

    A check finds its lowest eigenvalue first and embeds its witness only
    when it fails; the reference embeds it always, from LAPACK's eigenpairs
    of every cell, 1x1 cells included.
    """
    rng = np.random.default_rng(7 * len(blocks) + sum(blocks))
    cfg = ToleranceConfig()
    seen = set()
    for _ in range(3):
        g = random_element(blocks, 2, rng)
        for rho in [*candidates(blocks, rng), g @ g.adjoint, g @ g.adjoint * 1e-3 + diag_projector(blocks)]:
            scale = op_norm(rho) or 1.0
            floor = cfg.resolved_floor(scale)
            shift = diag_projector(blocks).cells
            exempt = [(i, q if q.shape[-1] == 1 else 0.0) for i, q in shift]
            checks = [
                (check_positive(rho, cfg, scale), rho.cells, 0.0),
                (
                    check_nondegenerate(rho, cfg, scale, prerequisites_ok=True),
                    [(i, r + scale * q) for (i, r), (_, q) in zip(rho.cells, shift)],
                    floor,
                ),
                (
                    check_alg_nondegenerate_sampled(rho, cfg, scale, prerequisites_ok=True),
                    [(i, r + scale * q) for (i, r), (_, q) in zip(rho.cells, exempt)],
                    floor,
                ),
                (check_triangle(rho, cfg, scale), triangle_slack_cells(rho._flat, rho.shape.blocks), 0.0),
            ]
            for rec, stacks, offset in checks:
                lam, vec = lowest_eigenpair(full_eigh(stacks))
                assert rec.margin == lam - offset
                assert (rec.witness is None) == rec.passed
                if not rec.passed:
                    assert same_bits(rec.witness, vec)
                seen.add((rec.axiom, rec.passed))
    # each of the four checks both passes and fails
    assert len(seen) == 8


@pytest.mark.parametrize("blocks", WITNESS_SHAPES)
def test_pseudo_inverse_and_eigen_frame_are_the_full_eigh_reference(blocks):
    """Bit for bit: each pseudo-inverse cell is (vecs * inv) @ vecs*, and a state's frame is its eigenvectors."""
    rng = np.random.default_rng(len(blocks) + 11)
    cfg = ToleranceConfig()
    for rho in (metric_like(blocks, rng), metric_like(blocks, rng)):
        cutoff = cfg.resolved_floor(op_norm(rho) or 1.0) / 2.0
        parts = []
        for _, vals, vecs in full_eigh(rho.cells):
            inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
            parts.append((vecs * inv[:, None, :]) @ adjoints(vecs))
        assert same_bits(metric_pseudo_inverse(rho, cfg)._flat, flatten_cells(parts))
    dens = [g @ g.conj().T for g in (rng.standard_normal((n, n)) for n in blocks)]
    state = State(blocks, [d / sum(np.trace(d) for d in dens) for d in dens])
    weights, frame = _eigen_frame(state)
    eighs = full_eigh(state.as_element().cells)
    assert same_bits(frame, assemble([(index, vecs) for index, _, vecs in eighs], sum(blocks)))
    want = np.zeros(sum(blocks))
    for index, vals, _ in eighs:
        want[index] = vals
    assert same_bits(weights, want)


@pytest.mark.parametrize("blocks", [(2,), (1, 2), (2, 2), (1, 1, 1)])
def test_non_selfadjoint_raises(blocks):
    rng = np.random.default_rng(5)
    x = random_element(blocks, 2, rng)
    for call in (lambda: min_eig(x), lambda: min_eig(x.data), lambda: cellwise_min_eig(x.cells)):
        with pytest.raises(ValueError, match="self-adjoint"):
            call()


@pytest.mark.parametrize("blocks", [(1, 1, 1), (2,), (2, 1), (2, 2)])
def test_pseudo_inverse_matches_dense(blocks):
    rng = np.random.default_rng(len(blocks))
    rho = metric_like(blocks, rng)
    cfg = ToleranceConfig()
    pinv = metric_pseudo_inverse(rho, cfg)
    vals, vecs = np.linalg.eigh((rho.data + rho.data.conj().T) / 2.0)
    cutoff = cfg.resolved_floor(dense_norm(rho.data)) / 2.0
    inv = np.where(vals > cutoff, 1.0 / np.where(vals > cutoff, vals, 1.0), 0.0)
    dense = (vecs * inv) @ vecs.conj().T
    dense[~oracles.support_mask(blocks, 2)] = 0.0
    assert np.abs(pinv.data - dense).max() <= 1e-10 * max(1.0, dense_norm(dense))


@pytest.mark.parametrize("blocks", ALL_SHAPES)
def test_seminorm_cells_match_dense_kronecker_form(blocks):
    # the pseudo-inverse slot takes any supported element: the cell form
    # of (a (x) 1 - 1 (x) a) x must hold for every x, not only for rho^+
    rng = np.random.default_rng(sum(blocks) + len(blocks))
    x = random_element(blocks, 2, rng)
    a = random_element(blocks, 1, rng)
    size = sum(blocks) ** 2
    dense = oracles.commutator_gap(a.data, x.data)
    tol = 1e-12 * max(1.0, np.abs(dense).max())
    assert np.abs(assemble(_seminorm_cells(a.data, x), size) - dense).max() <= tol
    basis = oracles.hermitian_param_basis(blocks, 1)
    together = _seminorm_cells(basis, x)
    for k, h in enumerate(basis):
        one = assemble([(index, mats[k]) for index, mats in together], size)
        assert np.abs(one - oracles.commutator_gap(h, x.data)).max() <= tol
    assert lip_seminorm(a, x, x) == pytest.approx(op_norm_array(dense), rel=1e-12)


def test_cell_stacks_of_dense_slack_are_the_slack_cells():
    rng = np.random.default_rng(8)
    for blocks in [(1, 1, 1), (2, 1), (2, 2, 2)]:
        rho = random_element(blocks, 2, rng, hermitian=True)
        dense = cell_stacks(triangle_defect(rho).data, blocks, 3)
        for (i, a), (j, b) in zip(triangle_slack_cells(rho._flat, blocks), dense):
            assert np.array_equal(i, j) and np.array_equal(a, b)


def test_slack_cells_carry_leading_axes():
    rng = np.random.default_rng(9)
    for blocks in [(1, 1, 1), (2, 1), (2, 2)]:
        stack = np.stack([random_element(blocks, 2, rng, hermitian=True)._flat for _ in range(3)])
        together = triangle_slack_cells(stack, blocks)
        for k in range(3):
            for (i, a), (j, b) in zip(together, triangle_slack_cells(stack[k], blocks)):
                assert np.array_equal(i, j) and np.array_equal(a[k], b)


INVARIANT = ("i", "ii", "iii", "iv", "v")


@settings(max_examples=30, deadline=None)
@given(
    blocks=st.sampled_from([(2,), (3,), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)]),
    seed=st.integers(0, 2**31 - 1),
    messy=st.booleans(),
)
def test_margins_invariant_under_conjugation_and_flip(blocks, seed, messy):
    rng = np.random.default_rng(seed)
    rho = random_element(blocks, 2, rng, hermitian=True) if messy else metric_like(blocks, rng)
    uu = np.kron(*(2 * [oracles.block_unitary(blocks, rng)]))
    moved = BiElement(blocks, uu @ rho.data @ uu.conj().T)
    base = verify(rho)
    tol = 1e-9 * max(1.0, op_norm(rho))
    for other in (moved, flip(rho)):
        report = verify(other)
        for tag in INVARIANT:
            a, b = base.record(tag), report.record(tag)
            assert a.indeterminate == b.indeterminate
            if a.indeterminate:
                continue
            assert abs(a.margin - b.margin) <= tol, tag
    alg = verify(rho, mode="algebraic").record("ii_alg").margin
    assert abs(verify(moved, mode="algebraic").record("ii_alg").margin - alg) <= tol


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["metric", "violated", "negative", "metric-like", "messy", "m2"]),
    seed=st.integers(0, 2**31 - 1),
    exponent=st.floats(-150.0, 150.0),
)
@example(family="metric", seed=5, exponent=10.0)
@example(family="metric", seed=5, exponent=20.0)
def test_representation_verdicts_invariant_under_scale(family, seed, exponent):
    rng = np.random.default_rng(seed)
    if family in ("metric", "violated", "negative"):
        d = random_metric(rng, 5 if seed == 5 else int(rng.integers(2, 7)))
        if family == "violated" and len(d) > 2:
            d = plant_triangle_violation(rng, d)
        elif family == "negative":
            d = plant_negativity(rng, d)
        rho = embed_distance_matrix(d)
    elif family == "m2":
        rho = m2_admissible(float(rng.uniform(0.1, 10.0)))
    else:
        blocks = [(2,), (3,), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)][int(rng.integers(6))]
        rho = metric_like(blocks, rng) if family == "metric-like" else random_element(blocks, 2, rng, hermitian=True)

    def verdicts(x):
        return [(r.axiom, r.passed, r.indeterminate) for r in verify(x).records]

    assert verdicts(10.0**exponent * rho) == verdicts(rho)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["metric", "collapsed", "swap", "anti", "swap-sum"]),
    seed=st.integers(0, 2**31 - 1),
    exponent=st.floats(-150.0, 150.0),
)
def test_alg_verdict_invariant_under_scale_conjugation_and_flip(family, seed, exponent):
    rng = np.random.default_rng(seed)
    if family in ("metric", "collapsed"):
        d = random_metric(rng, int(rng.integers(2, 7)))
        if family == "collapsed":
            d[0, 1] = d[1, 0] = 0.0
        rho = embed_distance_matrix(d)
    elif family in ("swap", "anti"):
        # n 1 - F is definite, 1 - F = 2 P_anti has the symmetric subspace as kernel
        n = int(rng.integers(2, 5))
        rho = BiElement((n,), (n if family == "swap" else 1) * np.eye(n * n) - swap_matrix(n))
    else:
        blocks = [(2, 1), (2, 2), (3, 3), (3, 1, 1)][int(rng.integers(4))]
        rho = BiElement(blocks, oracles.swap_family(blocks, float(rng.choice([0.5, 2.0]))))
    want = family in ("metric", "swap", "swap-sum")
    blocks = rho.shape.blocks
    uu = np.kron(*(2 * [oracles.block_unitary(blocks, rng)]))
    for other in (rho, 10.0**exponent * rho, BiElement(blocks, uu @ rho.data @ uu.conj().T), flip(rho)):
        assert verify(other, mode="algebraic").record("iii_alg").passed == want


class TestScale:
    """Shapes whose dense slack is too large to form; the classical oracle decides."""

    @staticmethod
    def _agree(rho: BiElement, d: np.ndarray) -> None:
        expected = classical_axioms(d)
        report = verify(rho)
        for tag in INVARIANT:
            assert report.record(tag).passed == expected[tag], tag
        assert report.passed == expected["all"]

    def test_classical_twelve_points(self):
        rng = np.random.default_rng(1212)
        d = random_metric(rng, 12)
        for variant in (d, plant_triangle_violation(rng, d), plant_negativity(rng, d)):
            self._agree(embed_distance_matrix(variant), variant)
        algebraic = verify(embed_distance_matrix(d), mode="algebraic")
        assert algebraic.passed

    def test_tensor_product_eighteen_points(self):
        rng = np.random.default_rng(1818)
        d1, d2 = random_metric(rng, 6), random_metric(rng, 3)
        rho = tensor_product(
            from_finite_metric(FiniteMetricSpace(d1)), from_finite_metric(FiniteMetricSpace(d2))
        ).rho
        summed = (d1[:, None, :, None] + d2[None, :, None, :]).reshape(18, 18)
        assert rho.shape.blocks == (1,) * 18
        self._agree(rho, summed)
        tracemalloc.start()
        try:
            check_triangle(rho)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dense 5832 x 5832 slack alone would take 544 MB
        assert peak < 32 * 2**20
        violated = plant_triangle_violation(rng, summed)
        self._agree(embed_distance_matrix(violated), violated)
