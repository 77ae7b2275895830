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
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetric import (
    AlgebraShape,
    BiElement,
    MetricCandidate,
    SupportError,
    ToleranceConfig,
    TriElement,
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
    assemble,
    cell_stacks,
    cells,
    cellwise_min_eig,
    element_type,
    hermitian_param_basis,
    op_norm_array,
    random_element,
    swap_matrix,
)
from qmetric.axioms import (
    _mult_one_samples,
    _sample_cells,
    canonical_mult_one,
    check_alg_nondegenerate_sampled,
    m2_admissible,
    sample_mult_one_elements,
    triangle_slack_cells,
)
from qmetric.construct import FiniteMetricSpace, _grouping_permutation, direct_sum
from qmetric.lipschitz import _seminorm_cells
from qmetric.search import _cone_groups, _layout

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
            margin = dense_min_eig(arr + p) - cfg.resolved_floor(norm)
            out["iii"] = (margin >= 0, margin)
        else:
            out["iii"] = (False, float("nan"))
    else:
        m_defect = dense_norm(mult_map(rho).data)
        out["ii_alg"] = (m_defect <= eq, -m_defect)
        nus = sample_mult_one_elements(rho.shape, cfg.sample_count, cfg.seed)
        smin = min(np.linalg.svd(arr + nu.data, compute_uv=False)[-1] for nu in nus)
        out["iii_alg"] = (smin - cfg.eq_tol > 0, smin - cfg.eq_tol)
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


class TestLayoutOracles:
    """Structures built from the cells equal their index-loop forms exactly."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_swap_matrix(self, n):
        assert np.array_equal(swap_matrix(n), oracles.swap_matrix(n))

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    def test_projectors(self, blocks):
        fresh = _diag_projector_cached.__wrapped__(blocks)
        assert np.array_equal(fresh.data, oracles.diag_projector(blocks))
        assert np.array_equal(canonical_mult_one(blocks).data, oracles.canonical_mult_one(blocks))

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    @pytest.mark.parametrize("order", [1, 2])
    def test_hermitian_param_basis(self, blocks, order):
        assert np.array_equal(
            hermitian_param_basis(blocks, order), oracles.hermitian_param_basis(blocks, order)
        )

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

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    def test_grouping_permutation(self, blocks):
        for other in [(1,), (2,), (2, 1), (1, 2, 1), blocks]:
            got = _grouping_permutation(AlgebraShape(blocks), AlgebraShape(other))
            assert np.array_equal(got, oracles.grouping_permutation(blocks, other))

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    def test_offdiag_columns_complement_the_diagonal(self, blocks):
        # the search's per-cell isometries u have orthonormal columns, and
        # their u u* are the cells of 1 - P (the identity where u is None)
        pos, _ = _layout(blocks, 2)
        complement = (np.eye(sum(blocks) ** 2) - diag_projector(blocks).data).ravel()[pos]
        spanned = np.zeros_like(complement)
        for cols, shape, u, uh, _ in _cone_groups(blocks, 1.0):
            if u is None:
                spanned[cols] = np.broadcast_to(np.eye(shape[1]), shape).ravel()
            else:
                assert np.allclose(uh @ u, np.eye(u.shape[2]), atol=1e-14)
                spanned[cols] = (u @ uh).ravel()
        assert np.allclose(spanned, complement, atol=1e-14)


class TestSampledCheck:
    """The stacked iii_alg check against the loop over samples and cells."""

    @pytest.mark.parametrize("blocks", ALL_SHAPES)
    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("count", [1, 8])
    def test_matches_loop(self, blocks, seed, count):
        rng = np.random.default_rng(sum(blocks) + 10 * seed + count)
        g = random_element(blocks, 2, rng).data
        cfg = ToleranceConfig(sample_count=count, seed=seed)
        nus = sample_mult_one_elements(blocks, count, seed)
        for rho in (BiElement.zeros(blocks), BiElement(blocks, g @ g.conj().T)):
            rec = check_alg_nondegenerate_sampled(rho, cfg)
            passed, margin, witness = oracles.alg_nondegenerate_loop(rho, nus, cfg.eq_tol)
            assert rec.passed == passed and rec.margin == margin
            if witness is None:
                assert rec.witness is None
            else:
                assert rec.witness.tobytes() == witness.tobytes()

    @pytest.mark.parametrize("blocks", [(1,) * 4, (2,), (2, 1), (2, 2, 2)])
    def test_cached_samples_equal_fresh_ones(self, blocks):
        cached = sample_mult_one_elements(blocks, 6, 5)
        fresh = _mult_one_samples.__wrapped__(blocks, 6, 5, 64)
        assert len(cached) == len(fresh) == 6
        for a, b in zip(cached, fresh):
            assert a.data.tobytes() == b.data.tobytes()
            assert not a.data.flags.writeable
        for index, mats in _sample_cells(blocks, 6, 5):
            assert mats.shape[:2] == (6, index.shape[0])
            assert not index.flags.writeable and not mats.flags.writeable

    def test_returned_list_is_fresh(self):
        first = sample_mult_one_elements((2, 1), 3, 4)
        kept = [nu.data.tobytes() for nu in first]
        first.reverse()
        first.append(first[0])
        again = sample_mult_one_elements((2, 1), 3, 4)
        assert [nu.data.tobytes() for nu in again] == kept

    def test_caches_are_bounded(self):
        for cached in (_mult_one_samples, _sample_cells):
            assert cached.cache_info().maxsize is not None


@pytest.mark.parametrize("blocks", ALL_SHAPES + ["tensor"])
@pytest.mark.parametrize("mode", ["representation", "algebraic"])
def test_cell_and_dense_agree(blocks, mode):
    rng = np.random.default_rng(sum(map(ord, f"{blocks}{mode}")))
    rhos = tensor_candidates(rng) if blocks == "tensor" else candidates(blocks, rng)
    cfg = ToleranceConfig()
    for rho in rhos:
        tol = 1e-12 * max(1.0, dense_norm(rho.data))
        assert op_norm(rho) == pytest.approx(dense_norm(rho.data), rel=0, abs=tol)
        dense = dense_records(rho, cfg, mode)
        report = verify(rho, cfg, mode=mode)
        for rec in report.records:
            passed, margin = dense[rec.axiom]
            assert rec.passed == passed, (rho, rec.axiom)
            if np.isnan(margin):
                assert rec.indeterminate
            else:
                assert abs(rec.margin - margin) <= tol, (rho, rec.axiom)


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
    basis = hermitian_param_basis(blocks, 1)
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
        for (i, a), (j, b) in zip(triangle_slack_cells(rho.data, blocks), dense):
            assert np.array_equal(i, j) and np.array_equal(a, b)


def test_slack_cells_carry_leading_axes():
    rng = np.random.default_rng(9)
    for blocks in [(1, 1, 1), (2, 1), (2, 2)]:
        stack = np.stack([random_element(blocks, 2, rng, hermitian=True).data for _ in range(3)])
        together = triangle_slack_cells(stack, blocks)
        for k in range(3):
            for (i, a), (j, b) in zip(together, triangle_slack_cells(stack[k], blocks)):
                assert np.array_equal(i, j) and np.array_equal(a[k], b)


def _block_unitary(blocks, rng) -> np.ndarray:
    d = sum(blocks)
    u = np.zeros((d, d), dtype=complex)
    start = 0
    for n in blocks:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        u[start : start + n, start : start + n] = q * (np.diag(r) / np.abs(np.diag(r)))
        start += n
    return u


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
    uu = np.kron(*(2 * [_block_unitary(blocks, rng)]))
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
