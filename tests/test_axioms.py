import numpy as np
import pytest

from qmetric import (
    AlgebraShape,
    BiElement,
    MetricCandidate,
    NonFiniteError,
    ToleranceConfig,
    check_alg_diag,
    check_alg_nondegenerate_sampled,
    check_diag_vanish,
    check_flip_symmetric,
    check_nondegenerate,
    check_positive,
    check_triangle,
    diag_projector,
    flip,
    identity,
    m2_admissible,
    mult_map,
    tensor2,
    triangle_defect,
    verify,
)
from qmetric.algebra import random_element
from qmetric.axioms import (
    M2_DIAG_PROJECTOR,
    M2_NOGO_WITNESS,
    M2_TRIANGLE_DEFECT,
    canonical_mult_one,
    m2_defect_quadratic_form,
    sample_mult_one_elements,
)

from oracles import classical_axioms, embed_distance_matrix


def classical_two_point():
    return embed_distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestPositivity:
    def test_diag_projector_passes(self):
        rec = check_positive(diag_projector((2,)))
        assert rec.passed and rec.margin == pytest.approx(0.0, abs=1e-12)

    def test_admissible_family_passes(self):
        assert check_positive(m2_admissible(1.0)).passed

    def test_negative_identity_fails(self):
        shape = AlgebraShape((2,))
        rec = check_positive(-1.0 * tensor2(identity(shape), identity(shape)))
        assert not rec.passed
        assert rec.margin == pytest.approx(-1.0)
        assert rec.witness is not None


class TestFlipSymmetry:
    def test_classical_embedding_passes(self):
        assert check_flip_symmetric(classical_two_point()).passed

    def test_admissible_family_passes(self):
        assert check_flip_symmetric(m2_admissible(2.0)).passed

    def test_nonsymmetric_fails(self):
        shape = AlgebraShape((2,))
        data = np.zeros((4, 4), dtype=complex)
        data[0, 1] = 1.0  # e_11 (x) e_12 in matrix units
        rec = check_flip_symmetric(BiElement(shape, data))
        assert not rec.passed


class TestDiagVanish:
    def test_admissible_annihilates_projector(self):
        rec = check_diag_vanish(m2_admissible(1.0))
        assert rec.passed and rec.margin == pytest.approx(0.0, abs=1e-12)

    def test_projector_itself_fails(self):
        rec = check_diag_vanish(diag_projector((2,)))
        assert not rec.passed
        assert rec.margin == pytest.approx(-1.0, abs=1e-12)

    def test_classical_zero_diagonal_passes(self):
        assert check_diag_vanish(classical_two_point()).passed


class TestNondegenerate:
    def test_admissible_eigenvalues(self):
        # spectrum of rho(1) + projector is {1, 1, 1, 2}
        rho = m2_admissible(1.0)
        vals = np.linalg.eigvalsh(rho.data + diag_projector((2,)).data)
        assert np.allclose(sorted(vals), [1.0, 1.0, 1.0, 2.0], atol=1e-12)
        rec = check_nondegenerate(rho)
        assert rec.passed
        assert rec.margin == pytest.approx(1.0, abs=1e-6)

    def test_zero_candidate_fails_off_one_point(self):
        rec = check_nondegenerate(BiElement.zeros((1, 1)))
        assert not rec.passed

    def test_zero_candidate_passes_on_one_point(self):
        rec = check_nondegenerate(BiElement.zeros((1,)))
        assert rec.passed

    def test_classical_passes_with_small_floor(self):
        rec = check_nondegenerate(
            classical_two_point(), ToleranceConfig(strict_floor=0.5)
        )
        assert rec.passed and rec.margin == pytest.approx(0.5, abs=1e-12)

    def test_indeterminate_when_prerequisites_fail(self):
        rec = check_nondegenerate(diag_projector((2,)))
        assert not rec.passed
        assert rec.indeterminate
        assert np.isnan(rec.margin)


class TestTriangle:
    def test_zero_defect(self):
        assert np.all(triangle_defect(BiElement.zeros((2,))).data == 0)

    def test_reference_defect_exact(self):
        defect = triangle_defect(m2_admissible(1.0)).data
        assert np.array_equal(defect.real, M2_TRIANGLE_DEFECT)
        assert np.all(defect.imag == 0)

    def test_classical_two_point_defect(self):
        # equality path x -> y -> x makes the smallest eigenvalue 0
        defect = triangle_defect(classical_two_point())
        vals = np.linalg.eigvalsh(defect.data)
        assert vals[0] == pytest.approx(0.0, abs=1e-12)

    def test_admissible_fails_with_witness(self):
        rho = m2_admissible(1.0)
        rec = check_triangle(rho)
        assert not rec.passed
        assert rec.margin == pytest.approx(-1.0, abs=1e-10)
        assert rec.witness is not None
        quad = float(np.real(rec.witness.conj() @ triangle_defect(rho).data @ rec.witness))
        assert quad < 0

    def test_named_witness_value(self):
        for lam in (0.1, 1.0, 10.0):
            defect = triangle_defect(m2_admissible(lam)).data
            value = float(M2_NOGO_WITNESS @ defect.real @ M2_NOGO_WITNESS)
            assert value == pytest.approx(-2.0 * lam, abs=1e-12 * max(1.0, lam))

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(11)
        for lam in (0.3, 1.0, 4.0):
            defect = triangle_defect(m2_admissible(lam)).data.real
            for _ in range(200):
                x = rng.standard_normal(8)
                lhs = float(x @ defect @ x)
                rhs = lam * m2_defect_quadratic_form(x)
                assert abs(lhs - rhs) <= 1e-10 * lam * max(1.0, x @ x)

    def test_valid_classical_passes(self):
        from oracles import random_metric

        rng = np.random.default_rng(12)
        for _ in range(5):
            d = random_metric(rng, 4)
            assert classical_axioms(d)["v"]
            assert check_triangle(embed_distance_matrix(d)).passed

    def test_zero_passes(self):
        rec = check_triangle(BiElement.zeros((2,)))
        assert rec.passed and rec.margin == pytest.approx(0.0, abs=1e-14)


class TestAlgebraicDiag:
    def test_classical_zero_diag_passes(self):
        assert check_alg_diag(classical_two_point()).passed

    def test_unit_fails(self):
        shape = AlgebraShape((1, 1))
        one2 = tensor2(identity(shape), identity(shape))
        rec = check_alg_diag(one2)
        assert not rec.passed
        assert rec.margin == pytest.approx(-1.0, abs=1e-12)

    def test_admissible_family_verdict(self):
        # matrix-unit oracle: the family at parameter t is
        # t (e00 (x) e11 + e11 (x) e00 - e01 (x) e10 - e10 (x) e01),
        # whose image under multiplication is -t times the identity
        t = 0.7
        rho = m2_admissible(t)
        m = mult_map(rho)
        assert np.allclose(m.data, -t * np.eye(2), atol=1e-14)
        rec = check_alg_diag(rho)
        assert not rec.passed
        assert rec.margin == pytest.approx(-t, abs=1e-12)


class TestAlgebraicNondegenerate:
    @pytest.mark.parametrize(
        "blocks", [(2,), (1, 1), (2, 1), (3,), (1,) * 9, (2, 2), (2, 1, 1), (2, 2, 2), (3, 3, 3)]
    )
    def test_canonical_element_properties(self, blocks):
        nu = canonical_mult_one(blocks)
        assert np.allclose(mult_map(nu).data, np.eye(sum(blocks)), atol=1e-12)
        assert np.allclose(flip(nu).data, nu.data, atol=1e-14)
        assert np.linalg.eigvalsh(nu.data)[0] >= -1e-12

    def test_classical_canonical_is_indicator(self):
        nu = canonical_mult_one((1, 1))
        assert np.array_equal(nu.data.real, np.diag([1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("blocks", [(2,), (1, 1, 1), (1, 2)])
    def test_sampler_constraints(self, blocks):
        d = sum(blocks)
        for nu in sample_mult_one_elements(blocks, 5, seed=3):
            assert np.allclose(mult_map(nu).data, np.eye(d), atol=1e-9)
            assert np.allclose(flip(nu).data, nu.data, atol=1e-9)
            assert np.linalg.eigvalsh(nu.data)[0] >= -1e-11

    def test_sampler_deterministic(self):
        a = sample_mult_one_elements((2,), 4, seed=9)
        b = sample_mult_one_elements((2,), 4, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    @pytest.mark.parametrize("count", [0, -3])
    def test_sampler_rejects_count_below_one(self, count):
        with pytest.raises(ValueError, match="count"):
            sample_mult_one_elements((2,), count, seed=0)

    def test_valid_classical_passes(self):
        rec = check_alg_nondegenerate_sampled(classical_two_point())
        assert rec.passed
        assert "not falsified" in rec.note

    def test_zero_candidate_falsified_by_canonical(self):
        rec = check_alg_nondegenerate_sampled(BiElement.zeros((1, 1)))
        assert not rec.passed
        assert rec.witness is not None


class TestToleranceConfig:
    @pytest.mark.parametrize(
        "field", [{"eq_tol": np.nan}, {"psd_tol": np.nan}, {"strict_floor": np.nan}, {"strict_floor": np.inf}]
    )
    def test_rejects_non_finite(self, field):
        with pytest.raises(NonFiniteError, match="tolerances must be finite"):
            ToleranceConfig(**field)

    def test_accepts_the_default_floor(self):
        assert ToleranceConfig(strict_floor=None).resolved_floor(2.0) == pytest.approx(2e-8)


class TestVerify:
    def test_classical_discrete_three_points_both_modes(self):
        d = np.ones((3, 3)) - np.eye(3)
        rho = embed_distance_matrix(d)
        assert classical_axioms(d)["all"]
        assert verify(rho).passed
        assert verify(rho, mode="algebraic").passed

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
    def test_admissible_fails_exactly_at_triangle(self, lam):
        report = verify(m2_admissible(lam))
        assert not report.passed
        assert report.failing == ("v",)

    def test_unit_fails_diagonal_in_both_modes(self):
        shape = AlgebraShape((1, 1))
        one2 = tensor2(identity(shape), identity(shape))
        assert "ii" in verify(one2).failing
        assert "ii_alg" in verify(one2, mode="algebraic").failing

    def test_scaling_covariance(self):
        # powers of two scale margins of (i), (ii), (v) exactly
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        rho = embed_distance_matrix(d)
        c = 4.0
        base = verify(rho, ToleranceConfig(strict_floor=1e-6))
        scaled = verify(4.0 * rho, ToleranceConfig(strict_floor=4e-6))
        assert base.passed == scaled.passed
        for tag in ("i", "ii", "v"):
            assert scaled.record(tag).margin == pytest.approx(
                c * base.record(tag).margin, abs=1e-13
            )
        for tag in ("i", "ii", "iii", "iv", "v"):
            assert base.record(tag).passed == scaled.record(tag).passed

    def test_mode_agreement_on_classical_diagonal(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = np.abs(rng.standard_normal((3, 3)))
            d = (d + d.T) / 2
            if rng.random() < 0.5:
                np.fill_diagonal(d, 0.0)
            rho = embed_distance_matrix(d)
            assert check_diag_vanish(rho).passed == check_alg_diag(rho).passed

    def test_zero_on_one_point_is_a_metric(self):
        report = verify(BiElement.zeros((1,)))
        assert report.passed

    def test_zero_on_two_points_fails_nondegeneracy(self):
        report = verify(BiElement.zeros((1, 1)))
        assert not report.passed
        assert report.failing == ("iii",)

    def test_shape_cross_check(self):
        from qmetric import ShapeMismatchError

        with pytest.raises(ShapeMismatchError):
            verify(m2_admissible(1.0), shape=(1, 1))

    def test_never_raises_on_messy_input(self):
        rng = np.random.default_rng(33)
        for blocks in [(2,), (1, 2), (1, 1, 1)]:
            r = random_element(blocks, 2, rng)
            report = verify(r)
            assert not report.passed
            for rec in report.records:
                assert rec.indeterminate or np.isfinite(rec.margin)

    def test_report_serialization(self):
        report = verify(m2_admissible(1.0))
        doc = report.to_dict()
        assert doc["mode"] == "representation"
        assert doc["shape"] == [2]
        assert not doc["passed"]
        tags = [r["axiom"] for r in doc["records"]]
        assert tags == ["i", "ii", "iii", "iv", "v"]
        failing = [r for r in doc["records"] if not r["passed"]]
        assert len(failing) == 1 and failing[0]["axiom"] == "v"
        assert failing[0]["witness"] is not None


class TestM2Family:
    def test_reference_projector(self):
        p = diag_projector((2,))
        assert np.array_equal(p.data.real, M2_DIAG_PROJECTOR)

    def test_family_at_unit_parameter(self):
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(m2_admissible(1.0).data.real, expected)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_passes_first_four_axioms(self, lam):
        rho = m2_admissible(lam)
        assert check_positive(rho).passed
        assert check_diag_vanish(rho).passed
        assert check_nondegenerate(rho).passed
        assert check_flip_symmetric(rho).passed

    def test_scaling(self):
        assert np.allclose(
            m2_admissible(2.0).data, 2.0 * m2_admissible(1.0).data, atol=1e-14
        )

    def test_rejects_nonpositive_parameter(self):
        with pytest.raises(ValueError):
            m2_admissible(0.0)
        with pytest.raises(ValueError):
            m2_admissible(-1.0)

    def test_diameter(self):
        assert MetricCandidate(m2_admissible(1.5)).diameter == pytest.approx(3.0, abs=1e-12)
        assert MetricCandidate(BiElement.zeros((2,))).diameter == 0.0
        d = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.5], [1.0, 1.5, 0.0]])
        assert MetricCandidate(embed_distance_matrix(d)).diameter == pytest.approx(2.0)
