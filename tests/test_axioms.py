import numpy as np
import pytest

from qmetric import (
    AlgebraShape,
    AxiomRecord,
    BiElement,
    MetricCandidate,
    NonFiniteError,
    PureState,
    State,
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
    op_norm,
    tensor2,
    triangle_defect,
    verify,
)
from qmetric.algebra import random_element
from qmetric.axioms import (
    M2_DIAG_PROJECTOR,
    M2_NOGO_WITNESS,
    M2_TRIANGLE_DEFECT,
    m2_defect_quadratic_form,
)

import oracles
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
        # ||rho(1)|| = 2, and the spectrum of rho(1) + 2 projector is {2, 2, 2, 2}
        rho = m2_admissible(1.0)
        vals = np.linalg.eigvalsh(rho.data + 2.0 * diag_projector((2,)).data)
        assert np.allclose(sorted(vals), [2.0, 2.0, 2.0, 2.0], atol=1e-12)
        rec = check_nondegenerate(rho)
        assert rec.passed
        assert rec.margin == pytest.approx(2.0, abs=1e-6)

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
        nu = BiElement(blocks, oracles.canonical_mult_one(blocks))
        assert np.allclose(mult_map(nu).data, np.eye(sum(blocks)), atol=1e-12)
        assert np.allclose(flip(nu).data, nu.data, atol=1e-14)
        assert np.linalg.eigvalsh(nu.data)[0] >= -1e-12

    def test_classical_canonical_is_indicator(self):
        nu = oracles.canonical_mult_one((1, 1))
        assert np.array_equal(nu.real, np.diag([1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("blocks", [(2,), (1, 1, 1), (1, 2)])
    def test_sampler_constraints(self, blocks):
        d = sum(blocks)
        for nu in oracles.mult_one_samples(blocks, 5, seed=3):
            nu = BiElement(blocks, nu)
            assert np.allclose(mult_map(nu).data, np.eye(d), atol=1e-9)
            assert np.allclose(flip(nu).data, nu.data, atol=1e-9)
            assert np.linalg.eigvalsh(nu.data)[0] >= -1e-11

    def test_sampler_deterministic(self):
        a = oracles.mult_one_samples((2,), 4, seed=9)
        b = oracles.mult_one_samples((2,), 4, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_valid_classical_passes(self):
        rec = check_alg_nondegenerate_sampled(classical_two_point())
        assert rec.passed
        assert rec.margin == 1.0 - 1e-8 and rec.note == ""

    def test_zero_candidate_falsified_by_canonical(self):
        rec = check_alg_nondegenerate_sampled(BiElement.zeros((1, 1)))
        assert not rec.passed
        assert rec.witness is not None


def p_anti(n: int) -> BiElement:
    """The projector (1 - F) / 2 onto the antisymmetric subspace of C^n (x) C^n."""
    return BiElement((n,), (np.eye(n * n) - swap(n)) / 2.0)


class TestExactAlgebraicCheck:
    """Verdicts of the exact iii_alg decision that the sampled check got wrong or left open."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_p_anti_fails_with_a_symmetric_kernel_witness(self, n):
        rec = verify(p_anti(n), mode="algebraic").record("iii_alg")
        assert not rec.passed and not rec.indeterminate
        # lambda_min 0 less the floor 1e-8 * ||P_anti||, with ||P_anti|| = 1
        assert rec.margin == pytest.approx(-1e-8, abs=1e-15)
        assert np.allclose(swap(n) @ rec.witness, rec.witness, atol=1e-12)

    @pytest.mark.parametrize("blocks", [(2,), (3,), (2, 1), (2, 2)])
    def test_metric_like_fails(self, blocks):
        from test_cells import metric_like

        rho = metric_like(blocks, np.random.default_rng(sum(blocks)))
        rec = verify(rho, mode="algebraic").record("iii_alg")
        assert not rec.passed and not rec.indeterminate
        nu = oracles.refuting_nu(blocks, rec.witness)
        assert np.linalg.norm((rho.data + nu) @ rec.witness) <= 1e-12 * op_norm(rho)

    def test_m2_admissible_fails(self):
        rec = verify(m2_admissible(1.0), mode="algebraic").record("iii_alg")
        assert not rec.passed and rec.witness is not None

    def test_two_minus_swap_margin(self):
        # the spectrum of 2 - F is 1 on the symmetric and 3 on the antisymmetric part
        rec = verify(BiElement((2,), 2 * np.eye(4) - swap(2)), mode="algebraic").record("iii_alg")
        assert rec.passed and rec.margin == pytest.approx(1.0 - 3e-8, abs=1e-15)

    @pytest.mark.parametrize("blocks", [(2, 1), (2, 2), (3, 3), (3, 1, 1)])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 4.0, 10.0])
    def test_swap_family_direct_sums(self, blocks, c):
        # (+)_k (n_k 1 - F_k) with c 1 on every cross cell: a metric from c = 2 on
        report = verify(BiElement(blocks, oracles.swap_family(blocks, c)), mode="algebraic")
        assert report.failing == (() if c >= 2 else ("v",))

    def test_indeterminate_when_positivity_fails(self):
        rho = BiElement((1, 1), -1.0 * np.eye(4))
        rec = verify(rho, mode="algebraic").record("iii_alg")
        assert rec.indeterminate and not rec.passed and np.isnan(rec.margin)
        assert check_alg_nondegenerate_sampled(rho).indeterminate

    @pytest.mark.parametrize("s", [1e-150, 1e-30, 1e-20, 1.0, 1e20, 1e150])
    def test_scaled_classical_metric_passes(self, s):
        d = oracles.random_metric(np.random.default_rng(5), 5)
        rec = verify(s * embed_distance_matrix(d), mode="algebraic").record("iii_alg")
        assert rec.passed
        assert rec.margin == pytest.approx(s * (d[d > 0].min() - 1e-8 * d.max()), rel=1e-12)

    @pytest.mark.parametrize("s", [1e-150, 1e-30, 1e-20, 1.0, 1e10, 1e20, 1e30, 1e150])
    def test_scaled_classical_metric_passes_in_representation_mode(self, s):
        # the shift of check iii scales with the candidate, as the floor does
        d = oracles.random_metric(np.random.default_rng(5), 5)
        report = verify(s * embed_distance_matrix(d))
        assert report.passed
        want = s * (d[d > 0].min() - 1e-8 * d.max())
        assert report.record("iii").margin == pytest.approx(want, rel=1e-12)

    def test_classical_verdicts_match_the_oracle(self):
        rng = np.random.default_rng(300)
        for n in range(2, 8):
            d = oracles.random_metric(rng, n)
            collapsed = d.copy()
            collapsed[0, 1] = collapsed[1, 0] = 0.0
            for variant in (
                d,
                oracles.plant_triangle_violation(rng, d) if n >= 3 else d,
                oracles.plant_negativity(rng, d),
                collapsed,
            ):
                want = classical_axioms(variant)
                report = verify(embed_distance_matrix(variant), mode="algebraic")
                got = {r.axiom: r.passed for r in report.records}
                assert got["i"] == want["i"] and got["ii_alg"] == want["ii"]
                assert got["iii_alg"] == (want["i"] and want["iii"])
                assert (got["iv"], got["v"], report.passed) == (want["iv"], want["v"], want["all"])


def _witnessed_record() -> AxiomRecord:
    return check_triangle(m2_admissible(1.0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: State((2,), (np.eye(2) / 2,)),
        lambda: PureState((2,), 0, [1.0, 0.0]),
        _witnessed_record,
        lambda: verify(m2_admissible(1.0)),
    ],
    ids=["State", "PureState", "AxiomRecord", "AxiomReport"],
)
def test_equality_and_hash_are_by_identity(make):
    a, twin = make(), make()
    assert a == a and a != twin
    assert hash(a) == hash(a)
    assert len({a, twin}) == 2


class TestToleranceConfig:
    @pytest.mark.parametrize(
        "field", [{"eq_tol": np.nan}, {"psd_tol": np.nan}, {"strict_floor": np.nan}, {"strict_floor": np.inf}]
    )
    def test_rejects_non_finite(self, field):
        with pytest.raises(NonFiniteError, match="tolerances must be finite"):
            ToleranceConfig(**field)

    def test_accepts_the_default_floor(self):
        assert ToleranceConfig(strict_floor=None).resolved_floor(2.0) == pytest.approx(2e-8)

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"eq_tol": -1e-9}, "tolerances must be nonnegative"),
            ({"psd_tol": -1e-9}, "tolerances must be nonnegative"),
            ({"strict_floor": 0.0}, "strict_floor must be positive when given"),
            ({"strict_floor": -1.0}, "strict_floor must be positive when given"),
            ({"sample_count": 0}, "sample_count must be >= 1"),
        ],
    )
    def test_rejects_out_of_range(self, field, message):
        with pytest.raises(ValueError, match=message):
            ToleranceConfig(**field)

    def test_rejects_a_tolerance_above_the_bound(self):
        with pytest.raises(NonFiniteError, match=r"^entry 1 has magnitude 1e\+302; finite values above 2\*\*1000"):
            ToleranceConfig(psd_tol=1e302)


class TestRecordsAndCandidates:
    def test_record_document_is_its_place_in_the_report(self):
        report = verify(m2_admissible(1.0))
        doc = report.record("v").to_dict()
        assert doc == report.to_dict()["records"][4]
        assert doc["witness"] == oracles.complex_pairs(report.record("v").witness)

    def test_unknown_axiom_is_a_key_error(self):
        with pytest.raises(KeyError, match="ii_alg"):
            verify(m2_admissible(1.0)).record("ii_alg")

    def test_verified_needs_a_passing_report_in_the_mode(self):
        rho = classical_two_point()
        assert not MetricCandidate(rho).verified()
        passing = MetricCandidate(rho, verify(rho))
        assert passing.verified() and not passing.verified("algebraic")
        assert MetricCandidate(rho, verify(rho, mode="algebraic")).verified("algebraic")
        failing = MetricCandidate(m2_admissible(1.0), verify(m2_admissible(1.0)))
        assert not failing.verified()


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

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match=r"mode must be one of \('representation', 'algebraic'\)"):
            verify(m2_admissible(1.0), mode="classical")

    def test_overflow_scale_defect_is_refused(self):
        # the defect of m2_admissible(lam) has entries up to 2 lam
        with pytest.raises(NonFiniteError, match=r"^entry \d+ has magnitude 1\.2e\+301; "):
            triangle_defect(m2_admissible(6e300))

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


def swap(n: int) -> np.ndarray:
    """The swap F of C^n (x) C^n, F |k l> = |l k>."""
    return np.eye(n * n).reshape(n, n, n, n).transpose(0, 1, 3, 2).reshape(n * n, n * n)


class TestSwapFamily:
    """rho = n 1(x)1 - F on (n,): what the algebraic checks accept and representation mode refuses."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_passes_algebraic_fails_representation_ii(self, n):
        rho = BiElement((n,), n * np.eye(n * n) - swap(n))
        alg = verify(rho, mode="algebraic")
        assert alg.passed
        assert alg.record("i").margin == pytest.approx(n - 1)
        assert alg.record("v").margin == pytest.approx(n - 2, abs=1e-12)
        assert alg.record("iii_alg").margin > 0
        rep = verify(rho)
        assert not rep.record("ii").passed
        assert rep.record("ii").margin == pytest.approx(-(n - 1))
        assert rep.record("i").passed and rep.record("iv").passed and rep.record("v").passed


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
