import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetric import (
    AlgebraElement,
    AlgebraShape,
    BiElement,
    NonFiniteError,
    ShapeMismatchError,
    SupportError,
    diag_projector,
    flip,
    identity,
    mid_embed,
    min_eig,
    mult_map,
    op_norm,
    tensor2,
    verify,
)
from qmetric.algebra import (
    ENTRY_BOUND,
    as_shape,
    cells,
    permute_legs,
    random_element,
    swap_matrix,
    zero_clip,
)
from qmetric.axioms import M2_TRIANGLE_DEFECT, m2_admissible
from qmetric.construct import FiniteMetricSpace, from_finite_metric

SHAPES = [(2,), (1, 1), (3,), (2, 3), (1, 2), (1, 1, 1)]


def unit(d, i, j):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1.0
    return m


class TestShape:
    def test_basic(self):
        s = AlgebraShape((2, 3))
        assert s.dim == 5
        assert s.num_blocks == 2
        assert not s.is_classical
        assert s.block_ranges() == [(0, 2), (2, 5)]
        assert list(s.block_labels()) == [0, 0, 1, 1, 1]

    def test_classical(self):
        assert AlgebraShape((1, 1, 1)).is_classical

    def test_invalid(self):
        with pytest.raises(ValueError):
            AlgebraShape(())
        with pytest.raises(ValueError):
            AlgebraShape((2, 0))


class TestAsShape:
    """as_shape keeps one shape per blocks tuple, and refuses bad blocks as AlgebraShape does."""

    def test_one_shape_per_blocks(self):
        assert as_shape([2, 1]) is as_shape((2, 1))
        assert as_shape(as_shape((2, 1))) is as_shape((2, 1))
        for blocks in (np.array([2, 1]), (2.0, 1.0), (True, 1), ("2", "1")):
            shape = as_shape(blocks)
            assert shape == AlgebraShape((2, 1) if blocks[0] is not True else (1, 1))
            assert all(type(n) is int for n in shape.blocks)

    @pytest.mark.parametrize(
        "blocks",
        [[], [2, 0], [2, -1], [[1]], [None], ["x"], [2 + 0j], [1 + 0j, 1], [float("nan")]],
        ids=repr,
    )
    def test_bad_blocks_raise_as_algebra_shape_does(self, blocks):
        # shapes equal to these under == are made first, so a lookup by value alone would return them
        as_shape((2,))
        as_shape((1, 1))
        with pytest.raises((TypeError, ValueError)) as want:
            AlgebraShape(tuple(blocks))
        for _ in range(2):
            with pytest.raises(type(want.value)) as got:
                as_shape(blocks)
            assert str(got.value) == str(want.value)


class TestElements:
    def test_identity_shapes(self):
        assert np.array_equal(identity((2,)).data, np.eye(2))
        assert np.array_equal(identity((1, 1)).data, np.eye(2))
        assert np.array_equal(identity((2, 3)).data, np.eye(5))

    def test_support_enforced(self):
        bad = np.ones((2, 2), dtype=complex)
        with pytest.raises(SupportError):
            AlgebraElement(AlgebraShape((1, 1)), bad)

    def test_dimension_enforced(self):
        with pytest.raises(ShapeMismatchError):
            BiElement(AlgebraShape((2,)), np.zeros((3, 3)))

    def test_immutable(self):
        x = identity((2,))
        with pytest.raises(ValueError):
            x.data[0, 0] = 5.0

    def test_arithmetic(self):
        rng = np.random.default_rng(0)
        a = random_element((2, 1), 2, rng)
        b = random_element((2, 1), 2, rng)
        assert np.allclose((a + b).data, a.data + b.data)
        assert np.allclose((2.5 * a).data, 2.5 * a.data)
        assert np.allclose((a @ b).data, a.data @ b.data)
        assert np.allclose(a.adjoint.data, a.data.conj().T)

    def test_mixed_shape_rejected(self):
        with pytest.raises(ShapeMismatchError):
            identity((2,)) + identity((1, 1))

    def test_negation_allclose_and_repr(self):
        a = random_element((2, 1), 2, np.random.default_rng(4))
        assert np.array_equal((-a).data, -a.data)
        assert (-a).allclose(a * -1.0)
        assert not a.allclose(-a)
        near = a + BiElement((2, 1), 1e-13 * np.eye(9))
        assert a.allclose(near) and not a.allclose(near, tol=1e-14)
        with pytest.raises(ShapeMismatchError):
            a.allclose(identity((2, 1)))
        assert repr(a) == "BiElement(blocks=(2, 1), dim=9)"
        assert repr(identity((2,))) == "AlgebraElement(blocks=(2,), dim=2)"


class TestTensor2:
    def test_unit_times_unit_is_identity(self):
        one = identity((2, 3))
        assert np.array_equal(tensor2(one, one).data, np.eye(25))

    def test_matrix_unit_position(self):
        # index oracle: kron(e_ij, e_kl) has its single 1 at
        # row i*D + k, column j*D + l
        d = 2
        shape = AlgebraShape((2,))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        t = tensor2(
                            AlgebraElement(shape, unit(d, i, j)),
                            AlgebraElement(shape, unit(d, k, l)),
                        )
                        expected = np.zeros((4, 4))
                        expected[i * d + k, j * d + l] = 1.0
                        assert np.array_equal(t.data, expected)

    def test_identification_layout(self):
        # the 4x4 identification of a full coefficient tensor on two
        # 2x2 factors, laid out with lexicographic leg ordering
        rng = np.random.default_rng(3)
        lam = rng.standard_normal((2, 2, 2, 2))
        shape = AlgebraShape((2,))
        total = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        total += lam[i, j, k, l] * tensor2(
                            AlgebraElement(shape, unit(2, i, j)),
                            AlgebraElement(shape, unit(2, k, l)),
                        ).data
        expected = np.array(
            [
                [lam[0, 0, 0, 0], lam[0, 0, 0, 1], lam[0, 1, 0, 0], lam[0, 1, 0, 1]],
                [lam[0, 0, 1, 0], lam[0, 0, 1, 1], lam[0, 1, 1, 0], lam[0, 1, 1, 1]],
                [lam[1, 0, 0, 0], lam[1, 0, 0, 1], lam[1, 1, 0, 0], lam[1, 1, 0, 1]],
                [lam[1, 0, 1, 0], lam[1, 0, 1, 1], lam[1, 1, 1, 0], lam[1, 1, 1, 1]],
            ]
        )
        assert np.allclose(total, expected)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            tensor2(identity((2,)), identity((1, 1)))


class TestFlip:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(SHAPES))
    def test_involutive_isometry(self, seed, blocks):
        rng = np.random.default_rng(seed)
        r = random_element(blocks, 2, rng)
        assert np.allclose(flip(flip(r)).data, r.data, atol=1e-14)
        assert op_norm(flip(r)) == pytest.approx(op_norm(r), abs=1e-10)

    def test_on_generators(self):
        shape = AlgebraShape((2,))
        rng = np.random.default_rng(1)
        a = random_element(shape, 1, rng)
        b = random_element(shape, 1, rng)
        assert np.allclose(flip(tensor2(a, b)).data, tensor2(b, a).data, atol=1e-14)

    def test_fixes_diag_projector(self):
        for blocks in SHAPES:
            p = diag_projector(blocks)
            assert np.allclose(flip(p).data, p.data, atol=1e-14)

    def test_linear(self):
        rng = np.random.default_rng(2)
        r = random_element((2, 1), 2, rng)
        s = random_element((2, 1), 2, rng)
        lhs = flip(2.0 * r + s)
        rhs = 2.0 * flip(r) + flip(s)
        assert np.array_equal(lhs.data, rhs.data)


class TestMidEmbed:
    def test_unital(self):
        shape = AlgebraShape((2, 1))
        one2 = tensor2(identity(shape), identity(shape))
        assert np.array_equal(mid_embed(one2).data, np.eye(27))

    def test_on_generators(self):
        shape = AlgebraShape((2,))
        rng = np.random.default_rng(4)
        a = random_element(shape, 1, rng)
        b = random_element(shape, 1, rng)
        expected = np.kron(a.data, np.kron(np.eye(2), b.data))
        assert np.allclose(mid_embed(tensor2(a, b)).data, expected, atol=1e-14)

    def test_multiplicative_star_unital(self):
        rng = np.random.default_rng(5)
        shape = AlgebraShape((2, 1))
        r = random_element(shape, 2, rng)
        s = random_element(shape, 2, rng)
        assert np.allclose(mid_embed(r @ s).data, (mid_embed(r) @ mid_embed(s)).data, atol=1e-12)
        assert np.allclose(mid_embed(r.adjoint).data, mid_embed(r).adjoint.data, atol=1e-14)

    def test_consistent_with_reference_defect(self):
        # for the admissible two-level family, mid(rho) is pinned by the
        # reference slack matrix and the two outer embeddings
        rho = m2_admissible(1.0)
        eye = np.eye(2)
        implied = np.kron(rho.data, eye) + np.kron(eye, rho.data) - M2_TRIANGLE_DEFECT
        assert np.allclose(mid_embed(rho).data, implied, atol=1e-14)


class TestMultMap:
    def test_unital(self):
        shape = AlgebraShape((2, 3))
        one2 = tensor2(identity(shape), identity(shape))
        assert np.allclose(mult_map(one2).data, np.eye(5), atol=1e-14)

    def test_classical_diagonal_collapse(self):
        shape = AlgebraShape((1, 1))
        r = BiElement(shape, np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex))
        assert np.allclose(mult_map(r).data, np.diag([0.0, 0.0]), atol=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.sampled_from(SHAPES))
    def test_product_oracle(self, seed, blocks):
        rng = np.random.default_rng(seed)
        a = random_element(blocks, 1, rng)
        b = random_element(blocks, 1, rng)
        assert np.allclose(mult_map(tensor2(a, b)).data, (a @ b).data, atol=1e-12)

    def test_linear(self):
        rng = np.random.default_rng(6)
        r = random_element((2, 1), 2, rng)
        s = random_element((2, 1), 2, rng)
        assert np.allclose(
            mult_map(3.0 * r + s).data,
            (3.0 * mult_map(r) + mult_map(s)).data,
            atol=1e-13,
        )


class TestDiagProjector:
    def test_two_level_reference(self):
        expected = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        p = diag_projector((2,))
        assert np.array_equal(p.data.real, expected)
        assert np.all(p.data.imag == 0)

    def test_classical_indicator(self):
        p = diag_projector((1, 1))
        assert np.array_equal(p.data.real, np.diag([1.0, 0.0, 0.0, 1.0]))

    def test_rank_three_level(self):
        # eigen-oracle: the symmetric subspace of two three-level legs
        # has dimension 3 * 4 / 2 = 6
        p = diag_projector((3,))
        vals = np.linalg.eigvalsh(p.data)
        assert int(np.sum(vals > 0.5)) == 6
        assert np.allclose(vals[vals > 0.5], 1.0, atol=1e-12)

    @pytest.mark.parametrize("blocks", SHAPES)
    def test_projector_identities(self, blocks):
        p = diag_projector(blocks)
        assert np.allclose((p @ p).data, p.data, atol=1e-12)
        assert np.allclose(p.adjoint.data, p.data, atol=1e-14)
        rank = int(round(np.trace(p.data).real))
        assert rank == sum(n * (n + 1) // 2 for n in blocks)


class TestNorms:
    def test_op_norm(self):
        assert op_norm(identity((2, 3))) == pytest.approx(1.0)
        assert op_norm(m2_admissible(1.5)) == pytest.approx(3.0, abs=1e-12)
        shape = AlgebraShape((1, 1))
        r = BiElement(shape, np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex))
        assert op_norm(r) == pytest.approx(1.0)

    def test_min_eig(self):
        lam, vec = min_eig(identity((3,)))
        assert lam == pytest.approx(1.0)
        lam, vec = min_eig(diag_projector((2,)))
        assert lam == pytest.approx(0.0, abs=1e-12)

    def test_min_eig_reference_defect(self):
        lam, vec = min_eig(M2_TRIANGLE_DEFECT)
        assert lam == pytest.approx(-1.0, abs=1e-10)
        quad = float(np.real(vec.conj() @ M2_TRIANGLE_DEFECT @ vec))
        assert quad == pytest.approx(lam, abs=1e-10)

    def test_min_eig_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            min_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_is_selfadjoint(self):
        rng = np.random.default_rng(12)
        for blocks in [(2, 1), (1, 1, 1), (2, 2)]:
            assert random_element(blocks, 2, rng, hermitian=True).is_selfadjoint()
            assert not random_element(blocks, 2, rng).is_selfadjoint()

    @pytest.mark.parametrize("side", [-1, 1])
    def test_is_selfadjoint_at_the_tolerance(self, side):
        # x - x* has norm t and ||x|| < 1, so the test is t <= tol
        tol = 1e-3
        t = tol * (1.0 + side * 1e-6)
        x = AlgebraElement((2, 1), np.diag([0.5, 0.5, 0.25]) + unit(3, 0, 1) * t)
        assert x.is_selfadjoint(tol) == (side < 0)
        assert not x.is_selfadjoint()
        assert (x + x.adjoint).is_selfadjoint(tol=0.0)


class TestHelpers:
    def test_swap_matrix(self):
        s = swap_matrix(2)
        v = np.kron([1, 0], [0, 1.0])
        assert np.allclose(s @ v, np.kron([0, 1.0], [1, 0]))

    def test_permute_legs_heterogeneous(self):
        a = np.random.default_rng(7).standard_normal((2, 2))
        b = np.random.default_rng(8).standard_normal((3, 3))
        swapped = permute_legs(np.kron(a, b), (1, 0), (2, 3))
        assert np.allclose(swapped, np.kron(b, a))

    def test_support_mask_counts(self):
        covered = sum(g.index.shape[0] * g.index.shape[1] ** 2 for g in cells((2, 1), 2))
        assert covered == sum((n * m) ** 2 for n in (2, 1) for m in (2, 1))

    @pytest.mark.parametrize("order", [0, 4])
    def test_cells_refuse_other_orders(self, order):
        with pytest.raises(ValueError, match="only tensor orders 1, 2, 3 are supported"):
            cells((2, 1), order)

    def test_zero_clip(self):
        arr = np.array([[1e-15 + 1e-16j, 1.0]])
        out = zero_clip(arr)
        assert out[0, 0] == 0.0
        assert out[0, 1] == 1.0


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_bielement_rejects(self, bad):
        from qmetric import NonFiniteError

        data = m2_admissible(1.0).data.copy()
        data[1, 1] = bad
        with pytest.raises(NonFiniteError, match="finite"):
            BiElement(AlgebraShape((2,)), data)

    def test_is_a_value_error(self):
        from qmetric import NonFiniteError

        with pytest.raises(ValueError):
            AlgebraElement(AlgebraShape((1, 1)), np.diag([np.nan, 1.0]))
        assert issubclass(NonFiniteError, ValueError)


class TestEntryBound:
    """Finite parts above 2**1000 are refused wherever an element is made.

    The suite turns every warning into an error, so an overflow warning fails these tests.
    """

    BOUND_TEXT = "finite values above 2**1000 (about 1.07e301) are rejected"
    TWO_MINUS_FLIP = 2 * np.eye(4) - swap_matrix(2)

    def test_overflow_scale_element_is_refused(self):
        with pytest.raises(NonFiniteError) as err:
            BiElement((2,), 7.5e307 * self.TWO_MINUS_FLIP)
        assert str(err.value) == f"entry 0 has magnitude 7.5e+307; {self.BOUND_TEXT}"

    def test_element_at_the_bound_builds_and_verifies(self):
        rho = BiElement((2,), 2.0**999 * self.TWO_MINUS_FLIP)
        assert np.abs(rho.data).max() == ENTRY_BOUND
        assert verify(rho, mode="algebraic").passed
        assert not verify(rho, mode="representation").passed

    @pytest.mark.parametrize("entry", [2e301, -2e301, 2e301j, -2e301j])
    def test_each_part_is_bounded(self, entry):
        data = np.zeros((3, 3), dtype=complex)
        data[2, 2] = 1.0
        data[0, 1] = entry
        with pytest.raises(NonFiniteError, match=r"^entry 1 has magnitude 2e\+301; "):
            AlgebraElement((2, 1), data)
        # on a transposed view of the same data, the flat index follows the view
        with pytest.raises(NonFiniteError, match=r"^entry 3 has magnitude 2e\+301; "):
            AlgebraElement((2, 1), data.T)

    def test_a_modulus_above_the_bound_is_accepted(self):
        # the bound is on each part; the modulus of this entry is sqrt(2) * 2**1000
        x = AlgebraElement((1,), [[ENTRY_BOUND * (1 + 1j)]])
        assert x.data[0, 0] == ENTRY_BOUND * (1 + 1j)

    def test_nan_anywhere_gives_the_non_finite_error(self):
        with pytest.raises(NonFiniteError, match="^matrix data must be finite; found 1 NaN"):
            AlgebraElement((2,), [[3e301, 0.0], [0.0, np.nan]])

    def test_an_infinity_does_not_hide_a_part_above_the_bound(self):
        with pytest.raises(NonFiniteError, match=r"^entry 3 has magnitude 3e\+301; "):
            AlgebraElement((2,), [[np.inf, 0.0], [0.0, 3e301]])
        with pytest.raises(NonFiniteError, match="^matrix data must be finite; found 2 NaN"):
            AlgebraElement((2,), [[np.inf, 0.0], [0.0, -np.inf]])

    def test_results_beyond_the_bound_are_refused(self):
        x = AlgebraElement((2,), 0.75 * ENTRY_BOUND * np.eye(2))
        y = AlgebraElement((2,), 2e150 * np.eye(2))
        for result in (lambda: x + x, lambda: x - -x, lambda: 2 * x, lambda: (x * 1e-150) @ y):
            with pytest.raises(NonFiniteError, match=re.escape(self.BOUND_TEXT)):
                result()

    @pytest.mark.parametrize("op", ["matmul", "scale"])
    def test_results_that_overflow_are_refused_without_a_warning(self, op):
        # distances of 8e300 are within the bound; x @ x and x * 1e10 overflow to inf
        rho = from_finite_metric(FiniteMetricSpace(8e300 * (1 - np.eye(3)))).rho
        result = (lambda: rho @ rho) if op == "matmul" else (lambda: rho * 1e10)
        with pytest.raises(NonFiniteError, match="^matrix data must be finite; found .* NaN or infinite entries$"):
            result()
