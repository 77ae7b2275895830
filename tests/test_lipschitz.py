import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetric import (
    AlgebraElement,
    AlgebraShape,
    BiElement,
    FiniteMetricSpace,
    MetricCandidate,
    NonFiniteError,
    PreconditionError,
    PureState,
    State,
    ToleranceConfig,
    check_leibniz,
    diag_projector,
    direct_sum,
    direct_sum_bound,
    flip,
    from_finite_metric,
    identity,
    lip_seminorm,
    m2_admissible,
    metric_pseudo_inverse,
    mk_distance,
    op_norm,
    pure_state_bound,
    verify,
)

from qmetric.algebra import random_element
from qmetric.exchange import load_element, load_state, save_state
from qmetric.lipschitz import (
    NegativeCycleError,
    _mk_upper_bound,
    _shortest_paths,
    _transport,
    exact_distance,
)

from oracles import (
    embed_distance_matrix,
    lipschitz_constant,
    plant_triangle_violation,
    pure_state_upper_bound,
    random_metric,
    seminorm_kernel,
    transport_lp_dual,
    transport_lp_primal,
)


def classical_candidate(d):
    return from_finite_metric(FiniteMetricSpace(np.asarray(d, dtype=float)))


def diagonal_element(shape, values):
    return AlgebraElement(shape, np.diag(np.asarray(values)).astype(complex))


def random_state(shape, rng):
    blocks = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in shape.blocks]
    dens = [g @ g.conj().T for g in blocks]
    total = sum(float(np.trace(x).real) for x in dens)
    return State(shape, tuple(x / total for x in dens))


def direct_sum_candidates(rng):
    """Candidates on the shapes (2, 2), (2, 1, 1) and (2, 2, 2)."""

    def m2():
        return MetricCandidate(m2_admissible(float(rng.uniform(0.2, 5.0))))

    def join(a, b):
        return direct_sum(a, b, float(op_norm(a.rho) + op_norm(b.rho)))

    two = classical_candidate(random_metric(rng, 2))
    return [join(m2(), m2()), join(m2(), two), join(join(m2(), m2()), m2())]


TWO_POINT = classical_candidate([[0.0, 1.0], [1.0, 0.0]])


class TestStates:
    def test_classical_state(self):
        s = State.classical([0.2, 0.8])
        assert s.shape.blocks == (1, 1)
        assert s.pair(identity(s.shape)) == pytest.approx(1.0)

    def test_rejects_negative_density(self):
        with pytest.raises(ValueError):
            State(AlgebraShape((2,)), (np.diag([1.5, -0.5]).astype(complex),))

    def test_first_failing_block_names_the_error(self):
        shape = AlgebraShape((1, 2, 1))
        skew = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            State(shape, (np.array([[-0.1]]), skew, np.array([[0.6]])))
        with pytest.raises(ValueError, match="self-adjoint"):
            State(shape, (np.array([[0.4]]), skew, np.array([[-0.4]])))
        # 1x1 blocks are tested without LAPACK, at the same tolerances
        half = np.diag([0.3, 0.3]).astype(complex)
        negative = np.diag([-0.1, 0.5]).astype(complex)
        with pytest.raises(ValueError, match="self-adjoint"):
            State(shape, (np.array([[0.4 + 1e-8j]]), half, np.array([[0.0]])))
        with pytest.raises(ValueError, match="positive semidefinite"):
            State(shape, (np.array([[0.4]]), half, np.array([[-1e-8]])))
        with pytest.raises(ValueError, match="self-adjoint"):
            State(shape, (np.array([[0.6 + 1e-8j]]), negative, np.array([[0.0]])))
        with pytest.raises(ValueError, match="positive semidefinite"):
            State(shape, (np.array([[0.6]]), negative, np.array([[1e-8j]])))
        for small in (1e-10j, -1e-10):
            State(shape, (np.array([[0.4]]), half, np.array([[small]])))

    def test_densities_are_read_only_copies(self):
        d = np.array([[0.25]], dtype=complex)
        s = State(AlgebraShape((1, 1)), (d, np.array([[0.75]])))
        d[0, 0] = 9.0
        assert s.densities[0][0, 0] == 0.25
        assert not s.densities[0].flags.writeable

    def test_wrong_shape_is_reported_before_a_non_finite_block(self):
        # every block passes its shape test before any is tested for finiteness
        with pytest.raises(ValueError, match=r"block density must be 2x2, got \(1, 1\)"):
            State(AlgebraShape((1, 2)), (np.array([[np.nan]]), np.array([[1.0]])))
        with pytest.raises(NonFiniteError, match="found 1 NaN"):
            State(AlgebraShape((1, 2)), (np.array([[np.nan]]), np.full((2, 2), np.inf)))

    @pytest.mark.parametrize(
        "blocks, dens, pure",
        [
            ((1, 1), [[[0.25]], [[0.75]]], None),
            ((1, 1, 1), None, (1, [1.0])),
            ((1,) * 8, [[[0.125]]] * 8, None),
            ((2,), None, (0, [0.6, 0.8j])),
            ((1, 2), [[[0.25]], [[0.375, 0.125 - 0.25j], [0.125 + 0.25j, 0.375]]], None),
            ((2, 1, 3), None, (2, [0.48, 0.6j, 0.64])),
        ],
    )
    def test_every_way_of_building_gives_the_same_state(self, tmp_path, blocks, dens, pure):
        # a pure state's densities are its vector's projector and zeros; documents
        # hold no negative zero and no part below 1e-14, so each state here is exact in one
        shape = AlgebraShape(blocks)
        if pure is not None:
            dens = [np.zeros((n, n)) for n in blocks]
            v = np.asarray(pure[1], dtype=complex)
            dens[pure[0]] = np.outer(v, v.conj())
        built = State(shape, tuple(dens))
        save_state(built, tmp_path / "s.json")
        states = [built, load_state(tmp_path / "s.json")]
        if shape.is_classical:
            states.append(State.classical([d[0, 0].real for d in built.densities]))
        if pure is not None:
            states.append(PureState(shape, *pure).to_state())
        for s in states:
            assert s.shape == shape
            for d, want in zip(s.densities, built.densities):
                assert np.array_equal(d, want) and not d.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    d[...] = 0
            assert s.as_element() is s.as_element()
            # bytes, so the signs of the zeros outside the blocks count too
            assert s.as_element().data.tobytes() == built.as_element().data.tobytes()

    @pytest.mark.parametrize("blocks", [(2,), (1, 2), (2, 1, 3)])
    def test_loaded_block_state_equals_the_built_one(self, tmp_path, blocks):
        shape = AlgebraShape(blocks)
        save_state(random_state(shape, np.random.default_rng(sum(blocks))), tmp_path / "s.json")
        loaded = load_state(tmp_path / "s.json")
        data = load_element(tmp_path / "s.json").data
        built = State(shape, tuple(data[a:b, a:b] for a, b in shape.block_ranges()))
        assert loaded.as_element() is loaded.as_element()
        assert loaded.as_element().data.tobytes() == built.as_element().data.tobytes() == data.tobytes()
        for d, want in zip(loaded.densities, built.densities):
            assert np.array_equal(d, want) and not d.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                d[...] = 0

    @pytest.mark.parametrize("weights", [0.5, [[0.5, 0.5]]])
    def test_classical_needs_a_vector(self, weights):
        with pytest.raises(ValueError, match="weights must be a vector"):
            State.classical(weights)

    def test_pure_state(self):
        v = PureState(AlgebraShape((1, 2)), 1, np.array([1.0, 1.0]) / np.sqrt(2))
        s = v.to_state()
        assert np.trace(s.densities[1]).real == pytest.approx(1.0)
        assert np.all(s.densities[0] == 0)
        # the zeros outside the vector's block are +0.0, whatever the vector's signs
        data = PureState(AlgebraShape((1, 2)), 1, [0.6, -0.8j]).to_state().as_element().data
        assert not np.signbit(np.concatenate([data[0], data[:, 0]]).view(float)).any()

    def test_pure_state_requires_unit_vector(self):
        with pytest.raises(ValueError):
            PureState(AlgebraShape((2,)), 0, np.array([1.0, 1.0]))

    def test_classical_rejects_nan(self):
        with pytest.raises(NonFiniteError, match="block densities must be finite"):
            State.classical([np.nan, 1.0])
        # the first bad weight names the error, as its 1x1 block did
        with pytest.raises(NonFiniteError, match="found 1 NaN"):
            State.classical([0.5, np.inf, np.nan])

    def test_pure_state_rejects_nan(self):
        with pytest.raises(NonFiniteError, match="pure-state vector must be finite"):
            PureState(AlgebraShape((2,)), 0, np.array([np.nan, 1.0]))


class TestPseudoInverse:
    def test_self_inverse_entries(self):
        pinv = metric_pseudo_inverse(TWO_POINT)
        assert np.allclose(pinv.data.real, np.diag([0.0, 1.0, 1.0, 0.0]), atol=1e-12)

    def test_reciprocal_entries(self):
        cand = classical_candidate([[0.0, 2.0], [2.0, 0.0]])
        pinv = metric_pseudo_inverse(cand)
        assert np.allclose(pinv.data.real, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-12)

    def test_projector_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            cand = classical_candidate(random_metric(rng, 4))
            pinv = metric_pseudo_inverse(cand)
            q = np.eye(16) - diag_projector(cand.shape).data
            assert np.allclose(cand.rho.data @ pinv.data, q, atol=1e-10)

    def test_refuses_degenerate(self):
        with pytest.raises(PreconditionError):
            metric_pseudo_inverse(BiElement.zeros((1, 1)))
        with pytest.raises(PreconditionError):
            metric_pseudo_inverse(diag_projector((2,)))

    def test_admissible_family_allowed(self):
        # the two-level family satisfies everything except the triangle,
        # which the pseudo-inverse does not need
        pinv = metric_pseudo_inverse(m2_admissible(2.0))
        rho = m2_admissible(2.0)
        assert np.allclose((rho.data @ pinv.data @ rho.data), rho.data, atol=1e-10)


class TestLipSeminorm:
    def test_unit_is_flat(self):
        assert lip_seminorm(identity(TWO_POINT.shape), TWO_POINT) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_two_point_indicator(self):
        a = diagonal_element(TWO_POINT.shape, [0.0, 1.0])
        assert lip_seminorm(a, TWO_POINT) == pytest.approx(1.0, abs=1e-12)

    def test_classical_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = random_metric(rng, n)
            cand = classical_candidate(d)
            values = rng.standard_normal(n)
            a = diagonal_element(cand.shape, values)
            assert lip_seminorm(a, cand) == pytest.approx(
                lipschitz_constant(d, values), abs=1e-9
            )

    def test_homogeneity_and_subadditivity(self):
        rng = np.random.default_rng(2)
        cand = classical_candidate(random_metric(rng, 4))
        pinv = metric_pseudo_inverse(cand)
        a = diagonal_element(cand.shape, rng.standard_normal(4))
        b = diagonal_element(cand.shape, rng.standard_normal(4))
        assert lip_seminorm(-2.5 * a, cand, pinv) == pytest.approx(
            2.5 * lip_seminorm(a, cand, pinv), abs=1e-10
        )
        assert lip_seminorm(a + b, cand, pinv) <= (
            lip_seminorm(a, cand, pinv) + lip_seminorm(b, cand, pinv) + 1e-10
        )

    def test_adjoint_invariance_for_normal_elements(self):
        # diagonal complex values give normal elements
        rng = np.random.default_rng(3)
        cand = classical_candidate(random_metric(rng, 4))
        values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = AlgebraElement(cand.shape, np.diag(values))
        assert lip_seminorm(a, cand) == pytest.approx(
            lip_seminorm(a.adjoint, cand), abs=1e-10
        )

    def test_noncommutative_homogeneity(self):
        rho = m2_admissible(1.0)
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a = AlgebraElement(rho.shape, (h + h.conj().T) / 2)
        assert lip_seminorm(3.0 * a, rho) == pytest.approx(
            3.0 * lip_seminorm(a, rho), abs=1e-10
        )


class TestLeibniz:
    def test_classical_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            cand = classical_candidate(random_metric(rng, n))
            a = diagonal_element(cand.shape, rng.standard_normal(n))
            b = diagonal_element(cand.shape, rng.standard_normal(n))
            holds, slack = check_leibniz(a, b, cand)
            assert holds

    def test_units(self):
        one = identity(TWO_POINT.shape)
        holds, slack = check_leibniz(one, one, TWO_POINT)
        assert holds
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_two_point_equality_case(self):
        a = diagonal_element(TWO_POINT.shape, [0.0, 1.0])
        holds, slack = check_leibniz(a, a, TWO_POINT)
        assert holds
        # lip(a^2) = 1, bound = ||a|| * 1 + 1 * ||a|| = 2
        assert slack == pytest.approx(1.0, abs=1e-10)

    def test_noncommutative_commuting_pair(self):
        rho = m2_admissible(1.0)
        rng = np.random.default_rng(6)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        a = AlgebraElement(rho.shape, h)
        b = AlgebraElement(rho.shape, h @ h + 0.5 * h)
        holds, _ = check_leibniz(a, b, rho)
        assert holds

    def test_rejects_noncommuting(self):
        rho = m2_admissible(1.0)
        a = AlgebraElement(rho.shape, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        b = AlgebraElement(rho.shape, np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex))
        with pytest.raises(ValueError):
            check_leibniz(a, b, rho)


class TestMKDistance:
    def test_two_point_deltas(self):
        phi, psi = State.classical([1.0, 0.0]), State.classical([0.0, 1.0])
        result = mk_distance(phi, psi, TWO_POINT)
        assert result.lower == pytest.approx(1.0, abs=1e-9)
        assert result.upper == pytest.approx(1.0, abs=1e-9)

    def test_identical_states(self):
        phi = State.classical([0.3, 0.7])
        result = mk_distance(phi, phi, TWO_POINT)
        assert result.lower == pytest.approx(0.0, abs=1e-9)

    def test_one_point_space(self):
        # no pair constraints: the program has an empty (0, 1) row block
        cand = classical_candidate([[0.0]])
        result = mk_distance(State.classical([1.0]), State.classical([1.0]), cand)
        assert result.lower == result.upper == 0.0

    def test_three_point_path(self):
        cand = classical_candidate([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        phi, psi = State.classical([1, 0, 0]), State.classical([0, 0, 1])
        result = mk_distance(phi, psi, cand)
        assert result.lower == pytest.approx(2.0, abs=1e-9)

    def test_against_primal_transport(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            d = random_metric(rng, n)
            cand = classical_candidate(d)
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            lp = mk_distance(State.classical(p), State.classical(q), cand)
            primal = transport_lp_primal(d, p, q)
            assert lp.lower == pytest.approx(primal, abs=1e-6)

    def test_lp_input_matches_pairwise_loop(self):
        # the transport solver agrees with the program written one pair of
        # constraints at a time, and no linear program is left to call
        import qmetric.lipschitz as lip

        assert not hasattr(lip, "linprog")
        rng = np.random.default_rng(15)
        d = random_metric(rng, 5)
        cand = classical_candidate(d)
        eye = np.eye(5)
        pairs = [(rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))) for _ in range(4)]
        # a mass off 1 within the trace tolerance is not a point mass
        pairs += [(eye[0] * (1.0 - 5e-10), eye[3]), (eye[2], eye[4] * (1.0 - 5e-10))]
        for p, q in pairs:
            got = mk_distance(State.classical(p), State.classical(q), cand)
            assert got.lower == got.upper
            assert got.lower == pytest.approx(transport_lp_dual(d, p, q), rel=1e-9, abs=1e-12)
        # in the last pair point 0 takes the imbalance, as a(0) = 0 does in
        # the program
        assert got.lower == pytest.approx((1.0 - 5e-10) * d[2, 4] + 5e-10 * d[2, 0], rel=1e-15)

    def test_point_masses_are_the_metric(self):
        rng = np.random.default_rng(16)
        for n in range(2, 10):
            d = random_metric(rng, n)
            cand = classical_candidate(d)
            eye = np.eye(n)
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    result = mk_distance(State.classical(eye[i]), State.classical(eye[j]), cand)
                    assert result.lower == result.upper
                    assert result.converged and not result.unbounded
                    assert result.lower == pytest.approx(d[i, j], rel=1e-12, abs=0.0)
                    lp = transport_lp_dual(d, eye[i], eye[j])
                    assert result.lower == pytest.approx(lp, rel=1e-9, abs=1e-9)

    def test_point_masses_follow_shortest_paths(self):
        # where the triangle inequality fails the program's value is the
        # shortest path, not the stretched distance
        rng = np.random.default_rng(17)
        for n in range(3, 8):
            d = random_metric(rng, n)
            bent = plant_triangle_violation(rng, d)
            x, y = np.argwhere(bent > d)[0]
            eye = np.eye(n)
            value = mk_distance(
                State.classical(eye[x]), State.classical(eye[y]), embed_distance_matrix(bent)
            ).lower
            assert value == pytest.approx(transport_lp_dual(bent, eye[x], eye[y]), rel=1e-9, abs=1e-9)
            assert value <= bent[x, y] - 0.5 + 1e-12
        # 0 -> 1 costs 5 directly but 2 through point 2
        bent = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        eye = np.eye(3)
        result = mk_distance(State.classical(eye[0]), State.classical(eye[1]), embed_distance_matrix(bent))
        assert result.lower == result.upper == 2.0
        # the diagonal constrains nothing: a point is at distance 0 from itself
        bent[0, 0] = 3.0
        same = mk_distance(State.classical(eye[0]), State.classical(eye[0]), embed_distance_matrix(bent))
        assert same.lower == transport_lp_dual(bent, eye[0], eye[0]) == 0.0

    def test_kernel_takes_indices_or_weights(self):
        # point indices skip the point-mass test on weights and give the same value
        rng = np.random.default_rng(18)
        bent = plant_triangle_violation(rng, random_metric(rng, 5))
        bent[1, 3] *= 0.5
        eye = np.eye(5)
        for i, j in [(0, 4), (3, 1), (1, 3), (2, 2)]:
            want = exact_distance(bent, eye[i], eye[j])
            assert exact_distance(bent, i, j) == want
            assert want == mk_distance(State.classical(eye[i]), State.classical(eye[j]),
                                       embed_distance_matrix(bent)).lower
        with pytest.raises(NegativeCycleError):
            exact_distance(np.array([[0.0, -2.0], [1.0, 0.0]]), 0, 1)

    def test_point_masses_with_negative_cycle_raise(self):
        # a(0) - a(1) <= -2 and a(1) - a(0) <= 1 leave the program infeasible
        rho = embed_distance_matrix(np.array([[0.0, -2.0], [1.0, 0.0]]))
        with pytest.raises(RuntimeError, match="transport failed: the distances have a negative cycle"):
            mk_distance(State.classical([1.0, 0.0]), State.classical([0.0, 1.0]), rho)

    def test_mixed_states_with_negative_cycle_raise(self):
        rho = embed_distance_matrix(np.array([[0.0, -2.0], [1.0, 0.0]]))
        with pytest.raises(RuntimeError, match="negative cycle"):
            mk_distance(State.classical([0.3, 0.7]), State.classical([0.6, 0.4]), rho)

    def test_augmentations_stay_under_the_bound(self):
        # the solver raises after nodes**2 augmentations, nodes being the
        # points that send or receive mass; random instances take about
        # one per node
        rng = np.random.default_rng(19)
        for trial in range(200):
            n = int(rng.integers(2, 16))
            d = random_metric(rng, n) if trial % 2 else rng.integers(0, 4, (n, n)).astype(float)
            p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
            balanced = p - q
            balanced[0] = -balanced[1:].sum()
            nodes = np.count_nonzero(balanced)
            value, count = _transport(p - q, _shortest_paths(np.minimum(d, d.T)))
            assert 1 <= count < nodes**2
            assert count <= 2 * nodes
            assert value == pytest.approx(transport_lp_dual(d, p, q), rel=1e-9)

    def test_exact_value_uses_both_orders_of_each_pair(self):
        # fails only flip symmetry: the unit ball bounds |a(0) - a(1)| by
        # min(d(0, 1), d(1, 0)) = 1, so both orders give 1
        rho = embed_distance_matrix(np.array([[0.0, 1.0], [3.0, 0.0]]))
        assert verify(rho).failing == ("iv",)
        d0, d1 = State.classical([1.0, 0.0]), State.classical([0.0, 1.0])
        for phi, psi in ((d0, d1), (d1, d0)):
            got = mk_distance(phi, psi, rho)
            assert got.lower == got.upper == 1.0 and got.converged
            general = mk_distance(phi, psi, rho, method="ascent")
            assert general.lower <= 1.0 <= general.upper
        mixed = State.classical([0.3, 0.7]), State.classical([0.8, 0.2])
        assert mk_distance(*mixed, rho).lower == pytest.approx(0.5, abs=1e-12)
        assert mk_distance(*mixed[::-1], rho).lower == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_value_on_asymmetric_candidates(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 + seed % 4
        rho = compressed_positive((1,) * n, rng)
        failing = verify(rho).failing
        assert "iv" in failing and not {"i", "ii", "iii"} & set(failing)
        d = np.diagonal(rho.data).real.reshape(n, n)
        eye = np.eye(n)
        for p, q in [(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))), (eye[0], eye[-1])]:
            want = transport_lp_dual(d, p, q)
            for there, back in ((p, q), (q, p)):
                got = mk_distance(State.classical(there), State.classical(back), rho)
                assert got.lower == got.upper == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_bracket_scales_with_rho(self):
        # both ends scale with rho, also once rho^+ falls below 1e-10
        m2 = MetricCandidate(m2_admissible(1.0))
        rho = direct_sum(m2, m2, 1.0).rho
        cfg = ToleranceConfig(strict_floor=1e-3)
        rng = np.random.default_rng(0)
        phi, psi = random_state(rho.shape, rng), random_state(rho.shape, rng)
        base = mk_distance(phi, psi, rho, cfg)
        assert 0.0 < base.lower < base.upper < math.inf
        for s in (1e3, 1e10, 1e11, 1e12, 1e15):
            got = mk_distance(phi, psi, s * rho, cfg)
            assert not got.unbounded
            assert got.lower == pytest.approx(s * base.lower, rel=1e-12)
            assert got.upper == pytest.approx(s * base.upper, rel=1e-12)

    def test_symmetry_and_triangle_on_classical(self):
        rng = np.random.default_rng(8)
        d = random_metric(rng, 4)
        cand = classical_candidate(d)
        states = [State.classical(rng.dirichlet(np.ones(4))) for _ in range(3)]
        d01 = mk_distance(states[0], states[1], cand).lower
        d10 = mk_distance(states[1], states[0], cand).lower
        assert d01 == pytest.approx(d10, abs=1e-8)
        d02 = mk_distance(states[0], states[2], cand).lower
        d12 = mk_distance(states[1], states[2], cand).lower
        assert d02 <= d01 + d12 + 1e-8

    def test_ascent_stays_below_exact_value(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            d = random_metric(rng, 4)
            cand = classical_candidate(d)
            p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            phi, psi = State.classical(p), State.classical(q)
            exact = mk_distance(phi, psi, cand).lower
            ascent = mk_distance(phi, psi, cand, method="ascent")
            assert ascent.lower <= exact + 1e-8
            assert exact <= ascent.upper + 1e-8
            assert ascent.lower <= ascent.upper + 1e-8

    def test_ascent_finds_two_point_value(self):
        phi, psi = State.classical([1.0, 0.0]), State.classical([0.0, 1.0])
        result = mk_distance(phi, psi, TWO_POINT, method="ascent")
        assert result.lower == pytest.approx(1.0, abs=1e-6)
        assert result.upper == pytest.approx(1.0, abs=1e-9)

    def test_ascent_lower_monotone_in_budget(self):
        rng = np.random.default_rng(11)
        d = random_metric(rng, 4)
        cand = classical_candidate(d)
        phi = State.classical(rng.dirichlet(np.ones(4)))
        psi = State.classical(rng.dirichlet(np.ones(4)))
        lowers = [
            mk_distance(phi, psi, cand, method="ascent", max_iter=k).lower
            for k in (5, 25, 125)
        ]
        assert lowers[0] <= lowers[1] + 1e-12 <= lowers[2] + 2e-12

    @pytest.mark.parametrize("case", ["classical", "direct sum"])
    def test_tiny_distances_keep_the_bracket_finite(self, case):
        # a distance of 1e-12 under a floor of 1e-13 passes nondegeneracy;
        # the bracket must stay finite and ordered, and on the classical
        # space, where the exact value is 1, hold it
        cfg = ToleranceConfig(strict_floor=1e-13)
        if case == "classical":
            d = [[0.0, 1e-12, 1.0], [1e-12, 0.0, 1.0], [1.0, 1.0, 0.0]]
            cand, exact = classical_candidate(d), 1.0
            eye = np.eye(3)
            pairs = [(State.classical(eye[0]), State.classical(eye[2]))]
        else:
            point = MetricCandidate(BiElement.zeros((1,)))
            cand, exact = direct_sum(MetricCandidate(m2_admissible(1e-12)), point, 1.0), None
            tilted = PureState(cand.shape, 0, np.array([1.0, 1.0]) / np.sqrt(2.0)).to_state()
            other = point_mass(cand.shape, 1, 0)
            pairs = [(point_mass(cand.shape, 0, 0), other), (tilted, other)]
        for phi, psi in pairs:
            result = mk_distance(phi, psi, cand, cfg, method="ascent")
            assert not result.unbounded
            assert 0.0 < result.lower <= result.upper < math.inf
            if exact is not None:
                assert result.lower <= exact <= result.upper

    @pytest.mark.parametrize("excess", [0.0, 1e-10, 4e-10, 9e-10])
    def test_trace_within_tolerance_is_not_unbounded(self, excess):
        # states accept a trace off by up to STATE_TOL; the identity in the
        # seminorm kernel must not turn that excess into an infinite distance
        m2 = MetricCandidate(m2_admissible(1.0))
        cand = direct_sum(m2, m2, 1.0)
        zero = np.zeros((2, 2), dtype=complex)
        phi = State(cand.shape, (np.diag([0.5, 0.5 + excess]).astype(complex), zero))
        psi = State(cand.shape, (zero, np.eye(2, dtype=complex) / 2.0))
        result = mk_distance(phi, psi, cand)
        assert not result.unbounded
        assert result.lower == pytest.approx(1.0, abs=1e-8)

    def test_full_range_candidate_is_bounded(self):
        # with nondegeneracy in force the only zero-seminorm directions
        # are the constants, so the bracket stays finite
        shape = AlgebraShape((1, 2))
        q = np.eye(9, dtype=complex) - diag_projector(shape).data
        rho = BiElement(shape, q)
        phi = PureState(shape, 0, np.array([1.0])).to_state()
        psi = State(
            shape,
            (np.zeros((1, 1), dtype=complex), np.eye(2, dtype=complex) / 2.0),
        )
        result = mk_distance(phi, psi, rho)
        assert not result.unbounded
        assert np.isfinite(result.lower) and np.isfinite(result.upper)
        assert result.lower <= result.upper + 1e-8

    def test_lower_end_in_closed_form(self):
        # the lower end is the value at the trace-free part of delta
        rng = np.random.default_rng(12)
        cases = [(classical_candidate(random_metric(rng, n)), "ascent") for n in range(3, 8)]
        cases += [(cand, "auto") for cand in direct_sum_candidates(rng)]
        for cand, method in cases:
            phi, psi = random_state(cand.shape, rng), random_state(cand.shape, rng)
            delta = phi.as_element() - psi.as_element()
            expected = np.linalg.norm(delta.data) ** 2 / lip_seminorm(delta, cand)
            result = mk_distance(phi, psi, cand, method=method)
            assert result.lower == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert result.iterations == 0

    def test_converged_means_closed_bracket(self):
        phi, psi = State.classical([1.0, 0.0]), State.classical([0.0, 1.0])
        assert mk_distance(phi, psi, TWO_POINT, method="ascent").converged
        # distances in [1, 2) close the point-mass bracket at d(0, 5)
        rng = np.random.default_rng(13)
        d = rng.uniform(1.0, 1.9, (8, 8))
        d = (d + d.T) / 2.0
        np.fill_diagonal(d, 0.0)
        eye = np.eye(8)
        closed = mk_distance(
            State.classical(eye[0]), State.classical(eye[5]), classical_candidate(d), method="ascent"
        )
        assert closed.converged
        assert closed.upper == pytest.approx(d[0, 5], rel=1e-12)
        cand = direct_sum_candidates(rng)[0]
        opened = mk_distance(random_state(cand.shape, rng), random_state(cand.shape, rng), cand)
        assert cand.shape.blocks == (2, 2)
        assert opened.upper - opened.lower > 1e-3 * opened.upper
        assert not opened.converged

    def test_general_path_memory_bound(self):
        rng = np.random.default_rng(14)
        cand = classical_candidate(random_metric(rng, 8))
        phi, psi = random_state(cand.shape, rng), random_state(cand.shape, rng)
        tracemalloc.start()
        try:
            result = mk_distance(phi, psi, cand, method="ascent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(result.lower) and result.lower <= result.upper + 1e-8
        assert peak < 16 * 2**20

    def test_general_path_memory_bound_n12(self):
        rng = np.random.default_rng(18)
        cand = classical_candidate(random_metric(rng, 12))
        phi, psi = random_state(cand.shape, rng), random_state(cand.shape, rng)
        tracemalloc.start()
        try:
            result = mk_distance(phi, psi, cand, method="ascent")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(result.lower) and result.lower <= result.upper + 1e-8
        assert peak < 16 * 2**20

    def test_result_serialization(self):
        phi, psi = State.classical([1.0, 0.0]), State.classical([0.0, 1.0])
        doc = mk_distance(phi, psi, TWO_POINT).to_dict()
        assert set(doc) == {"lower", "upper", "converged", "iterations", "unbounded"}


class TestPureStateBound:
    def test_two_point_matches_distance(self):
        shape = TWO_POINT.shape
        v = PureState(shape, 0, np.array([1.0]))
        w = PureState(shape, 1, np.array([1.0]))
        bound = pure_state_bound(v, w, TWO_POINT)
        assert bound == pytest.approx(1.0, abs=1e-12)
        value = mk_distance(v.to_state(), w.to_state(), TWO_POINT).lower
        assert value <= bound + 1e-8

    def test_scaling(self):
        shape = TWO_POINT.shape
        v = PureState(shape, 0, np.array([1.0]))
        w = PureState(shape, 1, np.array([1.0]))
        base = pure_state_bound(v, w, TWO_POINT)
        scaled_cand = MetricCandidate(3.0 * TWO_POINT.rho)
        assert pure_state_bound(v, w, scaled_cand) == pytest.approx(3.0 * base, abs=1e-12)

    def test_same_block_rejected(self):
        shape = AlgebraShape((2,))
        v = PureState(shape, 0, np.array([1.0, 0.0]))
        w = PureState(shape, 0, np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            pure_state_bound(v, w, m2_admissible(1.0))

    def test_bound_dominates_distance_on_classical(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(3, 6))
            d = random_metric(rng, n)
            cand = classical_candidate(d)
            x, y = rng.permutation(n)[:2]
            v = PureState(cand.shape, int(x), np.array([1.0]))
            w = PureState(cand.shape, int(y), np.array([1.0]))
            dist = mk_distance(v.to_state(), w.to_state(), cand).lower
            assert dist <= pure_state_bound(v, w, cand) + 1e-8


def random_positive(blocks, rng) -> BiElement:
    g = random_element(blocks, 2, rng).data
    return BiElement(blocks, g @ g.conj().T)


def point_mass(shape, block, index) -> State:
    return PureState(shape, block, np.eye(shape.blocks[block])[index]).to_state()


def compressed_positive(blocks, rng) -> BiElement:
    """Q (g g* + eps) Q with Q = 1 - P: passes i-iii, and generically fails flip symmetry."""
    d2 = sum(blocks) ** 2
    q = np.eye(d2) - diag_projector(blocks).data
    g = random_element(blocks, 2, rng).data
    return BiElement(blocks, q @ (g @ g.conj().T + rng.uniform(0.1, 1.0) * np.eye(d2)) @ q)


def m2_sum(blocks, rng) -> BiElement:
    """m2_admissible blocks for the 2s of blocks, then a classical metric on the 1s, summed directly."""
    parts = [MetricCandidate(m2_admissible(rng.uniform(0.5, 2.0))) for n in blocks if n == 2]
    if 1 in blocks:
        parts.append(classical_candidate(random_metric(rng, blocks.count(1))))
    cand = parts[0]
    for part in parts[1:]:
        cand = direct_sum(cand, part, direct_sum_bound(cand, part) * rng.uniform(1.0, 2.0))
    return cand.rho


def block_unitary(blocks, rng) -> np.ndarray:
    d = sum(blocks)
    u = np.zeros((d, d), dtype=complex)
    start = 0
    for n in blocks:
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u[start : start + n, start : start + n] = q * (np.diag(r) / np.abs(np.diag(r)))
        start += n
    return u


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.sampled_from([(2,), (3,), (2, 1), (2, 2), (2, 1, 1), (1, 1, 1)]),
    seed=st.integers(0, 2**31 - 1),
    compressed=st.booleans(),
    s=st.floats(1e-3, 1e3),
)
def test_transport_invariances(blocks, seed, compressed, s):
    # the seminorm and the lower end of the bracket are unchanged under
    # u (x) u and the flip and scale with rho; the upper end routes
    # same-block pairs through standard basis vectors, so it is left out
    rng = np.random.default_rng(seed)
    shape = AlgebraShape(blocks)
    rho = compressed_positive(blocks, rng) if compressed or 3 in blocks else m2_sum(blocks, rng)
    u = block_unitary(blocks, rng)
    uu = np.kron(u, u)
    moved = BiElement(blocks, uu @ rho.data @ uu.conj().T)
    a = random_element(blocks, 1, rng, hermitian=True)
    lip = lip_seminorm(a, rho)
    assert lip_seminorm(AlgebraElement(blocks, u @ a.data @ u.conj().T), moved) == pytest.approx(lip, rel=1e-12)
    assert lip_seminorm(a, flip(rho)) == pytest.approx(lip, rel=1e-12)
    assert lip_seminorm(a, s * rho) == pytest.approx(lip / s, rel=1e-12)
    if shape.is_classical:
        return
    phi, psi = random_state(shape, rng), random_state(shape, rng)
    ranges = shape.block_ranges()

    def conjugated(state):
        return State(shape, tuple(u[i:j, i:j] @ dens @ u[i:j, i:j].conj().T
                                  for (i, j), dens in zip(ranges, state.densities)))

    lower = mk_distance(phi, psi, rho).lower
    assert mk_distance(conjugated(phi), conjugated(psi), moved).lower == pytest.approx(lower, rel=1e-12)
    assert mk_distance(phi, psi, flip(rho)).lower == pytest.approx(lower, rel=1e-12)
    assert mk_distance(phi, psi, s * rho).lower == pytest.approx(s * lower, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    blocks=st.sampled_from([(1, 1, 1), (2,), (3,), (2, 1), (2, 2), (2, 1, 1)]),
    seed=st.integers(0, 2**31 - 1),
    compressed=st.booleans(),
)
def test_seminorm_kernel_is_the_scalars(blocks, seed, compressed):
    # a candidate passing i-iii has a seminorm vanishing on the multiples
    # of 1 alone, so the lower end of the bracket needs no kernel test
    rng = np.random.default_rng(seed)
    rho = compressed_positive(blocks, rng) if compressed or 3 in blocks else m2_sum(blocks, rng)
    kernel = seminorm_kernel(rho)
    assert len(kernel) == 1
    k = kernel[0] / np.trace(kernel[0])
    assert np.allclose(k, np.eye(sum(blocks)) / sum(blocks), atol=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
    distances=st.sampled_from(["metric", "tied", "bent", "asymmetric"]),
    states=st.sampled_from(["random", "sparse", "equal", "permuted"]),
    drift=st.sampled_from([0.0, 1.0, -1.0]),
)
def test_exact_transport_matches_linear_program(n, seed, distances, states, drift):
    # the exact path on all-ones shapes against the Kantorovich dual
    # written one pair of constraints at a time
    rng = np.random.default_rng(seed)
    d = random_metric(rng, n)
    if distances == "tied":
        d = rng.integers(0, 4, (n, n)).astype(float)
    elif distances == "bent" and n >= 3:
        d = plant_triangle_violation(rng, d)
    elif distances == "asymmetric":
        d = d * rng.uniform(1.0, 2.0, (n, n))
    p = rng.dirichlet(np.ones(n))
    if states == "sparse":
        p = np.where(rng.random(n) < 0.5, 0.0, p)
        p = p / p.sum() if p.any() else np.eye(n)[-1]
    q = {"equal": p, "permuted": rng.permutation(p)}.get(states, rng.dirichlet(np.ones(n)))
    # a trace off 1 by just under STATE_TOL, which states accept
    p = p * (1.0 + drift * 0.99e-9)
    got = mk_distance(State.classical(p), State.classical(q), embed_distance_matrix(d))
    assert got.lower == got.upper and got.converged and not got.unbounded
    assert got.lower == pytest.approx(transport_lp_dual(d, p, q), rel=1e-9, abs=1e-12)


class TestUpperBound:
    @pytest.mark.parametrize(
        "blocks",
        [(1, 2), (2, 2), (2, 1, 1), (2, 2, 2), (3, 3)] + [(1,) * n for n in range(3, 9)],
    )
    def test_matches_pairwise_oracle(self, blocks):
        rng = np.random.default_rng(len(blocks) * 10 + sum(blocks))
        shape = AlgebraShape(blocks)
        rho = random_positive(blocks, rng)
        mixed = [random_state(shape, rng) for _ in range(2)]
        pure = [point_mass(shape, 0, 0), point_mass(shape, len(blocks) - 1, 0)]
        # same-block pairs of distinct eigenvectors, equal vectors and
        # point masses in the same or in distinct blocks
        pairs = [(mixed[0], mixed[1]), (mixed[0], mixed[0]), (pure[0], pure[0])]
        pairs += [(pure[0], pure[1]), (pure[1], mixed[0]), (mixed[1], pure[0])]
        if blocks[0] > 1:
            other = point_mass(shape, 0, 1)
            tilted = PureState(shape, 0, (np.eye(blocks[0])[0] + np.eye(blocks[0])[1]) / np.sqrt(2.0))
            pairs += [(pure[0], other), (tilted.to_state(), pure[0])]
        for phi, psi in pairs:
            want = pure_state_upper_bound(phi, psi, rho)
            assert _mk_upper_bound(phi, psi, rho) == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert _mk_upper_bound(pure[0], pure[0], rho) == 0.0

    def test_single_block_routes_are_unbounded(self):
        rng = np.random.default_rng(19)
        shape = AlgebraShape((2,))
        rho = random_positive((2,), rng)
        phi, psi = point_mass(shape, 0, 0), point_mass(shape, 0, 1)
        assert math.isinf(pure_state_upper_bound(phi, psi, rho))
        assert math.isinf(_mk_upper_bound(phi, psi, rho))
        assert _mk_upper_bound(phi, phi, rho) == 0.0
