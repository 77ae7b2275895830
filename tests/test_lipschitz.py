import math
import tracemalloc

import numpy as np
import pytest

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
    check_leibniz,
    diag_projector,
    direct_sum,
    from_finite_metric,
    identity,
    lip_seminorm,
    m2_admissible,
    metric_pseudo_inverse,
    mk_distance,
    op_norm,
    pure_state_bound,
)

from oracles import lipschitz_constant, random_metric, transport_lp_primal


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

    def test_densities_are_read_only_copies(self):
        d = np.array([[0.25]], dtype=complex)
        s = State(AlgebraShape((1, 1)), (d, np.array([[0.75]])))
        d[0, 0] = 9.0
        assert s.densities[0][0, 0] == 0.25
        assert not s.densities[0].flags.writeable

    def test_pure_state(self):
        v = PureState(AlgebraShape((1, 2)), 1, np.array([1.0, 1.0]) / np.sqrt(2))
        s = v.to_state()
        assert np.trace(s.densities[1]).real == pytest.approx(1.0)
        assert np.all(s.densities[0] == 0)

    def test_pure_state_requires_unit_vector(self):
        with pytest.raises(ValueError):
            PureState(AlgebraShape((2,)), 0, np.array([1.0, 1.0]))

    def test_classical_rejects_nan(self):
        with pytest.raises(NonFiniteError, match="block densities must be finite"):
            State.classical([np.nan, 1.0])

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

    def test_lp_input_matches_pairwise_loop(self, monkeypatch):
        # one constraint row per ordered pair x != y, in loop order
        import qmetric.lipschitz as lip

        seen = {}
        real = lip.linprog

        def spy(c, **kw):
            seen.update(kw)
            return real(c, **kw)

        monkeypatch.setattr(lip, "linprog", spy)
        rng = np.random.default_rng(15)
        d = random_metric(rng, 5)
        p, q = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5))
        mk_distance(State.classical(p), State.classical(q), classical_candidate(d))
        rows, rhs = [], []
        for x in range(5):
            for y in range(5):
                if x != y:
                    row = np.zeros(5)
                    row[x], row[y] = 1.0, -1.0
                    rows.append(row)
                    rhs.append(d[x, y])
        assert np.array_equal(seen["A_ub"], np.asarray(rows))
        assert np.array_equal(seen["b_ub"], np.asarray(rhs))

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

    def test_unbounded_direction_detected(self):
        # a candidate supported only on the antisymmetric corner of the
        # second block leaves diag(1, 0, 0) with zero seminorm although it
        # separates the block states; such candidates fail nondegeneracy,
        # so the public path refuses them and the guard is exercised on
        # the internal lower end directly
        from qmetric.lipschitz import _mk_lower

        shape = AlgebraShape((1, 2))
        data = np.zeros((9, 9), dtype=complex)
        anti = np.zeros(9, dtype=complex)
        # antisymmetric vector of the (2, 2) cell: coordinates (1,2),(2,1)
        anti[1 * 3 + 2] = 1.0 / np.sqrt(2.0)
        anti[2 * 3 + 1] = -1.0 / np.sqrt(2.0)
        data += np.outer(anti, anti.conj())
        rho = BiElement(shape, data)
        with pytest.raises(PreconditionError):
            metric_pseudo_inverse(rho)
        phi = PureState(shape, 0, np.array([1.0])).to_state()
        psi = State(
            shape,
            (np.zeros((1, 1), dtype=complex), np.eye(2, dtype=complex) / 2.0),
        )
        lower = _mk_lower(phi, psi, rho, rho)
        assert math.isinf(lower) and lower > 0

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
