import numpy as np
import pytest

from qmetric import (
    FiniteMetricSpace,
    MetricCandidate,
    MetricInputError,
    NonFiniteError,
    check_flip_symmetric,
    conic_combine,
    direct_sum,
    direct_sum_bound,
    from_finite_metric,
    m2_admissible,
    op_norm,
    tensor_product,
    verify,
)

from oracles import classical_axioms, random_metric


def two_point(d=1.0):
    return from_finite_metric(FiniteMetricSpace(np.array([[0.0, d], [d, 0.0]])))


def diag_entries(candidate):
    n = candidate.shape.dim
    return np.array(
        [[candidate.rho.data[x * n + y, x * n + y].real for y in range(n)] for x in range(n)]
    )


class TestFiniteMetricSpace:
    def test_valid(self):
        s = FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert s.n == 2
        assert s.shape.blocks == (1, 1)

    def test_rejects_asymmetric(self):
        with pytest.raises(MetricInputError):
            FiniteMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(MetricInputError):
            FiniteMetricSpace(np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_rejects_degenerate(self):
        with pytest.raises(MetricInputError):
            FiniteMetricSpace(np.array([[0.0, 0.0], [0.0, 0.0]]))

    def test_rejects_triangle_violation(self):
        d = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(MetricInputError):
            FiniteMetricSpace(d)

    def test_names_first_failing_triple(self):
        # twelve triples fail; the first in (i, j, k) order is named, which
        # orders by k, by j or from the end would each miss
        d = np.ones((5, 5)) - np.eye(5)
        d[1, 4] = d[4, 1] = d[0, 2] = d[2, 0] = 3.0
        with pytest.raises(MetricInputError, match=r"fails on \(0, 2, 1\)$"):
            FiniteMetricSpace(d)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(NonFiniteError, match="distance matrix must be finite"):
            FiniteMetricSpace(np.array([[0.0, bad], [bad, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(MetricInputError, match="distance matrix must be square"):
            FiniteMetricSpace(np.zeros((2, 3)))

    def test_rejects_overflow_scale_distances(self):
        # the triangle test would overflow on these; the suite turns the warning into an error
        d = 1.5e308 * (np.ones((3, 3)) - np.eye(3))
        with pytest.raises(NonFiniteError) as err:
            FiniteMetricSpace(d)
        assert str(err.value) == (
            "distance 1 (d(0, 1)) has magnitude 1.5e+308; "
            "finite values above 2**1000 (about 1.07e301) are rejected"
        )


# (distance matrix, the error FiniteMetricSpace names): one case per check,
# then matrices that fail several, which name the earliest check in the order
# square, finite, symmetric, self-distances, positive, triangle
METRIC_FAULTS = [
    ([[0.0, 1.0], [1.0 + 1e-4, 0.0]], "distance matrix must be symmetric"),
    ([[0.0, 1.0, 2.0], [1.0, 1e-11, 1.0], [2.0, 1.0, 0.0]], "self-distances must be zero"),
    ([[0.0, 1.0, 2.0], [1.0, -1e-11, 1.0], [2.0, 1.0, 0.0]], "self-distances must be zero"),
    ([[0.0, 0.0], [0.0, 0.0]], "distances between distinct points must be positive"),
    ([[0.0, -0.0], [-0.0, 0.0]], "distances between distinct points must be positive"),
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]], "distances between distinct points must be positive"),
    ([[0.0, 1.0, -1.0], [1.0, 0.0, 1.0], [-1.0, 1.0, 0.0]], "distances between distinct points must be positive"),
    ([[0.0, 3.0, 1.0], [3.0, 0.0, 1.0], [1.0, 1.0, 0.0]], "triangle inequality fails on (0, 1, 2)"),
    # asymmetric, a nonzero self-distance, a negative distance and a failing triangle
    ([[0.5, -1.0, 9.0], [2.0, 0.0, 1.0], [9.0, 1.0, 0.0]], "distance matrix must be symmetric"),
    # a nonzero self-distance, a zero distance and a failing triangle
    ([[0.0, 0.0, 9.0], [0.0, 0.5, 1.0], [9.0, 1.0, 0.0]], "self-distances must be zero"),
    # a zero distance and a failing triangle
    ([[0.0, 0.0, 9.0], [0.0, 0.0, 1.0], [9.0, 1.0, 0.0]], "distances between distinct points must be positive"),
]


class TestMetricChecks:
    """FiniteMetricSpace's checks, each with its own message, the earliest failing one named."""

    @pytest.mark.parametrize("d, message", METRIC_FAULTS)
    def test_each_fault_is_named(self, d, message):
        for order in ("C", "F"):
            with pytest.raises(MetricInputError) as err:
                FiniteMetricSpace(np.array(d, order=order))
            assert str(err.value) == message

    @pytest.mark.parametrize("self_distance", [1e-13, -1e-13, 1e-12, -0.0])
    def test_self_distances_within_tolerance_are_accepted(self, self_distance):
        d = np.array([[0.0, 1.0, 2.0], [1.0, self_distance, 1.0], [2.0, 1.0, 0.0]])
        space = FiniteMetricSpace(d)
        assert space.dist.tobytes() == d.tobytes()
        assert not space.dist.flags.writeable

    def test_the_input_is_not_written(self):
        d = np.asfortranarray([[0.0, 1.0], [1.0, 0.0]])
        space = FiniteMetricSpace(d)
        assert np.array_equal(d, [[0.0, 1.0], [1.0, 0.0]]) and np.array_equal(space.dist, d)
        assert space.dist is not d

    def test_one_point(self):
        assert FiniteMetricSpace(np.zeros((1, 1))).n == 1
        with pytest.raises(MetricInputError, match="^self-distances must be zero$"):
            FiniteMetricSpace(np.full((1, 1), 1e-11))


@pytest.mark.parametrize(
    "build",
    [
        lambda big: conic_combine(big, big, 1.0),
        lambda big: direct_sum(big, big, 2 * 8e300),
        lambda big: tensor_product(big, big),
    ],
    ids=["conic_combine", "direct_sum", "tensor_product"],
)
def test_constructions_beyond_the_bound_are_refused(build):
    # each factor is within 2**1000; each result holds 1.6e301, the direct sum in its cross term
    with pytest.raises(NonFiniteError, match=r"^entry \d+ has magnitude 1\.6e\+301; "):
        build(two_point(8e300))


class TestFromFiniteMetric:
    def test_two_point(self):
        cand = two_point()
        assert np.array_equal(cand.rho.data.real, np.diag([0.0, 1.0, 1.0, 0.0]))
        assert verify(cand.rho).passed
        assert verify(cand.rho, mode="algebraic").passed

    def test_three_point_path_has_tight_triangle(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        cand = from_finite_metric(FiniteMetricSpace(d))
        report = verify(cand.rho)
        assert report.passed
        assert report.record("v").margin == pytest.approx(0.0, abs=1e-12)

    def test_discrete_four_points(self):
        d = np.ones((4, 4)) - np.eye(4)
        cand = from_finite_metric(FiniteMetricSpace(d))
        report = verify(cand.rho)
        assert report.passed
        # eigen-oracle for the slack margin: min over triples of
        # d(x,y) + d(y,z) - d(x,z) is 0 (trips through x = z)
        assert report.record("v").margin == pytest.approx(0.0, abs=1e-12)


class TestConicCombine:
    def test_doubling(self):
        cand = two_point()
        combined = conic_combine(cand, cand, 1.0)
        assert np.allclose(combined.rho.data, 2.0 * cand.rho.data)
        assert verify(combined.rho).passed

    def test_distinct_spaces(self):
        rng = np.random.default_rng(5)
        a = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        b = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        combined = conic_combine(a, b, 0.5)
        assert verify(combined.rho).passed
        assert np.allclose(
            diag_entries(combined),
            diag_entries(a) + 0.5 * diag_entries(b),
        )

    def test_rejects_bad_weight(self):
        cand = two_point()
        with pytest.raises(ValueError):
            conic_combine(cand, cand, 0.0)

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(6)
        a = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        with pytest.raises(Exception):
            conic_combine(a, two_point(), 1.0)

    def test_bilinear(self):
        rng = np.random.default_rng(11)
        a = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        b = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        lhs = conic_combine(MetricCandidate(2.0 * a.rho), b, 1.5).rho
        rhs = 2.0 * a.rho + 1.5 * b.rho
        assert np.allclose(lhs.data, rhs.data, atol=1e-13)

    def test_triangle_margin_monotone_in_weight(self):
        rng = np.random.default_rng(12)
        a = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        b = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        margins = [
            verify(conic_combine(a, b, r).rho).record("v").margin
            for r in (0.5, 1.0, 2.0)
        ]
        assert margins[0] <= margins[1] + 1e-12 <= margins[2] + 2e-12


class TestDirectSum:
    def test_two_one_point_spaces(self):
        one = MetricCandidate(__import__("qmetric").BiElement.zeros((1,)))
        combined = direct_sum(one, one, 1.0)
        assert combined.shape.blocks == (1, 1)
        assert np.array_equal(combined.rho.data.real, np.diag([0.0, 1.0, 1.0, 0.0]))
        assert verify(combined.rho).passed

    def test_cross_distance_below_bound_rejected(self):
        a, b = two_point(1.0), two_point(1.0)
        assert direct_sum_bound(a, b) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            direct_sum(a, b, 0.4)
        with pytest.raises(ValueError):
            direct_sum(a, b, 0.0)

    def test_exact_bound_allowed_and_verifies(self):
        a, b = two_point(1.0), two_point(1.0)
        combined = direct_sum(a, b, 0.5)
        assert verify(combined.rho).passed
        assert verify(combined.rho, mode="algebraic").passed
        d = diag_entries(combined)
        assert classical_axioms(d)["all"]
        assert d[0, 2] == pytest.approx(0.5)

    def test_output_norm(self):
        rng = np.random.default_rng(7)
        a = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        b = from_finite_metric(FiniteMetricSpace(random_metric(rng, 2)))
        r = direct_sum_bound(a, b) * 2.0
        combined = direct_sum(a, b, r)
        expected = max(op_norm(a.rho), op_norm(b.rho), r)
        assert op_norm(combined.rho) == pytest.approx(expected, abs=1e-12)

    def test_classical_reduction(self):
        a, b = two_point(1.0), two_point(2.0)
        combined = direct_sum(a, b, 1.5)
        d = diag_entries(combined)
        assert classical_axioms(d)["all"]
        assert d[0, 1] == pytest.approx(1.0)
        assert d[2, 3] == pytest.approx(2.0)
        assert d[0, 2] == d[1, 3] == pytest.approx(1.5)


class TestTensorProduct:
    def test_taxicab(self):
        combined = tensor_product(two_point(), two_point())
        assert combined.shape.blocks == (1, 1, 1, 1)
        d = diag_entries(combined)
        assert classical_axioms(d)["all"]
        assert sorted(set(np.round(d.ravel(), 12))) == [0.0, 1.0, 2.0]
        assert verify(combined.rho).passed

    def test_one_point_unit(self):
        one = MetricCandidate(__import__("qmetric").BiElement.zeros((1,)))
        cand = two_point(1.5)
        prod = tensor_product(cand, one)
        assert prod.shape == cand.shape
        assert np.allclose(prod.rho.data, cand.rho.data, atol=1e-14)

    def test_diameter_additive(self):
        rng = np.random.default_rng(8)
        a = from_finite_metric(FiniteMetricSpace(random_metric(rng, 2)))
        b = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        prod = tensor_product(a, b)
        assert op_norm(prod.rho) <= op_norm(a.rho) + op_norm(b.rho) + 1e-12
        assert op_norm(prod.rho) == pytest.approx(
            op_norm(a.rho) + op_norm(b.rho), abs=1e-10
        )

    def test_algebraic_mode_requires_commutative_first_factor(self):
        noncomm = MetricCandidate(m2_admissible(1.0))
        with pytest.raises(ValueError):
            tensor_product(noncomm, two_point(), mode="algebraic")
        # commutative first factor is fine
        tensor_product(two_point(), noncomm, mode="algebraic")

    def test_noncommutative_support_pattern(self):
        # block bookkeeping survives a noncommutative factor: the output
        # of the construction must be a valid element of the product
        prod = tensor_product(two_point(), MetricCandidate(m2_admissible(1.0)))
        assert prod.shape.blocks == (2, 2)
        assert check_flip_symmetric(prod.rho).passed

    def test_classical_sum_metric(self):
        rng = np.random.default_rng(9)
        d1, d2 = random_metric(rng, 2), random_metric(rng, 3)
        a = from_finite_metric(FiniteMetricSpace(d1))
        b = from_finite_metric(FiniteMetricSpace(d2))
        prod = tensor_product(a, b)
        d = diag_entries(prod)
        # lexicographic point order (x, y) with y fastest
        for x1 in range(2):
            for y1 in range(3):
                for x2 in range(2):
                    for y2 in range(3):
                        expected = d1[x1, x2] + d2[y1, y2]
                        got = d[x1 * 3 + y1, x2 * 3 + y2]
                        assert got == pytest.approx(expected, abs=1e-12)


class TestOutputsFlipSymmetric:
    def test_all_constructors(self):
        rng = np.random.default_rng(10)
        a = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        b = from_finite_metric(FiniteMetricSpace(random_metric(rng, 3)))
        for cand in (
            conic_combine(a, b, 1.2),
            direct_sum(a, b, direct_sum_bound(a, b)),
            tensor_product(a, b),
        ):
            assert check_flip_symmetric(cand.rho).passed
