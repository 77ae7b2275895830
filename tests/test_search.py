import json
import tracemalloc

import numpy as np
import pytest

from qmetric import (
    AlgebraShape,
    BiElement,
    FiniteMetricSpace,
    NonFiniteError,
    SearchConfig,
    ToleranceConfig,
    certify,
    diag_projector,
    feasibility_search,
    flip,
    from_finite_metric,
    m2_admissible,
    mult_map,
    project_psd,
    project_structure,
    verify,
)
from qmetric.algebra import TriElement, adjoints, assemble, cell_views, random_element
from qmetric.exchange import load_element, outcome_to_dict, save_element
from qmetric.search import (
    _hermitian_basis,
    _SearchContext,
    _structure_basis_cached,
    structure_basis,
)

import oracles
from oracles import classical_axioms


class TestProjectPsd:
    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        psd = g @ g.conj().T
        assert np.allclose(project_psd(psd), psd, atol=1e-10)

    def test_clipping(self):
        assert np.allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]))

    def test_sampled_optimality(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((5, 5))
        x = (x + x.T) / 2
        out = project_psd(x)
        base = np.linalg.norm(x - out)
        for _ in range(50):
            g = rng.standard_normal((5, 5))
            p = g @ g.T
            assert base <= np.linalg.norm(x - p) + 1e-10

    def test_floor(self):
        out = project_psd(np.diag([2.0, 0.5]), floor=1.0)
        assert np.allclose(np.linalg.eigvalsh(out), [1.0, 2.0])

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stack_clips_each_matrix(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        out = project_psd(x, floor=0.2)
        for k in range(3):
            assert np.allclose(out[k], oracles.dense_psd(x[k], 0.2), atol=1e-12)


class TestProjectStructure:
    def test_kills_diag_projector(self):
        p = diag_projector((2,))
        assert np.allclose(project_structure(p).data, 0.0, atol=1e-12)

    def test_fixes_admissible_family(self):
        rho = m2_admissible(1.3)
        assert np.allclose(project_structure(rho).data, rho.data, atol=1e-12)

    @pytest.mark.parametrize("blocks", [(2,), (1, 1), (1, 2), (3,)])
    def test_output_invariants(self, blocks):
        rng = np.random.default_rng(2)
        r = random_element(blocks, 2, rng)
        out = project_structure(r)
        p = diag_projector(blocks)
        assert np.linalg.norm(out.data @ p.data, 2) <= 1e-12 * max(
            1.0, np.linalg.norm(r.data)
        )
        assert np.linalg.norm(flip(out).data - out.data, 2) <= 1e-12 * max(
            1.0, np.linalg.norm(r.data)
        )
        assert np.allclose(out.data, out.data.conj().T, atol=1e-12)

    @pytest.mark.parametrize("mode", ["representation", "algebraic"])
    def test_idempotent(self, mode):
        rng = np.random.default_rng(3)
        r = random_element((1, 2), 2, rng)
        once = project_structure(r, mode=mode)
        twice = project_structure(once, mode=mode)
        assert np.allclose(once.data, twice.data, atol=1e-12)

    def test_algebraic_mode_kills_multiplication(self):
        rng = np.random.default_rng(4)
        r = random_element((2, 1), 2, rng)
        out = project_structure(r, mode="algebraic")
        assert np.linalg.norm(mult_map(out).data, 2) <= 1e-12 * max(
            1.0, np.linalg.norm(r.data)
        )

    def test_contraction(self):
        rng = np.random.default_rng(5)
        r = random_element((2,), 2, rng)
        out = project_structure(r)
        assert np.linalg.norm(out.data) <= np.linalg.norm(r.data) + 1e-12


class TestStructureBasis:
    def test_two_level_solution_space_is_a_line(self):
        basis = structure_basis((2,))
        assert basis.shape[0] == 1
        # the line is exactly the admissible family direction
        fam = m2_admissible(1.0).data
        fam = fam / np.linalg.norm(fam)
        overlap = abs(np.vdot(basis[0], fam))
        assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_classical_dimension_counts_pairs(self):
        assert structure_basis((1, 1, 1)).shape[0] == 3
        assert structure_basis((1, 1)).shape[0] == 1

    def test_orthonormal(self):
        basis = structure_basis((1, 2))
        flat = basis.reshape(basis.shape[0], -1)
        gram = (flat.conj() @ flat.T).real
        assert np.allclose(gram, np.eye(basis.shape[0]), atol=1e-10)

    def test_cold_build_memory(self):
        # the full U of the 5184 x 36 constraint matrix alone would take 215 MB
        tracemalloc.start()
        try:
            basis = _structure_basis_cached.__wrapped__((1,) * 6, "representation")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert basis.shape[0] == 15
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("blocks", [(1,) * 6, (4,), (4, 2), (3, 1, 2), (3, 3, 3)])
    def test_dimension_closed_form(self, blocks):
        # a diagonal cell keeps the hermitian matrices on its antisymmetric
        # subspace (representation) or the flip symmetric ones with m = 0
        # (algebraic); a cross pair keeps every hermitian matrix on one cell
        cross = sum((k * l) ** 2 for i, k in enumerate(blocks) for l in blocks[i + 1 :])
        sym, anti = ([n * (n + s) // 2 for n in blocks] for s in (1, -1))
        rep = sum(a * a for a in anti) + cross
        alg = sum(s * s + a * a - n * n for s, a, n in zip(sym, anti, blocks)) + cross
        assert structure_basis(blocks, "representation").shape[0] == rep
        assert structure_basis(blocks, "algebraic").shape[0] == alg

    @pytest.mark.parametrize("blocks", [(2,), (3,), (1, 1, 1), (2, 1), (1, 2), (3, 1, 2)])
    @pytest.mark.parametrize("mode", ["representation", "algebraic"])
    def test_elements_are_structural_on_one_cell_pair(self, blocks, mode):
        labels = AlgebraShape(blocks).block_labels()
        d = len(labels)
        swap = oracles.swap_matrix(d)
        for x in structure_basis(blocks, mode):
            assert np.abs(x - x.conj().T).max() <= 1e-14
            assert np.abs(swap @ x @ swap - x).max() <= 1e-14
            rows, cols = np.nonzero(x)
            pairs = {frozenset((labels[r // d], labels[r % d])) for r in rows}
            assert len(pairs) == 1
            assert np.array_equal(labels[rows // d], labels[cols // d])
            assert np.array_equal(labels[rows % d], labels[cols % d])

    @pytest.mark.parametrize("blocks", [(2,), (2, 1), (2, 2), (3, 1, 2)])
    @pytest.mark.parametrize("mode", ["representation", "algebraic"])
    def test_projector_commutes_with_block_unitary_conjugation(self, blocks, mode):
        rng = np.random.default_rng(sum(blocks) + len(blocks) + len(mode))
        for _ in range(3):
            uu = np.kron(*(2 * [oracles.block_unitary(blocks, rng)]))
            rho = random_element(blocks, 2, rng)
            moved = BiElement(blocks, uu @ rho.data @ uu.conj().T)
            want = uu @ project_structure(rho, mode).data @ uu.conj().T
            assert np.abs(project_structure(moved, mode).data - want).max() <= 1e-12

    @pytest.mark.parametrize("s", [1, 2, 3, 6])
    def test_hermitian_basis_orthonormal(self, s):
        basis = _hermitian_basis(s)
        flat = basis.reshape(len(basis), -1)
        assert len(basis) == s * s
        assert np.allclose((flat.conj() @ flat.T).real, np.eye(s * s), rtol=0, atol=1e-15)
        assert np.array_equal(basis, adjoints(basis))


class TestCertify:
    def test_classical_passes(self):
        cand = from_finite_metric(
            FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        )
        cfg = SearchConfig(shape=(1, 1), floor=0.5)
        assert certify(cand.rho, cfg).passed

    def test_admissible_fails_at_triangle(self):
        cfg = SearchConfig(shape=(2,), floor=0.5)
        report = certify(m2_admissible(1.0), cfg)
        assert not report.passed
        assert report.failing == ("v",)


class TestFeasibilitySearch:
    def test_classical_three_points(self):
        cfg = SearchConfig(shape=(1, 1, 1), max_iter=5000, restarts=4, seed=42)
        out = feasibility_search(cfg)
        assert out.found
        assert out.candidate.report.passed
        assert out.best_residual < cfg.residual_tol
        assert np.trace(out.candidate.rho.data).real == pytest.approx(9.0, abs=1e-6)
        # the candidate is a genuine classical metric up to the residual:
        # margins at search-grade tolerance, distances strictly positive
        grade = ToleranceConfig(eq_tol=1e-6, psd_tol=1e-6, strict_floor=cfg.floor / 2)
        assert verify(out.candidate.rho, grade).passed
        n = 3
        d = np.array(
            [
                [out.candidate.rho.data[x * n + y, x * n + y].real for y in range(n)]
                for x in range(n)
            ]
        )
        assert classical_axioms(d, tol=1e-7)["all"]

    def test_deterministic(self):
        cfg = SearchConfig(shape=(1, 1, 1), max_iter=2000, restarts=2, seed=7)
        a = feasibility_search(cfg)
        b = feasibility_search(cfg)
        assert a.status == b.status
        assert np.array_equal(a.candidate.rho.data, b.candidate.rho.data)
        assert json.dumps(outcome_to_dict(a)) == json.dumps(outcome_to_dict(b))

    def test_homogeneity_guard(self):
        base = SearchConfig(
            shape=(1, 1, 1), max_iter=3000, restarts=1, seed=5, floor=1e-3
        )
        doubled = SearchConfig(
            shape=(1, 1, 1),
            max_iter=3000,
            restarts=1,
            seed=5,
            floor=2e-3,
            trace_target=2.0 * base.resolved_trace,
        )
        a = feasibility_search(base)
        b = feasibility_search(doubled)
        assert a.found and b.found
        assert np.allclose(2.0 * a.candidate.rho.data, b.candidate.rho.data, atol=1e-5)

    def test_two_level_no_convergence(self):
        cfg = SearchConfig(shape=(2,), max_iter=1500, restarts=2, seed=0)
        out = feasibility_search(cfg)
        assert out.status == "no_convergence"
        assert out.candidate is None
        assert out.best_residual > 1.0

    def test_two_level_diagnostic_recovers_family(self):
        cfg = SearchConfig(
            shape=(2,), max_iter=2000, restarts=1, seed=0, include_triangle=False
        )
        out = feasibility_search(cfg)
        assert out.found
        tau = cfg.resolved_trace
        family_member = m2_admissible(tau / 2.0)
        assert np.max(np.abs(out.candidate.rho.data - family_member.data)) < 1e-6
        # the full report still carries the triangle failure
        assert out.candidate.report.record("v").passed is False

    def test_algebraic_mode_classical(self):
        cfg = SearchConfig(shape=(1, 1, 1), max_iter=5000, restarts=2, seed=11)
        out = feasibility_search(cfg, mode="algebraic")
        assert out.found
        assert out.candidate.report.mode == "algebraic"
        assert out.candidate.report.passed

    def test_residual_history_recorded(self):
        cfg = SearchConfig(shape=(1, 1, 1), max_iter=2000, restarts=1, seed=3)
        out = feasibility_search(cfg)
        hist = np.asarray(out.residual_history)
        assert hist.shape[1] == 3
        assert hist.shape[0] == out.iterations_run
        assert np.all(hist >= 0)

    def test_serialized_candidate_recertifies_bitwise(self, tmp_path):
        cfg = SearchConfig(shape=(1, 1, 1), max_iter=3000, restarts=1, seed=13)
        out = feasibility_search(cfg)
        assert out.found
        path = tmp_path / "candidate.json"
        save_element(out.candidate.rho, path)
        again = load_element(path, expect_order=2)
        assert np.array_equal(again.data, out.candidate.rho.data)
        report = certify(again, cfg)
        assert report.to_dict() == out.candidate.report.to_dict()

    def test_outcome_serialization_roundtrip(self, tmp_path):
        cfg = SearchConfig(shape=(1, 1, 1), max_iter=2000, restarts=1, seed=2)
        out = feasibility_search(cfg)
        doc = outcome_to_dict(out)
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert parsed["status"] == out.status
        assert parsed["config"]["shape"] == [1, 1, 1]
        assert len(parsed["residual_history"]) <= 1000

    @pytest.mark.parametrize(
        "field", [{"floor": np.nan}, {"residual_tol": np.nan}, {"trace_target": np.inf}, {"floor": np.inf}]
    )
    def test_non_finite_config(self, field):
        with pytest.raises(NonFiniteError, match="must be finite"):
            SearchConfig(shape=(1, 1, 1), **field)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SearchConfig(shape=(2,), floor=0.0)
        with pytest.raises(ValueError):
            SearchConfig(shape=(2,), restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(shape=(2,), normalization="nope")

    @pytest.mark.parametrize("target", [0.0, -4.0])
    def test_trace_target_must_be_positive(self, target):
        with pytest.raises(ValueError, match="trace_target must be positive"):
            SearchConfig(shape=(2,), trace_target=target)

    def test_config_above_the_bound(self):
        with pytest.raises(NonFiniteError, match=r"^entry 2 has magnitude 1e\+302; finite values above 2\*\*1000"):
            SearchConfig(shape=(2,), trace_target=1e302)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: structure_basis((2,), mode="classical"),
            lambda: feasibility_search(SearchConfig(shape=(2,)), mode="classical"),
        ],
        ids=["structure_basis", "feasibility_search"],
    )
    def test_unknown_mode(self, run):
        with pytest.raises(ValueError, match=r"mode must be one of \('representation', 'algebraic'\)"):
            run()

    def test_opnorm_gauge(self):
        cfg = SearchConfig(
            shape=(1, 1, 1), max_iter=3000, restarts=1, seed=4, normalization="opnorm"
        )
        out = feasibility_search(cfg)
        assert out.found
        assert np.linalg.norm(out.candidate.rho.data, 2) == pytest.approx(1.0, abs=1e-9)
        assert out.candidate.report.passed


# Same-seed outcomes (status, restart used, restarts run, iterations run),
# recorded with the dense D^3 x D^3 implementation the cell form replaced:
# every search of this module and of the acceptance suite that runs in
# under a second, and multi-group cell layouts.
PINNED_OUTCOMES = [
    ({"shape": (1, 1, 1), "max_iter": 5000, "restarts": 4, "seed": 42}, "representation", ("candidate_found", 0, 1, 51)),
    ({"shape": (1, 1, 1), "max_iter": 2000, "restarts": 2, "seed": 7}, "representation", ("candidate_found", 0, 1, 55)),
    ({"shape": (1, 1, 1), "max_iter": 3000, "restarts": 1, "seed": 5}, "representation", ("candidate_found", 0, 1, 54)),
    (
        {"shape": (1, 1, 1), "max_iter": 3000, "restarts": 1, "seed": 5, "floor": 2e-3, "trace_target": 18.0},
        "representation",
        ("candidate_found", 0, 1, 56),
    ),
    ({"shape": (2,), "max_iter": 1500, "restarts": 2, "seed": 0}, "representation", ("no_convergence", 0, 2, 1500)),
    (
        {"shape": (2,), "max_iter": 2000, "restarts": 1, "seed": 0, "include_triangle": False},
        "representation",
        ("candidate_found", 0, 1, 1),
    ),
    ({"shape": (1, 1, 1), "max_iter": 5000, "restarts": 2, "seed": 11}, "algebraic", ("candidate_found", 0, 1, 47)),
    ({"shape": (1, 1, 1), "max_iter": 2000, "restarts": 1, "seed": 3}, "representation", ("candidate_found", 0, 1, 1)),
    ({"shape": (1, 1, 1), "max_iter": 3000, "restarts": 1, "seed": 13}, "representation", ("candidate_found", 0, 1, 1)),
    ({"shape": (1, 1, 1), "max_iter": 2000, "restarts": 1, "seed": 2}, "representation", ("candidate_found", 0, 1, 56)),
    (
        {"shape": (1, 1, 1), "max_iter": 3000, "restarts": 1, "seed": 4, "normalization": "opnorm"},
        "representation",
        ("candidate_found", 0, 1, 53),
    ),
    (
        {"shape": (2,), "max_iter": 20000, "restarts": 1, "seed": 0, "include_triangle": False},
        "representation",
        ("candidate_found", 0, 1, 1),
    ),
    ({"shape": (2, 1), "max_iter": 300, "restarts": 2, "seed": 1}, "representation", ("no_convergence", 1, 2, 300)),
    ({"shape": (2, 1), "max_iter": 300, "restarts": 2, "seed": 1}, "algebraic", ("no_convergence", 1, 2, 300)),
    ({"shape": (2, 2), "max_iter": 200, "restarts": 1, "seed": 3}, "representation", ("no_convergence", 0, 1, 200)),
    ({"shape": (2, 2), "max_iter": 200, "restarts": 1, "seed": 3}, "algebraic", ("no_convergence", 0, 1, 200)),
]


@pytest.mark.parametrize("kwargs, mode, expected", PINNED_OUTCOMES)
def test_same_seed_outcomes_pinned(kwargs, mode, expected):
    out = feasibility_search(SearchConfig(**kwargs), mode=mode)
    assert (out.status, out.seed_used, out.restarts_run, out.iterations_run) == expected


CONTEXT_SHAPES = [(1, 1, 1), (2,), (3,), (1, 1), (1, 2), (2, 1), (2, 2), (2, 1, 1), (1,) * 5]


@pytest.mark.parametrize("blocks", CONTEXT_SHAPES + [(2, 2, 2), (3, 3), (4,), (3, 1, 2)])
@pytest.mark.parametrize("mode", ["representation", "algebraic"])
def test_structure_basis_matches_oracle(blocks, mode):
    # both bases as coefficients over the oracle's hermitian parameter
    # basis: orthonormal rows inside its span, with one orthogonal projector
    params = oracles.hermitian_param_basis(blocks, 2).reshape(-1, sum(blocks) ** 4)

    def projector(basis):
        coeffs = (basis.reshape(len(basis), -1) @ params.conj().T).real
        assert np.allclose(coeffs @ coeffs.T, np.eye(len(basis)), rtol=0, atol=1e-10)
        return coeffs.T @ coeffs

    want = projector(oracles.structure_basis(blocks, mode))
    assert np.max(np.abs(projector(structure_basis(blocks, mode)) - want)) <= 1e-10


def cell_vector(ctx, rho, s):
    """The search's flat cell vector of a dense rho and slack S: their elements' flat cell vectors."""
    parts = [BiElement(ctx.shape, rho)._flat]
    if s is not None:
        parts.append(TriElement(ctx.shape, s)._flat)
    return np.concatenate(parts)


def dense_pair(ctx, z):
    """The dense rho and slack S (None without the triangle) of a cell vector."""
    blocks, d = ctx.shape.blocks, ctx.shape.dim
    rho = assemble(cell_views(z[: ctx.n_rho], blocks, 2), d**2)
    if not ctx.cfg.include_triangle:
        return rho, None
    return rho, assemble(cell_views(z[ctx.n_rho :], blocks, 3), d**3)


class TestCellContext:
    """The search's projections on cells against the dense oracle."""

    @pytest.mark.parametrize("blocks", CONTEXT_SHAPES)
    @pytest.mark.parametrize("mode", ["representation", "algebraic"])
    @pytest.mark.parametrize("triangle", [True, False])
    def test_matches_dense_oracle(self, blocks, mode, triangle):
        cfg = SearchConfig(shape=blocks, floor=0.3, include_triangle=triangle)
        ctx = _SearchContext(cfg, mode)
        dense = oracles.DenseSearchContext(cfg, mode)
        rng = np.random.default_rng(sum(blocks) + 7 * len(blocks) + len(mode) + triangle)
        rho = random_element(blocks, 2, rng, hermitian=True).data
        s = random_element(blocks, 3, rng, hermitian=True).data if triangle else None
        z = cell_vector(ctx, rho, s)
        tol = 1e-12 * max(1.0, float(np.linalg.norm(z)))

        def close(got, want):
            return want is None or np.max(np.abs(got - want), initial=0.0) <= tol

        pa = ctx.project_affine(z)
        assert all(map(close, dense_pair(ctx, pa), dense.project_affine(rho, s)))
        assert abs(np.linalg.norm(z - pa) - dense.affine_distance(rho, s)) <= tol
        db, dc = ctx.cone_distances(z)
        assert abs(db - dense.cone_distance(rho)) <= tol
        assert abs(dc - (dense.slack_distance(s) if triangle else 0.0)) <= tol
        # the cone steps take the hermitian part of a rough input
        rough_rho = random_element(blocks, 2, rng).data
        rough_s = random_element(blocks, 3, rng).data if triangle else None
        got_rho, got_s = dense_pair(ctx, ctx.project_cones(cell_vector(ctx, rough_rho, rough_s)))
        assert close(got_rho, dense.project_cone(rough_rho))
        assert close(got_s, None if rough_s is None else oracles.dense_psd(rough_s))

    @pytest.mark.parametrize("blocks", [(2, 2, 2), (1,) * 8])
    def test_context_memory(self, blocks):
        # the dense lifted slack basis alone took 72.7 MB on (2, 2, 2) and
        # 224 MB on eight points
        structure_basis(blocks)
        tracemalloc.start()
        try:
            _SearchContext(SearchConfig(shape=blocks), "representation")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
