import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmetric
from qmetric import AlgebraElement, AlgebraShape, BiElement, MetricCandidate, State, exchange, m2_admissible
from qmetric.axioms import M2_DIAG_PROJECTOR, AxiomReport
from qmetric.cli import main
from qmetric.exchange import load_element, save_element, save_metric_space, save_state
from qmetric.construct import FiniteMetricSpace, direct_sum, from_finite_metric
from qmetric.lipschitz import mk_distance

import oracles
from oracles import random_metric


# the swap F of C^2 (x) C^2
SWAP2 = np.eye(4)[[0, 2, 1, 3]]


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "path3.json"
    space = FiniteMetricSpace(np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float))
    save_metric_space(space, p)
    return str(p)


@pytest.fixture
def m2_file(tmp_path):
    p = tmp_path / "m2.json"
    save_element(m2_admissible(1.0), p)
    return str(p)


class TestNoDenseMatrix:
    """On written documents the commands read the cells and never form a D^2 x D^2 matrix."""

    @pytest.fixture
    def dense_builds(self, monkeypatch):
        """The orders of the elements whose dense `data` gets built."""
        from qmetric import algebra

        built, data = [], algebra._Element.data

        def spy(self):
            if self._data is None:
                built.append(self.order)
            return data.fget(self)

        monkeypatch.setattr(algebra._Element, "data", property(spy))
        return built

    def test_commands_read_cells(self, tmp_path, capsys, dense_builds):
        f = lambda name: str(tmp_path / name)  # noqa: E731
        save_metric_space(FiniteMetricSpace(random_metric(np.random.default_rng(6), 5)), f("s.json"))
        save_state(State.classical([0.5, 0.0, 0.25, 0.0, 0.25]), f("p.json"))
        save_state(State.classical([0.0, 1.0, 0.0, 0.0, 0.0]), f("q.json"))
        save_element(AlgebraElement((1,) * 5, np.diag([1.0, -2.0, 0.5, 3.0, 0.0])), f("a.json"))
        m2 = qmetric.MetricCandidate(m2_admissible(1.0))
        two = qmetric.direct_sum(m2, qmetric.MetricCandidate(BiElement.zeros((1,))), 1.0).rho
        save_element(two, f("two.json"))
        save_state(qmetric.PureState(two.shape, 0, [0.6, 0.8]).to_state(), f("u.json"))
        save_state(qmetric.PureState(two.shape, 1, [1.0]).to_state(), f("v.json"))
        dense_builds.clear()
        runs = [
            (["construct", "from-metric", f("s.json"), "--out", f("r.json")], 0),
            (["construct", "conic", f("r.json"), f("r.json"), "--r", "0.5", "--out", f("c.json")], 0),
            (["construct", "direct-sum", f("r.json"), f("c.json"), "--r", "9", "--out", f("d.json")], 0),
            (["construct", "tensor", f("r.json"), f("two.json"), "--out", f("t.json")], 1),
            (["verify", f("d.json"), "--report", f("rep.json"), "--json"], 0),
            (["verify", f("d.json"), "--mode", "algebraic"], 0),
            (["verify", f("two.json"), "--report", f("rep.json"), "--json"], 1),
            (["lipschitz", "--rho", f("r.json"), "--element", f("a.json")], 0),
            (["distance", "--rho", f("r.json"), "--phi", f("p.json"), "--psi", f("q.json")], 0),
            (["distance", "--rho", f("r.json"), "--phi", f("p.json"), "--psi", f("q.json"), "--method", "ascent"], 0),
            (["distance", "--rho", f("two.json"), "--phi", f("u.json"), "--psi", f("v.json")], 0),
        ]
        for argv, code in runs:
            assert main(argv + ["--quiet"] * (argv[0] != "verify" or "--json" not in argv)) == code, argv
        capsys.readouterr()
        # only order-1 elements, D x D, are ever made dense (the seminorm's a and the states' difference)
        assert set(dense_builds) <= {1}
        assert load_element(f("d.json")).shape.blocks == (1,) * 10


class TestPdelta:
    def test_two_level_exact(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert main(["pdelta", "--shape", "2", "--out", str(out), "--quiet"]) == 0
        elem = load_element(out, expect_order=2)
        assert np.array_equal(elem.data.real, M2_DIAG_PROJECTOR)
        assert np.all(elem.data.imag == 0)

    def test_json_output(self, capsys):
        assert main(["pdelta", "--shape", "1,1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"] == [1, 1]
        assert doc["order"] == 2

    def test_bad_shape(self, capsys):
        assert main(["pdelta", "--shape", "0"]) == 2


class TestVerify:
    def test_classical_passes(self, path3, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        assert (
            main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"]) == 0
        )
        assert main(["verify", str(rho), "--quiet"]) == 0
        assert main(["verify", str(rho), "--mode", "algebraic", "--quiet"]) == 0

    def test_admissible_family_fails_at_v(self, m2_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(["verify", m2_file, "--report", str(report_path), "--json"])
        assert code == 1
        doc = json.loads(report_path.read_text())
        failing = [r["axiom"] for r in doc["records"] if not r["passed"]]
        assert failing == ["v"]
        emitted = json.loads(capsys.readouterr().out)
        assert emitted["passed"] is False

    @pytest.mark.parametrize(
        "data, code",
        [((np.eye(4) - SWAP2) / 2.0, 1), (2.0 * np.eye(4) - SWAP2, 0)],
        ids=["P_anti", "2-F"],
    )
    def test_algebraic_mode_on_the_two_level_swap_family(self, tmp_path, capsys, data, code):
        p = tmp_path / "rho.json"
        save_element(BiElement((2,), data), p)
        assert main(["verify", str(p), "--mode", "algebraic", "--json"]) == code
        rec = {r["axiom"]: r for r in json.loads(capsys.readouterr().out)["records"]}["iii_alg"]
        if code:
            assert rec["passed"] is False and "witness" in rec
        else:
            # the spectrum of 2 - F is {1, 3}, so the floor is 1e-8 * 3
            assert rec["passed"] is True and rec["margin"] == pytest.approx(1.0 - 3e-8, abs=1e-15)

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["verify", str(bad), "--quiet"]) == 2

    @pytest.mark.parametrize("change", [
        {"data": 5},
        {"data": None},
        {"data": [[0, 0]] * 15 + [[0, None]]},
        {"data": [[0, 0]] * 15 + [[0, [1]]]},
        {"order": 2.7},
    ])
    def test_malformed_matrix_document_exits_2(self, tmp_path, capsys, change):
        doc = {"shape": [1, 1], "order": 2, "rows": 4, "cols": 4, "data": [[0, 0]] * 16}
        doc.update(change)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--quiet"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [["1.5", "0"], [10**400, 0]])
    def test_entry_that_is_not_a_float_exits_2(self, tmp_path, capsys, entry):
        # a 2-point metric with d(0, 1) = d(1, 0) given as the entry
        data = [[0, 0]] * 16
        data[5] = data[10] = entry
        doc = {"shape": [1, 1], "order": 2, "rows": 4, "cols": 4, "data": data}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--quiet"]) == 2
        assert "entry 5 is not an [re, im] pair" in capsys.readouterr().err

    def test_margin_table_printed(self, m2_file, capsys):
        main(["verify", m2_file])
        out = capsys.readouterr().out
        assert "axiom" in out and "margin" in out and "fail" in out


class TestNonFiniteTolerances:
    @pytest.mark.parametrize(
        "flag, value", [("--eq-tol", "nan"), ("--psd-tol", "nan"), ("--floor", "nan"), ("--floor", "inf")]
    )
    def test_verify_exits_2(self, path3, tmp_path, capsys, flag, value):
        rho = tmp_path / "rho.json"
        assert main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"]) == 0
        assert main(["verify", str(rho), "--quiet"]) == 0
        assert main(["verify", str(rho), "--quiet", flag, value]) == 2
        assert "tolerances must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--eps", "nan"), ("--trace-target", "inf"), ("--residual-tol", "nan")]
    )
    def test_search_exits_2(self, capsys, flag, value):
        code = main(["search", "--shape", "1,1,1", "--max-iter", "5", "--quiet", flag, value])
        assert code == 2
        assert "must be finite" in capsys.readouterr().err


class TestConstruct:
    def test_direct_sum_pipeline(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        save_metric_space(FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]])), a)
        ra = tmp_path / "ra.json"
        assert main(["construct", "from-metric", str(a), "--out", str(ra), "--quiet"]) == 0
        out = tmp_path / "sum.json"
        code = main(
            ["construct", "direct-sum", str(ra), str(ra), "--r", "1.0", "--out", str(out), "--quiet"]
        )
        assert code == 0
        elem = load_element(out, expect_order=2)
        assert elem.shape.blocks == (1, 1, 1, 1)

    def test_direct_sum_below_bound(self, tmp_path):
        a = tmp_path / "a.json"
        save_metric_space(FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]])), a)
        ra = tmp_path / "ra.json"
        main(["construct", "from-metric", str(a), "--out", str(ra), "--quiet"])
        assert (
            main(["construct", "direct-sum", str(ra), str(ra), "--r", "0.5", "--quiet"]) == 2
        )

    def test_conic_and_tensor(self, tmp_path):
        a = tmp_path / "a.json"
        save_metric_space(FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]])), a)
        ra = tmp_path / "ra.json"
        main(["construct", "from-metric", str(a), "--out", str(ra), "--quiet"])
        assert main(["construct", "conic", str(ra), str(ra), "--r", "2.0", "--quiet"]) == 0
        assert main(["construct", "tensor", str(ra), str(ra), "--quiet"]) == 0

    def test_wrong_input_count(self, path3):
        assert main(["construct", "conic", path3, "--quiet"]) == 2

    @pytest.mark.parametrize("construction", ["from-metric", "tensor"])
    def test_r_is_refused_where_it_means_nothing(self, path3, tmp_path, capsys, construction):
        rho = tmp_path / "rho.json"
        assert main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"]) == 0
        inputs = [path3] if construction == "from-metric" else [str(rho), str(rho)]
        assert main(["construct", construction, *inputs, "--quiet"]) == 0
        assert main(["construct", construction, *inputs, "--r", "-5", "--quiet"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {construction} takes no --r; only conic and direct-sum do\n"

    @pytest.mark.parametrize("construction", ["conic", "direct-sum"])
    def test_r_defaults_to_one(self, path3, tmp_path, capsys, construction):
        rho = tmp_path / "rho.json"
        assert main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"]) == 0
        capsys.readouterr()
        argv = ["construct", construction, str(rho), str(rho), "--json"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main(argv + ["--r", "1.0"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("change", [
        {"n": 2.7}, {"n": True}, {"n": "2"}, {"n": -2}, {"d": [0, "1", "1", 0]}, {"d": [0, 10**400, 1, 0]},
    ])
    def test_malformed_metric_space_exits_2(self, tmp_path, capsys, change):
        doc = {"n": 2, "d": [0, 1, 1, 0]}
        doc.update(change)
        bad = tmp_path / "space.json"
        bad.write_text(json.dumps(doc))
        assert main(["construct", "from-metric", str(bad), "--quiet"]) == 2
        assert main(["distance", "--classical", str(bad), "--phi", "0", "--psi", "1"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and ("field 'n'" in err or "distance 1" in err)


class TestSearch:
    def test_classical_search_writes_outcome(self, tmp_path, capsys):
        out = tmp_path / "outcome.json"
        code = main(
            [
                "search",
                "--shape",
                "1,1,1",
                "--max-iter",
                "3000",
                "--restarts",
                "2",
                "--seed",
                "42",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "candidate_found"
        assert doc["candidate"] is not None
        assert doc["report"]["passed"] is True

    def test_two_level_negative(self, capsys):
        code = main(
            [
                "search",
                "--shape",
                "2",
                "--max-iter",
                "500",
                "--restarts",
                "1",
                "--quiet",
            ]
        )
        assert code == 1


class TestLipschitzAndDistance:
    def test_lipschitz_value(self, path3, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"])
        a = tmp_path / "a.json"
        save_element(
            AlgebraElement(AlgebraShape((1, 1, 1)), np.diag([0.0, 1.0, 3.0]).astype(complex)),
            a,
        )
        assert main(["lipschitz", "--rho", str(rho), "--element", str(a), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lip_seminorm"] == pytest.approx(2.0, abs=1e-9)

    def test_classical_distance(self, path3, capsys):
        code = main(
            ["distance", "--classical", path3, "--phi", "0", "--psi", "2", "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lower"] == pytest.approx(2.0, abs=1e-9)
        assert doc["upper"] == pytest.approx(2.0, abs=1e-9)
        assert set(doc) >= {"lower", "upper", "converged", "iterations"}

    def test_malformed_state_document_exits_2(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        save_element(m2_admissible(1.0), rho)
        good = tmp_path / "phi.json"
        good.write_text(json.dumps({"shape": [2], "order": 1, "rows": 2, "cols": 2,
                                    "data": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
        bad = tmp_path / "psi.json"
        bad.write_text(json.dumps({"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": 7}))
        code = main(["distance", "--rho", str(rho), "--phi", str(good), "--psi", str(bad)])
        assert code == 2
        assert "'data' must be a list" in capsys.readouterr().err

    def test_distance_needs_an_input(self, capsys):
        assert main(["distance", "--phi", "0", "--psi", "1"]) == 2

    def test_classical_and_rho_exclude_each_other(self, path3, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        argv = ["distance", "--classical", path3, "--phi", "0", "--psi", "2", "--rho", missing]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --classical and --rho exclude each other\n"

    @pytest.mark.parametrize("text", ["x", "1e0", "1.0", ""])
    def test_point_index_must_be_an_integer(self, path3, capsys, text):
        assert main(["distance", "--classical", path3, "--phi", text, "--psi", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point index must be an integer, got {text!r}\n"

    def test_point_index_out_of_range(self, path3, capsys):
        assert main(["distance", "--classical", path3, "--phi", "0", "--psi", "-1"]) == 2
        assert capsys.readouterr().err == "error: point index -1 out of range for 3 points\n"

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 2**31 - 1), st.sampled_from(["json", "text", "skewed"]))
    def test_classical_queries_match_the_candidate_path(self, tmp_path_factory, n, seed, layout):
        # every pair answers from the distances exactly as mk_distance does on
        # the candidate and the point-mass states
        rng = np.random.default_rng(seed)
        d = random_metric(rng, n) + 0.5 * (1.0 - np.eye(n))
        path = tmp_path_factory.mktemp("space") / ("space.txt" if layout == "text" else "space.json")
        if layout == "text":
            path.write_text("".join(" ".join(map(repr, d[k, :k].tolist())) + "\n" for k in range(1, n)))
        else:
            if layout == "skewed":
                # asymmetric within FiniteMetricSpace's tolerance; the triangles keep a 0.5 slack
                d[np.triu_indices(n, 1)] *= 1.0 + rng.uniform(-9e-6, 9e-6, n * (n - 1) // 2)
            path.write_text(json.dumps({"n": n, "d": d.ravel().tolist()}))
        space = exchange.load_metric_space(path)
        rho = from_finite_metric(space)
        eye = np.eye(n)

        def query(i, j, *flags):
            argv = ["distance", "--classical", str(path), "--phi", str(i), "--psi", str(j), "--json"]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv + list(flags)) == 0
            return out.getvalue()

        for i in range(n):
            for j in range(n):
                want = mk_distance(State.classical(eye[i]), State.classical(eye[j]), rho)
                assert query(i, j) == json.dumps(want.to_dict()) + "\n"
        i, j = map(int, rng.integers(n, size=2))
        exact = json.loads(query(i, j))["lower"]
        bracket = json.loads(query(i, j, "--method", "ascent"))
        slack = 1e-9 * max(1.0, exact)
        assert bracket["lower"] - slack <= exact <= bracket["upper"] + slack

    def test_classical_queries_build_no_candidate_and_no_states(self, path3, monkeypatch, capsys):
        # a path that rebuilt them would lose the gain silently
        built = []

        def spy(name, real):
            def record(*args):
                built.append(name)
                return real(*args)
            return record

        monkeypatch.setattr(qmetric.cli, "from_finite_metric", spy("candidate", from_finite_metric))
        monkeypatch.setattr(State, "classical", spy("state", State.classical))
        argv = ["distance", "--classical", path3, "--phi", "0", "--psi", "2", "--json"]
        assert main(argv) == 0
        assert built == []
        assert main(argv + ["--method", "ascent"]) == 0
        assert built == ["state", "state", "candidate"]
        first, second = map(json.loads, capsys.readouterr().out.splitlines())
        assert first["lower"] == first["upper"] == 2.0
        assert second["lower"] <= 2.0 <= second["upper"]

    def test_method_lp_is_an_invalid_choice(self, path3, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distance", "--classical", path3, "--phi", "0", "--psi", "2", "--method", "lp"])
        assert exc.value.code == 2
        assert "invalid choice: 'lp'" in capsys.readouterr().err

    @pytest.mark.parametrize("phi,psi", [([1.0, 0.0], [0.0, 1.0]), ([0.3, 0.7], [0.6, 0.4])])
    def test_negative_cycle_exits_2(self, tmp_path, capsys, phi, psi):
        # d(0, 1) = -2 and d(1, 0) = 1: no element satisfies the seminorm constraints
        data = np.diag([0.0, -2.0, 1.0, 0.0]).astype(complex)
        rho = tmp_path / "rho.json"
        save_element(BiElement(AlgebraShape((1, 1)), data), rho)
        save_state(State.classical(phi), tmp_path / "phi.json")
        save_state(State.classical(psi), tmp_path / "psi.json")
        argv = ["distance", "--rho", str(rho), "--phi", str(tmp_path / "phi.json"),
                "--psi", str(tmp_path / "psi.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "negative cycle" in captured.err


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["pdelta", "--shape", "2"],
        ["lipschitz", "--rho", "r.json", "--element", "a.json"],
        ["distance", "--classical", "s.json", "--phi", "0", "--psi", "1"],
    ])
    def test_only_seeded_commands_take_it(self, capsys, argv):
        # these commands draw no random numbers
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        assert exc.value.code == 0
        assert "--seed" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["verify", "construct", "search", "nogo-m2"])
    def test_seeded_commands_list_it(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "--seed" in capsys.readouterr().out


class TestNogoM2:
    def test_reproduction(self, capsys):
        code = main(["nogo-m2", "--samples", "2000", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["projector_matches"] is True
        assert [r["lambda"] for r in doc["results"]] == [0.1, 1.0, 10.0]
        for r in doc["results"]:
            assert r["defect_matches"] and r["identity_holds"]
            assert r["fails_exactly_at_v"]
            assert r["witness_value"] == pytest.approx(-2.0 * r["lambda"], abs=1e-9)


class TestJsonPayloads:
    def test_quiet_builds_no_payload(self, path3, tmp_path, monkeypatch, capsys):
        def refuse(*_):
            raise AssertionError("a --json payload was built without --json")

        monkeypatch.setattr(exchange, "element_to_dict", refuse)
        monkeypatch.setattr(exchange, "outcome_to_dict", refuse)
        rho = tmp_path / "rho.json"
        assert main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"]) == 0
        assert main(["pdelta", "--shape", "2", "--quiet"]) == 0
        assert main(["search", "--shape", "1,1", "--max-iter", "50", "--restarts", "1", "--quiet"]) in (0, 1)
        assert load_element(rho).shape.blocks == (1, 1, 1)
        assert capsys.readouterr().out == ""

    def test_tables_are_built_only_when_printed(self, path3, m2_file, tmp_path, monkeypatch, capsys):
        built = []
        table = qmetric.cli._report_table

        def spy(report):
            built.append(report)
            return table(report)

        monkeypatch.setattr(qmetric.cli, "_report_table", spy)
        rho = tmp_path / "rho.json"
        assert main(["construct", "from-metric", path3, "--out", str(rho), "--json"]) == 0
        assert main(["construct", "from-metric", path3, "--quiet"]) == 0
        assert main(["verify", m2_file, "--json"]) == 1
        assert main(["verify", m2_file, "--quiet"]) == 1
        assert built == []
        capsys.readouterr()
        assert main(["verify", m2_file]) == 1
        assert len(built) == 1
        assert capsys.readouterr().out == table(built[0]) + "\n"

    def test_verify_builds_its_report_once(self, m2_file, tmp_path, monkeypatch, capsys):
        calls = []
        to_dict = AxiomReport.to_dict

        def counted(report):
            calls.append(report)
            return to_dict(report)

        monkeypatch.setattr(AxiomReport, "to_dict", counted)
        report = tmp_path / "report.json"
        assert main(["verify", m2_file, "--report", str(report), "--json"]) == 1
        assert calls == []
        assert capsys.readouterr().out == json.dumps(json.loads(report.read_text())) + "\n"


class TestRoundTrip:
    def test_emitted_files_reparse_identically(self, path3, tmp_path):
        rho = tmp_path / "rho.json"
        main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"])
        first = load_element(rho)
        save_element(first, tmp_path / "again.json")
        second = load_element(tmp_path / "again.json")
        assert np.array_equal(first.data, second.data)
        assert (tmp_path / "again.json").read_text() == rho.read_text()


class TestNonFiniteInput:
    def test_verify_rejects_nan_entry(self, m2_file, tmp_path, capsys):
        doc = json.loads(Path(m2_file).read_text())
        doc["data"][5] = [float("nan"), 0.0]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err
        assert "SVD" not in captured.err

    def test_distance_rejects_nan_state_with_the_element_message(self, tmp_path, capsys):
        rho = tmp_path / "rho.json"
        save_element(m2_admissible(1.0), rho)
        good = tmp_path / "phi.json"
        save_state(State(AlgebraShape((2,)), (np.diag([0.5, 0.5]),)), good)
        doc = json.loads(good.read_text())
        doc["data"][0] = [float("nan"), 0.0]
        bad = tmp_path / "psi.json"
        bad.write_text(json.dumps(doc))
        assert main(["distance", "--rho", str(rho), "--phi", str(good), "--psi", str(bad), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "matrix data must be finite; found 1 NaN or infinite entries" in captured.err

    def test_distance_rejects_infinite_distance(self, tmp_path, capsys):
        space = tmp_path / "inf.txt"
        space.write_text("1\ninf 1\n")
        assert main(["distance", "--classical", str(space), "--phi", "0", "--psi", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distance matrix must be finite; found 2 NaN or infinite entries" in captured.err


def _error_line(capsys) -> str:
    """The one stderr line of a run that printed nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestDocumentBoundaryErrors:
    """Faults found in an input document exit 2 with one error line."""

    def test_missing_matrix_file(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "missing.json"), "--quiet"]) == 2
        assert _error_line(capsys).startswith("error: cannot read matrix document")

    def test_order_two_document_as_a_state(self, m2_file, tmp_path, capsys):
        psi = tmp_path / "psi.json"
        save_state(State(AlgebraShape((2,)), (np.diag([0.5, 0.5]),)), psi)
        assert main(["distance", "--rho", m2_file, "--phi", m2_file, "--psi", str(psi)]) == 2
        assert _error_line(capsys) == "error: a state document must have tensor order 1"

    def test_state_density_that_is_not_positive(self, m2_file, tmp_path, capsys):
        phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
        phi.write_text(json.dumps({"shape": [2], "order": 1, "rows": 2, "cols": 2,
                                   "data": [[-0.5, 0], [0, 0], [0, 0], [1.5, 0]]}))
        save_state(State(AlgebraShape((2,)), (np.diag([0.5, 0.5]),)), psi)
        assert main(["distance", "--rho", m2_file, "--phi", str(phi), "--psi", str(psi)]) == 2
        assert _error_line(capsys) == "error: block densities must be positive semidefinite"

    @pytest.mark.parametrize("text", ['{"n": 2}', '{"n": 2, "d": [0, 1'], ids=["no-distances", "truncated"])
    def test_malformed_metric_space_document(self, tmp_path, capsys, text):
        space = tmp_path / "space.json"
        space.write_text(text)
        assert main(["construct", "from-metric", str(space), "--quiet"]) == 2
        assert _error_line(capsys).startswith("error: malformed metric-space document: ")

    def test_lower_triangle_value_that_is_not_a_number(self, tmp_path, capsys):
        space = tmp_path / "space.txt"
        space.write_text("x\n")
        assert main(["construct", "from-metric", str(space), "--quiet"]) == 2
        assert _error_line(capsys) == "error: bad distance value 'x'"


class TestArgumentBoundaryErrors:
    """Arguments that no computation can use exit 2 with one error line."""

    def test_search_on_a_trivial_structural_subspace(self, capsys):
        assert main(["search", "--shape", "1"]) == 2
        assert _error_line(capsys) == "error: the structural subspace over blocks (1,) is trivial"

    def test_nogo_needs_positive_parameters(self, capsys):
        assert main(["nogo-m2", "--lambdas", "0,1"]) == 2
        assert _error_line(capsys) == "error: all family parameters must be positive"


class TestOverflowScaleInput:
    """Finite values above 2**1000 exit 2 at the boundary, before any check can overflow.

    The suite turns every warning into an error, so an overflow warning fails these tests.
    """

    BOUND_TEXT = "finite values above 2**1000 (about 1.07e301) are rejected"

    @pytest.mark.parametrize("mode", ["representation", "algebraic"])
    @pytest.mark.parametrize("scale", [4e307, 7.5e307])
    def test_matrix_document(self, tmp_path, capsys, mode, scale):
        # an element beyond the bound cannot be built, so the document is written by hand
        p = tmp_path / "rho.json"
        data = [[v, 0.0] for v in (scale * (2 * np.eye(4) - SWAP2)).ravel().tolist()]
        p.write_text(json.dumps({"shape": [2], "order": 2, "rows": 4, "cols": 4, "data": data}))
        assert main(["verify", str(p), "--mode", mode, "--json"]) == 2
        want = f"error: entry 0 has magnitude {scale:.6g}; {self.BOUND_TEXT}"
        assert _error_line(capsys) == want

    def test_matrix_document_at_the_bound_is_checked(self, tmp_path, capsys):
        # entries of exactly 2**1000: every check stays finite
        p = tmp_path / "rho.json"
        save_element(BiElement((2,), 2.0**999 * (2 * np.eye(4) - SWAP2)), p)
        assert main(["verify", str(p), "--mode", "algebraic", "--quiet"]) == 0
        assert main(["verify", str(p), "--mode", "representation", "--quiet"]) == 1

    def test_state_document(self, m2_file, tmp_path, capsys):
        phi, psi = tmp_path / "phi.json", tmp_path / "psi.json"
        save_state(State(AlgebraShape((2,)), (np.diag([0.5, 0.5]),)), phi)
        doc = json.loads(phi.read_text())
        doc["data"][2] = [0.0, -1e302]
        psi.write_text(json.dumps(doc))
        assert main(["distance", "--rho", m2_file, "--phi", str(phi), "--psi", str(psi)]) == 2
        assert _error_line(capsys) == f"error: entry 2 has magnitude 1e+302; {self.BOUND_TEXT}"

    def test_nogo_parameter_whose_defect_passes_the_bound(self, capsys):
        # the triangle defect of m2_admissible(lam) holds 2 lam
        assert main(["nogo-m2", "--lambdas", "6e300"]) == 2
        assert _error_line(capsys) == f"error: entry 18 has magnitude 1.2e+301; {self.BOUND_TEXT}"

    @pytest.mark.parametrize("suffix, text", [
        (".json", '{"n": 3, "d": [0, 1.5e308, 1.5e308, 1.5e308, 0, 1.5e308, 1.5e308, 1.5e308, 0]}'),
        (".txt", "1\n1.5e308 1\n"),
    ])
    def test_metric_space(self, tmp_path, capsys, suffix, text):
        space = tmp_path / f"space{suffix}"
        space.write_text(text)
        assert main(["distance", "--classical", str(space), "--phi", "0", "--psi", "2"]) == 2
        where = "distance 1 (d(0, 1))" if suffix == ".json" else "distance 2 (d(0, 2))"
        assert _error_line(capsys) == f"error: {where} has magnitude 1.5e+308; {self.BOUND_TEXT}"


class TestDefaultStdout:
    """The text the commands print when neither --quiet nor --json is given."""

    def test_pdelta_matrix_table(self, capsys):
        assert main(["pdelta", "--shape", "2"]) == 0
        zero, one, half = "+0.0000+0.0000j", "+1.0000+0.0000j", "+0.5000+0.0000j"
        rows = [[one, zero, zero, zero], [zero, half, half, zero], [zero, half, half, zero], [zero, zero, zero, one]]
        assert capsys.readouterr().out == "".join("  ".join(row) + "\n" for row in rows)

    def test_nogo_m2_summary(self, capsys):
        assert main(["nogo-m2", "--samples", "50"]) == 0
        assert capsys.readouterr().out == (
            "lambda=0.1: defect match True, identity True, witness -0.200 (expected -0.200), fails exactly at v: True\n"
            "lambda=1.0: defect match True, identity True, witness -2.000 (expected -2.000), fails exactly at v: True\n"
            "lambda=10.0: defect match True, identity True, witness -20.000 (expected -20.000), fails exactly at v: True\n"
            "no-go reproduction: ok\n"
        )

    def test_search_summary(self, capsys):
        # margins such as -4.440892e-16 vary with numpy and BLAS; the layout does not
        assert main(["search", "--shape", "1,1", "--max-iter", "300", "--restarts", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "status: candidate_found"
        assert re.fullmatch(r"best residual: \S+ after \d+ iterations, \d+ restart\(s\)", lines[1])
        assert lines[2] == "axiom     passed   margin"
        assert [line[:19] for line in lines[3:-1]] == [f"{axiom:<10}yes      " for axiom in ("i", "ii", "iii", "iv", "v")]
        assert all(re.fullmatch(r"[+-]\d\.\d{6}e[+-]\d\d", line[19:]) for line in lines[3:-1])
        assert lines[-1] == "overall: pass (mode representation)"


def test_import_leaves_scipy_out():
    # the package runs on numpy alone; scipy is a test dependency and
    # importing it would add most of a second to every command's start-up
    src = str(Path(qmetric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, qmetric, qmetric.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def _reference_main(argv=None) -> int:
    """main as it was: every argv through the full parser, then the command."""
    args = qmetric.cli._parser().parse_args(argv)
    try:
        return args.func(args)
    except (exchange.ExchangeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _outcome_of(entry, argv, capsys):
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    out, err = capsys.readouterr()
    return code, out, err


# argv with {path3}, {m2}, {rho}, {elem}, {phi}, {psi} and {out} for the documents
_ARGV_CORPUS = [
    # every subcommand with its options
    "pdelta --shape 2 --json",
    "pdelta --shape 1,1 --out {out} --quiet",
    "verify {m2}",
    "verify {m2} --mode algebraic --report {out} --json --eq-tol 1e-9 --psd-tol 1e-8 --floor 1e-6 --samples 4 --seed 3",
    "verify {rho} --report={out} --quiet",
    "construct from-metric {path3} --out {out} --mode algebraic --eq-tol 1e-9 --json",
    "construct conic {rho} {rho} --r 0.5 --quiet",
    "construct direct-sum {rho} {m2} --r 2",
    "construct tensor {rho} {rho} --seed 1 --json",
    "search --shape 1,1 --mode algebraic --eps 1e-3 --trace-target 4 --restarts 1 --max-iter 40 "
    "--residual-tol 1e-8 --seed 2 --out {out} --json",
    "search --shape 1,1 --max-iter 40 --restarts 1 --drop-triangle",
    "lipschitz --rho {rho} --element {elem} --json",
    "distance --classical {path3} --phi 0 --psi 2 --method auto --max-iter 10 --json",
    "distance --rho {rho} --phi {phi} --psi {psi}",
    "distance --phi 0 --psi -1 --classical {path3}",
    "nogo-m2 --lambdas 1 --samples 10 --seed 1 --json",
    # --help of each subcommand and of the top level
    "pdelta --help", "verify --help", "construct --help", "search --help",
    "lipschitz --help", "distance --help", "nogo-m2 --help", "verify {m2} -h",
    "--help", "-h",
    # no argv, an unknown subcommand, an option before the subcommand
    "", "bogus", "verif {m2}", "--quiet verify {m2}",
    # unknown flags and extra arguments after a subcommand
    "verify {m2} --bogus", "verify {m2} extra", "pdelta --shape 2 --seed 1", "verify {m2} -- extra",
    "verify -- {m2}",
    # abbreviations, an ambiguous one, missing arguments and invalid choices or values
    "verify {m2} --qui", "verify {m2} --rep {out} --js", "search --shape 1,1 --re 1",
    "verify", "search", "distance --phi 0", "construct conic",
    "verify {m2} --mode bogus", "construct bogus {m2}", "nogo-m2 --samples x",
    # errors the commands themselves report
    "verify {path3}/missing.json", "pdelta --shape 0",
]


class TestDispatch:
    @pytest.fixture
    def docs(self, path3, m2_file, tmp_path):
        rho, elem = tmp_path / "rho.json", tmp_path / "elem.json"
        save_element(from_finite_metric(FiniteMetricSpace(np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]], dtype=float))).rho, rho)
        save_element(AlgebraElement((1, 1, 1), np.diag([0.0, 1.0, 3.0])), elem)
        save_state(State.classical([1.0, 0.0, 0.0]), tmp_path / "phi.json")
        save_state(State.classical([0.0, 0.5, 0.5]), tmp_path / "psi.json")
        return {"path3": path3, "m2": m2_file, "rho": str(rho), "elem": str(elem),
                "phi": str(tmp_path / "phi.json"), "psi": str(tmp_path / "psi.json"), "out": str(tmp_path / "out.json")}

    @pytest.mark.parametrize("line", _ARGV_CORPUS)
    def test_main_acts_as_the_full_parser(self, docs, capsys, line):
        argv = line.format(**docs).split()
        want = _outcome_of(_reference_main, argv, capsys)
        assert _outcome_of(main, argv, capsys) == want
        try:
            ref = qmetric.cli._parser().parse_args(argv)
        except SystemExit:
            return
        assert qmetric.cli._parse(argv) == ref

    @pytest.mark.parametrize("line", ["verify {m2} --json", "verify {m2} --bogus", ""])
    def test_argv_none_reads_sys_argv(self, docs, capsys, monkeypatch, line):
        monkeypatch.setattr(sys, "argv", ["qmetric", *line.format(**docs).split()])
        want = _outcome_of(_reference_main, None, capsys)
        assert _outcome_of(main, None, capsys) == want

    def test_top_level_parser_reports_unrecognized_arguments(self, m2_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", m2_file, "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: qmetric [-h]")
        assert err.endswith("qmetric: error: unrecognized arguments: --bogus\n")


def _texts(action):
    """Argument texts for an action: good values for its type and choices, and bad or "-"-prefixed ones."""
    if action.choices is not None:
        good = st.sampled_from(list(action.choices))
    elif action.type is int:
        good = st.integers(-3, 40).map(str)
    elif action.type is float:
        good = st.floats().map(repr)
    else:
        good = st.text("ab1.,", min_size=1, max_size=4)
    bad = st.sampled_from(["x", "", "-", "-1", "-1.5", "-x", "--", "-h", "nan", "1e3", " 2", "1_0", "2.5", "bogus"])
    return st.one_of(good, good, good, good, bad)


def _mostly(n: int):
    """True n times in n + 1; hypothesis leans to a strategy's first choice, so True is listed first."""
    return st.sampled_from([True] * n + [False])


@st.composite
def _option_tokens(draw, action):
    """One occurrence of an option: exact, as `--opt=value`, or abbreviated."""
    spelling = draw(st.sampled_from(action.option_strings))
    form = draw(st.sampled_from(["exact"] * 10 + ["equals", "abbreviation"]))
    if form == "abbreviation":
        spelling = spelling[: draw(st.integers(2, max(2, len(spelling) - 1)))]
    if action.nargs == 0:
        return [f"{spelling}=1"] if form == "equals" else [spelling]
    value = draw(_texts(action))
    return [f"{spelling}={value}"] if form == "equals" else [spelling, value]


@st.composite
def _argvs(draw):
    """An argv for one subcommand, drawn from that parser's own actions, well-formed or not."""
    command = draw(st.sampled_from(sorted(qmetric.cli._commands())))
    parser = qmetric.cli._commands()[command]
    options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    chosen = draw(st.lists(st.sampled_from(options), max_size=6))
    if draw(_mostly(4)):
        chosen += [a for a in options if a.required]
    groups = [draw(_option_tokens(a)) for a in chosen]
    positionals = []
    for action in (a for a in parser._actions if not a.option_strings):
        if not draw(_mostly(9)):
            break
        positionals += [draw(_texts(action)) for _ in range(draw(st.integers(1, 3)) if action.nargs else 1)]
    if not draw(_mostly(9)):
        positionals.append("extra")
    # positionals split by options, or in one run
    groups += [positionals] if draw(_mostly(3)) else [[t] for t in positionals]
    if not draw(_mostly(5)):
        groups.append([draw(st.sampled_from(["--", "-h", "--help", "--bogus", "-1"]))])
    return [command, *(t for group in draw(st.permutations(groups)) for t in group)]


def _same(a, b) -> bool:
    """a == b, with NaN matching NaN and types compared."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float) and a != a:
        return b != b
    return type(a) is type(b) and a == b


def _same_namespace(a, b) -> bool:
    return vars(a).keys() == vars(b).keys() and all(_same(value, getattr(b, key)) for key, value in vars(a).items())


class TestArgumentTable:
    """`cli._match` gives the namespace argparse gives, or declines and leaves the argv to argparse."""

    @settings(max_examples=600, deadline=None)
    @given(_argvs())
    def test_declines_or_agrees_with_argparse(self, argv):
        fast = qmetric.cli._match(argv[0], argv[1:])
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                want = qmetric.cli._parser().parse_args(argv)
        except SystemExit:
            assert fast is None, argv
            return
        assert fast is None or _same_namespace(fast, want), argv

    @pytest.mark.parametrize(
        "line",
        [
            "construct conic a b --r 1e-3 --json",
            "construct --r 2 tensor a b c",
            "distance --phi 0 --psi 2 --classical s --phi 1",
            "search --max-iter 7 --shape 2 --drop-triangle --eps nan --trace-target inf",
            "nogo-m2",
            "verify '' --seed 3",
        ],
    )
    def test_reads_what_argparse_reads(self, line):
        argv = [t.strip("'") for t in line.split()]
        fast = qmetric.cli._match(argv[0], argv[1:])
        want = qmetric.cli._parser().parse_args(argv)
        assert fast is not None and _same_namespace(fast, want)

    @pytest.mark.parametrize(
        "line",
        [
            "verify a --report=r", "verify a --rep r", "verify a --", "verify -- a", "verify a -h",
            "distance --phi 0 --psi -1 --classical s", "construct conic a --r 1 b", "construct conic",
            "search --seed 1", "search --shape 2 --seed x", "verify a --mode bogus", "verify a --report",
        ],
    )
    def test_declines(self, line):
        argv = line.split()
        assert qmetric.cli._match(argv[0], argv[1:]) is None


# every line of _ARGV_CORPUS that spells each option exactly, with no value starting with "-"
_EXACT_LINES = [
    line
    for line in _ARGV_CORPUS[: _ARGV_CORPUS.index("pdelta --help")]
    if line not in ("verify {rho} --report={out} --quiet", "distance --phi 0 --psi -1 --classical {path3}")
]
# one argv of each form the benchmark's workloads run
_WORKLOAD_LINES = [
    "verify {rho} --mode algebraic --report {out} --json",
    "construct from-metric {path3} --mode representation --out {out} --quiet",
    "construct conic {rho} {rho} --mode algebraic --out {out} --quiet --r 0.5",
    "distance --classical {path3} --phi 0 --psi 2 --json",
    "distance --classical {path3} --phi 2 --psi 0 --method ascent --json",
    "distance --rho {rho} --phi {phi} --psi {psi} --json",
    "lipschitz --rho {rho} --element {elem} --json",
    "search --shape 1,1 --mode representation --restarts 1 --max-iter 40 --seed 2 --out {out} --quiet",
]


class TestTablePath:
    """Well-formed commands are read from the table and never reach argparse.

    A silent decline keeps every output byte but loses the table's speed,
    which no output comparison would notice.
    """

    docs = TestDispatch.docs

    def test_exact_lines_are_the_corpus_first_group(self):
        assert len(_EXACT_LINES) == 14

    @pytest.mark.parametrize("line", _EXACT_LINES + _WORKLOAD_LINES)
    def test_argparse_is_not_called(self, docs, capsys, monkeypatch, line):
        argv = line.format(**docs).split()
        want = _outcome_of(_reference_main, argv, capsys)

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a well-formed command")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        assert _outcome_of(main, argv, capsys) == want


class TestNoPurePythonEncoder:
    def test_outputs_are_written_without_it(self, path3, m2_file, tmp_path, monkeypatch, capsys):
        """No command's output path reaches json's pure-Python encoder, and its bytes are json.dumps's."""
        anti = tmp_path / "anti.json"
        save_element(BiElement((2,), (np.eye(4) - SWAP2) / 2.0), anti)
        rho = tmp_path / "rho.json"
        assert main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"]) == 0
        runs = [
            (["verify", str(rho), "--report", "{out}", "--json"], 0),
            (["verify", str(rho), "--mode", "algebraic", "--report", "{out}", "--json"], 0),
            (["verify", m2_file, "--report", "{out}", "--json"], 1),
            (["verify", str(anti), "--mode", "algebraic", "--report", "{out}", "--json"], 1),
            (["search", "--shape", "1,1", "--max-iter", "300", "--restarts", "1", "--out", "{out}", "--quiet"], 0),
            (["search", "--shape", "2", "--max-iter", "50", "--restarts", "1", "--out", "{out}", "--quiet"], 1),
            (["construct", "from-metric", path3, "--json"], 0),
        ]
        written = []

        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        with monkeypatch.context() as patch:
            patch.setattr(json.encoder, "_make_iterencode", refuse)
            with pytest.raises(AssertionError, match="pure-Python encoder"):
                json.dumps({}, indent=2)
            for k, (argv, code) in enumerate(runs):
                out = tmp_path / f"out{k}.json"
                assert main([a.format(out=out) for a in argv]) == code
                written.append((out, capsys.readouterr().out))
        for out, stdout in written:
            if out.exists():
                text = out.read_text()
                assert text == json.dumps(json.loads(text), indent=2)
            if stdout:
                assert stdout == json.dumps(json.loads(stdout)) + "\n"
        assert sum(out.exists() for out, _ in written) == 6
        assert sum(bool(stdout) for _, stdout in written) == 5


def _returns(monkeypatch, name: str) -> list:
    """Wrap qmetric.cli's `name` and list each call's (args, result)."""
    calls = []
    real = getattr(qmetric.cli, name)

    def spy(*args, **kwargs):
        calls.append((args, real(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(qmetric.cli, name, spy)
    return calls


def _distance_doc(result) -> dict:
    return {
        "lower": None if np.isinf(result.lower) else float(result.lower),
        "upper": None if np.isinf(result.upper) else float(result.upper),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "unbounded": bool(result.unbounded),
    }


class TestJsonPayloadBytes:
    """Each --json payload is json.dumps of a document built entry by entry from the command's own results."""

    @pytest.fixture
    def docs(self, path3, m2_file, tmp_path):
        rho = tmp_path / "rho.json"
        assert main(["construct", "from-metric", path3, "--out", str(rho), "--quiet"]) == 0
        save_state(State.classical([1.0, 0.0, 0.0]), tmp_path / "p.json")
        save_state(State.classical([0.0, 0.5, 0.5]), tmp_path / "q.json")
        a = tmp_path / "a.json"
        save_element(AlgebraElement(AlgebraShape((1, 1, 1)), np.diag([0.0, 1.0, 3.0]).astype(complex)), a)
        return {"path3": path3, "m2": m2_file, "rho": str(rho), "a": str(a), "dir": str(tmp_path)}

    @pytest.mark.parametrize("shape", ["2", "1,1", "2,1"])
    def test_pdelta(self, capsys, shape):
        assert main(["pdelta", "--shape", shape, "--json"]) == 0
        p = qmetric.diag_projector(AlgebraShape(tuple(int(n) for n in shape.split(","))))
        assert capsys.readouterr().out == json.dumps(oracles.matrix_doc(p)) + "\n"

    @pytest.mark.parametrize("mode", ["representation", "algebraic"])
    def test_verify(self, docs, monkeypatch, capsys, mode):
        reports = _returns(monkeypatch, "verify")
        assert main(["verify", docs["m2"], "--mode", mode, "--json"]) == 1
        assert capsys.readouterr().out == json.dumps(oracles.report_doc(reports[0][1])) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["from-metric", "{path3}"],
            ["conic", "{rho}", "{rho}", "--r", "2.5"],
            ["direct-sum", "{rho}", "{m2}", "--r", "3"],
            ["tensor", "{rho}", "{m2}"],
            ["tensor", "{rho}", "{m2}", "--mode", "algebraic"],
        ],
    )
    def test_construct(self, docs, monkeypatch, capsys, argv):
        verified = _returns(monkeypatch, "verify")
        assert main(["construct", *(a.format(**docs) for a in argv), "--json"]) in (0, 1)
        [((rho, *_), report)] = verified
        want = {"candidate": oracles.matrix_doc(rho), "report": oracles.report_doc(report)}
        assert capsys.readouterr().out == json.dumps(want) + "\n"

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--shape", "1,1", "--max-iter", "300", "--restarts", "1"], 0),
            (["--shape", "2", "--max-iter", "50", "--restarts", "1"], 1),
        ],
    )
    def test_search(self, monkeypatch, capsys, argv, code):
        searched = _returns(monkeypatch, "feasibility_search")
        assert main(["search", *argv, "--json"]) == code
        [(_, outcome)] = searched
        assert (outcome.candidate is not None) == (code == 0)
        assert capsys.readouterr().out == json.dumps(oracles.outcome_doc(outcome)) + "\n"

    def test_classical_distance(self, docs, monkeypatch, capsys):
        exact = _returns(monkeypatch, "exact_distance")
        assert main(["distance", "--classical", docs["path3"], "--phi", "0", "--psi", "2", "--json"]) == 0
        [(_, value)] = exact
        want = {"lower": value, "upper": value, "converged": True, "iterations": 0, "unbounded": False}
        assert capsys.readouterr().out == json.dumps(want) + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--rho", "{rho}", "--phi", "{dir}/p.json", "--psi", "{dir}/q.json"],
            ["--classical", "{path3}", "--phi", "0", "--psi", "1", "--method", "ascent"],
        ],
    )
    def test_distance(self, docs, monkeypatch, capsys, argv):
        results = _returns(monkeypatch, "mk_distance")
        assert main(["distance", *(a.format(**docs) for a in argv), "--json"]) == 0
        [(_, result)] = results
        assert capsys.readouterr().out == json.dumps(_distance_doc(result)) + "\n"

    def test_lipschitz(self, docs, monkeypatch, capsys):
        values = _returns(monkeypatch, "lip_seminorm")
        assert main(["lipschitz", "--rho", docs["rho"], "--element", docs["a"], "--json"]) == 0
        [(_, value)] = values
        assert capsys.readouterr().out == json.dumps({"lip_seminorm": float(value)}) + "\n"

    def test_nogo_m2(self, monkeypatch, capsys):
        defects = _returns(monkeypatch, "triangle_defect")
        reports = _returns(monkeypatch, "verify")
        assert main(["nogo-m2", "--samples", "20", "--json"]) == 0
        w = qmetric.axioms.M2_NOGO_WITNESS
        results = [
            {
                "lambda": lam,
                "defect_matches": True,
                "identity_holds": True,
                "witness_value": float(w @ defect.data.real @ w),
                "witness_matches": True,
                "fails_exactly_at_v": True,
                "triangle_margin": float(report.record("v").margin),
            }
            for lam, (_, defect), (_, report) in zip([0.1, 1.0, 10.0], defects, reports, strict=True)
        ]
        want = {"ok": True, "projector_matches": True, "results": results}
        assert capsys.readouterr().out == json.dumps(want) + "\n"


def test_quiet_builds_no_document_fields(path3, monkeypatch, capsys):
    """Without --json and --out no command formats a document's field texts."""

    def refuse(*_, **__):
        raise AssertionError("document fields were built without --json or --out")

    for name in ("_matrix_node", "_report_node", "_outcome_node", "_node", "_layout", "_layouts", "_template"):
        monkeypatch.setattr(exchange, name, refuse)
    assert main(["construct", "from-metric", path3, "--quiet"]) == 0
    assert main(["pdelta", "--shape", "2", "--quiet"]) == 0
    assert main(["search", "--shape", "1,1", "--max-iter", "50", "--restarts", "1", "--quiet"]) in (0, 1)
    assert main(["distance", "--classical", path3, "--phi", "0", "--psi", "2", "--quiet"]) == 0
    assert main(["nogo-m2", "--samples", "20", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def _failing_documents():
    """Failing candidates on (2, 1, 1) and (2, 2, 2), holding the two-level block, and on four points, one triangle broken."""
    rng = np.random.default_rng(31)
    m2 = MetricCandidate(m2_admissible(1.5))
    two = from_finite_metric(FiniteMetricSpace(random_metric(rng, 2)))
    return {
        "211": direct_sum(m2, two, 10.0).rho,
        "222": direct_sum(direct_sum(m2, m2, 10.0), m2, 30.0).rho,
        "classical4": oracles.embed_distance_matrix(oracles.plant_triangle_violation(rng, random_metric(rng, 4))),
    }


@pytest.mark.parametrize("name", ["211", "222", "classical4"])
def test_one_verify_writes_the_report_and_prints_the_payload(name, tmp_path, monkeypatch, capsys):
    """--report and --json in one call: the file is json.dumps(doc, indent=2) and stdout json.dumps(doc) of the one report."""
    path, out = tmp_path / "rho.json", tmp_path / "r.json"
    save_element(_failing_documents()[name], path)
    reports = _returns(monkeypatch, "verify")
    assert main(["verify", str(path), "--report", str(out), "--json"]) == 1
    [(_, report)] = reports
    doc = oracles.report_doc(report)
    assert any("witness" in r for r in doc["records"])
    assert out.read_text() == json.dumps(doc, indent=2)
    assert capsys.readouterr().out == json.dumps(doc) + "\n"
