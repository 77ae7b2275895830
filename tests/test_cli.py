import json
from pathlib import Path

import numpy as np
import pytest

from qmetric import AlgebraElement, AlgebraShape, m2_admissible
from qmetric.axioms import M2_DIAG_PROJECTOR
from qmetric.cli import main
from qmetric.exchange import load_element, save_element, save_metric_space
from qmetric.construct import FiniteMetricSpace


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

    def test_distance_rejects_infinite_distance(self, tmp_path, capsys):
        space = tmp_path / "inf.txt"
        space.write_text("1\ninf 1\n")
        assert main(["distance", "--classical", str(space), "--phi", "0", "--psi", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "distance matrix must be finite; found 2 NaN or infinite entries" in captured.err
