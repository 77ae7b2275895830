import json

import numpy as np
import pytest

from qmetric import AlgebraShape, BiElement, FiniteMetricSpace, State, m2_admissible
from qmetric.algebra import random_element
from qmetric.axioms import AxiomRecord, AxiomReport, ToleranceConfig
from qmetric.exchange import (
    ExchangeError,
    dict_to_element,
    element_to_dict,
    load_element,
    load_metric_space,
    load_state,
    save_element,
    save_metric_space,
    save_report,
    save_state,
)

import oracles


class TestElementRoundTrip:
    @pytest.mark.parametrize("blocks,order", [((2,), 2), ((1, 2), 1), ((1, 1), 3)])
    def test_bit_identical(self, tmp_path, blocks, order):
        rng = np.random.default_rng(1)
        x = random_element(blocks, order, rng)
        path = tmp_path / "x.json"
        save_element(x, path)
        y = load_element(path)
        assert type(y) is type(x)
        assert y.shape == x.shape
        assert np.array_equal(y.data, x.data)

    def test_tiny_entries_written_as_zero(self):
        shape = AlgebraShape((2,))
        data = np.zeros((4, 4), dtype=complex)
        data[1, 1] = 1e-15 + 1e-16j
        data[0, 0] = 1.0
        doc = element_to_dict(BiElement(shape, data))
        flat = np.array(doc["data"])
        assert flat[5][0] == 0.0 and flat[5][1] == 0.0
        assert flat[0][0] == 1.0

    def test_order_check(self, tmp_path):
        path = tmp_path / "m2.json"
        save_element(m2_admissible(1.0), path)
        with pytest.raises(ExchangeError):
            load_element(path, expect_order=1)

    def test_malformed_document(self):
        with pytest.raises(ExchangeError):
            dict_to_element({"shape": [2], "order": 2, "rows": 4, "cols": 4, "data": [[1]]})
        with pytest.raises(ExchangeError):
            dict_to_element({"shape": [2], "order": 5, "rows": 4, "cols": 4, "data": []})
        with pytest.raises(ExchangeError):
            dict_to_element({"shape": [2], "order": 2, "rows": 3, "cols": 3, "data": [[0, 0]] * 9})

    def test_numeric_pairs_convert_exactly(self):
        pairs = [[1, 2], [3.5, -0.0], [True, 0], [-1e-300, 7]]
        doc = {"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": pairs}
        want = np.array([complex(float(a), float(b)) for a, b in pairs]).reshape(2, 2)
        got = dict_to_element(doc).data
        assert np.array_equal(got.view(float), want.view(float))

    @pytest.mark.parametrize("bad", [[3], "ab", [1, 2, 3], {"re": 1, "im": 2}])
    def test_first_bad_entry_named(self, bad):
        doc = {"shape": [2], "order": 1, "rows": 2, "cols": 2,
               "data": [[1, 0], bad, [0, 0], [1, 0]]}
        with pytest.raises(ExchangeError, match="entry 1 is not an"):
            dict_to_element(doc)

    def test_support_violation_rejected(self):
        doc = {
            "shape": [1, 1],
            "order": 1,
            "rows": 2,
            "cols": 2,
            "data": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        }
        with pytest.raises(ExchangeError):
            dict_to_element(doc)


class TestReportDocument:
    def test_witness_pairs_match_entrywise_writer(self, tmp_path):
        witnesses = [
            np.array([-0.0, 1.5 - 0.0j, complex(-0.0, -2.25), 1e-300 + 3j, -7e-17j]),
            np.array([[-0.0, 2.0], [0.5, -1.0]]),
            np.array([1, -2]),
        ]
        records = tuple(
            AxiomRecord(tag, False, -1.0, witness=w) for tag, w in zip(("i", "iii", "v"), witnesses)
        )
        report = AxiomReport("representation", AlgebraShape((2,)), records, ToleranceConfig())
        path = tmp_path / "report.json"
        save_report(report, path)
        expected = report.to_dict()
        for rec, w in zip(expected["records"], witnesses):
            rec["witness"] = oracles.complex_pairs(w)
        assert path.read_text() == json.dumps(expected, indent=2)
        assert "-0.0" in path.read_text()


class TestStateRoundTrip:
    def test_classical(self, tmp_path):
        s = State.classical([0.25, 0.75])
        path = tmp_path / "s.json"
        save_state(s, path)
        t = load_state(path)
        assert t.shape == s.shape
        for a, b in zip(t.densities, s.densities):
            assert np.array_equal(a, b)
        doc = json.loads(path.read_text())
        assert doc["trace"] == pytest.approx(1.0)

    def test_block_state(self, tmp_path):
        shape = AlgebraShape((1, 2))
        dens = (
            np.array([[0.5]], dtype=complex),
            np.array([[0.25, 0.0], [0.0, 0.25]], dtype=complex),
        )
        s = State(shape, dens)
        path = tmp_path / "b.json"
        save_state(s, path)
        t = load_state(path)
        assert np.array_equal(t.densities[1], dens[1])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            State.classical([0.5, 0.2])


class TestMetricSpaceLoading:
    def test_json(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": 2, "d": [0, 1, 1, 0]}))
        space = load_metric_space(path)
        assert space.n == 2
        assert space.dist[0, 1] == 1.0

    def test_round_trip(self, tmp_path):
        space = FiniteMetricSpace(np.array([[0.0, 1.5], [1.5, 0.0]]))
        path = tmp_path / "s.json"
        save_metric_space(space, path)
        again = load_metric_space(path)
        assert np.array_equal(again.dist, space.dist)

    def test_lower_triangle_text(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("1.0\n2.0 1.0\n")
        space = load_metric_space(path)
        assert space.n == 3
        assert space.dist[1, 0] == 1.0
        assert space.dist[2, 0] == 2.0
        assert space.dist[2, 1] == 1.0

    def test_bad_triangle_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n")
        with pytest.raises(ExchangeError):
            load_metric_space(path)

    def test_invalid_metric_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "d": [0, -1, -1, 0]}))
        with pytest.raises(ExchangeError):
            load_metric_space(path)
