import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetric import (
    AlgebraElement,
    AlgebraShape,
    BiElement,
    FiniteMetricSpace,
    MetricCandidate,
    MetricInputError,
    SearchConfig,
    SearchOutcome,
    State,
    from_finite_metric,
    m2_admissible,
)
from qmetric import exchange
from qmetric.algebra import element_type, random_element
from qmetric.axioms import AxiomRecord, AxiomReport, ToleranceConfig, verify
from qmetric.exchange import (
    ExchangeError,
    dict_to_element,
    element_to_dict,
    load_element,
    load_metric_space,
    load_state,
    outcome_to_dict,
    save_element,
    save_metric_space,
    save_outcome,
    save_report,
    save_state,
    state_to_dict,
)
from qmetric.cli import main

import oracles
from test_construct import METRIC_FAULTS


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

    @pytest.mark.parametrize(
        "bad", [[3], "ab", [1, 2, 3], {"re": 1, "im": 2}, [0, None], [0, [1]], [[1], 0], [0, "x"]]
    )
    def test_first_bad_entry_named(self, bad):
        doc = {"shape": [2], "order": 1, "rows": 2, "cols": 2,
               "data": [[1, 0], bad, [0, 0], [1, 0]]}
        with pytest.raises(ExchangeError, match="entry 1 is not an"):
            dict_to_element(doc)

    @pytest.mark.parametrize("data", [5, None, "ab", {"re": 1}])
    def test_data_that_is_not_a_list_rejected(self, data):
        doc = {"shape": [1, 1], "order": 2, "rows": 4, "cols": 4, "data": data}
        with pytest.raises(ExchangeError, match="'data' must be a list"):
            dict_to_element(doc)

    @pytest.mark.parametrize("field", ["order", "rows", "cols", "shape"])
    @pytest.mark.parametrize("value", [2.7, "2", True, None, float("inf")])
    def test_non_integral_field_rejected(self, field, value):
        doc = {"shape": [1, 1], "order": 2, "rows": 4, "cols": 4, "data": [[0, 0]] * 16}
        doc[field] = [1, value] if field == "shape" else value
        with pytest.raises(ExchangeError, match=f"'{field}' must be an integer"):
            dict_to_element(doc)

    def test_integral_floats_accepted(self):
        doc = {"shape": [1.0, 1], "order": 2.0, "rows": 4.0, "cols": 4, "data": [[0, 0]] * 16}
        x = dict_to_element(doc)
        assert x.order == 2 and x.shape.blocks == (1, 1)

    @pytest.mark.parametrize("bad", [["1.5", 0], [0, "0"], [10**400, 0], [0, -(10**400)]])
    def test_strings_and_integers_beyond_float_range_rejected(self, bad):
        doc = {"shape": [2], "order": 1, "rows": 2, "cols": 2,
               "data": [[1, 0], bad, [0, 0], [1, 0]]}
        with pytest.raises(ExchangeError, match="entry 1 is not an"):
            dict_to_element(json.loads(json.dumps(doc)))

    def test_integer_beyond_int64_within_float_range_loads(self):
        doc = {"shape": [2], "order": 1, "rows": 2, "cols": 2,
               "data": [[2**70, 0], [0, 0], [0, 0], [1, 0]]}
        got = dict_to_element(json.loads(json.dumps(doc))).data
        assert got[0, 0] == float(2**70) and got[1, 1] == 1.0

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


def _assert_reads_like_reference(path, text):
    """load_element(path) on text gives what dict_to_element(json.loads(path.read_text())) gives.

    The element bit for bit, or an error of the same type and message.
    Text given as bytes is written as it is.
    """
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    try:
        want = dict_to_element(json.loads(path.read_text()))
    except json.JSONDecodeError as exc:
        with pytest.raises(ExchangeError, match="cannot read matrix document") as got:
            load_element(path)
        assert str(got.value).endswith(str(exc))
        return
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_element(path)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = load_element(path)
    assert type(got) is type(want) and got.shape == want.shape
    assert got._flat.tobytes() == want._flat.tobytes()
    assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64))


def _assert_cuts_agree(raw: bytes, start: int) -> None:
    """Both cuts of raw from the entry at start give the same kept indices, entry count and text."""
    at, entries, text = exchange._split(raw, start)
    want = exchange._sieve(raw, start)
    assert (at, entries, text) == (want[0].tolist(), want[1], want[2])


def _padded(text: str, body: int) -> str:
    """text with spaces after it, so that body bytes run from its first entry's `[` to its end."""
    start = text.index('"data": [[') + len('"data": [')
    assert len(text) - start <= body
    return text + " " * (body - (len(text) - start))


def _boundary_documents() -> dict:
    """Documents a little under the size selection's boundary, written ones and edits of them, by name.

    A written classical state on 12 points (144 entries) and a written
    classical rho on 3 points (81 entries), then the same edits of each:
    entries that are zero but not the zero text, inside the cells and out;
    a NaN, a part beyond the float range and one above 2**1000; a nonzero
    entry outside the cells; a zero last entry; and a `"trace": [` that
    ends the document after the list.
    """
    state = State.classical(np.arange(1.0, 13.0) / 78.0)
    points = np.array([0.0, 1.0, 2.5])
    rho = from_finite_metric(FiniteMetricSpace(np.abs(np.subtract.outer(points, points)))).rho
    docs = {}
    for kind, doc in (("state", state_to_dict(state)), ("matrix", element_to_dict(rho))):
        text = json.dumps(doc)
        head, tail = text[: text.index('"data": [') + len('"data": [')], text[text.index("]]") + 2 :]
        entries = [json.dumps(pair) for pair in doc["data"]]
        # diagonal entries are inside the cells of a classical shape, 1 and 5 outside them
        n, step = len(entries), doc["rows"] + 1

        def edited(edits: dict, after: str = tail) -> str:
            return head + ", ".join(edits.get(k, e) for k, e in enumerate(entries)) + "]" + after

        docs.update({
            f"{kind}: written": text,
            f"{kind}: signed zero": edited({1: "[-0.0, 0.0]", step: "[0.0, -0.0]"}),
            f"{kind}: integer zero": edited({2: "[0, 0]", 2 * step: "[0, 0]"}),
            f"{kind}: boolean": edited({3: "[true, 0]", step: "[true, 0]"}),
            f"{kind}: nan": edited({3 * step: "[NaN, 0.0]"}),
            f"{kind}: beyond the float range": edited({4 * step: "[1e400, 0.0]"}),
            f"{kind}: above 2**1000": edited({5 * step: "[0.0, 2e301]"}),
            f"{kind}: outside the cells": edited({5: "[0.5, 0.0]"}),
            f"{kind}: zero last entry": edited({n - 1: "[0.0, 0.0]"}),
            f"{kind}: trace list after the data": edited({}, ', "trace": ['),
        })
    return docs


def _assert_state_reads_like_reference(path, text: str) -> None:
    """load_state(path) gives what dict_to_state(json.loads(text)) gives: the densities bit for bit, or the same error."""
    try:
        want = exchange.dict_to_state(json.loads(text))
    except json.JSONDecodeError as exc:
        with pytest.raises(ExchangeError, match="cannot read state document") as got:
            load_state(path)
        assert str(got.value).endswith(str(exc))
        return
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            load_state(path)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = load_state(path)
    assert got.shape == want.shape
    assert [d.tobytes() for d in got.densities] == [d.tobytes() for d in want.densities]


# (blocks, order) pairs up to 729 x 729
_SHAPED_ORDERS = [
    ((1,), 1), ((2,), 1), ((1, 2), 1), ((3, 1), 1),
    ((2,), 2), ((1, 1), 2), ((1, 2), 2), ((1, 1, 1), 2), ((2, 2), 2),
    ((1,), 3), ((2,), 3), ((1, 1), 3), ((1, 2), 3),
]


class TestReaderErrors:
    """A document's faults are named by their dense entry, whichever reader meets them."""

    @staticmethod
    def _document(tmp_path, edits: dict):
        # a (2, 1) candidate: its 9 x 9 matrix has 41 entries inside the cells
        doc = element_to_dict(random_element((2, 1), 2, np.random.default_rng(4)))
        off = np.flatnonzero(~oracles.support_mask((2, 1), 2))
        for k, pair in edits.items():
            doc["data"][int(off[k]) if k >= 0 else -k] = pair
        path = tmp_path / "x.json"
        path.write_text(json.dumps(doc))
        return path, doc

    @pytest.mark.parametrize(
        "edits, message",
        [
            # three entries outside the cells; the largest is named
            ({0: [1e-3, 0.0], 7: [0.0, -2.5e-2], 20: [3e-4, 4e-4]}, "entries outside the order-2 block pattern must be exactly zero (largest offender 2.500e-02)"),
            # a signed zero outside the cells is a zero
            ({3: [-0.0, -0.0], 9: [0.0, 5e-3]}, "entries outside the order-2 block pattern must be exactly zero (largest offender 5.000e-03)"),
            # a NaN outside the cells and one inside count alike
            ({5: [float("nan"), 0.0], -4: [1.0, float("nan")]}, "matrix data must be finite; found 2 NaN or infinite entries"),
            # the first part above the bound in row-major order is named, inside the cells (entry 1) or not (entry 2)
            ({-30: [0.0, 3e301], -1: [2e301, 0.0]}, "entry 1 has magnitude 2e+301; finite values above 2**1000 (about 1.07e301) are rejected"),
            ({0: [0.0, 4e301], -30: [2e301, 0.0]}, "entry 2 has magnitude 4e+301; finite values above 2**1000 (about 1.07e301) are rejected"),
        ],
    )
    def test_faults_are_named_as_on_the_dense_matrix(self, tmp_path, edits, message):
        path, doc = self._document(tmp_path, edits)
        for read in (lambda: load_element(path), lambda: dict_to_element(doc)):
            with pytest.raises(ExchangeError) as err:
                read()
            assert str(err.value) == message

    def test_signed_zeros_outside_the_cells_are_dropped(self, tmp_path):
        path, doc = self._document(tmp_path, {k: [-0.0, -0.0] for k in range(40)})
        got, want = load_element(path), dict_to_element(doc)
        assert got._flat.tobytes() == want._flat.tobytes()
        assert not np.signbit(got.data.real[~oracles.support_mask((2, 1), 2)]).any()


class TestZeroPairReader:
    """Loading finds each exact-zero entry by a scan of the bytes and agrees with the reference path."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from(_SHAPED_ORDERS),
        st.sampled_from(["zeros", "tiny", "mixed"]),
    )
    def test_written_documents_load_like_the_reference(self, tmp_path_factory, seed, shaped, fill):
        blocks, order = shaped
        rng = np.random.default_rng(seed)
        data = np.array(random_element(blocks, order, rng).data)
        support = data != 0
        # exact zeros inside the support, entries that clip to zero, and signed zeros
        if fill in ("zeros", "mixed"):
            data[support & (rng.random(data.shape) < 0.5)] = 0.0
        if fill in ("tiny", "mixed"):
            tiny = support & (rng.random(data.shape) < 0.3)
            data[tiny] = complex(-3e-15, 0.0) * rng.choice([1.0, -1.0, 1j, -1j], size=data.shape)[tiny]
            data[support & (rng.random(data.shape) < 0.1)] = complex(1.5, -0.0)
        x = element_type(order)(blocks, data)
        path = tmp_path_factory.mktemp("zero-pairs") / "x.json"
        save_element(x, path)
        written = path.read_text()
        assert written == json.dumps(element_to_dict(x))
        _assert_reads_like_reference(path, written)
        _assert_reads_like_reference(path, json.dumps(element_to_dict(x), separators=(",", ":")))
        _assert_reads_like_reference(path, json.dumps(element_to_dict(x), indent=1))

    @pytest.mark.parametrize(
        "text",
        [
            # a null entry of its own
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], null, [0.0, 0.0], [0.0, 0.0]]}',
            # the pair inside a string value and inside a key
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "note": "[0.0, 0.0]", "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "[0.0, 0.0]": 1, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], "[0.0, 0.0]", [0.0, 0.0], [0.0, 0.0]]}',
            # an escaped backslash before the pair, and a backslash that escapes nothing valid
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "note": "\\\\[0.0, 0.0]", "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "note": "\\[0.0, 0.0]", "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # an extra key whose value is the pair
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "extra": [0.0, 0.0], "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # the pair nested in an entry
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [[0.0, 0.0], 5], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [5, [0.0, 0.0]], [0.0, 0.0], [0.0, 0.0]]}',
            # duplicate data keys: the last one counts
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "data": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "data": 7}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": 7, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # integer, boolean, signed-zero and NaN entries
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[true, false], [false, false], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[-0.0, 0.0], [0.0, -0.0], [0.0, 0.0], [-0.0, -0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1e400, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[100000000000000000000000, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # the pair as the whole data value, as a field read as an integer, as the whole document
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [0.0, 0.0]}',
            '{"shape": [1], "order": 1, "rows": 1, "cols": 1, "data": [0.0, 0.0]}',
            '{"shape": [0.0, 0.0], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [[0.0, 0.0]], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": [0.0, 0.0], "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '[0.0, 0.0]',
            # every entry zero, a wrong entry count, an entry off the support, and spacing the writer never uses
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [1, 1], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape":[2],"order":1,"rows":2,"cols":2,"data":[[1.0,0.0],[0.0,0.0],[ 0.0, 0.0],[0.0 ,0.0]]}',
            # a backslash inside a string field away from any pair, and infinities
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "note": "a\\tb", "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "note": "\\u006eull", "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[Infinity, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, -Infinity]]}',
            # finite parts beyond 2**1000, after a zero pair and next to an infinity; 2**1000 itself
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[0.0, 0.0], [0.0, -3e303], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[Infinity, 0.0], [0.0, 0.0], [0.0, 0.0], [2e301, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0715086071862673e301, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # a null and a true entry next to the pairs
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], null, [0.0, 0.0], true]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], true]}',
            # no valid algebra shape: zero blocks, and no blocks at all
            '{"shape": [0, 0], "order": 1, "rows": 0, "cols": 0, "data": []}',
            '{"shape": [], "order": 1, "rows": 0, "cols": 0, "data": []}',
            # a UTF-8 BOM, which json.loads(bytes) would strip and json.loads(str) refuses
            b'\xef\xbb\xbf{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # UTF-16 with and without its BOM, CRLF-indented JSON, a non-ASCII byte in a string field
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}'.encode("utf-16"),
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}'.encode("utf-16-le"),
            json.dumps(
                {"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]},
                indent=2,
            ).replace("\n", "\r\n").encode(),
            # a carriage return inside a key, which read_text turns into a newline
            b'{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "\r": 1}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "note": "\u00e9", "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}'.encode(),
            b'{"shape": [2], "order": 1, "rows": 2, "cols": 2, "note": "\xff", "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # a space before the first entry
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [ [1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            # a zero pair opening a nested entry
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [[0.0, 0.0], [5.0, 6.0]], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [1], "order": 1, "rows": 1, "cols": 1, "data": [[[0.0, 0.0], [5.0, 6.0]]]}',
            # a zero pair with other bytes before the next entry, and a pair that starts like one
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0]x, [0.0, 0.0], [2.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0],[0.0, 0.0], [3.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0], [2.0, 0.0]]}',
            # a field after data that holds `]`, one that holds brackets, one that holds a second "data" key
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "note": "]"}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "note": [[0.0, 0.0], [1]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "note": {"data": [[0.0, 0.0], [2.0, 0.0]]}}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "note": "[0.0, 0.0], ["}',
            # too few entries, with a field after them whose brackets make up the count
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0]], "note": [[0.0, 0.0], [5]]}',
            # too few entries, and a second "data" list laid out as writers lay it out, in a
            # field after them or, behind an escaped key, the only one
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data":[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], "note": {"data": [[0.0, 0.0], [6.0, 0.0], [7.0, 0.0], [8.0, 0.0]]}}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "d\\u0061ta": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], "note": {"data": [[0.0, 0.0], [6.0, 0.0], [7.0, 0.0], [8.0, 0.0]]}}',
            # the data list nested one level down, and a document that ends before its closing brace
            '{"x": {"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]',
            # zero pairs as the last entries, the file ending within 13 bytes of a `[`
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]}',
            '{"shape": [1], "order": 1, "rows": 1, "cols": 1, "data": [[0.0, 0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]} ',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0,0.0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0]]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], []]}',
            # cut short: within 13 bytes of a zero pair's `[`, right after a whole `[0.0, 0.0], [`, and inside it
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], ',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0',
            '{"shape": [1], "order": 1, "rows": 1, "cols": 1, "data": [[',
            # the same with a "trace" field after the list, as a state document has
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "trace": 1.0}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "trace": 1.0}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "trace": [0.0, 0.0]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "trace": [0.0, 0.0]}',
            '{"shape": [2], "order": 1, "rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "trace": [',
        ],
    )
    def test_hostile_documents_load_like_the_reference(self, tmp_path, text):
        _assert_reads_like_reference(tmp_path / "x.json", text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["[0.0, 0.0], ", "[0.0, 0.0]", "[1.0, 0.0], ", "[", "]", "]}", ", ", "0.0", " ", '"trace": 1.0']),
            max_size=12,
        )
    )
    def test_entries_read_as_on_a_padded_copy(self, parts):
        # the bytes of any document the scan meets: a first entry, then any run of fragments
        raw = ('{"shape": [1], "data": [' + "".join(parts)).encode()
        start = raw.find(b'"data": [') + len('"data": [') - 1
        opens, zero = exchange._entries(raw, start)
        # the reading of raw padded with zero bytes, in which every word lies
        padded = raw + bytes(13)
        want = [k for k in range(start, len(raw)) if raw[k] == ord("[")]
        assert opens.tolist() == want
        assert zero.tolist() == [padded[k : k + 13] == b"[0.0, 0.0], [" for k in want]

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(["[0.0, 0.0], ", "[0.0, 0.0]", "[1.0, 0.0], ", "[", "]", "]}", ", ", "0.0", " ", '"trace": 1.0']),
            max_size=12,
        )
    )
    def test_both_cuts_agree(self, parts):
        raw = ('{"shape": [1], "data": [' + "".join(parts)).encode()
        _assert_cuts_agree(raw, raw.find(b'"data": [') + len('"data": [') - 1)

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2000])
    @pytest.mark.parametrize("name", list(_boundary_documents()))
    def test_documents_at_the_size_boundary_load_like_the_reference(self, tmp_path, name, offset):
        # below, at and above the longest body `_split` cuts, and far above it
        text = _padded(_boundary_documents()[name], exchange._SPLIT_BYTES + offset)
        raw = text.encode()
        start = raw.index(b'"data": [[') + len('"data": [')
        assert len(raw) - start == exchange._SPLIT_BYTES + offset
        _assert_cuts_agree(raw, start)
        _assert_reads_like_reference(tmp_path / "x.json", text)
        if name.startswith("state"):
            _assert_state_reads_like_reference(tmp_path / "x.json", text)

    @pytest.mark.parametrize("shape", [[0, 0], [], [2, -1]])
    def test_invalid_shape_is_an_exchange_error(self, tmp_path, shape):
        doc = {"shape": shape, "order": 1, "rows": 0, "cols": 0, "data": []}
        (tmp_path / "x.json").write_text(json.dumps(doc))
        for read in (lambda: dict_to_element(doc), lambda: load_element(tmp_path / "x.json")):
            with pytest.raises(ExchangeError, match="block"):
                read()

    def test_written_documents_take_the_fast_path(self, tmp_path, monkeypatch):
        # a writer whose zeros stop matching the scan's pattern would lose the gain silently
        x = random_element((1, 2), 2, np.random.default_rng(3))
        s = State(AlgebraShape((1, 2)), (np.array([[0.5]]), np.diag([0.25, 0.25])))
        # a classical n=8 rho, 4096 entries: on the large side of the size selection
        points = np.cumsum(np.linspace(1.0, 2.0, 8))
        rho = from_finite_metric(FiniteMetricSpace(np.abs(np.subtract.outer(points, points)))).rho
        save_element(x, tmp_path / "x.json")
        save_state(s, tmp_path / "s.json")
        save_element(rho, tmp_path / "rho.json")
        fast = []

        def spy(name):
            cut = getattr(exchange, name)

            def spied(raw, start):
                at, entries, text = cut(raw, start)
                fast.append((name, entries - len(at)))
                return at, entries, text

            return spied

        def refuse(raw):
            raise AssertionError("the reference path was taken")

        for name in ("_split", "_sieve"):
            monkeypatch.setattr(exchange, name, spy(name))
        # only the reference path decodes the text; both paths convert through dict_to_element
        monkeypatch.setattr(exchange, "_text", refuse)
        assert np.array_equal(load_element(tmp_path / "x.json").data, x.data)
        assert np.array_equal(load_state(tmp_path / "s.json").densities[1], s.densities[1])
        assert load_element(tmp_path / "rho.json")._flat.tobytes() == rho._flat.tobytes()
        # the number of exact-zero entries each cut cut out: all but the last entry, which is always kept
        zeros = [np.count_nonzero(a.ravel()[:-1] == 0) for a in (x.data, s.as_element().data, rho.data)]
        assert zeros[1] == 6 and zeros[2] == 4096 - 57
        assert fast == [("_split", zeros[0]), ("_split", zeros[1]), ("_sieve", zeros[2])]

    @pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1, 1), (2, 1), (3,)])
    def test_state_documents_match_the_reference_writer(self, tmp_path, blocks):
        rng = np.random.default_rng(sum(blocks))
        densities = []
        for n in blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            densities.append(g @ g.conj().T)
        densities[0][0, -1] += 4e-15j
        densities[0][-1, 0] -= 4e-15j
        total = sum(np.trace(w).real for w in densities)
        s = State(AlgebraShape(blocks), tuple(w / total for w in densities))
        path = tmp_path / "s.json"
        save_state(s, path)
        assert path.read_text() == json.dumps(exchange.state_to_dict(s))
        t = load_state(path)
        ref = exchange.dict_to_state(json.loads(path.read_text()))
        for a, b in zip(t.densities, ref.densities):
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# floats the report writer must format as json.dumps does: signed zeros, the
# smallest normal and subnormal magnitudes, the largest finite ones, and any
_WITNESS_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-300, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -7e-17]),
    st.floats(),
)
_TOLERANCES = st.one_of(st.integers(0, 3), st.floats(0.0, 1e300))


@st.composite
def _witnesses(draw):
    pairs = draw(st.lists(st.tuples(_WITNESS_FLOATS, _WITNESS_FLOATS), max_size=12))
    w = np.array([complex(re, im) for re, im in pairs], dtype=complex)
    cols = draw(st.sampled_from([None, 1, 2, 3]))
    if cols is not None and len(pairs) % cols == 0:
        w = w.reshape(-1, cols)
    return w


_RECORDS = st.builds(
    AxiomRecord,
    axiom=st.sampled_from(["i", "ii", "iii", "iv", "v", "ii_alg", "iii_alg"]),
    passed=st.booleans(),
    margin=st.one_of(st.just(float("nan")), st.floats()),
    witness=st.one_of(st.none(), _witnesses()),
    indeterminate=st.booleans(),
    # quotes, backslashes, control and non-ASCII characters
    note=st.one_of(st.sampled_from(["", 'say "no"', "a\\b\n\t", "naïve ☃ 𝔸"]), st.text()),
)

_REPORTS = st.builds(
    AxiomReport,
    mode=st.sampled_from(["representation", "algebraic"]),
    shape=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(lambda b: AlgebraShape(tuple(b))),
    records=st.lists(_RECORDS, max_size=5).map(tuple),
    config=st.builds(
        ToleranceConfig,
        eq_tol=_TOLERANCES,
        psd_tol=_TOLERANCES,
        strict_floor=st.one_of(st.none(), st.floats(1e-300, 1e300)),
        sample_count=st.integers(1, 64),
        seed=st.integers(0, 2**63),
    ),
)

# the witnesses the entrywise writer was first checked on
_FIXED_REPORT = AxiomReport(
    "representation",
    AlgebraShape((2,)),
    tuple(
        AxiomRecord(tag, False, -1.0, witness=w)
        for tag, w in zip(
            ("i", "iii", "v"),
            [
                np.array([-0.0, 1.5 - 0.0j, complex(-0.0, -2.25), 1e-300 + 3j, -7e-17j]),
                np.array([[-0.0, 2.0], [0.5, -1.0]]),
                np.array([1, -2]),
            ],
        )
    ),
    ToleranceConfig(),
)

# reports of verify itself, whose witnesses are eigenvector and singular-vector columns
_RANDOM_RHO = random_element((2, 1), 2, np.random.default_rng(7), hermitian=True)

# the splice's edge cases: an empty witness is written `[]`, and a note holding
# the text `"witness": null` is escaped in the JSON text, so no witness lands in it
_SPLICE_REPORT = AxiomReport(
    "algebraic",
    AlgebraShape((1, 1)),
    (
        AxiomRecord("i", False, -1.0, witness=np.array([], dtype=complex)),
        AxiomRecord("ii", True, 0.5, note='"witness": null'),
        AxiomRecord("iii", False, -2.0, witness=np.array([0.0, -0.0, 1.5j]), note='{"witness": null}'),
        AxiomRecord("v", False, -3.0, witness=np.zeros((0, 2), dtype=complex)),
    ),
    ToleranceConfig(),
)


class TestReportDocument:
    @settings(max_examples=200, deadline=None)
    @given(_REPORTS)
    @example(_FIXED_REPORT)
    @example(verify(_RANDOM_RHO))
    @example(verify(_RANDOM_RHO, mode="algebraic"))
    @example(verify(BiElement.zeros((2, 2)), mode="algebraic"))
    @example(_SPLICE_REPORT)
    def test_witness_pairs_match_entrywise_writer(self, tmp_path_factory, report):
        path = tmp_path_factory.mktemp("report") / "report.json"
        save_report(report, path)
        expected = report.to_dict()
        for rec, out in zip(report.records, expected["records"]):
            if rec.witness is not None:
                out["witness"] = oracles.complex_pairs(rec.witness)
        text = path.read_text()
        _assert_same_text(text, json.dumps(report.to_dict(), indent=2))
        _assert_same_text(text, json.dumps(expected, indent=2))


class TestToleranceTexts:
    """A report's tolerance texts are formatted once per config value, and never taken from an equal one."""

    # in this order each config follows one that equals it but is written otherwise
    _CONFIGS = [
        {"eq_tol": 0.0},
        {"eq_tol": -0.0},
        {"eq_tol": 0},
        {"eq_tol": False},
        {"eq_tol": 0.0},
        {"psd_tol": 1.0},
        {"psd_tol": 1},
        {"psd_tol": True},
        {"strict_floor": 2.0},
        {"strict_floor": 2},
        {"seed": 0.0},
        {"seed": -0.0},
        {"seed": 0},
        {"seed": [1, -0.0]},
        {"seed": 2**70},
        {"sample_count": 3.0},
        {"sample_count": 3},
    ]

    def test_each_config_is_written_as_its_own_fields(self):
        rho = BiElement.zeros((1, 1))
        for kwargs in self._CONFIGS * 2:
            cfg = ToleranceConfig(**kwargs)
            assert exchange._config_node(cfg) == exchange._node(cfg.to_dict())
            report = verify(rho, cfg)
            text = exchange._layouts(exchange._report_node(report), None)[0]
            _assert_same_text(text, json.dumps(oracles.report_doc(report)))

    def test_a_negative_zero_tolerance_is_printed_after_a_plain_one(self, tmp_path, capsys):
        save_element(from_finite_metric(FiniteMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))).rho, tmp_path / "r.json")
        for flag in ("0.0", "-0.0", "0.0"):
            main(["verify", str(tmp_path / "r.json"), "--eq-tol", flag, "--json"])
            assert json.dumps({"eq_tol": float(flag)})[1:-1] in capsys.readouterr().out


class TestByteReader:
    """Documents are read with os calls, to the bytes and errors open(path, "rb").read() gives."""

    @staticmethod
    def _outcome(read, path):
        try:
            return read(path)
        except Exception as exc:  # noqa: BLE001 - the error itself is compared
            return type(exc), str(exc), getattr(exc, "filename", None)

    def test_reads_and_errors_are_those_of_open(self, tmp_path):
        def reference(path):
            with open(path, "rb") as f:
                return f.read()

        (tmp_path / "empty.json").write_bytes(b"")
        (tmp_path / "big.json").write_bytes(bytes(range(256)) * 1000)
        (tmp_path / "dir").mkdir()
        for name in ["empty.json", "big.json", "dir", "missing.json", "big.json/x"]:
            for path in (str(tmp_path / name), tmp_path / name, os.fsencode(str(tmp_path / name))):
                assert self._outcome(exchange._read, path) == self._outcome(reference, path)
        # a NUL byte in a str path; in a bytes path os.open words the ValueError its own way
        for path in (str(tmp_path / "a\0b"), tmp_path / "a\0b"):
            assert self._outcome(exchange._read, path) == self._outcome(reference, path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_file_of_no_stated_size_is_read_to_its_end(self):
        text = json.dumps(element_to_dict(random_element((2, 1), 2, np.random.default_rng(2)))).encode()
        read_end, write_end = os.pipe()
        try:
            with os.fdopen(write_end, "wb") as f:
                f.write(text)
            assert exchange._read(f"/dev/fd/{read_end}") == text
        finally:
            os.close(read_end)

    def test_unreadable_documents_name_the_path(self, tmp_path):
        (tmp_path / "dir").mkdir()
        for name in ("dir", "missing.json"):
            path = tmp_path / name
            with pytest.raises(ExchangeError) as err:
                load_element(path)
            assert str(err.value) == f"cannot read matrix document {path}: {self._outcome(open, path)[1]}"
            with pytest.raises(ExchangeError) as err:
                load_state(str(path))
            assert str(err.value) == f"cannot read state document {path}: {self._outcome(open, path)[1]}"


class TestStateDocumentErrors:
    """A state document's faults are named by the first failing block in block order, as State names them."""

    @staticmethod
    def _document(tmp_path, blocks, densities):
        # the document of the block diagonal element, whose constructor does not check a state
        dense = np.zeros((sum(blocks), sum(blocks)), dtype=complex)
        at = np.cumsum((0,) + blocks)
        for a, b, dens in zip(at, at[1:], densities):
            dense[a:b, a:b] = dens
        path = tmp_path / "s.json"
        path.write_text(json.dumps({**element_to_dict(AlgebraElement(blocks, dense)), "trace": 1.0}))
        return path

    @pytest.mark.parametrize(
        "blocks, densities, message",
        [
            # cells come grouped by size, (2, 1)'s 1x1 block first; block 0 still names the error
            ((2, 1), [[[0.5, 0.1], [0.3, 0.5]], [[-0.5]]], "block densities must be self-adjoint"),
            ((2, 1), [[[1.5, 0.0], [0.0, -0.5]], [[1e-8j]]], "block densities must be positive semidefinite"),
            ((1, 2), [[[-0.1]], [[0.5, 1.0], [0.0, 0.5]]], "block densities must be positive semidefinite"),
            ((1, 2), [[[0.5 + 1e-8j]], [[0.25, 0.0], [0.0, -0.25]]], "block densities must be self-adjoint"),
            # 1x1 blocks alone, a block both non-self-adjoint and not PSD, and one past a PSD failure
            ((1, 1, 1), [[[0.5]], [[-1e-8]], [[0.5 + 1e-8j]]], "block densities must be positive semidefinite"),
            ((1, 1, 1), [[[0.5]], [[-1e-8 + 1e-8j]], [[-1.0]]], "block densities must be self-adjoint"),
            # a 1x1 block's self-adjointness is relative to its size above 1
            ((1,), [[[3.0 + 1.2e-9j]]], "total trace must be 1, got 3.0"),
            ((1,), [[[3.0 - 1.6e-9j]]], "block densities must be self-adjoint"),
            ((1, 1), [[[0.4]], [[0.5]]], "total trace must be 1, got 0.9"),
            ((2, 1), [[[0.4, 0.1j], [-0.1j, 0.4]], [[0.3]]], "total trace must be 1, got 1.1"),
        ],
    )
    def test_each_fault_is_named(self, tmp_path, blocks, densities, message):
        densities = [np.array(d, dtype=complex) for d in densities]
        path = self._document(tmp_path, blocks, densities)
        with pytest.raises(ExchangeError) as err:
            load_state(path)
        assert str(err.value) == message
        with pytest.raises(ExchangeError) as err:
            exchange.dict_to_state(json.loads(path.read_text()))
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            State(AlgebraShape(blocks), tuple(densities))
        assert str(err.value) == message


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

    @pytest.mark.parametrize("n", [2.7, True, "2", None, -2, 0])
    def test_point_count_must_be_a_positive_integer(self, tmp_path, n):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": n, "d": [0, 1, 1, 0]}))
        with pytest.raises(ExchangeError, match="field 'n' must be"):
            load_metric_space(path)

    @pytest.mark.parametrize("bad", ["1", 10**400, None, [1]], ids=["string", "huge", "null", "list"])
    def test_distance_that_is_not_a_float_rejected(self, tmp_path, bad):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": 2, "d": [0, bad, 1, 0]}))
        with pytest.raises(ExchangeError, match="distance 1 is not a number"):
            load_metric_space(path)

    def test_booleans_and_large_integers_load(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": 2.0, "d": [False, True, True, False]}))
        assert np.array_equal(load_metric_space(path).dist, [[0.0, 1.0], [1.0, 0.0]])
        path.write_text(json.dumps({"n": 2, "d": [0, 2**70, 2**70, 0]}))
        assert load_metric_space(path).dist[0, 1] == float(2**70)

    @pytest.mark.parametrize(
        "d",
        [
            [0, 1, 1, 0],
            [False, True, True, False],
            [0.0, True, 1, 0],
            [0, 2**53 + 1, 2**53 + 1, 0],
            [0, 2**63 + 3, 2**63 + 3, 0],
            [0, 2**64 - 1, 2**64 - 1, 0],
            [0, 10**400, 10**400, 0],
            [0.5, 10**400, 1, 0],
            [0, [1], 1, 0],
            [[0, 1], [1, 0]],
            [0, "1", 1, 0],
            [0, None, 1, 0],
            [0, {}, 1, 0],
            [0, 1, 1],
            [],
            "0110",
        ],
    )
    def test_one_array_call_reads_like_the_entry_loop(self, tmp_path, monkeypatch, d):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": 2, "d": d}))

        def load():
            try:
                return load_metric_space(path).dist.tobytes()
            except ExchangeError as exc:
                return str(exc)

        got = load()
        monkeypatch.setattr(exchange, "_floats", lambda values, shape: None)
        assert got == load()

    def test_written_spaces_take_one_array_call(self, tmp_path, monkeypatch):
        space = FiniteMetricSpace(np.array([[0.0, 1.5, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]]))
        save_metric_space(space, tmp_path / "s.json")

        def refuse(value):
            raise AssertionError("the entry loop was taken")

        monkeypatch.setattr(exchange, "_real", refuse)
        assert np.array_equal(load_metric_space(tmp_path / "s.json").dist, space.dist)

    def test_lower_triangle_text(self, tmp_path):
        path = tmp_path / "space.txt"
        path.write_text("1.0\n2.0 1.0\n")
        space = load_metric_space(path)
        assert space.n == 3
        assert space.dist[1, 0] == 1.0
        assert space.dist[2, 0] == 2.0
        assert space.dist[2, 1] == 1.0

    @pytest.mark.parametrize("raw", [b"1.0\r\n2.0 1.0\r\n", b"1.0\r2.0 1.0\r"], ids=["crlf", "cr"])
    def test_line_ends_read_as_in_text_mode(self, tmp_path, raw):
        (tmp_path / "lf.txt").write_text("1.0\n2.0 1.0\n")
        (tmp_path / "s.txt").write_bytes(raw)
        assert np.array_equal(load_metric_space(tmp_path / "s.txt").dist, load_metric_space(tmp_path / "lf.txt").dist)

    def test_bom_and_utf16_fail_as_a_text_mode_read_does(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b'\xef\xbb\xbf{"n": 1, "d": [0]}')
        with pytest.raises(ExchangeError, match="Unexpected UTF-8 BOM"):
            load_metric_space(path)
        path.write_bytes('{"n": 1, "d": [0]}'.encode("utf-16"))
        with pytest.raises(UnicodeDecodeError) as want:
            path.read_text()
        with pytest.raises(UnicodeDecodeError) as got:
            load_metric_space(path)
        assert str(got.value) == str(want.value)

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

    @pytest.mark.parametrize("d, message", METRIC_FAULTS)
    def test_metric_faults_are_named_as_the_space_names_them(self, tmp_path, d, message):
        d = np.array(d)
        with pytest.raises(MetricInputError, match=f"^{re.escape(message)}$"):
            FiniteMetricSpace(d)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": len(d), "d": d.ravel().tolist()}))
        with pytest.raises(ExchangeError) as err:
            load_metric_space(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("self_distance", [1e-13, -1e-13])
    def test_self_distances_within_tolerance_load(self, tmp_path, self_distance):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n": 2, "d": [0.0, 1.0, 1.0, self_distance]}))
        assert load_metric_space(path).dist[1, 1] == self_distance

    @pytest.mark.parametrize("name", ["s.json", "s.JSON", "..json", ".json", "s.txt", "json"])
    def test_json_is_told_by_the_text_then_by_the_suffix(self, tmp_path, name):
        # a `.json` name reads as JSON even when its text does not start with `{`;
        # a name that is all suffix, `.json`, has none, as pathlib tells it
        path = tmp_path / name
        path.write_text("1.0\n")
        try:
            got = load_metric_space(str(path)).dist.tolist()
        except ExchangeError as exc:
            got = str(exc)
        suffix = Path(name).suffix.lower() == ".json"
        assert got == ("malformed metric-space document: 'float' object is not subscriptable" if suffix else [[0.0, 1.0], [1.0, 0.0]])
        path.write_text(' {"n": 2, "d": [0, 1, 1, 0]}')
        assert load_metric_space(path).dist.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_a_path_that_is_not_a_string_is_read_as_a_path(self, tmp_path):
        save_metric_space(FiniteMetricSpace(np.array([[0.0, 2.0], [2.0, 0.0]])), tmp_path / "s.json")
        assert load_metric_space(tmp_path / "s.json").dist[0, 1] == 2.0
        with pytest.raises(TypeError):
            load_metric_space(os.fsencode(tmp_path / "s.json"))


_HISTORY_FLOATS = st.one_of(st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]), st.floats())

_CANDIDATES = st.sampled_from(
    [
        None,
        MetricCandidate(_RANDOM_RHO),
        MetricCandidate(_RANDOM_RHO, verify(_RANDOM_RHO)),
        from_finite_metric(FiniteMetricSpace(np.ones((3, 3)) - np.eye(3))),
    ]
)


@st.composite
def _outcomes(draw):
    """Search outcomes, found or not, with histories of up to 2500 rows (over 1000 are downsampled)."""
    rows = draw(st.sampled_from([0, 1, 7, 1000, 1001, 2500]))
    values = draw(st.lists(_HISTORY_FLOATS, min_size=1, max_size=9))
    candidate = draw(_CANDIDATES)
    config = SearchConfig(
        shape=draw(st.sampled_from([(2,), (2, 1), (1, 1, 1)])),
        floor=draw(st.floats(1e-300, 1e300)),
        trace_target=draw(st.one_of(st.none(), st.floats(1e-300, 1e300))),
        max_iter=draw(st.integers(1, 10**6)),
        restarts=draw(st.integers(1, 64)),
        seed=draw(st.integers(0, 2**63)),
        include_triangle=draw(st.booleans()),
        normalization=draw(st.sampled_from(["trace", "opnorm"])),
    )
    return SearchOutcome(
        status=draw(st.sampled_from(["candidate_found", "no_convergence"])),
        candidate=candidate,
        residual_history=np.resize(np.array(values), (rows, 3)),
        best_residual=draw(_HISTORY_FLOATS),
        seed_used=draw(st.integers(0, 63)),
        iterations_run=draw(st.integers(0, 10**6)),
        restarts_run=draw(st.integers(1, 64)),
        mode=draw(st.sampled_from(["representation", "algebraic"])),
        config=config,
    )


def _outcome(candidate, rows: int) -> SearchOutcome:
    """An outcome whose history rows all differ, so a wrong downsampling pick shows."""
    history = np.arange(3 * rows, dtype=float).reshape(rows, 3)
    return SearchOutcome(
        "no_convergence", candidate, history, 0.5, 0, rows, 1, "representation", SearchConfig((2,)),
    )


_BIG_RHO = from_finite_metric(FiniteMetricSpace(np.ones((4, 4)) - np.eye(4)))


def _assert_same_text(got: str, want: str) -> None:
    """got == want, failing at the first line that differs.

    pytest reports a failed == of two texts with a difflib diff, which takes
    minutes on a 5000-line outcome document and reruns on every shrink step.
    """
    if got == want:
        return
    got_lines, want_lines = got.split("\n"), want.split("\n")
    for number, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        if a != b:
            col = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lo = max(0, col - 40)
            raise AssertionError(f"line {number}, column {col + 1}: {a[lo:col + 40]!r} != {b[lo:col + 40]!r}")
    raise AssertionError(f"{len(got_lines)} lines != {len(want_lines)} lines")


class TestOutcomeDocument:
    @settings(max_examples=60, deadline=None)
    @given(_outcomes())
    def test_written_text_is_json_dumps(self, tmp_path_factory, outcome):
        path = tmp_path_factory.mktemp("outcome") / "outcome.json"
        save_outcome(outcome, path)
        _assert_same_text(path.read_text(), json.dumps(outcome_to_dict(outcome), indent=2))


# the parts of the [re, im] pairs and rows below: signed zeros, non-finite values, and repr's two notations
_PARTS = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 3e16, float("inf"), float("-inf"), float("nan")])


@st.composite
def _pairs_nodes(draw):
    """A `_Pairs` and its plain value: empty, all zero, or with entries kept, signed zeros and explicit zeros among them."""
    size = draw(st.integers(0, 6))
    at = sorted(draw(st.sets(st.integers(0, size - 1)))) if size else []
    kept = [[draw(_PARTS), draw(_PARTS)] for _ in at]
    value = [[0.0, 0.0] for _ in range(size)]
    for k, pair in zip(at, kept):
        value[k] = pair
    return exchange._Pairs(size, at, [", ".join(map(exchange._scalar, pair)) for pair in kept]), value


def _rows_node(rows):
    return exchange._Rows([", ".join(map(exchange._scalar, row)) for row in rows]), rows


_SCALAR_NODES = st.one_of(
    st.floats(), st.integers(-(2**70), 2**70), st.booleans(), st.none(), st.text(max_size=4)
).map(lambda v: (exchange._node(v), v))
_LAYOUT_NODES = st.recursive(
    st.one_of(_SCALAR_NODES, _pairs_nodes(), st.lists(st.lists(_PARTS, min_size=1, max_size=3), max_size=3).map(_rows_node)),
    lambda items: st.one_of(
        st.lists(items, max_size=4).map(lambda xs: ([n for n, _ in xs], [v for _, v in xs])),
        st.dictionaries(st.text(max_size=4), items, max_size=4).map(
            lambda d: ({k: n for k, (n, _) in d.items()}, {k: v for k, (_, v) in d.items()})
        ),
    ),
    max_leaves=12,
)


class TestLayoutEngine:
    """Each layout of field texts, one at a time or both from one walk, is json.dumps of the plain value."""

    @staticmethod
    def _check(node, value):
        indented, compact = json.dumps(value, indent=2), json.dumps(value)
        assert exchange._layout(node, 2) == indented
        assert exchange._layout(node, None) == compact
        assert exchange._layouts(node, 2, None) == [indented, compact]
        assert exchange._layouts(node, None, 2) == [compact, indented]

    @settings(max_examples=400, deadline=None)
    @given(_LAYOUT_NODES)
    def test_layouts_are_json_dumps(self, doc):
        self._check(*doc)

    @settings(max_examples=200, deadline=None)
    @given(_pairs_nodes(), st.lists(st.one_of(st.none(), st.text(max_size=3)), max_size=3))
    def test_pairs_at_depths_0_to_3(self, pairs, wraps):
        """A `_Pairs` wrapped in up to three lists (None) or one-key dicts, so laid out at depth 0 to 3."""
        node, value = pairs
        for key in wraps:
            node, value = ([node], [value]) if key is None else ({key: node}, {key: value})
        self._check(node, value)

    def test_templates_are_compiled_once_per_skeleton_and_indent(self):
        exchange._template.cache_clear()
        for k in range(3):
            node = {"a": [exchange._node(float(k)), exchange._Pairs(k + 1, [k], ["1.0, -0.0"])], "b%s": "null"}
            exchange._layouts(node, 2, None)
        info = exchange._template.cache_info()
        assert (info.misses, info.hits) == (2, 4)


class TestOracleDocuments:
    """Every writer's text, and every to_dict, is json.dumps of the entry-by-entry documents of tests/oracles.py."""

    @settings(max_examples=100, deadline=None)
    @given(_REPORTS)
    @example(_FIXED_REPORT)
    @example(verify(_RANDOM_RHO))
    @example(verify(_RANDOM_RHO, mode="algebraic"))
    @example(verify(BiElement.zeros((2, 2)), mode="algebraic"))
    @example(_SPLICE_REPORT)
    def test_report(self, tmp_path_factory, report):
        path = tmp_path_factory.mktemp("report") / "report.json"
        save_report(report, path)
        want = oracles.report_doc(report)
        _assert_same_text(path.read_text(), json.dumps(want, indent=2))
        _assert_same_text(json.dumps(report.to_dict()), json.dumps(want))
        # the compact layout of the verify --json payload splices the same witnesses
        _assert_same_text(exchange._layout(exchange._report_node(report), None), json.dumps(want))
        for rec, doc in zip(report.records, want["records"], strict=True):
            _assert_same_text(json.dumps(rec.to_dict()), json.dumps(doc))

    @pytest.mark.parametrize("blocks,order", _SHAPED_ORDERS)
    def test_element(self, tmp_path, blocks, order):
        rng = np.random.default_rng(len(blocks) + 10 * order)
        data = np.array(random_element(blocks, order, rng).data)
        support = np.flatnonzero(data)
        # entries that clip to zero, signed zeros and exact zeros inside the cells
        data.flat[support[::3]] = complex(-3e-15, 4e-15)
        data.flat[support[1::5]] = complex(-0.0, -0.0)
        data.flat[support[2::7]] = complex(1.5, -9e-15)
        x = element_type(order)(blocks, data)
        save_element(x, tmp_path / "x.json")
        want = json.dumps(oracles.matrix_doc(x))
        assert (tmp_path / "x.json").read_text() == want
        assert json.dumps(element_to_dict(x)) == want

    @pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1, 1), (2, 1), (3,)])
    def test_state(self, tmp_path, blocks):
        rng = np.random.default_rng(sum(blocks))
        densities = []
        for n in blocks:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            densities.append(g @ g.conj().T)
        densities[0][0, -1] += 4e-15j
        densities[0][-1, 0] -= 4e-15j
        total = sum(np.trace(w).real for w in densities)
        s = State(AlgebraShape(blocks), tuple(w / total for w in densities))
        save_state(s, tmp_path / "s.json")
        want = json.dumps(oracles.state_doc(s))
        assert (tmp_path / "s.json").read_text() == want
        assert json.dumps(state_to_dict(s)) == want

    @settings(max_examples=40, deadline=None)
    @given(_outcomes())
    @example(_outcome(None, 1001))
    @example(_outcome(_BIG_RHO, 2500))
    def test_outcome(self, tmp_path_factory, outcome):
        path = tmp_path_factory.mktemp("outcome") / "outcome.json"
        save_outcome(outcome, path)
        want = oracles.outcome_doc(outcome)
        _assert_same_text(path.read_text(), json.dumps(want, indent=2))
        _assert_same_text(json.dumps(outcome_to_dict(outcome)), json.dumps(want))


# each writer with a longer and a shorter object, and the text it must write
_WRITERS = {
    "element": (save_element, _BIG_RHO.rho, m2_admissible(1.0), lambda x: json.dumps(element_to_dict(x))),
    "state": (
        save_state,
        State.classical([0.125] * 8),
        State.classical([0.5, 0.5]),
        lambda s: json.dumps(state_to_dict(s)),
    ),
    "metric_space": (
        save_metric_space,
        FiniteMetricSpace(np.ones((5, 5)) - np.eye(5)),
        FiniteMetricSpace(np.array([[0.0, 1.5], [1.5, 0.0]])),
        lambda m: json.dumps({"n": m.n, "d": [float(v) for v in m.dist.ravel()]}),
    ),
    "report": (
        save_report,
        verify(_RANDOM_RHO),
        verify(BiElement.zeros((1,))),
        lambda r: json.dumps(r.to_dict(), indent=2),
    ),
    "outcome": (
        save_outcome,
        _outcome(_BIG_RHO, 50),
        _outcome(None, 0),
        lambda o: json.dumps(outcome_to_dict(o), indent=2),
    ),
}


@pytest.mark.parametrize("kind", list(_WRITERS))
class TestWriters:
    def test_shorter_document_leaves_no_old_tail(self, tmp_path, kind):
        write, longer, shorter, text = _WRITERS[kind]
        path = tmp_path / "doc.json"
        write(longer, path)
        assert path.read_bytes() == text(longer).encode()
        write(shorter, path)
        assert len(text(shorter)) < len(text(longer))
        assert path.read_bytes() == text(shorter).encode()

    def test_never_truncates_to_zero(self, tmp_path, monkeypatch, kind):
        write, longer, shorter, _ = _WRITERS[kind]
        path = tmp_path / "doc.json"
        write(longer, path)
        flags = []
        os_open = os.open

        def spy(name, flag, *args, **kwargs):
            flags.append(flag)
            return os_open(name, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        write(shorter, path)
        assert len(flags) == 1
        assert flags[0] & os.O_WRONLY and flags[0] & os.O_CREAT
        assert not flags[0] & os.O_TRUNC

    @pytest.mark.parametrize("target", ["missing/doc.json", "."])
    def test_errors_match_write_text(self, tmp_path, kind, target):
        write, _, shorter, _ = _WRITERS[kind]
        path = tmp_path / target
        with pytest.raises(OSError) as want:
            Path(path).write_text("{}")
        with pytest.raises(OSError) as got:
            write(shorter, str(path))
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    def test_new_file_mode_and_symlink(self, tmp_path, kind):
        write, _, shorter, text = _WRITERS[kind]
        Path(tmp_path / "plain.json").write_text("{}")
        write(shorter, tmp_path / "new.json")
        assert os.stat(tmp_path / "new.json").st_mode == os.stat(tmp_path / "plain.json").st_mode
        (tmp_path / "link.json").symlink_to("plain.json")
        write(shorter, tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        assert (tmp_path / "plain.json").read_text() == text(shorter)


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
def test_dev_null_is_written_and_not_cut():
    save_report(verify(_RANDOM_RHO), os.devnull)
    save_element(_BIG_RHO.rho, os.devnull)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_pipe_receives_the_whole_document():
    report = verify(BiElement.zeros((1,)))
    r, w = os.pipe()
    try:
        save_report(report, f"/dev/fd/{w}")
    finally:
        os.close(w)
    with os.fdopen(r) as f:
        assert f.read() == json.dumps(report.to_dict(), indent=2)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_short_writes_deliver_the_whole_document(tmp_path, monkeypatch):
    # a failing report, several times the 7 bytes each write takes, and well under a pipe's buffer
    report = verify(_RANDOM_RHO)
    want = json.dumps(report.to_dict(), indent=2)
    os_write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: os_write(fd, bytes(data)[:7]))
    save_report(report, tmp_path / "r.json")
    assert (tmp_path / "r.json").read_text() == want
    r, w = os.pipe()
    try:
        save_report(report, f"/dev/fd/{w}")
    finally:
        os.close(w)
    with os.fdopen(r) as f:
        assert f.read() == want


class TestCliWriteErrors:
    @pytest.mark.parametrize("target", ["missing/r.json", "."])
    def test_same_error_line_and_exit_2(self, tmp_path, capsys, target):
        rho = tmp_path / "rho.json"
        save_element(m2_admissible(1.0), rho)
        out = tmp_path / target
        with pytest.raises(OSError) as want:
            Path(out).write_text("{}")
        capsys.readouterr()
        assert main(["verify", str(rho), "--report", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {want.value}\n"
        assert main(["pdelta", "--shape", "2", "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {want.value}\n"
