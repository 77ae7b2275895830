"""Shared JSON exchange formats.

One matrix format is used across the whole toolkit so constructions pipe
into verification and search outputs pipe into the transport computations.
A matrix document carries `shape` (block list), `order` (tensor legs),
`rows`, `cols`, and `data` as a row-major list of [re, im] pairs; writers
emit magnitudes below 1e-14 as exact zeros.  States add a `trace` field;
metric spaces load from {"n": ..., "d": row-major} documents or from a
plain-text lower triangle.

Most entries of a dense matrix document are exact zeros, which writers
emit as the text `[0.0, 0.0]` from one template, and readers parse each
such pair as one `null` token.  Any other valid JSON spacing still reads,
through the reference path `dict_to_element(json.loads(text))`, and reads
to the same element; so does a document holding a backslash or a `null`.

A report document is the text json.dumps(report.to_dict(), indent=2)
gives, byte for byte, and the `verify --json` payload the text
json.dumps(report.to_dict()) gives.  As a matrix document is json.dumps
text with its `data` spliced in, both are json.dumps text with each witness
spliced in, written from its array: exact-zero entries from one template,
only the others by repr.

Readers check a document's layout; its values meet `algebra.require_finite`
in the constructors, whose NaN, infinity or 2**1000 bound error a reader
raises as an ExchangeError.

Every writer goes through `_write`, which overwrites a file in place and
then cuts it to the new length, never truncating it to zero first.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import stat
from pathlib import Path

import numpy as np

from .algebra import as_shape, complex_pairs, element_type, zero_clip
from .construct import FiniteMetricSpace
from .lipschitz import State


class ExchangeError(ValueError):
    """Malformed or inconsistent exchange document."""


# the text json.dumps writes for an [re, im] pair, and for an exact-zero one
_PAIR = "[{}, {}]"
_ZERO_PAIR = _PAIR.format("0.0", "0.0")
# how json.dumps(indent=2) and json.dumps() lay out a report record's witness:
# one [re, im] pair, then the opening, separator and closing of the pair list
_WITNESS_LAYOUT = {
    2: ("[\n          {},\n          {}\n        ]", "[\n        ", ",\n        ", "\n      ]"),
    None: (_PAIR, "[", ", ", "]"),
}


def _write(path, text: str) -> None:
    """Write text to path as open(path, "w") would, but over the old bytes.

    On ext4, truncating a non-empty file to zero starts a flush when it is
    closed (auto_da_alloc), and that costs an overwrite several times the
    write itself.  So the file is opened without O_TRUNC, written, and only
    then cut to the written length, if it is a regular file: /dev/null or a
    pipe is never truncated.  As before, a write is not atomic.

    The flush skipped is ext4's guard against a garbled file after a crash.
    Without it, a power loss or kernel crash soon after an overwrite can
    leave a document of the new length holding old bytes, or a mix of old
    and new pages, where the truncating write left the new text or an empty
    file.  Nothing here calls fsync.
    """
    with open(Path(path), "w", opener=lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)) as f:
        f.write(text)
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate()


def _matrix_fields(x) -> dict:
    """Every field of the matrix document of x but `data`."""
    d = x.shape.dim**x.order
    return {"shape": list(x.shape.blocks), "order": x.order, "rows": d, "cols": d}


def element_to_dict(x) -> dict:
    return {**_matrix_fields(x), "data": complex_pairs(zero_clip(np.asarray(x.data)))}


def _scalar(value: float) -> str:
    """json.dumps(value) for a float."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _pair_texts(arr, zero: str, pair) -> list[str]:
    """The JSON text of each entry of arr, row-major, as an [re, im] pair.

    Every exact +0.0 + 0.0j entry is the one text zero; only the others are
    formatted, by pair(re, im).
    """
    flat = np.asarray(arr, dtype=complex).ravel()
    out = [zero] * flat.size
    keep = np.flatnonzero((flat != 0) | np.signbit(flat.real) | np.signbit(flat.imag))
    for k, z in zip(keep.tolist(), flat[keep].tolist()):
        out[k] = pair(_scalar(z.real), _scalar(z.imag))
    return out


def _matrix_text(x, **after) -> str:
    """json.dumps({**element_to_dict(x), **after}), byte for byte, from `_pair_texts`."""
    entries = _pair_texts(zero_clip(np.asarray(x.data)), _ZERO_PAIR, _PAIR.format)
    text = json.dumps({**_matrix_fields(x), "data": None, **after})
    return text.replace('"data": null', f'"data": [{", ".join(entries)}]', 1)


def _real(value) -> float | None:
    """value as a float when it is a number (a JSON boolean counts) within the float range, else None."""
    if isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    return None


def _floats(values: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """values as a float array of the given shape, from one array call.

    None unless values are numbers (a JSON boolean counts) within the float
    range, nested to that shape; the caller then reads them entry by entry.
    """
    try:
        raw = np.asarray(values)
    except ValueError:  # ragged nesting
        return None
    # an integer beyond the float range makes an object array
    if raw.shape != shape or raw.dtype.kind not in "biuf":
        return None
    return raw.astype(float)


def _pairs(values: list) -> np.ndarray:
    """The complex vector of a list of [re, im] pairs.

    Converts in one array call, else entry by entry to name the first entry
    that is not a pair of numbers.
    """
    raw = _floats(values, (len(values), 2))
    if raw is None:
        raw = np.empty((len(values), 2))
        for k, pair in enumerate(values):
            parts = [_real(v) for v in pair] if isinstance(pair, (list, tuple)) and len(pair) == 2 else [None]
            if None in parts:
                raise ExchangeError(f"entry {k} is not an [re, im] pair")
            raw[k] = parts
    return raw.view(complex).ravel()


def _zero_pairs(data: list) -> np.ndarray:
    """_pairs for a list whose None entries stand for 0+0j."""
    keep = [k for k, pair in enumerate(data) if pair is not None]
    flat = np.zeros(len(data), dtype=complex)
    flat[keep] = _pairs([data[k] for k in keep])
    return flat


def _integral(value, field: str, doc: str = "matrix") -> int:
    """value as an int when it is an integer or an integral float such as 2.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ExchangeError(f"{doc} field {field!r} must be an integer, got {value!r}")


def dict_to_element(doc: dict):
    return _to_element(doc, _pairs)


def _to_element(doc: dict, pairs):
    try:
        blocks = tuple(_integral(n, "shape") for n in doc["shape"])
        order = _integral(doc["order"], "order")
        rows, cols = _integral(doc["rows"], "rows"), _integral(doc["cols"], "cols")
        data = doc["data"]
    except (KeyError, TypeError) as exc:
        raise ExchangeError(f"missing or malformed matrix field: {exc}") from exc
    if not isinstance(data, list):
        raise ExchangeError(
            f"matrix field 'data' must be a list of [re, im] pairs, got {type(data).__name__}"
        )
    if order not in (1, 2, 3):
        raise ExchangeError(f"unsupported tensor order {order}")
    try:
        shape = as_shape(blocks)
    except ValueError as exc:
        raise ExchangeError(str(exc)) from exc
    d = shape.dim**order
    if rows != d or cols != d or len(data) != d * d:
        raise ExchangeError(
            f"dimension mismatch: blocks {blocks} at order {order} need "
            f"{d}x{d}, document says {rows}x{cols} with {len(data)} entries"
        )
    arr = pairs(data).reshape(d, d)
    try:
        return element_type(order)(shape, arr)
    except ValueError as exc:
        raise ExchangeError(str(exc)) from exc


def save_element(x, path) -> None:
    _write(path, _matrix_text(x))


def _read_element(path, kind: str):
    """The element of the matrix or state document at path.

    Outside strings the text `[0.0, 0.0]` is always one whole array value,
    so when a document holds no `null` of its own, reading each such pair
    as `null` parses it in about a tenth of the time; None is then taken as
    0+0j only where it is a whole entry of `data`.  Inside strings the swap
    changes only text that no accepted field holds.  A backslash right
    before the pair would turn the `n` into an escape, so a document holding
    any backslash goes to the reference path `dict_to_element(json.loads(text))`,
    as does one holding `null` and whatever the fast path does not accept;
    that path names the fault.  Both guards start with a one-character
    scan: no key of a matrix or state document holds a backslash or an `n`.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ExchangeError(f"cannot read {kind} document {path}: {exc}") from exc
    if "\\" not in text and ("n" not in text or "null" not in text):
        try:
            return _to_element(json.loads(text.replace(_ZERO_PAIR, "null")), _zero_pairs)
        except Exception:  # the reference path below raises the fault with its own message
            pass
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ExchangeError(f"cannot read {kind} document {path}: {exc}") from exc
    return dict_to_element(doc)


def load_element(path, expect_order: int | None = None):
    elem = _read_element(path, "matrix")
    if expect_order is not None and elem.order != expect_order:
        raise ExchangeError(
            f"expected a tensor of order {expect_order}, file has order {elem.order}"
        )
    return elem


def _trace(state) -> float:
    return float(sum(np.trace(d).real for d in state.densities))


def state_to_dict(state) -> dict:
    return {**element_to_dict(state.as_element()), "trace": _trace(state)}


def dict_to_state(doc: dict):
    return _element_to_state(dict_to_element(doc))


def _element_to_state(elem):
    if elem.order != 1:
        raise ExchangeError("a state document must have tensor order 1")
    try:
        return State._from_element(elem)
    except ValueError as exc:
        raise ExchangeError(str(exc)) from exc


def save_state(state, path) -> None:
    _write(path, _matrix_text(state.as_element(), trace=_trace(state)))


def load_state(path):
    return _element_to_state(_read_element(path, "state"))


def _report_text(report, indent: int | None) -> str:
    """json.dumps(report.to_dict(), indent=indent), byte for byte, for indent 2 or None.

    json.dumps with an indent always runs the pure-Python encoder, whose
    cost grows with the D^2- or D^3-long witnesses of failing reports, and
    either layout would first need their [re, im] lists.  So each record
    with a witness is laid out with `"witness": null`, and that text, which
    cannot occur inside a JSON string, is replaced in record order by the
    witness written from its array in the same layout.  The witnesses'
    [re, im] lists are never built.
    """
    pair, start, sep, end = _WITNESS_LAYOUT[indent]
    text = json.dumps(report._document(lambda witness: None), indent=indent)
    for rec in report.records:
        if rec.witness is not None:
            pairs = _pair_texts(rec.witness, pair.format("0.0", "0.0"), pair.format)
            witness = start + sep.join(pairs) + end if pairs else "[]"
            text = text.replace('"witness": null', f'"witness": {witness}', 1)
    return text


def save_report(report, path) -> None:
    """Write report.to_dict() to path as json.dumps(indent=2) lays it out."""
    _write(path, _report_text(report, 2))


def load_metric_space(path) -> FiniteMetricSpace:
    """Read a finite metric space from JSON or a lower-triangle text file.

    JSON documents carry {"n": points, "d": row-major distances}.  Text
    files give one row per line below the diagonal: line k holds the k+1
    distances d(k+1, 0..k).
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
            n = _integral(doc["n"], "n", "metric-space")
            values = doc["d"]
            flat = _floats(values, (len(values),)) if isinstance(values, list) else None
            if flat is None:
                # entry by entry, to name the first entry that is not a number
                flat = [_real(v) for v in values]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ExchangeError(f"malformed metric-space document: {exc}") from exc
        if n < 1:
            raise ExchangeError(f"metric-space field 'n' must be at least 1, got {n}")
        if isinstance(flat, list) and None in flat:
            raise ExchangeError(f"distance {flat.index(None)} is not a number within the float range")
        if len(flat) != n * n:
            raise ExchangeError(f"expected {n * n} distances, got {len(flat)}")
        dist = np.asarray(flat, dtype=float).reshape(n, n)
    else:
        rows = [line.split() for line in text.splitlines() if line.strip()]
        n = len(rows) + 1
        dist = np.zeros((n, n))
        for k, row in enumerate(rows):
            if len(row) != k + 1:
                raise ExchangeError(
                    f"lower-triangle line {k + 1} must hold {k + 1} values, got {len(row)}"
                )
            for j, v in enumerate(row):
                try:
                    dist[k + 1, j] = dist[j, k + 1] = float(v)
                except ValueError as exc:
                    raise ExchangeError(f"bad distance value {v!r}") from exc
    try:
        return FiniteMetricSpace(dist)
    except ValueError as exc:
        raise ExchangeError(str(exc)) from exc


def save_metric_space(space: FiniteMetricSpace, path) -> None:
    doc = {"n": space.n, "d": [float(v) for v in space.dist.ravel()]}
    _write(path, json.dumps(doc))


def outcome_to_dict(outcome) -> dict:
    """Serialize a search outcome, downsampling the residual history."""
    hist = np.asarray(outcome.residual_history, dtype=float)
    if hist.size and hist.shape[0] > 1000:
        idx = np.linspace(0, hist.shape[0] - 1, 1000).round().astype(int)
        hist = hist[idx]
    doc = {
        "status": outcome.status,
        "best_residual": float(outcome.best_residual),
        "seed_used": int(outcome.seed_used),
        "iterations_run": int(outcome.iterations_run),
        "restarts_run": int(outcome.restarts_run),
        "mode": outcome.mode,
        "config": outcome.config.to_dict(),
        "residual_history": [[float(v) for v in row] for row in hist],
        "candidate": None,
        "report": None,
    }
    if outcome.candidate is not None:
        doc["candidate"] = element_to_dict(outcome.candidate.rho)
        if outcome.candidate.report is not None:
            doc["report"] = outcome.candidate.report.to_dict()
    return doc


def save_outcome(outcome, path) -> None:
    _write(path, json.dumps(outcome_to_dict(outcome), indent=2))
