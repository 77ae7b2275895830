"""Shared JSON exchange formats.

One matrix format is used across the whole toolkit so constructions pipe
into verification and search outputs pipe into the transport computations.
A matrix document carries `shape` (block list), `order` (tensor legs),
`rows`, `cols`, and `data` as a row-major list of [re, im] pairs; writers
emit magnitudes below 1e-14 as exact zeros.  States add a `trace` field;
metric spaces load from {"n": ..., "d": row-major} documents or from a
plain-text lower triangle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .algebra import as_shape, complex_pairs, element_type, zero_clip
from .construct import FiniteMetricSpace

ZERO_CLIP = 1e-14


class ExchangeError(ValueError):
    """Malformed or inconsistent exchange document."""


def element_to_dict(x) -> dict:
    d = x.shape.dim**x.order
    return {
        "shape": list(x.shape.blocks),
        "order": x.order,
        "rows": d,
        "cols": d,
        "data": complex_pairs(zero_clip(np.asarray(x.data), ZERO_CLIP)),
    }


def _pairs_to_matrix(data: list, d: int) -> np.ndarray:
    """The d x d complex matrix of a row-major list of [re, im] pairs.

    A list of numeric pairs converts in one array call; anything else goes
    entry by entry, which names the first entry that is not a pair.
    """
    try:
        raw = np.asarray(data)
    except ValueError:  # ragged nesting
        raw = None
    if raw is not None and raw.shape == (d * d, 2) and raw.dtype.kind in "biuf":
        return np.ascontiguousarray(raw, dtype=float).view(complex).reshape(d, d)
    arr = np.empty((d, d), dtype=complex)
    flat = arr.ravel()
    for k, pair in enumerate(data):
        if isinstance(pair, (list, tuple)) and len(pair) == 2:
            try:
                flat[k] = complex(float(pair[0]), float(pair[1]))
                continue
            except (TypeError, ValueError):
                pass
        raise ExchangeError(f"entry {k} is not an [re, im] pair")
    return arr


def _integral(value, field: str) -> int:
    """value as an int when it is an integer or an integral float such as 2.0."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ExchangeError(f"matrix field {field!r} must be an integer, got {value!r}")


def dict_to_element(doc: dict):
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
    shape = as_shape(blocks)
    d = shape.dim**order
    if rows != d or cols != d or len(data) != d * d:
        raise ExchangeError(
            f"dimension mismatch: blocks {blocks} at order {order} need "
            f"{d}x{d}, document says {rows}x{cols} with {len(data)} entries"
        )
    arr = _pairs_to_matrix(data, d)
    try:
        return element_type(order)(shape, arr)
    except ValueError as exc:
        raise ExchangeError(str(exc)) from exc


def save_element(x, path) -> None:
    Path(path).write_text(json.dumps(element_to_dict(x)))


def load_element(path, expect_order: int | None = None):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExchangeError(f"cannot read matrix document {path}: {exc}") from exc
    elem = dict_to_element(doc)
    if expect_order is not None and elem.order != expect_order:
        raise ExchangeError(
            f"expected a tensor of order {expect_order}, file has order {elem.order}"
        )
    return elem


def state_to_dict(state) -> dict:
    doc = element_to_dict(state.as_element())
    doc["trace"] = float(sum(np.trace(d).real for d in state.densities))
    return doc


def dict_to_state(doc: dict):
    from .lipschitz import State

    elem = dict_to_element(doc)
    if elem.order != 1:
        raise ExchangeError("a state document must have tensor order 1")
    shape = elem.shape
    densities = []
    for a, b in shape.block_ranges():
        densities.append(np.asarray(elem.data[a:b, a:b]))
    try:
        return State(shape, tuple(densities))
    except ValueError as exc:
        raise ExchangeError(str(exc)) from exc


def save_state(state, path) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state)))


def load_state(path):
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExchangeError(f"cannot read state document {path}: {exc}") from exc
    return dict_to_state(doc)


def save_report(report, path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2))


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
            n = int(doc["n"])
            flat = [float(v) for v in doc["d"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ExchangeError(f"malformed metric-space document: {exc}") from exc
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
    Path(path).write_text(json.dumps(doc))


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
    Path(path).write_text(json.dumps(outcome_to_dict(outcome), indent=2))
