"""Shared JSON exchange formats.

One matrix format is used across the whole toolkit so constructions pipe
into verification and search outputs pipe into the transport computations.
A matrix document carries `shape` (block list), `order` (tensor legs),
`rows`, `cols`, and `data` as a row-major list of [re, im] pairs; writers
emit magnitudes below 1e-14 as exact zeros.  States add a `trace` field;
metric spaces load from {"n": ..., "d": row-major} documents or from a
plain-text lower triangle.

Most entries of a dense matrix document are exact zeros, which writers
emit as the text `[0.0, 0.0]` from one template.  Readers take a file's
bytes once, in os.read calls with no file object, and find its entries by
a numpy scan of them: the offset of every `[` from the first entry on,
and whether the 13 bytes from it are `[0.0, 0.0], [`, read as two words
through a view of the bytes themselves, with no copy.  The indices of the
entries kept are found once and serve both to cut the text and as the
entries' row-major indices.  Only the header fields and the kept entries
reach json.loads, in one call, and their values go straight into the
element's flat cell vector (`algebra.cells`), with no dense matrix.  Any
other valid JSON spacing or encoding still reads, through the reference
path `dict_to_element(json.loads(text))` on the file's text as a
text-mode open() decodes it, and reads to the same element, with the same
errors.

Every document is the text json.dumps gives it, byte for byte, but none
runs json.dumps with an indent, which always takes json's pure-Python
encoder.  A writer formats each field's text once: scalars by repr,
strings by json's C encoder, and each array of [re, im] pairs as a
`_Pairs`: a witness from its array, a matrix's `data` from the nonzero
entries of its flat cell vector, taken in row-major order through one
table per shape, with no dense matrix.  Only the nonzero entries are
formatted, by repr; a run of exact zeros between them is one repeat of the
zero entry's template, in either layout: the indented one's holds the line
breaks and indentation of the array's depth.

`_layout` is the one definition of json.dumps's compact and indented
layouts, but no document is laid out by it directly.  `_layouts` walks a
document's field texts once, collecting its skeleton (keys, nesting and
list lengths, each scalar text and each array a hole) and its leaves in
order, and fills, for each indent asked for, the skeleton's template:
`_layout` of the skeleton with a placeholder in every hole, compiled once
per (skeleton, indent) into a bounded cache.  A fill is one `%` format of
the leaf texts, each array laid out at its depth.  Each document is
defined once, as field texts: `_matrix_node` for a matrix or state
document (compact), `_report_node` for a report and `_outcome_node` for a
search outcome (both indented).  Every `--json` payload is the compact
layout of field texts, and every dict (element_to_dict, state_to_dict,
outcome_to_dict and the records' and reports' to_dict) is `_plain` of
them: json.loads of that text.

Readers check a document's layout; its values meet `algebra.require_finite`
in the constructors, whose NaN, infinity or 2**1000 bound error a reader
raises as an ExchangeError.

Every writer goes through `_write`, which writes a document's bytes over
a file's old ones and then cuts it to the new length, never truncating it
to zero first.
"""

from __future__ import annotations

import errno
import io
import itertools
import json
import math
import numbers
import os
import stat
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .algebra import as_shape, element_type, storage_coordinates, zero_clip
from .construct import FiniteMetricSpace
from .lipschitz import State


class ExchangeError(ValueError):
    """Malformed or inconsistent exchange document."""


# the text json.dumps writes for an exact-zero [re, im] pair between its brackets
_ZERO_PAIR = "0.0, 0.0"
# the bytes that open a matrix document's first entry, and those of an
# exact-zero entry up to the next entry's bracket, as two overlapping
# little-endian words: its first eight bytes and its last eight
_FIRST_ENTRY = b'"data": [['
_ZERO_ENTRY = f"[{_ZERO_PAIR}], [".encode()
_ZERO_HEAD, _ZERO_TAIL = (int.from_bytes(w, "little") for w in (_ZERO_ENTRY[:8], _ZERO_ENTRY[-8:]))


def _write(path, text: str) -> None:
    """Write text to path as open(path, "w") would, but over the old bytes.

    The text is encoded once; every document is ASCII, as json.dumps
    escapes everything else, so its bytes are those of any locale.  They
    go to the file in os.write calls until all are written, with no
    TextIOWrapper or buffer between.

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
    data = text.encode()
    fd = os.open(os.fspath(path), os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = memoryview(data)
        while rest:
            rest = rest[os.write(fd, rest):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _read(path) -> bytes:
    """The bytes of the file at path, as open(path, "rb").read() gives them, with no file object.

    The first os.read asks for the file's size and one byte more, and
    reads go on until one returns nothing, as FileIO.readall's do.  A
    directory is refused with the IsADirectoryError open() raises, since
    os.open opens one.  path is a str, bytes or os.PathLike: unlike
    open(), this takes no file number.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        parts = [os.read(fd, info.st_size + 1)]
        while parts[-1]:
            parts.append(os.read(fd, 1 << 16))
        return b"".join(parts)
    finally:
        os.close(fd)


class _Rows(NamedTuple):
    """A list of non-empty lists of numbers, each held as its numbers' JSON texts joined by ", "."""

    texts: list[str]


class _Pairs(NamedTuple):
    """An array of `size` [re, im] pairs: texts[j] between the brackets of entry at[j], `_ZERO_PAIR` in every other.

    `at` ascends.
    """

    size: int
    at: list[int]
    texts: list[str]

    def layout(self, indent: int | None = None, depth: int = 0) -> str:
        """json.dumps's text of the array, placed at depth: each run of zero entries is one repeat of a template.

        The compact layout when indent is None, else the indented one, which
        puts each entry and each part on its own line; a text's one ", " is
        the separator between its parts.
        """
        if not self.size:
            return "[]"
        if indent is None:
            start = end = ""
            between, opened, split, closed = ", ", "[", ", ", "]"
        else:
            outer, row, item = ("\n" + " " * (indent * (depth + k)) for k in range(3))
            start, end = row, outer
            between, opened, split, closed = "," + row, "[" + item, "," + item, row + "]"
        zero = opened + _ZERO_PAIR.replace(", ", split) + closed + between
        parts, done = [], 0
        for k, text in zip(self.at, self.texts):
            parts += (zero * (k - done), opened, text if indent is None else text.replace(", ", split), closed, between)
            done = k + 1
        parts.append(zero * (self.size - done))
        return "[" + start + "".join(parts)[: -len(between)] + end + "]"


def _scalar(value: float) -> str:
    """json.dumps(value) for a float."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


def _node(value):
    """The field texts of a JSON value: containers kept, each scalar as the text json.dumps gives it."""
    # floats first: they are most of a payload's scalars, and no other JSON type is a float
    if isinstance(value, float):
        return _scalar(value)
    if isinstance(value, dict):
        return {key: _node(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_node(v) for v in value]
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _layout(node, indent: int | None, depth: int = 0) -> str:
    """json.dumps(value, indent=indent) of the value whose field texts node holds, placed at depth.

    A str is the final text of a scalar, a dict an object keyed by str, a
    list an array, a `_Rows` an array of arrays of numbers, and a `_Pairs`
    an array of [re, im] pairs, most of them zero.  The
    compact layout is json.dumps's default one; an indented one puts each
    item of a non-empty container on its own line, `indent` spaces deeper
    than the container.  A `_Rows` is laid out by joins over its row texts,
    whose only ", " are the separators within a row.
    """
    if isinstance(node, str):
        return node
    if isinstance(node, _Pairs):
        return node.layout(indent, depth)
    if isinstance(node, _Rows):
        rows = node.texts
        if not rows:
            return "[]"
        if indent is None:
            return "[[" + "], [".join(rows) + "]]"
        outer, row, item = ("\n" + " " * (indent * (depth + k)) for k in range(3))
        text = f"[{row}[{item}" + f"{row}],{row}[{item}".join(rows) + f"{row}]{outer}]"
        return text.replace(", ", "," + item)
    # a scalar's text is laid out in place, with no call
    if isinstance(node, dict):
        items = [
            f"{encode_basestring_ascii(key)}: {v if type(v) is str else _layout(v, indent, depth + 1)}"
            for key, v in node.items()
        ]
        start, end = "{}"
    else:
        items = [v if type(v) is str else _layout(v, indent, depth + 1) for v in node]
        start, end = "[]"
    if not items:
        return start + end
    if indent is None:
        return start + ", ".join(items) + end
    pad = "\n" + " " * (indent * (depth + 1))
    return start + pad + ("," + pad).join(items) + pad[: len(pad) - indent] + end


# stands for a leaf in a template's text: json escapes every control character, so no field text or key holds one
_HOLE = "\0"
# the skeletons of a scalar's text and of an array laid out by itself
_LEAF, _ARRAY = 0, 1


def _walk(node, leaves: list):
    """The skeleton of node, its leaves appended to leaves in document order.

    A scalar's text and a `_Pairs` or `_Rows` array is a leaf, whose
    skeleton is `_LEAF` or `_ARRAY`; a dict's skeleton is its keys and
    then its items' skeletons, a list's None and then its items'.
    """
    if type(node) is str:
        leaves.append(node)
        return _LEAF
    if isinstance(node, dict):
        keys, items = tuple(node), node.values()
    elif isinstance(node, list):
        keys, items = None, node
    else:
        leaves.append(node)
        return _ARRAY
    skeleton = [keys]
    # a scalar's text is taken in place, with no call
    for v in items:
        if type(v) is str:
            leaves.append(v)
            skeleton.append(_LEAF)
        else:
            skeleton.append(_walk(v, leaves))
    return tuple(skeleton)


class _Template(NamedTuple):
    """A skeleton's layout: text with a %s per leaf, and the leaf number and depth of each array."""

    text: str
    arrays: tuple[tuple[int, int], ...]


@lru_cache(maxsize=256)
def _template(skeleton, indent: int | None) -> _Template:
    """The skeleton laid out by `_layout` with each leaf a hole, which `_layouts` fills."""
    arrays, holes = [], itertools.count()

    def node(sk, depth):
        if sk in (_LEAF, _ARRAY):
            k = next(holes)
            if sk == _ARRAY:
                arrays.append((k, depth))
            return _HOLE
        keys, *items = sk
        items = [node(v, depth + 1) for v in items]
        return items if keys is None else dict(zip(keys, items))

    text = _layout(node(skeleton, 0), indent)
    return _Template(text.replace("%", "%%").replace(_HOLE, "%s"), tuple(arrays))


def _layouts(node, *indents: int | None) -> list[str]:
    """`_layout(node, indent)` for each of indents, from one walk of node.

    The walk collects node's skeleton and leaves; each layout fills the
    skeleton's template for its indent, compiled once, with the leaves,
    each array laid out at its depth.
    """
    leaves = []
    skeleton = _walk(node, leaves)
    out = []
    for indent in indents:
        template = _template(skeleton, indent)
        texts = leaves
        if template.arrays:
            texts = list(leaves)
            for k, depth in template.arrays:
                texts[k] = _layout(leaves[k], indent, depth)
        out.append(template.text % tuple(texts))
    return out


def _plain(node):
    """The JSON value whose field texts node holds, read back from their compact layout.

    repr round-trips floats; NaN, infinities, -0.0, big integers and escaped strings read back unchanged.
    """
    return json.loads(*_layouts(node, None))


def _texts(values: np.ndarray, scalar=_scalar) -> list[str]:
    """The text between the brackets of each entry's [re, im] pair, scalar(part) for each part.

    values is a contiguous complex vector.
    """
    parts = map(scalar, values.view(float).tolist())
    return list(map(", ".join, zip(parts, parts)))


def element_to_dict(x) -> dict:
    return _plain(_matrix_node(x))


@lru_cache(maxsize=None)
def _row_major(blocks: tuple[int, ...], order: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat cell vector's positions in row-major order of their dense entries, and those entries' dense indices."""
    rows, cols = storage_coordinates(blocks, order)
    at = rows * sum(blocks) ** order + cols
    ranked = np.argsort(at)
    out = (ranked, at[ranked])
    for arr in out:
        arr.setflags(write=False)
    return out


def _matrix_node(x, **after) -> dict:
    """The field texts of the matrix document of x, then those of after, from the flat cell vector of x.

    `data` holds the dense matrix's entries in row-major order, each part below 1e-14 an exact zero.
    Every entry outside the cells is zero, and zero_clip leaves no signed
    zero, so only the cells' entries that stay nonzero are formatted, each
    by repr: an element's entries are finite.
    """
    n = x.shape.dim**x.order
    ranked, at = _row_major(x.shape.blocks, x.order)
    values = zero_clip(x._flat[ranked])
    keep = values.nonzero()[0]
    data = _Pairs(n * n, at[keep].tolist(), _texts(values[keep], float.__repr__))
    head = {"shape": list(x.shape.blocks), "order": x.order, "rows": n, "cols": n}
    return {**_node(head), "data": data, **_node(after)}


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
    return raw.astype(float, copy=False)


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


def _integral(value, field: str, doc: str = "matrix") -> int:
    """value as an int when it is an integer or an integral float such as 2.0."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ExchangeError(f"{doc} field {field!r} must be an integer, got {value!r}")


def _integers(values, field: str) -> tuple[int, ...]:
    """The items of values as ints, each read by `_integral`, which names the first that is not one."""
    values = tuple(values)
    if {*map(type, values)} <= {int}:
        return tuple(values)
    return tuple(_integral(v, field) for v in values)


def dict_to_element(doc: dict, at: np.ndarray | None = None, entries: int | None = None):
    """The element of a matrix document, its entries put straight into its cells.

    at and entries, when given, are the row-major index of each entry in
    doc's `data` and the count of all entries: the scan cut the others out
    as exact zeros.
    """
    try:
        blocks = _integers(doc["shape"], "shape")
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
    if entries is None:
        entries = len(data)
    if rows != d or cols != d or entries != d * d:
        raise ExchangeError(
            f"dimension mismatch: blocks {blocks} at order {order} need "
            f"{d}x{d}, document says {rows}x{cols} with {entries} entries"
        )
    values = _pairs(data)
    if at is None:
        at = np.arange(values.size)
    try:
        return element_type(order)._from_entries(shape, at, values)
    except ValueError as exc:
        raise ExchangeError(str(exc)) from exc


def save_element(x, path) -> None:
    _write(path, *_layouts(_matrix_node(x), None))


def _text(raw: bytes) -> str:
    """raw decoded as a text-mode open() decodes a file: in the locale's encoding, with universal newlines."""
    return io.TextIOWrapper(io.BytesIO(raw), encoding="locale").read()


def _entries(raw: bytes, start: int) -> tuple[np.ndarray, np.ndarray]:
    """The offset of every `[` in raw from start on, and whether it opens an exact-zero entry.

    An entry is an exact zero when its bytes, up to and including the next
    `[`, are `[0.0, 0.0], [`: its first word and its last match, read
    through a stride-1 "<u8" view of raw itself, with no copy.  A `[`
    fewer than 13 bytes from the end has no room for those bytes and is
    never read: it counts as kept, as the last `[` always does.  raw holds
    the 10 bytes of `"data": [[`, so the view has a word.
    """
    opens = (np.frombuffer(raw, np.uint8, offset=start) == ord("[")).nonzero()[0]
    opens += start
    room = opens[: opens.searchsorted(len(raw) - len(_ZERO_ENTRY), "right")]
    words = np.ndarray(len(raw) - 7, "<u8", raw, strides=(1,))
    zero = np.zeros(opens.size, dtype=bool)
    zero[: room.size] = (words[room] == _ZERO_HEAD) & (words[5:][room] == _ZERO_TAIL)
    return opens, zero


def _scan(raw: bytes):
    """The element of a matrix document's bytes, or None where the reference path must read them.

    Each `[` from the first entry of the `data` list on is taken to open an
    entry.  The exact-zero entries, each up to the next `[`, are cut out,
    and what is left, header fields and other entries, goes to json.loads
    in one call; their values go straight into the element's cells, the
    index of each kept entry among all of them being its row-major index.
    That is the reference reading when the parsed `data` is the list
    scanned and holds one [re, im] pair per `[` left.  A pair holds no
    bracket, so then every `[` left opens an entry, no entry nests one,
    nothing after the list holds one, and each cut was a whole `[0.0, 0.0]`
    entry of the list.
    The parsed `data` is the list scanned when the document holds one
    `"data"` and no backslash, which could hide a key in an escape.  The
    text parsed must be ASCII, which every locale decodes alike.
    """
    first = raw.find(_FIRST_ENTRY)
    if first < 0 or b"\\" in raw:
        return None
    opens, zero = _entries(raw, first + len(_FIRST_ENTRY) - 1)
    # each entry kept runs to the next `[`; the last one, which has no next
    # `[` to match, is always kept and runs to the end
    at = (~zero).nonzero()[0]
    ends = opens[at[:-1] + 1].tolist()
    ends.append(len(raw))
    entries = [raw[a:b] for a, b in zip(opens[at].tolist(), ends)]
    text = b"".join([raw[: opens[0]], *entries])
    # a cut holds no `"`, so the text holds every `"data"` the document does
    if text.count(b'"data"') != 1:
        return None
    try:
        doc = json.loads(text.decode("ascii"))
        if len(doc["data"]) != len(entries):
            return None
        return dict_to_element(doc, at, opens.size)
    except Exception:  # the reference path raises the fault with its own message
        return None


def _read_element(path, kind: str):
    """The element of the matrix or state document at path.

    The file's bytes are read once, by `_read`, with no file object or
    text layer.  `_scan` reads them where it can show that its reading is
    the reference one.  Everything else, other spacing or encodings and
    every malformed document, goes to the reference path
    `dict_to_element(json.loads(text))`, on the bytes decoded as a
    text-mode open() decodes them, which names the fault.
    """
    try:
        raw = _read(path)
    except OSError as exc:
        raise ExchangeError(f"cannot read {kind} document {path}: {exc}") from exc
    elem = _scan(raw)
    if elem is not None:
        return elem
    try:
        doc = json.loads(_text(raw))
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
    return _plain(_matrix_node(state.as_element(), trace=_trace(state)))


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
    _write(path, *_layouts(_matrix_node(state.as_element(), trace=_trace(state)), None))


def load_state(path):
    return _element_to_state(_read_element(path, "state"))


def _record_node(rec) -> dict:
    """The field texts of an axiom record's document, its witness's [re, im] lists never built."""
    margin = float(rec.margin)
    node = {
        "axiom": encode_basestring_ascii(rec.axiom),
        "passed": "true" if rec.passed else "false",
        "margin": "null" if math.isnan(margin) else _scalar(margin),
    }
    if rec.witness is not None:
        # row-major; only the entries that are not exact +0.0 + 0.0j, whose parts' bits are all 0, are formatted
        flat = np.asarray(rec.witness, dtype=complex).ravel()
        bits = flat.view(np.uint64)
        keep = (bits[0::2] | bits[1::2]).nonzero()[0]
        node["witness"] = _Pairs(flat.size, keep.tolist(), _texts(flat[keep]))
    if rec.indeterminate:
        node["indeterminate"] = "true"
    if rec.note:
        node["note"] = encode_basestring_ascii(rec.note)
    return node


def _report_node(report) -> dict:
    """The field texts of a report's document, which both of its layouts share."""
    return {
        "mode": encode_basestring_ascii(report.mode),
        "shape": _node(list(report.shape.blocks)),
        "passed": _node(report.passed),
        "records": [_record_node(r) for r in report.records],
        "tolerances": _node(report.config.to_dict()),
        "seed": _node(report.config.seed),
    }


def save_report(report, path) -> None:
    """Write report.to_dict() to path as json.dumps(indent=2) lays it out."""
    _write(path, *_layouts(_report_node(report), 2))


def load_metric_space(path) -> FiniteMetricSpace:
    """Read a finite metric space from JSON or a lower-triangle text file.

    JSON documents carry {"n": points, "d": row-major distances}.  Text
    files give one row per line below the diagonal: line k holds the k+1
    distances d(k+1, 0..k).  A file is read as JSON when its text starts
    with `{` after white space, or else when its name ends in a `.json`
    suffix.
    """
    if not isinstance(path, str):
        path = Path(path)  # which refuses a bytes path, as before
    raw = _read(path)
    # ASCII with no carriage return reads alike in every locale and newline mode
    text = raw.decode("ascii") if raw.isascii() and b"\r" not in raw else _text(raw)
    if text.lstrip().startswith("{") or Path(path).suffix.lower() == ".json":
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


def _outcome_node(outcome) -> dict:
    """The field texts of a search outcome's document, its residual history downsampled to at most 1000 rows."""
    hist = np.asarray(outcome.residual_history, dtype=float)
    if hist.size and hist.shape[0] > 1000:
        hist = hist[np.linspace(0, hist.shape[0] - 1, 1000).round().astype(int)]
    rows = hist.tolist()
    # a `_Rows` holds no empty row
    history = _Rows([", ".join(map(_scalar, row)) for row in rows]) if all(rows) else _node(rows)
    head = {
        "status": outcome.status,
        "best_residual": float(outcome.best_residual),
        "seed_used": int(outcome.seed_used),
        "iterations_run": int(outcome.iterations_run),
        "restarts_run": int(outcome.restarts_run),
        "mode": outcome.mode,
        "config": outcome.config.to_dict(),
    }
    node = {**_node(head), "residual_history": history, "candidate": "null", "report": "null"}
    if outcome.candidate is not None:
        node["candidate"] = _matrix_node(outcome.candidate.rho)
        if outcome.candidate.report is not None:
            node["report"] = _report_node(outcome.candidate.report)
    return node


def outcome_to_dict(outcome) -> dict:
    """Serialize a search outcome, downsampling the residual history."""
    return _plain(_outcome_node(outcome))


def save_outcome(outcome, path) -> None:
    """Write outcome_to_dict(outcome) to path as json.dumps(indent=2) lays it out."""
    _write(path, *_layouts(_outcome_node(outcome), 2))
