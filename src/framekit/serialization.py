"""File formats and deterministic report emission.

Matrices travel as JSON ``{"rows": K, "cols": N, "data": [[re, im], ...]}``
with ``data`` row-major, or as CSV whose cells are complex literals like
``1.5``, ``2i``, ``0.25-0.75i``.  Frame files store the frame vectors as
rows (not their conjugates).  All numeric output is printed with %.17g,
which round-trips IEEE doubles exactly, so identical inputs give
byte-identical reports.

A float array is emitted in one pass: its finiteness is checked once, -0.0
is folded into 0.0 with one ``+ 0.0``, and every number fills a slot of a
single %-template built for the array's shape.  Matrices therefore reach the
emitter as arrays: ``dumps_report`` prints an ndarray exactly as it would
print the same values as nested lists of floats, only without visiting
each value in Python.
"""

import csv
import json
import math

import numpy as np

from .errors import ParseError


def format_float(x):
    x = float(x) + 0.0  # folds -0.0 into 0.0 so equal values print identically
    if not math.isfinite(x):
        raise ParseError("non-finite value in output")
    return "%.17g" % x


def parse_complex(text):
    s = str(text).strip()
    if not s:
        raise ParseError("empty complex literal")
    try:
        value = complex(s.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ParseError("bad complex literal %r" % text) from None
    return value


def _matrix_fields(arr):
    """{"rows", "cols", "data"} with ``data`` the (rows*cols, 2) [re, im]
    float view of the matrix, row-major."""
    arr = np.ascontiguousarray(np.atleast_2d(np.asarray(arr, dtype=np.complex128)))
    rows, cols = arr.shape
    return {"rows": int(rows), "cols": int(cols), "data": arr.view(np.float64).reshape(-1, 2)}


def matrix_to_json(arr):
    """Matrix -> the JSON-ready {"rows", "cols", "data"} mapping."""
    fields = _matrix_fields(arr)
    fields["data"] = (fields["data"] + 0.0).tolist()
    return fields


def matrix_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("matrix JSON must be an object")
    try:
        rows = int(obj["rows"])
        cols = int(obj["cols"])
        data = obj["data"]
    except (KeyError, TypeError, ValueError):
        raise ParseError("matrix JSON needs integer 'rows', 'cols' and a 'data' list") from None
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError("matrix data must list rows*cols [re, im] pairs")
    out = np.empty(rows * cols, dtype=np.complex128)
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ParseError("matrix data entry %d is not an [re, im] pair" % i)
        out[i] = complex(pair[0], pair[1])
    return _finite(out.reshape(rows, cols))


def _finite(mat):
    if not np.isfinite(mat).all():
        raise ParseError("matrix entries must be finite")
    return mat


def matrix_from_csv_text(text):
    rows = []
    width = None
    for record in csv.reader(text.splitlines()):
        if not record or all(not cell.strip() for cell in record):
            continue
        rows.append([parse_complex(cell) for cell in record])
        if width is None:
            width = len(record)
        elif len(record) != width:
            raise ParseError("ragged CSV: row widths differ")
    if not rows:
        raise ParseError("empty CSV matrix")
    return _finite(np.array(rows, dtype=np.complex128))


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError("file is not UTF-8 text: %s" % exc) from None


def load_matrix(path):
    """Read a matrix from a .json or .csv file (sniffed when ambiguous)."""
    text = _read_text(path)
    name = str(path).lower()
    if name.endswith(".json"):
        return matrix_from_json(_json_loads(text))
    if name.endswith(".csv"):
        return matrix_from_csv_text(text)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return matrix_from_json(_json_loads(text))
    return matrix_from_csv_text(text)


def _json_loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def load_json(path):
    """Parse a JSON file, mapping syntax errors to ParseError."""
    return _json_loads(_read_text(path))


def load_vector(path):
    """A matrix file with a single row or column, flattened."""
    mat = load_matrix(path)
    if 1 not in mat.shape:
        raise ParseError("expected a vector, got shape %r" % (mat.shape,))
    return mat.reshape(-1)


def _fill(template, values):
    """``template % values`` over the float array, flat in C order.

    Non-finite values raise as format_float does; -0.0 prints as 0.
    """
    if not np.isfinite(values).all():
        raise ParseError("non-finite value in output")
    return template % tuple((values + 0.0).ravel().tolist())


def _array_template(shape):
    template = "%.17g"
    for size in reversed(shape):
        template = "[" + ", ".join([template] * size) + "]"
    return template


def matrix_csv_text(arr):
    """One row per line, cells ``re+im i`` or ``re-|im|i`` in %.17g."""
    fields = _matrix_fields(arr)
    # %+.17g prints the sign of im and then |im| exactly as %.17g does
    line = ",".join(["%.17g%+.17gi"] * fields["cols"])
    return _fill("\n".join([line] * fields["rows"]), fields["data"])


def dumps_report(value):
    """Deterministic JSON with %.17g floats and insertion-ordered keys."""
    pieces = []
    _emit(value, pieces)
    return "".join(pieces)


def _emit(value, pieces):
    if isinstance(value, dict):
        pieces.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                pieces.append(", ")
            pieces.append(json.dumps(str(key)))
            pieces.append(": ")
            _emit(item, pieces)
        pieces.append("}")
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for i, item in enumerate(value):
            if i:
                pieces.append(", ")
            _emit(item, pieces)
        pieces.append("]")
    elif isinstance(value, bool) or value is None:
        pieces.append(json.dumps(value))
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        pieces.append(format_float(value))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f":
        pieces.append(_fill(_array_template(value.shape), value))
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), pieces)
    else:
        raise ParseError("cannot serialize %r" % type(value).__name__)
