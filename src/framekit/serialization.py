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

A matrix's [re, im] pairs, the (n, 2) float arrays of its JSON ``data``
and the cells of its CSV text, take a distinct fill instead: after the same
``+ 0.0`` fold the entries are reduced with ``np.unique``, each distinct
pair is formatted once by one fill of a pair template, and the strings are
gathered back with the inverse index and joined.  A Gabor system's K·L×M
entries g[n - lT]·e^{2πikn/K} take at most M·K distinct values, each about
L = M/T times, so its report formats a small fraction of its numbers.  On a
dense matrix whose entries are all distinct the sort and the gather only
add work: a 1000×100 random complex matrix took 201 ms against 154 ms in
JSON (medians of 15 interleaved runs on a 2-vCPU Xeon).  That cost is
taken rather than a second path kept for dense matrices: the dense reports
the verbs print are small, and the distinct fill prints the same bytes as
the one-pass fill.
"""

import csv
import json

import numpy as np

from .errors import ParseError


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


def _as_strict(value, kind):
    """kind(value) for a file value of kind's JSON type: a string for str, any
    number for float, an integer or an integral float (2.0) for int; a bool
    is none of these.  Any other value raises TypeError."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise TypeError("%r is not a JSON %s" % (value, kind.__name__))
    return kind(value)


def matrix_from_json(obj):
    if not isinstance(obj, dict):
        raise ParseError("matrix JSON must be an object")
    try:
        rows = _as_strict(obj["rows"], int)
        cols = _as_strict(obj["cols"], int)
        data = obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ParseError("matrix JSON needs integer 'rows', 'cols' and a 'data' list") from None
    if rows < 1 or cols < 1:
        raise ParseError("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError("matrix data must list rows*cols [re, im] pairs")
    for i, pair in enumerate(data):
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ParseError("matrix data entry %d is not an [re, im] pair" % i)
    try:
        pairs = np.array(data, dtype=np.float64)
    except OverflowError:  # an integer beyond float64's range
        raise ParseError("matrix entries must be finite") from None
    return _finite(pairs.view(np.complex128).reshape(rows, cols))


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

    Non-finite values raise ParseError; -0.0 prints as 0.
    """
    if not np.isfinite(values).all():
        raise ParseError("non-finite value in output")
    return template % tuple((values + 0.0).ravel().tolist())


def _array_template(shape):
    template = "%.17g"
    for size in reversed(shape):
        template = "[" + ", ".join([template] * size) + "]"
    return template


def _distinct_cells(pairs, template):
    """``template`` (two float slots) filled with each [re, im] row of the
    (n, 2) float array, as an object array of n strings; each distinct pair
    is formatted once."""
    pairs = np.ascontiguousarray(pairs, dtype=np.float64) + 0.0
    values, inverse = np.unique(pairs.view(np.complex128).ravel(), return_inverse=True)
    # no %-formatted float contains a newline, so it separates the cells
    cells = _fill("\n".join([template] * values.size), values.view(np.float64))
    return np.array(cells.split("\n"), dtype=object)[inverse]


def matrix_csv_text(arr):
    """One row per line, cells ``re+im i`` or ``re-|im|i`` in %.17g."""
    fields = _matrix_fields(arr)
    # %+.17g prints the sign of im and then |im| exactly as %.17g does
    cells = _distinct_cells(fields["data"], "%.17g%+.17gi").reshape(fields["rows"], -1)
    return "\n".join([",".join(row) for row in cells.tolist()])


def dumps_report(value, fmt="json"):
    """The report's text: deterministic JSON with %.17g floats and
    insertion-ordered keys, where a complex matrix is {"rows", "cols",
    "data"}; or, with ``fmt="csv"``, a complex matrix as ``matrix_csv_text``
    and a list of flat records as a header of their keys and one line of
    %.17g values per record."""
    if fmt == "csv":
        if isinstance(value, np.ndarray):
            return matrix_csv_text(value)
        table = np.array([list(record.values()) for record in value])
        line = ",".join(["%.17g"] * table.shape[1])
        return ",".join(value[0]) + "\n" + _fill("\n".join([line] * len(value)), table)
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
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, (float, np.floating, np.ndarray)) and np.asarray(value).dtype.kind == "f":
        value = np.asarray(value, dtype=np.float64)
        if value.ndim == 2 and value.shape[1] == 2:  # [re, im] pairs
            pieces.append("[" + ", ".join(_distinct_cells(value, "[%.17g, %.17g]").tolist()) + "]")
        else:
            pieces.append(_fill(_array_template(value.shape), value))
    elif isinstance(value, np.ndarray) and value.dtype.kind == "c":
        _emit(_matrix_fields(value), pieces)
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), pieces)
    else:
        raise ParseError("cannot serialize %r" % type(value).__name__)
