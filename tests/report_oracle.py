"""Reference report emitter: one Python call per number.

This is the per-element walk framekit used before reports were emitted in
one vectorised pass.  Tests compare the package's output with it byte for
byte, so it must stay independent of framekit.serialization.
"""

import json
import math

import numpy as np

from framekit import ParseError


def format_float(x):
    x = float(x) + 0.0  # folds -0.0 into 0.0 so equal values print identically
    if not math.isfinite(x):
        raise ParseError("non-finite value in output")
    return "%.17g" % x


def format_complex(z):
    z = complex(z)
    im = z.imag + 0.0  # folds -0.0 so conjugated zeros print like plain ones
    sign = "-" if im < 0 else "+"
    return "%s%s%si" % (format_float(z.real), sign, format_float(abs(im)))


def matrix_to_json(arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=np.complex128))
    rows, cols = arr.shape
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": [[float(z.real) + 0.0, float(z.imag) + 0.0] for z in arr.reshape(-1)],
    }


def matrix_csv_text(arr):
    arr = np.atleast_2d(np.asarray(arr, dtype=np.complex128))
    return "\n".join(",".join(format_complex(z) for z in row) for row in arr)


def records_csv_text(records):
    lines = [",".join(records[0])]
    lines += [",".join(format_float(v) for v in record.values()) for record in records]
    return "\n".join(lines)


def dumps_report(value):
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
    elif isinstance(value, np.ndarray):
        _emit(value.tolist(), pieces)
    else:
        raise ParseError("cannot serialize %r" % type(value).__name__)
