"""Complex literals, matrix files, and the deterministic report emitter."""

import numpy as np
import pytest

from framekit import ParseError
from framekit.serialization import (
    _matrix_fields,
    dumps_report,
    format_float,
    load_json,
    load_matrix,
    load_vector,
    matrix_csv_text,
    matrix_from_csv_text,
    matrix_from_json,
    matrix_to_json,
    parse_complex,
)
import report_oracle
from report_oracle import format_complex


# ---------------------------------------------------------------- literals


def test_parse_complex_forms():
    assert parse_complex("1") == 1.0
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("2i") == 2j
    assert parse_complex("2I") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("1-2i") == 1 - 2j
    assert parse_complex(" 0.25-0.75i ") == 0.25 - 0.75j
    assert parse_complex("-1.5e-3+2E+4i") == complex(-1.5e-3, 2e4)


def test_parse_complex_rejects_garbage():
    for bad in ("", "foo", "1+2", "1++2i", "2 i"):
        with pytest.raises(ParseError):
            parse_complex(bad)


def test_format_complex_round_trip():
    rng = np.random.default_rng(109)
    for _ in range(50):
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert parse_complex(format_complex(z)) == z
    assert format_complex(1.0) == "1+0i"
    assert format_complex(-2j) == "0-2i"
    assert format_complex(complex(0.0, -0.0)) == "0+0i"  # -0.0 folds away


def test_format_float_17g_and_negative_zero():
    assert format_float(0.1) == "0.10000000000000001"
    assert format_float(-0.0) == "0"
    assert format_float(1.5) == "1.5"
    with pytest.raises(ParseError):
        format_float(float("nan"))
    with pytest.raises(ParseError):
        format_float(float("inf"))


# ---------------------------------------------------------------- matrices


def test_matrix_json_round_trip():
    rng = np.random.default_rng(113)
    a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    back = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(back, a)


def test_matrix_to_json_shape_fields():
    obj = matrix_to_json(np.eye(2))
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_matrix_from_json_validation():
    good = matrix_to_json(np.eye(2))
    for mutate in (
        lambda o: o.pop("rows"),
        lambda o: o.__setitem__("rows", 0),
        lambda o: o.__setitem__("data", o["data"][:-1]),
        lambda o: o.__setitem__("data", "nope"),
        lambda o: o["data"].__setitem__(0, [1.0]),
        lambda o: o["data"].__setitem__(0, [1.0, True]),
        lambda o: o["data"].__setitem__(0, [1.0, float("inf")]),
        lambda o: o["data"].__setitem__(0, [1.0, "2"]),
    ):
        obj = {k: (list(list(p) for p in v) if k == "data" else v) for k, v in good.items()}
        mutate(obj)
        with pytest.raises(ParseError):
            matrix_from_json(obj)
    with pytest.raises(ParseError):
        matrix_from_json([1, 2, 3])


def test_matrix_csv_round_trip():
    rng = np.random.default_rng(127)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    back = matrix_from_csv_text(matrix_csv_text(a))
    assert np.array_equal(back, a)


def test_matrix_csv_validation():
    with pytest.raises(ParseError):
        matrix_from_csv_text("1,2\n3")
    with pytest.raises(ParseError):
        matrix_from_csv_text("")
    with pytest.raises(ParseError):
        matrix_from_csv_text("1,foo")
    # blank lines are skipped
    a = matrix_from_csv_text("1,2\n\n3,4\n")
    assert np.array_equal(a, [[1, 2], [3, 4]])


# ------------------------------------------------------------------- files


def test_load_matrix_dispatch(tmp_path):
    a = np.array([[1.0 + 2.0j, 0.0], [3.0, -1.0j]])
    jpath = tmp_path / "m.json"
    jpath.write_text(dumps_report(matrix_to_json(a)))
    cpath = tmp_path / "m.csv"
    cpath.write_text(matrix_csv_text(a))
    assert np.array_equal(load_matrix(jpath), a)
    assert np.array_equal(load_matrix(cpath), a)
    # extensionless files are sniffed on the leading brace
    spath = tmp_path / "mat"
    spath.write_text(dumps_report(matrix_to_json(a)))
    assert np.array_equal(load_matrix(spath), a)
    spath.write_text(matrix_csv_text(a))
    assert np.array_equal(load_matrix(spath), a)


def test_load_matrix_bad_json(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(p)


def test_undecodable_and_deeply_nested_files_are_parse_errors(tmp_path):
    binary = tmp_path / "m.json"
    binary.write_bytes(b'{"rows": 1, \xff\xfe}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    for load in (load_matrix, load_json):
        with pytest.raises(ParseError, match="not UTF-8"):
            load(binary)
        with pytest.raises(ParseError, match="nested too deeply"):
            load(deep)


def test_load_vector(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1,2i,3")
    assert np.array_equal(load_vector(p), [1.0, 2.0j, 3.0])
    p.write_text("1\n2\n3")  # column vector works too
    assert np.array_equal(load_vector(p), [1.0, 2.0, 3.0])
    p.write_text("1,2\n3,4")
    with pytest.raises(ParseError):
        load_vector(p)


# ----------------------------------------------------------------- reports


def test_dumps_report_scalars():
    assert dumps_report({"a": 1, "b": True, "c": None, "d": "x"}) == (
        '{"a": 1, "b": true, "c": null, "d": "x"}'
    )
    assert dumps_report([0.1, -0.0, 2.0]) == "[0.10000000000000001, 0, 2]"


def test_dumps_report_preserves_key_order():
    assert dumps_report({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'


def test_dumps_report_nested_and_ndarray():
    out = dumps_report({"m": np.array([1.0, 0.5]), "inner": {"k": [1, 2]}})
    assert out == '{"m": [1, 0.5], "inner": {"k": [1, 2]}}'


def test_dumps_report_deterministic():
    payload = {"x": 1.0 / 3.0, "y": [np.float64(0.7), 12]}
    assert dumps_report(payload) == dumps_report(payload)


def test_dumps_report_rejects_unserializable():
    with pytest.raises(ParseError):
        dumps_report({"f": object()})
    with pytest.raises(ParseError):
        dumps_report({"f": float("nan")})


# ------------------------------------------- one-pass emission vs the oracle

EDGE_VALUES = [
    -0.0,
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    5e-324,
    -5e-324,
    1.7976931348623157e308,
    complex(-1.7976931348623157e308, 1.7976931348623157e308),
    0.1,
    2.0,
    complex(-3.0, 1e16),
    complex(1e-300, -2.5),
]


def _matrices():
    rng = np.random.default_rng(131)
    for shape in ((1, 1), (1, 7), (7, 1), (1024, 64)):
        yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    yield rng.standard_normal((3, 5))  # real
    yield np.array([EDGE_VALUES])
    yield np.array(EDGE_VALUES).reshape(-1, 1)
    for z in EDGE_VALUES:
        yield np.array([[z]])
    yield np.arange(12.0).reshape(3, 4) - 6.0  # integral floats


def test_matrix_report_bytes_match_per_element_walk():
    for a in _matrices():
        want = report_oracle.dumps_report(report_oracle.matrix_to_json(a))
        assert dumps_report(_matrix_fields(a)) == want
        assert dumps_report(matrix_to_json(a)) == want
        assert matrix_to_json(a) == report_oracle.matrix_to_json(a)
        assert matrix_csv_text(a) == report_oracle.matrix_csv_text(a)


def test_ndarray_leaves_match_per_element_walk():
    rng = np.random.default_rng(137)
    for value in (
        np.float64(-0.0),
        np.array(2.0),
        np.array([]),
        np.zeros((0, 3)),
        np.array([-0.0, 5e-324, 0.1, 2.0, 1.7976931348623157e308]),
        rng.standard_normal((2, 3, 4)),
        rng.standard_normal(5).astype(np.float32),
        np.arange(6).reshape(2, 3),  # integers are not floats: printed as ints
        np.array([True, False]),
        {"m": rng.standard_normal((4, 2)), "k": [np.array([0.5, -0.0]), 3]},
    ):
        assert dumps_report(value) == report_oracle.dumps_report(value)


def test_non_finite_output_still_raises():
    for bad in (float("nan"), float("inf"), -float("inf")):
        for z in (complex(bad, 0.0), complex(0.0, bad)):
            a = np.array([[1.0, z], [0.5, 2.0]])
            with pytest.raises(ParseError, match="non-finite value in output"):
                dumps_report(_matrix_fields(a))
            with pytest.raises(ParseError, match="non-finite value in output"):
                dumps_report(matrix_to_json(a))
            with pytest.raises(ParseError, match="non-finite value in output"):
                matrix_csv_text(a)
        with pytest.raises(ParseError, match="non-finite value in output"):
            dumps_report({"v": np.array([0.0, bad])})


def test_percent_signs_survive_the_template():
    report = {"100%": _matrix_fields(np.eye(2)), "%.17g %s %%": "50% of %d", "d": np.array([0.5])}
    out = dumps_report(report)
    assert out == report_oracle.dumps_report({**report, "100%": report_oracle.matrix_to_json(np.eye(2))})
    assert out.startswith('{"100%": {"rows": 2') and '"%.17g %s %%": "50% of %d"' in out


def test_csv_non_finite_cells_are_parse_errors():
    # like matrix_from_json: complex() accepts these, the check rejects them
    for cell in ("nan", "1+nani", "1e400", "-1e999i"):
        with pytest.raises(ParseError, match="matrix entries must be finite"):
            matrix_from_csv_text("1,%s\n2,3" % cell)
    with pytest.raises(ParseError):
        matrix_from_csv_text("1,inf")  # "inf" is not a complex literal here
