"""JSON matrix format: roundtrips and rejection of malformed input."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pseudoherm.io
from pseudoherm import DimensionMismatchError, NonFiniteError, metric_from_matrix
from pseudoherm.antilinear import CoefficientFamily
from pseudoherm.cli import cli_main
from pseudoherm.io import (
    _json_text,
    coefficients_from_list,
    coefficients_to_list,
    load_coefficients,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    metric_from_dict,
    metric_to_dict,
    save_coefficients,
    save_matrix,
)


def test_matrix_roundtrip_exact(rng, tmp_path):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    save_matrix(path, m)
    np.testing.assert_array_equal(load_matrix(path), m)  # full double precision


def test_dict_structure():
    d = matrix_to_dict(np.array([[1 + 2j]]))
    assert d == {"n": 1, "data": [[1.0, 2.0]]}


def test_json_text_golden():
    """Signed zeros, subnormals and huge values are written exactly."""
    m = np.array(
        [[complex(-0.0, 5e-324), complex(1e300, -2.5)], [complex(0.1, 0.0), complex(-3.0, -0.0)]]
    )
    text = json.dumps(matrix_to_dict(m))
    assert text == (
        '{"n": 2, "data": [[-0.0, 5e-324], [1e+300, -2.5], [0.1, 0.0], [-3.0, -0.0]]}'
    )
    back = matrix_from_dict(json.loads(text))
    np.testing.assert_array_equal(back.view(np.float64), m.view(np.float64))
    assert np.signbit(back[0, 0].real) and np.signbit(back[1, 1].imag)


def test_wrong_length_rejected():
    with pytest.raises(DimensionMismatchError):
        matrix_from_dict({"n": 2, "data": [[1.0, 0.0]] * 3})


def test_malformed_entry_rejected():
    with pytest.raises(DimensionMismatchError):
        matrix_from_dict({"n": 1, "data": [[1.0, 0.0, 2.0]]})


@pytest.mark.parametrize(
    "payload, error",
    [
        ({"n": 1, "data": [["1.5", "0"]]}, ValueError),  # strings, not numbers
        ({"n": 1, "data": [[True, False]]}, ValueError),  # booleans, not numbers
        ({"n": 1, "data": [[None, 0.0]]}, ValueError),  # null is not NaN
        ({"n": 2.7, "data": [[1.0, 0.0]] * 4}, DimensionMismatchError),  # not truncated to 2
        ({"n": True, "data": [[1.0, 0.0]]}, DimensionMismatchError),
        ([1, 2], ValueError),  # not an object
        ("abc", ValueError),
        ({"n": 1, "data": [[1.5, True]]}, ValueError),  # not 1.5+1j
        ({"n": 1, "data": [[0, False]]}, ValueError),  # not 0
        ({"n": 2, "data": [[0.5, 0.0], [1.0, 0.0], [0.0, 1.0], [True, 0.0]]}, ValueError),
        ({"n": 1, "data": [[True, 2**70]]}, ValueError),  # with an integer beyond int64
    ],
)
def test_non_numeric_input_rejected(payload, error):
    with pytest.raises(error) as exc:
        matrix_from_dict(payload)
    assert not isinstance(exc.value, NonFiniteError)


def test_booleans_among_numbers_are_named():
    with pytest.raises(ValueError, match="^matrix data must be numbers, got booleans mixed"):
        matrix_from_dict({"n": 1, "data": [[1.5, True]]})


def test_integer_entries_accepted():
    np.testing.assert_array_equal(matrix_from_dict({"n": 1, "data": [[2, -1]]}), [[2 - 1j]])


def test_integers_beyond_int64_load_as_floats():
    text = '{"n": 1, "data": [[1180591620717411303424, -18446744073709551616]]}'
    got = matrix_from_dict(json.loads(text))  # 2**70 and -2**64
    np.testing.assert_array_equal(got, [[complex(2.0**70, -(2.0**64))]])
    with pytest.raises(NonFiniteError, match="integer beyond the float range"):
        matrix_from_dict({"n": 1, "data": [[10**400, 0]]})


def test_nonfinite_rejected():
    with pytest.raises(NonFiniteError):
        matrix_from_dict({"n": 1, "data": [[float("nan"), 0.0]]})
    with pytest.raises(NonFiniteError):
        matrix_from_dict({"n": 2, "data": [[0.0, 0.0]] * 3 + [[0.0, float("-inf")]]})


def test_json_payload_is_plain(rng, tmp_path):
    m = rng.standard_normal((3, 3)).astype(complex)
    text = json.dumps(matrix_to_dict(m))
    np.testing.assert_array_equal(matrix_from_dict(json.loads(text)), m)


def test_coefficients_roundtrip(rng):
    blocks = (np.eye(2, dtype=complex), (1 + 1j) * np.eye(1))
    family = CoefficientFamily(blocks)
    recovered = coefficients_from_list(coefficients_to_list(family))
    for got, want in zip(recovered.blocks, blocks):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("payload", [[[1, 2]], ["abc"], {"n": 1, "data": [[1.0, 0.0]]}, 3])
def test_coefficients_must_be_a_list_of_objects(payload):
    with pytest.raises(ValueError):
        coefficients_from_list(payload)


def test_metric_roundtrip():
    metric = metric_from_matrix(np.diag([2.0, 1.0]))
    recovered = metric_from_dict(metric_to_dict(metric))
    np.testing.assert_array_equal(recovered.matrix, metric.matrix)
    assert recovered.positive_definite
    np.testing.assert_array_equal(recovered.factor, metric.factor)


def test_indefinite_metric_roundtrip():
    metric = metric_from_matrix(np.diag([1.0, -1.0]))
    recovered = metric_from_dict(metric_to_dict(metric))
    assert recovered.factor is None
    assert not recovered.positive_definite


TEXT = st.one_of(
    st.text(st.sampled_from('a"\\\n%é☃\x00 '), max_size=6),
    st.text(max_size=4),
    st.just("\x00table"),  # the string io._json_text stands in for a table
)
CELLS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**80), 2**80))
LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e300, math.nan, math.inf, -math.inf, True, False, -1, 2**70]),
    st.integers(),
    st.builds(np.float64, st.floats()),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    TEXT,
    st.none(),
)


@st.composite
def tables(draw):
    """Two or more rows of one shape, list or dict rows, or such rows spoiled:
    one cell replaced by a leaf (NaN, a bool, a numpy scalar, ...) or one row
    reshaped (a cell more, a key dropped, keys reversed)."""
    n_rows = draw(st.integers(2, 4))
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        rows = [draw(st.lists(CELLS, min_size=width, max_size=width)) for _ in range(n_rows)]
    else:
        keys = st.one_of(TEXT, st.integers(-2, 2))
        keys = draw(st.lists(keys, min_size=1, max_size=3, unique=True))
        widths = [draw(st.sampled_from([None, 1, 2])) for _ in keys]
        rows = [
            {k: draw(CELLS) if w is None else draw(st.lists(CELLS, min_size=w, max_size=w))
             for k, w in zip(keys, widths)}
            for _ in range(n_rows)
        ]
    spoil = draw(st.sampled_from(["cell", "shape", None]))
    i = draw(st.integers(0, n_rows - 1))
    row = rows[i]
    if spoil == "cell":
        slot = draw(st.sampled_from(list(row) if type(row) is dict else range(len(row))))
        row[slot] = draw(st.sampled_from([True, math.nan, -math.inf, np.float64(0.5), None]))
    elif spoil == "shape" and type(row) is list:
        row.append(draw(CELLS))
    elif spoil == "shape":
        rows[i] = dict(reversed(row.items()) if len(row) > 1 else list(row.items())[1:])
    return rows


def payload_trees(depth: int = 4):
    ragged = st.lists(st.lists(CELLS, max_size=3), min_size=2, max_size=3)
    tree = st.one_of(LEAVES, tables(), ragged)
    for _ in range(depth):
        tree = st.one_of(
            tables(), LEAVES, st.lists(tree, max_size=4), st.dictionaries(TEXT, tree, max_size=4)
        )
    return tree


@settings(max_examples=500, deadline=None)
@given(payload_trees())
@example([[1.0, True], [2.0, 3.0]])
@example({"x": [[1, -0.0], [math.nan, 2]], "s": "\x00table", "t": [[5e-324], [1e300]]})
@example({"levels": [{"energy": [0.5, 0.0], "m": 1}, {"energy": [1.5, -2.0], "m": 2}]})
@example([{}, {}])  # dict rows without a key
@example([[10**400, 1], [2, 3]])  # an int cell beyond the float range
def test_json_text_is_the_indented_dump(value):
    """The CLI's writer is json.dumps(value, indent=2, default=float) byte for
    byte, tables (rows of one shape) or not."""
    assert _json_text(value) == json.dumps(value, indent=2, default=float)


FILE_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225e-308, 1e-310,
                     1e308, -1e308, 1.7976931348623157e308, 1e-308, 0.1]),
    st.integers(-(2**80), 2**80),
)


@st.composite
def matrix_payloads(draw):
    n = draw(st.integers(1, 3))
    entry = st.lists(FILE_CELLS, min_size=2, max_size=2)
    return {"n": n, "data": [draw(entry) for _ in range(n * n)]}


def _file_texts(payload) -> list[str]:
    """payload as json.dumps writes it, and with every float written as %.17e
    and as %.25e."""

    def dump(value, form):
        if type(value) is float:
            return form % value
        if isinstance(value, list):
            return "[" + ", ".join(dump(v, form) for v in value) + "]"
        if isinstance(value, dict):
            items = (f"{json.dumps(k)}: {dump(v, form)}" for k, v in value.items())
            return "{" + ", ".join(items) + "}"
        return json.dumps(value)

    return [json.dumps(payload), dump(payload, "%.17e"), dump(payload, "%.25e")]


def _bits(m) -> np.ndarray:
    return np.ascontiguousarray(m).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(st.lists(matrix_payloads(), min_size=1, max_size=2))
@example([{"n": 1, "data": [[5e-324, -0.0]]}])
@example([{"n": 1, "data": [[2**80, -(2**63) - 1]]}])
def test_reader_returns_what_json_returns(tmp_path_factory, payloads):
    """load_matrix and load_coefficients give, bit for bit, the matrices of
    json.loads on the same text, whichever way its floats are written."""
    path = tmp_path_factory.mktemp("read") / "m.json"
    for text in _file_texts(payloads[0]):
        path.write_text(text)
        np.testing.assert_array_equal(
            _bits(load_matrix(path)), _bits(matrix_from_dict(json.loads(text)))
        )
    for text in _file_texts(payloads):
        path.write_text(text)
        want = coefficients_from_list(json.loads(text)).blocks
        got = load_coefficients(path).blocks
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(_bits(g), _bits(w))


ONE = b'"data": [[1.5, -0.0]]'
REFUSAL_FILES = {
    "nan": b'{"n": 1, "data": [[NaN, 0.0]]}',
    "infinity": b'{"n": 1, "data": [[Infinity, 0.0]]}',
    "minus-infinity": b'{"n": 1, "data": [[0.0, -Infinity]]}',
    "overflow-float": b'{"n": 1, "data": [[1e400, 0.0]]}',
    "overflow-int": b'{"n": 1, "data": [[' + b"9" * 400 + b", 0]]}",
    "empty": b"",
    "truncated": b'{"n": 1, "data": [[1.5, ',
    "bom": b'\xef\xbb\xbf{"n": 1, ' + ONE + b"}",
    "latin-1": b'{"n": 1, "note": "caf\xe9", ' + ONE + b"}",
    "string-data": b'{"n": 1, "data": [["1.5", "0"]]}',
    "null-data": b'{"n": 1, "data": [[null, 0.0]]}',
    "bool-data": b'{"n": 1, "data": [[true, false]]}',
    "bool-among-numbers": b'{"n": 1, "data": [[1.5, true]]}',
    "ragged": b'{"n": 2, "data": [[1.0, 0.0], [1.0], [0.0, 0.0], [1.0, 0.0]]}',
    "n-float": b'{"n": 2.7, "data": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}',
    "top-level-list": b"[1, 2]",
    "no-data": b'{"n": 1}',
    "duplicate-key": b'{"n": 2, "n": 1, ' + ONE + b"}",
    "odd-whitespace": b' \t\r\n{\r\n"n"\t:\t1 ,"data":[ [ 1.5 ,\n-0.0 ] ] }\r\n',
    "surrogate-key": b'{"\\ud800": 0, "n": 1, ' + ONE + b"}",
    "beyond-int64": b'{"n": 1, "data": [[9223372036854775808, -9223372036854775809]]}',
    "beyond-uint64": b'{"n": 1, "data": [[1180591620717411303424, -18446744073709551616]]}',
}


def _outcome(read, path):
    """The bits of the matrix read, or the type and message of the refusal."""
    try:
        return _bits(read(path)).tolist()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", list(REFUSAL_FILES))
def test_reader_refuses_as_json_does(name, tmp_path):
    """Each file is read, or refused with the same type and message, as
    json.loads followed by matrix_from_dict reads or refuses it."""
    path = tmp_path / "m.json"
    path.write_bytes(REFUSAL_FILES[name])
    want = _outcome(lambda f: matrix_from_dict(json.loads(Path(f).read_text())), path)
    assert _outcome(load_matrix, path) == want


@pytest.mark.parametrize(
    "n, message",
    [
        (2**64, "matrix dimension must be an integer, got 1.8446744073709552e+19"),
        (-(2**63) - 1, "matrix dimension must be an integer, got -9.223372036854776e+18"),
    ],
)
def test_dimension_beyond_64_bits_reads_as_a_float(n, message, tmp_path):
    """orjson reads an integer beyond the 64-bit range as a float, so such an
    n is refused as not an integer (json reads an int and refuses the data's
    shape or the sign): the same type, another message."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": n, **json.loads("{" + ONE.decode() + "}")}))
    with pytest.raises(DimensionMismatchError) as exc:
        load_matrix(path)
    assert str(exc.value) == message


def test_deep_nesting_is_refused_as_not_an_object(tmp_path):
    """orjson reads nesting deeper than json's recursion limit, so such a
    file is refused as a list, not by a RecursionError."""
    path = tmp_path / "m.json"
    path.write_text("[" * 5000 + "]" * 5000)
    with pytest.raises(ValueError, match="^a matrix must be a JSON object, got list$"):
        load_matrix(path)


def test_deeply_nested_dimension_is_refused_by_type(tmp_path, capsys):
    """An ``n`` nested 5000 deep is named by its type, not by a repr that
    recurses: ``analyze`` exits 2 with one refusal line.  Scalars keep their repr."""
    path = tmp_path / "m.json"
    path.write_text('{"n": ' + "[" * 5000 + "]" * 5000 + ', "data": [[1.0, 0.0]]}')
    assert cli_main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "DimensionMismatchError: matrix dimension must be an integer, got list\n"
    )
    for n, got in [({"a": 1}, "dict"), (1.5, "1.5"), ("2", "'2'"), (None, "None")]:
        with pytest.raises(DimensionMismatchError) as exc:
            matrix_from_dict({"n": n, "data": [[1.0, 0.0]]})
        assert str(exc.value) == f"matrix dimension must be an integer, got {got}"


WRITTEN = '{"n":2,"data":[[-0.0,5e-324],[1e300,0.0],[0.1,0.0],[2.0,-0.0]]}'


def test_non_finite_matrix_is_not_saved(tmp_path):
    """NaN and Inf have no JSON token: saving them is refused and writes no
    file.  A finite matrix is written compactly, its floats in their shortest
    round-trip spelling, and read back bit for bit by json and by load_matrix."""
    path = tmp_path / "m.json"
    for bad in ([[math.nan]], [[complex(1.0, math.inf)]], [[0.0, -math.inf], [1.0, 2.0]]):
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            save_matrix(path, np.array(bad))
        with pytest.raises(NonFiniteError, match="NaN or Inf"):
            save_coefficients(path, CoefficientFamily((np.eye(1), np.array(bad, dtype=complex))))
        assert not path.exists()
    m = np.array([[complex(-0.0, 5e-324), 1e300], [0.1, complex(2, -0.0)]])
    save_matrix(path, m)
    assert path.read_text() == WRITTEN
    np.testing.assert_array_equal(_bits(matrix_from_dict(json.loads(path.read_text()))), _bits(m))
    np.testing.assert_array_equal(_bits(load_matrix(path)), _bits(m))


def test_saved_coefficients_golden(tmp_path):
    """save_coefficients writes each block as save_matrix writes a matrix."""
    path = tmp_path / "c.json"
    m = np.array([[complex(-0.0, 5e-324), 1e300], [0.1, complex(2, -0.0)]])
    save_coefficients(path, CoefficientFamily((m, np.array([[1e-5 - 3j]]))))
    assert path.read_text() == "[" + WRITTEN + ',{"n":1,"data":[[0.00001,-3.0]]}]'


SAVED_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308, 1e-5, 1e16]),
)


@st.composite
def finite_matrices(draw):
    n = draw(st.integers(1, 6))
    parts = draw(st.lists(SAVED_FLOATS, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(parts).view(np.complex128).reshape(n, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(finite_matrices(), min_size=1, max_size=3))
@example([np.array([[complex(-0.0, 5e-324), -1.7976931348623157e308],
                    [complex(2.2250738585072014e-308, -0.0), 1.7976931348623157e308]])])
def test_saved_files_read_back_bit_for_bit(tmp_path_factory, matrices):
    """What save_matrix and save_coefficients write, load_matrix and
    load_coefficients, and json.loads followed by the dict readers, read back
    to the bits written, sign bits included."""
    path = tmp_path_factory.mktemp("save") / "m.json"
    save_matrix(path, matrices[0])
    for got in (load_matrix(path), matrix_from_dict(json.loads(path.read_text()))):
        np.testing.assert_array_equal(_bits(got), _bits(matrices[0]))
    save_coefficients(path, CoefficientFamily(tuple(matrices)))
    for family in (load_coefficients(path), coefficients_from_list(json.loads(path.read_text()))):
        assert len(family.blocks) == len(matrices)
        for got, want in zip(family.blocks, matrices):
            np.testing.assert_array_equal(_bits(got), _bits(want))


def test_save_builds_no_python_floats(tmp_path, monkeypatch):
    """The writers write from the array buffer: neither matrix_to_dict nor
    ndarray.tolist is called."""

    def refused(*args):
        raise AssertionError("matrix_to_dict called")

    monkeypatch.setattr(pseudoherm.io, "matrix_to_dict", refused)
    called = []

    def profile(frame, event, arg):
        if event == "c_call":
            called.append(getattr(arg, "__name__", None))

    m = np.arange(9.0).reshape(3, 3) + 0.5j
    sys.setprofile(profile)
    try:
        save_matrix(tmp_path / "m.json", m)
        save_coefficients(tmp_path / "c.json", CoefficientFamily((m, m[:1, :1])))
    finally:
        sys.setprofile(None)
    assert "dumps" in called  # the profile sees C calls: orjson.dumps is one
    assert "tolist" not in called


@pytest.mark.parametrize(
    "m, message",
    [
        (np.zeros((0, 0)), "matrix dimension must be at least 1"),
        (np.float64(1.0), "expected a square matrix, got shape ()"),
        (np.ones(3), "expected a square matrix, got shape (3,)"),
        (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
    ],
)
def test_writers_refuse_what_the_readers_refuse(m, message, tmp_path):
    """An n = 0 matrix, which matrix_from_dict refuses, is refused by every
    writer with the reader's error, and a non-square one is named by its own
    shape; no file is written."""
    path = tmp_path / "m.json"
    writers = [
        lambda: matrix_to_dict(m),
        lambda: save_matrix(path, m),
        lambda: save_coefficients(path, CoefficientFamily((np.eye(1), m))),
    ]
    for write in writers:
        with pytest.raises(DimensionMismatchError) as exc:
            write()
        assert str(exc.value) == message
        assert not path.exists()
    with pytest.raises(DimensionMismatchError, match="^matrix dimension must be at least 1$"):
        matrix_from_dict({"n": 0, "data": []})


def test_load_skips_the_boolean_scan_without_a_boolean_token(tmp_path, monkeypatch, rng):
    """A JSON boolean is a true or false token, so a file with no u and no f
    byte is loaded without looking for booleans among its 0 and 1 entries; a
    file holding one is still refused."""
    scan = pseudoherm.io._refuse_booleans
    calls = []

    def counted(*args):
        calls.append(1)
        return scan(*args)

    monkeypatch.setattr(pseudoherm.io, "_refuse_booleans", counted)
    real = np.round(rng.standard_normal((64, 64)))  # imaginary parts 0, many entries 0 or 1
    path = tmp_path / "m.json"
    save_matrix(path, real)
    np.testing.assert_array_equal(load_matrix(path), real)
    save_coefficients(path, CoefficientFamily((real, np.eye(2))))
    np.testing.assert_array_equal(load_coefficients(path).blocks[0], real)
    assert calls == []
    for text, read in [
        ('{"n": 1, "data": [[1.5, true]]}', load_matrix),
        ('[{"n": 1, "data": [[1.0, 0.0]]}, {"n": 1, "data": [[false, 2.5]]}]', load_coefficients),
    ]:
        path.write_text(text)
        with pytest.raises(ValueError, match="^matrix data must be numbers, got booleans mixed"):
            read(path)
    assert len(calls) == 3  # the first block of the family is scanned too
    matrix_from_dict(json.loads(json.dumps(matrix_to_dict(real))))
    assert len(calls) == 4  # the dict reader keeps its scan
