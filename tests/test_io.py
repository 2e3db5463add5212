"""JSON matrix format: roundtrips and rejection of malformed input."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pseudoherm import DimensionMismatchError, NonFiniteError, metric_from_matrix
from pseudoherm.antilinear import CoefficientFamily
from pseudoherm.io import (
    _json_text,
    coefficients_from_list,
    coefficients_to_list,
    load_matrix,
    matrix_from_dict,
    matrix_to_dict,
    metric_from_dict,
    metric_to_dict,
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
def test_json_text_is_the_indented_dump(value):
    """The CLI's writer is json.dumps(value, indent=2, default=float) byte for
    byte, tables (rows of one shape) or not."""
    assert _json_text(value) == json.dumps(value, indent=2, default=float)
