"""JSON matrix format: roundtrips and rejection of malformed input."""

import json

import numpy as np
import pytest

from pseudoherm import DimensionMismatchError, NonFiniteError, metric_from_matrix
from pseudoherm.antilinear import CoefficientFamily
from pseudoherm.io import (
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
    ],
)
def test_non_numeric_input_rejected(payload, error):
    with pytest.raises(error) as exc:
        matrix_from_dict(payload)
    assert not isinstance(exc.value, NonFiniteError)


def test_integer_entries_accepted():
    np.testing.assert_array_equal(matrix_from_dict({"n": 1, "data": [[2, -1]]}), [[2 - 1j]])


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
