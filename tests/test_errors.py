"""The integer-argument check and the op arguments that pass through it,
and the checks on the binary targets of ``bce_with_logits``."""

import numpy as np
import pytest

from semaffine import hierarchy as H
from semaffine import tensor as T
from semaffine.errors import ContractError, ShapeError, int_array
from semaffine.harness import confusion_matrix
from semaffine.scenes import LabeledCloud
from semaffine.tensor import Tensor


class TestIntArray:
    def test_integer_entries_pass_as_int64(self):
        for values in ([0, 2, 1], np.array([0, 2, 1], dtype=np.uint8), np.array([0, 2, 1], dtype=np.int32)):
            got = int_array(values, 3, "x", 3)
            assert got.dtype == np.int64 and got.tolist() == [0, 2, 1]
        assert int_array([], 3, "x").shape == (0,)  # an empty list is float64, but has nothing to truncate

    @pytest.mark.parametrize("values", [[0.0, 1.0], ["0", "1"], [0, None]])
    def test_whole_floats_strings_and_objects_rejected(self, values):
        with pytest.raises(ContractError, match="x: dtype .* is not an integer dtype"):
            int_array(values, 3, "x")

    def test_huge_unsigned_entries_do_not_wrap(self):
        with pytest.raises(ContractError, match=r"x: entry out of range \[0, 3\)"):
            int_array(np.array([0, 2 ** 64 - 1], dtype=np.uint64), 3, "x")

    def test_a_ragged_list_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="x: ragged sequences"):
            int_array([[0, 1], [2]], 3, "x")

    def test_a_scalar_is_not_an_array(self):
        with pytest.raises(ShapeError, match=r"x: shape \(\), expected \(n,\)"):
            int_array(5, 3, "x")


def _two_point_hierarchy():
    return H.build_hierarchy(np.array([[0.0, 0, 0], [2.0, 0, 0]]), 1.0, 2)


# each site that takes integer values, called with two of them over 3 classes or rows
INTEGER_SITES = {
    "cross_entropy": lambda v: T.cross_entropy(Tensor(np.zeros((2, 3))), v),
    "gather_rows": lambda v: T.gather_rows(Tensor(np.zeros((3, 2))), v),
    "pool_rows_mean": lambda v: T.pool_rows_mean(Tensor(np.zeros((2, 2))), v, 3),
    "shadow_labels": lambda v: H.shadow_labels(_two_point_hierarchy(), v, 3),
    "confusion_predictions": lambda v: confusion_matrix(v, [0, 1], 3),
    "confusion_labels": lambda v: confusion_matrix([0, 1], v, 3),
    "cloud_labels": lambda v: LabeledCloud(coords=np.zeros((2, 3)), labels=v, n_classes=3),
}


@pytest.mark.parametrize("values", [np.array([0.9, 2.7]), np.array([True, False])], ids=["float", "bool"])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_sites_reject_float_and_bool_values(site, values):
    with pytest.raises(ContractError, match="is not an integer dtype"):
        INTEGER_SITES[site](values)


def test_cloud_label_count_must_match_the_points():
    with pytest.raises(ShapeError, match=r"cloud labels: shape \(3,\), expected \(2,\)"):
        LabeledCloud(coords=np.zeros((2, 3)), labels=[0, 1, 2], n_classes=3)


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_sites_reject_ragged_values(site):
    with pytest.raises(ShapeError, match="ragged sequences"):
        INTEGER_SITES[site]([[0, 1], [2]])


class TestBceTargets:
    LOGITS = Tensor(np.zeros((1, 2)))

    @pytest.mark.parametrize("targets", [[["1", "0"]], [[b"1", b"0"]], np.array([[1, 0]], dtype=object)],
                             ids=["str", "bytes", "object"])
    def test_non_numeric_dtypes_rejected(self, targets):
        with pytest.raises(ContractError, match="bce: targets must be binary numbers, got dtype"):
            T.bce_with_logits(self.LOGITS, targets)

    def test_ragged_list_rejected(self):
        with pytest.raises(ShapeError, match="bce targets: ragged sequences"):
            T.bce_with_logits(Tensor(np.zeros((2, 2))), [[1, 0], [1]])

    @pytest.mark.parametrize("targets", [[[1, 0]], [[True, False]], np.array([[1, 0]], dtype=np.uint8), [[1.0, 0.0]]],
                             ids=["int", "bool", "uint8", "float"])
    def test_numeric_dtypes_give_the_same_bits(self, targets):
        assert T.bce_with_logits(self.LOGITS, targets).data.tobytes() == np.float64(np.log(2.0)).tobytes()
