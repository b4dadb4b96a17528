import math

import pytest

from coxkit import (
    INF,
    AsymmetricEntry,
    DiagonalNotOne,
    OffDiagonalBelowTwo,
    config_from_dict,
    config_to_dict,
    preset,
    validate_matrix,
)


def test_single_generator():
    m = validate_matrix([[1]])
    assert m.n == 1
    assert m.m(0, 0) == 1


def test_dihedral_of_order_six():
    m = validate_matrix([[1, 3], [3, 1]])
    assert m.m(0, 1) == m.m(1, 0) == 3


def test_asymmetric_entry_names_the_pair():
    with pytest.raises(AsymmetricEntry) as exc:
        validate_matrix([[1, 2], [3, 1]])
    assert exc.value.pair == (0, 1)


def test_diagonal_not_one():
    with pytest.raises(DiagonalNotOne) as exc:
        validate_matrix([[2]])
    assert exc.value.pair == (0, 0)


def test_off_diagonal_below_two():
    with pytest.raises(OffDiagonalBelowTwo) as exc:
        validate_matrix([[1, 1], [1, 1]])
    assert exc.value.pair == (0, 1)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        validate_matrix([[1, 3]])


def test_junk_entry_rejected():
    with pytest.raises(ValueError):
        validate_matrix([[1, 2.5], [2.5, 1]])


def test_bool_entry_rejected():
    with pytest.raises(ValueError, match=r"order entry \(0,1\) is a bool"):
        validate_matrix([[1, True], [True, 1]])


def test_more_than_255_generators_rejected():
    with pytest.raises(ValueError, match="at most 255 generators are supported"):
        validate_matrix([[1] * 256] * 256)


def test_inf_spellings_are_equivalent():
    a = validate_matrix([[1, "inf"], ["inf", 1]])
    b = validate_matrix([[1, math.inf], [math.inf, 1]])
    assert a == b
    assert a.is_infinite(0, 1)
    assert a.m(0, 1) == INF


def test_integral_floats_normalized():
    m = validate_matrix([[1, 3.0], [3.0, 1]])
    assert m.m(0, 1) == 3
    assert isinstance(m.m(0, 1), int)


def test_submatrix_preserves_orders(g1):
    sub = g1.matrix.submatrix({1, 2})
    assert sub.orders == ((1, 2), (2, 1))


def test_config_round_trip(g1):
    data = config_to_dict(g1)
    assert data["orders"][0][1] == "inf"
    again = config_from_dict(data)
    assert again.matrix == g1.matrix
    assert again.names == g1.names


def test_config_rejects_duplicate_names():
    with pytest.raises(ValueError):
        config_from_dict({"generators": ["a", "a"], "orders": [[1, 3], [3, 1]]})


def test_config_rejects_name_count_mismatch():
    with pytest.raises(ValueError):
        config_from_dict({"generators": ["a"], "orders": [[1, 3], [3, 1]]})


def test_config_rejects_missing_fields():
    with pytest.raises(ValueError, match=r"config is missing fields: \['orders'\]"):
        config_from_dict({"generators": ["a"]})


def test_preset_rejects_small_dihedral_order():
    with pytest.raises(ValueError, match=r"I2\(m\) needs m >= 3"):
        preset("I2(2)")


def test_diagram_leaves_eq_hash_and_repr_alone(g1):
    fresh = validate_matrix([list(row) for row in g1.matrix.orders])
    g1.matrix.diagram  # cached on one of the two equal matrices only
    assert "diagram" in vars(g1.matrix) and "diagram" not in vars(fresh)
    assert fresh == g1.matrix
    assert hash(fresh) == hash(g1.matrix)
    assert repr(fresh) == repr(g1.matrix)
    # G1: m(s0, t0) = inf, m(s0, t1) = 3, m(t0, t1) = 2.
    assert fresh.diagram == g1.matrix.diagram == ((0b010, 0b001, 0), (0b110, 0b001, 0b001))
    assert {fresh: 1}[g1.matrix] == 1


def test_diagram_of_the_rank_255_all_infinite_matrix():
    n = 255
    matrix = validate_matrix([[1 if i == j else "inf" for j in range(n)] for i in range(n)])
    others = tuple((1 << n) - 1 - (1 << s) for s in range(n))
    assert matrix.diagram == (others, others)
