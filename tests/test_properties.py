"""Property-based cross-validation of the reducer against the BFS oracle."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coxkit import INF, ball, reduce_word, validate_matrix  # noqa: E402


@st.composite
def matrix_and_word(draw):
    n = draw(st.integers(1, 4))
    table = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(st.sampled_from([2, 3, 4, 5, 6, INF]))
    word = draw(st.lists(st.integers(0, n - 1), max_size=6))
    return validate_matrix(table), tuple(word)


@settings(derandomize=True, deadline=None)
@given(matrix_and_word())
def test_reduce_matches_oracle_on_random_matrices(case):
    matrix, word = case
    assert reduce_word(matrix, word) == ball(matrix, 6).resolve(word)
