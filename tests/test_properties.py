"""Property-based cross-validation of the reducer against the BFS oracle."""

from itertools import combinations
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from coxkit import (  # noqa: E402
    INF,
    Element,
    SizeBudgetExceeded,
    ball,
    classify,
    full_group,
    hypothesis_check,
    multiply,
    reduce_word,
    spherical_subsets,
    validate_matrix,
    words,
)
from coxkit.roots import reduce as root_reduce  # noqa: E402


@st.composite
def matrices(draw, max_n=5, orders=(2, 3, 4, 5, 6, 7, 8, INF)):
    n = draw(st.integers(1, max_n))
    table = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = table[j][i] = draw(st.sampled_from(orders))
    return validate_matrix(table)


SMALL_ORDERS = (2, 3, 4, 5, 6, INF)


@st.composite
def matrix_and_word(draw):
    matrix = draw(matrices())
    word = draw(st.lists(st.integers(0, matrix.n - 1), max_size=6))
    return matrix, tuple(word)


@settings(derandomize=True, deadline=None)
@given(matrix_and_word())
def test_reduce_matches_oracle_on_random_matrices(case):
    matrix, word = case
    assert reduce_word(matrix, word) == ball(matrix, len(word)).resolve(word)


@st.composite
def root_cases(draw):
    matrix = draw(matrices(4, SMALL_ORDERS))
    word = draw(st.lists(st.integers(0, matrix.n - 1), max_size=7))
    return matrix, bytes(word)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(root_cases())
@example((validate_matrix([[1, 10**18], [10**18, 1]]), bytes((0, 1) * 3 + (0,))))
@example((validate_matrix([[1, 10**18], [10**18, 1]]), bytes((1, 0, 1, 1, 0))))
def test_root_kernel_matches_oracle(case):
    # The canonical word and both descent sets from the roots, called
    # directly and through the reducer with the saturation cap at 1.
    matrix, word = case
    b = ball(matrix, len(word) + 1)
    u = b.resolve(word)
    left = b.right_descents_of(b.resolve(u.letters[::-1]))
    expected = (u.letters, left, b.right_descents_of(u))
    canonical, left, right = root_reduce(matrix, word, 1 << len(word).bit_length())
    assert (tuple(canonical), set(left), set(right)) == expected
    words._reduce_bytes.cache_clear()
    try:
        with mock.patch.object(words, "SATURATION_CAP", 1):
            assert words._reduce_bytes(matrix, word) == (canonical, left, right)
    finally:
        words._reduce_bytes.cache_clear()


def _down_edge_labels(b):
    """Reference labelling: BFS depths from the adjacency alone, then the
    lex-least label of each vertex is the least label among its
    down-neighbours extended by the connecting letter."""
    n = b.matrix.n
    edges = [b._edges[v * n:(v + 1) * n] for v in range(len(b))]
    depths = [-1] * len(edges)
    depths[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for u in edges[v]:
                if u >= 0 and depths[u] < 0:
                    depths[u] = depths[v] + 1
                    nxt.append(u)
        frontier = nxt
    words = [b""] * len(edges)
    for v in sorted(range(1, len(edges)), key=depths.__getitem__):
        words[v] = min(
            words[u] + bytes((s,))
            for s, u in enumerate(edges[v])
            if u >= 0 and depths[u] == depths[v] - 1
        )
    return words


@settings(derandomize=True, deadline=None)
@given(matrices(), st.integers(0, 5))
def test_discovery_labels_match_down_edge_dp(matrix, radius):
    b = ball(matrix, radius)
    words = list(b._words)
    assert words == _down_edge_labels(b)
    assert words == sorted(words, key=lambda w: (len(w), w))


@settings(derandomize=True, deadline=None)
@given(matrices(), st.integers(0, 5))
def test_flat_adjacency_is_a_graded_graph(matrix, radius):
    # Slot v * n + s holds the id of v.s: edges are symmetric, change the
    # depth by one, and -1 marks an edge out of the ball, so none is left
    # exactly when the next ball adds nothing.
    b = ball(matrix, radius)
    n, edges = matrix.n, b._edges
    assert len(edges) == len(b) * n
    depths = [len(w) for w in b._words]
    for i, u in enumerate(edges):
        v, s = divmod(i, n)
        if u >= 0:
            assert edges[u * n + s] == v
            assert abs(depths[u] - depths[v]) == 1
        else:
            assert depths[v] == radius
    assert b.closed == (-1 not in edges) == (len(ball(matrix, radius + 1)) == len(b))


def _multiplied_coset(members, w):
    """Reference coset: W_T enumerated on its own submatrix, relabelled into
    the ambient system, and each x.w formed by the reducer."""
    back = sorted(members)
    group = full_group(w.matrix.submatrix(frozenset(members)))
    xs = [Element(w.matrix, tuple(back[c] for c in x.letters)) for x in group.elements]
    return sorted((multiply(x, w) for x in xs), key=Element.sort_key)


@st.composite
def cosets(draw):
    matrix = draw(matrices(4, SMALL_ORDERS))
    n = matrix.n
    # l(w0(T)) <= 6 keeps ball(l(w) + l(w0(T))) of a rank-4 system small.
    family = [T for T in spherical_subsets(matrix) if classify(matrix, T).longest <= 6]
    members = draw(st.sampled_from(family[::-1]))  # largest T first
    w = reduce_word(matrix, draw(st.lists(st.integers(0, n - 1), max_size=3)))
    return members, w


@settings(derandomize=True, deadline=None)
@given(cosets())
def test_ball_coset_matches_the_multiplied_coset(case):
    members, w = case
    b = ball(w.matrix, w.length + classify(w.matrix, members).longest)
    assert b.coset(members, w) == _multiplied_coset(members, w)


# The largest finite order of each rank with m <= 6: A1, I2(6), H3 and H4.
LARGEST_ORDER = {1: 2, 2: 12, 3: 120, 4: 14_400}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(matrices(4, SMALL_ORDERS))
def test_classify_matches_the_oracle(matrix):
    verdict = classify(matrix, range(matrix.n))
    try:
        group = full_group(matrix, max_elements=LARGEST_ORDER[matrix.n] + 1)
    except SizeBudgetExceeded:
        assert not verdict.spherical
        return
    assert verdict.spherical
    assert verdict.order == len(group)
    assert verdict.longest == group.elements[-1].length


@settings(derandomize=True, deadline=None)
@given(matrices(6, (2, 3, 4, 5, 6, 7, INF)))
def test_hypothesis_check_matches_its_definition(matrix):
    # Maximality from a scan of all 2^n subsets, not from one-generator
    # extensions; witnesses are checked whether or not ok holds.
    gens = range(matrix.n)
    subsets = [frozenset(c) for r in range(matrix.n + 1) for c in combinations(gens, r)]
    spherical = [T for T in subsets if classify(matrix, T).spherical]
    for T in subsets:
        maximal = T in spherical and not any(T < U for U in spherical)
        for s0 in gens:
            witnesses = tuple(t for t in sorted(T) if matrix.m(s0, t) == INF)
            bounded_below = all(matrix.m(s0, t) >= 3 for t in T)
            report = hypothesis_check(matrix, T, s0)
            assert (report.ok, report.witnesses) == (maximal and bounded_below and bool(witnesses), witnesses)
