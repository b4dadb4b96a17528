"""The BFS enumeration oracle: balls, cosets, longest elements."""

from dataclasses import replace
from itertools import product

import pytest

from coxkit import (
    Element,
    NonSphericalSubset,
    NonUniqueMaximum,
    SizeBudgetExceeded,
    ball,
    coset_elements,
    full_group,
    longest_in_coset_oracle,
    oracle,
    preset,
    reduce_word,
    validate_matrix,
)
from coxkit.cli import run_command


def test_a2_ball_three_levels(a2):
    b = ball(a2.matrix, 3)
    assert len(b) == 6
    assert b.level_sizes() == (1, 2, 2, 1)


@pytest.mark.parametrize("budget", [0, -5])
def test_nonpositive_max_elements_is_rejected(a2, budget, capsys):
    with pytest.raises(ValueError, match="max_elements must be >= 1"):
        ball(a2.matrix, 2, max_elements=budget)
    with pytest.raises(ValueError, match="max_elements must be >= 1"):
        full_group(a2.matrix, max_elements=budget)
    code = run_command(["enumerate", "--system", "A2", "--radius", "2",
                        "--max-elements", str(budget)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: max_elements must be >= 1"]


def test_negative_radius_is_rejected(a2):
    with pytest.raises(ValueError, match="radius must be >= 0"):
        ball(a2.matrix, -1)


def test_lookups_past_the_radius(a2):
    b = ball(a2.matrix, 2)
    ab = reduce_word(a2.matrix, a2.word("a,b"))
    assert b.edge(ab, a2.index("b")) == a2.gen("a")
    assert b.edge(ab, a2.index("a")) is None
    with pytest.raises(ValueError, match=r"Element\(0\.1\.0\) is outside ball\(2\)"):
        b.depth_of(reduce_word(a2.matrix, a2.word("a,b,a")))


def test_radius_zero_is_identity(g1):
    b = ball(g1.matrix, 0)
    assert len(b) == 1
    assert b.elements == [Element.identity(g1.matrix)]


def test_infinite_dihedral_two_per_level(dinf):
    b = ball(dinf.matrix, 5)
    assert len(b) == 11
    assert b.level_sizes() == (1, 2, 2, 2, 2, 2)


def test_huge_dihedral_order_ball():
    # The polygon walk stops at its first step that fails to descend, so a
    # huge m costs no more than the ball: I2(10**18) looks like Dinf here.
    b = ball(preset("I2(1000000000000000000)").matrix, 6)
    assert b.level_sizes() == (1, 2, 2, 2, 2, 2, 2)


def test_tilde_a2_level_sizes(ta2):
    # The affine triangle group has exactly 3k elements of length k >= 1.
    b = ball(ta2.matrix, 8)
    assert b.level_sizes() == (1, 3, 6, 9, 12, 15, 18, 21, 24)


def test_depths_are_lengths(b3, g1):
    for cfg in (b3, g1):
        b = ball(cfg.matrix, 6)
        for e in b.elements:
            assert b.depth_of(e) == e.length
            assert reduce_word(cfg.matrix, e.letters) == e


def test_ball_count_non_decreasing_and_stabilizes(a3):
    sizes = [len(ball(a3.matrix, r)) for r in range(9)]
    assert sizes == sorted(sizes)
    assert sizes[-1] == sizes[-2] == 24  # |A3|, reached at its longest length 6


def test_resolve_agrees_with_reduce(b3, ta2, g1):
    for cfg in (b3, ta2, g1):
        b = ball(cfg.matrix, 6)
        for word in product(range(cfg.matrix.n), repeat=6):
            assert b.resolve(word) == reduce_word(cfg.matrix, word)


def test_resolve_rejects_escaping_words(a2):
    b = ball(a2.matrix, 2)
    with pytest.raises(ValueError, match="word of length 3 leaves ball"):
        b.resolve(a2.word("a,b,a"))
    with pytest.raises(ValueError, match="word of length 3 leaves ball"):
        b.resolve(iter(a2.word("a,b,a")))


@pytest.mark.parametrize("index", [-1, 2])
def test_ball_rejects_out_of_range_generators(a2, index):
    b = ball(a2.matrix, 3)
    message = f"generator index {index} out of range"
    with pytest.raises(ValueError, match=message):
        b.resolve((index,))
    with pytest.raises(ValueError, match=message):
        b.edge(Element.identity(a2.matrix), index)


def test_full_group_raises_when_bfs_leaves_edges_open(a2, monkeypatch):
    bfs = oracle._bfs
    monkeypatch.setattr(oracle, "_bfs", lambda *args: (*bfs(*args)[:2], False))
    with pytest.raises(RuntimeError, match="unexplored edges"):
        full_group(a2.matrix)


def test_ball_rejects_elements_of_another_system(a2, g1):
    b = ball(a2.matrix, 3)
    e = reduce_word(g1.matrix, (0, 1))
    assert e not in b
    for lookup in (b.depth_of, lambda u: b.edge(u, 0), b.right_descents_of):
        with pytest.raises(ValueError, match="different Coxeter system"):
            lookup(e)
    # An equal matrix built separately names the same system.
    twin = reduce_word(validate_matrix([list(row) for row in a2.matrix.orders]), (0, 1))
    assert twin in b
    assert b.depth_of(twin) == 2


def test_parabolic_elements_checks_the_catalogue_order(a2, monkeypatch):
    # W_T, read off the ball as the identity's component along T-edges,
    # must have the catalogue order.
    classify = oracle.classify
    monkeypatch.setattr(
        oracle, "classify",
        lambda *args: replace(classify(*args), order=classify(*args).order + 1),
    )
    e = Element.identity(a2.matrix)
    with pytest.raises(RuntimeError, match=r"W_\[0, 1\] has 6 elements, not 7; this signals a defect"):
        full_group(a2.matrix).coset({0, 1}, e)
    with pytest.raises(RuntimeError, match="signals a defect"):
        coset_elements({0, 1}, e)


def test_size_budget(a3):
    with pytest.raises(SizeBudgetExceeded):
        ball(a3.matrix, 4, max_elements=3)


def test_oracle_descents_match_depths(g1):
    b = ball(g1.matrix, 5)
    for e in b.elements:
        if e.length > 4:
            continue
        descents = b.right_descents_of(e)
        for s in range(g1.matrix.n):
            neighbour = b.edge(e, s)
            assert neighbour is not None
            assert (neighbour.length < e.length) == (s in descents)


def test_full_group_closure_flag(a2, i27):
    assert full_group(a2.matrix).closed
    assert len(full_group(i27.matrix)) == 14
    assert not ball(a2.matrix, 2).closed
    assert ball(a2.matrix, 3).closed


def test_coset_elements_examples(a2, g1):
    e = Element.identity(g1.matrix)
    w = reduce_word(g1.matrix, g1.word("s0"))
    assert coset_elements(frozenset(), w) == [w]

    coset = coset_elements(g1.subset("t0,t1"), w)
    spelled = {".".join(g1.spell(c)) for c in coset}
    assert spelled == {"s0", "t0.s0", "t1.s0", "t0.t1.s0"}
    assert sorted(c.length for c in coset) == [1, 2, 2, 3]

    ea = Element.identity(a2.matrix)
    assert {c.letters for c in coset_elements({0}, ea)} == {(), (0,)}


def test_coset_elements_distinct_and_sized(b3, g1):
    from coxkit import classify, spherical_subsets

    for cfg in (b3, g1):
        b = ball(cfg.matrix, 4)
        for T in spherical_subsets(cfg.matrix):
            order = classify(cfg.matrix, T).order
            for w in b.elements:
                if w.length > 3:
                    continue
                coset = coset_elements(T, w)
                assert len(coset) == order
                assert len(set(coset)) == order


def test_cosets_never_call_the_reducer(b3, g1, monkeypatch):
    from coxkit import maximal_spherical_subsets, words

    cases = []
    for cfg in (b3, g1):
        b = ball(cfg.matrix, 12)
        for T in maximal_spherical_subsets(cfg.matrix):
            for w in b.elements:
                if w.length <= 2:
                    cases.append((b, T, w, coset_elements(T, w), longest_in_coset_oracle(T, w)))

    def no_reducer(*args):
        raise AssertionError("the oracle called the reducer")

    monkeypatch.setattr(words, "_reduce_bytes", no_reducer)
    for b, T, w, coset, top in cases:
        assert b.coset(T, w) == coset
        assert coset_elements(T, w) == coset
        assert longest_in_coset_oracle(T, w) == top == coset[-1]


def test_ball_coset_needs_the_longest_coset_member_inside(a2, g1):
    w = reduce_word(g1.matrix, g1.word("s0"))
    T = g1.subset("s0,t1")  # A2: l(w0) = 3, so W_T.s0 reaches length 4
    with pytest.raises(ValueError, match=r"needs ball\(4\), not ball\(3\)"):
        ball(g1.matrix, 3).coset(T, w)
    assert ball(g1.matrix, 4).coset(T, w) == coset_elements(T, w)
    with pytest.raises(NonSphericalSubset):
        ball(g1.matrix, 4).coset(g1.subset("s0,t0"), w)
    # A closed ball holds every coset, however long w is.
    group = full_group(a2.matrix)
    aba = group.elements[-1]
    assert group.coset({0}, aba) == [Element(a2.matrix, (1, 0)), aba]


def test_e6_coset_of_the_whole_group():
    # E6: the chain 0-1-2-3-4 with 5 attached to the middle node.
    table = [[1 if i == j else 2 for j in range(6)] for i in range(6)]
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)):
        table[i][j] = table[j][i] = 3
    matrix = validate_matrix(table)
    coset = coset_elements(range(6), Element.identity(matrix))
    assert len(set(coset)) == len(coset) == 51_840
    assert coset[-1].length == 36


def test_coset_rejects_nonspherical(g1):
    w = Element.identity(g1.matrix)
    with pytest.raises(NonSphericalSubset):
        coset_elements(g1.subset("s0,t0"), w)


def test_longest_in_coset_oracle_examples(a2, g1):
    w = reduce_word(g1.matrix, g1.word("s0"))
    assert g1.spell(longest_in_coset_oracle(g1.subset("t0,t1"), w)) == ["t0", "t1", "s0"]
    assert longest_in_coset_oracle(frozenset(), w) == w
    ea = Element.identity(a2.matrix)
    assert a2.spell(longest_in_coset_oracle({0, 1}, ea)) == ["a", "b", "a"]


def test_unique_top_rejects_a_tied_maximum(a2):
    # No true coset has two longest members; a hand-built list stands in.
    e, a, b = Element.identity(a2.matrix), a2.gen("a"), a2.gen("b")
    assert oracle.unique_top({0}, e, [e, a]) == a
    with pytest.raises(NonUniqueMaximum, match=r"W_\[0, 1\]\.Element\(e\) has two elements of maximal length 1"):
        oracle.unique_top({0, 1}, e, [e, a, b])


def test_branched_diagram_enumeration():
    # D4: three arms around a central node, order 2^3 * 4! = 192.
    from coxkit import classify, validate_matrix

    table = [
        [1, 3, 3, 3],
        [3, 1, 2, 2],
        [3, 2, 1, 2],
        [3, 2, 2, 1],
    ]
    matrix = validate_matrix(table)
    assert classify(matrix, range(4)).order == 192
    assert len(full_group(matrix)) == 192


def test_rank_four_oracle_agrees_with_reduce():
    from coxkit import validate_matrix

    matrix = validate_matrix([
        [1, 3, 2, 2],
        [3, 1, "inf", 2],
        [2, "inf", 1, 4],
        [2, 2, 4, 1],
    ])
    b = ball(matrix, 5)
    for word in product(range(4), repeat=5):
        assert b.resolve(word) == reduce_word(matrix, word)


def test_randomized_systems_cross_validation():
    # Independent-route agreement over a deterministic batch of random
    # systems with mixed orders, ranks 2..5.
    import math
    import random

    from coxkit import left_descents, right_descents, validate_matrix

    rng = random.Random(987)
    choices = [2, 2, 3, 3, 3, 4, 5, 6, 7, math.inf, math.inf]
    for _ in range(20):
        n = rng.choice([2, 3, 3, 4, 5])
        table = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                table[i][j] = table[j][i] = rng.choice(choices)
        matrix = validate_matrix(table)
        radius = 6 if n <= 3 else 4
        b = ball(matrix, radius, max_elements=100_000)
        for length in range(radius + 1):
            for word in product(range(n), repeat=length):
                assert b.resolve(word) == reduce_word(matrix, word), (table, word)
        for e in b.elements:
            assert b.depth_of(e) == e.length
            assert b.right_descents_of(e) == right_descents(e)
            assert left_descents(e) == b.right_descents_of(b.resolve(e.letters[::-1]))
