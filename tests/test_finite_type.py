"""Catalogue recognition against explicit enumeration and known orders."""

import random
from itertools import combinations

import pytest

from coxkit import (
    INF,
    classify,
    full_group,
    hypothesis_check,
    is_spherical,
    maximal_spherical_subsets,
    preset,
    spherical_subsets,
    validate_matrix,
)


def _labels(verdict):
    return sorted(str(label) for _, label in verdict.components)


def test_empty_subset_is_trivial(g1):
    verdict = classify(g1.matrix, ())
    assert verdict.spherical
    assert verdict.order == 1
    assert verdict.components == ()


def test_commuting_pair_is_a1_a1(g1):
    verdict = classify(g1.matrix, g1.subset("t0,t1"))
    assert verdict.spherical
    assert _labels(verdict) == ["A1", "A1"]
    assert verdict.order == 4


def test_all_threes_triangle_is_infinite(ta2):
    verdict = classify(ta2.matrix, {0, 1, 2})
    assert not verdict.spherical
    assert verdict.order == INF
    assert _labels(verdict) == ["Infinite"]


def test_is_spherical_examples(g1):
    assert is_spherical(g1.matrix, {0})
    assert not is_spherical(g1.matrix, g1.subset("s0,t0"))
    assert is_spherical(g1.matrix, g1.subset("s0,t1"))


@pytest.mark.parametrize(
    "name,order",
    [("A2", 6), ("A3", 24), ("B3", 48), ("H3", 120), ("I2(7)", 14)],
)
def test_full_system_orders(name, order):
    cfg = preset(name)
    verdict = classify(cfg.matrix, range(cfg.matrix.n))
    assert verdict.spherical
    assert verdict.order == order


def test_catalogue_labels_on_chains():
    # Path diagrams with one marked edge, checked against the catalogue.
    cases = [
        ([[1, 3], [3, 1]], "A2"),
        ([[1, 4], [4, 1]], "B2"),
        ([[1, 5], [5, 1]], "I2(5)"),
        ([[1, 7], [7, 1]], "I2(7)"),
        ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], "A3"),
        ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], "B3"),
        ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], "H3"),
        ([[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], "H4"),
        ([[1, 3, 2, 2], [3, 1, 4, 2], [2, 4, 1, 3], [2, 2, 3, 1]], "F4"),
    ]
    for table, expected in cases:
        matrix = validate_matrix(table)
        verdict = classify(matrix, range(matrix.n))
        assert _labels(verdict) == [expected], table


def test_catalogue_labels_on_branched_diagrams():
    def star(arms):
        # One central node 0; arms are lists of consecutive new nodes.
        n = 1 + sum(arms)
        table = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        nxt = 1
        for arm in arms:
            prev = 0
            for _ in range(arm):
                table[prev][nxt] = table[nxt][prev] = 3
                prev = nxt
                nxt += 1
        return validate_matrix(table)

    d4 = star([1, 1, 1])
    assert _labels(classify(d4, range(d4.n))) == ["D4"]
    d5 = star([1, 1, 2])
    assert _labels(classify(d5, range(d5.n))) == ["D5"]
    e6 = star([1, 2, 2])
    assert _labels(classify(e6, range(e6.n))) == ["E6"]
    e7 = star([1, 2, 3])
    assert _labels(classify(e7, range(e7.n))) == ["E7"]
    e8 = star([1, 2, 4])
    assert _labels(classify(e8, range(e8.n))) == ["E8"]
    e6_tilde = star([2, 2, 2])
    assert _labels(classify(e6_tilde, range(e6_tilde.n))) == ["Infinite"]
    e8_tilde = star([1, 2, 5])
    assert _labels(classify(e8_tilde, range(e8_tilde.n))) == ["Infinite"]
    degree_four = star([1, 1, 1, 1])
    assert _labels(classify(degree_four, range(degree_four.n))) == ["Infinite"]


def test_affine_chains_are_infinite():
    cases = [
        [[1, 4, 2], [4, 1, 4], [2, 4, 1]],          # 4-4 chain
        [[1, 6, 2], [6, 1, 3], [2, 3, 1]],          # 6 beyond rank 2
        [[1, 3, 2, 2], [3, 1, 5, 2], [2, 5, 1, 3], [2, 2, 3, 1]],  # interior 5
        [[1, "inf"], ["inf", 1]],                   # infinite dihedral
    ]
    for table in cases:
        matrix = validate_matrix(table)
        assert not classify(matrix, range(matrix.n)).spherical


def test_interior_four_only_f4():
    # Five-node path with the 4 inside is affine, hence infinite.
    table = [
        [1, 3, 2, 2, 2],
        [3, 1, 4, 2, 2],
        [2, 4, 1, 3, 2],
        [2, 2, 3, 1, 3],
        [2, 2, 2, 3, 1],
    ]
    matrix = validate_matrix(table)
    assert not classify(matrix, range(matrix.n)).spherical


def test_orders_match_enumeration_up_to_200(a3, b3, h3, g1, i27):
    for cfg in (a3, b3, h3, g1, i27):
        for T in spherical_subsets(cfg.matrix):
            verdict = classify(cfg.matrix, T)
            if verdict.order > 200:
                continue
            group = full_group(cfg.matrix.submatrix(T), max_elements=verdict.order + 1)
            assert len(group) == verdict.order, (cfg.label, sorted(T))


def _diagram(n, edges):
    table = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, m in edges:
        table[i][j] = table[j][i] = m
    return validate_matrix(table)


def _chain(*orders):
    return _diagram(len(orders) + 1, [(i, i + 1, m) for i, m in enumerate(orders)])


CATALOGUE = (
    [(f"A{k}", _chain(*[3] * (k - 1))) for k in range(1, 7)]
    + [(f"B{k}", _chain(*[3] * (k - 2), 4)) for k in range(2, 6)]
    + [(f"D{k}", _diagram(k, [(i, i + 1, 3) for i in range(k - 2)] + [(k - 3, k - 1, 3)]))
       for k in (4, 5)]
    + [("E6", _diagram(6, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (2, 5, 3)])),
       ("F4", _chain(3, 4, 3)), ("H3", _chain(5, 3)), ("H4", _chain(5, 3, 3))]
    + [(f"I2({m})", _chain(m)) for m in range(5, 9)]
)


@pytest.mark.parametrize("label, matrix", CATALOGUE, ids=[label for label, _ in CATALOGUE])
def test_degree_table_matches_enumeration(label, matrix):
    # Order = product of the degrees, l(w0) = sum of (degree - 1).
    verdict = classify(matrix, range(matrix.n))
    assert _labels(verdict) == [label]
    group = full_group(matrix)
    assert verdict.order == len(group)
    assert verdict.longest == group.elements[-1].length


def test_nonspherical_balls_keep_growing(ta2, dinf, g1):
    from coxkit import ball

    for cfg in (ta2, dinf, g1):
        sizes = [len(ball(cfg.matrix, r)) for r in range(7)]
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


def test_subset_monotonicity(b3, g1, ta2):
    for cfg in (b3, g1, ta2):
        gens = range(cfg.matrix.n)
        for r in range(cfg.matrix.n + 1):
            for T in combinations(gens, r):
                if is_spherical(cfg.matrix, T):
                    for r2 in range(len(T)):
                        for U in combinations(T, r2):
                            assert is_spherical(cfg.matrix, U)


def test_maximal_spherical_examples(a2, g1, dinf):
    assert maximal_spherical_subsets(a2.matrix) == [frozenset({0, 1})]
    assert maximal_spherical_subsets(g1.matrix) == [
        g1.subset("s0,t1"),
        g1.subset("t0,t1"),
    ]
    assert maximal_spherical_subsets(dinf.matrix) == [frozenset({0}), frozenset({1})]


def test_maximal_means_no_spherical_extension(g1, ta2):
    for cfg in (g1, ta2):
        for T in maximal_spherical_subsets(cfg.matrix):
            assert is_spherical(cfg.matrix, T)
            for s in range(cfg.matrix.n):
                if s not in T:
                    assert not is_spherical(cfg.matrix, T | {s})


def test_hypothesis_check_examples(a2, g1):
    report = hypothesis_check(g1.matrix, g1.subset("t0,t1"), g1.index("s0"))
    assert report.ok
    assert report.witnesses == (g1.index("t0"),)

    report = hypothesis_check(g1.matrix, g1.subset("s0,t1"), g1.index("t0"))
    assert not report.ok  # m(t0, t1) = 2 < 3

    for s0 in range(a2.matrix.n):
        assert not hypothesis_check(a2.matrix, {0, 1}, s0).ok


@pytest.mark.parametrize("index", [-3, -1, 3, 7])
def test_hypothesis_check_rejects_out_of_range_s0(g1, index):
    with pytest.raises(ValueError, match=f"generator index {index} out of range"):
        hypothesis_check(g1.matrix, g1.subset("t0,t1"), index)


@pytest.mark.parametrize("index", [-1, 3])
def test_hypothesis_check_rejects_out_of_range_members(g1, index):
    with pytest.raises(ValueError, match=f"generator index {index} out of range"):
        hypothesis_check(g1.matrix, {g1.index("t1"), index}, g1.index("s0"))


def _random_matrix(rng, n, share=None):
    table = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    if share is None:
        share = rng.random()  # from nearly commuting to nearly complete diagrams
    for i, j in combinations(range(n), 2):
        if rng.random() < share:
            table[i][j] = table[j][i] = rng.choice([3, 4, 5, 6, 7, "inf"])
    return validate_matrix(table)


def _subset_scan(matrix):
    """Reference: classify every one of the 2^n subsets."""
    gens = range(matrix.n)
    spherical = [
        frozenset(comb)
        for r in range(matrix.n + 1)
        for comb in combinations(gens, r)
        if is_spherical(matrix, comb)
    ]
    maximal = [
        T for T in spherical
        if all(not is_spherical(matrix, T | {s}) for s in gens if s not in T)
    ]
    return spherical, sorted(maximal, key=sorted)


# Share of m != 2 pairs in the rank-14 cases, the benchmark's largest rank.
RANK_14_SHARE = {"sparse-14": 0.15, "dense-14": 0.6}


@pytest.mark.parametrize("seed", [*range(40), *RANK_14_SHARE])
def test_enumeration_matches_subset_scan(seed):
    rng = random.Random(f"spherical-enumeration:{seed}")
    if seed in RANK_14_SHARE:
        matrix = _random_matrix(rng, 14, RANK_14_SHARE[seed])
    else:
        matrix = _random_matrix(rng, rng.randint(0, 10))
    spherical, maximal = _subset_scan(matrix)
    assert spherical_subsets(matrix) == spherical
    assert maximal_spherical_subsets(matrix) == maximal


def test_spherical_subsets_returns_a_fresh_list(b3):
    first = spherical_subsets(b3.matrix)
    first.clear()
    assert len(spherical_subsets(b3.matrix)) == 8


def test_maximal_spherical_at_rank_255_all_infinite():
    n = 255
    matrix = validate_matrix([[1 if i == j else "inf" for j in range(n)] for i in range(n)])
    singletons = [frozenset({s}) for s in range(n)]
    assert maximal_spherical_subsets(matrix) == singletons
    assert spherical_subsets(matrix) == [frozenset()] + singletons
    report = hypothesis_check(matrix, {0}, 1)
    assert report.ok and report.witnesses == (0,)


def test_maximal_spherical_of_a2_blocks_joined_by_infinity():
    # 30 A2 blocks {2k, 2k+1}; every pair of generators in different blocks
    # has m = inf, so the blocks are the maximal spherical subsets.
    n = 60
    table = [["inf"] * n for _ in range(n)]
    for k in range(0, n, 2):
        table[k][k] = table[k + 1][k + 1] = 1
        table[k][k + 1] = table[k + 1][k] = 3
    matrix = validate_matrix(table)
    blocks = [frozenset({k, k + 1}) for k in range(0, n, 2)]
    assert maximal_spherical_subsets(matrix) == blocks
    assert len(spherical_subsets(matrix)) == 1 + n + len(blocks)
