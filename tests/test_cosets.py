"""Longest coset representatives, the one-letter evolution, descent classes."""

from dataclasses import replace

import pytest

from coxkit import (
    CosetLongest,
    Element,
    LengthDecreases,
    NonSphericalSubset,
    ball,
    coset_elements,
    coset_step,
    in_WT_class,
    lemma4_apply,
    longest_in_coset,
    longest_in_coset_oracle,
    multiply,
    reduce_word,
    right_descents,
    spherical_subsets,
)


def test_empty_subset_trivial(g1):
    w = reduce_word(g1.matrix, g1.word("s0,t1"))
    pair = longest_in_coset(frozenset(), w)
    assert pair.x == Element.identity(g1.matrix)
    assert pair.v == w


def test_longest_in_coset_examples(g1):
    T = g1.subset("t0,t1")
    s0 = reduce_word(g1.matrix, g1.word("s0"))
    pair = longest_in_coset(T, s0)
    assert g1.spell(pair.x) == ["t0", "t1"]
    assert g1.spell(pair.v) == ["t0", "t1", "s0"]
    assert pair.check(T)

    t0 = reduce_word(g1.matrix, g1.word("t0"))
    pair = longest_in_coset(T, t0)
    assert g1.spell(pair.x) == ["t1"]
    assert g1.spell(pair.v) == ["t0", "t1"]


def test_check_rejects_broken_invariants(a2, g1):
    T = g1.subset("t0,t1")
    pair = longest_in_coset(T, reduce_word(g1.matrix, g1.word("s0")))
    assert not replace(pair, v=pair.base).check(T)  # v != x.base
    # x.base = v, but the lengths do not add: a.a = e.
    a = a2.gen("a")
    assert not CosetLongest(x=a, v=Element.identity(a2.matrix), base=a).check({0})


def test_longest_rejects_nonspherical(g1):
    with pytest.raises(NonSphericalSubset):
        longest_in_coset(g1.subset("s0,t0"), Element.identity(g1.matrix))


def test_greedy_matches_oracle_everywhere(a3, b3, ta2, g1):
    for cfg in (a3, b3, ta2, g1):
        b = ball(cfg.matrix, 5)
        for T in spherical_subsets(cfg.matrix):
            for w in b.elements:
                pair = longest_in_coset(T, w)
                assert pair.v == longest_in_coset_oracle(T, w), (cfg.label, sorted(T), w)
                assert pair.check(T)
                assert pair.v.length == pair.x.length + w.length


def test_greedy_scan_order_irrelevant(g1, b3):
    # Rerun the ascent with the subset scanned in reverse; same summit.
    for cfg in (g1, b3):
        b = ball(cfg.matrix, 4)
        for T in spherical_subsets(cfg.matrix):
            gens = [Element.generator(cfg.matrix, t) for t in sorted(T, reverse=True)]
            for w in b.elements:
                v = w
                improved = True
                while improved:
                    improved = False
                    for g in gens:
                        tv = multiply(g, v)
                        if tv.length > v.length:
                            v = tv
                            improved = True
                            break
                assert v == longest_in_coset(T, w).v


def test_descent_characterization_both_ways(g1):
    T = g1.subset("t0,t1")
    b = ball(g1.matrix, 5)
    for w in b.elements:
        top = longest_in_coset(T, w).v
        for member in coset_elements(T, w):
            all_descend = all(
                multiply(Element.generator(g1.matrix, t), member).length < member.length
                for t in T
            )
            assert all_descend == (member == top)


def test_coset_step_examples(g1):
    T = g1.subset("t0,t1")
    s0 = reduce_word(g1.matrix, g1.word("s0"))
    x = reduce_word(g1.matrix, g1.word("t0,t1"))

    out = coset_step(longest_in_coset(T, s0), g1.index("t0"))
    assert out.unchanged
    assert out.x_next == x
    assert g1.spell(out.pair.base) == ["s0", "t0"]
    assert g1.spell(out.pair.v) == ["t0", "t1", "s0", "t0"]

    e = Element.identity(g1.matrix)
    out = coset_step(longest_in_coset(T, e), g1.index("t0"))
    assert not out.unchanged
    deletions = [reduce_word(g1.matrix, x.letters[:i] + x.letters[i + 1:]) for i in range(x.length)]
    assert deletions.index(out.x_next) == 0
    assert g1.spell(out.x_next) == ["t1"]
    assert g1.spell(out.pair.v) == ["t0", "t1"]

    w = reduce_word(g1.matrix, g1.word("s0,t1"))
    out = coset_step(longest_in_coset(frozenset(), w), g1.index("t0"))
    assert out.unchanged
    assert out.x_next == e


def test_coset_step_precondition_errors(g1):
    T = g1.subset("t0,t1")
    t0 = reduce_word(g1.matrix, g1.word("t0"))
    with pytest.raises(LengthDecreases):
        coset_step(longest_in_coset(T, t0), g1.index("t0"))


def test_coset_step_matches_scratch_everywhere(a3, b3, ta2, g1):
    for cfg in (a3, b3, ta2, g1):
        b = ball(cfg.matrix, 4)
        small = [e for e in b.elements if e.length <= 3]
        for T in spherical_subsets(cfg.matrix):
            for w in small:
                pair = longest_in_coset(T, w)
                x = pair.x
                for s in range(cfg.matrix.n):
                    ws = multiply(w, Element.generator(cfg.matrix, s))
                    if ws.length != w.length + 1:
                        continue
                    out = coset_step(pair, s)
                    assert out.pair.base == ws
                    assert out.pair.check(T)
                    assert out.x_next == longest_in_coset(T, ws).x
                    assert out.x_next.length <= x.length
                    if out.unchanged:
                        assert out.x_next == x
                    else:
                        assert any(
                            reduce_word(cfg.matrix, x.letters[:i] + x.letters[i + 1:]) == out.x_next
                            for i in range(x.length)
                        )


def test_in_WT_class_examples(a2):
    e = Element.identity(a2.matrix)
    assert in_WT_class(e, frozenset())
    aba = reduce_word(a2.matrix, a2.word("a,b,a"))
    assert in_WT_class(aba, {0, 1})
    ab = reduce_word(a2.matrix, a2.word("a,b"))
    assert not in_WT_class(ab, {0, 1})
    assert right_descents(ab) == frozenset(a2.word("b"))


def test_classes_partition_the_ball(g1, ta2):
    for cfg in (g1, ta2):
        b = ball(cfg.matrix, 5)
        seen = {}
        for w in b.elements:
            T = right_descents(w)
            assert in_WT_class(w, T)
            seen.setdefault(T, []).append(w)
        assert sum(len(v) for v in seen.values()) == len(b)


def test_lemma4_examples(a2, g1):
    t0t1 = reduce_word(g1.matrix, g1.word("t0,t1"))
    report = lemma4_apply(t0t1, g1.index("s0"))
    assert report.hypothesis_ok and report.conclusion_ok

    e = Element.identity(g1.matrix)
    for s0 in range(g1.matrix.n):
        assert not lemma4_apply(e, s0).hypothesis_ok

    a = reduce_word(a2.matrix, a2.word("a"))
    assert not lemma4_apply(a, a2.index("b")).hypothesis_ok


@pytest.mark.parametrize("s0", [-1, 3, 255])
def test_lemma4_rejects_out_of_range_s0(a3, s0):
    ab = reduce_word(a3.matrix, a3.word("a,b"))
    with pytest.raises(ValueError, match="generator index"):
        lemma4_apply(ab, s0)


def test_lemma4_holds_over_g1_ball(g1):
    b = ball(g1.matrix, 6)
    hits = 0
    for w in b.elements:
        for s0 in range(g1.matrix.n):
            report = lemma4_apply(w, s0)
            if report.hypothesis_ok:
                hits += 1
                assert report.conclusion_ok, (w, s0)
    assert hits > 0
