"""Word-problem operations against hand-checked and oracle-checked values."""

from itertools import product

import pytest

from coxkit import (
    ClosureBudgetExceeded,
    Element,
    ball,
    in_parabolic,
    inverse,
    is_reduced,
    left_descents,
    multiply,
    reduce_word,
    right_descents,
    words,
)


def test_adjacent_pair_cancels(a2):
    assert reduce_word(a2.matrix, a2.word("a,a")).letters == ()


def test_braid_relation_power_is_identity(a2):
    # (ab)^3 = 1 in the order-6 dihedral group.
    assert reduce_word(a2.matrix, a2.word("a,b,a,b,a,b")).letters == ()


def test_commuting_pair_cancels_around(g1):
    # t0 and t1 commute, so t0.t1.t0 = t1.
    assert g1.spell(reduce_word(g1.matrix, g1.word("t0,t1,t0"))) == ["t1"]


def test_is_reduced(a2):
    assert is_reduced(a2.matrix, ())
    assert is_reduced(a2.matrix, a2.word("a,b,a"))
    assert not is_reduced(a2.matrix, a2.word("a,b,a,b"))


def test_multiply_identity_law(a2):
    e = Element.identity(a2.matrix)
    w = reduce_word(a2.matrix, a2.word("a,b"))
    assert multiply(e, w) == w
    assert multiply(w, e) == w


def test_generator_involution(a2):
    g = a2.gen("a")
    assert multiply(g, g) == Element.identity(a2.matrix)


def test_multiply_ab_ab(a2):
    ab = reduce_word(a2.matrix, a2.word("a,b"))
    assert a2.spell(multiply(ab, ab)) == ["b", "a"]


def test_inverse_examples(a2):
    e = Element.identity(a2.matrix)
    assert inverse(e) == e
    ab = reduce_word(a2.matrix, a2.word("a,b"))
    assert a2.spell(inverse(ab)) == ["b", "a"]
    g = a2.gen("b")
    assert inverse(g) == g


def test_multiply_rejects_mixed_systems(a2, a3):
    with pytest.raises(ValueError):
        multiply(a2.gen("a"), a3.gen("a"))


def test_word_letters_validated(a2):
    for letter in (-1, 2, 5, 256, "a", 1.5):
        message = f"generator index {letter!r} out of range \\[0, 2\\)"
        with pytest.raises(ValueError, match=message):
            reduce_word(a2.matrix, (0, letter))
        with pytest.raises(ValueError, match=message):
            is_reduced(a2.matrix, (0, letter))
        with pytest.raises(ValueError, match=message):
            Element.generator(a2.matrix, letter)


def test_right_descents_examples(a2, g1):
    assert right_descents(Element.identity(a2.matrix)) == frozenset()
    aba = reduce_word(a2.matrix, a2.word("a,b,a"))
    assert right_descents(aba) == frozenset(a2.word("a,b"))
    t0t1 = reduce_word(g1.matrix, g1.word("t0,t1"))
    assert right_descents(t0t1) == frozenset(g1.word("t0,t1"))


def test_left_descents_examples(a2, g1):
    assert left_descents(Element.identity(a2.matrix)) == frozenset()
    ab = reduce_word(a2.matrix, a2.word("a,b"))
    assert left_descents(ab) == frozenset(a2.word("a"))
    t1s0 = reduce_word(g1.matrix, g1.word("t1,s0"))
    assert left_descents(t1s0) == frozenset(g1.word("t1"))


def test_descents_of_a_hand_built_unreduced_element(a2):
    # (a, a) spells the identity, which has no descent on either side.
    aa = Element(a2.matrix, a2.word("a,a"))
    assert right_descents(aa) == frozenset()
    assert left_descents(aa) == frozenset()


def test_both_descent_sets_come_from_one_closure(b3):
    # The canonical word of a reduced element is saturated once; the
    # second side is read from the same cache entry.
    u = reduce_word(b3.matrix, b3.word("a,b,c,b"))
    words._reduce_bytes.cache_clear()
    right_descents(u)
    left_descents(u)
    info = words._reduce_bytes.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_in_parabolic_examples(g1):
    e = Element.identity(g1.matrix)
    assert in_parabolic(e, frozenset())
    t1 = g1.gen("t1")
    assert in_parabolic(t1, g1.subset("t0,t1"))
    s0t1 = reduce_word(g1.matrix, g1.word("s0,t1"))
    assert not in_parabolic(s0t1, g1.subset("t0,t1"))


def test_in_parabolic_matches_subgroup_enumeration(g1):
    # Cross-check the letter test against explicit coset enumeration.
    from coxkit import coset_elements, spherical_subsets

    b = ball(g1.matrix, 5)
    e = Element.identity(g1.matrix)
    for T in spherical_subsets(g1.matrix):
        subgroup = set(coset_elements(T, e))
        for w in b.elements:
            assert in_parabolic(w, T) == (w in subgroup)


def test_closure_budget_raises(a3, monkeypatch):
    # The longest element of A3 has 16 reduced expressions.
    words._reduce_bytes.cache_clear()
    monkeypatch.setattr(words, "CLOSURE_BUDGET", 2)
    word = a3.word("a,b,a,c,b,a")
    with pytest.raises(ClosureBudgetExceeded):
        reduce_word(a3.matrix, word)


def test_budget_error_reports_budget(ta2, monkeypatch):
    words._reduce_bytes.cache_clear()
    monkeypatch.setattr(words, "CLOSURE_BUDGET", 1)
    with pytest.raises(ClosureBudgetExceeded) as exc:
        reduce_word(ta2.matrix, ta2.word("a,b,a"))
    assert exc.value.budget == 1


# Exhaustive word sweeps: reduce() as a canonical form.

def _all_words(n, max_len):
    for length in range(max_len + 1):
        yield from product(range(n), repeat=length)


def test_reduce_is_canonical_form(a2, g1, ta2):
    for cfg in (a2, g1, ta2):
        b = ball(cfg.matrix, 6)
        for word in _all_words(cfg.matrix.n, 6):
            fast = reduce_word(cfg.matrix, word)
            slow = b.resolve(word)
            assert fast == slow, (cfg.label, word)


def test_braid_move_and_deletion_leave_value(b3):
    # Single moves never change reduce(): commutations, braid rewrites,
    # and adjacent-pair deletions.
    from coxkit.words import _kernel

    kernel = _kernel(b3.matrix)
    for word in _all_words(b3.matrix.n, 5):
        w = bytes(word)
        base = reduce_word(b3.matrix, word)
        for pat, rep in kernel.moves:
            start = w.find(pat)
            while start != -1:
                u = w[:start] + rep + w[start + len(pat):]
                assert reduce_word(b3.matrix, tuple(u)) == base
                start = w.find(pat, start + 1)
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                assert reduce_word(b3.matrix, tuple(w[:i] + w[i + 2:])) == base


def test_inverse_properties_over_ball(b3, g1):
    for cfg in (b3, g1):
        for w in ball(cfg.matrix, 5).elements:
            inv = inverse(w)
            assert inv.length == w.length
            assert inverse(inv) == w
            assert right_descents(w) == left_descents(inv)


def test_length_parity_over_ball(ta2):
    b = ball(ta2.matrix, 6)
    for w in b.elements:
        if w.length > 5:
            continue
        for s in range(ta2.matrix.n):
            ws = multiply(w, Element.generator(ta2.matrix, s))
            sw = multiply(Element.generator(ta2.matrix, s), w)
            assert abs(ws.length - w.length) == 1
            assert abs(sw.length - w.length) == 1


def test_reduce_threadsafe_and_cache_transparent(b3):
    # Pure function: concurrent calls and a cleared cache agree with the
    # sequential answers.
    from concurrent.futures import ThreadPoolExecutor

    from coxkit.words import _reduce_bytes

    words = [word for word in _all_words(b3.matrix.n, 6)][::7]
    expected = [reduce_word(b3.matrix, w) for w in words]
    _reduce_bytes.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda w: reduce_word(b3.matrix, w), words))
    assert results == expected
    _reduce_bytes.cache_clear()
    assert [reduce_word(b3.matrix, w) for w in words] == expected


def test_deletion_property_over_words(a3):
    # Any non-reduced word loses two letters that together preserve value.
    for word in _all_words(a3.matrix.n, 5):
        target = reduce_word(a3.matrix, word)
        if target.length >= len(word):
            continue
        assert any(
            reduce_word(a3.matrix, word[:i] + word[i + 1:j] + word[j + 1:]) == target
            for i in range(len(word))
            for j in range(i + 1, len(word))
        ), word
