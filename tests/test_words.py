"""Word-problem operations against hand-checked and oracle-checked values."""

from collections import deque
from itertools import chain, product

import pytest

from coxkit import (
    INF,
    Element,
    ball,
    full_group,
    in_parabolic,
    inverse,
    is_reduced,
    left_descents,
    multiply,
    preset,
    reduce_word,
    right_descents,
    roots,
    validate_matrix,
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


def test_multiply_accepts_equal_matrix_objects(a2):
    # Two loads of one preset build equal but distinct matrices.
    again = preset("A2")
    assert again.matrix is not a2.matrix
    assert a2.spell(multiply(a2.gen("a"), again.gen("b"))) == ["a", "b"]


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


def _answers(matrix, word):
    u = reduce_word(matrix, word)
    return u, left_descents(u), right_descents(u)


def test_closure_budget_raises(a3, monkeypatch):
    # The longest element of A3 has 16 reduced expressions, so a stage
    # passes a cap of 2 and hands the word to the root kernel, which
    # answers as the oracle and the default cap do.
    word = a3.word("a,b,a,c,b,a")
    words._reduce_bytes.cache_clear()
    expected = _answers(a3.matrix, word)
    words._reduce_bytes.cache_clear()
    monkeypatch.setattr(words, "SATURATION_CAP", 2)
    assert _answers(a3.matrix, word) == expected
    assert expected[0] == ball(a3.matrix, 6).resolve(word)
    words._reduce_bytes.cache_clear()


def test_budget_error_reports_budget(ta2, monkeypatch):
    # With the cap at 1 every braid move leaves saturation for the roots.
    word = ta2.word("a,b,a")
    words._reduce_bytes.cache_clear()
    expected = _answers(ta2.matrix, word)
    words._reduce_bytes.cache_clear()
    monkeypatch.setattr(words, "SATURATION_CAP", 1)
    assert _answers(ta2.matrix, word) == expected
    assert expected[0] == ball(ta2.matrix, 3).resolve(word)
    words._reduce_bytes.cache_clear()


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


def _braid_neighbours(matrix, word):
    """Words one braid move from ``word``, enumerated from the matrix: for
    s = word[i] and m = m(s, t) finite, s.t.s... of length m at i becomes
    t.s.t..."""
    out = []
    for i, s in enumerate(word):
        for t in range(matrix.n):
            m = matrix.m(s, t)
            if t == s or m == INF:
                continue
            factor = tuple(s if k % 2 == 0 else t for k in range(m))
            if word[i:i + m] == factor:
                swapped = tuple(t if k % 2 == 0 else s for k in range(m))
                out.append(word[:i] + swapped + word[i + m:])
    return out


def test_braid_move_and_deletion_leave_value(b3):
    # Single moves never change reduce(): commutations, braid rewrites,
    # and adjacent-pair deletions.
    for word in _all_words(b3.matrix.n, 5):
        base = reduce_word(b3.matrix, word)
        for u in _braid_neighbours(b3.matrix, word):
            assert reduce_word(b3.matrix, u) == base
        for i in range(len(word) - 1):
            if word[i] == word[i + 1]:
                assert reduce_word(b3.matrix, word[:i] + word[i + 2:]) == base


# The reducer's stage tests for a new equal pair only at the two ends of
# each rewrite.  The reference below is the full scan it replaced: every
# new word is searched for the leftmost equal pair of any generator.

def _move_table(matrix):
    moves = []
    for s in range(matrix.n):
        for t in range(matrix.n):
            m = matrix.m(s, t)
            if s != t and m != INF:
                moves.append((bytes(s if k % 2 == 0 else t for k in range(m)),
                              bytes(t if k % 2 == 0 else s for k in range(m))))
    return tuple(moves)


def _first_double(doubles, word):
    best = -1
    for d in doubles:
        i = word.find(d)
        if i != -1 and (best == -1 or i < best):
            best = i
    return best


def _full_scan_stage(moves, doubles, word):
    i = _first_double(doubles, word)
    if i >= 0:
        return word[:i] + word[i + 2:], None
    seen = {word}
    queue = deque((word,))
    while queue:
        w = queue.popleft()
        for pat, rep in moves:
            start = w.find(pat)
            while start != -1:
                u = w[:start] + rep + w[start + len(pat):]
                if u not in seen:
                    i = _first_double(doubles, u)
                    if i >= 0:
                        return u[:i] + u[i + 2:], None
                    seen.add(u)
                    queue.append(u)
                start = w.find(pat, start + 1)
    return None, seen


def _pair_free_words(letters, max_len):
    level = [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in letters if not w or w[-1] != s]
        yield from level


def _chain_matrix(n):
    return validate_matrix([[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n)]
                            for i in range(n)])


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3", "G1", "tilde-A2", "I2(5)", "Dinf", "A11"])
def test_two_end_scan_matches_full_scan(name):
    if name == "A11":
        # 11^6 words are too many.  All words of length <= 3 still use
        # letter 10 (the byte b"\n") next to every other letter, and the
        # pair-free words over the last three letters reach length 10.
        matrix = _chain_matrix(11)
        words_in = chain(_all_words(11, 3), _pair_free_words((8, 9, 10), 10))
    else:
        matrix = preset(name).matrix
        words_in = chain(_all_words(matrix.n, 6), _pair_free_words(range(matrix.n), 10))
    moves = _move_table(matrix)
    doubles = tuple(bytes((g, g)) for g in range(matrix.n))
    for word in words_in:
        w = bytes(word)
        assert words._saturate_stage(moves, w) == _full_scan_stage(moves, doubles, w), word


@pytest.mark.parametrize("m", [10**7, 10**18])
def test_huge_dihedral_order_reduces(m):
    # Only moves up to twice the word's length are built, so no m(a, b)-byte
    # pattern is ever made.  Correctness only; there is no timing gate.
    cfg = preset(f"I2({m})")
    assert right_descents(Element.identity(cfg.matrix)) == frozenset()
    aba = reduce_word(cfg.matrix, cfg.word("a,b,a"))
    assert aba.letters == (0, 1, 0)
    assert right_descents(aba) == left_descents(aba) == {0}
    assert reduce_word(cfg.matrix, cfg.word("b,a,b,b,a")).letters == (1,)


def test_reversed_longest_element_of_a5():
    # Its braid class is far past the saturation cap; the roots answer.
    matrix = _chain_matrix(5)
    group = full_group(matrix)
    assert len(group) == 720
    w0 = max(group.elements, key=lambda e: e.length)
    assert reduce_word(matrix, w0.letters[::-1]) == w0


def test_root_kernel_ignores_generators_outside_the_word(monkeypatch):
    # A5 plus a sixth generator with m = 11 and 13 to the first two: the
    # reversed w0 of A5 runs in W_{0..4}, whose ring is Z (d = 1), not the
    # degree-60 ring of lcm(11, 13).
    a5 = _chain_matrix(5)
    table = [list(row) + [2] for row in a5.orders] + [[2] * 5 + [1]]
    table[0][5] = table[5][0] = 11
    table[1][5] = table[5][1] = 13
    matrix = validate_matrix(table)
    w0 = max(full_group(a5).elements, key=lambda e: e.length)
    word = bytes(w0.letters[::-1])
    rings = []
    ring = roots._ring
    monkeypatch.setattr(roots, "_ring", lambda *args: rings.append(ring(*args)) or rings[-1])
    canonical, left, right = roots.reduce(matrix, word, 1 << len(word).bit_length())
    assert canonical == bytes(w0.letters)
    assert left == right == bytes(range(5))
    assert [r.d for r in rings] == [1]


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
