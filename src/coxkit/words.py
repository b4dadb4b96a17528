"""Exact word problem for Coxeter systems via braid-move saturation.

A word is a finite sequence of generator indices.  Reduction works on the
braid-move closure of a word: replace any alternating factor stst... of
length m(s,t) by tsts... of the same length, in every possible position,
until the closure is saturated.  A rewrite keeps the length, so only the
moves with m(s,t) at most twice the word's length are built: a huge m
costs nothing.  Whenever a word with two equal adjacent letters appears,
that pair is deleted and the process restarts from the shorter word.  A
rewrite swaps one alternating factor for another, so in a word with no
equal pair a new pair can only straddle an end of the new factor (Tits'
solution of the word problem): only those two spots are tested.  When no
word in the closure admits a deletion, every word in it is a reduced
expression of the element, and the lexicographically least one
(equivalently ShortLex-least, all lengths being equal) is the canonical
form.

Descent sets come from the same final closure.  By Tits' word property
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, Thm 3.3.1) the braid
class of a reduced word is the set of all reduced words of its element,
so the first letters of that class are exactly the left descents and the
last letters exactly the right descents.

This is exponential in the worst case but exact, needs no irrational
arithmetic, and is guarded by a fixed closure budget: each saturation
stage may enumerate at most ``CLOSURE_BUDGET`` words before raising.
Results are memoized per (matrix, word) in a bounded cache; the cache is
a transparent pure-function cache and never changes results.

Everything here is immutable and pure, hence safe under concurrent use.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import ClosureBudgetExceeded
from .matrix import CoxeterMatrix

CLOSURE_BUDGET = 200_000


def _alternating(s: int, t: int, length: int) -> bytes:
    return (bytes((s, t)) * (length // 2 + 1))[:length]


# Generator 10 is the byte b"\n", which "." matches only under DOTALL.
_EQUAL_PAIR = re.compile(rb"(.)\1", re.DOTALL)


@lru_cache(maxsize=256)
def _moves(matrix: CoxeterMatrix, length: int) -> tuple[tuple[bytes, bytes], ...]:
    """Every braid move that fits in ``length`` letters: m(s, t) <= length, never INF."""
    moves = []
    for s in range(matrix.n):
        for t in range(matrix.n):
            m = matrix.m(s, t)
            if s != t and m <= length:
                moves.append((_alternating(s, t, m), _alternating(t, s, m)))
    return tuple(moves)


def _saturate_stage(moves, word: bytes):
    """Braid-close ``word``; stop early at the first adjacent equal pair.

    Returns ``(shorter_word, None)`` when a deletion fires, else
    ``(None, closure)``: every reduced word of the element.
    """
    if pair := _EQUAL_PAIR.search(word):
        return word[:pair.start()] + word[pair.end():], None
    seen = {word}
    queue = deque((word,))
    while queue:
        w = queue.popleft()
        for pat, rep in moves:
            start = w.find(pat)
            while start != -1:
                end = start + len(pat)
                u = w[:start] + rep + w[end:]
                if u not in seen:
                    # A new equal pair can only straddle an end of rep; left first.
                    for i in (start - 1, end - 1):
                        if 0 <= i < len(u) - 1 and u[i] == u[i + 1]:
                            return u[:i] + u[i + 2:], None
                    seen.add(u)
                    if len(seen) > CLOSURE_BUDGET:
                        raise ClosureBudgetExceeded(CLOSURE_BUDGET, len(word))
                    queue.append(u)
                start = w.find(pat, start + 1)
    return None, seen


@lru_cache(maxsize=1 << 18)
def _reduce_bytes(matrix: CoxeterMatrix, word: bytes):
    """(canonical word, left descents, right descents) of the element.

    A descent set is stored as the bytes of its sorted letters: empty and
    one-letter bytes are shared objects, so most entries hold no extra set.
    """
    # A move longer than the word never matches.  Rounding its length up to
    # a power of two leaves a matrix a few tables, not one per word length.
    shorter, closure = _saturate_stage(_moves(matrix, 1 << len(word).bit_length()), word)
    if shorter is None:
        left, right = (bytes(sorted({w[i] for w in closure})) if word else word for i in (0, -1))
        return min(closure), left, right
    # Shorter stages are shared across many inputs; recurse through the cache.
    return _reduce_bytes(matrix, shorter)


@dataclass(frozen=True)
class Element:
    """A group element, stored as its ShortLex-least reduced word.

    Do not call the constructor with an arbitrary word; use
    :func:`reduce_word`, :meth:`identity` or :meth:`generator`.
    """

    matrix: CoxeterMatrix
    letters: tuple[int, ...]

    @staticmethod
    def identity(matrix: CoxeterMatrix) -> "Element":
        return Element(matrix, ())

    @staticmethod
    def generator(matrix: CoxeterMatrix, s: int) -> "Element":
        matrix.pack((s,))
        return Element(matrix, (s,))

    @property
    def length(self) -> int:
        return len(self.letters)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)

    def __repr__(self) -> str:
        if not self.letters:
            return "Element(e)"
        return "Element(" + ".".join(str(s) for s in self.letters) + ")"


def reduce_word(matrix: CoxeterMatrix, letters) -> Element:
    """Canonical form of the element spelled by ``letters``."""
    return Element(matrix, tuple(_reduce_bytes(matrix, matrix.pack(letters))[0]))


def is_reduced(matrix: CoxeterMatrix, letters) -> bool:
    word = matrix.pack(letters)
    return len(_reduce_bytes(matrix, word)[0]) == len(word)


def multiply(u: Element, v: Element) -> Element:
    # `is` first: elements of one system share its matrix, and multiply is hot.
    if u.matrix is not v.matrix and u.matrix != v.matrix:
        raise ValueError("elements belong to different Coxeter systems")
    return reduce_word(u.matrix, u.letters + v.letters)


def inverse(u: Element) -> Element:
    # The reversed canonical word spells the inverse; reducing it again
    # only re-canonicalizes (the length is already minimal).
    return reduce_word(u.matrix, u.letters[::-1])


def right_descents(u: Element) -> frozenset[int]:
    """The generators s with l(ws) = l(w) - 1: last letters of the reduced words."""
    return frozenset(_reduce_bytes(u.matrix, u.matrix.pack(u.letters))[2])


def left_descents(u: Element) -> frozenset[int]:
    """The generators s with l(sw) = l(w) - 1: first letters of the reduced words."""
    return frozenset(_reduce_bytes(u.matrix, u.matrix.pack(u.letters))[1])


def in_parabolic(u: Element, members) -> bool:
    """Whether u lies in the subgroup generated by ``members``.

    Every reduced expression of an element uses the same generator set
    (braid moves permute letters within {s, t} factors), so membership is
    a letter test on the canonical word.  The test suite cross-checks this
    against explicit subgroup enumeration.
    """
    return set(u.letters) <= set(members)
