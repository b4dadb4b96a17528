"""Exact word problem for Coxeter systems via braid-move saturation.

A word is a finite sequence of generator indices.  Reduction works on the
braid-move closure of a word: replace any alternating factor stst... of
length m(s,t) by tsts... of the same length, in every possible position,
until the closure is saturated.  Whenever a word with two equal adjacent
letters appears, that pair is deleted and the process restarts from the
shorter word.  When no word in the closure admits a deletion, every word
in it is a reduced expression of the element, and the lexicographically
least one (equivalently ShortLex-least, all lengths being equal) is the
canonical form.

This is exponential in the worst case but exact, needs no irrational
arithmetic, and is guarded by a fixed closure budget: each saturation
stage may enumerate at most ``CLOSURE_BUDGET`` words before raising.
Results are memoized per (matrix, word) in a bounded cache; the cache is
a transparent pure-function cache and never changes results.

Everything here is immutable and pure, hence safe under concurrent use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import ClosureBudgetExceeded
from .matrix import INF, CoxeterMatrix

CLOSURE_BUDGET = 200_000


def _alternating(s: int, t: int, length: int) -> bytes:
    return bytes((s if i % 2 == 0 else t) for i in range(length))


@dataclass(frozen=True)
class _Kernel:
    """Per-matrix move tables: alternating patterns and their rewrites."""

    moves: tuple[tuple[bytes, bytes], ...]
    doubles: tuple[bytes, ...]


@lru_cache(maxsize=256)
def _kernel(matrix: CoxeterMatrix) -> _Kernel:
    moves = []
    for s in range(matrix.n):
        for t in range(matrix.n):
            if s == t:
                continue
            m = matrix.m(s, t)
            if m == INF:
                continue
            moves.append((_alternating(s, t, m), _alternating(t, s, m)))
    doubles = tuple(bytes((g, g)) for g in range(matrix.n))
    return _Kernel(tuple(moves), doubles)


def _first_double(doubles, word: bytes) -> int:
    best = -1
    for d in doubles:
        i = word.find(d)
        if i != -1 and (best == -1 or i < best):
            best = i
    return best


def _saturate_stage(kernel: _Kernel, word: bytes):
    """Braid-close ``word``; stop early at the first adjacent equal pair.

    Returns ``(shorter_word, None)`` when a deletion fires, else
    ``(None, shortlex_least_of_closure)``.
    """
    i = _first_double(kernel.doubles, word)
    if i >= 0:
        return word[:i] + word[i + 2:], None
    seen = {word}
    queue = deque((word,))
    while queue:
        w = queue.popleft()
        for pat, rep in kernel.moves:
            start = w.find(pat)
            while start != -1:
                u = w[:start] + rep + w[start + len(pat):]
                if u not in seen:
                    i = _first_double(kernel.doubles, u)
                    if i >= 0:
                        return u[:i] + u[i + 2:], None
                    seen.add(u)
                    if len(seen) > CLOSURE_BUDGET:
                        raise ClosureBudgetExceeded(CLOSURE_BUDGET, len(word))
                    queue.append(u)
                start = w.find(pat, start + 1)
    return None, min(seen)


@lru_cache(maxsize=1 << 18)
def _reduce_bytes(matrix: CoxeterMatrix, word: bytes) -> bytes:
    kernel = _kernel(matrix)
    shorter, canonical = _saturate_stage(kernel, word)
    if shorter is None:
        return canonical
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

    def __mul__(self, other: "Element") -> "Element":
        return multiply(self, other)

    def inverse(self) -> "Element":
        return inverse(self)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        return (len(self.letters), self.letters)

    def __repr__(self) -> str:
        if not self.letters:
            return "Element(e)"
        return "Element(" + ".".join(str(s) for s in self.letters) + ")"


def reduce_word(matrix: CoxeterMatrix, letters) -> Element:
    """Canonical form of the element spelled by ``letters``."""
    return Element(matrix, tuple(_reduce_bytes(matrix, matrix.pack(letters))))


def is_reduced(matrix: CoxeterMatrix, letters) -> bool:
    word = matrix.pack(letters)
    return len(_reduce_bytes(matrix, word)) == len(word)


def _require_same_system(u: Element, v: Element) -> None:
    if u.matrix != v.matrix:
        raise ValueError("elements belong to different Coxeter systems")


def multiply(u: Element, v: Element) -> Element:
    _require_same_system(u, v)
    return reduce_word(u.matrix, u.letters + v.letters)


def inverse(u: Element) -> Element:
    # The reversed canonical word spells the inverse; reducing it again
    # only re-canonicalizes (the length is already minimal).
    return reduce_word(u.matrix, u.letters[::-1])


def right_descents(u: Element) -> frozenset[int]:
    """The generators s with l(ws) = l(w) - 1; there is no third case."""
    word = u.letters
    out = []
    for s in range(u.matrix.n):
        if reduce_word(u.matrix, word + (s,)).length < len(word):
            out.append(s)
    return frozenset(out)


def left_descents(u: Element) -> frozenset[int]:
    return right_descents(inverse(u))


def in_parabolic(u: Element, members) -> bool:
    """Whether u lies in the subgroup generated by ``members``.

    Every reduced expression of an element uses the same generator set
    (braid moves permute letters within {s, t} factors), so membership is
    a letter test on the canonical word.  The test suite cross-checks this
    against explicit subgroup enumeration.
    """
    return set(u.letters) <= set(members)
