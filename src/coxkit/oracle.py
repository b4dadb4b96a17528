"""Brute-force ground truth: BFS enumeration of Cayley-graph balls.

The oracle builds the ball of radius L level by level, multiplying by one
generator at a time.  The Cayley BFS and its labels never call the
braid-saturation reducer, so the two code paths cross-validate each other;
the coset functions enumerate W_T by BFS but multiply with the reducer.

Vertex identification uses the dihedral-polygon rule.  For generators
s, t with m = m(s,t) finite, every left coset w<s,t> appears in the
right-multiplication Cayley graph as a 2m-gon whose lowest vertex is the
minimal coset representative and whose two geodesic sides meet again at
the top.  An element with two descents s and t is necessarily the top of
such a polygon (no dihedral element short of the longest has two
descents, and two descents force m(s,t) finite), so every coincidence
v.s = u.t between freshly created vertices is found by walking m-1 steps
down one side of the polygon and m-1 steps up the other.  Length
bookkeeping is the +/-1 law: each edge changes BFS depth by exactly one.

Per-vertex canonical labels (`oracle_canonical`) are computed afterwards
by dynamic programming over down-edges: the least label of a vertex is
the least label among its down-neighbours extended by the connecting
letter.  This reproduces the ShortLex-least reduced word without braid
moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import NonSphericalSubset, NonUniqueMaximum, SizeBudgetExceeded
from .finite_type import classify
from .matrix import INF, CoxeterMatrix
from .words import Element, multiply

DEFAULT_SIZE_BUDGET = 200_000


def _bfs(matrix: CoxeterMatrix, radius: int | None, max_elements: int):
    """Level-by-level Cayley BFS; ``radius=None`` runs until the group closes.

    Returns (depths, edges, closed) where edges[v][s] is the neighbour
    vertex id or -1 for an edge never explored (beyond the radius).
    """
    n = matrix.n
    orders = matrix.orders
    depths = [0]
    edges = [[-1] * n]
    lo, hi = 0, 1
    k = 0
    while lo < hi and (radius is None or k < radius):
        for v in range(lo, hi):
            for s in range(n):
                if edges[v][s] != -1:
                    continue
                # Unknown edge at the frontier: v.s ascends to depth k+1.
                slots = [(v, s)]
                target = -1
                for t in range(n):
                    if t == s or orders[s][t] == INF:
                        continue
                    m = orders[s][t]
                    # Walk m-1 steps down the polygon side through v,
                    # labels alternating t, s, t, ...
                    cur, lab = v, t
                    for _ in range(m - 1):
                        nxt = edges[cur][lab]
                        if nxt < 0 or depths[nxt] != depths[cur] - 1:
                            cur = -1
                            break
                        cur = nxt
                        lab = s if lab == t else t
                    if cur < 0:
                        continue
                    # cur is the coset bottom; climb the other side, whose
                    # labels alternate and end with s.
                    up = cur
                    for j in range(m - 1):
                        lab2 = s if (m - 2 - j) % 2 == 0 else t
                        up = edges[up][lab2]
                        if up < 0:
                            raise RuntimeError("polygon side missing below the frontier; this signals a defect")
                    slots.append((up, t))
                    known = edges[up][t]
                    if known != -1:
                        if target not in (-1, known):
                            raise RuntimeError("inconsistent polygon tops; this signals a defect")
                        target = known
                if target == -1:
                    if len(depths) >= max_elements:
                        raise SizeBudgetExceeded(max_elements)
                    target = len(depths)
                    depths.append(k + 1)
                    edges.append([-1] * n)
                for x, r in slots:
                    if edges[x][r] not in (-1, target) or edges[target][r] not in (-1, x):
                        raise RuntimeError("conflicting Cayley edges; this signals a defect")
                    edges[x][r] = target
                    edges[target][r] = x
        lo, hi = hi, len(depths)
        k += 1
    # Down-edges are always set at vertex creation, so an unresolved slot
    # can only lead out of the ball: the group closed inside it iff none.
    closed = all(e != -1 for row in edges for e in row)
    return depths, edges, closed


def _canonical_labels(n: int, depths: list[int], edges: list[list[int]]) -> list[bytes]:
    """Lex-least reduced word per vertex, by DP over down-edges."""
    words: list[bytes] = [b""] * len(depths)
    for v in range(1, len(depths)):
        best = None
        for s in range(n):
            u = edges[v][s]
            if u >= 0 and depths[u] == depths[v] - 1:
                cand = words[u] + bytes((s,))
                if best is None or cand < best:
                    best = cand
        if best is None:
            raise RuntimeError("vertex with no down edge; this signals a defect")
        words[v] = best
    return words


@dataclass(frozen=True)
class Ball:
    """All elements of length <= radius with their Cayley adjacency."""

    matrix: CoxeterMatrix
    radius: int
    closed: bool                      # true when the whole group fit inside
    _depths: tuple[int, ...] = field(repr=False)
    _edges: tuple[tuple[int, ...], ...] = field(repr=False)
    _words: tuple[bytes, ...] = field(repr=False)
    _index: dict = field(repr=False, hash=False, compare=False)

    def __len__(self) -> int:
        return len(self._depths)

    def _owns(self, element: Element) -> bool:
        # `is` first: elements taken from the ball share its matrix, and edge lookups are hot.
        return element.matrix is self.matrix or element.matrix == self.matrix

    def __contains__(self, element: Element) -> bool:
        return self._owns(element) and bytes(element.letters) in self._index

    @property
    def elements(self) -> list[Element]:
        """Ball members in (length, word) order."""
        out = [Element(self.matrix, tuple(w)) for w in self._words]
        out.sort(key=Element.sort_key)
        return out

    def level_sizes(self) -> tuple[int, ...]:
        counts = [0] * (max(self._depths) + 1)
        for d in self._depths:
            counts[d] += 1
        return tuple(counts)

    def _vertex(self, element: Element) -> int:
        if not self._owns(element):
            raise ValueError(f"{element!r} belongs to a different Coxeter system than the ball")
        try:
            return self._index[bytes(element.letters)]
        except KeyError:
            raise ValueError(f"{element!r} is outside ball({self.radius})") from None

    def depth_of(self, element: Element) -> int:
        return self._depths[self._vertex(element)]

    def edge(self, element: Element, s: int) -> Element | None:
        """The neighbour element.s, or None when it falls outside the ball."""
        self.matrix.pack((s,))
        v = self._edges[self._vertex(element)][s]
        if v < 0:
            return None
        return Element(self.matrix, tuple(self._words[v]))

    def right_descents_of(self, element: Element) -> frozenset[int]:
        """Descents straight from the adjacency (no reducer involved)."""
        v = self._vertex(element)
        d = self._depths[v]
        return frozenset(
            s for s in range(self.matrix.n)
            if self._edges[v][s] >= 0 and self._depths[self._edges[v][s]] == d - 1
        )

    def resolve(self, letters) -> Element:
        """Walk a word edge by edge from the identity to its vertex."""
        word = self.matrix.pack(letters)
        v = 0
        for s in word:
            v = self._edges[v][s]
            if v < 0:
                raise ValueError(f"word of length {len(word)} leaves ball({self.radius})")
        return Element(self.matrix, tuple(self._words[v]))

    def to_dot(self, names=None) -> str:
        """Cayley graph in DOT form, one undirected edge per generator pair."""
        spell = names if names is not None else [str(s) for s in range(self.matrix.n)]
        label = lambda w: ".".join(spell[c] for c in w) if w else "e"
        lines = ["graph cayley_ball {"]
        for v, w in enumerate(self._words):
            lines.append(f'  n{v} [label="{label(w)}"];')
        for v in range(len(self._depths)):
            for s in range(self.matrix.n):
                u = self._edges[v][s]
                if u > v:
                    lines.append(f'  n{v} -- n{u} [label="{spell[s]}"];')
        lines.append("}")
        return "\n".join(lines)


def _build(matrix: CoxeterMatrix, radius: int | None, max_elements: int) -> Ball:
    """BFS to ``radius``, or to closure when it is None, then label every vertex."""
    if max_elements < 1:
        raise ValueError("max_elements must be >= 1")
    depths, edges, closed = _bfs(matrix, radius, max_elements)
    if radius is None and not closed:
        raise RuntimeError("the Cayley BFS stopped with unexplored edges; this signals a defect")
    words = _canonical_labels(matrix.n, depths, edges)
    return Ball(
        matrix=matrix,
        radius=max(depths) if radius is None else radius,
        closed=closed,
        _depths=tuple(depths),
        _edges=tuple(tuple(row) for row in edges),
        _words=tuple(words),
        _index={w: v for v, w in enumerate(words)},
    )


def ball(matrix: CoxeterMatrix, radius: int, max_elements: int = DEFAULT_SIZE_BUDGET) -> Ball:
    """Enumerate every element of length <= radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _build(matrix, radius, max_elements)


def full_group(matrix: CoxeterMatrix, max_elements: int = DEFAULT_SIZE_BUDGET) -> Ball:
    """Enumerate a finite group to closure; raises the budget error otherwise."""
    return _build(matrix, None, max_elements)


@lru_cache(maxsize=1 << 12)
def _parabolic_elements(matrix: CoxeterMatrix, members: frozenset[int]) -> tuple[Element, ...]:
    """Every element of W_T, as elements of the ambient system."""
    verdict = classify(matrix, members)
    if not verdict.spherical:
        raise NonSphericalSubset(members)
    sub = matrix.submatrix(members)
    back = sorted(members)
    group = full_group(sub, max_elements=verdict.order + 1)
    out = [
        Element(matrix, tuple(back[c] for c in w))
        for w in group._words
    ]
    if len(out) != verdict.order:
        raise RuntimeError(f"W_{sorted(members)} has {len(out)} elements, not {verdict.order}; this signals a defect")
    return tuple(sorted(out, key=Element.sort_key))


def coset_elements(members, w: Element) -> list[Element]:
    """The full coset W_T.w, in (length, word) order."""
    xs = _parabolic_elements(w.matrix, frozenset(members))
    return sorted((multiply(x, w) for x in xs), key=Element.sort_key)


def unique_top(members, w: Element, coset: list[Element]) -> Element:
    """The longest element of ``coset`` = W_T.w, given in (length, word) order.

    Raises `NonUniqueMaximum` when two members share the maximal length.
    """
    top = coset[-1]
    if len(coset) > 1 and coset[-2].length == top.length:
        raise NonUniqueMaximum(
            f"coset W_{sorted(frozenset(members))}.{w!r} has two elements "
            f"of maximal length {top.length}"
        )
    return top


def longest_in_coset_oracle(members, w: Element) -> Element:
    """The longest element of W_T.w by exhaustive enumeration."""
    return unique_top(members, w, coset_elements(members, w))
