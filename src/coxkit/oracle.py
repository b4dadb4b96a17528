"""Brute-force ground truth: BFS enumeration of Cayley-graph balls.

The oracle builds the ball of radius L level by level, multiplying by one
generator at a time; cosets W_T.w are read off the ball too.  Nothing here
calls the braid-saturation reducer, so the two paths cross-validate.

Down-edges come from the dihedral-polygon rule.  For generators s, t
with m = m(s,t) finite, every left coset w<s,t> appears in the
right-multiplication Cayley graph as a 2m-gon whose lowest vertex is the
minimal coset representative and whose two geodesic sides meet again at
the top.  An element with two descents s and t is necessarily the top of
such a polygon (no dihedral element short of the longest has two
descents, and two descents force m(s,t) finite), so a new vertex v.s
finds its down-edge through t from v.s.t = v.(t.s)^(m-1): 2m-2 steps from
v labelled t, s, t, ..., m-1 down one side of the polygon and m-1 up the
other.  The walk stops at the first step that fails to descend, so it is
bounded by the ball whatever m is.  Every down-edge is set when its
vertex is created, so an edge still unset at the frontier leads to a new
vertex one level up: each edge changes BFS depth by exactly one.

Canonical labels (`oracle_canonical`) follow the ShortLex discovery
rule.  Level k is scanned in ShortLex order and letters in increasing
order, so the unset edge (v, s) that creates a vertex is its
ShortLex-least down-edge: the vertex gets label(v).s, the ShortLex-least
reduced word, without braid moves, and level k+1 is created in ShortLex
order too.  Vertex ids thus run in (length, word) order.

The adjacency is one flat ``array("i")`` built in place: edge (v, s) sits
at v * n + s and holds the id of v.s, or -1 for an edge out of the ball,
and each new vertex appends one row of n slots.  A ball keeps its words,
a dict from word to id for lookups, and 4n bytes of adjacency per element.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import NonSphericalSubset, NonUniqueMaximum, SizeBudgetExceeded
from .finite_type import classify
from .matrix import INF, CoxeterMatrix
from .words import Element

if TYPE_CHECKING:
    from array import array

DEFAULT_SIZE_BUDGET = 200_000


def _bfs(matrix: CoxeterMatrix, radius: int | None, max_elements: int):
    """Level-by-level Cayley BFS; ``radius=None`` runs until the group closes.

    Returns (words, edges, closed) where words[v] is the ShortLex-least
    reduced word of vertex v, ids run in (length, word) order, and
    edges[v * n + s] is the neighbour vertex id or -1 for an edge never
    explored (beyond the radius).
    """
    # Imported on first use: the extension module adds about 0.4 MiB to the
    # peak RSS of a process that imports coxkit, and most never build a ball.
    from array import array

    n = matrix.n
    # The dihedral polygons through an s-edge: every t != s with m(s, t) finite.
    partners = [[(t, m) for t, m in enumerate(row) if t != s and m != INF]
                for s, row in enumerate(matrix.orders)]
    letters = [bytes((s,)) for s in range(n)]
    words = [b""]
    depth = [0]
    unset = array("i", [-1]) * n
    edges = array("i", unset)
    lo, hi = 0, 1
    while lo < hi and (radius is None or depth[lo] < radius):
        for v in range(lo, hi):
            row, d = v * n, depth[v]
            for s in range(n):
                if edges[row + s] != -1:
                    continue
                # Unset frontier edge: v.s is a new vertex one level up, and
                # (v, s) its ShortLex-least down-edge.
                if len(words) >= max_elements:
                    raise SizeBudgetExceeded(max_elements)
                target = len(words)
                words.append(words[v] + letters[s])
                depth.append(d + 1)
                edges += unset
                slots = [(v, s)]
                for t, m in partners[s]:
                    # v.s.t = v.(t.s)^(m-1): walk 2m-2 steps labelled t, s, t, ...
                    # The first m-1 descend unless v.s is no polygon top; the
                    # rest climb the other side to the down-neighbour v.s.t.
                    # Most walks stop at the first step, so it reads v's row.
                    cur, low = edges[row + t], d - 1
                    if cur < 0 or depth[cur] != low:
                        continue
                    for i in range(1, 2 * m - 2):
                        nxt = edges[cur * n + (s if i % 2 else t)]
                        if i < m - 1:
                            low -= 1
                            if nxt < 0 or depth[nxt] != low:
                                break
                        elif nxt < 0:
                            raise RuntimeError("polygon side missing below the frontier; this signals a defect")
                        cur = nxt
                    else:
                        slots.append((cur, t))
                top = target * n
                for x, r in slots:
                    if edges[x * n + r] != -1:
                        raise RuntimeError("conflicting Cayley edges; this signals a defect")
                    edges[x * n + r] = target
                    edges[top + r] = x
        lo, hi = hi, len(words)
    # Down-edges are always set at vertex creation, so an unresolved slot
    # can only lead out of the ball: the group closed inside it iff none.
    return words, edges, -1 not in edges


@dataclass(frozen=True)
class Ball:
    """All elements of length <= radius with their Cayley adjacency."""

    matrix: CoxeterMatrix
    radius: int
    closed: bool                      # true when the whole group fit inside
    _edges: array = field(repr=False, hash=False)      # edge (v, s) at v * n + s, -1 past the radius
    _words: tuple[bytes, ...] = field(repr=False)     # in (length, word) order
    _index: dict = field(repr=False, hash=False, compare=False)

    def __len__(self) -> int:
        return len(self._words)

    def _owns(self, element: Element) -> bool:
        # `is` first: elements taken from the ball share its matrix, and edge lookups are hot.
        return element.matrix is self.matrix or element.matrix == self.matrix

    def __contains__(self, element: Element) -> bool:
        return self._owns(element) and bytes(element.letters) in self._index

    def __iter__(self):
        """Ball members in (length, word) order."""
        return (Element(self.matrix, tuple(w)) for w in self._words)

    @property
    def elements(self) -> list[Element]:
        return list(self)

    def level_sizes(self) -> tuple[int, ...]:
        counts = [0] * (len(self._words[-1]) + 1)
        for w in self._words:
            counts[len(w)] += 1
        return tuple(counts)

    def _vertex(self, element: Element) -> int:
        if not self._owns(element):
            raise ValueError(f"{element!r} belongs to a different Coxeter system than the ball")
        try:
            return self._index[bytes(element.letters)]
        except KeyError:
            raise ValueError(f"{element!r} is outside ball({self.radius})") from None

    def depth_of(self, element: Element) -> int:
        return len(self._words[self._vertex(element)])

    def edge(self, element: Element, s: int) -> Element | None:
        """The neighbour element.s, or None when it falls outside the ball."""
        self.matrix.pack((s,))
        v = self._edges[self._vertex(element) * self.matrix.n + s]
        if v < 0:
            return None
        return Element(self.matrix, tuple(self._words[v]))

    def right_descents_of(self, element: Element) -> frozenset[int]:
        """Descents straight from the adjacency (no reducer involved)."""
        n = self.matrix.n
        v = self._vertex(element)
        d = len(self._words[v])
        row = self._edges[v * n:(v + 1) * n]
        return frozenset(s for s, u in enumerate(row) if u >= 0 and len(self._words[u]) == d - 1)

    def resolve(self, letters) -> Element:
        """Walk a word edge by edge from the identity to its vertex."""
        word = self.matrix.pack(letters)
        n, edges, v = self.matrix.n, self._edges, 0
        for s in word:
            v = edges[v * n + s]
            if v < 0:
                raise ValueError(f"word of length {len(word)} leaves ball({self.radius})")
        return Element(self.matrix, tuple(self._words[v]))

    def coset(self, members, w: Element) -> list[Element]:
        """The coset W_T.w in (length, word) order, from the adjacency alone.

        W_T is the component of the identity along T-edges, and each x.w is
        walked from x along the letters of w.  Unless the ball holds the
        whole group, it must reach l(w) + l(w0(T)), the longest x.w can be.
        """
        T = frozenset(members)
        # classify range-checks T, ahead of every index into the flat adjacency.
        verdict = _spherical(self.matrix, T)
        need = self.depth_of(w) + verdict.longest
        if not self.closed and self.radius < need:
            raise ValueError(f"W_{sorted(T)}.{w!r} needs ball({need}), not ball({self.radius})")
        n, edges = self.matrix.n, self._edges
        group, level = {0}, {0}
        while level:
            level = {edges[v * n + t] for v in level for t in T} - group
            group |= level
        if len(group) != verdict.order:
            raise RuntimeError(f"W_{sorted(T)} has {len(group)} elements, not {verdict.order}; this signals a defect")
        ends = list(group)
        for s in w.letters:
            ends = [edges[v * n + s] for v in ends]
        # Vertex ids run in (length, word) order.
        return [Element(self.matrix, tuple(self._words[v])) for v in sorted(ends)]

    def to_dot(self, names=None) -> str:
        """Cayley graph in DOT form, one undirected edge per generator pair."""
        spell = names if names is not None else [str(s) for s in range(self.matrix.n)]
        label = lambda w: ".".join(spell[c] for c in w) if w else "e"
        n = self.matrix.n
        lines = ["graph cayley_ball {"]
        for v, w in enumerate(self._words):
            lines.append(f'  n{v} [label="{label(w)}"];')
        for i, u in enumerate(self._edges):
            v, s = divmod(i, n)
            if u > v:
                lines.append(f'  n{v} -- n{u} [label="{spell[s]}"];')
        lines.append("}")
        return "\n".join(lines)


def _build(matrix: CoxeterMatrix, radius: int | None, max_elements: int) -> Ball:
    """BFS to ``radius``, or to closure when it is None."""
    if max_elements < 1:
        raise ValueError("max_elements must be >= 1")
    words, edges, closed = _bfs(matrix, radius, max_elements)
    if radius is None and not closed:
        raise RuntimeError("the Cayley BFS stopped with unexplored edges; this signals a defect")
    return Ball(
        matrix=matrix,
        radius=len(words[-1]) if radius is None else radius,
        closed=closed,
        _edges=edges,
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


def _spherical(matrix: CoxeterMatrix, members: frozenset[int]):
    if not (verdict := classify(matrix, members)).spherical:
        raise NonSphericalSubset(members)
    return verdict


def coset_elements(members, w: Element) -> list[Element]:
    """The full coset W_T.w, in (length, word) order, from ball(l(w) + l(w0(T)))."""
    T = frozenset(members)
    return ball(w.matrix, w.length + _spherical(w.matrix, T).longest).coset(T, w)


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
