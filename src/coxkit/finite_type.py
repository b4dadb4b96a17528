"""Finite-type recognition for generator subsets.

A subset T of the generators spans a finite parabolic subgroup exactly
when every connected component of its diagram (edges are pairs with
m(s,t) >= 3; m = 2 means no edge) matches the finite catalogue:

    A(k) k>=1, B(k) k>=2, D(k) k>=4, E6, E7, E8, F4, H3, H4, I2(m) m>=5.

Matching is exact integer work on the diagram: any infinite edge label,
any cycle, two branch vertices, a branch vertex of degree >= 4, or a
label pattern outside the catalogue makes the component infinite.  From
the degrees d_i of a component (Humphreys, *Reflection Groups and Coxeter
Groups*, §3.7), |W| = prod d_i and l(w0) = sum (d_i - 1), both
unit-tested against explicit enumeration.

Spherical subsets are closed under taking subsets, so enumeration grows
them one generator at a time from spherical sets only: it costs about
n x (number of spherical subsets) classifications, not 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .matrix import INF, CoxeterMatrix


@dataclass(frozen=True)
class TypeLabel:
    """Catalogue label for one connected diagram component."""

    family: str                 # "A" "B" "D" "E" "F" "H" "I2" or "Infinite"
    rank: int = 0               # number of generators in the component
    edge: int | None = None     # the I2 edge label m

    @property
    def finite(self) -> bool:
        return self.family != "Infinite"

    def degrees(self) -> tuple[int, ...]:
        """Degrees of the basic polynomial invariants of a finite component."""
        k = self.rank
        return {
            "A": tuple(range(2, k + 2)),
            "B": tuple(range(2, 2 * k + 1, 2)),
            "D": (*range(2, 2 * k - 1, 2), k),
            "I2": (2, self.edge),
            "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18), 8: (2, 8, 12, 14, 18, 20, 24, 30)}.get(k),
            "F": (2, 6, 8, 12),
            "H": {3: (2, 6, 10), 4: (2, 12, 20, 30)}.get(k),
        }[self.family]

    def order(self) -> int | float:
        return math.prod(self.degrees()) if self.finite else INF

    def __str__(self) -> str:
        if self.family == "Infinite":
            return "Infinite"
        if self.family == "I2":
            return f"I2({self.edge})"
        return f"{self.family}{self.rank}"


INFINITE = TypeLabel("Infinite")


@dataclass(frozen=True)
class SphericalVerdict:
    spherical: bool
    components: tuple[tuple[frozenset[int], TypeLabel], ...]
    order: int | float
    longest: int | float        # l(w0(T)), the number of reflections of W_T


def _components(matrix: CoxeterMatrix, members: frozenset[int]) -> list[list[int]]:
    """Connected components of the diagram induced on ``members``."""
    todo = set(members)
    comps = []
    while todo:
        seed = min(todo)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in todo - comp:
                if matrix.m(v, u) >= 3:  # INF compares greater than any int
                    comp.add(u)
                    frontier.append(u)
        comps.append(sorted(comp))
        todo -= comp
    return comps


def _classify_component(matrix: CoxeterMatrix, nodes: list[int]) -> TypeLabel:
    k = len(nodes)
    if k == 1:
        return TypeLabel("A", 1)
    edges = [
        (u, v, matrix.m(u, v))
        for u, v in combinations(nodes, 2)
        if matrix.m(u, v) >= 3
    ]
    if any(m == INF for _, _, m in edges):
        return INFINITE
    if len(edges) != k - 1:
        return INFINITE  # connected with a cycle
    degree = {v: 0 for v in nodes}
    for u, v, _ in edges:
        degree[u] += 1
        degree[v] += 1
    branches = [v for v in nodes if degree[v] >= 3]
    heavy = sorted(m for _, _, m in edges if m > 3)

    if not branches:
        # A simple path.
        if not heavy:
            return TypeLabel("A", k)
        if len(heavy) > 1:
            return INFINITE
        m = heavy[0]
        if k == 2:
            return TypeLabel("B", 2) if m == 4 else TypeLabel("I2", 2, m)
        u, v, _ = next(e for e in edges if e[2] == m)
        at_end = degree[u] == 1 or degree[v] == 1
        if m == 4:
            if at_end:
                return TypeLabel("B", k)
            return TypeLabel("F", 4) if k == 4 else INFINITE
        if m == 5 and at_end and k in (3, 4):
            return TypeLabel("H", k)
        return INFINITE

    if len(branches) > 1 or heavy:
        return INFINITE
    center = branches[0]
    if degree[center] != 3:
        return INFINITE
    # Arm lengths, in nodes, on each side of the unique branch vertex.
    arms = []
    for first in (v for v in nodes if matrix.m(center, v) >= 3 and v != center):
        length = 1
        prev, cur = center, first
        while True:
            nxt = [
                u for u in nodes
                if u not in (prev, cur) and matrix.m(cur, u) >= 3
            ]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] == 1 and arms[1] == 1:
        return TypeLabel("D", k)
    if arms == [1, 2, 2]:
        return TypeLabel("E", 6)
    if arms == [1, 2, 3]:
        return TypeLabel("E", 7)
    if arms == [1, 2, 4]:
        return TypeLabel("E", 8)
    return INFINITE


@lru_cache(maxsize=1 << 14)
def _classify_cached(matrix: CoxeterMatrix, members: frozenset[int]) -> SphericalVerdict:
    labelled = tuple((frozenset(c), _classify_component(matrix, c)) for c in _components(matrix, members))
    if not all(label.finite for _, label in labelled):
        return SphericalVerdict(False, labelled, INF, INF)
    degrees = [d for _, label in labelled for d in label.degrees()]
    return SphericalVerdict(True, labelled, math.prod(degrees), sum(d - 1 for d in degrees))


def classify(matrix: CoxeterMatrix, members) -> SphericalVerdict:
    """Component decomposition, catalogue labels, group order and l(w0) of W_T."""
    T = frozenset(members)
    matrix.pack(T)
    return _classify_cached(matrix, T)


def is_spherical(matrix: CoxeterMatrix, members) -> bool:
    return classify(matrix, members).spherical


def spherical_subsets(matrix: CoxeterMatrix) -> list[frozenset[int]]:
    """Every spherical subset, by size, each size in the order of combinations().

    Each spherical U of size r+1 is T | {s} for the spherical T = U - {max U},
    so extending every T of size r only by generators above max(T) reaches
    U exactly once, and in lexicographic order.
    """
    gens = matrix.generators()
    infinite = [frozenset(t for t in gens if matrix.is_infinite(s, t)) for s in gens]
    linked = [frozenset(t for t in gens if matrix.m(s, t) >= 3) for s in gens]
    finite: dict[frozenset[int], bool] = {}  # per connected component

    def extends(T: frozenset[int], s: int) -> bool:
        # T is spherical, so only the component of s in T | {s} can be infinite.
        if not infinite[s].isdisjoint(T):
            return False
        comp, frontier = {s}, [s]
        while frontier:
            joined = (linked[frontier.pop()] & T) - comp
            comp |= joined
            frontier.extend(joined)
        comp = frozenset(comp)
        if comp not in finite:
            finite[comp] = _classify_component(matrix, sorted(comp)).finite
        return finite[comp]

    family = [frozenset()]
    level = family
    while level:
        level = [
            T | {s}
            for T in level
            for s in range(max(T, default=-1) + 1, matrix.n)
            if extends(T, s)
        ]
        family.extend(level)
    return family


def maximal_spherical_subsets(matrix: CoxeterMatrix) -> list[frozenset[int]]:
    """All spherical subsets with no spherical strict superset."""
    family = spherical_subsets(matrix)
    spherical = set(family)
    out = [
        T for T in family
        if not any(T | {s} in spherical for s in matrix.generators() if s not in T)
    ]
    return sorted(out, key=sorted)


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    witnesses: tuple[int, ...]


def hypothesis_check(matrix: CoxeterMatrix, members, s0: int) -> HypothesisReport:
    """Check the trace hypothesis for (T, s0).

    ok requires: T is a maximal spherical subset, m(s0, t) >= 3 for every
    t in T, and m(s0, t0) is infinite for at least one t0 in T (those t0
    are the witnesses).  s0 cannot lie in T since m(s0, s0) = 1.
    """
    T = frozenset(members)
    matrix.pack((*T, s0))
    witnesses = tuple(t for t in sorted(T) if matrix.m(s0, t) == INF)
    # T and s0 are checked, so the extensions of T need no second check.
    maximal = _classify_cached(matrix, T).spherical and not any(
        _classify_cached(matrix, T | {s}).spherical for s in matrix.generators() if s not in T
    )
    bounded_below = all(matrix.m(s0, t) >= 3 for t in T)
    return HypothesisReport(
        ok=maximal and bounded_below and bool(witnesses),
        witnesses=witnesses,
    )
