"""Coxeter matrices: the order function m(s, t) that presents a system.

Generators are identified by their index 0..n-1 throughout the package;
human-readable names live in :mod:`coxkit.systems`.  Infinite orders are
the distinguished value ``math.inf`` (input files spell it ``"inf"``),
never a sentinel integer.

All types here are immutable and hashable; every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import AsymmetricEntry, DiagonalNotOne, OffDiagonalBelowTwo

INF = math.inf

# Generator indices are packed into bytes objects by the word kernel.
MAX_GENERATORS = 255


@dataclass(frozen=True)
class CoxeterMatrix:
    """Symmetric table of orders m(s, t), entries int >= 1 or INF."""

    orders: tuple[tuple[int | float, ...], ...]

    def __post_init__(self) -> None:
        # The package's caches are keyed by the matrix: hash the n x n table once.
        object.__setattr__(self, "_hash", hash(self.orders))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def n(self) -> int:
        return len(self.orders)

    def pack(self, indices) -> bytes:
        """``indices`` as bytes; ValueError names the first one outside [0, n)."""
        letters = tuple(indices)
        try:
            packed = bytes(letters)
            if not packed or max(packed) < self.n:
                return packed
        except (TypeError, ValueError):
            pass
        bad = next(s for s in letters if not (isinstance(s, int) and 0 <= s < self.n))
        raise ValueError(f"generator index {bad!r} out of range [0, {self.n})")

    def m(self, s: int, t: int) -> int | float:
        return self.orders[s][t]

    def is_infinite(self, s: int, t: int) -> bool:
        return self.orders[s][t] == INF

    def generators(self) -> range:
        return range(self.n)

    @cached_property
    def diagram(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(infinite, linked): per generator s, the bitmask of the t with
        m(s, t) = inf and of the t with m(s, t) >= 3.  Not a field, so eq,
        hash and repr ignore it."""
        infinite = tuple(sum(1 << t for t, m in enumerate(row) if m == INF) for row in self.orders)
        linked = tuple(sum(1 << t for t, m in enumerate(row) if m >= 3) for row in self.orders)
        return infinite, linked

    def submatrix(self, members) -> "CoxeterMatrix":
        """The matrix induced on a sorted subset of generators."""
        sub = tuple(sorted(members))
        return CoxeterMatrix(
            tuple(tuple(self.orders[s][t] for t in sub) for s in sub)
        )

    def __repr__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join("inf" if v == INF else str(v) for v in row) + "]"
            for row in self.orders
        )
        return f"CoxeterMatrix([{rows}])"


def _normalize_entry(value, i: int, j: int) -> int | float:
    if value == INF or (isinstance(value, str) and value.strip() == "inf"):
        return INF
    if isinstance(value, bool):
        raise ValueError(f"order entry ({i},{j}) is a bool, expected int or inf")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"order entry ({i},{j})={value!r} is not an integer or inf")


def validate_matrix(raw) -> CoxeterMatrix:
    """Check a square order table and return the immutable matrix.

    Raises :class:`DiagonalNotOne`, :class:`AsymmetricEntry` or
    :class:`OffDiagonalBelowTwo` naming the offending pair, and plain
    ``ValueError`` for malformed tables (not a list of lists, non-square,
    junk entries).
    """
    if not isinstance(raw, (list, tuple)) or not all(isinstance(r, (list, tuple)) for r in raw):
        raise ValueError("orders must be a list of lists")
    rows = [list(r) for r in raw]
    n = len(rows)
    if n > MAX_GENERATORS:
        raise ValueError(f"at most {MAX_GENERATORS} generators are supported")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"order table is not square: row {i} has {len(row)} entries, expected {n}")
    table = [[_normalize_entry(rows[i][j], i, j) for j in range(n)] for i in range(n)]
    for i in range(n):
        if table[i][i] != 1:
            raise DiagonalNotOne(i, table[i][i])
    for i in range(n):
        for j in range(i + 1, n):
            if table[i][j] != table[j][i]:
                raise AsymmetricEntry(i, j, table[i][j], table[j][i])
            if table[i][j] != INF and table[i][j] < 2:
                raise OffDiagonalBelowTwo(i, j, table[i][j])
    return CoxeterMatrix(tuple(tuple(row) for row in table))
