"""Exact word problem through the root system, for words whose braid closure is large.

W acts on V = span{alpha_s} by s(alpha_t) = alpha_t + lambda_st * alpha_s,
with lambda_st = 2cos(pi/m(s,t)), lambda_ss = -2, and lambda_st = 2 for
m = inf (the geometric representation; Bjorner-Brenti, *Combinatorics of
Coxeter Groups*, ch. 4).  Every root is positive or negative, and
l(tg) < l(g) exactly when g^-1(alpha_t) < 0.  The columns g^-1(alpha_t) are
built letter by letter: the letter s changes coordinate s alone,
b_s <- -b_s + sum_u lambda_su b_u.  Their signs are the left descents of g,
and peeling the least t with a negative column (g <- tg: column u gains
lambda_tu times column t, and column t flips) spells the ShortLex-least
reduced word (Casselman, *Computation in Coxeter groups I*, EJC 9, 2002).
The right descents are the left descents of the reversed canonical word.

Coefficients are exact in Z[c], c = 2cos(pi/L), where L is the lcm of the
finite orders other than 2 and 3 between letters of the word (the kernel
runs in the parabolic subgroup those letters generate), and
lambda_m = C_{L/m}(c) for the Dickson polynomials C_0 = 2, C_1 = x,
C_{k+1} = x C_k - C_{k-1}.  A ring element is its list of coefficients in
the basis 1, c, ..., c^(d-1), d = phi(2L)/2, so zero tests are exact.  A
sign comes from a dyadic interval for c that the minimal polynomial of c
certifies (a float only proposes it), narrowed until it decides.  With only
m in {2, 3, inf} the ring is Z (d = 1) and the coefficients are plain ints.
The cost grows with d: each product by an irrational lambda is a d x d
integer matrix.

The caller passes a length cut: an order above it counts as inf.  For a word
shorter than the cut no braid move of such a pair fits in it or in its
one-letter extensions, so the answers agree, and a huge m stays on the int
path.  Every cache here is a pure-function cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul

from .matrix import INF, CoxeterMatrix

_BASE_BITS = 64


def _times_x_minus_1(poly: list[int], k: int) -> list[int]:
    out = [-a for a in poly] + [0] * k
    for i, a in enumerate(poly):
        out[i + k] += a
    return out


def _over_x_minus_1(poly: list[int], k: int) -> list[int]:
    """poly / (x^k - 1), which must divide it."""
    top = len(poly) - 1 - k
    out = [0] * (top + 1)
    for j in range(len(poly) - 1, k - 1, -1):
        out[j - k] = poly[j] + (out[j] if j <= top else 0)
    if any(poly[j] + (out[j] if j <= top else 0) for j in range(k)):
        raise RuntimeError(f"x^{k} - 1 leaves a remainder in a cyclotomic product; this signals a defect")
    return out


def _cyclotomic(n: int) -> list[int]:
    """Phi_n, low to high: the product of (x^(n/e) - 1)^mu(e) over squarefree e | n."""
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, math.isqrt(p) + 1))]
    ups, downs = [], []
    for size in range(len(primes) + 1):
        for chosen in combinations(primes, size):
            (ups if size % 2 == 0 else downs).append(n // math.prod(chosen))
    poly = [1]
    for k in ups:
        poly = _times_x_minus_1(poly, k)
    for k in downs:
        poly = _over_x_minus_1(poly, k)
    return poly


@lru_cache(maxsize=32)
def _minimal_polynomial(L: int) -> tuple[int, ...]:
    """The monic minimal polynomial psi of c = 2cos(pi/L), low to high.

    Phi_2L is palindromic of degree 2h, so x^-h Phi_2L(x) is
    p_h + sum_k p_(h+k) (x^k + x^-k), and x^k + x^-k = C_k(x + 1/x).
    """
    phi = _cyclotomic(2 * L)
    half = (len(phi) - 1) // 2
    psi = [phi[half]] + [0] * half
    before, dickson = [2], [0, 1]
    for k in range(1, half + 1):
        for i, a in enumerate(dickson):
            psi[i] += phi[half + k] * a
        after = [0] + dickson
        for i, a in enumerate(before):
            after[i] -= a
        before, dickson = dickson, after
    return tuple(psi)


def _value_sign(psi: tuple[int, ...], x: int, p: int) -> int:
    """Sign of psi(x / 2^p), evaluated exactly."""
    d = len(psi) - 1
    acc = 0
    for j in range(d, -1, -1):
        acc = acc * x + (psi[j] << (p * (d - j)))
    return (acc > 0) - (acc < 0)


def _sign_changes_above(psi: tuple[int, ...], x: int, p: int) -> int:
    """Sign changes of 2^(pd) psi((y + x) / 2^p) in y.  By Descartes' rule,
    psi has exactly one root above x / 2^p when this is 1."""
    d = len(psi) - 1
    acc = [psi[d]]
    for j in range(d - 1, -1, -1):
        shifted = [x * a for a in acc] + [0]
        for i, a in enumerate(acc):
            shifted[i + 1] += a
        shifted[0] += psi[j] << (p * (d - j))
        acc = shifted
    signs = [a > 0 for a in acc if a]
    return sum(u != v for u, v in zip(signs, signs[1:]))


@lru_cache(maxsize=64)
def _bracket(L: int, p: int) -> tuple[int, int]:
    """Ints lo < hi = lo + 1 with lo / 2^p < c < hi / 2^p.

    c is the largest root of psi, and the next one, 2cos(3pi/L) or less, lies
    more than 32/L^2 below it.  At the base precision a float proposes
    lo < c < hi; one sign change of psi above lo and psi(hi) > 0 certify it.
    Each doubling of p bisects the bracket of half the precision: psi < 0 on
    (lo, c) and > 0 above c.
    """
    psi = _minimal_polynomial(L)
    if p == _BASE_BITS:
        seed = int(math.ldexp(2 * math.cos(math.pi / L), p))
        margin = 1 << max(p - 2 * L.bit_length() - 2, 0)
        lo, hi = seed - margin, seed + margin
        if _sign_changes_above(psi, lo, p) != 1 or _value_sign(psi, hi, p) <= 0:
            raise RuntimeError(f"could not isolate 2cos(pi/{L}) at {p} bits")
    else:
        lo, hi = (x << (p // 2) for x in _bracket(L, p // 2))
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        sign = _value_sign(psi, mid, p)
        if sign == 0:
            raise RuntimeError(f"2cos(pi/{L}) came out rational; this signals a defect")
        lo, hi = (lo, mid) if sign > 0 else (mid, hi)
    return lo, hi


@lru_cache(maxsize=64)
def _power_bounds(L: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """low[i] <= 2^p c^i <= high[i] for i < d, rounded outwards from the bracket."""
    lo, hi = _bracket(L, p)
    low, high = [1 << p], [1 << p]
    for _ in range(len(_minimal_polynomial(L)) - 2):
        low.append(low[-1] * lo >> p)
        high.append(-(-high[-1] * hi >> p))
    return tuple(low), tuple(high)


def _ring_sign(a: list[int], L: int) -> int:
    """Sign of the nonzero element sum a_i c^i of Z[c]."""
    if not any(a[1:]):
        return 1 if a[0] > 0 else -1
    p = _BASE_BITS
    while True:
        low, high = _power_bounds(L, p)
        if sum(x * (low[i] if x > 0 else high[i]) for i, x in enumerate(a)) > 0:
            return 1
        if sum(x * (high[i] if x > 0 else low[i]) for i, x in enumerate(a)) < 0:
            return -1
        p *= 2


@dataclass(frozen=True)
class _Ring:
    """Z[c] for one matrix and length cut, with lambda per neighbour.

    ``neighbours[s]`` lists (u, lambda_su) for every u with m(s, u) != 2:
    lambda is an int (1 for m = 3, 2 for m = inf or above the cut) or the
    d x d integer matrix of the product by C_{L/m}(c).
    """

    L: int
    d: int
    neighbours: tuple[tuple[tuple[int, object], ...], ...]

    def combine(self, acc: list[int], lam, vec: list[int]) -> list[int]:
        """acc + lam * vec, blockwise over d-int ring elements."""
        if type(lam) is int:
            return [a + lam * b for a, b in zip(acc, vec)]
        d = self.d
        out = []
        for k in range(0, len(vec), d):
            block = vec[k:k + d]
            out += [a + sum(map(mul, row, block)) for a, row in zip(acc[k:k + d], lam)]
        return out

    def sign(self, vec: list[int]) -> int:
        """Sign of a root: of its first nonzero coordinate."""
        d = self.d
        for k in range(0, len(vec), d):
            block = vec[k:k + d]
            if any(block):
                return _ring_sign(block, self.L)
        raise RuntimeError("a root came out zero; this signals a defect")


def _times_c(a: list[int], psi: tuple[int, ...]) -> list[int]:
    """c * a in Z[c], reduced by the monic psi."""
    out = [0] + a[:-1]
    if top := a[-1]:
        out = [x - top * q for x, q in zip(out, psi)]
    return out


@lru_cache(maxsize=64)
def _ring(matrix: CoxeterMatrix, cut: int) -> _Ring:
    special = {m for row in matrix.orders for m in row if m != INF and 3 < m <= cut}
    L = math.lcm(*special)
    d = len(_minimal_polynomial(L)) - 1 if special else 1

    def product_matrix(m: int) -> tuple[tuple[int, ...], ...]:
        psi = _minimal_polynomial(L)
        # C_{L/m}(c) by the Dickson recurrence, multiplying by c modulo psi.
        before, dickson = [2] + [0] * (d - 1), [0, 1] + [0] * (d - 2)
        for _ in range(L // m - 1):
            after = _times_c(dickson, psi)
            before, dickson = dickson, [a - b for a, b in zip(after, before)]
        columns = [dickson]
        for _ in range(d - 1):
            columns.append(_times_c(columns[-1], psi))
        return tuple(zip(*columns))

    def lam(m):
        if m == 3:
            return 1
        return product_matrix(m) if m in special else 2

    return _Ring(L, d, tuple(
        tuple((u, lam(m)) for u, m in enumerate(row) if u != s and m != 2)
        for s, row in enumerate(matrix.orders)))


def _identity(n: int, d: int) -> list[list[int]]:
    """alpha_0, ..., alpha_(n-1) as n blocks of d ints each."""
    return [[int(i == t * d) for i in range(n * d)] for t in range(n)]


def _columns(ring: _Ring, n: int, word: bytes) -> list[list[int]]:
    """The columns g^-1(alpha_t), g spelled by ``word``, each n blocks of d ints."""
    d = ring.d
    # rows[u] holds coordinate u of every column: the letter s rewrites row s.
    rows = _identity(n, d)
    for s in word:
        row = [-x for x in rows[s]]
        for u, lam in ring.neighbours[s]:
            row = ring.combine(row, lam, rows[u])
        rows[s] = row
    return [[x for row in rows for x in row[t * d:(t + 1) * d]] for t in range(n)]


def reduce(matrix: CoxeterMatrix, word: bytes, cut: int) -> tuple[bytes, bytes, bytes]:
    """(canonical word, left descents, right descents) of the element, as in
    ``words._reduce_bytes``; orders above ``cut`` count as inf.

    The work runs in the parabolic subgroup W_J of the letters J of the word:
    the element lies in W_J, so do its reduced words and its descents, and
    relabelling J in increasing order keeps ShortLex order.  The ring then
    comes from the orders within J alone.
    """
    letters = bytes(sorted(set(word)))
    local = bytes(range(len(letters)))
    matrix, word = matrix.submatrix(letters), word.translate(bytes.maketrans(letters, local))
    ring, n = _ring(matrix, cut), matrix.n
    columns = _columns(ring, n, word)
    signs = [ring.sign(col) for col in columns]
    left = bytes(t for t, x in enumerate(signs) if x < 0)
    canonical = bytearray()
    while -1 in signs:
        t = signs.index(-1)
        canonical.append(t)
        peeled = columns[t]
        for u, lam in ring.neighbours[t]:
            columns[u] = ring.combine(columns[u], lam, peeled)
            signs[u] = ring.sign(columns[u])
        columns[t] = [-x for x in peeled]
        signs[t] = 1
        if len(canonical) > len(word):
            raise RuntimeError("root peeling outran the word; this signals a defect")
    # Only the identity has no left descent: every column is back to alpha_t.
    if columns != _identity(n, ring.d) or (len(word) - len(canonical)) % 2:
        raise RuntimeError("root peeling did not end at the identity; this signals a defect")
    canonical = bytes(canonical)
    columns = _columns(ring, n, canonical[::-1])
    right = bytes(t for t, col in enumerate(columns) if ring.sign(col) < 0)
    back = bytes.maketrans(local, letters)
    return canonical.translate(back), left.translate(back), right.translate(back)
