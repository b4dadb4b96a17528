"""Longest coset representatives and descent-class machinery.

For a spherical subset T and any w, the coset W_T.w has a unique longest
element v, characterized by l(t.v) < l(v) for every t in T, and it
satisfies l(v) = l(v.w^-1) + l(w).  We track the pair x = v.w^-1 in W_T
together with v, and evolve x incrementally along length-increasing
extensions of w: appending a letter either leaves x unchanged or deletes
exactly one letter from it, so l(x) never increases.  `coset_step`
computes the new x directly; the one-letter law is verified by the
`coset_step` check of `lemma_suite`, not at each step.

Pairs come from `longest_in_coset` (which checks that T is spherical) or
an earlier `coset_step`, which trusts its pair the way `multiply` trusts
an `Element`; `CosetLongest.check` recomputes the invariants for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LengthDecreases, NonSphericalSubset
from .finite_type import is_spherical
from .matrix import INF
from .words import Element, inverse, left_descents, multiply, right_descents


@dataclass(frozen=True)
class CosetLongest:
    """x in W_T and v = x.base, the longest element of W_T.base."""

    x: Element
    v: Element
    base: Element

    def check(self, members) -> bool:
        """All three defining invariants, recomputed from scratch."""
        T = frozenset(members)
        if not set(self.x.letters) <= T:
            return False
        if multiply(self.x, self.base) != self.v:
            return False
        if self.v.length != self.x.length + self.base.length:
            return False
        return T <= left_descents(self.v)


def longest_in_coset(members, w: Element) -> CosetLongest:
    """Greedy ascent to the longest element of W_T.w.

    While some t in T is not a left descent of v, replace v by t.v (the
    least such t: T is scanned in index order and restarted after each
    success).  Termination is finiteness of W_T; the result does not
    depend on the scan order, which the test suite asserts against the
    enumeration oracle.
    """
    T = frozenset(members)
    matrix = w.matrix
    if not is_spherical(matrix, T):
        raise NonSphericalSubset(T)
    v = w
    while ascents := T - left_descents(v):
        v = multiply(Element.generator(matrix, min(ascents)), v)
    return CosetLongest(x=multiply(v, inverse(w)), v=v, base=w)


@dataclass(frozen=True)
class StepOutcome:
    """The pair after the base word grows by one ascending letter.

    ``unchanged`` is True when x survived the step.  Otherwise the new x is
    the old one with one letter deleted, a law that `lemma_suite` checks.
    """

    pair: CosetLongest
    unchanged: bool

    @property
    def x_next(self) -> Element:
        return self.pair.x


def coset_step(pair: CosetLongest, s: int) -> StepOutcome:
    """Advance the longest-coset pair from w to w.s, where l(w.s) = l(w) + 1.

    Either x survives (when v.s still ascends; v.s is the new top) or the
    cosets W_T.w and W_T.w.s coincide, v stays on top and the new x is
    v.(w.s)^-1; in both cases l(x) cannot grow.
    """
    w, v, x = pair.base, pair.v, pair.x
    g = Element.generator(w.matrix, s)
    ws = multiply(w, g)
    if ws.length != w.length + 1:
        raise LengthDecreases(
            f"letter {s} shortens the base word (length {w.length} -> {ws.length})"
        )
    vs = multiply(v, g)
    if vs.length == v.length + 1:
        return StepOutcome(CosetLongest(x=x, v=vs, base=ws), unchanged=True)
    return StepOutcome(CosetLongest(x=multiply(v, inverse(ws)), v=v, base=ws), unchanged=False)


def in_WT_class(w: Element, members) -> bool:
    """Whether the right-descent set of w is exactly T."""
    return right_descents(w) == frozenset(members)


@dataclass(frozen=True)
class DescentStepReport:
    hypothesis_ok: bool
    conclusion_ok: bool


def lemma4_apply(w: Element, s0: int) -> DescentStepReport:
    """Check: appending s0 to w lands in the class with descent set {s0}.

    The hypothesis asks m(s0, t) >= 3 for every descent t of w and
    m(s0, t0) infinite for at least one.  When it holds the conclusion
    must hold too (a counterexample is a defect signal); when it fails
    the raw membership verdict is still reported.
    """
    matrix = w.matrix
    g = Element.generator(matrix, s0)
    descents = right_descents(w)
    hypothesis = (
        all(matrix.m(s0, t) >= 3 for t in descents)
        and any(matrix.m(s0, t) == INF for t in descents)
    )
    return DescentStepReport(
        hypothesis_ok=hypothesis,
        conclusion_ok=in_WT_class(multiply(w, g), {s0}),
    )
