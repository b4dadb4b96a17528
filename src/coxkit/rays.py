"""Stabilization traces along infinite reduced words.

An eventually periodic word prefix.period.period... whose finite prefixes
are all reduced stands in for a direction to infinity in the Cayley
graph.  Folding it letter by letter while maintaining the longest-coset
pair x_i for a spherical subset T gives a sequence with non-increasing
l(x_i); the trace records every step, the index where x last changed,
and whether the stabilization is certified.

Certification policy: the stabilization is certified (reason
PhaseRecurrence) when one full period past both the candidate index and
the prefix fits within the horizon; otherwise it is HorizonOnly.  As the
candidate index is the last change of x up to the horizon, x recurs
there by construction: until a cone-type certificate replaces it, this
is a horizon test, not a proof that x never changes again.  Every letter
is checked as it is folded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .cosets import coset_step, in_WT_class, longest_in_coset
from .errors import HypothesisFailed, LengthDecreases, NotReducedAt
from .finite_type import hypothesis_check
from .matrix import CoxeterMatrix
from .words import Element, inverse, multiply

DEFAULT_HORIZON = 50

PHASE_RECURRENCE = "PhaseRecurrence"
HORIZON_ONLY = "HorizonOnly"


@dataclass(frozen=True)
class RaySpec:
    """An eventually periodic word prefix.period.period...

    Reducedness is not stored: `stabilize` checks every letter it folds.
    """

    matrix: CoxeterMatrix
    prefix: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be non-empty")

    def letter(self, i: int) -> int:
        """The i-th letter, 1-based."""
        if i < 1:
            raise ValueError("letters are indexed from 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        return self.period[(i - len(self.prefix) - 1) % len(self.period)]

    def letters(self, horizon: int):
        return tuple(self.letter(i) for i in range(1, horizon + 1))


def make_ray(matrix: CoxeterMatrix, prefix, period, horizon: int = DEFAULT_HORIZON) -> RaySpec:
    """Build a ray and check that every prefix up to ``horizon`` is reduced.

    Each letter must lengthen the element by one; the first letter that
    fails raises NotReducedAt with its 1-based index.
    """
    ray = RaySpec(matrix, tuple(prefix), tuple(period))
    w = Element.identity(matrix)
    for i in range(1, horizon + 1):
        w = multiply(w, Element.generator(matrix, ray.letter(i)))
        if w.length != i:
            raise NotReducedAt(i)
    return ray


@dataclass(frozen=True)
class TraceStep:
    i: int
    w: Element
    x: Element
    len_x: int


@dataclass(frozen=True)
class Stabilization:
    candidate_n: int
    certified: bool
    reason: str


@dataclass(frozen=True)
class MembershipCheck:
    i: int
    s0_check: bool
    t0_check: bool


@dataclass(frozen=True)
class TraceReport:
    steps: tuple[TraceStep, ...]
    stabilization: Stabilization
    x_limit: Element
    memberships: tuple[MembershipCheck, ...] = field(default=())


def stabilize(members, ray: RaySpec, horizon: int = DEFAULT_HORIZON) -> TraceReport:
    """Fold the ray and track the longest-coset pair for T.

    Raises NotReducedAt(i) at the first letter i that does not lengthen the word.
    """
    if not isinstance(ray, RaySpec):
        raise TypeError("stabilize needs a RaySpec")
    steps: list[TraceStep] = []
    pair = None
    for i, s in enumerate(ray.letters(horizon), 1):
        if pair is None:
            pair = longest_in_coset(members, Element.generator(ray.matrix, s))
        else:
            try:
                pair = coset_step(pair, s).pair
            except LengthDecreases:
                raise NotReducedAt(i) from None
        steps.append(TraceStep(i=i, w=pair.base, x=pair.x, len_x=pair.x.length))

    if not steps:
        raise ValueError("horizon must be >= 1")
    changes = [
        step.i for prev, step in zip(steps, steps[1:]) if step.x != prev.x
    ]
    candidate_n = changes[-1] if changes else 1
    x_limit = steps[candidate_n - 1].x

    lo = max(candidate_n, len(ray.prefix) + 1)
    certified = lo + len(ray.period) <= horizon
    reason = PHASE_RECURRENCE if certified else HORIZON_ONLY
    return TraceReport(
        steps=tuple(steps),
        stabilization=Stabilization(candidate_n, certified, reason),
        x_limit=x_limit,
    )


def theorem_trace(ray, members, s0: int, t0: int, horizon: int = DEFAULT_HORIZON) -> TraceReport:
    """Run stabilize, then verify both descent-class memberships.

    Requires the (T, s0) hypothesis with t0 among its witnesses.  For
    every step past the candidate index the report records whether
    (s0.x.w_i)^-1 has descent set {s0} and (t0.s0.x.w_i)^-1 has descent
    set {t0}; under a certified stabilization every check must pass.
    """
    if not isinstance(ray, RaySpec):
        raise TypeError("theorem_trace needs a RaySpec")
    matrix = ray.matrix
    report = hypothesis_check(matrix, members, s0)
    if not report.ok:
        raise HypothesisFailed(
            f"(T={sorted(frozenset(members))}, s0={s0}) fails the hypothesis"
        )
    if t0 not in report.witnesses:
        raise HypothesisFailed(
            f"t0={t0} is not an infinite-order witness among {report.witnesses}"
        )
    trace = stabilize(members, ray, horizon)
    x = trace.x_limit
    s0x = multiply(Element.generator(matrix, s0), x)
    t0s0x = multiply(Element.generator(matrix, t0), s0x)
    memberships = []
    for step in trace.steps:
        if step.i < trace.stabilization.candidate_n:
            continue
        memberships.append(MembershipCheck(
            i=step.i,
            s0_check=in_WT_class(inverse(multiply(s0x, step.w)), {s0}),
            t0_check=in_WT_class(inverse(multiply(t0s0x, step.w)), {t0}),
        ))
    return replace(trace, memberships=tuple(memberships))
