"""Exhaustive verification sweeps over small Cayley balls.

Each check replays one of the combinatorial laws the package relies on,
over every instance inside a ball, comparing the fast code paths against
the enumeration oracle.  A correct build reports zero failures; any
failure description names the offending instance.

Work is shared within one run, never across runs: each coset W_T.w is
enumerated once and its top and descent characterization checked once,
while every w in it still counts as an instance with its own messages;
each greedy pair `longest_in_coset(T, w)` is computed once and serves
both coset checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import product, takewhile

from . import cosets, oracle
from .finite_type import classify, is_spherical, spherical_subsets
from .matrix import INF
from .systems import SystemConfig
from .words import Element, inverse, left_descents, multiply, reduce_word, right_descents

COSET_RADIUS_CAP = 5
STEP_RADIUS_CAP = 4
WORD_SWEEP_CAP = 6


@dataclass
class CheckResult:
    name: str
    instances: int
    failures: list[str]
    radius: int
    wall_ms: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self, timings: bool = False) -> dict:
        out = {
            "name": self.name,
            "instances": self.instances,
            "failures": list(self.failures),
            "radius": self.radius,
        }
        if timings:
            out["wall_ms"] = self.wall_ms
        return out


@dataclass
class SuiteReport:
    system: str
    radius: int
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self, timings: bool = False) -> dict:
        return {
            "system": self.system,
            "radius": self.radius,
            "ok": self.ok,
            "checks": [c.to_dict(timings) for c in self.checks],
        }


def _spell(config: SystemConfig, thing) -> str:
    if isinstance(thing, Element):
        return ".".join(config.spell(thing)) or "e"
    return ".".join(config.spell(tuple(thing))) or "(empty)"


def _all_words(n: int, max_len: int):
    for length in range(max_len + 1):
        yield from product(range(n), repeat=length)


def lemma_suite(config: SystemConfig, radius: int) -> SuiteReport:
    """Run every check against one system at the given ball radius.

    Each check yields one list of failure messages per instance it covers.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    matrix = config.matrix
    name = config.label or ",".join(config.names)
    family = spherical_subsets(matrix)
    # One ball for every check: inner edges and each coset W_T.w of coset_longest.
    longest = max(classify(matrix, T).longest for T in family)
    big = oracle.ball(matrix, max(radius + 1, min(radius, COSET_RADIUS_CAP) + longest))
    inner = list(takewhile(lambda e: e.length <= radius, big))
    word_cap = min(radius, WORD_SWEEP_CAP)

    def canonical_form():
        for word in _all_words(matrix.n, word_cap):
            fast = reduce_word(matrix, word)
            slow = big.resolve(word)
            yield [] if fast == slow else [f"word {_spell(config, word)}: {fast!r} != oracle {slow!r}"]

    def deletion_property():
        for word in _all_words(matrix.n, word_cap):
            target = big.resolve(word)
            if target.length >= len(word):
                continue
            hit = any(
                big.resolve(word[:i] + word[i + 1:j] + word[j + 1:]) == target
                for i in range(len(word))
                for j in range(i + 1, len(word))
            )
            yield [] if hit else [f"no deletion pair for {_spell(config, word)}"]

    def braid_invariance():
        # The braid relations come from the matrix, not from the reducer: an
        # alternating factor s.t.s... of length m(s, t) becomes t.s.t...
        for word in _all_words(matrix.n, word_cap):
            base = reduce_word(matrix, word)
            neighbours = []
            for i, s in enumerate(word):
                for t in range(matrix.n):
                    m = matrix.m(s, t)
                    if t == s or m == INF or i + m > len(word):
                        continue
                    factor = tuple(s if k % 2 == 0 else t for k in range(m))
                    if word[i:i + m] == factor:
                        swapped = tuple(t if k % 2 == 0 else s for k in range(m))
                        neighbours.append(word[:i] + swapped + word[i + m:])
            for i in range(len(word) - 1):
                if word[i] == word[i + 1]:
                    neighbours.append(word[:i] + word[i + 2:])
            for u in neighbours:
                ok = reduce_word(matrix, u) == base
                yield [] if ok else [f"move changed value: {_spell(config, word)} -> {_spell(config, u)}"]

    def length_parity():
        for e in inner:
            for s in range(matrix.n):
                neighbour = big.edge(e, s)
                ok = neighbour is not None and abs(big.depth_of(neighbour) - big.depth_of(e)) == 1
                yield [] if ok else [f"length parity fails at {_spell(config, e)} * {config.names[s]}"]

    def inverse_involution():
        for e in inner:
            inv = inverse(e)
            bad = []
            if inv.length != e.length:
                bad.append(f"l(inv) != l at {_spell(config, e)}")
            if inverse(inv) != e:
                bad.append(f"inv(inv) != id at {_spell(config, e)}")
            if right_descents(e) != left_descents(inv):
                bad.append(f"descent duality fails at {_spell(config, e)}")
            yield bad

    def descent_spherical():
        for e in inner:
            ok = is_spherical(matrix, right_descents(e))
            yield [] if ok else [f"non-spherical descent set at {_spell(config, e)}"]

    def descent_agreement():
        for e in inner:
            ok = right_descents(e) == big.right_descents_of(e)
            yield [] if ok else [f"descents disagree with oracle at {_spell(config, e)}"]

    # One greedy pair per (T, w) in this run, shared by coset_longest and coset_step.
    greedy = cache(cosets.longest_in_coset)

    def coset_longest():
        small = [e for e in inner if e.length <= COSET_RADIUS_CAP]
        for T in family:
            # Each coset is enumerated once: every member maps to the coset's
            # top (None when the maximum is not unique) and the members that
            # break the descent characterization.
            verdicts: dict[Element, tuple[Element | None, list[Element]]] = {}
            for w in small:
                if w not in verdicts:
                    coset = big.coset(T, w)
                    try:
                        top = oracle.unique_top(T, w, coset)
                    except oracle.NonUniqueMaximum:
                        top, broken = None, []
                    else:
                        broken = [m for m in coset if (T <= left_descents(m)) != (m == top)]
                    verdicts.update(dict.fromkeys(coset, (top, broken)))
                top, broken = verdicts[w]
                at = f"W_{sorted(T)}.{_spell(config, w)}"
                if top is None:
                    yield [f"non-unique maximum in {at}"]
                    continue
                pair = greedy(T, w)
                bad = []
                if pair.v != top:
                    bad.append(f"greedy != oracle for {at}")
                if not pair.check(T):
                    bad.append(f"invariants fail for {at}")
                bad += [f"descent characterization fails at {_spell(config, m)} in {at}" for m in broken]
                yield bad

    def coset_step():
        small = [e for e in inner if e.length <= STEP_RADIUS_CAP]
        for T in family:
            for w in small:
                pair = greedy(T, w)
                for s in range(matrix.n):
                    ws = multiply(w, Element.generator(matrix, s))
                    if ws.length != w.length + 1:
                        continue
                    outcome = cosets.coset_step(pair, s)
                    at = f"W_{sorted(T)}, w={_spell(config, w)}, s={config.names[s]}"
                    bad = []
                    if outcome.x_next != greedy(T, ws).x:
                        bad.append(f"step != scratch at {at}")
                    if outcome.pair.base != ws or not outcome.pair.check(T):
                        bad.append(f"stepped pair invalid at {at}")
                    if outcome.x_next.length > pair.x.length:
                        bad.append(f"l(x') grew at {at}")
                    if outcome.unchanged:
                        if outcome.x_next != pair.x:
                            bad.append(f"unchanged but different x at w={_spell(config, w)}")
                    elif not any(
                        reduce_word(matrix, pair.x.letters[:i] + pair.x.letters[i + 1:]) == outcome.x_next
                        for i in range(pair.x.length)
                    ):
                        bad.append(f"no one-letter deletion gives x' at {at}")
                    yield bad

    def descent_step_lemma():
        for e in inner:
            for s0 in range(matrix.n):
                report = cosets.lemma4_apply(e, s0)
                if report.hypothesis_ok:
                    ok = report.conclusion_ok
                    yield [] if ok else [f"conclusion fails at w={_spell(config, e)}, s0={config.names[s0]}"]

    def descent_class_partition():
        # The oracle names the class of e; the reducer must put e in it alone.
        for e in inner:
            T = sorted(big.right_descents_of(e))
            classes = [sorted(U) for U in family if cosets.in_WT_class(e, U)]
            yield [] if classes == [T] else [f"element {_spell(config, e)} in classes {classes}, oracle class {T}"]

    checks: list[CheckResult] = []
    for check in (
        canonical_form, deletion_property, braid_invariance, length_parity,
        inverse_involution, descent_spherical, descent_agreement,
        coset_longest, coset_step, descent_step_lemma, descent_class_partition,
    ):
        start = time.perf_counter()
        instances, failures = 0, []
        for found in check():
            instances += 1
            failures += found
        checks.append(CheckResult(
            name=check.__name__,
            instances=instances,
            failures=failures,
            radius=radius,
            wall_ms=int((time.perf_counter() - start) * 1000),
        ))
    return SuiteReport(system=name, radius=radius, checks=checks)
