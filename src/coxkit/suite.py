"""Exhaustive verification sweeps over small Cayley balls.

Each check replays one of the combinatorial laws the package relies on,
over every instance inside a ball, comparing the fast code paths against
the enumeration oracle.  A correct build reports zero failures; any
failure description names the offending instance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product

from . import cosets, oracle, words
from .finite_type import is_spherical, spherical_subsets
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
    """Run every check against one system at the given ball radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    matrix = config.matrix
    name = config.label or ",".join(config.names)
    big = oracle.ball(matrix, radius + 1)
    inner = [e for e in big.elements if e.length <= radius]
    word_cap = min(radius, WORD_SWEEP_CAP)
    family = spherical_subsets(matrix)
    checks: list[CheckResult] = []

    def run(check_name, fn):
        start = time.perf_counter()
        instances, failures = fn()
        checks.append(CheckResult(
            name=check_name,
            instances=instances,
            failures=failures,
            radius=radius,
            wall_ms=int((time.perf_counter() - start) * 1000),
        ))

    def canonical_form():
        count, bad = 0, []
        for word in _all_words(matrix.n, word_cap):
            count += 1
            fast = reduce_word(matrix, word)
            slow = big.resolve(word)
            if fast != slow:
                bad.append(f"word {_spell(config, word)}: {fast!r} != oracle {slow!r}")
        return count, bad

    def deletion_property():
        count, bad = 0, []
        for word in _all_words(matrix.n, word_cap):
            target = big.resolve(word)
            if target.length >= len(word):
                continue
            count += 1
            hits = [
                (i, j)
                for i in range(len(word))
                for j in range(i + 1, len(word))
                if big.resolve(word[:i] + word[i + 1:j] + word[j + 1:]) == target
            ]
            if not hits:
                bad.append(f"no deletion pair for {_spell(config, word)}")
        return count, bad

    def braid_invariance():
        count, bad = 0, []
        kernel = words._kernel(matrix)
        for word in _all_words(matrix.n, word_cap):
            base = reduce_word(matrix, word)
            w = bytes(word)
            neighbours = []
            for pat, rep in kernel.moves:
                start = w.find(pat)
                while start != -1:
                    neighbours.append(w[:start] + rep + w[start + len(pat):])
                    start = w.find(pat, start + 1)
            for i in range(len(w) - 1):
                if w[i] == w[i + 1]:
                    neighbours.append(w[:i] + w[i + 2:])
            for u in neighbours:
                count += 1
                if reduce_word(matrix, tuple(u)) != base:
                    bad.append(f"move changed value: {_spell(config, word)} -> {_spell(config, tuple(u))}")
        return count, bad

    def length_parity():
        count, bad = 0, []
        for e in inner:
            for s in range(matrix.n):
                count += 1
                neighbour = big.edge(e, s)
                if neighbour is None or abs(big.depth_of(neighbour) - big.depth_of(e)) != 1:
                    bad.append(f"length parity fails at {_spell(config, e)} * {config.names[s]}")
        return count, bad

    def inverse_involution():
        count, bad = 0, []
        for e in inner:
            count += 1
            inv = inverse(e)
            if inv.length != e.length:
                bad.append(f"l(inv) != l at {_spell(config, e)}")
            if inverse(inv) != e:
                bad.append(f"inv(inv) != id at {_spell(config, e)}")
            if right_descents(e) != left_descents(inv):
                bad.append(f"descent duality fails at {_spell(config, e)}")
        return count, bad

    def descent_spherical():
        count, bad = 0, []
        for e in inner:
            count += 1
            if not is_spherical(matrix, right_descents(e)):
                bad.append(f"non-spherical descent set at {_spell(config, e)}")
        return count, bad

    def descent_agreement():
        count, bad = 0, []
        for e in inner:
            count += 1
            if right_descents(e) != big.right_descents_of(e):
                bad.append(f"descents disagree with oracle at {_spell(config, e)}")
        return count, bad

    def coset_longest():
        count, bad = 0, []
        cap = min(radius, COSET_RADIUS_CAP)
        small = [e for e in inner if e.length <= cap]
        for T in family:
            for w in small:
                count += 1
                try:
                    top = oracle.longest_in_coset_oracle(T, w)
                except oracle.NonUniqueMaximum:
                    bad.append(f"non-unique maximum in W_{sorted(T)}.{_spell(config, w)}")
                    continue
                pair = cosets.longest_in_coset(T, w)
                if pair.v != top:
                    bad.append(f"greedy != oracle for W_{sorted(T)}.{_spell(config, w)}")
                if not pair.check(T):
                    bad.append(f"invariants fail for W_{sorted(T)}.{_spell(config, w)}")
                for member in oracle.coset_elements(T, w):
                    all_down = all(
                        multiply(Element.generator(matrix, t), member).length < member.length
                        for t in T
                    )
                    if all_down != (member == top):
                        bad.append(
                            f"descent characterization fails at {_spell(config, member)} "
                            f"in W_{sorted(T)}.{_spell(config, w)}"
                        )
        return count, bad

    def coset_step_agreement():
        count, bad = 0, []
        cap = min(radius, STEP_RADIUS_CAP)
        small = [e for e in inner if e.length <= cap]
        for T in family:
            for w in small:
                pair = cosets.longest_in_coset(T, w)
                for s in range(matrix.n):
                    ws = multiply(w, Element.generator(matrix, s))
                    if ws.length != w.length + 1:
                        continue
                    count += 1
                    outcome = cosets.coset_step(pair, s)
                    fresh = cosets.longest_in_coset(T, ws).x
                    if outcome.x_next != fresh:
                        bad.append(f"step != scratch at W_{sorted(T)}, w={_spell(config, w)}, s={config.names[s]}")
                    if outcome.pair.base != ws or not outcome.pair.check(T):
                        bad.append(f"stepped pair invalid at W_{sorted(T)}, w={_spell(config, w)}, s={config.names[s]}")
                    if outcome.x_next.length > pair.x.length:
                        bad.append(f"l(x') grew at W_{sorted(T)}, w={_spell(config, w)}, s={config.names[s]}")
                    if outcome.unchanged:
                        if outcome.x_next != pair.x:
                            bad.append(f"unchanged but different x at w={_spell(config, w)}")
                    else:
                        i = outcome.deleted_index
                        dropped = reduce_word(matrix, pair.x.letters[:i] + pair.x.letters[i + 1:])
                        if dropped != outcome.x_next:
                            bad.append(f"deletion index wrong at w={_spell(config, w)}, s={config.names[s]}")
        return count, bad

    def descent_step_lemma():
        count, bad = 0, []
        for e in inner:
            for s0 in range(matrix.n):
                report = cosets.lemma4_apply(e, s0)
                if report.hypothesis_ok:
                    count += 1
                    if not report.conclusion_ok:
                        bad.append(f"conclusion fails at w={_spell(config, e)}, s0={config.names[s0]}")
        return count, bad

    def descent_class_partition():
        count, bad = 0, []
        for e in inner:
            count += 1
            T = right_descents(e)
            if not cosets.in_WT_class(e, T):
                bad.append(f"element {_spell(config, e)} not in its own class")
            others = sum(
                1 for U in family
                if U != T and cosets.in_WT_class(e, U)
            )
            if others:
                bad.append(f"element {_spell(config, e)} in {others + 1} classes")
        return count, bad

    run("canonical_form", canonical_form)
    run("deletion_property", deletion_property)
    run("braid_invariance", braid_invariance)
    run("length_parity", length_parity)
    run("inverse_involution", inverse_involution)
    run("descent_spherical", descent_spherical)
    run("descent_agreement", descent_agreement)
    run("coset_longest", coset_longest)
    run("coset_step", coset_step_agreement)
    run("descent_step_lemma", descent_step_lemma)
    run("descent_class_partition", descent_class_partition)
    return SuiteReport(system=name, radius=radius, checks=checks)
