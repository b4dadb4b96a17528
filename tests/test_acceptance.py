"""Acceptance gate: exact combinatorial checks, zero failures tolerated.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every check is tolerance-zero; the two timed criteria assert
their wall-clock budgets (60 s for the oracle sweep, 5 s for the trace).
"""

import time
from itertools import product

import coxkit as ck

SYSTEMS = ["A2", "A3", "B3", "I2(7)", "tilde-A2", "Dinf", "G1"]


def _configs():
    return [ck.preset(name) for name in SYSTEMS]


def _line(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_oracle_equivalence():
    # reduce() agrees with the independent BFS oracle on every word of
    # length <= 8 (this covers every product of ball elements within the
    # same letter budget), in all seven systems, within 60 s.
    start = time.perf_counter()
    checked = 0
    mismatches = 0
    for cfg in _configs():
        b8 = ck.ball(cfg.matrix, 8)
        for length in range(9):
            for word in product(range(cfg.matrix.n), repeat=length):
                checked += 1
                if ck.reduce_word(cfg.matrix, word) != b8.resolve(word):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    _line(1, mismatches == 0 and elapsed < 60.0,
          f"oracle equivalence on {checked} words across {len(SYSTEMS)} systems, "
          f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_2_group_orders():
    expected = {"A3": 24, "B3": 48, "H3": 120, "I2(7)": 14}
    bad = []
    for name, order in expected.items():
        cfg = ck.preset(name)
        enumerated = len(ck.full_group(cfg.matrix))
        catalogued = ck.classify(cfg.matrix, range(cfg.matrix.n)).order
        if not (enumerated == catalogued == order):
            bad.append((name, enumerated, catalogued, order))
    _line(2, not bad, f"group orders {expected} match enumeration and catalogue {bad or ''}")


def test_criterion_3_length_changes_by_one():
    checked = 0
    bad = 0
    for cfg in _configs():
        b7 = ck.ball(cfg.matrix, 7)
        for w in b7.elements:
            if w.length > 6:
                continue
            for s in range(cfg.matrix.n):
                g = ck.Element.generator(cfg.matrix, s)
                for u in (ck.multiply(w, g), ck.multiply(g, w)):
                    checked += 1
                    if abs(u.length - w.length) != 1:
                        bad += 1
    _line(3, bad == 0, f"length changes by exactly 1 for {checked} (w, s) sides, {bad} violations")


def test_criterion_4_descent_sets_spherical():
    checked = 0
    bad = 0
    for name in ("tilde-A2", "Dinf", "G1"):
        cfg = ck.preset(name)
        for w in ck.ball(cfg.matrix, 6).elements:
            checked += 1
            if not ck.is_spherical(cfg.matrix, ck.right_descents(w)):
                bad += 1
    _line(4, bad == 0, f"descent sets spherical for {checked} elements of the infinite systems, {bad} violations")


def test_criterion_5_longest_coset_representatives():
    checked = 0
    failures = []
    for cfg in _configs():
        matrix = cfg.matrix
        b5 = ck.ball(matrix, 5)
        for T in ck.spherical_subsets(matrix):
            for w in b5.elements:
                checked += 1
                try:
                    top = ck.longest_in_coset_oracle(T, w)
                except ck.NonUniqueMaximum:
                    failures.append(f"{cfg.label}: non-unique max for T={sorted(T)}, w={w!r}")
                    continue
                pair = ck.longest_in_coset(T, w)
                if pair.v != top:
                    failures.append(f"{cfg.label}: greedy != oracle for T={sorted(T)}, w={w!r}")
                if pair.v.length != pair.x.length + w.length:
                    failures.append(f"{cfg.label}: length additivity fails for T={sorted(T)}, w={w!r}")
                if not ck.in_parabolic(pair.x, T):
                    failures.append(f"{cfg.label}: x outside W_T for T={sorted(T)}, w={w!r}")
                for member in ck.coset_elements(T, w):
                    all_down = all(
                        ck.multiply(ck.Element.generator(matrix, t), member).length
                        < member.length
                        for t in T
                    )
                    if all_down != (member == top):
                        failures.append(
                            f"{cfg.label}: descent characterization fails at {member!r}"
                        )
    _line(5, not failures,
          f"longest-coset uniqueness/characterization/additivity on {checked} "
          f"(T, w) pairs, failures: {failures[:3] if failures else 'none'}")


def test_criterion_6_coset_step_evolution():
    checked = 0
    failures = []
    for cfg in _configs():
        matrix = cfg.matrix
        b4 = ck.ball(matrix, 4)
        for T in ck.spherical_subsets(matrix):
            for w in b4.elements:
                x = ck.longest_in_coset(T, w).x
                for s in range(matrix.n):
                    ws = ck.multiply(w, ck.Element.generator(matrix, s))
                    if ws.length != w.length + 1:
                        continue
                    checked += 1
                    out = ck.coset_step(ck.longest_in_coset(T, w), s)
                    fresh = ck.longest_in_coset(T, ws).x
                    if out.x_next != fresh:
                        failures.append(f"{cfg.label}: step != scratch at T={sorted(T)}, w={w!r}, s={s}")
                    if out.x_next.length > x.length:
                        failures.append(f"{cfg.label}: l(x') > l(x) at T={sorted(T)}, w={w!r}, s={s}")
                    if out.unchanged:
                        if out.x_next != x:
                            failures.append(f"{cfg.label}: unchanged relation lies at w={w!r}")
                    else:
                        deletions = (
                            ck.reduce_word(matrix, x.letters[:i] + x.letters[i + 1:])
                            for i in range(x.length)
                        )
                        if out.x_next not in deletions:
                            failures.append(f"{cfg.label}: no one-letter deletion gives x' at w={w!r}, s={s}")
    _line(6, not failures,
          f"coset-step evolution matches recomputation on {checked} "
          f"(T, w, s) triples, failures: {failures[:3] if failures else 'none'}")


def test_criterion_7_descent_step_lemma_in_g1():
    g1 = ck.preset("G1")
    checked = 0
    bad = 0
    for w in ck.ball(g1.matrix, 6).elements:
        for s0 in range(g1.matrix.n):
            report = ck.lemma4_apply(w, s0)
            if report.hypothesis_ok:
                checked += 1
                if not report.conclusion_ok:
                    bad += 1
    _line(7, checked > 0 and bad == 0,
          f"descent-step conclusion holds for {checked}/{checked} hypothesis "
          f"instances in ball(6) of G1, {bad} violations")


def test_criterion_8_theorem_trace():
    start = time.perf_counter()
    g1 = ck.preset("G1")
    T = g1.subset("t0,t1")
    s0, t0 = g1.index("s0"), g1.index("t0")
    ray = ck.make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=50)
    report = ck.theorem_trace(ray, T, s0, t0, horizon=50)
    st = report.stabilization
    ok = (
        st.certified
        and st.reason == "PhaseRecurrence"
        and st.candidate_n <= 2
        and g1.spell(report.x_limit) == ["t1"]
        and all(m.s0_check and m.t0_check for m in report.memberships)
        and {m.i for m in report.memberships} == set(range(st.candidate_n, 51))
    )
    # Per-step recomputation for i <= 10, via both the greedy ascent and
    # the enumeration oracle.
    for step in report.steps[:10]:
        ok = ok and step.x == ck.longest_in_coset(T, step.w).x
        top = ck.longest_in_coset_oracle(T, step.w)
        ok = ok and step.x == ck.multiply(top, ck.inverse(step.w))
    elapsed = time.perf_counter() - start
    _line(8, ok and elapsed < 5.0,
          f"trace certified PhaseRecurrence, x_limit=t1, n={st.candidate_n} <= 2, "
          f"all {len(report.memberships)} memberships pass, {elapsed:.2f}s (< 5s)")


def test_criterion_9_out_of_scope_documented():
    # Density/minimality of the ideal boundary is not verified here; the
    # finite-stage ingredients are (criteria 5-8).  Assert the package
    # exposes those ingredients and nothing pretending to be the boundary.
    assert callable(ck.longest_in_coset)
    assert callable(ck.coset_step)
    assert callable(ck.lemma4_apply)
    assert callable(ck.theorem_trace)
    surface = set(ck.__all__)
    assert not {name for name in surface if "boundary" in name.lower() or "dense" in name.lower()}
    _line(9, True,
          "boundary density/minimality is out of scope by design; its "
          "finite-stage ingredients are verified by criteria 5-8")
