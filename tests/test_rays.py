"""Rays, stabilization traces and the membership checks."""

import pytest

from coxkit import (
    Element,
    HypothesisFailed,
    NonSphericalSubset,
    NotReducedAt,
    in_WT_class,
    inverse,
    lemma4_apply,
    left_descents,
    longest_in_coset,
    make_ray,
    multiply,
    right_descents,
    stabilize,
    theorem_trace,
)
from coxkit.rays import HORIZON_ONLY, PHASE_RECURRENCE


def test_make_ray_alternating_infinite_order(g1):
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=50)
    assert ray.certified_reduced_up_to == 50
    assert ray.letter(1) == g1.index("t0")
    assert ray.letter(2) == g1.index("s0")
    assert ray.letter(51) == g1.index("t0")


def test_make_ray_rejects_braid_collapse(a2):
    with pytest.raises(NotReducedAt) as exc:
        make_ray(a2.matrix, (), a2.word("a,b"), horizon=50)
    assert exc.value.index == 4  # abab = ba


def test_make_ray_rejects_repeat(a2):
    with pytest.raises(NotReducedAt) as exc:
        make_ray(a2.matrix, a2.word("a"), a2.word("a"), horizon=10)
    assert exc.value.index == 2


def test_make_ray_rejects_empty_period(a2):
    with pytest.raises(ValueError):
        make_ray(a2.matrix, a2.word("a"), (), horizon=5)


def test_stabilize_g1_main_example(g1):
    T = g1.subset("t0,t1")
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=50)
    report = stabilize(T, ray, horizon=50)
    assert g1.spell(report.x_limit) == ["t1"]
    assert report.stabilization.candidate_n <= 2
    assert report.stabilization.certified
    assert report.stabilization.reason == PHASE_RECURRENCE
    lens = [s.len_x for s in report.steps]
    assert lens == sorted(lens, reverse=True)


def test_stabilize_trivial_subset(g1):
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=20)
    report = stabilize(frozenset(), ray, horizon=20)
    assert report.x_limit == Element.identity(g1.matrix)
    assert report.stabilization.candidate_n == 1
    assert report.stabilization.certified


def test_stabilize_other_parabolic_matches_scratch(g1):
    from coxkit import longest_in_coset_oracle

    T = g1.subset("s0,t1")
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=50)
    report = stabilize(T, ray, horizon=50)
    lens = [s.len_x for s in report.steps]
    assert lens == sorted(lens, reverse=True)
    for step in report.steps[:10]:
        assert step.x == longest_in_coset(T, step.w).x
        top = longest_in_coset_oracle(T, step.w)
        assert step.x == multiply(top, inverse(step.w))


def test_stabilize_incremental_matches_scratch_prefix(g1, ta2):
    cases = [
        (g1, g1.subset("t0,t1"), g1.word("t0,s0")),
        (g1, g1.subset("s0,t1"), g1.word("t0,s0")),
        # (cacb)^k is reduced: BFS depths of its prefixes equal their letter
        # counts out to 12 in the enumeration oracle.
        (ta2, ta2.subset("a,b"), ta2.word("c,a,c,b")),
    ]
    for cfg, T, period in cases:
        ray = make_ray(cfg.matrix, (), period, horizon=10)
        report = stabilize(T, ray, horizon=10)
        for step in report.steps:
            assert step.x == longest_in_coset(T, step.w).x


def test_stabilize_rejects_nonspherical(g1):
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=10)
    with pytest.raises(NonSphericalSubset):
        stabilize(g1.subset("s0,t0"), ray, horizon=10)


def test_stabilize_horizon_beyond_certificate(g1):
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=10)
    with pytest.raises(ValueError):
        stabilize(g1.subset("t0,t1"), ray, horizon=20)


def test_stabilize_plain_letter_stream(g1):
    T = g1.subset("t0,t1")
    letters = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=12).letters(12)
    report = stabilize(T, letters, horizon=12, matrix=g1.matrix)
    assert g1.spell(report.x_limit) == ["t1"]
    assert not report.stabilization.certified
    assert report.stabilization.reason == HORIZON_ONLY


def test_stabilize_stream_checks_reducedness(a2):
    with pytest.raises(NotReducedAt) as exc:
        stabilize({0}, a2.word("a,b,a,b"), horizon=4, matrix=a2.matrix)
    assert exc.value.index == 4  # abab = ba
    with pytest.raises(NotReducedAt) as exc:
        stabilize({0}, a2.word("a,a"), horizon=2, matrix=a2.matrix)
    assert exc.value.index == 2


def test_theorem_trace_main_example(g1):
    T = g1.subset("t0,t1")
    s0, t0 = g1.index("s0"), g1.index("t0")
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=50)
    report = theorem_trace(ray, T, s0, t0, horizon=50)
    n = report.stabilization.candidate_n
    assert report.stabilization.certified
    assert {m.i for m in report.memberships} == set(range(n, 51))
    assert all(m.s0_check and m.t0_check for m in report.memberships)

    # The membership verdicts recomputed from raw descent sets, i <= 10.
    x = report.x_limit
    s0x = multiply(Element.generator(g1.matrix, s0), x)
    t0s0x = multiply(Element.generator(g1.matrix, t0), s0x)
    for step in report.steps[:10]:
        if step.i < n:
            continue
        lhs = right_descents(inverse(multiply(s0x, step.w)))
        assert lhs == frozenset({s0})
        rhs = right_descents(inverse(multiply(t0s0x, step.w)))
        assert rhs == frozenset({t0})


def test_theorem_trace_descent_saturation(g1):
    # Past stabilization, x.w_i has every member of T as a left descent,
    # and T being maximal it is exactly the descent set of the inverse.
    T = g1.subset("t0,t1")
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=30)
    report = stabilize(T, ray, horizon=30)
    n = report.stabilization.candidate_n
    for step in report.steps:
        if step.i < n:
            continue
        v = multiply(report.x_limit, step.w)
        assert T <= left_descents(v)
        assert right_descents(inverse(v)) == T


def test_theorem_trace_hypothesis_failures(g1):
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=10)
    with pytest.raises(HypothesisFailed):
        theorem_trace(ray, g1.subset("s0,t1"), g1.index("t0"), g1.index("s0"), horizon=10)
    # Correct T and s0 but a witness that is not infinite-order.
    with pytest.raises(HypothesisFailed):
        theorem_trace(ray, g1.subset("t0,t1"), g1.index("s0"), g1.index("t1"), horizon=10)


def test_theorem_trace_propagates_ray_errors(a2):
    with pytest.raises(NotReducedAt):
        make_ray(a2.matrix, (), a2.word("a,b"), horizon=10)


def test_in_WT_class_after_stabilization(g1):
    # Spot check: the membership predicate agrees with lemma4_apply.
    T = g1.subset("t0,t1")
    ray = make_ray(g1.matrix, (), g1.word("t0,s0"), horizon=20)
    report = stabilize(T, ray, horizon=20)
    s0 = g1.index("s0")
    for step in report.steps[report.stabilization.candidate_n - 1:]:
        u = inverse(multiply(report.x_limit, step.w))
        assert in_WT_class(multiply(u, Element.generator(g1.matrix, s0)), {s0}) == \
            lemma4_apply(u, s0).conclusion_ok
