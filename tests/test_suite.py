"""The exhaustive verification sweep used by the lemma-suite command."""

import json

import pytest

from coxkit import config_from_dict, cosets, lemma_suite, oracle, preset, suite
from coxkit.cli import run_command
from coxkit.words import Element


CHECK_NAMES = [
    "canonical_form", "deletion_property", "braid_invariance", "length_parity",
    "inverse_involution", "descent_spherical", "descent_agreement",
    "coset_longest", "coset_step", "descent_step_lemma", "descent_class_partition",
]


def test_a2_radius_3_all_pass():
    report = lemma_suite(preset("A2"), radius=3)
    assert report.ok
    assert report.system == "A2"
    # The radius-3 ball is the whole order-6 group: 12 (element, letter) edges.
    assert [(c.name, c.instances) for c in report.checks] == list(zip(
        CHECK_NAMES, [15, 8, 12, 12, 6, 6, 6, 24, 24, 0, 6]))
    assert all(c.failures == [] for c in report.checks)


def test_g1_radius_5_all_pass():
    report = lemma_suite(preset("G1"), radius=5)
    assert report.ok
    assert [(c.name, c.instances) for c in report.checks] == list(zip(
        CHECK_NAMES, [364, 304, 778, 111, 37, 37, 37, 222, 270, 27, 37]))
    assert all(c.failures == [] for c in report.checks)


def _chain(n, *orders):
    table = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, m in enumerate(orders):
        table[i][i + 1] = table[i + 1][i] = m
    return table


# Systems beyond the presets, as the benchmark's `suite` workload spells them.
PINNED_SYSTEMS = {
    "X4": {"generators": ["s0", "t0", "t1", "t2"],
           "orders": [[1, "inf", 3, 3], ["inf", 1, 3, 2], [3, 3, 1, 3], [3, 2, 3, 1]]},
    "tilde-C3": {"generators": ["c0", "c1", "c2", "c3"], "orders": _chain(4, 4, 3, 4)},
    "RA5": {"generators": [f"p{i}" for i in range(5)],
            "orders": [[1 if i == j else 2 if (i - j) % 5 in (1, 4) else "inf"
                        for j in range(5)] for i in range(5)]},
}


@pytest.mark.parametrize("name, radius, instances", [
    # In H3 every w of length <= 4 lies in the one coset W_{a,b,c}.w = W.
    ("H3", 4, [121, 85, 184, 75, 25, 25, 25, 200, 360, 0, 25]),
    ("X4", 3, [85, 34, 62, 168, 42, 42, 42, 462, 1320, 23, 42]),
    ("tilde-C3", 2, [21, 4, 10, 56, 14, 14, 14, 210, 600, 0, 14]),
    ("RA5", 3, [156, 60, 165, 305, 61, 61, 61, 671, 2475, 100, 61]),
])
def test_instance_counts_pinned(name, radius, instances):
    if name in PINNED_SYSTEMS:
        config = config_from_dict(PINNED_SYSTEMS[name], label=name)
    else:
        config = preset(name)
    report = lemma_suite(config, radius)
    assert report.ok
    assert [(c.name, c.instances) for c in report.checks] == list(zip(CHECK_NAMES, instances))


def test_each_coset_is_enumerated_once(monkeypatch):
    calls = []
    real = oracle.Ball.coset

    def counted(self, members, w):
        calls.append((frozenset(members), w))
        return real(self, members, w)

    monkeypatch.setattr(oracle.Ball, "coset", counted)
    report = lemma_suite(preset("A2"), radius=3)
    assert report.ok
    # A2 has 6 elements: 6, 3, 3 and 1 cosets for T = {}, {a}, {b}, {a, b}.
    assert len(calls) == len(set(calls)) == 6 + 3 + 3 + 1


def test_wrong_descents_fail_every_w_of_the_coset(monkeypatch):
    # Left descents that forget both letters of A2's longest element a.b.a:
    # it is still the top of every coset holding it, so each w of those
    # cosets reports it.
    a2 = preset("A2")
    aba = Element(a2.matrix, (0, 1, 0))
    real = suite.left_descents
    monkeypatch.setattr(suite, "left_descents", lambda u: frozenset() if u == aba else real(u))
    report = lemma_suite(a2, radius=3)
    failures = {c.name: c.failures for c in report.checks if c.failures}
    assert failures["coset_longest"] == [
        "descent characterization fails at a.b.a in W_[0].b.a",
        "descent characterization fails at a.b.a in W_[0].a.b.a",
        "descent characterization fails at a.b.a in W_[1].a.b",
        "descent characterization fails at a.b.a in W_[1].a.b.a",
        "descent characterization fails at a.b.a in W_[0, 1].e",
        "descent characterization fails at a.b.a in W_[0, 1].a",
        "descent characterization fails at a.b.a in W_[0, 1].b",
        "descent characterization fails at a.b.a in W_[0, 1].a.b",
        "descent characterization fails at a.b.a in W_[0, 1].b.a",
        "descent characterization fails at a.b.a in W_[0, 1].a.b.a",
    ]
    assert failures["inverse_involution"] == ["descent duality fails at a.b.a"]
    assert sorted(failures) == ["coset_longest", "inverse_involution"]


def test_fake_right_descents_fail_the_class_partition(monkeypatch):
    # The reducer claims s0.t0 descends by both s0 and t0 (m = inf, so not
    # spherical).  The oracle's descent set {t0} names the class that
    # descent_class_partition must find s0.t0 in, and the reducer misses it.
    g1 = preset("G1")
    s0t0 = Element(g1.matrix, g1.word("s0,t0"))
    real = suite.right_descents
    fake = lambda u: frozenset(g1.subset("s0,t0")) if u == s0t0 else real(u)
    monkeypatch.setattr(suite, "right_descents", fake)
    monkeypatch.setattr(cosets, "right_descents", fake)
    report = lemma_suite(g1, radius=3)
    failures = {c.name: c.failures for c in report.checks if c.failures}
    assert failures == {
        "inverse_involution": ["descent duality fails at s0.t0"],
        "descent_spherical": ["non-spherical descent set at s0.t0"],
        "descent_agreement": ["descents disagree with oracle at s0.t0"],
        "descent_step_lemma": ["conclusion fails at w=s0, s0=t0"],
        "descent_class_partition": ["element s0.t0 in classes [], oracle class [1]"],
    }


def test_infinite_systems_radius_4_all_pass():
    for name in ("tilde-A2", "Dinf", "I2(inf)"):
        report = lemma_suite(preset(name), radius=4)
        assert report.ok, name


def test_rank_four_mixed_orders_all_pass():
    # A rank-4 system with an infinite edge and a 4, beyond the presets.
    config = config_from_dict({
        "generators": ["p", "q", "r", "s"],
        "orders": [
            [1, 3, 2, 2],
            [3, 1, "inf", 2],
            [2, "inf", 1, 4],
            [2, 2, 4, 1],
        ],
    }, label="rank4-mixed")
    report = lemma_suite(config, radius=3)
    assert report.ok
    assert {c.name for c in report.checks} >= {
        "canonical_form",
        "deletion_property",
        "braid_invariance",
        "length_parity",
        "coset_longest",
        "coset_step",
    }


def test_report_dict_shape():
    report = lemma_suite(preset("A2"), radius=2)
    data = report.to_dict()
    assert data["ok"] is True
    assert all("wall_ms" not in c for c in data["checks"])
    timed = report.to_dict(timings=True)
    assert all("wall_ms" in c for c in timed["checks"])


def test_negative_radius_is_rejected(capsys):
    with pytest.raises(ValueError, match="radius must be >= 0"):
        lemma_suite(preset("A2"), radius=-1)
    code = run_command(["lemma-suite", "--system", "A2", "--radius", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: radius must be >= 0" in captured.err


def test_broken_coset_step_fails_only_its_check(monkeypatch, capsys):
    # A step that leaves x unchanged but forgets to advance v to v.s.
    real_step = cosets.coset_step

    def stale_v(pair, s):
        outcome = real_step(pair, s)
        if not outcome.unchanged:
            return outcome
        stale = cosets.CosetLongest(x=outcome.pair.x, v=pair.v, base=outcome.pair.base)
        return cosets.StepOutcome(stale, True)

    monkeypatch.setattr(cosets, "coset_step", stale_v)
    report = lemma_suite(preset("A2"), radius=3)
    assert not report.ok
    failing = [c for c in report.checks if c.failures]
    assert [c.name for c in failing] == ["coset_step"]
    assert all(m.startswith("stepped pair invalid at W_[") and ", w=" in m and ", s=" in m
               for m in failing[0].failures)
    assert "stepped pair invalid at W_[], w=e, s=a" in failing[0].failures

    code = run_command(["lemma-suite", "--system", "A2", "--radius", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False


def test_non_deletion_step_fails_only_its_check(monkeypatch):
    # A changed step whose x' keeps the old x, which no one-letter deletion gives.
    real_step = cosets.coset_step

    def keep_x(pair, s):
        outcome = real_step(pair, s)
        if outcome.unchanged:
            return outcome
        kept = cosets.CosetLongest(x=pair.x, v=outcome.pair.v, base=outcome.pair.base)
        return cosets.StepOutcome(kept, False)

    monkeypatch.setattr(cosets, "coset_step", keep_x)
    report = lemma_suite(preset("A2"), radius=3)
    failing = [c for c in report.checks if c.failures]
    assert [c.name for c in failing] == ["coset_step"]
    assert "no one-letter deletion gives x' at W_[0], w=e, s=a" in failing[0].failures
