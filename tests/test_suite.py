"""The exhaustive verification sweep used by the lemma-suite command."""

import json

import pytest

from coxkit import config_from_dict, cosets, lemma_suite, preset
from coxkit.cli import run_command


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
