"""The exhaustive verification sweep used by the lemma-suite command."""

import json

import pytest

from coxkit import config_from_dict, cosets, lemma_suite, preset
from coxkit.cli import run_command


def test_a2_radius_3_all_pass():
    report = lemma_suite(preset("A2"), radius=3)
    assert report.ok
    assert report.system == "A2"
    by_name = {c.name: c for c in report.checks}
    # The radius-3 ball is the whole order-6 group.
    assert by_name["length_parity"].instances == 12
    assert all(c.failures == [] for c in report.checks)


def test_g1_radius_5_all_pass():
    report = lemma_suite(preset("G1"), radius=5)
    assert report.ok
    by_name = {c.name: c for c in report.checks}
    assert by_name["canonical_form"].instances > 0
    assert by_name["coset_longest"].instances > 0
    assert by_name["descent_step_lemma"].instances > 0
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
        return cosets.StepOutcome(stale, None)

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
