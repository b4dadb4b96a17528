"""The batch front door: dispatch, JSON shape, exit codes, determinism."""

import json

import pytest

from coxkit import oracle, rays
from coxkit.cli import build_parser, run_command


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_reduce_command(capsys):
    payload = run_json(capsys, "reduce", "--system", "A2", "--word", "a,b,a,b")
    assert payload == {"canonical": ["b", "a"], "length": 2}


def test_reduce_to_identity(capsys):
    payload = run_json(capsys, "reduce", "--system", "A2", "--word", "a,a")
    assert payload == {"canonical": [], "length": 0}


def test_descents_command(capsys):
    payload = run_json(capsys, "descents", "--system", "A2", "--word", "a,b")
    assert payload["right"] == ["b"]
    assert payload["left"] == ["a"]


def test_spherical_command(capsys):
    payload = run_json(capsys, "spherical", "--system", "G1", "--subset", "t0,t1")
    assert payload["spherical"] is True
    assert payload["order"] == 4
    assert {c["type"] for c in payload["components"]} == {"A1"}


def test_spherical_infinite_order_spelled_inf(capsys):
    payload = run_json(capsys, "spherical", "--system", "G1", "--subset", "s0,t0")
    assert payload["spherical"] is False
    assert payload["order"] == "inf"


def test_maximal_spherical_command(capsys):
    payload = run_json(capsys, "maximal-spherical", "--system", "G1")
    assert payload == {"maximal_spherical": [["s0", "t1"], ["t0", "t1"]]}


def test_validate_command(capsys):
    payload = run_json(capsys, "validate", "--system", "G1")
    assert payload["valid"] is True
    assert payload["orders"][0][1] == "inf"


def test_validate_config_file(capsys, tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({
        "generators": ["x", "y"],
        "orders": [[1, "inf"], ["inf", 1]],
    }))
    payload = run_json(capsys, "validate", "--config", str(path))
    assert payload["generators"] == ["x", "y"]


def test_descents_with_a_huge_order(capsys, tmp_path):
    # m(a, b) = 10**18 never fits in a word, so its move is never built.
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "generators": ["a", "b", "c"],
        "orders": [[1, 10**18, 2], [10**18, 1, 3], [2, 3, 1]],
    }))
    payload = run_json(capsys, "descents", "--config", str(path), "--word", "")
    assert payload == {"canonical": [], "left": [], "right": []}
    payload = run_json(capsys, "reduce", "--config", str(path), "--word", "b,c,b,c,a,b,a")
    assert payload == {"canonical": ["c", "b", "a", "b", "a"], "length": 5}


def test_bad_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "generators": ["x", "y"],
        "orders": [[1, 2], [3, 1]],
    }))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert code == 2
    assert "asymmetric" in err


@pytest.mark.parametrize("config, field", [
    (5, "config"),
    (None, "config"),
    ({"generators": 5, "orders": [[1]]}, "generators"),
    ({"generators": [["x"]], "orders": [[1]]}, "generators"),
    ({"generators": "ab", "orders": [[1, 3], [3, 1]]}, "generators"),
    ({"generators": [1, 2], "orders": [[1, 3], [3, 1]]}, "generators"),
    ({"generators": ["a,b"], "orders": [[1]]}, "generators"),
    ({"generators": [" a"], "orders": [[1]]}, "generators"),
    ({"generators": [""], "orders": [[1]]}, "generators"),
    ({"generators": ["x"], "orders": 5}, "orders"),
    ({"generators": ["x"], "orders": [5]}, "orders"),
], ids=["top-level-int", "top-level-null", "generators-int", "generators-nested",
        "generators-string", "generators-ints", "generators-comma",
        "generators-whitespace", "generators-empty-name", "orders-int", "orders-flat"])
def test_malformed_config_exits_2(capsys, tmp_path, config, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    code, out, err = run(capsys, "validate", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_unknown_preset_exits_2(capsys):
    code, _, err = run(capsys, "reduce", "--system", "NOPE", "--word", "a")
    assert code == 2
    assert "unknown preset" in err


def test_unknown_preset_spells_the_dihedral_pattern(capsys):
    code, out, err = run(capsys, "lemma-suite", "--system", "I2(m)", "--radius", "4")
    assert (code, out) == (2, "")
    assert err == ("error: unknown preset 'I2(m)'; available: A2, A3, B3, Dinf, G1, H3, "
                   "tilde-A2, I2(<m>) with m >= 3 or inf\n")
    code, out, _ = run(capsys, "reduce", "--help")
    assert code == 0 and "I2(<m>) with m >= 3 or inf" in " ".join(out.split())


def test_unknown_generator_exits_2(capsys):
    code, _, err = run(capsys, "reduce", "--system", "A2", "--word", "a,z")
    assert code == 2
    assert "unknown generator" in err


def test_usage_error_exits_2(capsys):
    assert run_command(["reduce", "--system", "A2"]) == 2  # missing --word
    capsys.readouterr()


def test_enumerate_command(capsys):
    code, out, err = run(capsys, "enumerate", "--system", "A2", "--radius", "3")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == 6
    assert lines[0] == {"element": [], "length": 0, "descents": []}
    top = lines[-1]
    assert top["element"] == ["a", "b", "a"]
    assert top["descents"] == ["a", "b"]


def test_enumerate_dot_export(capsys, tmp_path):
    path = tmp_path / "ball.dot"
    code, out, _ = run(capsys, "enumerate", "--system", "A2", "--radius", "2",
                       "--dot", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("graph")
    # e-a, e-b, a-ab, b-ba; the two up-edges to aba fall outside radius 2.
    assert text.count("--") == 4
    assert '[label="a.b"]' in text


def test_enumerate_budget_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "--system", "A3", "--radius", "6",
                       "--max-elements", "3")
    assert code == 2
    assert "exceeded" in err


def test_longest_coset_command(capsys):
    payload = run_json(capsys, "longest-coset", "--system", "G1",
                       "--subset", "t0,t1", "--word", "s0")
    assert payload["x"] == ["t0", "t1"]
    assert payload["v"] == ["t0", "t1", "s0"]
    assert payload["length_v"] == 3


def test_lemma_suite_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "lemma-suite", "--system", "A2", "--radius", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = [c["name"] for c in payload["systems"][0]["checks"]]
    assert "canonical_form" in names and "coset_longest" in names
    assert all(c["failures"] == [] for c in payload["systems"][0]["checks"])


def test_lemma_suite_config_file(capsys, tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({"generators": ["a", "b"], "orders": [[1, 3], [3, 1]]}))
    from_file = run_json(capsys, "lemma-suite", "--config", str(path), "--radius", "3")
    from_preset = run_json(capsys, "lemma-suite", "--system", "A2", "--radius", "3")
    assert from_file["ok"] is True
    assert from_file["systems"][0]["system"] == str(path)
    assert from_file["systems"][0]["checks"] == from_preset["systems"][0]["checks"]


def test_lemma_suite_empty_system_list(capsys):
    # A sweep over no systems checks nothing, so it must not pass.
    code, out, err = run(capsys, "lemma-suite", "--radius", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--system or --config" in err


def test_lemma_suite_failure_exits_1(capsys, monkeypatch):
    import coxkit.cli as cli_mod
    from coxkit.suite import CheckResult, SuiteReport

    def broken(config, radius):
        return SuiteReport(system=config.label, radius=radius, checks=[
            CheckResult(name="canonical_form", instances=1,
                        failures=["planted failure"], radius=radius, wall_ms=0),
        ])

    monkeypatch.setattr(cli_mod, "lemma_suite", broken)
    code, out, _ = run(capsys, "lemma-suite", "--system", "A2", "--radius", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["systems"][0]["checks"][0]["failures"] == ["planted failure"]


def test_lemma_suite_deterministic_output(capsys):
    _, first, _ = run(capsys, "lemma-suite", "--system", "A2", "--radius", "3")
    _, second, _ = run(capsys, "lemma-suite", "--system", "A2", "--radius", "3")
    assert first == second  # byte identical without --timings


def test_lemma_suite_timings_flag(capsys):
    code, out, _ = run(capsys, "lemma-suite", "--system", "A2", "--radius", "3",
                       "--timings")
    assert code == 0
    payload = json.loads(out)
    assert all("wall_ms" in c for c in payload["systems"][0]["checks"])


def test_trace_command(capsys, tmp_path):
    csv_path = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "trace", "--system", "G1", "--subset", "t0,t1",
                       "--period", "t0,s0", "--horizon", "12",
                       "--s0", "s0", "--t0", "t0", "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["x_limit"] == ["t1"]
    assert payload["stabilization"]["certified"] is True
    assert payload["stabilization"]["reason"] == "PhaseRecurrence"
    assert all(m["s0_check"] and m["t0_check"] for m in payload["memberships"])
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "i,len_w,len_x"
    assert len(rows) == 13


def test_trace_without_membership_args(capsys):
    code, out, _ = run(capsys, "trace", "--system", "G1", "--subset", "t0,t1",
                       "--period", "t0,s0", "--horizon", "8")
    assert code == 0
    assert json.loads(out)["memberships"] == []


def test_trace_zero_horizon_exits_2(capsys):
    code, out, err = run(capsys, "trace", "--system", "G1", "--subset", "t0,t1",
                         "--period", "t0,s0", "--horizon", "0")
    assert (code, out, err) == (2, "", "error: horizon must be >= 1\n")


def test_trace_s0_without_t0_exits_2(capsys):
    code, out, err = run(capsys, "trace", "--system", "G1", "--subset", "t0,t1",
                         "--period", "t0,s0", "--horizon", "8", "--s0", "s0")
    assert (code, out, err) == (2, "", "error: --s0 and --t0 must be given together\n")


def test_defaults_are_the_library_constants():
    parser = build_parser()
    enumerate_args = parser.parse_args(["enumerate", "--system", "A2", "--radius", "1"])
    trace_args = parser.parse_args(["trace", "--system", "G1", "--subset", "t0", "--period", "s0"])
    assert enumerate_args.max_elements == oracle.DEFAULT_SIZE_BUDGET
    assert trace_args.horizon == rays.DEFAULT_HORIZON


def test_trace_hypothesis_failure_exits_2(capsys):
    code, _, err = run(capsys, "trace", "--system", "G1", "--subset", "s0,t1",
                       "--period", "t0,s0", "--horizon", "8",
                       "--s0", "t0", "--t0", "s0")
    assert code == 2
    assert "hypothesis" in err


def test_trace_unreduced_ray_exits_2(capsys):
    code, _, err = run(capsys, "trace", "--system", "A2", "--subset", "a",
                       "--period", "a,b", "--horizon", "8")
    assert code == 2
    assert "not reduced" in err


def test_json_outputs_are_deterministic(capsys):
    for argv in (
        ["spherical", "--system", "G1", "--subset", "t0,t1"],
        ["enumerate", "--system", "B3", "--radius", "3"],
        ["trace", "--system", "G1", "--subset", "t0,t1", "--period", "t0,s0",
         "--horizon", "10", "--s0", "s0", "--t0", "t0"],
    ):
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


@pytest.mark.parametrize("s0, t0, message", [
    ("s0", "t1", "error: t0=t1 is not an infinite-order witness among [t0]\n"),
    ("t1", "t0", "error: (T=[t0, t1], s0=t1) fails the hypothesis\n"),
])
def test_trace_hypothesis_errors_name_generators(capsys, s0, t0, message):
    code, out, err = run(capsys, "trace", "--system", "G1", "--subset", "t0,t1",
                         "--period", "t0,s0", "--horizon", "3", "--s0", s0, "--t0", t0)
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("argv", [
    ["trace", "--period", "t0,s0", "--horizon", "3"],
    ["longest-coset", "--word", "t1"],
])
def test_non_spherical_subset_errors_name_generators(capsys, argv):
    code, out, err = run(capsys, *argv, "--system", "G1", "--subset", "s0,t0")
    assert (code, out, err) == (2, "", "error: generator subset [s0, t0] spans an infinite parabolic subgroup\n")
