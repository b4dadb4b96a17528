"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest bench/tests -q
"""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import coxkit  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def _fingerprint(op):
    expected = op.expected
    if isinstance(expected, coxkit.CoxeterMatrix):
        expected = [[str(m) for m in row] for row in expected.orders]
    return op.label, expected


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = wl.WORKLOADS[name]
    first = [_fingerprint(op) for op in make(7)]
    assert first == [_fingerprint(op) for op in make(7)]
    other = [_fingerprint(op) for op in make(8)]
    if name != "spherical":   # a fixed catalogue; the seed orders it
        assert sorted(first) == sorted(other)
    else:
        assert first != other


def test_spherical_rounds_relabel_one_catalogue():
    def degrees(matrix):   # multiset of each generator's row, a relabelling invariant
        return sorted(sorted(str(m) for m in row) for row in matrix.orders)

    one = {op.label: op.expected for op in wl.spherical_ops(1)}
    two = {op.label: op.expected for op in wl.spherical_ops(2)}
    assert one.keys() == two.keys()
    assert all(degrees(one[k]) == degrees(two[k]) for k in one)
    assert any(one[k] != two[k] for k in one)


@pytest.mark.parametrize("name, finite", [
    ("A4", True), ("B4", True), ("D5", True), ("F4", True), ("H4", True),
    ("tilde-A2", False), ("tilde-C3", False), ("G1", False), ("RA5", False),
])
def test_gram_criterion_tells_finite_from_infinite(name, finite):
    matrix = wl.system(name).matrix
    assert wl.gram_positive_definite(matrix, matrix.generators()) is finite


def test_spherical_check_catches_wrong_answers():
    op = next(op for op in wl.spherical_ops(1) if op.label == "sparse rank 12")
    answer = op.summarize(op.call())
    assert op.check(op, answer) is None
    dropped = dict(answer, maximal=answer["maximal"][1:])
    assert op.check(op, dropped) is not None
    smaller = dict(answer, maximal=[answer["maximal"][0][1:]] + answer["maximal"][1:])
    assert "not maximal" in op.check(op, smaller)
    flipped = [list(h) for h in answer["hypothesis"]]
    flipped[0][2] = not flipped[0][2]
    assert op.check(op, dict(answer, hypothesis=flipped)) is not None


def test_clear_caches_empties_every_coxkit_cache():
    coxkit.words.reduce_word(coxkit.preset("A3").matrix, (0, 1, 0, 1))
    coxkit.finite_type.classify(coxkit.preset("A3").matrix, {0, 1})
    wl.clear_caches()
    assert all(entries == 0 for _, _, entries in tr.cache_stats().values())


def test_reduce_walks_are_distinct():   # a repeat would be a cache hit
    assert len({op.label for op in wl.reduce_ops(1)}) == len(wl.reduce_ops(1))


def test_up_walks_are_reduced_and_end_where_the_oracle_says():
    rng = random.Random(3)
    for name, radius, _, up_len, _, free_len in wl.REDUCE_MIX:
        matrix = wl.system(name).matrix
        ball = (coxkit.full_group(matrix) if radius is None
                else coxkit.ball(matrix, radius))
        for up, length in ((True, up_len), (False, free_len)):
            word, end = wl.walk(ball, length, rng, up)
            element = ball.resolve(word)
            assert element.letters == end
            if up:
                assert len(word) == length
                assert ball.depth_of(element) == len(word)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4], b [3, 6] (overlapping a) and
    # c [9, 12] (sticking out of root); a has child g [2, 3].
    spans = {  # name: (start, end, parent name)
        "c": (9.0, 12.0, "root"),
        "root": (0.0, 10.0, None),
        "b": (3.0, 6.0, "root"),
        "g": (2.0, 3.0, "a"),
        "a": (1.0, 4.0, "root"),
    }
    order = list(spans)
    start = [spans[k][0] for k in order]
    end = [spans[k][1] for k in order]
    parent = [order.index(spans[k][2]) if spans[k][2] else tr.NO_PARENT for k in order]
    got = dict(zip(order, tr.self_times(start, end, parent)))
    assert got == {"root": 4.0, "a": 2.0, "b": 3.0, "g": 1.0, "c": 3.0}


@pytest.fixture
def installed_tracer():
    modules = [importlib.import_module(name) for name in tr.NAMESPACES]
    saved = {(m, fn): getattr(m, fn) for m in modules
             for fns in tr.LAYERS.values() for fn in fns if hasattr(m, fn)}
    tracer = tr.Tracer()
    tracer.install()
    try:
        yield tracer, saved
    finally:
        for (module, fn), original in saved.items():
            setattr(module, fn, original)


def test_every_binding_of_a_layer_function_is_wrapped(installed_tracer):
    tracer, saved = installed_tracer
    expected = set()
    for layer, fns in tr.LAYERS.items():
        home = importlib.import_module(f"coxkit.{layer}")
        for fn in fns:
            original = saved[(home, fn)]
            for (module, name), bound in saved.items():
                if name == fn and bound is original:
                    expected.add(f"{module.__name__}.{fn}")
                    assert getattr(module, fn).__wrapped__ is original
    assert set(tracer.bindings) == expected
    assert {"coxkit.cosets.multiply", "coxkit.rays.multiply", "coxkit.words.multiply",
            "coxkit.suite.lemma_suite", "coxkit.cli.theorem_trace"} <= expected


def test_traced_op_records_nested_spans_within_its_wall_time(installed_tracer, tmp_path):
    tracer, _ = installed_tracer
    config = coxkit.preset("G1")

    def op():
        ray = coxkit.rays.make_ray(config.matrix, (), config.word("t0,s0"), 12)
        return coxkit.rays.theorem_trace(ray, config.subset("t0,t1"), 0, 1, 12)

    report = tracer.run_op(0, op)
    assert config.spell(report.x_limit) == ["t1"]
    metrics, per_op = tr.layer_metrics(tracer)
    assert metrics["rays.theorem_trace.calls"] == 1
    assert metrics["cosets.coset_step.calls"] == 11
    assert metrics["words.reduce_word.calls"] > metrics["words.multiply.calls"] > 0
    wall, below = per_op[0]
    assert 0 < below <= wall
    path = tmp_path / "spans.bin"
    tracer.write(str(path))
    rows = tr.read_spans(str(path))
    assert len(rows) == len(tracer.start)
    assert rows[0][0] == tr.OP_SPAN and rows[0][3] == tr.NO_PARENT


def test_traced_round_gives_every_per_layer_metric_of_the_spec(installed_tracer):
    tracer, _ = installed_tracer
    caches = {}
    for i, op in enumerate(wl.suite_ops(1)[:2]):
        wl.clear_caches()
        before = tr.cache_stats()
        tracer.run_op(i, op.call)
        caches = tr.add_cache_stats(caches, before, tr.cache_stats())
    got = tr.round_metrics(tracer, caches)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {m["name"] for m in spec["per_layer"]}
    assert set(got["layers"]) | {"trace.overhead"} == names
    assert got["self_time_over_wall"] == []
    assert got["layers"]["suite.lemma_suite.calls"] == 2
    assert got["layers"]["words.cache.hit_ratio"] > 0.5


def test_untraced_calls_record_nothing(installed_tracer):
    tracer, _ = installed_tracer
    coxkit.words.reduce_word(coxkit.preset("A2").matrix, (0, 1, 0))
    assert len(tracer.start) == 0


def test_speed_probe_samples_once_per_interval_of_op_time():
    probe = run.SpeedProbe()
    probe.after(run.PROBE_EVERY_S * 2.5)
    assert len(probe.times) == 2
    probe.after(run.PROBE_EVERY_S * 0.5)
    assert len(probe.times) == 3
    assert all(t > 0 for t in probe.times)
    assert run.speed_factor([run.REFERENCE_S * 2, run.REFERENCE_S * 2]) == 0.5


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
