"""coxkit benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload {trace,reduce,suite,spherical} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root; coxkit is imported from ./src.  One
caller, no threads: each op starts when the previous one has returned,
as a library user or the CLI calls coxkit.

The seed fixes one round of ops (see workloads.py).  Every round runs in
a fresh interpreter (and, but in `reduce`, coxkit's caches are emptied
before each op), and rounds repeat until they hold at least S seconds of
op time (at least five).

A shared 2-vCPU VM switches between two speeds, 1.5 to 1.7 times apart,
many times a second, and the share of slow time drifts over minutes.  So
a fixed piece of pure-Python work (reference_work) is timed between the
ops, spread over the round as the ops are, and every time measured in a
round is scaled by REFERENCE_S over its mean time there: the metrics are
times at the speed at which reference_work takes REFERENCE_S.  Each op's
time is its median over the rounds.  The unscaled figures are in the
report as well.
An op that ends in a budget error counts as failed; it is run in every
round like the others, and its time to failure counts as its time.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced rounds
for S/2 seconds, then one traced round, and prints the per-layer metrics
and the tracing overhead.

Answers are checked after the first round's ops, untimed, against
independent sources (workloads.py); every later round must give the same
answer digest, failures included.  A wrong answer exits 1; budget errors
(`*BudgetExceeded`) count as failed ops; any other exception aborts.  The
last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the full report, also written to bench/results/.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
SRC_DIR = os.path.abspath("src")
MIN_ROUNDS = 5
# The speed probe: reference_work runs between ops, once per PROBE_EVERY_S
# of op time, and times are scaled to the speed at which it takes
# REFERENCE_S (about its median on a 2-vCPU Xeon VM).
PROBE_EVERY_S = 0.04
PROBE_WINDOW_S = 0.02
REFERENCE_S = 0.0035
# `python -m coxkit` runs after each round, and then until there are at
# least this many runs; each between CLI_PROBES runs of reference_work.
CLI_MIN_RUNS = 10
CLI_PROBES = 8
# op_p90_ms is reported for rounds of at least this many ops, so that ten
# samples lie beyond it.
P90_MIN_SAMPLES = 100

# One representative `python -m coxkit` command per workload.  An argument
# "@NAME" is the path of a config file that the first round writes from
# workloads.config_dict(NAME).
CLI_COMMANDS = {
    "trace": ("trace", "--system", "G1", "--subset", "t0,t1", "--period", "t0,s0",
              "--s0", "s0", "--t0", "t0", "--horizon", "300"),
    "reduce": ("descents", "--config", "@F4",
               "--word", "f0,f1,f2,f1,f3,f2,f1,f0,f1,f2,f3,f2,f1,f2,f0,f1,f2"),
    "suite": ("lemma-suite", "--system", "H3", "--radius", "6"),
    "spherical": ("maximal-spherical", "--config", "@dense-rank-13"),
}
CONFIGS_DIR = os.path.join("bench", "results", "configs")


def cli_argv(workload: str) -> list[str]:
    return [os.path.join(CONFIGS_DIR, f"{a[1:]}.json") if a.startswith("@") else a
            for a in CLI_COMMANDS[workload]]


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def wait_child(proc) -> tuple[int, float]:
    """Reap a child: its exit code and its own peak RSS in MiB.

    os.wait4 gives this child's rusage alone; RUSAGE_CHILDREN would carry
    the largest peak of all earlier children into this one.  A child's
    peak starts at the RSS of this process when it was spawned, so this
    process never imports coxkit.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024   # Linux reports KiB


# ------------------------------------------------------------------- parent

def run_round(args, number: int, traced: bool = False) -> dict:
    """One round in a fresh interpreter, with its set-up time and peak RSS."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--round", str(number)]
    if traced:
        cmd.append("--traced")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env())
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    out = proc.stdout.read()
    proc.stdout.close()
    code, rss = wait_child(proc)
    if code != 0 or ready.strip() != b"ready":
        raise RuntimeError(f"round child exited with code {code}")
    result = json.loads(out)
    result.update(setup_s=setup_s, peak_rss_mib=rss)
    return result


def run_cli(argv) -> tuple[float, float, bytes]:
    """One `python -m coxkit` child: wall seconds, its own peak RSS, stdout."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "coxkit", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    code, rss = wait_child(proc)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"coxkit {' '.join(argv)} exited {code}: {err.decode()}")
    return elapsed, rss, out


def run_rounds(args, seconds: float, minimum: int, between=None) -> list[dict]:
    """Rounds until ``minimum`` of them and ``seconds`` of op time."""
    rounds = []
    while len(rounds) < minimum or sum(r["busy_s"] for r in rounds) < seconds:
        rounds.append(run_round(args, len(rounds)))
        if between is not None:
            between()
    return rounds


def round_problems(rounds: list[dict]) -> list[str]:
    wrong = [w for r in rounds for w in r["wrong"]]
    if len({r["answers"] for r in rounds}) != 1:
        wrong.append("rounds of the same seed gave different answers")
    return wrong


def speed_factor(probe_s: list[float]) -> float:
    """REFERENCE_S over the mean of reference_work times: multiplying a time
    measured alongside them by it gives the time at the reference speed."""
    return REFERENCE_S / statistics.mean(probe_s)


def around_ops(round_result: dict) -> dict:
    """Each op's speed factor, from the reference_work samples next to it:
    the last one before it, the first one after it, and every one within
    max(its duration, PROBE_WINDOW_S) of it."""
    at, probe_s = round_result["probe_at"], round_result["probe_s"]
    out = {}
    for i, (start, end) in round_result["op_spans"].items():
        reach = max(end - start, PROBE_WINDOW_S)
        near = set(range(bisect.bisect_left(at, start - reach), bisect.bisect_right(at, end + reach)))
        near.add(max(bisect.bisect_right(at, start) - 1, 0))
        near.add(min(bisect.bisect_left(at, end), len(at) - 1))
        out[i] = speed_factor([probe_s[k] for k in near])
    return out


def scaled_busy(round_result: dict) -> float:
    """The round's op time at the reference speed."""
    factors = around_ops(round_result)
    return sum(t * factors[i] for i, t in round_result["times"].items())


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args) -> tuple[dict, dict, list[dict]]:
    argv = cli_argv(args.workload)
    cli = []

    def cli_sample():
        # After every round, so that the CLI samples spread over the whole
        # run.  The machine's speed is probed just before and after each.
        probe = SpeedProbe()
        for _ in range(CLI_PROBES):
            probe.sample()
        run = run_cli(argv)
        for _ in range(CLI_PROBES):
            probe.sample()
        cli.append(run)
        cli_factors.append(speed_factor(probe.times))

    cli_factors = []
    rounds = run_rounds(args, args.seconds, MIN_ROUNDS, cli_sample)
    while len(cli) < CLI_MIN_RUNS:
        cli_sample()
    # Times at the reference speed: a round's set-up and busy time by the
    # round's factor, each op by the factor around it.
    factors = [speed_factor(r["probe_s"]) for r in rounds]
    op_factors = [around_ops(r) for r in rounds]
    # Each op's median over the rounds; a failed op's time is its time to failure.
    per_op = {i: statistics.median(r["times"][i] * f[i] for r, f in zip(rounds, op_factors))
              for i in rounds[0]["times"]}
    per_op_ms = sorted(t * 1000 for t in per_op.values())
    attempted = sum(r["attempted"] for r in rounds)
    metrics = {
        "setup_s": metric(statistics.median(r["setup_s"] * f for r, f in zip(rounds, factors)), "s"),
        "ops_per_s": metric(len(per_op) / sum(per_op.values()), "1/s"),
        "op_p50_ms": metric(statistics.median(per_op_ms), "ms"),
        "peak_rss_mib": metric(statistics.median(r["peak_rss_mib"] for r in rounds), "MiB"),
        "cli_s": metric(statistics.median(t * f for (t, _, _), f in zip(cli, cli_factors)), "s"),
        "cli_peak_rss_mib": metric(statistics.median(m for _, m, _ in cli), "MiB"),
        # Every round runs the same ops and fails the same ones (the answer
        # digests agree), so one round gives the ratio.
        "fail_ratio": metric(len(rounds[0]["failures"]) / rounds[0]["attempted"], "ratio"),
        "op_samples": metric(len(per_op), "count"),
        "rounds": metric(len(rounds), "count"),
        # Unscaled: the rate over the whole timed phase and the wall clock.
        "ops_per_s_wall": metric(attempted / sum(r["busy_s"] for r in rounds), "1/s"),
        "setup_s_wall": metric(statistics.median(r["setup_s"] for r in rounds), "s"),
        "cli_s_wall": metric(statistics.median(t for t, _, _ in cli), "s"),
        "speed_factor": metric(statistics.median(factors), "ratio"),
    }
    if len(per_op) >= P90_MIN_SAMPLES:
        metrics["op_p90_ms"] = metric(statistics.quantiles(per_op_ms, n=10)[8], "ms")
    cli_digests = {hashlib.sha256(out).hexdigest() for _, _, out in cli}
    wrong = round_problems(rounds)
    if len(cli_digests) != 1:
        wrong.append("coxkit CLI output differs between runs")
    if rounds[0]["cli_in_process"] not in cli_digests:
        wrong.append("CLI stdout differs from the in-process cli.run_command output")
    report = {
        "cli_command": ["python", "-m", "coxkit", *argv],
        "samples": {
            "setup_s": [r["setup_s"] for r in rounds],
            "peak_rss_mib": [r["peak_rss_mib"] for r in rounds],
            "round_busy_s": [r["busy_s"] for r in rounds],
            "speed_factor": factors,
            "cli_s": [t for t, _, _ in cli],
            "cli_peak_rss_mib": [m for _, m, _ in cli],
        },
        "digests": {"answers": rounds[0]["answers"], "cli_stdout": sorted(cli_digests)},
        "failures": [dict(f, median_seconds=per_op[str(f["index"])]) for f in rounds[0]["failures"]],
        "wrong": wrong,
    }
    return metrics, report, rounds


def per_layer(args, spec) -> tuple[dict, dict, list[dict]]:
    rounds = run_rounds(args, args.seconds / 2, 1)
    traced = run_round(args, len(rounds), traced=True)
    wrong = round_problems(rounds + [traced])
    if traced["self_time_over_wall"]:
        wrong.append(f"self times exceed op wall time for ops {traced['self_time_over_wall']}")
    untraced_busy = statistics.median(scaled_busy(r) for r in rounds)
    layer = traced.pop("layers")
    layer["trace.overhead"] = scaled_busy(traced) / untraced_busy - 1
    metrics = {m["name"]: metric(layer[m["name"]], m["unit"]) for m in spec}
    report = {
        "traced_round": {k: v for k, v in traced.items()
                         if k not in ("times", "op_spans", "probe_at", "probe_s")},
        "untraced_round_busy_s": [r["busy_s"] for r in rounds],
        "failures": traced["failures"],
        "wrong": wrong,
    }
    return metrics, report, rounds + [traced]


def metadata(args) -> dict:
    files = sorted(
        os.path.join(root, name)
        for root, _, names in os.walk(SRC_DIR) for name in names if name.endswith(".py")
    )
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(os.path.relpath(path, SRC_DIR).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "src.sha256": digest.hexdigest(),
        "src.lines": lines,
    }


def git_commit() -> str | None:
    """HEAD of the checkout holding src/, or None when it is not a git repository."""
    root = os.path.dirname(SRC_DIR)
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=root, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def benchmark_spec() -> dict:
    """BENCHMARK.json, which names the workloads and the metrics of the last line."""
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        return json.load(fh)


# -------------------------------------------------------------------- child

def child_round(args) -> dict:
    """Set up, run one round of ops, check the answers; runs in a fresh interpreter."""
    sys.path.insert(0, SRC_DIR)
    from coxkit.errors import CoxeterError
    import tracer as tr
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.traced:
        tracer = tr.Tracer()
        tracer.install()
        caches = {}
    if args.round == 0:
        write_cli_configs(workloads, CLI_COMMANDS[args.workload])
    print("ready", flush=True)

    times, spans, failures, answers, failed = {}, {}, [], {}, {}
    fresh = args.workload in workloads.FRESH_CACHES_PER_OP
    probe = SpeedProbe()
    probe.sample()
    for i, op in enumerate(ops):
        if fresh:
            workloads.clear_caches()
        if tracer is not None:
            before = tr.cache_stats()
        start = time.perf_counter()
        try:
            result = op.call() if tracer is None else tracer.run_op(i, op.call)
        except CoxeterError as exc:
            if not tr.is_budget_error(type(exc).__name__):
                raise
            spans[i] = (start, time.perf_counter())
            times[i] = spans[i][1] - start
            failed[i] = type(exc).__name__
            failures.append({"index": i, "op": op.label, "error": failed[i],
                             "seconds": times[i]})
        else:
            spans[i] = (start, time.perf_counter())
            times[i] = spans[i][1] - start
            answers[i] = op.summarize(result)
        if tracer is not None:
            caches = tr.add_cache_stats(caches, before, tr.cache_stats())
        probe.after(times[i])

    digest = sha256_json(sorted(answers.items()) + sorted(failed.items()))
    out = {"times": times, "busy_s": sum(times.values()), "failures": failures,
           "attempted": len(ops), "answers": digest,
           "op_spans": spans, "probe_at": probe.at, "probe_s": probe.times}
    if tracer is not None:
        out.update(tr.round_metrics(tracer, caches))
        os.makedirs(RESULTS_DIR, exist_ok=True)
        # One file per workload, overwritten by its next traced round.
        path = os.path.join(RESULTS_DIR, f"spans-{args.workload}.bin")
        tracer.write(path)
        out["spans_file"] = os.path.relpath(path)
    # Rounds of a seed give the same answers (the parent compares their
    # digests), so the first round and the traced one check them.
    out["wrong"] = []
    if args.round == 0 or args.traced:
        out["wrong"] = [f"{ops[i].label}: {problem}" for i, answer in answers.items()
                        if (problem := ops[i].check(ops[i], answer))]
        cli = cli_in_process(cli_argv(args.workload))
        out["cli_in_process"] = hashlib.sha256(cli).hexdigest()
    return out


def reference_work(n: int = 4000) -> int:
    """Fixed pure-Python work of the kinds coxkit does: int arithmetic,
    bytes keys, dict and set updates.  Never changes with coxkit."""
    table, seen, acc = {}, set(), 0
    for i in range(n):
        word = bytes((i & 7, (i >> 3) & 7, (i >> 6) & 7))
        acc += i * i
        table[word] = table.get(word, 0) + 1
        seen.add((i & 255, word))
    return acc + len(table) + len(seen)


class SpeedProbe:
    """Times reference_work between ops, once per PROBE_EVERY_S of op time,
    so that its samples spread over the round as the ops do."""

    def __init__(self):
        self.at: list[float] = []
        self.times: list[float] = []
        self.owed = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_work()
        self.at.append(start)
        self.times.append(time.perf_counter() - start)

    def after(self, op_seconds: float) -> None:
        self.owed += op_seconds
        while self.owed >= PROBE_EVERY_S:
            self.sample()
            self.owed -= PROBE_EVERY_S


def write_cli_configs(workloads, argv) -> None:
    """The config files that a CLI command names as "@NAME"."""
    for name in (a[1:] for a in argv if a.startswith("@")):
        os.makedirs(CONFIGS_DIR, exist_ok=True)
        with open(os.path.join(CONFIGS_DIR, f"{name}.json"), "w") as fh:
            json.dump(workloads.config_dict(name), fh, indent=1)


def cli_in_process(argv) -> bytes:
    import coxkit.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = coxkit.cli.run_command(list(argv))
    if code != 0:
        raise RuntimeError(f"in-process coxkit {' '.join(argv)} returned {code}")
    return buf.getvalue().encode()


# --------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLI_COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one round in a child process.
    parser.add_argument("--round", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC_DIR, "coxkit", "__init__.py")):
        print(f"error: {SRC_DIR}/coxkit not found; run from the repository root",
              file=sys.stderr)
        return 2
    if args.round is not None:
        print(json.dumps(child_round(args)))
        return 0

    spec = benchmark_spec()
    report = {"meta": metadata(args)}
    if args.trace == 0:
        names = spec["end_to_end"]
        metrics, extra, rounds = end_to_end(args)
    else:
        names = spec["per_layer"]
        metrics, extra, rounds = per_layer(args, names)
    report.update(extra)
    report["metrics"] = metrics
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not report["wrong"],
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": {m["name"]: metric(metrics[m["name"]]["value"], m["unit"]) for m in names},
    }))
    return 1 if report["wrong"] else 0


if __name__ == "__main__":
    sys.exit(main())
