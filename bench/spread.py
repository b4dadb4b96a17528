"""Run the benchmark on several seeds and summarize each end-to-end metric.

    python3 bench/spread.py --seeds 501-510 --out bench/results/spread.json \\
        [--workload W ...]

Run it from the repository root.  For every workload of BENCHMARK.json
(or those given) it runs `bench/run.py --trace 0` once per seed, one run
at a time, and records each metric's values, median, quartiles and spread
((q3 - q1) / median, the quartiles from statistics.quantiles(n=4)) next
to its bound.  bench/BENCH_baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float], bound) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)   # the middle one is the median
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def run_workload(spec: dict, workload: str, seeds: list[int]) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {name: [] for name in bounds}
    attempted_failed, wall, meta = [], [], None
    for seed in seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [*spec["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        wall.append(round(time.perf_counter() - start, 1))
        if out.returncode != 0:
            sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
        *_, report, last = (json.loads(line) for line in out.stdout.strip().splitlines())
        meta = meta or report["meta"]
        if not last["correct"]:
            sys.exit(f"{workload} seed {seed}: wrong answers")
        attempted_failed.append([last["attempted"], last["failed"]])
        for name in bounds:
            values[name].append(last["metrics"][name]["value"])
        print(f"{workload} seed {seed}: {wall[-1]} s", file=sys.stderr, flush=True)
    return {"meta": meta, "seeds": seeds, "attempted_failed": attempted_failed, "wall_s": wall,
            "metrics": {name: summarize(v, bounds[name]) for name, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 501-510")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    result = {
        "command": spec["command"],
        "run_seconds": spec["run_seconds"],
        "workloads": {w: run_workload(spec, w, args.seeds) for w in workloads},
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    for w, r in result["workloads"].items():
        for name, m in r["metrics"].items():
            print(f"{w:10s} {name:18s} median {m['median']:12.5g}  spread {m['spread']:.3f}"
                  f"  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
