"""Command-line interface: JSON in, JSON out, deterministic output.

Exit codes: 0 success (and all suite checks passing), 1 any lemma-suite
failure, 2 usage or config errors.  Reports go to stdout as JSON with
sorted keys; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .cosets import longest_in_coset
from .errors import CoxeterError, HypothesisFailed
from .finite_type import classify, hypothesis_check, is_spherical, maximal_spherical_subsets
from .matrix import INF
from .oracle import ball
from .rays import make_ray, stabilize, theorem_trace
from .suite import lemma_suite
from .systems import PRESET_NAMES, SystemConfig, config_to_dict, load_config, preset
from .words import left_descents, reduce_word, right_descents


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _system_arg(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", help=f"preset name ({', '.join(PRESET_NAMES)})")
    group.add_argument("--config", help="path to a JSON system config")


def _load_system(args) -> SystemConfig:
    if args.config:
        return load_config(args.config)
    return preset(args.system)


def _spherical_subset(config: SystemConfig, text: str) -> frozenset[int]:
    # The library's NonSphericalSubset gives indices; check first to name generators.
    T = config.subset(text)
    if not is_spherical(config.matrix, T):
        raise CoxeterError(f"generator subset [{', '.join(config.spell(sorted(T)))}] spans an infinite parabolic subgroup")
    return T


def _order_json(order):
    return "inf" if order == INF else order


def _cmd_validate(args) -> int:
    config = _load_system(args)
    payload = config_to_dict(config)
    payload["valid"] = True
    _emit(payload)
    return 0


def _cmd_reduce(args) -> int:
    config = _load_system(args)
    element = reduce_word(config.matrix, config.word(args.word))
    _emit({"canonical": config.spell(element), "length": element.length})
    return 0


def _cmd_descents(args) -> int:
    config = _load_system(args)
    element = reduce_word(config.matrix, config.word(args.word))
    _emit({
        "canonical": config.spell(element),
        "right": config.spell(sorted(right_descents(element))),
        "left": config.spell(sorted(left_descents(element))),
    })
    return 0


def _cmd_spherical(args) -> int:
    config = _load_system(args)
    verdict = classify(config.matrix, config.subset(args.subset))
    _emit({
        "spherical": verdict.spherical,
        "order": _order_json(verdict.order),
        "components": [
            {
                "members": config.spell(sorted(members)),
                "type": str(label),
                "order": _order_json(label.order()),
            }
            for members, label in verdict.components
        ],
    })
    return 0


def _cmd_maximal_spherical(args) -> int:
    config = _load_system(args)
    subsets = maximal_spherical_subsets(config.matrix)
    _emit({
        "maximal_spherical": [config.spell(sorted(T)) for T in subsets],
    })
    return 0


def _cmd_enumerate(args) -> int:
    config = _load_system(args)
    b = ball(config.matrix, args.radius, max_elements=args.max_elements)
    for element in b.elements:
        _emit({
            "element": config.spell(element),
            "length": element.length,
            "descents": config.spell(sorted(b.right_descents_of(element))),
        })
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(b.to_dot(config.names) + "\n")
        print(f"wrote DOT graph to {args.dot}", file=sys.stderr)
    return 0


def _cmd_longest_coset(args) -> int:
    config = _load_system(args)
    w = reduce_word(config.matrix, config.word(args.word))
    pair = longest_in_coset(_spherical_subset(config, args.subset), w)
    _emit({
        "base": config.spell(pair.base),
        "x": config.spell(pair.x),
        "v": config.spell(pair.v),
        "length_x": pair.x.length,
        "length_v": pair.v.length,
    })
    return 0


def _cmd_lemma_suite(args) -> int:
    if not args.system and not args.config:
        raise ValueError("lemma-suite needs at least one --system or --config")
    reports = []
    for name in args.system or []:
        reports.append(lemma_suite(preset(name), args.radius))
    for path in args.config or []:
        reports.append(lemma_suite(load_config(path), args.radius))
    _emit({
        "ok": all(r.ok for r in reports),
        "systems": [r.to_dict(timings=args.timings) for r in reports],
    })
    return 0 if all(r.ok for r in reports) else 1


def _trace_report_json(config: SystemConfig, report) -> dict:
    return {
        "steps": [
            {
                "i": step.i,
                "w": config.spell(step.w),
                "x": config.spell(step.x),
                "len_x": step.len_x,
            }
            for step in report.steps
        ],
        "stabilization": {
            "candidate_n": report.stabilization.candidate_n,
            "certified": report.stabilization.certified,
            "reason": report.stabilization.reason,
        },
        "x_limit": config.spell(report.x_limit),
        "memberships": [
            {"i": m.i, "s0_check": m.s0_check, "t0_check": m.t0_check}
            for m in report.memberships
        ],
    }


def _cmd_trace(args) -> int:
    config = _load_system(args)
    ray = make_ray(
        config.matrix,
        config.word(args.prefix or ""),
        config.word(args.period),
        horizon=args.horizon,
    )
    T = _spherical_subset(config, args.subset)
    if args.s0 is not None or args.t0 is not None:
        if args.s0 is None or args.t0 is None:
            raise ValueError("--s0 and --t0 must be given together")
        s0, t0 = config.index(args.s0), config.index(args.t0)
        # The library's errors give indices; check first to name generators.
        hypothesis = hypothesis_check(config.matrix, T, s0)
        if not hypothesis.ok:
            raise HypothesisFailed(f"(T=[{', '.join(config.spell(sorted(T)))}], s0={args.s0}) fails the hypothesis")
        if t0 not in hypothesis.witnesses:
            witnesses = ", ".join(config.spell(hypothesis.witnesses))
            raise HypothesisFailed(f"t0={args.t0} is not an infinite-order witness among [{witnesses}]")
        report = theorem_trace(ray, T, s0, t0, horizon=args.horizon)
    else:
        report = stabilize(T, ray, horizon=args.horizon)
    _emit(_trace_report_json(config, report))
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["i", "len_w", "len_x"])
            for step in report.steps:
                writer.writerow([step.i, step.w.length, step.len_x])
        print(f"wrote step lengths to {args.csv}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="Exact workbench for Coxeter systems: word reduction, "
        "finite-type recognition, Cayley enumeration, coset representatives "
        "and stabilization traces.",
    )
    parser.add_argument("--version", action="version", version=f"coxkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a system config")
    _system_arg(p)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("reduce", help="canonical form of a word")
    _system_arg(p)
    p.add_argument("--word", required=True, help="comma-separated generator names ('' for identity)")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("descents", help="left/right descent sets of a word")
    _system_arg(p)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_descents)

    p = sub.add_parser("spherical", help="finite-type verdict for a generator subset")
    _system_arg(p)
    p.add_argument("--subset", required=True, help="comma-separated generator names ('' for empty)")
    p.set_defaults(fn=_cmd_spherical)

    p = sub.add_parser("maximal-spherical", help="all maximal spherical subsets")
    _system_arg(p)
    p.set_defaults(fn=_cmd_maximal_spherical)

    p = sub.add_parser("enumerate", help="JSON lines for every element of a ball")
    _system_arg(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--max-elements", type=int, default=200_000)
    p.add_argument("--dot", metavar="PATH", help="also write the Cayley graph in DOT form")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("longest-coset", help="longest element of W_T.w")
    _system_arg(p)
    p.add_argument("--subset", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=_cmd_longest_coset)

    p = sub.add_parser("lemma-suite", help="exhaustive verification sweep")
    p.add_argument("--system", action="append", help="preset name (repeatable)")
    p.add_argument("--config", action="append", help="config path (repeatable)")
    p.add_argument("--radius", type=int, default=4)
    p.add_argument("--timings", action="store_true", help="include wall time in the JSON report")
    p.set_defaults(fn=_cmd_lemma_suite)

    p = sub.add_parser("trace", help="stabilization trace along a periodic ray")
    _system_arg(p)
    p.add_argument("--subset", required=True, help="the spherical subset T")
    p.add_argument("--prefix", default="", help="ray prefix (default empty)")
    p.add_argument("--period", required=True, help="ray period, comma-separated names")
    p.add_argument("--horizon", type=int, default=50)
    p.add_argument("--s0", help="run the membership checks with this s0")
    p.add_argument("--t0", help="infinite-order witness t0 for the membership checks")
    p.add_argument("--csv", metavar="PATH", help="also write (i, len_w, len_x) rows")
    p.set_defaults(fn=_cmd_trace)

    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (CoxeterError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
