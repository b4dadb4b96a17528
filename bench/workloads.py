"""The benchmark workloads: their inputs, their ops and their answer checks.

A workload's inputs for one seed form one *round*: a fixed list of ops,
each a closed-loop call into coxkit.  The benchmark runs every round in a
fresh interpreter, and the same seed gives the same round every time.
In `trace`, `suite` and `spherical` an op stands for one `coxkit` command,
so coxkit's caches are emptied before each op (`clear_caches`), and an op
costs the same wherever the seed puts it in the round.  `reduce` stands
for a library user reducing many words in one process: its words are
distinct, so the reducer's result cache is cold without emptying it.

Inputs never repeat inside a round.  The seed relabels the generators
of the random matrices of `spherical`; the rays of `trace`, the walks of
`reduce` (drawn once) and the systems of `suite` are fixed catalogues.
The seed orders every round.  Every round of a workload holds
the same kinds and sizes of op on every seed, so that a run's figures
depend on the program and not on the seed.

Input generation uses only `coxkit.matrix`, `coxkit.systems` and the
BFS oracle, which never calls the reducer, so setting up a round does
not warm `words._reduce_bytes`.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable

import coxkit
from coxkit.systems import config_from_dict

INF = "inf"


def _table(n: int, entries: dict) -> list[list]:
    """An n x n order table: m = 2 off the diagonal unless ``entries`` says otherwise."""
    table = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for (i, j), m in entries.items():
        table[i][j] = table[j][i] = m
    return table


def _chain(n: int, *orders) -> list[list]:
    return _table(n, {(i, i + 1): m for i, m in enumerate(orders)})


def _names(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(n)]


# Systems not among coxkit's presets, as {"generators", "orders"} dicts.
SYSTEMS = {
    "A4": {"generators": _names("a", 4), "orders": _chain(4, 3, 3, 3)},
    "A5": {"generators": _names("a", 5), "orders": _chain(5, 3, 3, 3, 3)},
    "B4": {"generators": _names("b", 4), "orders": _chain(4, 4, 3, 3)},
    "D5": {"generators": _names("d", 5),
           "orders": _table(5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3})},
    "F4": {"generators": _names("f", 4), "orders": _chain(4, 3, 4, 3)},
    "H4": {"generators": _names("h", 4), "orders": _chain(4, 5, 3, 3)},
    "tilde-C3": {"generators": _names("c", 4), "orders": _chain(4, 4, 3, 4)},
    # Right-angled pentagon: m = 2 for cyclic neighbours, infinite otherwise.
    "RA5": {"generators": _names("p", 5),
            "orders": [[1 if i == j else 2 if (i - j) % 5 in (1, 4) else INF
                        for j in range(5)] for i in range(5)]},
    # T = {t0, t1, t2} is of type A3, s0 sees t0 with m = inf.
    "X4": {"generators": ["s0", "t0", "t1", "t2"],
           "orders": [[1, INF, 3, 3], [INF, 1, 3, 2], [3, 3, 1, 3], [3, 2, 3, 1]]},
}


def system(name: str) -> coxkit.SystemConfig:
    if name in SYSTEMS:
        return config_from_dict(SYSTEMS[name], label=name)
    return coxkit.preset(name)


def config_dict(name: str) -> dict:
    """A system of SYSTEMS, or a `spherical` catalogue matrix named like
    "dense-rank-13", as the JSON config that `coxkit --config` reads."""
    if name in SYSTEMS:
        return SYSTEMS[name]
    orders = dict(spherical_catalogue())[name.replace("-", " ")]
    return {"generators": _names("g", len(orders)), "orders": orders}


@dataclass(frozen=True)
class Op:
    """One closed-loop call into coxkit, with what is needed to check it."""

    label: str
    call: Callable[[], Any]
    summarize: Callable[[Any], Any]          # result -> canonical JSON-able answer
    check: Callable[["Op", Any], str | None]  # (op, answer) -> problem or None
    expected: Any = None                     # what the check compares against


def _shuffled(ops: list[Op], seed: int, workload: str) -> list[Op]:
    random.Random(f"{workload}:order:{seed}").shuffle(ops)
    return ops


# Workloads whose ops start with coxkit's caches empty.
FRESH_CACHES_PER_OP = frozenset({"trace", "suite", "spherical"})


def clear_caches() -> None:
    """Empty every functools cache in coxkit's modules, as a new process has them."""
    for name, module in list(sys.modules.items()):
        if name == "coxkit" or name.startswith("coxkit."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


# --------------------------------------------------------------------- trace
# The paper's workflow: trace rays of systems that meet the hypothesis, as
# `coxkit trace --s0 --t0` does.

# (system, period, T, s0, t0, horizon).  Free rays: consecutive period
# letters have m = inf.  Commuting rays: the period has a commuting pair,
# so the braid closures grow exponentially with the horizon.
TRACE_RAYS = (
    ("G1", "t0,s0", "t0,t1", "s0", "t0", 280),
    ("X4", "t0,s0", "t0,t1,t2", "s0", "t0", 120),
    ("RA5", "p0,p3", "p0,p1", "p3", "p0", 220),
    ("G1", "t1,t0,s0", "t0,t1", "s0", "t0", 23),
    ("RA5", "p0,p2,p3", "p0,p1", "p3", "p0", 22),
)


def _trace_call(config, period, subset, s0, t0, horizon):
    def call():
        ray = coxkit.rays.make_ray(config.matrix, (), config.word(period), horizon)
        return coxkit.rays.theorem_trace(
            ray, config.subset(subset), config.index(s0), config.index(t0), horizon)
    return call


def _trace_summary(config):
    def summarize(report):
        return {
            "certified": report.stabilization.certified,
            "reason": report.stabilization.reason,
            "candidate_n": report.stabilization.candidate_n,
            "x_limit": config.spell(report.x_limit),
            "memberships": len(report.memberships),
            "memberships_ok": all(m.s0_check and m.t0_check for m in report.memberships),
        }
    return summarize


def trace_ops(seed: int) -> list[Op]:
    ops = []
    for name, period, subset, s0, t0, horizon in TRACE_RAYS:
        config = system(name)
        ops.append(Op(
            label=f"{name} ({period}) H={horizon}",
            call=_trace_call(config, period, subset, s0, t0, horizon),
            summarize=_trace_summary(config),
            check=check_trace,
            # The paper's example: G1 along (t0.s0)^inf stabilizes at x = t1.
            expected=["t1"] if (name, period) == ("G1", "t0,s0") else None,
        ))
    return _shuffled(ops, seed, "trace")


def check_trace(op: Op, answer) -> str | None:
    if not answer["certified"]:
        return "stabilization not certified"
    if not answer["memberships"] or not answer["memberships_ok"]:
        return "a membership check failed"
    if op.expected is not None and answer["x_limit"] != op.expected:
        return f"x_limit {answer['x_limit']} != {op.expected}"
    return None


# -------------------------------------------------------------------- reduce

# (system, oracle radius or None for the whole group,
#  up-walks and their length, free walks and their length)
REDUCE_MIX = (
    ("A5", None, 35, 10, 7, 14),
    ("D5", None, 35, 10, 7, 14),
    ("B4", None, 35, 14, 7, 18),
    ("F4", None, 35, 14, 7, 18),
    ("H4", None, 35, 15, 7, 20),
    ("G1", 20, 35, 20, 7, 20),
    ("tilde-A2", 30, 35, 24, 7, 30),
    ("tilde-C3", 20, 35, 15, 7, 20),
    ("RA5", 9, 35, 9, 7, 9),
)
# An H4 up-walk of length 60 spells the longest element, whose reduced
# words are far more than the braid-closure budget, so at the seed commit
# it ends in ClosureBudgetExceeded (after about 1.5 s on a 2-core x86 VM).
# It stays in the round so that a kernel which answers it shows.
LONG_H4_WALKS = 1
LONG_H4_LENGTH = 60


def walk(ball, length: int, rng: random.Random, up: bool):
    """A random walk from the identity in the oracle's Cayley graph.

    An up-walk only takes edges that raise the depth, so its word is
    reduced; a free walk takes any edge inside the ball and may step down.
    Returns the word and the oracle's canonical letters of its end vertex.
    """
    n = ball.matrix.n
    e = coxkit.Element.identity(ball.matrix)
    depth = 0
    word = []
    for _ in range(length):
        steps = []
        for s in range(n):
            nb = ball.edge(e, s)
            if nb is None:
                continue
            d = ball.depth_of(nb)
            if up and d != depth + 1:
                continue
            steps.append((s, nb, d))
        if not steps:
            break
        s, e, depth = rng.choice(steps)
        word.append(s)
    return tuple(word), e.letters


def _reduce_call(matrix, word):
    return lambda: coxkit.words.reduce_word(matrix, word)


def _letters(element) -> list[int]:
    return list(element.letters)


def reduce_ops(seed: int) -> list[Op]:
    # The walks are drawn once from a fixed seed, and the run's seed orders
    # them.  Op costs spread widely (0.05 to 30 ms), so walks drawn anew for
    # each seed moved op_p50_ms by up to 15 % between seeds.
    rng = random.Random("reduce:catalogue")
    specs = []
    for name, radius, n_up, up_len, n_free, free_len in REDUCE_MIX:
        specs += [(name, radius, up_len, True)] * n_up
        specs += [(name, radius, free_len, False)] * n_free
    specs += [("H4", None, LONG_H4_LENGTH, True)] * LONG_H4_WALKS
    balls = {}
    seen = set()
    ops = []
    for name, radius, length, up in specs:
        if name not in balls:
            matrix = system(name).matrix
            balls[name] = (coxkit.oracle.full_group(matrix) if radius is None
                           else coxkit.oracle.ball(matrix, radius))
        ball = balls[name]
        word, end = walk(ball, length, rng, up)
        while (name, word) in seen:   # a repeat would be a cache hit
            word, end = walk(ball, length, rng, up)
        seen.add((name, word))
        ops.append(Op(
            label=f"{name} {'up' if up else 'free'} {'.'.join(map(str, word))}",
            call=_reduce_call(ball.matrix, word),
            summarize=_letters,
            check=check_reduce,
            expected=end,
        ))
    return _shuffled(ops, seed, "reduce")


def check_reduce(op: Op, answer) -> str | None:
    if answer != list(op.expected):
        return f"reduced to {answer}, oracle says {list(op.expected)}"
    return None


# --------------------------------------------------------------------- suite

SUITE_RUNS = (
    ("G1", 8), ("tilde-A2", 8), ("H3", 4), ("A4", 2),
    ("tilde-C3", 2), ("RA5", 3), ("X4", 3),
)


def _suite_call(config, radius):
    return lambda: coxkit.suite.lemma_suite(config, radius)


def _suite_summary(report):
    return report.to_dict()


def suite_ops(seed: int) -> list[Op]:
    ops = [
        Op(label=f"{name} r={radius}", call=_suite_call(system(name), radius),
           summarize=_suite_summary, check=check_suite)
        for name, radius in SUITE_RUNS
    ]
    return _shuffled(ops, seed, "suite")


def check_suite(op: Op, answer) -> str | None:
    if answer["ok"]:
        return None
    failed = [c["name"] for c in answer["checks"] if c["failures"]]
    return f"lemma suite failed: {failed}"


# ----------------------------------------------------------------- spherical
# finite_type alone: the 2^n subset scan of maximal_spherical_subsets, then
# the trace hypothesis for every maximal T and every s0 outside it.

# (kind, rank).  Sparse matrices are mostly m = 2 and have long spherical
# subsets; dense ones have many m >= 3 and inf.  Rank 14 fills the 2^14
# entries of finite_type's classification cache.  Rank 15 (about 1 s an
# op) is left out: one op that long set the run's figures on a 2-core VM
# whose speed changes by 1.5 times many times a second.
SPHERICAL_MIX = (
    ("sparse", 10), ("sparse", 11), ("sparse", 12), ("sparse", 13),
    ("dense", 11), ("dense", 12), ("dense", 13), ("dense", 14),
)
# Share of generator pairs with m != 2, and the labels drawn for them.
DENSITY = {
    "sparse": (0.15, (3, 3, 4, INF)),
    "dense": (0.6, (3, 3, 4, 5, 6, INF, INF)),
}
# The matrices are drawn once from this seed; a run's seed relabels their
# generators.  The cost of the subset scan depends on how many subsets are
# spherical, which varies by 30 % between random matrices of one rank, so
# drawing new matrices per seed would make a run's figures depend on it.
CATALOGUE_SEED = "spherical:catalogue"
# The answer check counts the group of every irreducible component with
# the BFS oracle up to this many elements (A7, B6, D6 and smaller).
COMPONENT_ORDER_CAP = 50_000
# Above this, a leading principal minor of the Gram matrix counts as positive.
GRAM_TOLERANCE = 1e-9


def random_orders(rng: random.Random, kind: str, rank: int) -> list[list]:
    share, labels = DENSITY[kind]
    pairs = list(itertools.combinations(range(rank), 2))
    edges = rng.sample(pairs, round(share * len(pairs)))
    return _table(rank, {pair: rng.choice(labels) for pair in edges})


def spherical_catalogue() -> list[tuple[str, list[list]]]:
    rng = random.Random(CATALOGUE_SEED)
    return [(f"{kind} rank {rank}", random_orders(rng, kind, rank))
            for kind, rank in SPHERICAL_MIX]


def relabel(orders: list[list], perm: list[int]) -> list[list]:
    return [[orders[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]


def _spherical_call(matrix):
    def call():
        maximal = coxkit.finite_type.maximal_spherical_subsets(matrix)
        hypotheses = [
            (T, s0, coxkit.finite_type.hypothesis_check(matrix, T, s0))
            for T in maximal for s0 in range(matrix.n) if s0 not in T
        ]
        return maximal, hypotheses
    return call


def _spherical_summary(result):
    maximal, hypotheses = result
    return {
        "maximal": [sorted(T) for T in maximal],
        "hypothesis": [[sorted(T), s0, r.ok, list(r.witnesses)] for T, s0, r in hypotheses],
    }


def spherical_ops(seed: int) -> list[Op]:
    rng = random.Random(f"spherical:{seed}")
    ops = []
    for label, orders in spherical_catalogue():
        perm = rng.sample(range(len(orders)), len(orders))
        matrix = coxkit.matrix.validate_matrix(relabel(orders, perm))
        ops.append(Op(label=label, call=_spherical_call(matrix),
                      summarize=_spherical_summary, check=check_spherical,
                      expected=matrix))
    return _shuffled(ops, seed, "spherical")


def gram_positive_definite(matrix, members) -> bool:
    """Coxeter's criterion: W_T is finite iff the form B(s, t) = -cos(pi / m(s, t))
    is positive definite on T (Humphreys, Reflection Groups and Coxeter
    Groups, Theorem 6.4).

    Cholesky factorisation; m = inf gives cos(0), so B(s, t) = -1.
    """
    idx = sorted(members)
    k = len(idx)
    gram = [[-math.cos(math.pi / matrix.m(s, t)) for t in idx] for s in idx]
    low = [[0.0] * k for _ in range(k)]
    for j in range(k):
        pivot = gram[j][j] - sum(low[j][p] ** 2 for p in range(j))
        if pivot <= GRAM_TOLERANCE:
            return False
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, k):
            low[i][j] = (gram[i][j] - sum(low[i][p] * low[j][p] for p in range(j))) / low[j][j]
    return True


def components(matrix, members) -> list[list[int]]:
    """Connected components of the Coxeter diagram on ``members`` (edges m >= 3)."""
    todo = sorted(members)
    comps = []
    while todo:
        comp, frontier = [todo[0]], [todo[0]]
        while frontier:
            v = frontier.pop()
            for u in [u for u in todo if u not in comp and matrix.m(u, v) >= 3]:
                comp.append(u)
                frontier.append(u)
        comps.append(sorted(comp))
        todo = [u for u in todo if u not in comp]
    return comps


def counted_order(matrix, members, memo: dict) -> int | None:
    """|W_T| as the product of its components' BFS orders, or None above the cap."""
    order = 1
    for comp in components(matrix, members):
        sub = matrix.submatrix(comp)
        if sub not in memo:
            try:
                memo[sub] = len(coxkit.oracle.full_group(sub, max_elements=COMPONENT_ORDER_CAP))
            except coxkit.SizeBudgetExceeded:
                memo[sub] = None
        if memo[sub] is None:
            return None
        order *= memo[sub]
    return order


def check_spherical(op: Op, answer) -> str | None:
    """Sphericity and maximality by Coxeter's criterion, hypotheses from their
    definition, and group orders counted by the BFS oracle."""
    matrix = op.expected
    gens = frozenset(matrix.generators())
    maximal = [frozenset(T) for T in answer["maximal"]]
    if len(set(maximal)) != len(maximal):
        return "a maximal subset is listed twice"
    for T in maximal:
        if not gram_positive_definite(matrix, T):
            return f"subset {sorted(T)} is not spherical"
        if any(gram_positive_definite(matrix, T | {s}) for s in gens - T):
            return f"subset {sorted(T)} is not maximal"
    # Every spherical pair extends to a maximal spherical subset.
    for s, t in itertools.combinations(sorted(gens), 2):
        if matrix.m(s, t) != math.inf and not any({s, t} <= T for T in maximal):
            return f"no returned subset contains the spherical pair {{{s}, {t}}}"
    pairs = [[sorted(T), s0] for T in maximal for s0 in sorted(gens - T)]
    if [h[:2] for h in answer["hypothesis"]] != pairs:
        return "hypothesis checks do not cover every maximal T and s0 outside it"
    for members, s0, ok, witnesses in answer["hypothesis"]:
        want = [t for t in members if matrix.m(s0, t) == math.inf]
        want_ok = bool(want) and all(matrix.m(s0, t) >= 3 for t in members)
        if witnesses != want or ok != want_ok:
            return f"hypothesis check for T={members}, s0={s0}: got {ok} {witnesses}"
    memo = {}
    for T in maximal:
        counted = counted_order(matrix, T, memo)
        order = coxkit.finite_type.classify(matrix, T).order
        if counted is not None and counted != order:
            return f"subset {sorted(T)}: catalogue order {order}, oracle {counted}"
    return None


# Workload name -> seed -> one round of ops.
WORKLOADS = {
    "trace": trace_ops,
    "reduce": reduce_ops,
    "suite": suite_ops,
    "spherical": spherical_ops,
}
