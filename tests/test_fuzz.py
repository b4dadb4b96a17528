"""Fuzz the command line: any config and word exits 0 or 2, never with a traceback."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from coxkit.cli import run_command  # noqa: E402

VALID_ORDERS = st.one_of(st.integers(2, 7), st.sampled_from([10**18, 2**64, "inf", " inf", 1e308]))
JUNK = st.sampled_from([0, 1, -1, 2.5, None, True, False, "", "x", "3", [], [3]])
NAMES = ["a", "b", "c", "d"]
WORDS = st.lists(st.sampled_from(NAMES), max_size=6).map(",".join)


@st.composite
def configs(draw):
    n = draw(st.integers(0, 4))
    names = NAMES[:n]
    if draw(st.integers(0, 4)) == 0:
        names = names + [draw(st.sampled_from(["a", "", " a", "a,b", 3, None]))]
    orders = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            orders[i][j] = orders[j][i] = draw(VALID_ORDERS)
    if n and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        orders[i][j] = draw(JUNK)
    return {"generators": names, "orders": orders}


# longest-coset, trace and lemma-suite are left out: in I2(m) the greedy
# ascent to the longest coset element takes m steps, and I2(4000) already
# takes 0.7 s, so a drawn m = 10**18 would never finish.
@settings(derandomize=True, deadline=None)
@given(configs(), st.data())
def test_cli_exits_0_or_2_without_a_traceback(tmp_path_factory, config, data):
    path = tmp_path_factory.mktemp("fuzz") / "system.json"
    path.write_text(json.dumps(config))
    system = ("--config", str(path))
    for argv in (
        ("validate", *system),
        ("reduce", *system, "--word", data.draw(WORDS)),
        ("descents", *system, "--word", data.draw(WORDS)),
        ("spherical", *system, "--subset", data.draw(WORDS)),
        ("maximal-spherical", *system),
        ("enumerate", *system, "--radius", "2", "--max-elements", "50"),
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(list(argv))
        assert code in (0, 2), argv
        if code == 2:
            assert out.getvalue() == "", argv
            assert any(line.startswith("error: ") for line in err.getvalue().splitlines()), argv
        else:
            for line in out.getvalue().splitlines():
                json.loads(line)
