"""README's fenced python tour runs against the current API."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python block"
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    report = namespace["report"]
    assert namespace["g1"].spell(report.x_limit) == ["t1"]
    assert report.stabilization.certified


def test_readme_enumerate_example_matches_the_cli(capsys):
    from coxkit.cli import run_command

    shown = re.search(r"^coxkit enumerate --system A2 --radius 3 .*\n((?:# .*\n)+)",
                      README.read_text(), re.M)
    assert shown, "README shows no output for the A2 enumerate example"
    assert run_command(["enumerate", "--system", "A2", "--radius", "3"]) == 0
    assert capsys.readouterr().out == "".join(line[2:] for line in shown.group(1).splitlines(True))


@pytest.mark.parametrize("command", [
    "spherical --system G1 --subset t0,t1",
    "longest-coset --system G1 --subset t0,t1 --word s0",
    "maximal-spherical --system G1",
], ids=lambda command: command.split()[0])
def test_readme_spherical_example_matches_the_cli(capsys, command):
    from coxkit.cli import run_command

    shown = re.search(rf"^coxkit {re.escape(command)}\n# (.*)\n", README.read_text(), re.M)
    assert shown, f"README shows no output for coxkit {command}"
    assert run_command(command.split()) == 0
    assert capsys.readouterr().out == shown.group(1) + "\n"
