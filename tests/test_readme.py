"""README's fenced python tour runs against the current API."""

import re
from pathlib import Path

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


def test_readme_spherical_example_matches_the_cli(capsys):
    from coxkit.cli import run_command

    shown = re.search(r"^coxkit spherical --system G1 --subset t0,t1\n# (.*)\n", README.read_text(), re.M)
    assert shown, "README shows no output for the G1 spherical example"
    assert run_command(["spherical", "--system", "G1", "--subset", "t0,t1"]) == 0
    assert capsys.readouterr().out == shown.group(1) + "\n"
