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
