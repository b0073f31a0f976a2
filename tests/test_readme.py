"""The README's library quick start runs as written."""

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split(
        "## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library quick start)", "exec"), {})
    theta, prediction = capsys.readouterr().out.split()
    # the values its comments quote
    assert theta.startswith("1.4783")
    assert float(prediction) == pytest.approx(
        float(theta) * 1000.0 * math.log(1000.0))
