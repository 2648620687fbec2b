"""The walkthrough scripts in demos/ and the README's library tour run to
completion, warnings as errors."""

import re
import runpy
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_tour_runs(capsys):
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    # The tour's comment promises an empty tuple of flags.
    assert capsys.readouterr().out == "()\n"
