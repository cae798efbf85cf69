"""Every script under demos/, and the README's library quickstart, runs to
completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


def run_python(tmp_path, *args):
    pythonpath = os.pathsep.join(filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_exits_zero(tmp_path, demo):
    result = run_python(tmp_path, str(demo))
    assert result.returncode == 0, result.stderr


def readme_quickstart() -> str:
    """The fenced python block under the README's "## Library quickstart" heading."""
    section = (REPO / "README.md").read_text().split("\n## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_exits_zero(tmp_path):
    code = readme_quickstart()
    assert "run_sampler(" in code  # the block found is the quickstart
    result = run_python(tmp_path, "-c", code)
    assert result.returncode == 0, result.stderr
