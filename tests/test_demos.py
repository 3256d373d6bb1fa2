"""Each narrated demo runs to completion as a script, and prints the same
stdout each time."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=300)
            for _ in range(2)]
    for result in runs:
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        assert "MISMATCH" not in result.stdout
    assert runs[0].stdout == runs[1].stdout
