"""Smoke test: every narrative script in demos/ runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        # -W error, as pytest's own filter: a deprecation fails the demo
        [sys.executable, "-W", "error", str(script)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0 and "Traceback" not in done.stderr, done.stderr
