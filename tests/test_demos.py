"""Every demo runs to completion.

``06_capacity.py`` is left out: its coherent-information maximizations take
about 15 s with finite-difference gradients, and it joins this smoke test
once the maximizer has an analytic gradient (ROADMAP item 3).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p for p in (ROOT / "demos").glob("*.py") if p.name != "06_capacity.py")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr[-2000:]
