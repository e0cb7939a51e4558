"""The walkthroughs in demos/ run to the end. Each runs from a copy in a
temporary directory, so what a demo writes next to itself (the .dot file
of simulate_visitor.py) stays out of the checkout. scale_firm.py
synthesizes and verifies the firm and firm x2 in about a second."""

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ["classic_walk.py", "language_notes.py", "scale_firm.py",
         "simulate_visitor.py", "solver_bridge.py", "synthesize_office.py",
         "tour_office.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(tmp_path, name):
    script = tmp_path / name
    shutil.copy(os.path.join(ROOT, "demos", name), script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(script)], cwd=str(tmp_path), env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
