"""Every demo script runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fptrack

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the child imports the same package as this test, installed or not
    package_root = str(Path(fptrack.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    # the child's temporary files go to tmp_path, its working directory too
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []  # a demo leaves no file behind
