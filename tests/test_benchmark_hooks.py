"""The benchmark's spans (`flowbench/spans.py`) patch `knotflow` entry points
by module or class attribute name; installing them must find every one."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_spans_install_finds_every_entry_point():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT / "flowbench", env=env, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
