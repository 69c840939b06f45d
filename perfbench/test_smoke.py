"""Smoke test of the benchmark: every workload at tiny sizes, untraced and
traced, with metric names and units checked against BENCHMARK.json.

    python -m pytest -q perfbench/test_smoke.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_every_workload_at_smoke_size():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--all",
                           "--smoke"], capture_output=True, text=True,
                          cwd=ROOT, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "every output check passed" in proc.stdout


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "train-default", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
