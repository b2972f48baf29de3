"""Smoke tests: the scripts in scripts/ and the README's Python example
run against this source tree."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)


def run_script(name, *args):
    return run_python(str(ROOT / "scripts" / name), *args)


def test_case_study_script_prints_the_vcu_table_and_defers():
    result = run_script("run_case_study.py")
    assert result.returncode == 2, result.stderr.decode()
    out = result.stdout.decode()
    assert "algorithm  5.989E-05  0      6.550E-05  3.556E-05  1.609E-04" in out
    assert "checking   2.021E-04  0      1.437E-04  7.860E-05  4.244E-04" in out
    assert "Total      2.620E-04  0      2.092E-04  1.142E-04  5.854E-04" in out
    assert "gate                 defer-to-BAHAMAS" in out


def test_recovery_experiment_script_runs():
    result = run_script("srgm_recovery_experiment.py", "0", "3")
    assert result.returncode == 0, result.stderr.decode()
    out = result.stdout.decode()
    assert out.startswith("truth: a=200.0")
    assert "median relative error" in out


def test_readme_python_example_prints_the_total_and_the_gate():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    result = run_python("-c", example)
    assert result.returncode == 0, result.stderr.decode()
    out = result.stdout.decode()
    assert out.splitlines()[:2] == ["5.8538e-04", "defer-to-BAHAMAS"]
    assert "Total      2.620E-04  0      2.092E-04  1.142E-04  5.854E-04" in out
