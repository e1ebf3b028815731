"""The benchmark's set-up child runs against the package as it stands.

`benchmarks/run.py` times `python benchmarks/traced.py setup CONFIG` on
each workload's last config as `setup_s`. That script imports package
names the CLI does not export (`cli._load_bilingual`, `cli._hyperparams`,
`cli._require_path`, `LogisticRegression`, `TransferMatrix.rows` among
them), so a package change that drops one fails here instead of in the
benchmark.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS, make_inputs  # noqa: E402


def test_traced_imports_in_process():
    traced = importlib.import_module("traced")
    assert callable(traced.prepare) and callable(traced.main)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_child_exits_0(tmp_path, name):
    inputs = make_inputs(WORKLOADS[name], 0, tmp_path)
    # the command and environment `benchmarks/run.py` gives the child
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "traced.py"), "setup", str(inputs.configs[-1])],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
