"""Byte identity with the benchmark's recorded baseline.

For every workload in `benchmarks/workloads.py`, seed 0: draw the inputs,
run the `multitopic train` children in the benchmark harness's
environment, and compare the sha256 of each `model.json` and
`anneal_log.jsonl` with the seed-0, `--trace 0` run recorded in
`benchmarks/BENCH_0.json`; then run `eval --which cnpmi,classify,lis` on
the last model and compare its quality numbers too, and its per-topic
CNPMI with the set-intersection oracle in `tests/oracles.py`. A change
that moves any of them changes what the program outputs for a fixed
(config, seed).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

from oracles import cnpmi_topic_reference, parse_reference_reference  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

from multitopic.evaluate import top_words  # noqa: E402
from multitopic.models import load_model  # noqa: E402

CLI = [sys.executable, "-m", "multitopic.cli"]
# the environment `benchmarks/run.py` gives its children
ENV = {
    **os.environ,
    "PYTHONPATH": str(ROOT / "src"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def baseline(name: str) -> dict:
    runs = json.loads((BENCH_DIR / "BENCH_0.json").read_text(encoding="utf-8"))["runs"]
    return next(r for r in runs if (r["workload"], r["seed"], r["trace"]) == (name, 0, 0))


def run_cli(*argv: str) -> None:
    result = subprocess.run(
        [*CLI, *argv, "--threads", "1"], env=ENV, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_outputs_match_the_benchmark_baseline(name, tmp_path):
    record = baseline(name)
    inputs = make_inputs(WORKLOADS[name], 0, tmp_path)
    shas = []
    for config, output in zip(inputs.configs, inputs.outputs):
        run_cli("train", "--config", str(config))
        shas.append({
            "model": output.name,
            "model.json": sha256(output / "model.json"),
            "anneal_log.jsonl": sha256(output / "anneal_log.jsonl"),
        })
    assert shas == record["sha256"]

    report_path = tmp_path / "report.json"
    run_cli(
        "eval", "--model", str(inputs.outputs[-1] / "model.json"),
        "--which", "cnpmi,classify,lis", "--reference", str(inputs.reference),
        "--test-corpus1", str(inputs.test1), "--test-corpus2", str(inputs.test2),
        "--dictionary", str(inputs.dictionary), "--seed", "0",
        "--output", str(report_path),
    )
    report = json.loads(report_path.read_text(encoding="utf-8"))
    # every topic's score, so a per-topic drift cannot hide behind the mean
    model = load_model(inputs.outputs[-1] / "model.json")
    pairs = parse_reference_reference(
        inputs.reference.read_text(encoding="utf-8"), *model.vocabularies
    )
    assert report["cnpmi_per_topic"] == [
        cnpmi_topic_reference(top_words(phi1, 20), top_words(phi2, 20), pairs)
        for phi1, phi2 in zip(*model.phi)
    ]
    assert {
        "cnpmi_mean": report["cnpmi_mean"],
        "lis_final": report["lis_final"],
        "f1_micro": (report["f1_side1_to_side2"] + report["f1_side2_to_side1"]) / 2.0,
    } == record["quality"]
