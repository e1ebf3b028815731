"""Train/eval benchmark for the `multitopic` CLI.

    python3 benchmarks/run.py --workload small_adaptive --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. One run draws the workload's inputs from `--seed`, then repeats
rounds until `--seconds` have passed (a round that has started always
finishes). Every round is one closed-loop client driving one child process
at a time:

- `--trace 0`: a fresh-interpreter set-up child, then `multitopic train`
  for each of the workload's models, then `multitopic eval --which
  cnpmi,classify,lis` on the last model. This gives the end-to-end metrics.
- `--trace 1`: an import probe, the same CLI children, then an in-process
  replay of train and eval (benchmarks/traced.py) with one span per module
  call. This gives the per-layer metrics; the replay's `model.json` must
  be byte-identical to the CLI's. The same replay runs once more without
  spans, and the difference in wall time is the tracing overhead.

Every output is checked; an operation whose child exits non-zero or whose
output fails a check counts as failed. The last line of stdout is the
result object; the line before it carries per-metric sample counts,
medians and maxima, the sha256 of every model and annealing log, and the
machine description. Spans are written to benchmarks/.work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
CHILD_TIMEOUT_S = 150.0
IMPORT_PROBE = "import time; t = time.perf_counter(); import multitopic; print(time.perf_counter() - t)"

# One BLAS thread: numpy's OpenBLAS would otherwise spread the logreg
# matmuls over every core and make timings depend on the neighbours.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

# (name, unit) in the order BENCHMARK.json lists them
END_TO_END = (
    ("setup_s", "s"),
    ("train_s", "s"),
    ("eval_s", "s"),
    ("train_peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("cli.import_s", "s"),
    ("corpus.load_s", "s"),
    ("corpus.tokens", "count"),
    ("dictionary.load_s", "s"),
    ("dictionary.concepts", "count"),
    ("transfer.build_s", "s"),
    ("transfer.nnz", "count"),
    ("transfer.anneal_s", "s"),
    ("models.train_s", "s"),
    ("models.train_tokens_per_s", "1/s"),
    ("models.infer_s", "s"),
    ("models.infer_tokens_per_s", "1/s"),
    ("models.save_s", "s"),
    ("models.load_s", "s"),
    ("models.model_bytes", "bytes"),
    ("schedule.lis_s", "s"),
    ("schedule.lis_calls", "count"),
    ("schedule.lis_share_est", "1"),
    ("schedule.anneal_events", "count"),
    ("logreg.fit_s", "s"),
    ("evaluate.cnpmi_s", "s"),
    ("evaluate.classify_s", "s"),
)
ROW_SUM_TOL = 1e-9


class Failures:
    """Counts attempted and failed operations; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.extend(problems)
            print("benchmark check failed: " + "; ".join(problems), file=sys.stderr)
        return not problems


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _log_tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_model(path: Path, inputs) -> list[str]:
    """Row sums of phi and theta, and count totals against the corpus size."""
    problems = []
    model = json.loads(path.read_text(encoding="utf-8"))
    expected = inputs.train_docs * inputs.doc_len
    for side in (0, 1):
        for table in ("phi", "theta"):
            sums = [math.fsum(row) for row in model[table][side]]
            worst = max(abs(s - 1.0) for s in sums)
            if worst > ROW_SUM_TOL:
                problems.append(f"{path}: {table}[{side}] row sum off by {worst:.3g}")
        doc_topic = model["counts"]["doc_topic"][side]
        word_topic = model["counts"]["word_topic"][side]
        if any(min(row) < 0 for row in doc_topic + word_topic):
            problems.append(f"{path}: negative count on side {side}")
        if any(sum(row) != inputs.doc_len for row in doc_topic):
            problems.append(f"{path}: doc_topic[{side}] rows do not match document lengths")
        for name, table in (("doc_topic", doc_topic), ("word_topic", word_topic)):
            total = sum(map(sum, table))
            if total != expected:
                problems.append(f"{path}: {name}[{side}] sums to {total}, expected {expected}")
    return problems


def check_report(report: dict) -> list[str]:
    problems = []
    for key in ("cnpmi_mean", "f1_side1_to_side2", "f1_side2_to_side1", "lis_final"):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"eval field {key} is {value!r}")
        elif key == "cnpmi_mean" and not -1.0 <= value <= 1.0:
            problems.append(f"cnpmi_mean {value} outside [-1, 1]")
        elif key != "cnpmi_mean" and not 0.0 <= value <= 1.0:
            problems.append(f"{key} {value} outside [0, 1]")
    return problems


def cli_pass(inputs, seed: int, tag: str, failures: Failures) -> dict | None:
    """`multitopic train` per model, then `multitopic eval` on the last one."""
    cli = [sys.executable, "-m", "multitopic.cli"]
    out = {"train_s": 0.0, "rss_mb": 0.0, "per_model": [], "sha": []}
    for config, output in zip(inputs.configs, inputs.outputs):
        shutil.rmtree(output, ignore_errors=True)
        log = inputs.directory / f"{tag}-{output.name}.log"
        code, wall, rss = run_child([*cli, "train", "--config", str(config), "--threads", "1"], log)
        problems = [f"train {config.name} exited {code}: {_log_tail(log)}"] if code else []
        if not problems:
            problems = check_model(output / "model.json", inputs)
        if not failures.op(problems):
            return None
        out["train_s"] += wall
        out["rss_mb"] = max(out["rss_mb"], rss)
        out["per_model"].append(wall)
        out["sha"].append({
            "model": output.name,
            "model.json": sha256(output / "model.json"),
            "anneal_log.jsonl": sha256(output / "anneal_log.jsonl"),
        })
    report_path = inputs.directory / f"{tag}-report.json"
    log = inputs.directory / f"{tag}-eval.log"
    code, wall, _ = run_child([
        *cli, "eval", "--model", str(inputs.outputs[-1] / "model.json"),
        "--which", "cnpmi,classify,lis", "--reference", str(inputs.reference),
        "--test-corpus1", str(inputs.test1), "--test-corpus2", str(inputs.test2),
        "--dictionary", str(inputs.dictionary), "--seed", str(seed),
        "--output", str(report_path), "--threads", "1",
    ], log)
    problems = [f"eval exited {code}: {_log_tail(log)}"] if code else []
    if not problems:
        out["report"] = json.loads(report_path.read_text(encoding="utf-8"))
        problems = check_report(out["report"])
    if not failures.op(problems):
        return None
    out["eval_s"] = wall
    return out


def span_totals(spans: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"])
    return totals


def span_sum(spans: list[dict], name: str, field: str) -> int:
    return sum(s.get(field, 0) for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], import_s: float) -> dict[str, float]:
    """Per-layer values of one traced round, summed over the round's calls."""
    t = span_totals(spans)
    train_spans = [s for s in spans if s["name"] == "models.train"]
    models_train_s = t["models.train"]
    lis_calls = span_sum(spans, "models.train", "lis_calls")
    values = {
        "cli.import_s": import_s,
        "corpus.load_s": t["corpus.load"],
        "corpus.tokens": next(s["tokens"] for s in spans if s["name"] == "corpus.load"),
        "dictionary.load_s": t.get("dictionary.load", 0.0),
        "dictionary.concepts": next((s["concepts"] for s in spans if s["name"] == "dictionary.load"), 0),
        "transfer.build_s": t.get("transfer.build", 0.0),
        "transfer.nnz": next((s["nnz"] for s in reversed(spans) if s["name"] == "transfer.build"), 0),
        "transfer.anneal_s": t.get("transfer.anneal", 0.0),
        "models.train_s": models_train_s,
        "models.train_tokens_per_s": span_sum(spans, "models.train", "tokens") / models_train_s,
        "models.infer_s": t["models.infer"],
        "models.infer_tokens_per_s": span_sum(spans, "models.infer", "tokens") / t["models.infer"],
        "models.save_s": t["models.save"],
        "models.load_s": t["models.load"],
        "models.model_bytes": span_sum(spans, "models.save", "bytes"),
        "schedule.lis_s": t["schedule.lis"],
        "schedule.lis_calls": lis_calls,
        "schedule.lis_share_est": lis_calls * t["schedule.lis"] / models_train_s,
        "schedule.anneal_events": span_sum(spans, "models.train", "anneal_events"),
        "logreg.fit_s": t["logreg.fit"],
        "evaluate.cnpmi_s": t["evaluate.cnpmi"],
        "evaluate.classify_s": t["evaluate.classify"],
    }
    # layers that only some workloads reach, reported in the detail line
    if "tree.build" in t:
        values["tree.build_s"] = t["tree.build"]
    for s in train_spans:
        values[f"models.train_s.{s['label']}"] = s["end"] - s["start"]
        values[f"models.train_tokens_per_s.{s['label']}"] = s["tokens"] / (s["end"] - s["start"])
    return values


def replay(inputs, seed: int, cli_out: dict, failures: Failures, tracer) -> float:
    """In-process replay of the CLI pass; checks byte identity against it.

    Returns the replay's wall time.
    """
    from traced import eval_pipeline, train_pipeline

    start = time.perf_counter()
    model_path = None
    for i, (config, output, label) in enumerate(zip(inputs.configs, inputs.outputs, inputs.labels)):
        traced_out = output.with_name(output.name + "-traced")
        shutil.rmtree(traced_out, ignore_errors=True)
        model_path = train_pipeline(config, traced_out, tracer, label)
        problems = []
        for name in ("model.json", "anneal_log.jsonl"):
            if sha256(traced_out / name) != cli_out["sha"][i][name]:
                problems.append(f"traced {traced_out.name}/{name} differs from the CLI's")
        failures.op(problems)
    report = eval_pipeline(model_path, inputs, seed, tracer)
    failures.op([
        f"traced eval {key} {report[key]!r} differs from the CLI's {cli_out['report'][key]!r}"
        for key in report if report[key] != cli_out["report"][key]
    ])
    return time.perf_counter() - start


def traced_round(inputs, seed: int, round_id: int, cli_out: dict, failures: Failures) -> tuple[list[dict], float]:
    """The replay once with spans and once without; returns the spans and
    the tracing overhead (traced minus untraced wall time). The two sides
    alternate which runs first from round to round."""
    from traced import NoTracer, Tracer

    traced, untraced = Tracer(f"round{round_id}"), NoTracer()
    walls = {}
    for side in (traced, untraced) if round_id % 2 else (untraced, traced):
        walls[side] = replay(inputs, seed, cli_out, failures, side)
    return traced.spans, walls[traced] - walls[untraced]


def unit_of(name: str) -> str:
    """Unit of a metric, of a per-model variant `<metric>.<model>`, or seconds."""
    units = dict(END_TO_END + PER_LAYER)
    return units.get(name) or units.get(name.rsplit(".", 1)[0], "s")


def stats(samples: list[float], unit: str) -> dict:
    return {"unit": unit, "n": len(samples), "median": statistics.median(samples), "max": max(samples),
            "samples": samples}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    commit = "unknown"
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
        if result.returncode == 0:
            commit = result.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from traced import write_spans
    from workloads import WORKLOADS, make_inputs

    workload = WORKLOADS[workload_name]
    work = WORK_DIR / f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    failures = Failures()
    samples: dict[str, list[float]] = {}
    quality = None
    shas = None
    spans: list[dict] = []
    overhead = []
    try:
        inputs = make_inputs(workload, seed, work)
        setup_config = str(inputs.configs[-1])
        # untimed: compiles bytecode and warms the file cache for round 1
        log = work / "warmup.log"
        code, _, _ = run_child([sys.executable, "-c", "import multitopic.cli"], log)
        ready = failures.op([f"warm-up import exited {code}: {_log_tail(log)}"] if code else [])
        started = time.perf_counter()
        round_id = 0
        while ready and (round_id == 0 or time.perf_counter() - started < seconds):
            round_id += 1
            tag = f"r{round_id}"
            if trace:
                log = work / f"{tag}-import.log"
                code, _, _ = run_child([sys.executable, "-c", IMPORT_PROBE], log)
                if not failures.op([f"import probe exited {code}: {_log_tail(log)}"] if code else []):
                    break
                import_s = float(log.read_text(encoding="utf-8").split()[-1])
            else:
                log = work / f"{tag}-setup.log"
                code, wall, _ = run_child(
                    [sys.executable, str(BENCH_DIR / "traced.py"), "setup", setup_config], log
                )
                if not failures.op([f"setup exited {code}: {_log_tail(log)}"] if code else []):
                    break
                samples.setdefault("setup_s", []).append(wall)
            cli_out = cli_pass(inputs, seed, tag, failures)
            if cli_out is None:
                break
            report = cli_out["report"]
            round_quality = {
                "cnpmi_mean": report["cnpmi_mean"],
                "lis_final": report["lis_final"],
                "f1_micro": (report["f1_side1_to_side2"] + report["f1_side2_to_side1"]) / 2.0,
            }
            # same seed and config: every round must reproduce the first
            failures.op([] if shas in (None, cli_out["sha"]) and quality in (None, round_quality)
                        else ["a CLI round did not reproduce the first round's outputs"])
            quality, shas = round_quality, cli_out["sha"]
            if trace:
                try:
                    round_spans, round_overhead = traced_round(inputs, seed, round_id, cli_out, failures)
                except Exception as exc:  # the replay must report, not abort the run
                    traceback.print_exc()
                    failures.op([f"in-process replay raised {exc!r}"])
                    break
                spans.extend(round_spans)
                for name, value in layer_metrics(round_spans, import_s).items():
                    samples.setdefault(name, []).append(value)
                overhead.append(round_overhead)
            else:
                samples.setdefault("train_s", []).append(cli_out["train_s"])
                samples.setdefault("eval_s", []).append(cli_out["eval_s"])
                samples.setdefault("train_peak_rss_mb", []).append(cli_out["rss_mb"])
                for label, wall in zip(inputs.labels, cli_out["per_model"]):
                    samples.setdefault(f"train_s.{label}", []).append(wall)
        if spans:
            write_spans(spans, WORK_DIR / f"spans-{workload_name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "rounds": round_id,
        "machine": machine(),
        "quality": quality,
        "sha256": shas,
        "failures": failures.messages,
        "metrics": {},
    }
    for name, values in sorted(samples.items()):
        detail["metrics"][name] = stats(values, unit_of(name))
    if overhead:
        detail["metrics"]["trace.overhead_s"] = stats(overhead, "s")

    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    complete = failures.failed == 0 and quality is not None
    if complete:
        for name, unit in names:
            metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
    return {
        "detail": detail,
        "result": {
            "correct": complete,
            "attempted": max(failures.attempted, 1),
            "failed": failures.failed if complete else max(failures.failed, 1),
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "multitopic" / "__init__.py"
    if not package.is_file():
        print(f"benchmark: no multitopic sources at {package.parent}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import multitopic

    if Path(multitopic.__file__).resolve() != package.resolve():
        print(f"benchmark: imported multitopic from {multitopic.__file__}, not {package}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # the replay's warnings (labels absent from one side) are the CLI's too
    logging.getLogger("multitopic").setLevel(logging.ERROR)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": out["detail"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
