"""Run every workload over several seeds and summarise the spread.

    python3 benchmarks/record.py --seeds 10 --output benchmarks/BENCH_0.json

For each workload this runs `benchmarks/run.py` once per seed with
`--trace 0` (seeds 0..N-1) and once with `--trace 1` (seed 0), one
process at a time, with the run length from BENCHMARK.json. It prints, per
workload and metric, the unit, the number of runs, the median, the
quartiles, the maximum and, for end-to-end metrics, the quartile spread as
a share of the median next to the metric's bound. Metrics that only the
detail line carries (per-model times, `tree.build_s`, the tracing
overhead) follow, summarised over the per-run medians. `--output` writes
the same summary plus every run's detail line (sha256 records included).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "max": max(values),
        "spread": (q3 - q1) / abs(median) if median else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--output", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = range(args.seeds)
    summary = {"run_seconds": spec["run_seconds"], "workloads": {}}
    runs = []
    for workload in (w["name"] for w in spec["workloads"]):
        rows = {}
        for trace, metric_specs, trace_seeds in (
            (0, spec["end_to_end"], seeds),
            (1, spec["per_layer"], seeds[:1]),
        ):
            values: dict[str, list[float]] = {m["name"]: [] for m in metric_specs}
            extra: dict[str, list[float]] = {}
            extra_units: dict[str, str] = {}
            failed = attempted = 0
            for seed in trace_seeds:
                detail, result = run_once(spec["command"], workload, seed, spec["run_seconds"], trace)
                runs.append(detail)
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values[name].append(metric["value"])
                for name, metric in detail["metrics"].items():
                    if name not in values:
                        extra.setdefault(name, []).append(metric["median"])
                        extra_units[name] = metric["unit"]
                print(f"{workload} seed {seed} trace {trace}: rounds {detail['rounds']}, "
                      f"failed {result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
            for m in metric_specs:
                if values[m["name"]]:
                    rows[m["name"]] = {"unit": m["unit"], "bound": m.get("bound"),
                                       **summarise(values[m["name"]])}
            for name, samples in sorted(extra.items()):
                rows[name] = {"unit": extra_units[name], "bound": None, **summarise(samples)}
            rows[f"failed_ops.trace{trace}"] = {"unit": "count", "failed": failed, "attempted": attempted}
        summary["workloads"][workload] = rows

    print(f"{'workload':16} {'metric':28} {'unit':6} {'n':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'max':>12} {'spread':>7} {'bound':>6}")
    for workload, rows in summary["workloads"].items():
        for name, row in rows.items():
            if "median" not in row:
                print(f"{workload:16} {name:28} {row['unit']:6} failed {row['failed']} of {row['attempted']}")
                continue
            spread = "" if row["spread"] is None else f"{row['spread']:.3f}"
            bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
            print(f"{workload:16} {name:28} {row['unit']:6} {row['n']:>3} {row['median']:>12.6g} "
                  f"{row['q1']:>12.6g} {row['q3']:>12.6g} {row['max']:>12.6g} {spread:>7} {bound:>6}")
    if args.output:
        summary["runs"] = runs
        Path(args.output).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
