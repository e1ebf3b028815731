"""Check that two sets of runs agree on every end-to-end metric.

    python3 benchmarks/compare.py benchmarks/BENCH_0.json benchmarks/BENCH_0_repeat.json

Both files are `record.py --output` summaries. For every workload and
every end-to-end metric in BENCHMARK.json this prints the two medians, the
change of the second against the first as a share of the first, the
metric's bound and whether the change, in either direction, stays within
the bound. The exit code is 1 if any does not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare.py FIRST.json SECOND.json", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, second = (json.loads(Path(p).read_text(encoding="utf-8"))["workloads"] for p in argv)
    agree = True
    print(f"{'workload':16} {'metric':18} {'first':>10} {'second':>10} {'change':>7} {'bound':>6}  agree")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = first[workload][metric["name"]]["median"]
            b = second[workload][metric["name"]]["median"]
            change = (b - a) / a
            ok = abs(change) <= metric["bound"]
            agree &= ok
            print(f"{workload:16} {metric['name']:18} {a:>10.4g} {b:>10.4g} {change:>+7.3f} "
                  f"{metric['bound']:>6.2f}  {'yes' if ok else 'NO'}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
