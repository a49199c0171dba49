"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root):

    python3 bench/repeat.py --workload star_reduce --seeds 1-10 [--trace 0] [--out FILE]

For every metric, and for the unscaled times of the report line (named
``<metric>.unscaled``), it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the quartile spread as a share of
the median.  ``--out`` merges the summary into a JSON file keyed by
workload (``<workload>.trace`` for traced runs), for recording a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    values: dict[str, list] = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=180)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        metrics = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        report = json.loads(proc.stdout.strip().splitlines()[-2])
        for name, value in report.get("unscaled", {}).items():
            metrics[name + ".unscaled"] = (value, metrics[name][1])
        for name, (value, unit) in metrics.items():
            values.setdefault(name, []).append(value)
            units[name] = unit
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, (v, _u) in metrics.items()), flush=True)

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"unit": units[name], "median": median, "q1": q1, "q3": q3, "spread": spread, "runs": vals}
        print(f"{name:40s} median {median:12.5g} {units[name]:6s} spread {spread:.3f}")
    if args.out:
        path = Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        data["environment"] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        }
        key = args.workload + (".trace" if args.trace else "")
        data.setdefault("workloads", {})[key] = {
            "seeds": args.seeds, "seconds": seconds, "trace": args.trace, "metrics": summary,
        }
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
