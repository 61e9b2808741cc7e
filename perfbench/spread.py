#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and its
spread: the distance between the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.

    python3 perfbench/spread.py --workload diagnostics --seeds 1-10 [--trace 0] [--out FILE]

``--out`` writes every run's result line, the one-number lines it printed
(``queries_per_s``, ``query_n_ratio``, ``trials_per_s`` ...) and the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list] = {}
    runs = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, *bench["command"][1:], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        printed = dict(re.findall(r"^  (\S+) \[\S+\] ([-0-9.e+]+)$", out.stdout, re.M))
        runs.append({"seed": seed, **result,
                     "printed": {k: float(v) for k, v in printed.items()}})
        print(f"seed={seed} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f" bound={bound} ({spread / bound:.2f} of it)" if bound else ""
        print(f"{args.workload} {name}: median={med:.6g} spread={spread:.4f}{note}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                        "run_seconds": bench["run_seconds"], "runs": runs,
                                        "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
