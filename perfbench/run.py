#!/usr/bin/env python3
"""Benchmark of outbreak-local: one workload, end to end or traced.

    python3 perfbench/run.py --workload local_estimate --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Graphs are built from the checkout's
``src`` (set-up, timed as ``setup_s``), then the workload's operations run in
a closed loop, one caller at 1 worker, until ``--seconds`` have passed; every
round repeats the same inputs and must reproduce the same artifact hashes.
With ``--trace 1`` the per-layer suite runs instead, plus one untraced, one
traced and one threads=2 round of the workload. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics that ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no caches in the checkout's src/ or tests/

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = ROOT / ".perfbench_runs"
SETUP_REPEATS = 3   # at least; more while the set-ups total under SETUP_MIN_S
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25


class Run:
    """Operations attempted and failed in one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, name: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")
            print(f"FAIL {name}: {'; '.join(problems)}", file=sys.stderr)

    def same(self, name: str, values: list) -> None:
        """A repetition check: every value must equal the first."""
        self.record(name, [] if all(v == values[0] for v in values) else [f"differs: {values}"])


class Prebuilt:
    """A GenSpec whose build() returns the graph built during set-up, so
    run_experiment time excludes graph generation (``setup_s`` has it)."""

    def __init__(self, spec, graph):
        self._spec, self._graph = spec, graph

    def build(self):
        return self._graph

    def __getattr__(self, name):
        return getattr(self._spec, name)


def run_round(ops, ctx, out_root: Path, run: Run, threads: int = 1) -> dict:
    """Every operation once, in order; times cover only the calls."""
    from outbreak_local import harness
    import workloads as wl

    times, digest_items, accept = {}, [], None
    for op in ops:
        res = wl.OpResult(out_dir=out_root / op.name)
        problems = []
        try:
            cfg = None
            if op.config is not None:
                cfg = harness.ExperimentConfig.from_dict(op.config)
                cfg.gen = Prebuilt(cfg.gen, ctx.graphs[wl.spec_key(op.config["gen"])])
            t0 = time.perf_counter()
            try:
                if cfg is not None:
                    res.manifest = harness.run_experiment(cfg, res.out_dir, threads=threads)
                else:
                    res.value = op.direct(ctx)
            finally:
                times[op.name] = time.perf_counter() - t0
            if res.manifest is not None:
                problems = [f"task {t['index']} {t['status']}: {t.get('error')}"
                            for t in res.manifest["tasks"] if t["status"] != "ok"]
            if not problems:
                problems = op.check(op, res, ctx)
                if op.name == "pa_degree_biased":
                    accept = json.loads((res.out_dir / "estimate_01.json").read_text())[
                        "report"]["acceptance_rate"]
            digest_items.append((op.name, wl.result_digest_items(op, res)))
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"{type(exc).__name__}: {exc}"]
            digest_items.append((op.name, "raised"))
            times.setdefault(op.name, float("nan"))
        run.record(op.name, problems)
    nbytes = sum(f.stat().st_size for f in out_root.rglob("*") if f.is_file())
    shutil.rmtree(out_root, ignore_errors=True)
    blob = json.dumps(digest_items, sort_keys=True, default=str).encode()
    return {"times": times, "wall": sum(times.values()), "bytes": nbytes,
            "digest": hashlib.sha256(blob).hexdigest()[:16], "acceptance": accept}


def setup(ops, run: Run):
    """Build the workload's graphs several times (a cheap set-up more often,
    so its median is steady); keep the last set."""
    from outbreak_local.generators import GenSpec
    import workloads as wl

    specs = wl.gen_specs(ops)
    times, counts, graphs = [], [], None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S
                                         and len(times) < SETUP_MAX_REPEATS):
        graphs = None  # free the previous set before building the next
        t0 = time.perf_counter()
        graphs = {k: GenSpec.from_json_dict(gen).build() for k, gen in specs.items()}
        times.append(time.perf_counter() - t0)
        counts.append({k: {c: g.meta.get(c) for c in ("attempts", "proposals")}
                       for k, g in graphs.items()})
    run.same("generator counts across set-ups", counts)
    return graphs, times


def summarize(values: list) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    vals = sorted(values)
    text = f"median={statistics.median(vals):.6g}"
    for pct in (99, 95, 90, 75):
        if len(vals) * (100 - pct) / 100 >= 10:
            text += f" p{pct}={vals[min(len(vals) - 1, int(len(vals) * pct / 100))]:.6g}"
            break
    else:
        text += f" max={vals[-1]:.6g}"
    return text + f" n={len(vals)}"


def untraced(workload: str, seed: int, seconds: float, run: Run, work_dir: Path) -> tuple:
    import workloads as wl

    ops = wl.build_ops(workload, seed)
    graphs, setup_times = setup(ops, run)
    ctx = wl.Context(seed, graphs)
    wl.prepare(workload, ctx, ops)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_round(ops, ctx, work_dir / f"round{len(rounds)}", run))
    for key in ("digest", "bytes", "acceptance"):
        if len(rounds) > 1:
            run.same(f"round {key}", [r[key] for r in rounds])

    # one operation's median over rounds drops a slow round of that operation only
    by_name = {op.name: op for op in ops}
    op_s = {name: statistics.median(r["times"][name] for r in rounds) for name in by_name}
    report = {
        "wall_s": (sum(op_s.values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if workload == "local_estimate":
        report["queries_per_s"] = (sum(op.queries for op in ops) / report["wall_s"][0], "1/s")
        report["query_n_ratio"] = (op_s["cm_n1e6"] / op_s["cm_n1e4"], "ratio")
    if workload == "global_outbreak":
        hist = [name for name, op in by_name.items() if op.sir_trials]
        report["trials_per_s"] = (sum(by_name[h].sir_trials for h in hist)
                                  / sum(op_s[h] for h in hist), "1/s")
    print(f"workload={workload} seed={seed} rounds={len(rounds)} "
          f"digest={rounds[0]['digest']} artifact_bytes={rounds[0]['bytes']}")
    for name, (value, unit) in report.items():
        print(f"  {name} [{unit}] {value:.6g}")
    print(f"  round wall [s] {summarize([r['wall'] for r in rounds])}")
    print(f"  set-up [s] {summarize(setup_times)}")
    for name in by_name:
        print(f"  op.{name} [s] {summarize([r['times'][name] for r in rounds])}")
    print(f"  fail_rate [ratio] {len(run.failures) / run.attempted:.6g} "
          f"({len(run.failures)} of {run.attempted} operations)")
    return report


def traced(workload: str, seed: int, run: Run, work_dir: Path) -> dict:
    import layers
    import tracing
    import workloads as wl

    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        metrics, graphs, acceptance = layers.run_suite(tracer, seed)
    run.same("suite degree-biased acceptance", acceptance)
    metrics["parallel.speedup_2t"] = layers.parallel_speedup(tracer, graphs, seed)

    ops = wl.build_ops(workload, seed)
    ctx = wl.Context(seed, graphs)
    wl.prepare(workload, ctx, ops)
    plain = run_round(ops, ctx, work_dir / "plain", run)
    with tracing.instrumented(tracer), tracer.span(f"round.{workload}"):
        root = len(tracer.spans) - 1
        traced_round = run_round(ops, ctx, work_dir / "traced", run)
    two = run_round(ops, ctx, work_dir / "threads2", run, threads=2)
    for key in ("digest", "bytes", "acceptance"):
        run.same(f"{key}: untraced, traced, threads=2", [r[key] for r in (plain, traced_round, two)])

    self_times = tracer.self_times(root)
    metrics["harness.overhead_s"] = self_times.get("harness", 0.0)
    metrics["harness.artifact_bytes"] = plain["bytes"]
    metrics["trace_overhead"] = traced_round["wall"] - plain["wall"]

    RUNS_DIR.mkdir(exist_ok=True)
    trace_path = RUNS_DIR / f"trace-{workload}-s{seed}.json"
    tracer.write(trace_path)
    print(f"workload={workload} seed={seed} digest={plain['digest']} trace={trace_path.name}")
    for name in plain["times"]:
        print(f"  op.{name}_s untraced={plain['times'][name]:.4g} "
              f"traced={traced_round['times'].get(name, float('nan')):.4g} "
              f"threads2={two['times'].get(name, float('nan')):.4g}")
    print(f"  self time of the traced round [s]: "
          + " ".join(f"{k}={v:.4g}" for k, v in sorted(self_times.items())))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
        import outbreak_local
        import layers
        import workloads as wl
    except (OSError, ImportError, ValueError) as exc:
        print(f"perfbench: cannot load BENCHMARK.json, the program or its acceptance "
              f"configs from {ROOT}: {exc}", file=sys.stderr)
        return 2
    if Path(outbreak_local.__file__).resolve().parent != ROOT / "src" / "outbreak_local":
        print(f"perfbench: imported outbreak_local from {outbreak_local.__file__}, "
              f"not from this checkout", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    if args.trace and {m["name"] for m in wanted} != set(layers.MOVES):
        print("perfbench: BENCHMARK.json per_layer differs from layers.MOVES", file=sys.stderr)
        return 2

    run = Run()
    work_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        if args.trace:
            values = traced(args.workload, args.seed, run, work_dir)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
            for m in wanted:
                moves, on = layers.MOVES[m["name"]]
                print(f"  {m['name']} [{m['unit']}] {values[m['name']]:.6g} (moves {moves} on {on})")
        else:
            values = untraced(args.workload, args.seed, args.seconds, run, work_dir)
            metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                       for m in wanted}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
