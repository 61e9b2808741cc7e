"""Experiment runner: validated task lists over one generated graph, with
deterministic CSV/JSON artifacts and a content-hash manifest.

Rerunning an identical config reproduces byte-identical files for any worker
count: every trial draws from a substream indexed by (master seed, task
label, trial index), and outputs are written by a single thread in index
order.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .epidemic import (
    TransmissionParams,
    estimate,
    estimate_degree_biased,
    outbreak_histogram,
)
from .generators import GenSpec
from .graph import Graph, expansion_exact, expansion_heuristic
from .percolation import (
    degree_law_from_dict,
    giant_fraction,
    pivotal_bridge_report,
    survival_curve_analytic,
    survival_curve_empirical,
    survival_fixed_point_cm,
)
from .seeds import substream_seed


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


# numeric task fields and their types; validate_task checks each one given
# (a null zeta_ref means no reference, as when it is left out)
_NUMERIC_FIELDS = {"p": float, "lambda": float, "k": int, "q": int, "trials": int,
                   "vertex": int, "eps": float, "delta": float, "zeta_ref": float}


def _number(value, kind, what: str):
    """kind(value), or a ConfigError naming `what` when it does not convert."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {noun}, got {value!r}") from None


def _task_p(task: dict) -> float:
    if "lambda" in task:
        lam = float(task["lambda"])
        _require("p" not in task, "give p or lambda, not both")
        _require(lam >= 0, f"lambda={lam} must be >= 0")
        return lam / (lam + 1.0)
    _require("p" in task, f"task {task.get('type')} needs p (or lambda)")
    return float(task["p"])


def validate_task(task: dict, i: int) -> None:
    """Raise ConfigError unless `task` is a well-formed task; `i` is its
    index, used in the messages."""
    ttype = task.get("type")
    _require(ttype in TASKS, f"task {i}: unknown type {ttype!r}")
    for key, kind in _NUMERIC_FIELDS.items():
        if key in task and not (key == "zeta_ref" and task[key] is None):
            _number(task[key], kind, f"task {i}: {key}")
    if ttype in ("histogram", "giant", "bridges", "estimate"):
        p = _task_p(task)
        _require(0.0 <= p <= 1.0, f"task {i}: p={p} outside [0, 1]")
    if ttype in ("histogram", "giant", "bridges"):
        _require(int(task.get("trials", 0)) >= 1, f"task {i}: trials must be >= 1")
    if ttype == "histogram":
        _require(0 < float(task.get("delta", 0.05)) < 1, f"task {i}: delta must lie in (0, 1)")
        if task.get("zeta_ref") is not None:
            _require(0 <= float(task["zeta_ref"]) <= 1,
                     f"task {i}: zeta_ref must lie in [0, 1]")
    if ttype == "estimate":
        _require(int(task.get("k", 0)) >= 1, f"task {i}: k must be >= 1")
        _require(int(task.get("q", 0)) >= 1, f"task {i}: q must be >= 1")
    if ttype == "survival":
        grid = task.get("grid")
        _require(isinstance(grid, list) and grid, f"task {i}: needs a p grid")
        arr = np.asarray(grid, dtype=float)
        _require(((arr >= 0) & (arr <= 1)).all() and (np.diff(arr) >= 0).all(),
                 f"task {i}: grid must be sorted within [0, 1]")
        method = task.get("method", "analytic")
        _require(method in ("analytic", "empirical"),
                 f"task {i}: method must be analytic or empirical")
        if method == "analytic":
            _require("degree_law" in task, f"task {i}: analytic survival needs degree_law")
        else:
            _require(int(task.get("trials", 0)) >= 1, f"task {i}: trials must be >= 1")
    if ttype == "expansion":
        eps = float(task.get("eps", 0))
        _require(0 < eps < 0.5, f"task {i}: eps must lie in (0, 1/2)")
        _require(task.get("mode", "edge") in ("edge", "vertex"),
                 f"task {i}: mode must be edge or vertex")
    if ttype == "bridges":
        _require(int(task.get("k", 0)) >= 1, f"task {i}: k must be >= 1")
        _require(int(task.get("vertex", -1)) >= 0, f"task {i}: vertex must be >= 0")


@dataclass
class ExperimentConfig:
    """Parsed and fully validated experiment description."""

    gen: GenSpec
    tasks: list
    master_seed: int
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _require(isinstance(data, dict), "config must be a JSON object")
        _require("gen" in data, "config needs a 'gen' section")
        _require("tasks" in data and isinstance(data["tasks"], list) and data["tasks"],
                 "config needs a nonempty 'tasks' list")
        gen = GenSpec.from_json_dict(data["gen"])
        master_seed = _number(data.get("master_seed", 0), int, "master_seed")
        tasks = [dict(t) for t in data["tasks"]]
        for i, task in enumerate(tasks):
            validate_task(task, i)
        return cls(gen=gen, tasks=tasks, master_seed=master_seed, raw=data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def hash(self) -> str:
        return config_hash({"gen": self.gen.to_json_dict(),
                            "tasks": self.tasks,
                            "master_seed": self.master_seed})


# ---------------------------------------------------------------------------
# deterministic writers


def _provenance(cfg_hash: str, master_seed: int, extra: dict | None = None) -> dict:
    out = {"config_hash": cfg_hash, "master_seed": master_seed,
           "version": f"outbreak-local/{__version__}"}
    if extra:
        out.update(extra)
    return out


def _jsonable(x):
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.floating,)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, Fraction):
        return {"numerator": x.numerator, "denominator": x.denominator}
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temp file in the same directory and rename it over
    `path`, so a failed write never leaves a truncated artifact."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: Path, obj: dict) -> None:
    _write_atomic(path, json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path: Path, header: list, rows, provenance: dict) -> None:
    prov = " ".join(f"{k}={v}" for k, v in sorted(provenance.items()))
    lines = [f"# {prov}", ",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# task execution


# Each runner takes (graph, task, seed, threads) and returns (table, body):
# the CSV's (header, rows) and the JSON's fields besides provenance and task,
# either one None when the task writes no such file. Runners call library
# functions through their module-global names.


def _giant(g: Graph, task: dict, seed: int, threads: int):
    p = _task_p(task)
    res = giant_fraction(g, p, int(task["trials"]), seed, threads)
    return ((["trial", "giant_fraction"],
             [(t, repr(float(f))) for t, f in enumerate(res.fractions)]),
            {"p": p, "mean": res.mean, "std": res.std, "halfwidth": res.halfwidth})


def _estimate(g: Graph, task: dict, seed: int, threads: int):
    fn = estimate_degree_biased if task.get("degree_biased") else estimate
    rep = fn(g, int(task["k"]), int(task["q"]), TransmissionParams(p=_task_p(task)), seed,
             threads, count_seed=bool(task.get("count_seed", True)))
    return None, {"report": rep.to_dict()}


def _histogram(g: Graph, task: dict, seed: int, threads: int):
    p = _task_p(task)
    zeta_ref = task.get("zeta_ref")
    if zeta_ref is not None:
        zeta_ref = float(zeta_ref)
    elif "zeta_degree_law" in task:
        zeta_ref = survival_fixed_point_cm(degree_law_from_dict(task["zeta_degree_law"]), p)
    hist = outbreak_histogram(g, int(task["trials"]), TransmissionParams(p=p), seed,
                              delta=float(task.get("delta", 0.05)),
                              zeta_ref=zeta_ref, threads=threads)
    return ((["trial", "seed", "final_size", "relative_size"],
             [(t, int(s), int(fs), repr(float(r))) for t, (s, fs, r) in
              enumerate(zip(hist.seeds, hist.final_sizes, hist.relative_sizes))]),
            {"summary": hist.summary_dict()})


def _survival(g: Graph, task: dict, seed: int, threads: int):
    if task.get("method", "analytic") == "analytic":
        curve = survival_curve_analytic(degree_law_from_dict(task["degree_law"]), task["grid"])
    else:
        curve = survival_curve_empirical(g, task["grid"], int(task["trials"]), seed, threads)
    return ((["p", "zeta", "err", "method"],
             [(repr(p), repr(z), repr(e), curve.method) for p, z, e in curve.rows()]),
            None)


def _expansion(g: Graph, task: dict, seed: int, threads: int):
    eps = float(task["eps"])
    mode = task.get("mode", "edge")
    if task.get("exact"):
        rep = expansion_exact(g, eps, mode, cap=int(task.get("cap", 20)))
    else:
        rep = expansion_heuristic(g, eps, mode, budget=int(task.get("budget", 2000)), seed=seed)
    return None, {"report": rep.to_dict()}


def _bridges(g: Graph, task: dict, seed: int, threads: int):
    rep = pivotal_bridge_report(g, int(task["vertex"]), int(task["k"]), _task_p(task),
                                int(task["trials"]), seed)
    return None, {"report": rep.to_dict()}


TASKS = {
    "giant": _giant,
    "estimate": _estimate,
    "histogram": _histogram,
    "survival": _survival,
    "expansion": _expansion,
    "bridges": _bridges,
}


def run_task(g: Graph | None, task: dict, stem: str, seed: int, out_dir: Path,
             prov: dict, threads: int) -> list:
    """Run one validated task and write `<stem>.csv` and/or `<stem>.json`
    under `out_dir`, CSV first; returns the paths written."""
    table, body = TASKS[task["type"]](g, task, seed, threads)
    files = []
    if table is not None:
        files.append(out_dir / f"{stem}.csv")
        write_csv(files[-1], *table, prov)
    if body is not None:
        files.append(out_dir / f"{stem}.json")
        write_json(files[-1], {"provenance": prov, "task": task, **body})
    return files


def _failed(exc: Exception) -> dict:
    return {"status": "failed", "files": [],
            "error": {"code": type(exc).__name__, "message": str(exc)}}


def run_experiment(config: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Execute tasks in declared order; write artifacts plus manifest.json.

    A failing task is recorded in the manifest without destroying completed
    outputs. When the graph cannot be built, every task is recorded as
    failed with the build's error. Returns the manifest dict.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_hash = config.hash()
    manifest = {
        "config_hash": cfg_hash,
        "master_seed": config.master_seed,
        "version": f"outbreak-local/{__version__}",
        "gen": config.gen.to_json_dict(),
        "tasks": [],
    }
    try:
        graph = config.gen.build()
    except Exception as exc:  # recorded in the manifest; no task can run
        manifest["tasks"] = [{"index": i, "type": task["type"], **_failed(exc)}
                             for i, task in enumerate(config.tasks)]
        write_json(out_dir / "manifest.json", manifest)
        return manifest
    prov_base = {"gen_spec_hash": config.gen.content_hash(), "n": graph.n, "m": graph.m}
    if graph.meta.get("erased"):
        prov_base["erased"] = True
    for i, task in enumerate(config.tasks):
        task_seed = substream_seed(config.master_seed, f"task:{i}:{task['type']}")
        prov = _provenance(cfg_hash, config.master_seed, dict(prov_base, task_index=i))
        try:
            files = run_task(graph, task, f"{task['type']}_{i:02d}", task_seed, out_dir,
                             prov, threads)
            entry = {"status": "ok",
                     "files": [{"path": f.name, "sha256": file_sha256(f)} for f in files]}
        except Exception as exc:  # record and continue with remaining tasks
            entry = _failed(exc)
        manifest["tasks"].append({"index": i, "type": task["type"], **entry})
    write_json(out_dir / "manifest.json", manifest)
    return manifest
