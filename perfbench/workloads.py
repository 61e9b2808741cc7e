"""The three benchmark workloads, their inputs and their correctness checks.

Every input is derived from the benchmark seed. Where a workload repeats an
acceptance config, the config is taken from ``CONFIGS`` in
``tests/test_acceptance.py`` and only its seeds and its sample sizes (``q``,
histogram ``trials``) are replaced, so the benchmark and the tests cannot
drift apart. The sample sizes are cut so that a run fits its time budget at
the seed commit's query cost; the statistical checks allow for the larger
sampling error (see ``consistent``).

A workload is a list of operations run in a closed loop by one caller: an
operation is one ``run_experiment`` call at 1 worker (or, on
``diagnostics``, one direct oracle call), and the next starts only after the
previous one returns. Each operation has a check against a known answer.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import sparse, stats
from scipy.sparse import csgraph

from outbreak_local import graph as ol_graph
from outbreak_local import oracle as ol_oracle
from outbreak_local.generators import GenSpec

from test_acceptance import CONFIGS, ZETA_07, ZETA_09

WORKLOADS = ("local_estimate", "global_outbreak", "diagnostics")

Q_SCALING = 20      # queries per estimate at each n of the 3-regular n sweep
Q_SUBCRITICAL = 200
Q_PA = 200
Q_OVERLAY = 50
HISTOGRAM_TRIALS = 500
K_SWEEP = 50        # k of the n sweep; the per-query ball BFS has radius 2k
REF_MASKS = 20      # percolation masks behind each estimator reference value
EXPANSION_BUDGET = 2000  # the harness default; local moves, not the eigensolver, dominate
POWER_LAW_KMAX = 100_000
ORACLE_P = Fraction(3, 8)  # exact in binary, so float and Fraction runs must agree


def derive(seed: int, label: str) -> int:
    """31-bit seed for `label`, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def reseed(config: dict, seed: int) -> dict:
    """Copy of `config` with every ``seed``/``master_seed`` value v replaced by
    derive(seed, f"{key}:{v}"), so configs that shared a seed still do."""
    def walk(obj):
        if isinstance(obj, dict):
            return {k: (derive(seed, f"{k}:{v}") if k in ("seed", "master_seed")
                        and isinstance(v, int) else walk(v)) for k, v in obj.items()}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        return obj
    return walk(copy.deepcopy(config))


def spec_key(gen: dict) -> str:
    return GenSpec.from_json_dict(gen).content_hash()


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    """One closed-loop operation and the check of its output."""

    name: str
    check: Callable  # (Op, OpResult, Context) -> list of failure messages
    config: dict | None = None     # run through run_experiment
    direct: Callable | None = None  # (Context) -> result; oracle calls
    queries: int = 0                # estimator queries answered
    sir_trials: int = 0             # whole-graph SIR trials (histograms)


@dataclass
class OpResult:
    manifest: dict | None = None
    out_dir: Path | None = None
    value: object = None


@dataclass
class Context:
    """Inputs shared by every round of one run."""

    seed: int
    graphs: dict                    # spec key -> Graph
    refs: dict = field(default_factory=dict)
    oracle_graphs: dict = field(default_factory=dict)


def _estimate_config(base: str, seed: int, *, n: int | None = None, q: int,
                     keep_giant: bool = True, degree_biased: bool = False) -> dict:
    cfg = reseed(CONFIGS[base], seed)
    if n is not None:
        cfg["gen"]["params"]["n"] = n
    tasks = []
    for task in cfg["tasks"]:
        if task["type"] == "giant" and not keep_giant:
            continue
        if task["type"] == "estimate":
            task["q"] = q
            if degree_biased:
                task["degree_biased"] = True
        tasks.append(task)
    cfg["tasks"] = tasks
    return cfg


def _histogram_config(base: str, seed: int) -> dict:
    cfg = reseed(CONFIGS[base], seed)
    for task in cfg["tasks"]:
        task["trials"] = HISTOGRAM_TRIALS
    return cfg


def cm_gen(seed: int, n: int) -> dict:
    gen = reseed(CONFIGS["cm_09"], seed)["gen"]
    gen["params"]["n"] = n
    return gen


def build_ops(workload: str, seed: int) -> list[Op]:
    if workload == "local_estimate":
        return [
            Op("cm_n1e4", _check_estimates, _estimate_config(
                "cm_09", seed, n=10_000, q=Q_SCALING, keep_giant=False), queries=Q_SCALING),
            Op("cm_09", _check_estimates, _estimate_config(
                "cm_09", seed, q=Q_SCALING), queries=Q_SCALING),
            Op("cm_n1e6", _check_estimates, _estimate_config(
                "cm_09", seed, n=1_000_000, q=Q_SCALING, keep_giant=False), queries=Q_SCALING),
            Op("cm_03", _check_estimates, _estimate_config(
                "cm_03", seed, q=Q_SUBCRITICAL), queries=Q_SUBCRITICAL),
            Op("pa", _check_estimates, _estimate_config("pa", seed, q=Q_PA), queries=Q_PA),
            Op("pa_degree_biased", _check_estimates, _estimate_config(
                "pa", seed, q=Q_PA, degree_biased=True), queries=Q_PA),
            Op("overlay_large", _check_estimates, _estimate_config(
                "overlay_large", seed, q=Q_OVERLAY), queries=Q_OVERLAY),
        ]
    if workload == "global_outbreak":
        two_atom, two_block = (_histogram_config(name, seed)
                               for name in ("cm_two_atom", "two_block"))
        mix = {"gen": two_atom["gen"], "master_seed": derive(seed, "giant_survival"),
               "tasks": [{"type": "giant", "p": 0.9, "trials": 20},
                         {"type": "survival", "method": "empirical",
                          "grid": [0.3, 0.5, 0.7, 0.9], "trials": 10}]}
        trials = lambda c: sum(t["trials"] for t in c["tasks"] if t["type"] == "histogram")
        return [
            Op("cm_two_atom", _check_two_atom, two_atom, sir_trials=trials(two_atom)),
            Op("two_block", _check_two_block, two_block, sir_trials=trials(two_block)),
            Op("giant_survival", _check_giant_survival, mix),
        ]
    if workload == "diagnostics":
        expansion = {"gen": cm_gen(seed, 20_000), "master_seed": derive(seed, "expansion"),
                     "tasks": [{"type": "expansion", "eps": 0.25, "mode": mode,
                                "budget": EXPANSION_BUDGET} for mode in ("edge", "vertex")]}
        small = cm_gen(seed, 10_000)
        bridges = {"gen": small, "master_seed": derive(seed, "bridges"),
                   "tasks": [{"type": "bridges", "vertex": 0, "k": 10, "p": 0.9,
                              "trials": 20}]}
        survival = {"gen": small, "master_seed": derive(seed, "survival"),
                    "tasks": [{"type": "survival", "method": "analytic",
                               "degree_law": power_law(2.5, 3, POWER_LAW_KMAX),
                               "grid": [0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]},
                              {"type": "survival", "method": "analytic",
                               "degree_law": {"3": 1.0}, "grid": [0.7, 0.9]}]}
        return [
            Op("expansion", _check_expansion, expansion),
            Op("bridges", _check_bridges, bridges),
            Op("survival_analytic", _check_survival_analytic, survival),
            Op("oracle_k3", _check_k3, direct=_oracle_k3),
            Op("oracle_law_m22", _check_oracle_law, direct=_oracle_law),
            Op("oracle_zeta_m20", _check_oracle_zeta, direct=_oracle_zeta),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def power_law(tau: float, kmin: int, kmax: int) -> dict:
    ks = np.arange(kmin, kmax + 1, dtype=np.float64)
    w = ks ** -tau
    w /= w.sum()
    return {str(k): float(x) for k, x in zip(range(kmin, kmax + 1), w)}


def gen_specs(ops: list[Op]) -> dict:
    """Unique generation specs of the operations, keyed by content hash."""
    out = {}
    for op in ops:
        if op.config is not None:
            out.setdefault(spec_key(op.config["gen"]), op.config["gen"])
    return out


# ---------------------------------------------------------------------------
# known answers computed once per run by paths independent of the program


def _component_reference(g, p: float, k: int, seed: int) -> dict:
    """Over REF_MASKS masks drawn here: P(|C(v)| >= k) for uniform and for
    degree-biased v, and the giant fraction, with their standard errors.
    P(|C(v)| >= k) is exactly what one local query estimates."""
    rng = np.random.default_rng(seed)
    deg = np.bincount(g.edges.ravel(), minlength=g.n).astype(np.float64)
    rows = []
    for _ in range(REF_MASKS):
        e = g.edges[rng.random(g.m) < p]
        adj = sparse.coo_matrix((np.ones(len(e), np.int8), (e[:, 0], e[:, 1])), shape=(g.n, g.n))
        _, labels = csgraph.connected_components(adj, directed=False)
        sizes = np.bincount(labels)
        big = sizes[labels] >= k
        rows.append((big.mean(), (deg * big).sum() / deg.sum(), sizes.max() / g.n))
    a = np.array(rows)
    sd = a.std(axis=0, ddof=1) / math.sqrt(REF_MASKS)
    return {"uniform": (a[:, 0].mean(), sd[0]), "degree_biased": (a[:, 1].mean(), sd[1]),
            "giant": (a[:, 2].mean(), sd[2])}


def prepare(workload: str, ctx: Context, ops: list[Op]) -> None:
    """Compute the run's reference values (outside every timed region)."""
    for op in ops:
        if op.name in ("pa", "overlay_large"):
            est = next(t for t in op.config["tasks"] if t["type"] == "estimate")
            g = ctx.graphs[spec_key(op.config["gen"])]
            ctx.refs[op.name] = _component_reference(
                g, est["p"], est["k"], derive(ctx.seed, f"ref:{op.name}"))
    if workload == "diagnostics":
        rng = random.Random(derive(ctx.seed, "oracle"))
        ctx.oracle_graphs = {"k3": ol_graph.build_graph([(0, 1), (0, 2), (1, 2)], 3),
                             "m22": _tiny_graph(rng, 12, 22), "m20": _tiny_graph(rng, 11, 20)}


def _tiny_graph(rng: random.Random, n: int, m: int):
    """Connected graph: a random spanning tree plus random extra edges."""
    edges = {tuple(sorted((v, rng.randrange(v)))) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    edges |= set(rng.sample(pairs, m - len(edges)))
    return ol_graph.build_graph(sorted(edges), n)


# ---------------------------------------------------------------------------
# direct oracle operations


def _oracle_k3(ctx: Context):
    return ol_oracle.exact_component_distribution(ctx.oracle_graphs["k3"], 0, Fraction(1, 2))


def _oracle_law(ctx: Context):
    g = ctx.oracle_graphs["m22"]
    return (ol_oracle.exact_component_distribution(g, 0, float(ORACLE_P)),
            ol_oracle.exact_component_distribution(g, 0, ORACLE_P))


def _oracle_zeta(ctx: Context):
    g = ctx.oracle_graphs["m20"]
    return (ol_oracle.exact_zeta_k(g, 0, 2, float(ORACLE_P)),
            ol_oracle.exact_zeta_k(g, 0, 2, ORACLE_P),
            ol_oracle.exact_component_distribution(g, 0, ORACLE_P))


def result_digest_items(op: Op, res: OpResult) -> list:
    """What the determinism digest covers for one operation."""
    if res.manifest is not None:
        return [(t["type"], t["status"], [(f["path"], f["sha256"]) for f in t["files"]])
                for t in res.manifest["tasks"]]
    laws = res.value if isinstance(res.value, tuple) else (res.value,)
    return [repr(x.as_dict() if hasattr(x, "as_dict") else x) for x in laws]


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages


def _json(res: OpResult, stem: str) -> dict:
    return json.loads((res.out_dir / f"{stem}.json").read_text())


def _csv_rows(res: OpResult, stem: str) -> list:
    lines = (res.out_dir / f"{stem}.csv").read_text().splitlines()
    return [line.split(",") for line in lines[2:]]


def _stems(res: OpResult, ttype: str) -> list:
    return [f"{ttype}_{t['index']:02d}" for t in res.manifest["tasks"] if t["type"] == ttype]


def consistent(n_tilde: float, q: int, ref: float, ref_sd: float = 0.0,
               tol: float = 0.03) -> bool:
    """|n_tilde - ref| <= tol, or n_tilde*q successes out of q are not
    significantly different (two-sided p >= 1e-6) from Binomial(q, ref') for
    some ref' within 4 standard errors of the reference. The acceptance tests'
    fixed 0.03 suits their q=2000 and 2000 trials on one fixed seed; at the
    benchmark's sizes and varying seeds it alone would fail by sampling error."""
    if abs(n_tilde - ref) <= tol:
        return True
    lo, hi = max(0.0, ref - 4 * ref_sd), min(1.0, ref + 4 * ref_sd)
    pi = min(max(n_tilde, lo), hi)
    s = round(n_tilde * q)
    return 2 * min(stats.binom.cdf(s, q, pi), stats.binom.sf(s - 1, q, pi)) >= 1e-6


def _check_estimates(op: Op, res: OpResult, ctx: Context) -> list:
    fails = []
    giant = [_json(res, s)["mean"] for s in _stems(res, "giant")]
    for stem in _stems(res, "estimate"):
        doc = _json(res, stem)
        rep, p = doc["report"], doc["task"]["p"]
        n_tilde, q = rep["n_tilde"], rep["q"]
        if op.name in ("pa", "pa_degree_biased", "overlay_large"):
            refs = ctx.refs["overlay_large" if op.name == "overlay_large" else "pa"]
            ref, sd = refs["degree_biased" if doc["task"].get("degree_biased") else "uniform"]
            if not consistent(n_tilde, q, ref, sd):
                fails.append(f"{stem}: n_tilde={n_tilde} vs P(|C|>=k)={ref:.4f}")
            g_ref, g_sd = refs["giant"]
            if giant and abs(giant[0] - g_ref) > 0.03:
                fails.append(f"giant mean {giant[0]} vs reference {g_ref:.4f}")
        elif p == 0.9:
            if not consistent(n_tilde, q, ZETA_09):
                fails.append(f"{stem}: n_tilde={n_tilde} vs 728/729")
            if giant and abs(giant[0] - ZETA_09) > 0.01:
                fails.append(f"giant mean {giant[0]} vs 728/729")
        else:  # subcritical
            if n_tilde > 0.02:
                fails.append(f"{stem}: n_tilde={n_tilde} > 0.02 at p={p}")
            if giant and giant[0] > 0.01:
                fails.append(f"giant mean {giant[0]} > 0.01 at p={p}")
    return fails


def _check_two_atom(op: Op, res: OpResult, ctx: Context) -> list:
    summary = _json(res, "histogram_00")["summary"]
    bands, trials = summary["band_masses"], summary["trials"]
    ok = (bands["middle"] <= 0.02 and consistent(bands["upper"], trials, 0.921)
          and consistent(bands["low"], trials, 0.079))
    return [] if ok else [f"band masses {bands} fail acceptance criterion 5"]


def _check_two_block(op: Op, res: OpResult, ctx: Context) -> list:
    rel = np.array([float(r[3]) for r in _csv_rows(res, "histogram_00")])
    mass = float(np.mean((rel >= 0.41) & (rel <= 0.51)))
    return [] if mass >= 0.2 else [f"half-atom mass {mass} < 0.2 (criterion 6)"]


def _check_giant_survival(op: Op, res: OpResult, ctx: Context) -> list:
    fails = []
    mean = _json(res, "giant_00")["mean"]
    if abs(mean - ZETA_09) > 0.01:
        fails.append(f"giant mean {mean} vs 728/729")
    zeta = {float(r[0]): float(r[1]) for r in _csv_rows(res, "survival_01")}
    if any(b < a for a, b in zip(zeta.values(), list(zeta.values())[1:])):
        fails.append(f"empirical survival not monotone in p: {zeta}")
    if not (zeta[0.3] <= 0.01 and abs(zeta[0.7] - ZETA_07) <= 0.02
            and abs(zeta[0.9] - ZETA_09) <= 0.01):
        fails.append(f"empirical survival off the fixed point: {zeta}")
    return fails


def _boundary(g, members: np.ndarray, mode: str) -> int:
    inside = np.zeros(g.n, dtype=bool)
    inside[members] = True
    a, b = inside[g.edges[:, 0]], inside[g.edges[:, 1]]
    if mode == "edge":
        return int(np.count_nonzero(a != b))
    outside = np.concatenate([g.edges[a & ~b, 1], g.edges[b & ~a, 0]])
    return int(np.unique(outside).size)


def _check_expansion(op: Op, res: OpResult, ctx: Context) -> list:
    fails = []
    g = ctx.graphs[spec_key(op.config["gen"])]
    for stem in _stems(res, "expansion"):
        doc = _json(res, stem)
        rep, eps = doc["report"], doc["task"]["eps"]
        members = np.asarray(rep["witness_set"], dtype=np.int64)
        lo, hi = max(1, math.ceil(Fraction(eps) * g.n)), g.n // 2
        value = Fraction(rep["value_fraction"]["numerator"], rep["value_fraction"]["denominator"])
        if not (lo <= members.size <= hi and np.unique(members).size == members.size):
            fails.append(f"{stem}: witness size {members.size} outside [{lo}, {hi}]")
        elif Fraction(_boundary(g, members, rep["mode"]), members.size) != value:
            fails.append(f"{stem}: recomputed boundary ratio differs from {value}")
    return fails


def _check_bridges(op: Op, res: OpResult, ctx: Context) -> list:
    rep = _json(res, "bridges_00")["report"]
    ok = (rep["pivotal_rate"] == rep["bridge_count_mean"] / rep["p"]
          and 0.0 <= rep["zeta_k_hat"] <= 1.0 and rep["trials"] == 20)
    return [] if ok else [f"inconsistent bridge report {rep}"]


def _check_survival_analytic(op: Op, res: OpResult, ctx: Context) -> list:
    fails = []
    law = [float(r[1]) for r in _csv_rows(res, "survival_00")]
    if not (all(0.0 <= z <= 1.0 for z in law) and law == sorted(law) and abs(law[-1] - 1) < 1e-9):
        fails.append(f"power-law survival curve not a monotone curve ending at 1: {law}")
    reg = [float(r[1]) for r in _csv_rows(res, "survival_01")]
    if abs(reg[0] - ZETA_07) > 1e-9 or abs(reg[1] - ZETA_09) > 1e-9:
        fails.append(f"3-regular fixed point {reg} vs 316/343, 728/729")
    return fails


def _check_k3(op: Op, res: OpResult, ctx: Context) -> list:
    want = {1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)}
    got = res.value.as_dict()
    return [] if got == want else [f"K3 law {got} != {want}"]


def _check_oracle_law(op: Op, res: OpResult, ctx: Context) -> list:
    flt, rat = res.value
    fails = []
    if rat.total() != 1:
        fails.append(f"rational law sums to {rat.total()}")
    if flt.support != rat.support or any(abs(a - float(b)) > 1e-12 for a, b in
                                         zip(flt.probabilities, rat.probabilities)):
        fails.append("float and Fraction laws differ")
    return fails


def _check_oracle_zeta(op: Op, res: OpResult, ctx: Context) -> list:
    flt, rat, law = res.value
    tail = sum((pr for size, pr in law.as_dict().items() if size >= 3), Fraction(0))
    fails = []
    if abs(flt - float(rat)) > 1e-12:
        fails.append(f"float zeta_k {flt} != Fraction {rat}")
    if not 0 < rat <= tail:  # reaching distance 2 needs 3 vertices in C(0)
        fails.append(f"zeta_2 {rat} not in (0, P(|C| >= 3) = {tail}]")
    return fails
