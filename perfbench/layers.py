"""Per-layer metrics: public functions of each module timed on the workloads'
inputs, under one root span per workload.

The suite is the same in every traced run, whatever ``--workload`` names, so
every traced run reports every per-layer metric. ``MOVES`` names the
end-to-end metric and workload each per-layer metric should move.
"""

from __future__ import annotations

import statistics

import numpy as np

from outbreak_local import epidemic, graph, oracle, percolation
from outbreak_local.generators import GenSpec

import workloads as wl

# per-layer metric -> (end-to-end metric it should move, workload)
MOVES = {
    "generators.k_regular_s": ("setup_s", "local_estimate"),
    "generators.pa_s": ("setup_s", "local_estimate"),
    "generators.two_block_s": ("setup_s", "global_outbreak"),
    "generators.motif_overlay_s": ("setup_s", "local_estimate"),
    "generators.cm_attempts": ("setup_s", "all"),
    "generators.pa_proposals_per_step": ("setup_s", "local_estimate"),
    "graph.build_graph_s": ("setup_s", "all"),
    "graph.ball_bfs_ms.n1e4": ("queries_per_s, query_n_ratio", "local_estimate"),
    "graph.ball_bfs_ms.n1e5": ("queries_per_s, query_n_ratio", "local_estimate"),
    "graph.ball_bfs_ms.n1e6": ("queries_per_s, query_n_ratio", "local_estimate"),
    "graph.masked_spread_ms": ("trials_per_s", "global_outbreak"),
    "graph.components_ms": ("wall_s", "global_outbreak"),
    "graph.expansion_sweep_s": ("wall_s", "diagnostics"),
    "graph.expansion_moves_per_s": ("wall_s", "diagnostics"),
    "graph.boundary_ms": ("wall_s", "diagnostics"),
    "percolation.percolate_ms": ("trials_per_s, wall_s", "global_outbreak"),
    "percolation.giant_trial_ms": ("trials_per_s, wall_s", "global_outbreak"),
    "percolation.fixed_point_ms": ("wall_s", "diagnostics"),
    "percolation.bridges_trial_ms": ("wall_s", "diagnostics"),
    "epidemic.query_ms.n1e4": ("queries_per_s, query_n_ratio", "local_estimate"),
    "epidemic.query_ms.n1e5": ("queries_per_s, query_n_ratio", "local_estimate"),
    "epidemic.query_ms.n1e6": ("queries_per_s, query_n_ratio", "local_estimate"),
    "epidemic.query_ms.pa": ("queries_per_s", "local_estimate"),
    "epidemic.query_ms.pa_degree_biased": ("queries_per_s", "local_estimate"),
    "epidemic.query_ms.overlay": ("queries_per_s", "local_estimate"),
    "epidemic.degree_biased_acceptance": ("queries_per_s", "local_estimate"),
    "epidemic.run_sir_ms": ("trials_per_s", "global_outbreak"),
    "oracle.enumerate_s": ("wall_s", "diagnostics"),
    "oracle.enumerate_rational_s": ("wall_s", "diagnostics"),
    "oracle.masks_per_s": ("wall_s", "diagnostics"),
    "harness.overhead_s": ("wall_s", "all"),
    "harness.artifact_bytes": ("wall_s", "all"),
    "parallel.speedup_2t": ("none (end-to-end runs at 1 worker)", "global_outbreak"),
    "trace_overhead": ("none (traced minus untraced wall time)", "all"),
}

BFS_VERTICES = {10_000: 10, 100_000: 10, 1_000_000: 5}
SUITE_Q = {10_000: 20, 100_000: 20, 1_000_000: 5}
SAMPLES = 10
SPEEDUP_TRIALS = 200


def _timed(tracer, name, fn, *args, **kwargs):
    with tracer.span(name) as rec:
        out = fn(*args, **kwargs)
    return out, rec[2] - rec[1]


def _median_ms(tracer, name, fn, arg_list):
    return 1e3 * statistics.median(_timed(tracer, name, fn, *a)[1] for a in arg_list)


def _build_all(tracer, seed: int) -> dict:
    """Build every workload's graphs, each spec once."""
    graphs = {}
    for w in wl.WORKLOADS:
        specs = wl.gen_specs(wl.build_ops(w, seed))
        with tracer.span(f"suite.{w}.setup"):
            for key, gen in specs.items():
                if key not in graphs:
                    with tracer.span(f"suite.build.{gen['model']}", n=gen["params"].get("n")):
                        graphs[key] = GenSpec.from_json_dict(gen).build()
    return graphs


def _generator_span(tracer, root: int, model: str, fn_name: str, n=None) -> float:
    for i in tracer.find(root, f"suite.build.{model}"):
        if n is None or tracer.spans[i][4].get("n") == n:
            return tracer.duration(tracer.find(i, f"generators.{fn_name}")[0])
    raise LookupError(f"no {model} build in the suite")


def run_suite(tracer, seed: int) -> tuple[dict, dict, list]:
    """Per-layer metrics of the suite (all but the harness and trace ones),
    the graphs it built, keyed by spec, and the degree-biased acceptance rate
    of two identical estimates, which must be equal."""
    m = {}
    rng = np.random.default_rng(wl.derive(seed, "suite"))
    with tracer.span("suite"):
        root = len(tracer.spans) - 1
        graphs = _build_all(tracer, seed)
        cm = {n: graphs[wl.spec_key(wl.cm_gen(seed, n))]
              for n in (10_000, 20_000, 100_000, 1_000_000)}
        local_ops = {op.name: op for op in wl.build_ops("local_estimate", seed)}
        pa = graphs[wl.spec_key(local_ops["pa"].config["gen"])]
        overlay = graphs[wl.spec_key(local_ops["overlay_large"].config["gen"])]

        m["generators.k_regular_s"] = _generator_span(tracer, root, "k_regular", "gen_k_regular", 100_000)
        m["generators.pa_s"] = _generator_span(tracer, root, "pa", "gen_pa")
        m["generators.two_block_s"] = _generator_span(tracer, root, "two_block", "gen_two_block")
        m["generators.motif_overlay_s"] = _generator_span(tracer, root, "motif_overlay",
                                                          "gen_motif_overlay")
        m["generators.cm_attempts"] = sum(tracer.spans[i][4]["attempts"]
                                          for i in tracer.find(root, "generators.gen_cm_simple"))
        m["generators.pa_proposals_per_step"] = pa.meta["proposals"] / pa.meta["steps"]

        with tracer.span("suite.local_estimate"):
            g = cm[100_000]
            m["graph.build_graph_s"] = statistics.median(
                _timed(tracer, "suite.build_graph", graph.build_graph, g.edges, g.n)[1]
                for _ in range(3))
            for n, label in ((10_000, "n1e4"), (100_000, "n1e5"), (1_000_000, "n1e6")):
                vs = rng.integers(n, size=BFS_VERTICES[n])
                m[f"graph.ball_bfs_ms.{label}"] = _median_ms(
                    tracer, "suite.ball_bfs", lambda v, g=cm[n]: graph.bfs_distances(
                        g, [int(v)], limit=2 * wl.K_SWEEP), [(v,) for v in vs])
                q = SUITE_Q[n]
                _, dt = _timed(tracer, "suite.query", epidemic.estimate, cm[n], wl.K_SWEEP, q,
                               epidemic.TransmissionParams(0.9), wl.derive(seed, f"q{n}"))
                m[f"epidemic.query_ms.{label}"] = 1e3 * dt / q
            _, dt = _timed(tracer, "suite.query", epidemic.estimate, pa, 50, 20,
                           epidemic.TransmissionParams(0.3), wl.derive(seed, "qpa"))
            m["epidemic.query_ms.pa"] = 1e3 * dt / 20
            rep, dt = _timed(tracer, "suite.query", epidemic.estimate_degree_biased, pa, 50, 20,
                             epidemic.TransmissionParams(0.3), wl.derive(seed, "qpadb"))
            m["epidemic.query_ms.pa_degree_biased"] = 1e3 * dt / 20
            m["epidemic.degree_biased_acceptance"] = rep.acceptance_rate
            acceptance = [rep.acceptance_rate, epidemic.estimate_degree_biased(
                pa, 50, 20, epidemic.TransmissionParams(0.3),
                wl.derive(seed, "qpadb")).acceptance_rate]
            _, dt = _timed(tracer, "suite.query", epidemic.estimate, overlay, 50, 10,
                           epidemic.TransmissionParams(0.7), wl.derive(seed, "qov"))
            m["epidemic.query_ms.overlay"] = 1e3 * dt / 10

        with tracer.span("suite.global_outbreak"):
            g = cm[100_000]
            s = wl.derive(seed, "global")
            masks = [percolation.percolate(g, 0.7, s, t) for t in range(SAMPLES)]
            vs = [int(v) for v in rng.integers(g.n, size=SAMPLES)]
            m["percolation.percolate_ms"] = _median_ms(
                tracer, "suite.percolate", lambda t: percolation.percolate(g, 0.7, s, t),
                [(t,) for t in range(SAMPLES)])
            m["graph.components_ms"] = _median_ms(
                tracer, "suite.components", lambda k: graph.components(g, masks[k]),
                [(k,) for k in range(SAMPLES)])
            m["graph.masked_spread_ms"] = _median_ms(
                tracer, "suite.masked_spread",
                lambda k: graph.masked_spread(g, [vs[k]], masks[k].bits),
                [(k,) for k in range(SAMPLES)])
            m["epidemic.run_sir_ms"] = _median_ms(
                tracer, "suite.run_sir",
                lambda k: epidemic.run_sir(g, [vs[k]], epidemic.TransmissionParams(0.7),
                                           np.random.default_rng(s + k)),
                [(k,) for k in range(SAMPLES)])
            _, dt = _timed(tracer, "suite.giant", percolation.giant_fraction, g, 0.9, 5, s)
            m["percolation.giant_trial_ms"] = 1e3 * dt / 5

        with tracer.span("suite.diagnostics"):
            g = cm[20_000]
            s = wl.derive(seed, "diag")
            _, t0 = _timed(tracer, "suite.expansion", graph.expansion_heuristic, g, 0.25, "edge", 0, s)
            rep, tb = _timed(tracer, "suite.expansion", graph.expansion_heuristic, g, 0.25, "edge",
                             wl.EXPANSION_BUDGET, s)
            m["graph.expansion_sweep_s"] = t0
            m["graph.expansion_moves_per_s"] = wl.EXPANSION_BUDGET / max(tb - t0, 1e-9)
            m["graph.boundary_ms"] = _median_ms(
                tracer, "suite.boundary", lambda: graph.edge_boundary(g, rep.witness_set),
                [()] * 20)
            law = np.zeros(wl.POWER_LAW_KMAX + 1)
            for k, w in wl.power_law(2.5, 3, wl.POWER_LAW_KMAX).items():
                law[int(k)] = w
            m["percolation.fixed_point_ms"] = _median_ms(
                tracer, "suite.fixed_point",
                lambda: percolation.survival_fixed_point_cm(law, 0.3), [()] * 3)
            _, dt = _timed(tracer, "suite.bridges", percolation.pivotal_bridge_report,
                           cm[10_000], 0, 10, 0.9, 5, s)
            m["percolation.bridges_trial_ms"] = 1e3 * dt / 5
            ctx = wl.Context(seed, graphs)
            wl.prepare("diagnostics", ctx, [])
            tiny = ctx.oracle_graphs["m22"]
            _, m["oracle.enumerate_s"] = _timed(tracer, "suite.oracle",
                                                oracle.exact_component_distribution,
                                                tiny, 0, float(wl.ORACLE_P))
            _, m["oracle.enumerate_rational_s"] = _timed(tracer, "suite.oracle",
                                                         oracle.exact_component_distribution,
                                                         tiny, 0, wl.ORACLE_P)
            m["oracle.masks_per_s"] = 2 ** tiny.m / m["oracle.enumerate_s"]
    return m, graphs, acceptance


def parallel_speedup(tracer, graphs: dict, seed: int) -> float:
    """Histogram time at 1 thread over time at 2 threads; run untraced,
    because the tracer keeps a single stack of open spans."""
    g = graphs[wl.spec_key(wl.cm_gen(seed, 100_000))]
    times = {}
    for threads in (1, 2):
        _, times[threads] = _timed(tracer, f"suite.parallel.histogram_t{threads}",
                                   epidemic.outbreak_histogram, g, SPEEDUP_TRIALS,
                                   epidemic.TransmissionParams(0.7), wl.derive(seed, "speedup"),
                                   threads=threads)
    return times[1] / times[2]
