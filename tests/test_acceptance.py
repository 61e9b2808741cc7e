"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).

Criteria 3-8 are asserted from artifacts produced by the experiment harness,
which a session fixture runs once per worker count (1, 4, 8) with a shared
master seed; criterion 11 then compares artifact hashes across the three
runs. The whole module takes about three minutes on a 2-CPU machine, nearly
all of it in that fixture.
"""

import itertools
import json
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from outbreak_local import (
    ExperimentConfig,
    build_graph,
    components,
    edge_boundary,
    exact_component_distribution,
    exact_zeta_k,
    expansion_exact,
    gen_k_regular,
    percolate,
    pivotal_bridge_report,
    rng_for,
    run_experiment,
    run_sir,
    run_sir_with_mask,
    TransmissionParams,
    vertex_boundary,
)

from conftest import connected_graphs_up_to, random_gnp_edges

ZETA_07 = 316 / 343  # survival at p=0.7 for degree-3 branching
ZETA_09 = 728 / 729  # survival at p=0.9

CM_GEN = {"model": "k_regular", "params": {"d": 3, "n": 100_000}, "seed": 101}

CONFIGS = {
    "cm_09": {
        "gen": CM_GEN, "master_seed": 7,
        "tasks": [{"type": "giant", "p": 0.9, "trials": 5},
                  {"type": "estimate", "p": 0.9, "k": 50, "q": 2000}],
    },
    "cm_03": {
        "gen": CM_GEN, "master_seed": 7,
        "tasks": [{"type": "giant", "p": 0.3, "trials": 5},
                  {"type": "estimate", "p": 0.3, "k": 100, "q": 2000}],
    },
    "cm_two_atom": {
        "gen": CM_GEN, "master_seed": 7,
        "tasks": [{"type": "histogram", "p": 0.7, "trials": 2000, "delta": 0.05,
                   "zeta_ref": ZETA_07}],
    },
    "two_block": {
        "gen": {"model": "two_block", "params": {"d": 3, "n": 100_000}, "seed": 103},
        "master_seed": 7,
        "tasks": [{"type": "histogram", "p": 0.7, "trials": 2000, "delta": 0.05,
                   "zeta_ref": ZETA_07}],
    },
    "pa": {
        "gen": {"model": "pa", "params": {"m": 2, "n": 100_000}, "seed": 102},
        "master_seed": 7,
        "tasks": [{"type": "giant", "p": 0.3, "trials": 5},
                  {"type": "estimate", "p": 0.3, "k": 50, "q": 2000}],
    },
    "overlay_large": {
        "gen": {"model": "motif_overlay", "params": {
            "external": {"model": "k_regular", "params": {"d": 3, "n": 100_000},
                         "seed": 105},
            "motifs": {"3": [{"edges": [[0, 1], [1, 2], [0, 2]],
                              "ext": [1, 1, 1], "p": 1.0}]},
        }, "seed": 106},
        "master_seed": 7,
        "tasks": [{"type": "giant", "p": 0.7, "trials": 5},
                  {"type": "estimate", "p": 0.7, "k": 50, "q": 2000}],
    },
    "overlay_small": {
        "gen": {"model": "motif_overlay", "params": {
            "external": {"model": "k_regular", "params": {"d": 3, "n": 10_000},
                         "seed": 104},
            "motifs": {"3": [{"edges": [[0, 1], [1, 2], [0, 2]],
                              "ext": [1, 1, 1], "p": 1.0}]},
        }, "seed": 106},
        "master_seed": 7,
        "tasks": [{"type": "giant", "p": 0.7, "trials": 5}],
    },
}

WORKER_COUNTS = (1, 4, 8)


@contextmanager
def criterion(num, name):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({time.time() - t0:.1f}s)")


@pytest.fixture(scope="session")
def harness_runs(tmp_path_factory):
    """{(config, workers): (manifest, out_dir, elapsed_seconds)}."""
    runs = {}
    for name, data in CONFIGS.items():
        cfg = ExperimentConfig.from_dict(data)
        for workers in WORKER_COUNTS:
            out = tmp_path_factory.mktemp(f"{name}_w{workers}")
            t0 = time.time()
            manifest = run_experiment(cfg, out, threads=workers)
            runs[(name, workers)] = (manifest, out, time.time() - t0)
            assert all(t["status"] == "ok" for t in manifest["tasks"]), (name, manifest)
    return runs


def read_json(out_dir, stem):
    return json.loads((out_dir / f"{stem}.json").read_text())


def giant_mean(out_dir, index=0):
    return read_json(out_dir, f"giant_{index:02d}")["mean"]


def estimate_report(out_dir, index=1):
    return read_json(out_dir, f"estimate_{index:02d}")["report"]


def histogram_relative_sizes(out_dir, index=0):
    lines = (out_dir / f"histogram_{index:02d}.csv").read_text().splitlines()
    return np.array([float(line.split(",")[3]) for line in lines[2:]])


def test_criterion_01_coupling_exact_on_all_tiny_graphs():
    with criterion(1, "coupling exactness, exhaustive on <=4 vertices"):
        graphs = connected_graphs_up_to(4)
        assert len(graphs) == 10  # 1 + 1 + 2 + 6 non-isomorphic connected
        t0 = time.time()
        checked = 0
        for n, edges in graphs:
            g = build_graph(list(edges), n)
            for mask_int in range(1 << g.m):
                bits = np.array([(mask_int >> e) & 1 for e in range(g.m)], bool)
                cs = components(g, bits)
                for seed_set in range(1, 1 << n):
                    seeds = [v for v in range(n) if (seed_set >> v) & 1]
                    rec = run_sir_with_mask(g, seeds, bits)
                    infected = set(np.concatenate(rec.generations).tolist())
                    expected = {v for v in range(n)
                                if cs.labels[v] in cs.labels[seeds]}
                    assert infected == expected
                    assert rec.final_size == cs.union_size(seeds)
                    checked += 1
        elapsed = time.time() - t0
        assert checked > 2000
        assert elapsed < 1.0, f"{elapsed:.2f}s for {checked} runs"


def test_criterion_02_distributional_coupling_k3():
    with criterion(2, "K3 outbreak law vs enumeration oracle"):
        t0 = time.time()
        g = build_graph([(0, 1), (0, 2), (1, 2)], 3)
        law = exact_component_distribution(g, 0, Fraction(1, 2))
        assert law.as_dict() == {1: Fraction(1, 4), 2: Fraction(1, 4), 3: Fraction(1, 2)}
        params = TransmissionParams(p=0.5)
        counts = {1: 0, 2: 0, 3: 0}
        trials = 100_000
        for t in range(trials):
            counts[run_sir(g, [0], params, rng_for(2024, "k3", t)).final_size] += 1
        emp = {k: v / trials for k, v in counts.items()}
        assert law.tv_distance(emp) < 0.01
        assert time.time() - t0 < 5.0


def test_criterion_03_supercritical_locality(harness_runs):
    with criterion(3, "3-regular CM p=0.9: giant and estimator vs fixed point"):
        manifest, out, elapsed = harness_runs[("cm_09", 1)]
        assert abs(giant_mean(out) - ZETA_09) <= 0.01
        assert abs(estimate_report(out)["n_tilde"] - ZETA_09) <= 0.03
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_04_subcritical(harness_runs):
    with criterion(4, "3-regular CM p=0.3: everything dies out"):
        manifest, out, elapsed = harness_runs[("cm_03", 1)]
        assert giant_mean(out) <= 0.01
        assert estimate_report(out)["n_tilde"] <= 0.02
        assert elapsed < 60.0, f"{elapsed:.1f}s"


def test_criterion_05_two_atom_law(harness_runs):
    with criterion(5, "3-regular CM p=0.7: two-atom outbreak sizes"):
        manifest, out, elapsed = harness_runs[("cm_two_atom", 1)]
        bands = read_json(out, "histogram_00")["summary"]["band_masses"]
        assert bands["middle"] <= 0.02
        assert abs(bands["upper"] - 0.921) <= 0.03
        assert abs(bands["low"] - 0.079) <= 0.03
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_criterion_06_two_block_counterexample(harness_runs):
    with criterion(6, "two-block: extra atom near zeta/2"):
        manifest, out, elapsed = harness_runs[("two_block", 1)]
        rel = histogram_relative_sizes(out)
        half_atom_mass = float(np.mean((rel >= 0.41) & (rel <= 0.51)))
        assert half_atom_mass >= 0.2
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_criterion_07_pa_self_consistency(harness_runs):
    with criterion(7, "preferential attachment p=0.3: estimator vs giant"):
        manifest, out, elapsed = harness_runs[("pa", 1)]
        assert abs(estimate_report(out)["n_tilde"] - giant_mean(out)) <= 0.03
        assert elapsed < 120.0, f"{elapsed:.1f}s"


def test_criterion_08_motif_overlay(harness_runs):
    with criterion(8, "triangle overlay: giant locality and estimator"):
        m_small, out_small, t_small = harness_runs[("overlay_small", 1)]
        m_large, out_large, t_large = harness_runs[("overlay_large", 1)]
        g_small = giant_mean(out_small)
        g_large = giant_mean(out_large)
        assert abs(g_small - g_large) <= 0.02
        assert abs(estimate_report(out_large)["n_tilde"] - g_large) <= 0.03
        assert t_small + t_large < 180.0, f"{t_small + t_large:.1f}s"


def test_criterion_09_pivotal_identity():
    with criterion(9, "pivotal rate matches the reach-probability slope"):
        t0 = time.time()
        g = build_graph([(0, 1), (1, 2)], 3)
        assert exact_zeta_k(g, 0, 2, Fraction(1, 2)) == Fraction(1, 4)
        for p in (0.3, 0.7):
            rep = pivotal_bridge_report(g, 0, 2, p, 100_000, seed=47)
            se = rep.bridge_count_halfwidth / 1.96 / p
            assert abs(rep.pivotal_rate - 2 * p) <= 3 * se, (p, rep.pivotal_rate)
            assert abs(float(exact_zeta_k(g, 0, 2, p)) - p * p) < 1e-12
        assert time.time() - t0 < 10.0


def test_criterion_10_expansion_oracles():
    with criterion(10, "exact expansion values and boundary inequality"):
        t0 = time.time()
        c4 = build_graph([(0, 1), (1, 2), (2, 3), (0, 3)], 4)
        assert expansion_exact(c4, 0.25, "edge").value_fraction == Fraction(1)
        k4 = build_graph(list(itertools.combinations(range(4), 2)), 4)
        # subset enumeration gives 2 at any pair (the spec's inline "3" is a
        # miscount; enumeration is the stated authority)
        assert expansion_exact(k4, 0.25, "edge").value_fraction == Fraction(2)
        jt = build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 6)
        assert expansion_exact(jt, 1 / 3, "edge").value_fraction == Fraction(1, 3)

        rng = np.random.default_rng(4747)
        for _ in range(10_000):
            n = int(rng.integers(2, 13))
            g = build_graph(random_gnp_edges(rng, n, 0.4), n)
            a = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            e = edge_boundary(g, a)
            d_out = vertex_boundary(g, a)
            dmax = g.max_degree()
            assert d_out <= e <= max(dmax, 1) * d_out or (e == 0 and d_out == 0)
        assert time.time() - t0 < 10.0


def test_criterion_11_determinism_across_worker_counts(harness_runs):
    with criterion(11, "byte-identical artifacts under 1, 4, and 8 workers"):
        for name in CONFIGS:
            reference = None
            for workers in WORKER_COUNTS:
                manifest, out, _ = harness_runs[(name, workers)]
                hashes = [(t["type"], [(f["path"], f["sha256"]) for f in t["files"]])
                          for t in manifest["tasks"]]
                if reference is None:
                    reference = hashes
                else:
                    assert hashes == reference, (name, workers)


def test_invariant_escape_probability_at_scale(harness_runs):
    # converging-giant consequence at n=1e5: a vertex outside the giant has a
    # small component, with vanishing tail mass in the size cutoff
    g = gen_k_regular(3, 100_000, 101)
    grid = (25, 50, 100, 200)
    masses = np.zeros(len(grid))
    trials = 60
    for t in range(trials):
        cs = components(g, percolate(g, 0.7, 77, t))
        per_vertex = cs.label_sizes[cs.labels]
        outside = cs.labels != int(np.argmax(cs.label_sizes))
        for i, k in enumerate(grid):
            masses[i] += float(np.mean(outside & (per_vertex >= k)))
    masses /= trials
    assert (np.diff(masses) <= 1e-12).all()
    assert masses[-1] < 0.01
