import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from outbreak_local import (
    TransmissionParams,
    adaptive_estimate,
    build_graph,
    components,
    estimate,
    estimate_degree_biased,
    exact_component_distribution,
    gen_k_regular,
    gen_motif_overlay,
    gen_pa,
    gen_two_block,
    lambda_to_p,
    local_query,
    local_query_with_mask,
    outbreak_histogram,
    rng_for,
    run_sir,
    run_sir_with_mask,
    survival_fixed_point_cm,
)
from outbreak_local import epidemic
from outbreak_local.epidemic import _draw_query_vertex, _overlap_pairs
from outbreak_local.generators import Motif, MotifDistribution
from outbreak_local.graph import _dedup_unvisited, _gather_neighbors, bfs_distances

from conftest import random_gnp_edges

ZETA_07 = 316 / 343


def k3():
    return build_graph([(0, 1), (0, 2), (1, 2)], 3)


class TestTransmission:
    def test_lambda_to_p(self):
        assert lambda_to_p(1.0) == 0.5
        assert lambda_to_p(0.0) == 0.0
        assert lambda_to_p(3.0) == 0.75
        with pytest.raises(ValueError):
            lambda_to_p(-0.5)

    def test_params(self):
        params = TransmissionParams.from_rate(1.0)
        assert params.p == 0.5 and params.lam == 1.0
        with pytest.raises(ValueError):
            TransmissionParams(p=0.4, lam=1.0)
        with pytest.raises(ValueError):
            TransmissionParams(p=1.5)


class TestRunSir:
    def test_no_transmission(self):
        rec = run_sir(k3(), [0], TransmissionParams(p=0.0), np.random.default_rng(0))
        assert rec.final_size == 1

    def test_full_transmission(self):
        g = gen_k_regular(3, 50, 1)
        rec = run_sir(g, [7], TransmissionParams(p=1.0), np.random.default_rng(0))
        assert rec.final_size == 50 and rec.relative_size == 1.0

    def test_mask_all_closed(self):
        rec = run_sir_with_mask(k3(), [0, 2], np.zeros(3, bool))
        assert rec.final_size == 2

    def test_two_block_respects_closed_bridge(self):
        g = gen_two_block(3, 20, 3)
        bits = np.ones(g.m, bool)
        bridge = int(np.flatnonzero((g.edges[:, 0] == 0) & (g.edges[:, 1] == 10))[0])
        bits[bridge] = False
        rec = run_sir_with_mask(g, [4], bits)
        infected = np.concatenate(rec.generations)
        assert rec.final_size == 10
        assert (infected < 10).all()

    def test_generations_are_bfs_layers(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
        rec = run_sir_with_mask(g, [0], np.ones(3, bool))
        assert [layer.tolist() for layer in rec.generations] == [[0], [1], [2], [3]]

    def test_empty_seed_rejected(self):
        with pytest.raises(Exception):
            run_sir_with_mask(k3(), [], np.ones(3, bool))

    def test_matches_components_union_exhaustively(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = build_graph(random_gnp_edges(rng, 4, 0.6), 4)
            for mask_int in range(1 << g.m):
                bits = np.array([(mask_int >> e) & 1 for e in range(g.m)], bool)
                cs = components(g, bits)
                for seed_set in range(1, 1 << g.n):
                    seeds = [v for v in range(g.n) if (seed_set >> v) & 1]
                    rec = run_sir_with_mask(g, seeds, bits)
                    assert rec.final_size == cs.union_size(seeds)

    def test_distributional_coupling(self):
        # empirical law of the final size vs the enumeration oracle; masks are
        # drawn in one batch (same per-edge Bernoulli law as run_sir, which the
        # acceptance suite exercises trial-by-trial at the same scale)
        graphs = {"k3": k3(), "p3": build_graph([(0, 1), (1, 2)], 3)}
        trials = 100_000
        for name, g in graphs.items():
            for p in (0.25, 0.5, 0.75):
                bits_all = rng_for(31, f"{name}:{p}").random((trials, g.m)) < p
                counts = {}
                for t in range(trials):
                    rec = run_sir_with_mask(g, [0], bits_all[t])
                    counts[rec.final_size] = counts.get(rec.final_size, 0) + 1
                emp = {k: v / trials for k, v in counts.items()}
                law = exact_component_distribution(g, 0, Fraction(p).limit_denominator(4))
                assert law.tv_distance(emp) < 0.01, (name, p, emp)


class TestLocalQuery:
    def test_k1_always_succeeds(self):
        assert local_query(k3(), 0, 1, TransmissionParams(p=0.0),
                           np.random.default_rng(0)) == 1

    def test_p0_k2_always_fails(self):
        assert local_query(k3(), 0, 2, TransmissionParams(p=0.0),
                           np.random.default_rng(0)) == 0

    def test_k3_on_triangle(self):
        params = TransmissionParams(p=0.5)
        hits = sum(local_query(k3(), 0, 3, params, np.random.default_rng(i))
                   for i in range(20_000))
        assert abs(hits / 20_000 - 0.5) < 0.02  # exact: P(|C(0)|=3) = 1/2

    def test_count_seed_toggle(self):
        g = build_graph([(0, 1)], 2)
        params = TransmissionParams(p=1.0)
        assert local_query(g, 0, 2, params, np.random.default_rng(0), count_seed=True) == 1
        assert local_query(g, 0, 2, params, np.random.default_rng(0), count_seed=False) == 0

    def test_query_equals_component_threshold(self, small_graph_zoo):
        # under a shared mask, the ball-restricted run succeeds iff the
        # full-graph component of v has at least k vertices
        rng = np.random.default_rng(5)
        for g in small_graph_zoo:
            for _ in range(10):
                bits = rng.random(g.m) < rng.random()
                v = int(rng.integers(g.n))
                cs = components(g, bits)
                for k in (1, 2, 3, 5, 8):
                    got = local_query_with_mask(g, v, k, bits)
                    assert got == int(cs.size_of(v) >= k)

    def test_monotone_in_k_at_fixed_tape(self, small_graph_zoo):
        rng = np.random.default_rng(7)
        for g in small_graph_zoo[:10]:
            bits = rng.random(g.m) < 0.6
            for v in range(0, g.n, 3):
                outs = [local_query_with_mask(g, v, k, bits) for k in (1, 2, 3, 4, 6, 9)]
                assert all(a >= b for a, b in zip(outs, outs[1:]))


class _NeedMore(Exception):
    """The scripted draws ran out; carries how many more were asked for."""


class _ScriptedRng:
    """Stand-in generator whose random(size) returns the next scripted 0/1
    uniforms: 0 opens the edge being examined and 1 closes it, for any p in
    (0, 1)."""

    def __init__(self, bits):
        self.bits, self.pos = bits, 0

    def random(self, size):
        if self.pos + size > len(self.bits):
            raise _NeedMore(self.pos + size - len(self.bits))
        out = np.array(self.bits[self.pos:self.pos + size], dtype=float)
        self.pos += size
        return out


def query_success_law(g, v, k, count_seed, p):
    """Exact P(local_query succeeds) at a Fraction p, and the total branch
    mass, by running the query on every branch of its lazy draws: a branch
    with h opened and c closed edges has probability p^h (1-p)^c."""
    success = total = Fraction(0)
    stack = [()]
    while stack:
        bits = stack.pop()
        try:
            hit = local_query(g, v, k, TransmissionParams(p=0.5), _ScriptedRng(bits),
                              count_seed=count_seed)
        except _NeedMore as more:
            stack.extend(bits + tail for tail in itertools.product((0, 1), repeat=more.args[0]))
            continue
        mass = p ** bits.count(0) * (1 - p) ** bits.count(1)
        total += mass
        success += mass if hit else 0
    return success, total


class TestQueryLaw:
    # the branch tree grows like 2^m; zoo graphs above 12 edges would take minutes
    MAX_EDGES = 12

    def test_success_law_equals_component_tail(self, small_graph_zoo):
        p = Fraction(1, 3)
        graphs = [g for g in small_graph_zoo if g.m <= self.MAX_EDGES]
        assert len(graphs) >= 15
        for g in graphs:
            for v in range(g.n):
                law = exact_component_distribution(g, v, p)
                for k in sorted({1, 2, 3, g.n}):
                    for count_seed in (True, False):
                        threshold = k if count_seed else k + 1
                        tail = sum((law.prob_of(s) for s in range(threshold, g.n + 1)),
                                   Fraction(0))
                        got, total = query_success_law(g, v, k, count_seed, p)
                        assert total == 1
                        assert got == tail, (g, v, k, count_seed)


class TestEstimate:
    def test_full_transmission(self):
        g = gen_k_regular(3, 200, 2)
        rep = estimate(g, 10, 50, TransmissionParams(p=1.0), 3)
        assert rep.n_tilde == 1.0
        assert rep.overlap_fraction == 1.0  # every ball is the whole graph

    def test_subcritical(self):
        g = gen_k_regular(3, 20_000, 3)
        rep = estimate(g, 100, 400, TransmissionParams(p=0.3), 5)
        assert rep.n_tilde <= 0.02

    def test_deterministic_and_thread_independent(self):
        g = gen_k_regular(3, 2_000, 4)
        params = TransmissionParams(p=0.7)
        a = estimate(g, 20, 100, params, 9, threads=1)
        b = estimate(g, 20, 100, params, 9, threads=4)
        assert a == b
        c = estimate(g, 20, 100, params, 10)
        assert c.n_tilde != a.n_tilde or c.overlap_fraction != a.overlap_fraction

    def test_halfwidth(self):
        g = gen_k_regular(3, 2_000, 4)
        rep = estimate(g, 20, 100, TransmissionParams(p=0.7), 9)
        expected = 1.96 * np.sqrt(rep.n_tilde * (1 - rep.n_tilde) / rep.q)
        assert rep.halfwidth == pytest.approx(expected)

    def test_subcritical_overlap_is_rare(self):
        g = gen_k_regular(3, 20_000, 3)
        rep = estimate(g, 3, 200, TransmissionParams(p=0.3), 5)
        assert rep.overlap_fraction < 0.05


def reference_estimate(g, k, q, p, master_seed, count_seed, degree_biased):
    """The estimator before the early-stopping kernel: per query a radius-2k
    BFS, the spread restricted to B_k(v) run to extinction, and the overlap
    counted from that BFS. Returns (n_tilde, overlap_fraction,
    acceptance_rate)."""
    degrees = g.degrees()
    dmax = int(degrees.max())
    draw = [_draw_query_vertex(g, rng_for(master_seed, "query", i), degree_biased, degrees, dmax)
            for i in range(q)]
    vertices = np.array([v for v, _ in draw])
    successes = pairs = 0
    scratch = np.empty(g.n, dtype=bool)
    for i in range(q):
        rng = rng_for(master_seed, "query", i)
        v, _ = _draw_query_vertex(g, rng, degree_biased, degrees, dmax)
        dist = bfs_distances(g, [v], limit=2 * k)
        eligible = (dist >= 0) & (dist <= k)
        eligible[v] = False
        count = 1
        frontier = np.array([v], dtype=np.int64)
        while frontier.size:
            nbrs = _gather_neighbors(g, frontier)
            nbrs = nbrs[eligible[nbrs]]
            if nbrs.size == 0:
                break
            hit = nbrs[rng.random(nbrs.size) < p]
            frontier = _dedup_unvisited(g, hit, scratch)
            eligible[frontier] = False
            count += frontier.size
        successes += count >= (k if count_seed else k + 1)
        d = dist[vertices]
        pairs += int(np.count_nonzero((d >= 0) & (d <= 2 * k))) - 1
    proposals = sum(prop for _, prop in draw)
    return (successes / q, pairs / (q * (q - 1)) if q > 1 else 0.0,
            q / proposals if degree_biased else None)


def brute_overlap_pairs(g, vertices, k):
    """Ordered pairs i != j with dist(v_i, v_j) <= 2k, by full BFS per query."""
    vertices = np.asarray(vertices)
    total = 0
    for v in vertices:
        d = bfs_distances(g, [v])[vertices]
        total += int(np.count_nonzero((d >= 0) & (d <= 2 * k))) - 1
    return total


def motif_overlay_graph():
    tri = Motif(build_graph([(0, 1), (1, 2), (0, 2)], 3), [1, 1, 1])
    return gen_motif_overlay(gen_k_regular(3, 300, 21), MotifDistribution({3: [(tri, 1.0)]}),
                             22).graph


REFERENCE_GRAPHS = {
    "cm": lambda: gen_k_regular(3, 2_000, 14),
    "pa": lambda: gen_pa(2, 2_000, 15),
    "two_block": lambda: gen_two_block(3, 2_000, 16),
    "overlay": motif_overlay_graph,
}


class TestEqualsPerQueryReference:
    @pytest.mark.parametrize("name", REFERENCE_GRAPHS)
    def test_reports_equal(self, name):
        g = REFERENCE_GRAPHS[name]()
        for p, k, count_seed, degree_biased in itertools.product(
                (0.3, 0.7, 0.9), (1, 2, 5, 20), (True, False), (False, True)):
            fn = estimate_degree_biased if degree_biased else estimate
            rep = fn(g, k, 40, TransmissionParams(p=p), 31, count_seed=count_seed)
            got = (rep.n_tilde, rep.overlap_fraction, rep.acceptance_rate)
            want = reference_estimate(g, k, 40, p, 31, count_seed, degree_biased)
            assert got == want, (name, p, k, count_seed, degree_biased)

    def test_overlap_disconnected(self):
        # a 30-cycle, a 10-path, a triangle and isolated vertices
        edges = [(i, (i + 1) % 30) for i in range(30)]
        edges += [(30 + i, 31 + i) for i in range(9)] + [(40, 41), (41, 42), (40, 42)]
        g = build_graph(edges, 50)
        vertices = np.random.default_rng(3).integers(g.n, size=25)
        for k in (1, 2, 3, 4, 7, 40):
            assert _overlap_pairs(g, vertices, k) == brute_overlap_pairs(g, vertices, k)

    def test_overlap_more_queries_than_vertices(self):
        g = build_graph(random_gnp_edges(np.random.default_rng(4), 12, 0.2), 12)
        vertices = np.random.default_rng(5).integers(g.n, size=50)
        for k in (1, 2, 5):
            assert _overlap_pairs(g, vertices, k) == brute_overlap_pairs(g, vertices, k)
        assert _overlap_pairs(g, [3] * 7, 1) == 7 * 6

    def test_overlap_resolving_only_at_round_k(self):
        # sources every 2k (and one at 2k+1) along a 200-cycle: each pair of
        # neighbours meets only in the last round, every other pair never
        k = 9
        g = build_graph([(i, (i + 1) % 200) for i in range(200)], 200)
        vertices = [0, 18, 36, 54, 73, 91]
        assert _overlap_pairs(g, vertices, k) == brute_overlap_pairs(g, vertices, k) == 8
        for kk in (k - 1, k + 1, 1_000):
            assert _overlap_pairs(g, vertices, kk) == brute_overlap_pairs(g, vertices, kk)

    def test_query_allocates_nothing_of_size_n(self, monkeypatch):
        # n = 2e6 vertices, edges only on a 3-regular piece of 1000: every
        # per-query closure must stay far below one n-sized array
        n = 2_000_000
        g = build_graph(gen_k_regular(3, 1_000, 17).edges, n)
        peaks = []

        def traced_map(fn, count, threads=1):
            out = []
            for i in range(count):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out.append(fn(i))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        monkeypatch.setattr(epidemic, "parallel_map", traced_map)
        tracemalloc.start()
        try:
            estimate_degree_biased(g, 50, 20, TransmissionParams(p=0.9), 1)
            estimate(g, 50, 20, TransmissionParams(p=0.9), 1)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 40
        assert max(peaks) < n // 20


class TestDegreeBiased:
    def test_regular_graph_identical_to_uniform(self):
        # on a regular graph the rejection sampler never draws the accept
        # uniform, so the stream matches the uniform sampler exactly
        g = gen_k_regular(3, 500, 6)
        params = TransmissionParams(p=0.7)
        a = estimate(g, 10, 200, params, 11)
        b = estimate_degree_biased(g, 10, 200, params, 11)
        assert b.acceptance_rate == 1.0
        assert b.n_tilde == a.n_tilde
        assert b.overlap_fraction == a.overlap_fraction

    def test_star_center_drawn_half_the_time(self):
        n = 201
        g = build_graph([(0, i) for i in range(1, n)], n)
        degrees = g.degrees()
        rng = np.random.default_rng(13)
        draws = 20_000
        center = 0
        for _ in range(draws):
            v, _ = _draw_query_vertex(g, rng, True, degrees, int(degrees.max()))
            center += v == 0
        p_center = (n - 1) / (2 * (n - 1))  # degree weight of the hub
        sigma = np.sqrt(p_center * (1 - p_center) / draws)
        assert abs(center / draws - p_center) < 4 * sigma

    def test_acceptance_rate_is_mean_over_max_degree(self):
        rng = np.random.default_rng(17)
        g = build_graph(random_gnp_edges(rng, 40, 0.2), 40)
        rep = estimate_degree_biased(g, 2, 2_000, TransmissionParams(p=0.5), 19)
        degrees = g.degrees()
        # rejection identity: acceptance = E[deg]/dmax (+ zero-degree mass)
        expected = degrees.mean() / degrees.max()
        assert abs(rep.acceptance_rate - expected) < 0.05

    def test_raising_ntilde_on_star(self):
        n = 101
        g = build_graph([(0, i) for i in range(1, n)], n)
        params = TransmissionParams(p=0.35)
        uni = estimate(g, 3, 1_500, params, 23)
        biased = estimate_degree_biased(g, 3, 1_500, params, 23)
        assert biased.n_tilde > uni.n_tilde + 0.1

    def test_empty_graph_rejected(self):
        g = build_graph([], 5)
        with pytest.raises(ValueError):
            estimate_degree_biased(g, 2, 10, TransmissionParams(p=0.5), 0)


class TestAdaptiveEstimate:
    def test_full_transmission_terminates_immediately(self):
        g = gen_k_regular(3, 500, 7)
        rep = adaptive_estimate(g, 0.2, TransmissionParams(p=1.0), 3)
        assert rep.n_tilde == 1.0
        assert len(rep.schedule) == 2  # two agreeing stages
        assert not rep.truncated

    def test_subcritical(self):
        g = gen_k_regular(3, 10_000, 8)
        rep = adaptive_estimate(g, 0.1, TransmissionParams(p=0.3), 5)
        assert rep.n_tilde <= 0.02

    def test_supercritical_matches_fixed_point(self):
        g = gen_k_regular(3, 10_000, 9)
        rep = adaptive_estimate(g, 0.05, TransmissionParams(p=0.7), 7)
        assert abs(rep.n_tilde - ZETA_07) <= 0.05
        assert rep.q == int(np.ceil(8 / 0.05**2))

    def test_truncates_on_tiny_graph(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        rep = adaptive_estimate(g, 0.5, TransmissionParams(p=0.2), 1)
        assert rep.truncated
        assert rep.schedule[0][0] == 8  # k0 ran, then k doubled past n

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            adaptive_estimate(k3(), 1.5, TransmissionParams(p=0.5), 0)


def reference_histogram(g, trials, params, master_seed):
    """Seeds and final sizes by the trial body `outbreak_histogram` had before
    the reach kernel: one `run_sir` per trial, on the same substreams."""
    seeds, sizes = [], []
    for t in range(trials):
        rng = rng_for(master_seed, "outbreak", t)
        seed_v = int(rng.integers(g.n))
        seeds.append(seed_v)
        sizes.append(run_sir(g, [seed_v], params, rng).final_size)
    return np.array(seeds), np.array(sizes)


class TestOutbreakHistogram:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("p", [0.3, 0.7])
    @pytest.mark.parametrize("gen", [gen_k_regular, gen_two_block])
    def test_equals_run_sir_reference(self, gen, p, threads):
        g = gen(3, 2_000, 14)
        params = TransmissionParams(p=p)
        hist = outbreak_histogram(g, 40, params, 21, threads=threads)
        seeds, sizes = reference_histogram(g, 40, params, 21)
        assert (hist.seeds == seeds).all()
        assert (hist.final_sizes == sizes).all()

    @pytest.mark.parametrize("kwargs", [{"delta": -1}, {"delta": 1.0}, {"zeta_ref": 1.5},
                                        {"zeta_ref": -0.1}])
    def test_band_parameters_checked(self, kwargs):
        with pytest.raises(ValueError, match="must lie in"):
            outbreak_histogram(k3(), 1, TransmissionParams(p=0.5), 0, **kwargs)

    def test_no_transmission_mass_at_single_vertex(self):
        g = gen_k_regular(3, 100, 10)
        hist = outbreak_histogram(g, 50, TransmissionParams(p=0.0), 3)
        assert (hist.final_sizes == 1).all()
        assert (hist.relative_sizes == 1 / 100).all()
        assert hist.band_masses["low"] == 1.0

    def test_band_masses(self):
        g = gen_k_regular(3, 20_000, 11)
        zeta = survival_fixed_point_cm(np.array([0, 0, 0, 1.0]), 0.7)
        hist = outbreak_histogram(g, 400, TransmissionParams(p=0.7), 7,
                                  delta=0.05, zeta_ref=zeta)
        bm = hist.band_masses
        assert bm["middle"] <= 0.02
        assert abs(bm["upper"] - zeta) < 0.07
        assert abs(bm["low"] - (1 - zeta)) < 0.07
        assert bm["low"] + bm["middle"] + bm["upper"] == pytest.approx(1.0)

    def test_two_block_three_clusters(self):
        g = gen_two_block(3, 20_000, 12)
        hist = outbreak_histogram(g, 500, TransmissionParams(p=0.7), 9)
        rel = hist.relative_sizes
        half_atom = float(np.mean((rel >= 0.38) & (rel <= 0.55)))
        full_atom = float(np.mean(rel > 0.85))
        tiny = float(np.mean(rel < 0.05))
        assert half_atom >= 0.2
        assert full_atom >= 0.3
        assert tiny >= 0.03
        assert half_atom + full_atom + tiny == pytest.approx(1.0)

    def test_deterministic_across_threads(self):
        g = gen_k_regular(3, 2_000, 13)
        a = outbreak_histogram(g, 60, TransmissionParams(p=0.6), 5, threads=1)
        b = outbreak_histogram(g, 60, TransmissionParams(p=0.6), 5, threads=4)
        assert (a.final_sizes == b.final_sizes).all()
        assert (a.seeds == b.seeds).all()
