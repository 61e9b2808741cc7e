import numpy as np
import pytest
from fractions import Fraction

from outbreak_local import (
    ExpansionCapError,
    GraphError,
    bfs_distances,
    build_graph,
    check_graphical,
    components,
    edge_boundary,
    expansion_exact,
    expansion_heuristic,
    gen_k_regular,
    load_edge_list,
    masked_spread,
    reach_size,
    save_edge_list,
    vertex_boundary,
)
from outbreak_local.graph import (
    _SCALAR_CUTOFF,
    _masked_spread_scalar,
    _bfs_layers,
    size_window,
)

from conftest import apsp_distances, havel_hakimi_graphical, random_gnp_edges


def k3():
    return build_graph([(0, 1), (0, 2), (1, 2)], 3)


def c4():
    return build_graph([(0, 1), (1, 2), (2, 3), (0, 3)], 4)


class TestBuildGraph:
    def test_path(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        assert g.n == 3 and g.m == 2
        assert g.degrees().tolist() == [1, 2, 1]

    def test_dedup(self):
        g = build_graph([(0, 1), (1, 0)], 2)
        assert g.m == 1
        assert g.edges.tolist() == [[0, 1]]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            build_graph([(0, 0)], 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph([(0, 3)], 3)

    def test_canonical_edge_order(self):
        g = build_graph([(2, 1), (1, 0), (3, 0)], 4)
        assert g.edges.tolist() == [[0, 1], [0, 3], [1, 2]]

    def test_adjacency_symmetric_and_sorted(self):
        rng = np.random.default_rng(5)
        g = build_graph(random_gnp_edges(rng, 12, 0.4), 12)
        for v in range(g.n):
            nbrs = g.neighbors_of(v)
            assert (np.diff(nbrs) > 0).all()
            for u in nbrs:
                assert v in g.neighbors_of(int(u))
        assert int(g.degrees().sum()) == 2 * g.m

    def test_empty(self):
        g = build_graph([], 4)
        assert g.m == 0 and g.degrees().tolist() == [0, 0, 0, 0]

    def test_immutable(self):
        g = k3()
        with pytest.raises(ValueError):
            g.edges[0, 0] = 5


class TestBfs:
    def test_path_radius_one(self):
        g = build_graph([(0, 1), (1, 2), (2, 3), (3, 4)], 5)
        assert bfs_distances(g, [2], limit=1).tolist() == [-1, 1, 0, 1, -1]

    def test_zero_radius(self):
        assert bfs_distances(k3(), [1], limit=0).tolist() == [-1, 0, -1]

    def test_triangle_large_radius(self):
        assert bfs_distances(k3(), [0], limit=5).tolist() == [0, 1, 1]

    def test_against_apsp_oracle(self):
        rng = np.random.default_rng(7)
        for n in (10, 25, 50):
            edges = random_gnp_edges(rng, n, 2.0 / n)
            g = build_graph(edges, n)
            truth = apsp_distances(edges, n)
            for v in (0, n // 2):
                for k in (0, 1, 2, n, None):
                    dist = bfs_distances(g, [v], limit=k)
                    for u in range(n):
                        d = truth[v][u]
                        within = d <= (n if k is None else k)
                        assert dist[u] == (d if within else -1)

    def test_limit_sentinel(self):
        g = build_graph([(0, 1), (1, 2)], 4)
        dist = bfs_distances(g, [0], limit=1)
        assert dist.tolist() == [0, 1, -1, -1]


class TestComponents:
    def test_all_open_triangle(self):
        cs = components(k3(), np.ones(3, bool))
        assert cs.sizes.tolist() == [3] and cs.giant_fraction == 1.0

    def test_all_closed_triangle(self):
        cs = components(k3(), np.zeros(3, bool))
        assert cs.sizes.tolist() == [1, 1, 1]

    def test_single_open_edge(self):
        g = k3()
        bits = np.zeros(3, bool)
        bits[0] = True  # canonical edge 0 is (0, 1)
        cs = components(g, bits)
        assert cs.sizes.tolist() == [2, 1]
        assert cs.labels[0] == cs.labels[1] != cs.labels[2]

    def test_mask_length_mismatch(self):
        with pytest.raises(GraphError, match="mask length"):
            components(k3(), np.ones(2, bool))

    def test_partition_property(self, small_graph_zoo):
        rng = np.random.default_rng(3)
        for g in small_graph_zoo:
            bits = rng.random(g.m) < 0.5
            cs = components(g, bits)
            assert int(cs.sizes.sum()) == g.n
            for e in np.flatnonzero(bits):
                u, v = g.edges[e]
                assert cs.labels[u] == cs.labels[v]
            assert cs.size_of(0) == cs.label_sizes[cs.labels[0]]


class TestMaskedSpread:
    def test_scalar_equals_vector(self, small_graph_zoo):
        rng = np.random.default_rng(11)
        for g in small_graph_zoo:
            bits = rng.random(g.m) < 0.6
            sources = np.unique(rng.integers(g.n, size=2))
            vis_s, layers_s = _masked_spread_scalar(g, sources, bits)
            vis_v, layers_v = _bfs_layers(g, sources, bits)
            assert (vis_s == vis_v).all()
            assert len(layers_s) == len(layers_v)
            for a, b in zip(layers_s, layers_v):
                assert a.dtype == b.dtype == np.int64
                assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("n", [3, 300])
    def test_duplicate_sources_once_in_layer_zero(self, n):
        assert 3 < _SCALAR_CUTOFF < 300  # both routes: Python loop and numpy
        g = build_graph([(i, (i + 1) % n) for i in range(n)], n)
        visited, layers = masked_spread(g, [0, 0, 1, 0], np.zeros(g.m, bool))
        assert layers[0].tolist() == [0, 1]
        assert len(layers) == 1 and int(visited.sum()) == 2

    @pytest.mark.parametrize("n, extra", [(3, -1), (3, 2), (400, 5)])
    def test_mask_length_checked(self, n, extra):
        g = build_graph([(i, (i + 1) % n) for i in range(n)], n)
        with pytest.raises(GraphError, match="mask length"):
            masked_spread(g, [0], np.ones(g.m + extra, bool))

    def test_spread_is_union_of_components(self, small_graph_zoo):
        rng = np.random.default_rng(13)
        for g in small_graph_zoo:
            bits = rng.random(g.m) < 0.5
            seeds = rng.choice(g.n, size=2, replace=False)
            visited, _ = masked_spread(g, seeds, bits)
            cs = components(g, bits)
            assert int(visited.sum()) == cs.union_size(seeds)

    def test_empty_sources_rejected(self):
        with pytest.raises(GraphError):
            masked_spread(k3(), [], np.ones(3, bool))


class TestReachSize:
    @staticmethod
    def masks(g, rng):
        """Masks at p = 0, 0.5, 1 and at a random p."""
        yield np.zeros(g.m, bool)
        yield rng.random(g.m) < 0.5
        yield np.ones(g.m, bool)
        yield rng.random(g.m) < rng.random()

    @staticmethod
    def spread_size(g, v, bits):
        return int(np.count_nonzero(masked_spread(g, [v], bits)[0]))

    def test_equals_masked_spread_on_zoo(self, small_graph_zoo):
        rng = np.random.default_rng(17)
        for g in small_graph_zoo:
            for bits in self.masks(g, rng):
                for v in range(g.n):
                    assert reach_size(g, v, bits) == self.spread_size(g, v, bits)

    def test_equals_masked_spread_above_scalar_cutoff(self):
        g = gen_k_regular(3, 2000, 5)
        assert g.n > _SCALAR_CUTOFF
        rng = np.random.default_rng(19)
        for bits in self.masks(g, rng):
            for v in rng.choice(g.n, size=100, replace=False).tolist():
                assert reach_size(g, v, bits) == self.spread_size(g, v, bits)

    def test_no_edges(self):
        g = build_graph([], 5)
        assert [reach_size(g, v, np.zeros(0, bool)) for v in range(5)] == [1] * 5

    def test_isolated_seed(self):
        g = build_graph([(0, 1), (1, 2), (2, 3)], 5)
        bits = np.ones(3, bool)
        assert reach_size(g, 4, bits) == 1
        assert reach_size(g, 0, bits) == 4

    @pytest.mark.parametrize("v", [-1, 3])
    def test_vertex_out_of_range(self, v):
        with pytest.raises(GraphError, match="out of range"):
            reach_size(k3(), v, np.ones(3, bool))

    def test_mask_length_checked(self):
        with pytest.raises(GraphError, match="mask length"):
            reach_size(k3(), 0, np.ones(2, bool))

    def test_arc_count_beyond_int32_rejected(self):
        g = k3()
        g.m = 2**30  # 2m arcs no longer fit an int32 index
        with pytest.raises(GraphError, match="int32"):
            reach_size(g, 0, np.ones(3, bool))


class TestBoundaries:
    def test_k3_singleton(self):
        assert edge_boundary(k3(), [0]) == 2
        assert vertex_boundary(k3(), [0]) == 2

    def test_full_set(self):
        assert edge_boundary(k3(), [0, 1, 2]) == 0
        assert vertex_boundary(k3(), [0, 1, 2]) == 0

    def test_c4_opposite_pair(self):
        assert edge_boundary(c4(), [0, 2]) == 4

    def test_star_center(self):
        star = build_graph([(0, i) for i in range(1, 5)], 5)
        assert vertex_boundary(star, [0]) == 4

    def test_boundary_inequality(self, small_graph_zoo):
        rng = np.random.default_rng(17)
        for g in small_graph_zoo:
            dmax = g.max_degree()
            for _ in range(20):
                size = int(rng.integers(1, g.n))
                a = rng.choice(g.n, size=size, replace=False)
                e = edge_boundary(g, a)
                d_out = vertex_boundary(g, a)
                assert d_out <= e
                assert e <= max(dmax, 1) * d_out or e == d_out == 0


class TestGraphical:
    def test_examples(self):
        assert check_graphical([3, 3, 3, 3])
        assert not check_graphical([3, 1])
        assert check_graphical([0, 0])
        assert not check_graphical([2, 2])
        assert not check_graphical([1])  # odd sum

    def test_against_havel_hakimi(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            seq = rng.integers(0, n + 2, size=n).tolist()
            assert check_graphical(seq) == havel_hakimi_graphical(seq), seq


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = build_graph([(0, 1), (2, 3), (1, 2)], 5)
        path = tmp_path / "g.edges"
        save_edge_list(g, path, comments=["test graph"])
        g2 = load_edge_list(path, n=5)
        assert g2.edges.tolist() == g.edges.tolist()

    def test_comments_and_inference(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# a comment\n0 1  # trailing\n\n1 2\n")
        g = load_edge_list(path)
        assert g.n == 3 and g.m == 2

    def test_bad_line(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphError, match="expected"):
            load_edge_list(path)


def joined_triangles():
    return build_graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 6)


class TestExpansionExact:
    def test_c4(self):
        rep = expansion_exact(c4(), 0.25, "edge")
        assert rep.value_fraction == Fraction(1)
        w = set(rep.witness_set.tolist())
        assert len(w) == 2
        assert edge_boundary(c4(), rep.witness_set) == 2  # adjacent pair

    def test_k4(self):
        # enumeration gives 2 (any pair: 4 crossing edges / 2); singletons give 3
        k4 = build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
        rep = expansion_exact(k4, 0.25, "edge")
        assert rep.value_fraction == Fraction(2)
        assert len(rep.witness_set) == 2

    def test_joined_triangles(self):
        rep = expansion_exact(joined_triangles(), 1 / 3, "edge")
        assert rep.value_fraction == Fraction(1, 3)
        assert sorted(rep.witness_set.tolist()) in ([0, 1, 2], [3, 4, 5])

    def test_witness_consistency(self, small_graph_zoo):
        for g in small_graph_zoo:
            rep = expansion_exact(g, 0.2, "edge")
            lo, hi = size_window(g.n, 0.2)
            assert lo <= len(rep.witness_set) <= hi
            assert Fraction(edge_boundary(g, rep.witness_set), len(rep.witness_set)) \
                == rep.value_fraction
            rep_v = expansion_exact(g, 0.2, "vertex")
            assert Fraction(vertex_boundary(g, rep_v.witness_set), len(rep_v.witness_set)) \
                == rep_v.value_fraction

    def test_cap_refusal(self):
        g = build_graph([(i, i + 1) for i in range(20)], 21)
        with pytest.raises(ExpansionCapError, match="heuristic"):
            expansion_exact(g, 0.25, "edge")

    def test_size_window_rounding(self):
        assert size_window(6, 1 / 3) == (2, 3)
        assert size_window(4, 0.25) == (1, 2)
        with pytest.raises(ValueError):
            size_window(3, 0.4 + 1e-9)  # ceil(1.2..)=2 > floor(3/2)=1


class TestExpansionHeuristic:
    def test_c4_upper_bound(self):
        rep = expansion_heuristic(c4(), 0.25, "edge", budget=50, seed=1)
        assert not rep.exact
        assert rep.value <= 2.0
        lo, hi = size_window(4, 0.25)
        assert lo <= len(rep.witness_set) <= hi
        assert edge_boundary(c4(), rep.witness_set) / len(rep.witness_set) == rep.value

    def test_never_below_exact(self, small_graph_zoo):
        for g in small_graph_zoo[:12]:
            for mode in ("edge", "vertex"):
                exact = expansion_exact(g, 0.2, mode)
                heur = expansion_heuristic(g, 0.2, mode, budget=300, seed=2)
                assert heur.value_fraction >= exact.value_fraction

    def test_matches_exact_with_generous_budget(self):
        rng = np.random.default_rng(31)
        graphs = [build_graph(random_gnp_edges(rng, n, 0.5), n) for n in (6, 8, 10, 12)]
        graphs.append(joined_triangles())
        graphs.append(c4())
        for g in graphs:
            exact = expansion_exact(g, 0.2, "edge")
            heur = expansion_heuristic(g, 0.2, "edge", budget=6000, seed=3)
            assert heur.value_fraction == exact.value_fraction

    def test_two_block_finds_the_cut(self):
        from outbreak_local import gen_two_block

        g = gen_two_block(3, 40, seed=9)
        rep = expansion_heuristic(g, 0.3, "edge", budget=500, seed=4)
        assert rep.value_fraction == Fraction(1, 20)
        assert sorted(rep.witness_set.tolist()) in ([*range(20)], [*range(20, 40)])
