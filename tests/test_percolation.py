import numpy as np
import pytest

from outbreak_local import (
    build_graph,
    components,
    exact_zeta_k,
    degree_law_from_dict,
    gen_k_regular,
    giant_fraction,
    percolate,
    percolation_uniforms,
    pivotal_bridge_report,
    survival_curve_analytic,
    survival_curve_empirical,
    survival_fixed_point_cm,
)

D3 = np.array([0.0, 0.0, 0.0, 1.0])  # degree identically 3

ZETA_07 = 316 / 343
ZETA_09 = 728 / 729


def k4():
    return build_graph([(i, j) for i in range(4) for j in range(i + 1, 4)], 4)


class TestPercolate:
    def test_extremes(self):
        g = k4()
        assert percolate(g, 1.0, 0, 0).bits.all()
        assert not percolate(g, 0.0, 0, 0).bits.any()

    def test_binomial_mean(self):
        g = k4()
        trials = 100_000
        total = sum(percolate(g, 0.5, 3, t).open_count() for t in range(trials))
        assert abs(total / trials - 3.0) < 0.02

    def test_reproducible(self):
        g = k4()
        a = percolate(g, 0.37, 11, 4)
        b = percolate(g, 0.37, 11, 4)
        assert (a.bits == b.bits).all()
        c = percolate(g, 0.37, 11, 5)
        assert (a.bits != c.bits).any() or a.open_count() != c.open_count()

    def test_monotone_coupling(self):
        g = gen_k_regular(3, 200, 1)
        for t in range(20):
            u = percolation_uniforms(g, 9, t)
            lo, hi = u < 0.3, u < 0.7
            assert (lo == percolate(g, 0.3, 9, t).bits).all()
            assert not (lo & ~hi).any()
            assert components(g, lo).sizes[0] <= components(g, hi).sizes[0]

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            percolate(k4(), 1.5, 0, 0)


class TestFixedPoint:
    def test_regular_three(self):
        assert abs(survival_fixed_point_cm(D3, 0.9) - ZETA_09) < 1e-9
        assert abs(survival_fixed_point_cm(D3, 0.7) - ZETA_07) < 1e-9
        assert survival_fixed_point_cm(D3, 0.5) == 0.0  # critical: p_c = 1/(d-1)
        assert survival_fixed_point_cm(D3, 0.3) == 0.0
        assert survival_fixed_point_cm(D3, 0.0) == 0.0
        assert abs(survival_fixed_point_cm(D3, 1.0) - 1.0) < 1e-12

    def test_law_validation(self):
        with pytest.raises(ValueError):
            survival_fixed_point_cm(np.array([0.5, 0.6]), 0.5)  # mass != 1
        with pytest.raises(ValueError):
            survival_fixed_point_cm(np.array([1.0]), 0.5)  # zero mean
        with pytest.raises(ValueError):
            survival_fixed_point_cm(D3, -0.1)

    def test_from_dict(self):
        law = degree_law_from_dict({3: 1.0})
        assert np.allclose(law, D3)

    def test_mixed_law_monotone_in_p(self):
        law = degree_law_from_dict({2: 0.3, 3: 0.4, 5: 0.3})
        zs = [survival_fixed_point_cm(law, p) for p in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(zs, zs[1:]))
        assert zs[0] == 0.0 and abs(zs[-1] - 1.0) < 1e-9

    def test_truncated_power_law(self):
        probs = np.zeros(501)
        probs[3:] = np.arange(3, 501, dtype=np.float64) ** -2.5
        probs /= probs.sum()
        z = survival_fixed_point_cm(probs, 0.2)
        assert 0 < z < 1


class TestSurvivalCurves:
    def test_analytic_grid(self):
        curve = survival_curve_analytic(D3, [0.0, 0.5, 0.7, 0.9, 1.0])
        assert curve.method == "fixed_point"
        expected = [0.0, 0.0, ZETA_07, ZETA_09, 1.0]
        assert np.allclose(curve.zeta, expected, atol=1e-9)
        assert (curve.error == 0).all()

    def test_empirical_matches_analytic(self):
        g = gen_k_regular(3, 20_000, 2)
        grid = [0.3, 0.6, 0.75, 0.9]
        emp = survival_curve_empirical(g, grid, trials=10, seed=5)
        ana = survival_curve_analytic(D3, grid)
        for (p, z_emp, err), z_ana in zip(emp.rows(), ana.zeta):
            assert abs(z_emp - z_ana) <= 0.02 + err, (p, z_emp, z_ana)

    def test_per_trial_monotone_in_p(self):
        g = gen_k_regular(3, 2_000, 3)
        grid = [0.2, 0.4, 0.6, 0.8]
        for t in range(5):
            u = percolation_uniforms(g, 8, t)
            fractions = [components(g, u < p).giant_fraction for p in grid]
            assert all(b >= a for a, b in zip(fractions, fractions[1:]))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            survival_curve_analytic(D3, [0.5, 0.3])


class TestGiantFraction:
    def test_connected_full_retention(self):
        g = gen_k_regular(3, 100, 4)
        res = giant_fraction(g, 1.0, 3, 0)
        assert (res.fractions == 1.0).all()

    def test_supercritical_and_subcritical(self):
        g = gen_k_regular(3, 20_000, 5)
        hi = giant_fraction(g, 0.9, 5, 1)
        assert abs(hi.mean - ZETA_09) < 0.01
        lo = giant_fraction(g, 0.3, 5, 1)
        assert lo.mean <= 0.01

    def test_deterministic_across_threads(self):
        g = gen_k_regular(3, 2_000, 6)
        a = giant_fraction(g, 0.7, 8, 3, threads=1)
        b = giant_fraction(g, 0.7, 8, 3, threads=4)
        assert (a.fractions == b.fractions).all()


class TestBridges:
    def test_single_edge(self):
        g = build_graph([(0, 1)], 2)
        rep = pivotal_bridge_report(g, 0, 1, 0.6, 20_000, 7)
        # the edge is a 1-bridge exactly when open: mean = p, pivotal rate = 1
        assert abs(rep.bridge_count_mean - 0.6) < 0.01
        assert abs(rep.pivotal_rate - 1.0) < 0.02
        assert abs(rep.zeta_k_hat - 0.6) < 0.01

    def test_p3_matches_theory(self):
        g = build_graph([(0, 1), (1, 2)], 3)
        for p in (0.3, 0.7):
            rep = pivotal_bridge_report(g, 0, 2, p, 30_000, 13)
            se = rep.bridge_count_halfwidth / 1.96 / p
            assert abs(rep.pivotal_rate - 2 * p) < 3 * max(se, 1e-9)
            assert abs(rep.zeta_k_hat - p * p) < 0.01
            assert abs(rep.bridge_count_mean - p * rep.pivotal_rate) < 1e-12

    def test_fd_matches_exact_oracle(self):
        g = build_graph([(0, 1), (1, 2), (1, 3), (3, 4)], 5)
        p, h = 0.6, 0.05
        rep = pivotal_bridge_report(g, 0, 2, p, 40_000, 17, fd_step=h)
        exact_slope = (float(exact_zeta_k(g, 0, 2, p + h))
                       - float(exact_zeta_k(g, 0, 2, p - h))) / (2 * h)
        assert abs(rep.fd_slope - exact_slope) < 3 * max(rep.fd_halfwidth / 1.96, 1e-9)
        # Margulis-Russo: pivotal rate ~ d zeta_k / dp (central difference is
        # second-order accurate, so compare loosely)
        assert abs(rep.pivotal_rate - exact_slope) < 0.1

    def test_p_zero_rate_undefined(self):
        g = build_graph([(0, 1)], 2)
        rep = pivotal_bridge_report(g, 0, 1, 0.0, 10, 1)
        assert rep.pivotal_rate is None
        assert rep.bridge_count_mean == 0.0

    def test_tree_bridge_counts_bounded_in_k(self):
        # binary-ish tree: bridge counts stay bounded as k grows at fixed p
        edges = [(u, 2 * u + 1) for u in range(127)] + [(u, 2 * u + 2) for u in range(127)]
        edges = [(u, v) for u, v in edges if v < 255]
        g = build_graph(edges, 255)
        means = []
        for k in (2, 3, 4, 5, 6):
            rep = pivotal_bridge_report(g, 0, k, 0.8, 2_000, 23)
            means.append(rep.bridge_count_mean)
        assert max(means) < 4.0
        assert means[-1] <= means[0] + 1.0


class TestConvergingGiantLocality:
    def test_escape_probability_vanishes_in_k(self):
        # mass of vertices in large-but-not-giant components is tiny and
        # nonincreasing in the size cutoff
        g = gen_k_regular(3, 20_000, 9)
        grid = (25, 50, 100, 200)
        masses = np.zeros(len(grid))
        trials = 60
        for t in range(trials):
            cs = components(g, percolate(g, 0.7, 29, t))
            sizes_per_vertex = cs.label_sizes[cs.labels]
            giant_label = int(np.argmax(cs.label_sizes))
            outside = cs.labels != giant_label
            for i, k in enumerate(grid):
                masses[i] += float(np.mean(outside & (sizes_per_vertex >= k)))
        masses /= trials
        assert (np.diff(masses) <= 1e-12).all()
        assert masses[-1] < 0.01
