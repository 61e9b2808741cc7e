"""Bond percolation sampling, giant-component statistics, the analytic
survival probability for configuration-model limits, and pivotal-edge /
k-bridge diagnostics.

Masks are generated as per-edge uniforms thresholded at p, so one random tape
serves a whole p-grid with monotone coupling: mask(p1) is a subset of
mask(p2) whenever p1 <= p2 for the same (seed, trial_index).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .graph import Graph, bfs_distances, components
from .parallel import parallel_map
from .seeds import rng_for


class FixedPointError(RuntimeError):
    """Fixed-point iteration failed to converge; carries the last iterate."""

    def __init__(self, message: str, last: float, gap: float):
        super().__init__(f"{message} (last iterate {last!r}, gap {gap!r})")
        self.last = last
        self.gap = gap


# ---------------------------------------------------------------------------
# masks


@dataclass(frozen=True)
class EdgeMask:
    """One Bernoulli(p) realization over the canonical edge list."""

    bits: np.ndarray
    p: float
    seed: int
    trial_index: int

    def __post_init__(self):
        self.bits.setflags(write=False)

    def open_count(self) -> int:
        return int(np.count_nonzero(self.bits))


def percolation_uniforms(g: Graph, seed: int, trial_index: int = 0) -> np.ndarray:
    """The per-edge uniform tape for (seed, trial_index); threshold it at p."""
    return rng_for(seed, "percolate", trial_index).random(g.m)


def percolate(g: Graph, p: float, seed: int, trial_index: int = 0) -> EdgeMask:
    """Keep each edge independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return EdgeMask(percolation_uniforms(g, seed, trial_index) < p, float(p), seed, trial_index)


# ---------------------------------------------------------------------------
# giant component statistics


@dataclass(frozen=True)
class GiantFractionResult:
    """Per-trial largest-component fractions and their summary."""

    fractions: np.ndarray
    p: float
    seed: int

    @property
    def mean(self) -> float:
        return float(self.fractions.mean())

    @property
    def std(self) -> float:
        return float(self.fractions.std(ddof=1)) if len(self.fractions) > 1 else 0.0

    @property
    def halfwidth(self) -> float:
        n = len(self.fractions)
        return 1.96 * self.std / np.sqrt(n) if n > 1 else 0.0


def giant_fraction(g: Graph, p: float, trials: int, seed: int, threads: int = 1) -> GiantFractionResult:
    """|C_1|/n over independent percolation trials; trial-order independent."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    def one(t: int) -> float:
        return components(g, percolate(g, p, seed, t)).giant_fraction

    return GiantFractionResult(np.array(parallel_map(one, trials, threads)), float(p), seed)


# ---------------------------------------------------------------------------
# analytic survival for configuration-model limits


def degree_law_from_dict(law: dict) -> np.ndarray:
    """Probability array indexed by degree from a {degree: prob} dict; keys
    may also be decimal strings, as JSON objects have them."""
    law = {int(k): float(w) for k, w in law.items()}
    kmax = max(law)
    probs = np.zeros(kmax + 1, dtype=np.float64)
    for k, w in law.items():
        if k < 0 or w < 0:
            raise ValueError("degree law needs nonnegative degrees and masses")
        probs[k] = w
    return _validate_degree_law(probs)


def _validate_degree_law(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64).reshape(-1)
    if probs.size == 0 or probs.size > 10**6:
        raise ValueError(f"degree law support must be in [1, 1e6], got {probs.size}")
    if (probs < 0).any():
        raise ValueError("degree law has negative mass")
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"degree law mass {total} != 1")
    return probs / total


def _pgf(probs: np.ndarray, x: float) -> float:
    # Horner on the coefficient array
    acc = 0.0
    for c in probs[::-1]:
        acc = acc * x + c
    return acc


def survival_fixed_point_cm(
    degree_law,
    p: float,
    tol: float = 1e-12,
    max_iter: int = 10**6,
) -> float:
    """Survival probability of the percolated unimodular branching process
    with the given root degree law.

    Solves eta = g*(1 - p + p*eta) by monotone iteration from 0, where g* is
    the pgf of the size-biased-minus-one offspring law; returns
    zeta = 1 - g(1 - p + p*eta) with g the pgf of the root law. Iteration
    from 0 converges to the smallest fixed point, which is the extinction
    probability. At or below the critical point p*E[D(D-1)]/E[D] <= 1 the
    extinction probability is exactly 1, so zeta = 0 is returned without
    iterating (the iteration itself slows to a crawl exactly at criticality).
    """
    probs = _validate_degree_law(degree_law)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    ks = np.arange(probs.size, dtype=np.float64)
    mean_d = float((ks * probs).sum())
    if mean_d <= 0:
        raise ValueError("degree law must have positive mean")
    # offspring pgf g*(x) = g'(x)/E[D]; its coefficients are (k+1) p_{k+1} / E[D]
    offspring = (ks[1:] * probs[1:]) / mean_d
    nu = float((ks * (ks - 1) * probs).sum()) / mean_d  # mean offspring
    if p * nu <= 1.0:
        return 0.0
    eta = 0.0
    for _ in range(max_iter):
        nxt = _pgf(offspring, 1.0 - p + p * eta)
        if nxt < eta - 1e-15:
            raise FixedPointError("iteration not monotone", eta, eta - nxt)
        if nxt - eta < tol:
            eta = nxt
            return 1.0 - _pgf(probs, 1.0 - p + p * eta)
        eta = nxt
    raise FixedPointError(f"no convergence in {max_iter} iterations", eta,
                          _pgf(offspring, 1.0 - p + p * eta) - eta)


# ---------------------------------------------------------------------------
# survival curves


@dataclass(frozen=True)
class SurvivalCurve:
    """zeta estimates over a p grid, analytic or Monte Carlo."""

    grid: np.ndarray
    zeta: np.ndarray
    error: np.ndarray
    method: str  # "fixed_point" | "monte_carlo"

    def rows(self):
        for p, z, e in zip(self.grid, self.zeta, self.error):
            yield float(p), float(z), float(e)


def _check_grid(p_grid) -> np.ndarray:
    grid = np.asarray(p_grid, dtype=np.float64).reshape(-1)
    if grid.size == 0:
        raise ValueError("empty p grid")
    if (grid < 0).any() or (grid > 1).any() or (np.diff(grid) < 0).any():
        raise ValueError("p grid must be sorted within [0, 1]")
    return grid


def survival_curve_analytic(degree_law, p_grid, tol: float = 1e-12) -> SurvivalCurve:
    grid = _check_grid(p_grid)
    zeta = np.array([survival_fixed_point_cm(degree_law, p, tol=tol) for p in grid])
    return SurvivalCurve(grid, zeta, np.zeros_like(grid), "fixed_point")


def survival_curve_empirical(
    g: Graph,
    p_grid,
    trials: int,
    seed: int,
    threads: int = 1,
) -> SurvivalCurve:
    """Giant fractions over the grid with one shared uniform tape per trial,
    so per-trial curves are monotone in p by coupling."""
    grid = _check_grid(p_grid)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    def one(t: int) -> np.ndarray:
        u = percolation_uniforms(g, seed, t)
        return np.array([components(g, u < p).giant_fraction for p in grid])

    per_trial = np.stack(parallel_map(one, trials, threads))
    zeta = per_trial.mean(axis=0)
    if trials > 1:
        err = 1.96 * per_trial.std(axis=0, ddof=1) / np.sqrt(trials)
    else:
        err = np.zeros_like(zeta)
    return SurvivalCurve(grid, zeta, err, "monte_carlo")


# ---------------------------------------------------------------------------
# pivotal edges and k-bridges


@dataclass(frozen=True)
class BridgeReport:
    """Monte Carlo pivotal/bridge diagnostics for the event that C(v)
    reaches distance >= k from v."""

    k: int
    p: float
    pivotal_rate: float | None     # estimated sum over edges of P(e pivotal)
    bridge_count_mean: float       # mean number of k-bridges per trial
    trials: int
    zeta_k_hat: float              # Monte Carlo estimate of the reach probability
    bridge_count_halfwidth: float
    fd_slope: float | None         # finite-difference d zeta_k / dp
    fd_step: float | None
    fd_halfwidth: float | None
    seed: int

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "seed"}


def _python_adjacency(g: Graph):
    """Adjacency as python lists of (neighbor, edge id); built once per report."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges.tolist()):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def _reaches_far(adj, n: int, v: int, bits, far) -> bool:
    """Early-exit BFS over open edges: does C(v) hit a far vertex?"""
    if far[v]:
        return True
    visited = [False] * n
    visited[v] = True
    stack = [v]
    while stack:
        u = stack.pop()
        for w, e in adj[u]:
            if bits[e] and not visited[w]:
                if far[w]:
                    return True
                visited[w] = True
                stack.append(w)
    return False


def _count_separating_bridges(g: Graph, adj, bits: np.ndarray, v: int,
                              far_mask: np.ndarray) -> int:
    """Open edges whose removal disconnects v from every far vertex.

    Iterative DFS from v over open edges computing 2-edge-connectivity
    bridges (low-link) and the number of far vertices in each DFS subtree.
    A bridge (parent -> child) separates v from all far vertices iff every
    far vertex of C(v) lies in the child subtree.
    """
    disc = [-1] * g.n
    low = [0] * g.n
    far_sub = [0] * g.n
    total_far = 0
    bridges = []  # (child, parent) DFS tree bridges
    timer = 0
    open_adj = [[(w, e) for w, e in adj[u] if bits[e]] for u in range(g.n)]
    stack = [(v, -1, iter(open_adj[v]))]
    disc[v] = low[v] = timer
    timer += 1
    far_sub[v] = int(far_mask[v])
    total_far += int(far_mask[v])
    while stack:
        node, parent_edge, it = stack[-1]
        advanced = False
        for w, e in it:
            if e == parent_edge:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = timer
                timer += 1
                far_sub[w] = int(far_mask[w])
                total_far += int(far_mask[w])
                stack.append((w, e, iter(open_adj[w])))
                advanced = True
                break
            low[node] = min(low[node], disc[w])
        if not advanced:
            stack.pop()
            if stack:
                par = stack[-1][0]
                low[par] = min(low[par], low[node])
                far_sub[par] += far_sub[node]
                if low[node] > disc[par]:
                    bridges.append((node, par))
    if total_far == 0:
        return 0
    return sum(1 for child, _ in bridges if far_sub[child] == total_far)


def pivotal_bridge_report(
    g: Graph,
    v: int,
    k: int,
    p: float,
    trials: int,
    seed: int,
    fd_step: float | None = None,
) -> BridgeReport:
    """Estimate the pivotal-edge rate for the distance-k reach event.

    Per trial, counts open edges whose removal disconnects C(v) from all
    vertices at distance >= k (k-bridges) and sets
    pivotal_rate = bridge_count_mean / p, the Margulis-Russo right-hand
    side. A coupled finite-difference slope of the reach probability over
    two offset masks is returned for cross-checking.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    dist = bfs_distances(g, [v])
    far_mask = (dist < 0) | (dist >= k)
    if fd_step is None:
        fd_step = min(0.05, p / 2, (1 - p) / 2)
    do_fd = fd_step > 0

    bridge_counts = np.zeros(trials, dtype=np.int64)
    reach = np.zeros(trials, dtype=bool)
    reach_lo = np.zeros(trials, dtype=bool)
    reach_hi = np.zeros(trials, dtype=bool)

    any_far = bool(far_mask.any())
    adj = _python_adjacency(g)
    far = far_mask.tolist()

    for t in range(trials):
        u = percolation_uniforms(g, seed, t)
        bits = (u < p).tolist()
        hit = any_far and _reaches_far(adj, g.n, v, bits, far)
        reach[t] = hit
        if hit:
            bridge_counts[t] = _count_separating_bridges(g, adj, bits, v, far_mask)
        if do_fd and any_far:
            reach_lo[t] = _reaches_far(adj, g.n, v, (u < (p - fd_step)).tolist(), far)
            reach_hi[t] = _reaches_far(adj, g.n, v, (u < (p + fd_step)).tolist(), far)

    mean_bridges = float(bridge_counts.mean())
    if trials > 1:
        bc_half = 1.96 * float(bridge_counts.std(ddof=1)) / np.sqrt(trials)
    else:
        bc_half = 0.0
    pivotal = mean_bridges / p if p > 0 else None
    if do_fd:
        diff = reach_hi.astype(np.float64) - reach_lo.astype(np.float64)
        slope = float(diff.mean()) / (2 * fd_step)
        if trials > 1:
            fd_half = 1.96 * float(diff.std(ddof=1)) / (2 * fd_step * np.sqrt(trials))
        else:
            fd_half = 0.0
    else:
        slope = fd_half = None
        fd_step = None
    return BridgeReport(
        k=k, p=float(p), pivotal_rate=pivotal, bridge_count_mean=mean_bridges,
        trials=trials, zeta_k_hat=float(reach.mean()),
        bridge_count_halfwidth=bc_half,
        fd_slope=slope, fd_step=fd_step, fd_halfwidth=fd_half, seed=seed,
    )
