"""SIR with fixed recovery time, realized through its percolation coupling.

The final infected set of the process depends only on one Bernoulli(p)
transmission indicator per edge: run the spread over the open edges and the
ever-infected set equals the union of the seed components of the masked
graph. Event order is exposed as BFS generations (Reed-Frost order).

The local ball query runs the coupled process inside the induced subgraph on
B_k(v) and reports whether at least k vertices were ever infected (seed
included; a toggle switches to the strictly-more-than-seed convention). The
spread stops once the threshold is reached, which happens before it could
leave the ball, so a query's cost does not depend on n. The estimator's
ball-overlap diagnostic is computed once per estimate, not per query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .graph import (
    Graph,
    GraphError,
    _arc_index,
    _gather_neighbors,
    masked_spread,
    reach_size,
)
from .parallel import parallel_map
from .seeds import rng_for, substream_seed


def lambda_to_p(lam: float) -> float:
    """Per-edge transmission probability lambda/(lambda+1) of a rate-lambda
    contact process with unit recovery time."""
    if lam < 0:
        raise ValueError(f"rate must be >= 0, got {lam}")
    return lam / (lam + 1.0)


@dataclass(frozen=True)
class TransmissionParams:
    """Per-edge transmission probability, optionally derived from a rate."""

    p: float
    lam: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.lam is not None and self.p != lambda_to_p(self.lam):
            raise ValueError(f"p={self.p} inconsistent with lambda={self.lam}")

    @classmethod
    def from_rate(cls, lam: float) -> "TransmissionParams":
        return cls(p=lambda_to_p(lam), lam=lam)


@dataclass(frozen=True)
class OutbreakRecord:
    """Final state of one SIR run."""

    seeds: np.ndarray
    final_size: int
    relative_size: float
    generations: tuple = ()  # BFS layers; layer 0 is the seed set

    def __post_init__(self):
        if not len(self.seeds):
            raise ValueError("seed set must be nonempty")


def run_sir_with_mask(g: Graph, seeds, mask) -> OutbreakRecord:
    """Deterministic SIR given transmission indicators: spread from the seeds
    over open edges; the infected set is exactly the union of the seeds'
    components in the masked graph."""
    seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
    visited, layers = masked_spread(g, seeds, mask)
    size = int(np.count_nonzero(visited))
    return OutbreakRecord(
        seeds=seeds,
        final_size=size,
        relative_size=size / g.n,
        generations=tuple(layers),
    )


def run_sir(g: Graph, seeds, params: TransmissionParams, rng: np.random.Generator) -> OutbreakRecord:
    """One SIR realization: draw one Bernoulli(p) indicator per edge, then
    spread. Consumes exactly m uniforms from `rng`."""
    bits = rng.random(g.m) < params.p
    return run_sir_with_mask(g, seeds, bits)


# ---------------------------------------------------------------------------
# local ball queries


def _spread_until(g: Graph, v: int, p: float, rng: np.random.Generator, threshold: int) -> int:
    """Infected count of the coupled SIR from seed v, drawing each edge's
    indicator lazily on first contact and stopping once the count reaches
    `threshold` (or the spread dies). The count is exact up to the threshold.

    Each edge is examined toward an uninfected endpoint at most once (the
    examining endpoint is already infected and never re-scanned), so lazy
    draws realize independent Bernoulli(p) indicators per edge. While the
    count is below a threshold of at most k+1, every generation so far is
    nonempty, so the frontier being expanded is at generation <= k-1 and all
    its neighbours lie in B_k(v): the run is the ball-restricted one up to
    the decision, with the same uniforms drawn. Nothing here is of size n.
    """
    infected = np.array([v], dtype=np.int64)
    frontier = infected
    while infected.size < threshold and frontier.size:
        nbrs = _gather_neighbors(g, frontier)
        nbrs = nbrs[~np.isin(nbrs, infected)]
        frontier = np.unique(nbrs[rng.random(nbrs.size) < p])
        infected = np.concatenate([infected, frontier])
    return int(infected.size)


def local_query(
    g: Graph,
    v: int,
    k: int,
    params: TransmissionParams,
    rng: np.random.Generator,
    count_seed: bool = True,
) -> int:
    """One query of the local infection probe: run the coupled SIR in
    B_k(v) from seed v; return 1 iff at least k vertices are ever infected
    (count_seed=False requires k vertices besides the seed).

    The spread stops as soon as the threshold is reached, which decides the
    query without leaving B_k(v); its cost does not depend on n."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= v < g.n:
        raise GraphError(f"vertex {v} out of range [0, {g.n})")
    threshold = k if count_seed else k + 1
    return 1 if _spread_until(g, v, params.p, rng, threshold) >= threshold else 0


# ---------------------------------------------------------------------------
# the estimator


@dataclass(frozen=True)
class EstimatorReport:
    """Mean of q independent local queries with diagnostics."""

    k: int
    q: int
    n_tilde: float
    halfwidth: float           # 95% binomial CI halfwidth
    master_seed: int
    overlap_fraction: float    # fraction of query pairs with overlapping k-balls
    count_seed: bool = True
    seeding: str = "uniform"   # "uniform" | "degree_biased"
    acceptance_rate: float | None = None
    schedule: tuple = ()       # (k, q, n_tilde) stages when adaptive
    truncated: bool = False

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "q": self.q,
            "n_tilde": self.n_tilde,
            "halfwidth": self.halfwidth,
            "master_seed": self.master_seed,
            "overlap_fraction": self.overlap_fraction,
            "count_seed": self.count_seed,
            "seeding": self.seeding,
            "acceptance_rate": self.acceptance_rate,
            "schedule": [list(s) for s in self.schedule],
            "truncated": self.truncated,
        }


def _draw_query_vertex(g: Graph, rng: np.random.Generator, degree_biased: bool,
                       degrees: np.ndarray | None, dmax: int):
    """Seed vertex for one query; rejection sampling against the maximum
    degree when degree-biased. Returns (vertex, proposals)."""
    if not degree_biased:
        return int(rng.integers(g.n)), 1
    proposals = 0
    while True:
        v = int(rng.integers(g.n))
        proposals += 1
        d = int(degrees[v])
        if d == dmax:  # accept surely; skip the wasted uniform
            return v, proposals
        if d > 0 and rng.random() < d / dmax:
            return v, proposals


_BLOCK = 1 << 18  # keys or pair entries handled at once in the overlap count


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique by sorting (numpy's hash-based unique is slower on the large
    key arrays here)."""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] != x[:-1]])] if x.size else x


def _in_sorted(hay: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Membership of each of `x` in the sorted array `hay`."""
    if hay.size == 0:
        return np.zeros(x.size, dtype=bool)
    i = np.searchsorted(hay, x)
    i[i == hay.size] = 0
    return hay[i] == x


def _next_layers(g: Graph, cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """BFS layers r+1 of several sources at once. Layers are sorted keys
    source*n + vertex; the neighbours of layer r lie in layers r-1, r and
    r+1, so `cur` (layer r) and `prev` (layer r-1) are all the visited set
    needed. Sources go in blocks of about _BLOCK arcs."""
    n = g.n
    vert = cur % n
    deg = g.offsets[vert + 1] - g.offsets[vert]
    arcs = np.cumsum(deg)
    cuts = np.searchsorted(arcs, np.arange(_BLOCK, int(arcs[-1]) if arcs.size else 0, _BLOCK))
    cuts = np.searchsorted(cur, cur[cuts] // n * n)  # back to the start of a source's block
    bounds = np.unique(np.concatenate([[0], cuts, [cur.size]]))
    out = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = cur[lo:hi]
        keys = (np.repeat(block // n, deg[lo:hi]) * n
                + g.neighbors[_arc_index(g, vert[lo:hi])])
        keys = _sorted_unique(keys)
        last = prev[np.searchsorted(prev, block[0] // n * n):
                    np.searchsorted(prev, (block[-1] // n + 1) * n)]
        out.append(keys[~(_in_sorted(block, keys) | _in_sorted(last, keys))])
    return np.concatenate(out) if out else cur[:0]


def _meeting_pairs(cur: np.ndarray, prev: np.ndarray, n: int, s: int,
                   label: np.ndarray, met: np.ndarray) -> np.ndarray:
    """Sorted keys a*s + b (a < b), not in `met`, of the sources whose newest
    layer meets the newest or the previous layer of the other, from a sparse
    product over vertex columns in blocks of rows. `label` is n-sized
    scratch; only the entries of the vertices in the layers are used."""
    cur_v, prev_v = cur % n, prev % n
    label[prev_v] = np.arange(prev.size)
    label[cur_v] = prev.size + np.arange(cur.size)  # one column per vertex
    cols = prev.size + cur.size
    rows = np.arange(s + 1, dtype=np.int64) * n
    newest = sparse.csr_matrix((np.ones(cur.size, dtype=bool), label[cur_v],
                                np.searchsorted(cur, rows)), shape=(s, cols))
    previous = sparse.csr_matrix((np.ones(prev.size, dtype=bool), label[prev_v],
                                  np.searchsorted(prev, rows)), shape=(s, cols))
    recent = (newest + previous).T.tocsr()
    step = max(1, _BLOCK // s)
    keys = []
    for lo in range(0, s, step):
        hits = (newest[lo:lo + step] @ recent).tocoo()
        a = hits.row.astype(np.int64) + lo
        b = hits.col.astype(np.int64)
        a, b = np.minimum(a, b), np.maximum(a, b)
        new = _sorted_unique(a[a != b] * s + b[a != b])
        keys.append(new[~_in_sorted(met, new)])
    return _sorted_unique(np.concatenate(keys))


def _overlap_pairs(g: Graph, vertices, k: int) -> int:
    """Ordered pairs (i, j), i != j, of query indices whose k-balls overlap,
    i.e. dist(v_i, v_j) <= 2k; repeated vertices count with multiplicity.

    B_r(u) and B_r(w) meet iff dist(u, w) <= 2r, so the k-balls of the
    distinct vertices (the sources) grow in lockstep, one BFS layer per
    round. A pair at distance d is found at round r = ceil(d/2), where the
    new layer L_r of one source meets L_r or L_{r-1} of the other. The pairs
    met so far among the growing sources are kept sparse. A source stops
    growing, and its layers and pairs are dropped, once it has met every
    source still growing or exhausted its component: no later round could
    add a pair to it. No ball is held whole, and the cost is O(q |B_r|) at
    the radius r <= k where the pairs resolve, not O(q n).
    """
    src, mult = np.unique(np.asarray(vertices, dtype=np.int64), return_counts=True)
    s = src.size
    n = g.n
    found = int(mult @ mult)  # ordered pairs of equal vertices, self-pairs included
    alive = np.ones(s, dtype=bool)
    met = np.empty(0, dtype=np.int64)  # sorted pair keys a*s + b, a < b, both alive
    label = np.empty(n, dtype=np.int64)
    cur = np.arange(s, dtype=np.int64) * n + src  # layer r as keys source*n + vertex
    prev = cur[:0]
    for r in range(1, k + 1):
        prev, cur = cur, _next_layers(g, cur, prev)
        keys = _meeting_pairs(cur, prev, n, s, label, met)
        a, b = np.divmod(keys, s)
        found += 2 * int(mult[a] @ mult[b])
        met = np.insert(met, np.searchsorted(met, keys), keys)
        if r == k:
            break
        a, b = np.divmod(met, s)
        met_weight = (mult + np.bincount(a, weights=mult[b], minlength=s)
                      + np.bincount(b, weights=mult[a], minlength=s))
        grew = np.zeros(s, dtype=bool)
        grew[cur // n] = True
        done = alive & ((met_weight == mult[alive].sum()) | ~grew)
        alive &= ~done
        if not alive.any():
            break
        met = met[alive[a] & alive[b]]
        cur = cur[alive[cur // n]]
        prev = prev[alive[prev // n]]
    return found - int(mult.sum())


def _run_estimate(
    g: Graph,
    k: int,
    q: int,
    params: TransmissionParams,
    master_seed: int,
    threads: int,
    count_seed: bool,
    degree_biased: bool,
) -> EstimatorReport:
    if k < 1 or q < 1:
        raise ValueError(f"need k >= 1 and q >= 1, got k={k}, q={q}")
    degrees = g.degrees() if degree_biased else None
    dmax = int(degrees.max()) if degree_biased else 0
    if degree_biased and dmax == 0:
        raise ValueError("degree-biased seeding needs at least one edge")
    threshold = k if count_seed else k + 1

    def one(i: int):
        rng = rng_for(master_seed, "query", i)
        v, proposals = _draw_query_vertex(g, rng, degree_biased, degrees, dmax)
        return v, _spread_until(g, v, params.p, rng, threshold) >= threshold, proposals

    results = parallel_map(one, q, threads)
    successes = sum(r[1] for r in results)
    proposals = sum(r[2] for r in results)
    n_tilde = successes / q
    halfwidth = 1.96 * math.sqrt(max(n_tilde * (1 - n_tilde), 0.0) / q)
    overlap_pairs = _overlap_pairs(g, [r[0] for r in results], k)
    overlap_fraction = overlap_pairs / (q * (q - 1)) if q > 1 else 0.0
    return EstimatorReport(
        k=k, q=q, n_tilde=n_tilde, halfwidth=halfwidth, master_seed=master_seed,
        overlap_fraction=overlap_fraction, count_seed=count_seed,
        seeding="degree_biased" if degree_biased else "uniform",
        acceptance_rate=(q / proposals) if degree_biased else None,
    )


def estimate(
    g: Graph,
    k: int,
    q: int,
    params: TransmissionParams,
    master_seed: int,
    threads: int = 1,
    count_seed: bool = True,
) -> EstimatorReport:
    """Average of q local queries at uniformly random vertices, each on its
    own substream; each query's spread stops at its threshold. Also reports
    the exact fraction of query pairs whose k-balls overlap (balls overlap
    iff the query vertices are within distance 2k), computed once from all
    query vertices after the queries; overlapping pairs are measured, not
    rejected."""
    return _run_estimate(g, k, q, params, master_seed, threads, count_seed,
                         degree_biased=False)


def estimate_degree_biased(
    g: Graph,
    k: int,
    q: int,
    params: TransmissionParams,
    master_seed: int,
    threads: int = 1,
    count_seed: bool = True,
) -> EstimatorReport:
    """estimate() with seeds drawn proportional to degree via rejection
    sampling against the maximum degree; reports the acceptance rate."""
    return _run_estimate(g, k, q, params, master_seed, threads, count_seed,
                         degree_biased=True)


def adaptive_estimate(
    g: Graph,
    eps: float,
    params: TransmissionParams,
    master_seed: int,
    threads: int = 1,
    count_seed: bool = True,
    k0: int = 8,
) -> EstimatorReport:
    """Double k from k0 until two successive estimates differ by < eps/2,
    with q = ceil(8/eps^2) queries per stage on fresh substreams.

    If k outgrows the vertex count (the crude diameter proxy) the best
    effort so far is returned with truncated=True.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    q = math.ceil(8 / eps**2)
    schedule = []
    k = k0
    prev = None
    report = None
    stage = 0
    truncated = False
    while True:
        report = _run_estimate(g, k, q, params,
                               substream_seed(master_seed, "adaptive", stage),
                               threads, count_seed, degree_biased=False)
        schedule.append((k, q, report.n_tilde))
        if prev is not None and abs(report.n_tilde - prev) < eps / 2:
            break
        prev = report.n_tilde
        k *= 2
        stage += 1
        if k > g.n:  # no component can reach k; return best effort, flagged
            truncated = True
            break
    return replace(report, master_seed=master_seed, schedule=tuple(schedule),
                   truncated=truncated)


# ---------------------------------------------------------------------------
# outbreak-size experiment


@dataclass(frozen=True)
class OutbreakHistogram:
    """Relative outbreak sizes from single uniform seeds, with band masses."""

    seeds: np.ndarray
    final_sizes: np.ndarray
    relative_sizes: np.ndarray
    delta: float
    zeta_ref: float | None
    band_masses: dict
    master_seed: int

    def summary_dict(self) -> dict:
        return {
            "trials": int(len(self.final_sizes)),
            "delta": self.delta,
            "zeta_ref": self.zeta_ref,
            "band_masses": self.band_masses,
            "master_seed": self.master_seed,
            "mean_relative_size": float(self.relative_sizes.mean()),
        }


def band_masses(relative_sizes: np.ndarray, delta: float, zeta_ref: float | None) -> dict:
    """Fractions of mass in [0, delta), [delta, zeta-delta), [zeta-delta, 1].

    Without a reference zeta only the low band is defined.
    """
    n = len(relative_sizes)
    low = float(np.count_nonzero(relative_sizes < delta)) / n
    if zeta_ref is None:
        return {"low": low}
    upper_cut = zeta_ref - delta
    middle = float(np.count_nonzero((relative_sizes >= delta) & (relative_sizes < upper_cut))) / n
    upper = float(np.count_nonzero(relative_sizes >= upper_cut)) / n
    return {"low": low, "middle": middle, "upper": upper}


def outbreak_histogram(
    g: Graph,
    trials: int,
    params: TransmissionParams,
    master_seed: int,
    delta: float = 0.05,
    zeta_ref: float | None = None,
    threads: int = 1,
) -> OutbreakHistogram:
    """Final-size distribution over single uniform-seed SIR runs.

    A trial needs only the final size, which by the percolation coupling is
    |C(seed)| under the trial's edge mask, so it calls `reach_size` rather
    than `run_sir` and builds no generations. Each trial draws what `run_sir`
    would: the seed `rng.integers(n)`, then `rng.random(m) < p`.

    Band masses use a fixed relative bandwidth `delta` around 0 and around
    the reference zeta (a desk-scale surrogate for asymptotic bands; the
    bandwidth is recorded in the output).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if zeta_ref is not None and not 0 <= zeta_ref <= 1:
        raise ValueError(f"zeta_ref must lie in [0, 1], got {zeta_ref}")

    def one(t: int):
        rng = rng_for(master_seed, "outbreak", t)
        seed_v = int(rng.integers(g.n))
        return seed_v, reach_size(g, seed_v, rng.random(g.m) < params.p)

    rows = parallel_map(one, trials, threads)
    seeds = np.array([r[0] for r in rows], dtype=np.int64)
    sizes = np.array([r[1] for r in rows], dtype=np.int64)
    rel = sizes / g.n
    return OutbreakHistogram(
        seeds=seeds, final_sizes=sizes, relative_sizes=rel, delta=delta,
        zeta_ref=zeta_ref, band_masses=band_masses(rel, delta, zeta_ref),
        master_seed=master_seed,
    )
