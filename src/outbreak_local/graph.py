"""Immutable compressed-adjacency graphs: traversal, components, boundaries,
and the large-set expansion functionals.

Vertices are dense integers 0..n-1. The canonical edge list is sorted
lexicographically with u < v; the position of an edge in that list is its
edge id, which fixes mask bit positions everywhere in the package.

Traversal has two routes. The layered numpy BFS (`bfs_distances`,
`masked_spread`) gives hop distances and SIR generations. The C reach
kernel (`reach_size`) gives only |C(v)| under an edge mask, through scipy's
breadth-first search on the masked CSR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph
from scipy.sparse.linalg import eigsh


class GraphError(ValueError):
    """Invalid graph input (bad endpoint, self-loop, mask mismatch)."""


class ExpansionCapError(ValueError):
    """Exact expansion requested above the enumeration cap; use the heuristic."""


class Graph:
    """Undirected simple graph in CSR form, immutable after construction.

    Attributes:
        n: vertex count.
        m: edge count.
        edges: (m, 2) int32 array, canonical sorted edge list (u < v).
        offsets: (n+1,) int64 CSR row offsets.
        neighbors: (2m,) int32 CSR neighbor array, sorted per vertex.
        arc_src: (2m,) int32 source vertex of each CSR arc.
        arc_edge_ids: (2m,) int32 canonical edge id of each CSR arc.
        meta: provenance dict (generator, seed, flags); not part of identity.
    """

    __slots__ = ("n", "m", "edges", "offsets", "neighbors", "arc_src", "arc_edge_ids", "meta")

    def __init__(self, n, edges, offsets, neighbors, arc_src, arc_edge_ids, meta=None):
        self.n = int(n)
        self.m = int(len(edges))
        self.edges = edges
        self.offsets = offsets
        self.neighbors = neighbors
        self.arc_src = arc_src
        self.arc_edge_ids = arc_edge_ids
        self.meta = dict(meta or {})
        for a in (self.edges, self.offsets, self.neighbors, self.arc_src, self.arc_edge_ids):
            a.setflags(write=False)

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def neighbors_of(self, v: int) -> np.ndarray:
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def max_degree(self) -> int:
        return int(self.degrees().max()) if self.n else 0

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(edge_list, n: int, *, meta=None) -> Graph:
    """Canonical Graph from an edge list: validates, dedups, sorts.

    Raises GraphError on a self-loop or an out-of-range endpoint, naming the
    offending edge. Duplicate edges (in either orientation) are merged.
    """
    n = int(n)
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    e = np.asarray(edge_list, dtype=np.int64)
    if e.size == 0:
        e = e.reshape(0, 2)
    if e.ndim != 2 or e.shape[1] != 2:
        raise GraphError(f"edge list must be pairs, got shape {e.shape}")
    if e.size:
        out = (e < 0) | (e >= n)
        if out.any():
            i = int(np.flatnonzero(out.any(axis=1))[0])
            raise GraphError(f"edge endpoint out of range [0, {n}): {tuple(e[i])}")
        loops = e[:, 0] == e[:, 1]
        if loops.any():
            i = int(np.flatnonzero(loops)[0])
            raise GraphError(f"self-loop not allowed: {tuple(e[i])}")
        canon = np.unique(np.stack([e.min(axis=1), e.max(axis=1)], axis=1), axis=0)
    else:
        canon = e
    m = len(canon)
    eid = np.arange(m, dtype=np.int32)
    src = np.concatenate([canon[:, 0], canon[:, 1]])
    dst = np.concatenate([canon[:, 1], canon[:, 0]])
    eids2 = np.concatenate([eid, eid])
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return Graph(
        n=n,
        edges=canon.astype(np.int32),
        offsets=offsets,
        neighbors=dst[order].astype(np.int32),
        arc_src=src[order].astype(np.int32),
        arc_edge_ids=eids2[order],
        meta=meta,
    )


# ---------------------------------------------------------------------------
# edge-list text format: one "u v" per line, 0-based, '#' starts a comment


def load_edge_list(path, n: int | None = None, *, meta=None) -> Graph:
    """Read the text edge-list format. n defaults to max endpoint + 1."""
    edges = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        n = 1 + max((max(u, v) for u, v in edges), default=-1)
    return build_graph(edges, n, meta=meta)


def save_edge_list(g: Graph, path, *, comments: list[str] | None = None) -> None:
    """Write the canonical edge list (defines mask bit positions)."""
    lines = [f"# {c}" for c in (comments or [])]
    lines.extend(f"{u} {v}" for u, v in g.edges.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# traversal


def _arc_index(g: Graph, frontier: np.ndarray) -> np.ndarray:
    """CSR positions of all arcs out of the frontier (with repetition)."""
    starts = g.offsets[frontier]
    counts = g.offsets[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    cum = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) + np.repeat(starts - cum + counts, counts)


def _gather_neighbors(g: Graph, frontier: np.ndarray) -> np.ndarray:
    return g.neighbors[_arc_index(g, frontier)]


def _gather_arcs(g: Graph, frontier: np.ndarray):
    """CSR arcs out of the frontier: (neighbor, edge id) with repetition."""
    idx = _arc_index(g, frontier)
    return g.neighbors[idx], g.arc_edge_ids[idx]


def _dedup_unvisited(g: Graph, cand: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Unique candidate vertices; `cand` must already exclude visited ones.

    Sort-based for small batches, scatter into a scratch bool array when the
    batch is large enough that O(n) beats O(x log x).
    """
    if cand.size < g.n // 16:
        return np.unique(cand)
    scratch[:] = False
    scratch[cand] = True
    return np.flatnonzero(scratch)


def bfs_distances(g: Graph, sources, limit: int | None = None) -> np.ndarray:
    """Hop distances from a source set; -1 where unreached within `limit`."""
    dist = np.full(g.n, -1, dtype=np.int32)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    if frontier.size and ((frontier < 0).any() or (frontier >= g.n).any()):
        raise GraphError(f"source vertex out of range [0, {g.n})")
    dist[frontier] = 0
    d = 0
    unvisited = np.ones(g.n, dtype=bool)
    unvisited[frontier] = False
    scratch = np.empty(g.n, dtype=bool)
    while frontier.size and (limit is None or d < limit):
        nbrs = _gather_neighbors(g, frontier)
        nbrs = nbrs[unvisited[nbrs]]
        if nbrs.size == 0:
            break
        frontier = _dedup_unvisited(g, nbrs, scratch)
        unvisited[frontier] = False
        d += 1
        dist[frontier] = d
    return dist


def bfs_ball(g: Graph, v: int, k: int):
    """Vertices at distance <= k from v, with their distances.

    Returns (vertices, distances), aligned arrays sorted by vertex id.
    """
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range [0, {g.n})")
    if k < 0:
        raise ValueError(f"radius must be >= 0, got {k}")
    dist = bfs_distances(g, [v], limit=k)
    verts = np.flatnonzero(dist >= 0)
    return verts, dist[verts]


_SCALAR_CUTOFF = 256  # below this, python BFS beats numpy call overhead


def _masked_spread_scalar(g: Graph, sources: np.ndarray, bits: np.ndarray):
    offsets = g.offsets
    neigh = g.neighbors
    eids = g.arc_edge_ids
    visited = np.zeros(g.n, dtype=bool)
    layers = []
    frontier = [int(v) for v in sources]
    for v in frontier:
        visited[v] = True
    while frontier:
        layers.append(np.array(sorted(frontier), dtype=np.int64))
        nxt = []
        for v in frontier:
            for j in range(offsets[v], offsets[v + 1]):
                w = int(neigh[j])
                if not visited[w] and bits[eids[j]]:
                    visited[w] = True
                    nxt.append(w)
        frontier = nxt
    return visited, layers


def _masked_spread_vector(g: Graph, sources: np.ndarray, bits: np.ndarray):
    visited = np.zeros(g.n, dtype=bool)
    frontier = np.unique(sources)
    visited[frontier] = True
    layers = []
    scratch = np.empty(g.n, dtype=bool)
    while frontier.size:
        layers.append(frontier.astype(np.int64))
        nbrs, arcs = _gather_arcs(g, frontier)
        keep = bits[arcs] & ~visited[nbrs]
        frontier = _dedup_unvisited(g, nbrs[keep], scratch)
        visited[frontier] = True
    return visited, layers


def masked_spread(g: Graph, sources, bits: np.ndarray):
    """Breadth-first reach from `sources` using only open edges.

    Returns (visited, layers): the reached-vertex mask and the BFS layers in
    discovery order (layer 0 is the source set). This is the traversal route
    used by the SIR engine, independent of components().
    """
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if sources.size == 0:
        raise GraphError("source set must be nonempty")
    if (sources < 0).any() or (sources >= g.n).any():
        raise GraphError(f"source vertex out of range [0, {g.n})")
    if g.n < _SCALAR_CUTOFF:
        return _masked_spread_scalar(g, sources, bits)
    return _masked_spread_vector(g, sources, bits)


def reach_size(g: Graph, v: int, bits: np.ndarray) -> int:
    """|C(v)| in the subgraph of open edges, by scipy's C breadth-first search.

    Closed arcs are pointed back at their own source; a self-loop adds
    nothing to a BFS, so the row offsets stay `g.offsets` and nothing is
    compacted. The CSR already holds both arcs of each edge, so the search
    runs directed. Data and row offsets are float64 and int32, the types
    csgraph uses inside, so it takes the matrix without a copy.
    """
    v = int(v)
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range [0, {g.n})")
    if 2 * g.m > np.iinfo(np.int32).max:
        raise GraphError(f"reach_size needs 2m within int32, got m={g.m}")
    bits = mask_bits(g, bits)
    idx = np.where(bits.take(g.arc_edge_ids), g.neighbors, g.arc_src)
    a = sparse.csr_matrix(
        (np.ones(idx.size, dtype=np.float64), idx, g.offsets.astype(np.int32)),
        shape=(g.n, g.n),
    )
    return int(csgraph.breadth_first_order(a, v, directed=True,
                                           return_predecessors=False).size)


# ---------------------------------------------------------------------------
# components under an edge mask


@dataclass(frozen=True)
class ComponentStats:
    """Connected components of the open subgraph under an edge mask."""

    labels: np.ndarray        # per-vertex component id
    sizes: np.ndarray         # component sizes, descending
    giant_fraction: float     # sizes[0] / n
    label_sizes: np.ndarray   # size per raw label id (for size_of lookups)

    def size_of(self, v: int) -> int:
        return int(self.label_sizes[self.labels[v]])

    def union_size(self, seeds) -> int:
        """Total size of the union of the components of the seed vertices."""
        labs = np.unique(self.labels[np.asarray(seeds, dtype=np.int64)])
        return int(self.label_sizes[labs].sum())


def mask_bits(g: Graph, mask) -> np.ndarray:
    """Boolean open-edge array from an EdgeMask-like object or raw array."""
    bits = np.asarray(getattr(mask, "bits", mask), dtype=bool)
    if bits.shape != (g.m,):
        raise GraphError(f"mask length {bits.shape} does not match m={g.m}")
    return bits


def components(g: Graph, mask) -> ComponentStats:
    """Components of the graph restricted to open edges, recomputed per mask."""
    bits = mask_bits(g, mask)
    if g.n == 0:
        z = np.empty(0, np.int64)
        return ComponentStats(np.empty(0, np.int32), z, 0.0, z)
    open_e = g.edges[bits]
    adj = sparse.coo_matrix(
        (np.ones(len(open_e), dtype=np.int8), (open_e[:, 0], open_e[:, 1])),
        shape=(g.n, g.n),
    )
    ncomp, labels = csgraph.connected_components(adj, directed=False)
    label_sizes = np.bincount(labels, minlength=ncomp).astype(np.int64)
    sizes = np.sort(label_sizes)[::-1]
    return ComponentStats(
        labels=labels.astype(np.int32),
        sizes=sizes,
        giant_fraction=float(sizes[0]) / g.n,
        label_sizes=label_sizes,
    )


# ---------------------------------------------------------------------------
# boundaries


def member_mask(g: Graph, vertex_set) -> np.ndarray:
    """Boolean membership array from a vertex iterable or boolean array."""
    a = np.asarray(vertex_set)
    if a.dtype == bool:
        if a.shape != (g.n,):
            raise GraphError(f"membership mask length {a.shape} != n={g.n}")
        return a
    a = a.astype(np.int64).reshape(-1)
    if a.size and ((a < 0).any() or (a >= g.n).any()):
        raise GraphError(f"vertex out of range [0, {g.n})")
    out = np.zeros(g.n, dtype=bool)
    out[a] = True
    return out


def edge_boundary(g: Graph, vertex_set) -> int:
    """e(A, V-A): edges with exactly one endpoint in A."""
    in_a = member_mask(g, vertex_set)
    if g.m == 0:
        return 0
    return int(np.count_nonzero(in_a[g.edges[:, 0]] != in_a[g.edges[:, 1]]))


def vertex_boundary(g: Graph, vertex_set) -> int:
    """delta_out(A): vertices outside A with at least one neighbor in A."""
    in_a = member_mask(g, vertex_set)
    if g.m == 0:
        return 0
    hit = np.zeros(g.n, dtype=bool)
    hit[g.neighbors[in_a[g.arc_src]]] = True
    return int(np.count_nonzero(hit & ~in_a))


# ---------------------------------------------------------------------------
# degree sequences


def check_graphical(degrees) -> bool:
    """Erdos-Gallai test: is there a simple graph with this degree sequence?"""
    d = np.asarray(getattr(degrees, "degrees", degrees), dtype=np.int64).reshape(-1)
    if d.size == 0:
        return True
    if (d < 0).any():
        return False
    if int(d.sum()) % 2 != 0:
        return False
    ds = np.sort(d)[::-1]
    if ds[0] == 0:
        return True
    n = d.size
    prefix = np.cumsum(ds)
    ks = np.arange(1, n + 1, dtype=np.int64)
    asc = ds[::-1]
    asc_prefix = np.concatenate([[0], np.cumsum(asc)])
    below = np.searchsorted(asc, ks, side="left")  # entries < k overall
    cnt_small = np.minimum(below, n - ks)          # entries < k in the k-tail
    sum_small = asc_prefix[cnt_small]
    cnt_big = n - ks - cnt_small
    rhs = ks * (ks - 1) + sum_small + cnt_big * ks
    return bool(np.all(prefix <= rhs))


@dataclass(frozen=True)
class DegreeSequence:
    """A prescribed degree sequence d_1..d_n."""

    degrees: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.degrees, dtype=np.int64).reshape(-1)
        if d.size and (d < 0).any():
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "degrees", d)

    @property
    def n(self) -> int:
        return int(self.degrees.size)

    def total(self) -> int:
        return int(self.degrees.sum())

    def is_graphical(self) -> bool:
        return check_graphical(self.degrees)


# ---------------------------------------------------------------------------
# large-set expansion


@dataclass(frozen=True)
class ExpansionReport:
    """Minimum boundary-to-size ratio over sets with eps*n <= |A| <= n/2.

    `value` is exactly `value_fraction`; when exact=True it is the true
    minimum, otherwise an upper bound attained by `witness_set`.
    """

    epsilon: float
    mode: str
    value: float
    value_fraction: Fraction
    witness_set: np.ndarray
    exact: bool

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def size_window(n: int, eps: float) -> tuple[int, int]:
    """Feasible set sizes [ceil(eps*n), floor(n/2)].

    eps*n is evaluated in exact rational arithmetic on the binary value of
    eps, so boundaries do not depend on float rounding quirks.
    """
    if not (0 < eps < 0.5):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps}")
    lo = max(1, math.ceil(Fraction(eps) * n))
    hi = n // 2
    if lo > hi:
        raise ValueError(f"no feasible set size: ceil(eps*n)={lo} > floor(n/2)={hi}")
    return lo, hi


def _popcount32(x: np.ndarray) -> np.ndarray:
    x = x - ((x >> np.uint32(1)) & np.uint32(0x55555555))
    x = (x & np.uint32(0x33333333)) + ((x >> np.uint32(2)) & np.uint32(0x33333333))
    x = (x + (x >> np.uint32(4))) & np.uint32(0x0F0F0F0F)
    return (x * np.uint32(0x01010101)) >> np.uint32(24)


def _boundary_cost(g: Graph, in_a: np.ndarray, mode: str) -> int:
    if mode == "edge":
        return edge_boundary(g, in_a)
    if mode == "vertex":
        return vertex_boundary(g, in_a)
    raise ValueError(f"mode must be 'edge' or 'vertex', got {mode!r}")


def expansion_exact(g: Graph, eps: float, mode: str = "edge", cap: int = 20) -> ExpansionReport:
    """Exact minimum by enumerating all 2^n subsets; refuses n above `cap`."""
    if mode not in ("edge", "vertex"):
        raise ValueError(f"mode must be 'edge' or 'vertex', got {mode!r}")
    if g.n > cap:
        raise ExpansionCapError(
            f"n={g.n} exceeds exact enumeration cap {cap}; use expansion_heuristic"
        )
    if g.n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    lo, hi = size_window(g.n, eps)
    nmask = 1 << g.n
    s = np.arange(nmask, dtype=np.uint32)
    pc = _popcount32(s)
    cost = np.zeros(nmask, dtype=np.uint32)
    if mode == "edge":
        for u, v in g.edges.tolist():
            cost += ((s >> np.uint32(u)) ^ (s >> np.uint32(v))) & np.uint32(1)
    else:
        for v in range(g.n):
            nbrs = g.neighbors_of(v)
            if nbrs.size == 0:
                continue
            acc = s >> np.uint32(nbrs[0])
            for u in nbrs[1:]:
                acc = acc | (s >> np.uint32(u))
            cost += (acc & np.uint32(1)) & ((~(s >> np.uint32(v))) & np.uint32(1))
    feasible = (pc >= lo) & (pc <= hi)
    ratio = np.where(feasible, cost / np.maximum(pc, 1), np.inf)
    best = int(np.argmin(ratio))
    witness = np.flatnonzero((best >> np.arange(g.n)) & 1).astype(np.int64)
    frac = Fraction(int(cost[best]), int(pc[best]))
    return ExpansionReport(eps, mode, float(frac), frac, witness, True)


def _fiedler_order(g: Graph, seed: int) -> np.ndarray:
    """Vertices sorted by the Fiedler vector; degree order on failure."""
    fallback = np.lexsort((np.arange(g.n), g.degrees()))
    if g.n < 3 or g.m == 0:
        return fallback
    try:
        lap = csgraph.laplacian(
            sparse.csr_matrix(
                (np.ones(2 * g.m, dtype=np.float64),
                 (np.concatenate([g.edges[:, 0], g.edges[:, 1]]),
                  np.concatenate([g.edges[:, 1], g.edges[:, 0]]))),
                shape=(g.n, g.n),
            )
        )
        v0 = np.random.Generator(np.random.PCG64(seed)).standard_normal(g.n)
        _, vecs = eigsh(lap.astype(np.float64), k=2, which="SA", v0=v0,
                        maxiter=max(1000, 20 * g.n), tol=1e-8)
        return np.argsort(vecs[:, 1], kind="stable")
    except Exception:
        return fallback


def _sweep_best(g: Graph, order: np.ndarray, lo: int, hi: int, mode: str):
    """Best prefix of `order` with size in [lo, hi]; incremental boundary."""
    in_a = np.zeros(g.n, dtype=bool)
    best = None  # (cost, size)
    if mode == "edge":
        cur = 0
        for i, v in enumerate(order.tolist()):
            inside = int(np.count_nonzero(in_a[g.neighbors_of(v)]))
            cur += g.degree(v) - 2 * inside
            in_a[v] = True
            size = i + 1
            if size > hi:
                break
            if size >= lo and (best is None or cur * best[1] < best[0] * size):
                best = (cur, size, i + 1)
    else:
        cnt = np.zeros(g.n, dtype=np.int64)  # neighbors-in-A per vertex
        cur = 0
        for i, v in enumerate(order.tolist()):
            if cnt[v] > 0:
                cur -= 1  # v leaves the outside boundary
            for u in g.neighbors_of(v).tolist():
                if not in_a[u] and cnt[u] == 0:
                    cur += 1
                cnt[u] += 1
            in_a[v] = True
            size = i + 1
            if size > hi:
                break
            if size >= lo and (best is None or cur * best[1] < best[0] * size):
                best = (cur, size, i + 1)
    if best is None:
        return None
    cost, size, klen = best
    return cost, size, np.sort(order[:klen]).astype(np.int64)


def expansion_heuristic(
    g: Graph,
    eps: float,
    mode: str = "edge",
    budget: int = 2000,
    seed: int = 0,
) -> ExpansionReport:
    """Witness search: Fiedler sweep cut plus randomized local moves.

    Always returns a feasible witness, so `value` is a certified upper bound
    on the exact minimum. `budget` caps the number of candidate evaluations
    spent on local moves and restarts.
    """
    if mode not in ("edge", "vertex"):
        raise ValueError(f"mode must be 'edge' or 'vertex', got {mode!r}")
    if g.n < 2:
        raise ValueError("expansion needs at least 2 vertices")
    lo, hi = size_window(g.n, eps)
    rng = np.random.Generator(np.random.PCG64(seed))

    best_cost, best_size, best_set = None, None, None

    def consider(cost: int, size: int, members: np.ndarray):
        nonlocal best_cost, best_size, best_set
        if best_cost is None or cost * best_size < best_cost * size:
            best_cost, best_size, best_set = cost, size, np.sort(members).astype(np.int64)

    order = _fiedler_order(g, seed)
    for o in (order, order[::-1]):
        hit = _sweep_best(g, o, lo, hi, mode)
        if hit is not None:
            consider(*hit)

    # randomized local moves within the size window, with restarts
    spent = 0
    cur = best_set.copy() if best_set is not None else np.sort(order[:lo]).astype(np.int64)
    stale = 0
    while spent < budget:
        move = rng.integers(3)
        cand = None
        cur_set = set(cur.tolist())
        if move == 0 and len(cur) < hi:
            v = int(rng.integers(g.n))
            if v not in cur_set:
                cand = np.append(cur, v)
        elif move == 1 and len(cur) > lo:
            i = int(rng.integers(len(cur)))
            cand = np.delete(cur, i)
        else:
            v = int(rng.integers(g.n))
            i = int(rng.integers(len(cur)))
            if v not in cur_set:
                cand = cur.copy()
                cand[i] = v
        if cand is None:
            continue
        spent += 1
        cost = _boundary_cost(g, cand, mode)
        size = len(cand)
        cur_cost = _boundary_cost(g, cur, mode)
        if cost * len(cur) < cur_cost * size or (cost * len(cur) == cur_cost * size and size > len(cur)):
            cur = np.sort(cand)
            consider(cost, size, cand)
            stale = 0
        else:
            stale += 1
            if stale > 8 * g.n:
                size = int(rng.integers(lo, hi + 1))
                cur = np.sort(rng.choice(g.n, size=size, replace=False)).astype(np.int64)
                consider(_boundary_cost(g, cur, mode), size, cur)
                spent += 1
                stale = 0

    frac = Fraction(int(best_cost), int(best_size))
    return ExpansionReport(eps, mode, float(frac), frac, best_set, False)
