"""Immutable compressed-adjacency graphs: traversal, components, boundaries,
and the large-set expansion functionals.

Vertices are dense integers 0..n-1. The canonical edge list is sorted
lexicographically with u < v; the position of an edge in that list is its
edge id, which fixes mask bit positions everywhere in the package.

Traversal has two routes. One layered numpy frontier loop (`_bfs_layers`)
gives hop distances (`bfs_distances`) and SIR generations (`masked_spread`,
which runs a plain Python loop instead on graphs too small for numpy to
pay). The C reach kernel (`reach_size`) gives only |C(v)| under an edge
mask, through scipy's breadth-first search on the masked CSR. The local
query's lazy-draw spread lives in `epidemic`.
"""

from __future__ import annotations

import bisect
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


def _bfs_layers(g: Graph, frontier: np.ndarray, bits: np.ndarray | None = None,
                limit: int | None = None):
    """Layered BFS from `frontier` (sorted distinct int64 vertices), over the
    open edges of `bits` (every edge when None), for at most `limit` hops.

    Returns (visited, layers): the reached-vertex mask and the nonempty BFS
    layers, layer 0 being `frontier`.
    """
    visited = np.zeros(g.n, dtype=bool)
    visited[frontier] = True
    layers = []
    scratch = np.empty(g.n, dtype=bool)
    while frontier.size:
        layers.append(frontier)
        if limit is not None and len(layers) > limit:
            break
        idx = _arc_index(g, frontier)
        if bits is not None:
            idx = idx[bits[g.arc_edge_ids[idx]]]
        nbrs = g.neighbors[idx]
        frontier = _dedup_unvisited(g, nbrs[~visited[nbrs]], scratch).astype(np.int64, copy=False)
        visited[frontier] = True
    return visited, layers


def bfs_distances(g: Graph, sources, limit: int | None = None) -> np.ndarray:
    """Hop distances from a source set; -1 where unreached within `limit`."""
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    if frontier.size and ((frontier < 0).any() or (frontier >= g.n).any()):
        raise GraphError(f"source vertex out of range [0, {g.n})")
    dist = np.full(g.n, -1, dtype=np.int32)
    for d, layer in enumerate(_bfs_layers(g, frontier, limit=limit)[1]):
        dist[layer] = d
    return dist


_SCALAR_CUTOFF = 256  # below this, python BFS beats numpy call overhead


def _masked_spread_scalar(g: Graph, sources: np.ndarray, bits: np.ndarray):
    offsets = g.offsets
    neigh = g.neighbors
    eids = g.arc_edge_ids
    visited = np.zeros(g.n, dtype=bool)
    layers = []
    frontier = list(set(sources.tolist()))
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


def masked_spread(g: Graph, sources, bits: np.ndarray):
    """Breadth-first reach from `sources` using only open edges.

    Returns (visited, layers): the reached-vertex mask and the BFS layers in
    discovery order (layer 0 is the set of distinct sources). This is the
    traversal route used by the SIR engine, independent of components(). A
    mask whose length is not m raises GraphError.
    """
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if sources.size == 0:
        raise GraphError("source set must be nonempty")
    if (sources < 0).any() or (sources >= g.n).any():
        raise GraphError(f"source vertex out of range [0, {g.n})")
    bits = mask_bits(g, bits)
    if g.n < _SCALAR_CUTOFF:
        return _masked_spread_scalar(g, sources, bits)
    return _bfs_layers(g, np.unique(sources), bits)


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
    d = np.asarray(degrees, dtype=np.int64).reshape(-1)
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
    """Vertices sorted by the Fiedler vector; degree order on failure.

    On a disconnected graph the eigenvalue 0 is degenerate and ARPACK would
    return an arbitrary mix of its eigenvectors, so the vertices are stably
    ordered by component label instead.
    """
    fallback = np.lexsort((np.arange(g.n), g.degrees()))
    if g.n < 3 or g.m == 0:
        return fallback
    comp = components(g, np.ones(g.m, dtype=bool))
    if comp.sizes.size > 1:
        return np.argsort(comp.labels, kind="stable")
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


class _Cut:
    """A vertex set whose boundary stays current under one-vertex flips.

    Both boundaries sum over the vertices u outside the set: the edge
    boundary counts cnt[u], u's neighbours in the set, and the vertex
    boundary counts min(cnt[u], 1). `cap` is that clip (n for edges, which
    no count reaches), so one flip in O(degree) serves both modes.
    """

    def __init__(self, g: Graph, members, mode: str):
        in_a = member_mask(g, members)
        self.g = g
        self.in_a = in_a.tolist()
        self.cnt = np.bincount(g.neighbors[in_a[g.arc_src]], minlength=g.n).tolist()
        self.size = int(np.count_nonzero(in_a))
        self.cap = g.n if mode == "edge" else 1
        self.cost = (edge_boundary if mode == "edge" else vertex_boundary)(g, in_a)

    def flip(self, v: int) -> None:
        """Move v into the set, or out of it when it is in."""
        in_a, cnt, cap = self.in_a, self.cnt, self.cap
        s = -1 if in_a[v] else 1
        in_a[v] = s > 0
        self.size += s
        cost = self.cost - s * min(cnt[v], cap)
        for u in self.g.neighbors_of(v).tolist():
            c = cnt[u]
            cnt[u] = c + s
            if not in_a[u]:
                cost += min(c + s, cap) - min(c, cap)
        self.cost = cost


def _sweep_best(g: Graph, order: np.ndarray, lo: int, hi: int, mode: str):
    """Best prefix of `order` with size in [lo, hi], one flip per vertex."""
    cut = _Cut(g, [], mode)
    best = None  # (cost, size)
    for v in order[:hi].tolist():
        cut.flip(v)
        if cut.size >= lo and (best is None or cut.cost * best[1] < best[0] * cut.size):
            best = (cut.cost, cut.size)
    cost, size = best
    return cost, size, np.sort(order[:size]).astype(np.int64)


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

    def consider(cost: int, size: int, members):
        nonlocal best_cost, best_size, best_set
        if best_cost is None or cost * best_size < best_cost * size:
            best_cost, best_size, best_set = cost, size, np.sort(members).astype(np.int64)

    order = _fiedler_order(g, seed)
    for o in (order, order[::-1]):
        consider(*_sweep_best(g, o, lo, hi, mode))

    # randomized local moves within the size window, with restarts: a move
    # flips its vertices in the cut and flips them back when rejected
    spent = stale = 0
    cur = best_set.tolist()  # kept sorted: a drop picks cur[i] by a drawn index
    cut = _Cut(g, cur, mode)
    while spent < budget:
        move = rng.integers(3)
        if move == 0 and cut.size < hi:
            add, drop = int(rng.integers(g.n)), None
        elif move == 1 and cut.size > lo:
            add, drop = None, cur[int(rng.integers(cut.size))]
        else:
            add, drop = int(rng.integers(g.n)), cur[int(rng.integers(cut.size))]
        if add is not None and cut.in_a[add]:
            continue
        spent += 1
        flips = [v for v in (add, drop) if v is not None]
        cost0, size0 = cut.cost, cut.size
        for v in flips:
            cut.flip(v)
        # accept a lower cost/size ratio, or an equal one on a larger set
        if (cut.cost * size0, -cut.size) < (cost0 * cut.size, -size0):
            if drop is not None:
                del cur[bisect.bisect_left(cur, drop)]
            if add is not None:
                bisect.insort(cur, add)
            consider(cut.cost, cut.size, cur)
            stale = 0
        else:
            for v in flips:
                cut.flip(v)
            stale += 1
            if stale > 8 * g.n:
                size = int(rng.integers(lo, hi + 1))
                cur = np.sort(rng.choice(g.n, size=size, replace=False)).tolist()
                cut = _Cut(g, cur, mode)
                consider(cut.cost, size, cur)
                spent += 1
                stale = 0

    frac = Fraction(int(best_cost), int(best_size))
    return ExpansionReport(eps, mode, float(frac), frac, best_set, False)
