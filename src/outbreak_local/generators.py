"""Random graph constructions: uniform simple configuration model, conditional
preferential attachment, motif overlays, and the two-block counterexample.

Every generator is a pure function of (parameters, seed).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, build_graph, check_graphical, components
from .seeds import rng_for, substream_seed


class GeneratorError(ValueError):
    """Infeasible or inconsistent generator parameters."""


# ---------------------------------------------------------------------------
# configuration model


def _match_half_edges(degrees: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniform perfect matching of half-edges, as an (m, 2) pair array."""
    stubs = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    return stubs.reshape(-1, 2)


def _is_simple_pairing(pairs: np.ndarray, n: int) -> bool:
    if pairs.size == 0:
        return True
    u = pairs.min(axis=1)
    v = pairs.max(axis=1)
    if (u == v).any():
        return False
    key = u * n + v
    return np.unique(key).size == key.size


def gen_cm_simple(degrees, seed: int, max_retries: int = 1000) -> Graph:
    """Uniform simple graph with the prescribed degree sequence.

    Repeats uniform half-edge matching until the pairing is simple, which
    samples uniformly among simple graphs with these degrees. If the retry
    budget is exhausted (heavy-tailed sequences can make simplicity rare),
    falls back to erasing self-loops and collapsing multi-edges in the last
    matching; the output then carries meta["erased"] = True and degrees may
    be off.
    """
    degrees = np.asarray(degrees, dtype=np.int64).reshape(-1)
    if not check_graphical(degrees):
        raise GeneratorError(f"degree sequence is not graphical: {degrees[:10]}...")
    n = degrees.size
    rng = rng_for(seed, "cm")
    pairs = None
    for attempt in range(1, max_retries + 1):
        pairs = _match_half_edges(degrees, rng)
        if _is_simple_pairing(pairs, n):
            return build_graph(pairs, n, meta={
                "model": "cm", "seed": seed, "erased": False, "attempts": attempt,
            })
    if pairs is None:
        pairs = _match_half_edges(degrees, rng)
    keep = pairs[:, 0] != pairs[:, 1]
    return build_graph(pairs[keep], n, meta={
        "model": "cm", "seed": seed, "erased": True, "attempts": max_retries,
    })


def gen_k_regular(d: int, n: int, seed: int, max_retries: int = 1000) -> Graph:
    """Uniform simple d-regular graph on n vertices."""
    if d >= n:
        raise GeneratorError(f"need d < n, got d={d}, n={n}")
    if (d * n) % 2 != 0:
        raise GeneratorError(f"d*n must be even, got d={d}, n={n}")
    g = gen_cm_simple(np.full(n, d, dtype=np.int64), seed, max_retries)
    g.meta["model"] = "k_regular"
    g.meta["d"] = d
    return g


# ---------------------------------------------------------------------------
# conditional preferential attachment


def gen_pa(m: int, n: int, seed: int) -> Graph:
    """Conditional preferential attachment on n vertices with out-degree m.

    Starts from the complete graph on m+1 vertices (a fixed canonical seed
    graph; the asymptotics do not depend on it). Each arriving vertex t draws
    m i.i.d. degree-proportional targets among vertices < t and the whole
    m-tuple is resampled until all targets are distinct. Vertex ids are birth
    order, so every vertex past the seed graph has exactly m edges to
    strictly earlier vertices and the graph is connected.

    meta carries tuple-resampling counters: "proposals", "steps", and
    "collision_bound_sum" (the per-step union bound m^2 * maxdeg / sumdeg
    summed over arrivals).
    """
    if m < 2:
        raise GeneratorError(f"need m >= 2, got {m}")
    if n < 2 * m + 1:
        raise GeneratorError(f"need n >= 2m+1 = {2 * m + 1}, got {n}")
    rng = rng_for(seed, "pa")
    t0 = m + 1
    n_edges = t0 * (t0 - 1) // 2 + m * (n - t0)
    edges = np.empty((n_edges, 2), dtype=np.int64)
    ends = np.empty(2 * n_edges, dtype=np.int64)
    e = 0
    for u in range(t0):
        for v in range(u + 1, t0):
            edges[e] = (u, v)
            ends[2 * e] = u
            ends[2 * e + 1] = v
            e += 1
    length = 2 * e
    deg = np.zeros(n, dtype=np.int64)
    deg[:t0] = t0 - 1
    maxdeg = t0 - 1
    proposals = 0
    bound_sum = 0.0
    for t in range(t0, n):
        bound_sum += min(1.0, (m * (m - 1) / 2) * maxdeg / length)
        while True:
            proposals += 1
            idx = rng.integers(0, length, size=m)
            targets = ends[idx]
            if m == 2:
                ok = targets[0] != targets[1]
            else:
                ok = np.unique(targets).size == m
            if ok:
                break
        for w in targets:
            edges[e] = (w, t)
            ends[2 * e] = w
            ends[2 * e + 1] = t
            e += 1
            deg[w] += 1
            if deg[w] > maxdeg:
                maxdeg = deg[w]
        deg[t] = m
        length = 2 * e
    return build_graph(edges, n, meta={
        "model": "pa", "m": m, "seed": seed, "t0": t0,
        "proposals": proposals, "steps": n - t0, "collision_bound_sum": bound_sum,
    })


# ---------------------------------------------------------------------------
# motif overlays


@dataclass(frozen=True)
class Motif:
    """A small connected internal graph plus per-vertex external degrees."""

    internal: Graph
    ext_degrees: np.ndarray

    def __post_init__(self):
        ext = np.asarray(self.ext_degrees, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "ext_degrees", ext)
        if self.internal.n < 1:
            raise GeneratorError("motif needs at least one vertex")
        if ext.size != self.internal.n:
            raise GeneratorError(
                f"{ext.size} external degrees for {self.internal.n} motif vertices")
        if (ext < 0).any():
            raise GeneratorError("external degrees must be nonnegative")
        if self.internal.n > 1:
            full = np.ones(self.internal.m, dtype=bool)
            if components(self.internal, full).sizes[0] != self.internal.n:
                raise GeneratorError("motif internal graph must be connected")

    @property
    def size(self) -> int:
        return self.internal.n

    @property
    def total_ext(self) -> int:
        return int(self.ext_degrees.sum())


@dataclass(frozen=True)
class MotifDistribution:
    """Per-external-degree motif laws: degree d maps to [(Motif, prob)] with
    every listed motif having total external degree d."""

    tables: dict
    s_max: int = 0

    def __post_init__(self):
        observed_max = 0
        for d, entries in self.tables.items():
            if not entries:
                raise GeneratorError(f"empty motif table for degree {d}")
            total = 0.0
            for motif, prob in entries:
                if motif.total_ext != d:
                    raise GeneratorError(
                        f"motif with total external degree {motif.total_ext} "
                        f"registered under degree {d}")
                if prob < 0:
                    raise GeneratorError("motif probabilities must be nonnegative")
                total += prob
                observed_max = max(observed_max, motif.size)
            if abs(total - 1.0) > 1e-9:
                raise GeneratorError(f"motif table for degree {d} sums to {total}, not 1")
        s_max = self.s_max or observed_max
        if observed_max > s_max:
            raise GeneratorError(f"motif of size {observed_max} exceeds s_max={s_max}")
        object.__setattr__(self, "s_max", s_max)

    @classmethod
    def from_json_dict(cls, data: dict, s_max: int = 0) -> "MotifDistribution":
        """Parse {"d": [{"edges": [[u,v],...], "ext": [...], "p": w}, ...]}."""
        tables = {}
        for d_str, entries in data.items():
            d = int(d_str)
            table = []
            for entry in entries:
                ext = entry["ext"]
                internal = build_graph(entry.get("edges", []), len(ext))
                table.append((Motif(internal, np.asarray(ext)), float(entry["p"])))
            tables[d] = table
        return cls(tables, s_max)

    def to_json_dict(self) -> dict:
        out = {}
        for d, entries in sorted(self.tables.items()):
            out[str(d)] = [
                {"edges": m.internal.edges.tolist(), "ext": m.ext_degrees.tolist(), "p": p}
                for m, p in entries
            ]
        return out


@dataclass(frozen=True)
class OverlayResult:
    graph: Graph
    membership: np.ndarray      # overlay vertex -> external vertex id
    motif_offsets: np.ndarray   # external vertex -> first overlay vertex id
    motif_choice: np.ndarray    # external vertex -> index into its degree table


def gen_motif_overlay(g_ext: Graph, motifs: MotifDistribution, seed: int) -> OverlayResult:
    """Replace every external vertex of degree d by an independent draw from
    the degree-d motif table.

    Each of the vertex's d external edge endpoints is attached to a motif
    vertex through a uniformly random bijection onto the multiset {v repeated
    ext_degree(v) times}, so per-motif-vertex external degrees are met
    exactly; internal edges are added verbatim.
    """
    rng = rng_for(seed, "motif")
    deg = g_ext.degrees()
    present = np.unique(deg)
    for d in present.tolist():
        if d not in motifs.tables:
            raise GeneratorError(f"no motif table for observed external degree {d}")

    # choose a motif per external vertex, grouped by degree for vectorized draws
    choice = np.zeros(g_ext.n, dtype=np.int64)
    for d in present.tolist():
        idxs = np.flatnonzero(deg == d)
        table = motifs.tables[d]
        probs = np.array([p for _, p in table], dtype=np.float64)
        probs = probs / probs.sum()
        choice[idxs] = rng.choice(len(table), size=idxs.size, p=probs)

    groups = []  # (motif, vertices with that degree and table choice)
    for d in present.tolist():
        for ti, (motif, _) in enumerate(motifs.tables[d]):
            us = np.flatnonzero((deg == d) & (choice == ti))
            if us.size:
                groups.append((motif, us))

    sizes = np.zeros(g_ext.n, dtype=np.int64)
    for motif, us in groups:
        sizes[us] = motif.size
    offsets = np.zeros(g_ext.n + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    n_total = int(offsets[-1])
    membership = np.repeat(np.arange(g_ext.n, dtype=np.int64), sizes)

    # internal edges, tiled in bulk per group
    internal_chunks = []
    for motif, us in groups:
        if motif.internal.m == 0:
            continue
        base = np.repeat(offsets[us], motif.internal.m)
        tiled = np.tile(motif.internal.edges.astype(np.int64), (us.size, 1))
        internal_chunks.append(tiled + base[:, None])
    internal_edges = (np.concatenate(internal_chunks) if internal_chunks
                      else np.empty((0, 2), dtype=np.int64))

    # per-vertex slot targets: the ext-degree multiset, permuted per vertex
    # via random keys sorted within each vertex block
    slot_vertex = np.repeat(np.arange(g_ext.n, dtype=np.int64), deg)
    slot_base = np.zeros(g_ext.n + 1, dtype=np.int64)
    np.cumsum(deg, out=slot_base[1:])
    slot_local = np.empty(int(slot_base[-1]), dtype=np.int64)
    for motif, us in groups:
        d = motif.total_ext
        if d == 0:
            continue
        block = np.repeat(np.arange(motif.size, dtype=np.int64), motif.ext_degrees)
        idx = (slot_base[us][:, None] + np.arange(d, dtype=np.int64)[None, :]).ravel()
        slot_local[idx] = np.tile(block, us.size)
    keys = rng.random(slot_vertex.size)
    order = np.lexsort((keys, slot_vertex))
    slot_target = offsets[slot_vertex] + slot_local[order]

    # map each external edge endpoint to that vertex's next unused slot
    if g_ext.m:
        endpoints = g_ext.edges.astype(np.int64).ravel()
        sort_idx = np.argsort(endpoints, kind="stable")
        seen = np.zeros(endpoints.size, dtype=np.int64)
        sorted_ep = endpoints[sort_idx]
        group_start = np.flatnonzero(np.concatenate(([True], sorted_ep[1:] != sorted_ep[:-1])))
        cum = np.arange(endpoints.size, dtype=np.int64)
        seen[sort_idx] = cum - np.repeat(cum[group_start], np.diff(
            np.concatenate((group_start, [endpoints.size]))))
        slot_ids = slot_base[endpoints] + seen
        mapped = slot_target[slot_ids].reshape(-1, 2)
    else:
        mapped = np.empty((0, 2), dtype=np.int64)

    all_edges = np.concatenate([internal_edges, mapped])
    graph = build_graph(all_edges, n_total, meta={
        "model": "motif_overlay", "seed": seed, "n_ext": g_ext.n, "s_max": motifs.s_max,
    })
    if graph.m != len(all_edges):
        raise GeneratorError("overlay produced colliding edges; motif wiring is broken")
    return OverlayResult(graph, membership, offsets[:-1].copy(), choice)


# ---------------------------------------------------------------------------
# two-block counterexample


def gen_two_block(d: int, n: int, seed: int, max_retries: int = 1000) -> Graph:
    """Two independent uniform d-regular graphs on n/2 vertices each, joined
    by exactly one bridge edge (vertex 0 to vertex n/2). All degrees are d
    except the two bridge endpoints, which have d+1."""
    if n % 2 != 0:
        raise GeneratorError(f"n must be even, got {n}")
    half = n // 2
    if (d * half) % 2 != 0:
        raise GeneratorError(f"d*(n/2) must be even, got d={d}, n={n}")
    if d >= half:
        raise GeneratorError(f"need d < n/2, got d={d}, n={n}")
    b0 = gen_cm_simple(np.full(half, d), substream_seed(seed, "block", 0), max_retries)
    b1 = gen_cm_simple(np.full(half, d), substream_seed(seed, "block", 1), max_retries)
    edges = np.concatenate([
        b0.edges.astype(np.int64),
        b1.edges.astype(np.int64) + half,
        np.array([[0, half]], dtype=np.int64),
    ])
    return build_graph(edges, n, meta={
        "model": "two_block", "d": d, "seed": seed, "bridge": (0, half),
        "erased": bool(b0.meta.get("erased") or b1.meta.get("erased")),
    })


# ---------------------------------------------------------------------------
# generation specs (serializable)


@dataclass(frozen=True)
class GenSpec:
    """Serializable description of one graph to generate."""

    model: str  # "cm" | "pa" | "motif_overlay" | "two_block" | "k_regular"
    params: dict = field(default_factory=dict)
    seed: int = 0

    _MODELS = ("cm", "pa", "motif_overlay", "two_block", "k_regular")

    def __post_init__(self):
        if self.model not in self._MODELS:
            raise GeneratorError(f"unknown model {self.model!r}; expected one of {self._MODELS}")

    def to_json_dict(self) -> dict:
        return {"model": self.model, "params": self.params, "seed": self.seed}

    @classmethod
    def from_json_dict(cls, data: dict) -> "GenSpec":
        return cls(model=data["model"], params=dict(data.get("params", {})),
                   seed=int(data.get("seed", 0)))

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def build(self) -> Graph:
        p = self.params
        if self.model == "cm":
            g = gen_cm_simple(np.asarray(p["degrees"], dtype=np.int64), self.seed,
                              int(p.get("max_retries", 1000)))
        elif self.model == "k_regular":
            g = gen_k_regular(int(p["d"]), int(p["n"]), self.seed,
                              int(p.get("max_retries", 1000)))
        elif self.model == "pa":
            g = gen_pa(int(p["m"]), int(p["n"]), self.seed)
        elif self.model == "two_block":
            g = gen_two_block(int(p["d"]), int(p["n"]), self.seed,
                              int(p.get("max_retries", 1000)))
        else:  # motif_overlay
            ext = GenSpec.from_json_dict(p["external"]).build()
            motifs = MotifDistribution.from_json_dict(p["motifs"], int(p.get("s_max", 0)))
            g = gen_motif_overlay(ext, motifs, self.seed).graph
        g.meta["spec_hash"] = self.content_hash()
        return g
