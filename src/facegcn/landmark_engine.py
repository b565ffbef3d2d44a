"""Landmarks on meshes: 2D->3D lifting, geodesic paths, midpoint augmentation.

Base landmarks are ingested (from uv files or 3D point files) and anchored to
mesh vertices. The set is then augmented with new landmarks at the midpoints
of approximate geodesic paths (shortest paths in the face-edge graph), which
covers face regions the detector conventions leave empty.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePath,
    EmptyInput,
    InvalidPair,
    InvariantError,
    MissingUV,
    ParseError,
    Unreachable,
)
from .fileio import read_text
from .mesh_core import EdgeGraph, TexturedMesh

BASE = "base"
AUGMENTED = "augmented"


@dataclass(frozen=True, eq=False)
class Landmark:
    id: int
    anchor: int  # mesh vertex index
    position: np.ndarray  # (3,) float64, equals mesh.vertices[anchor]
    kind: str  # BASE or AUGMENTED
    source: tuple[int, int] | None = None  # base ids an augmented landmark interpolates

    def __eq__(self, other):
        if not isinstance(other, Landmark):
            return NotImplemented
        return (
            self.id == other.id
            and self.anchor == other.anchor
            and self.kind == other.kind
            and self.source == other.source
            and np.array_equal(self.position, other.position)
        )

    def __hash__(self):
        return hash((self.id, self.anchor, self.kind, self.source))


@dataclass(frozen=True)
class LandmarkSet:
    entries: tuple[Landmark, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Landmark:
        return self.entries[i]

    def positions(self) -> np.ndarray:
        return np.array([e.position for e in self.entries], dtype=np.float64)

    def ordering_hash(self) -> int:
        """64-bit hash of the logical landmark ordering.

        Covers count, kinds and augmentation sources but not anchors or
        positions, so all frames of a deforming sequence share the hash.
        """
        h = hashlib.blake2b(digest_size=8)
        h.update(b"FGLM")
        h.update(len(self.entries).to_bytes(4, "little"))
        for e in self.entries:
            h.update(b"\x00" if e.kind == BASE else b"\x01")
            a, b = e.source if e.source is not None else (-1, -1)
            h.update(int(a).to_bytes(4, "little", signed=True))
            h.update(int(b).to_bytes(4, "little", signed=True))
        return int.from_bytes(h.digest(), "little")


def _anchored(ids, anchors, mesh, kind, sources=None) -> LandmarkSet:
    entries = []
    for j, (i, a) in enumerate(zip(ids, anchors)):
        pos = np.array(mesh.vertices[a], dtype=np.float64)
        pos.flags.writeable = False
        src = sources[j] if sources is not None else None
        entries.append(Landmark(id=int(i), anchor=int(a), position=pos, kind=kind, source=src))
    return LandmarkSet(entries=tuple(entries))


def lift_landmarks(mesh: TexturedMesh, uv_points: Sequence) -> LandmarkSet:
    """Anchor each uv point to the mesh vertex with the nearest uv coordinate.

    Ties go to the lowest vertex index. Order of the input points is
    preserved; ids are 0..n-1 and every landmark has kind "base".
    """
    if mesh.uv is None:
        raise MissingUV("mesh carries no uv coordinates")
    pts = np.asarray(uv_points, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise EmptyInput("no uv points given")
    # one (N,) distance array per point over uv column copies: the same
    # doubles as the (N, 2) row sum, without a (J, N, 2) transient; argmin
    # returns the first (lowest) index on ties
    u, v = np.ascontiguousarray(mesh.uv[:, 0]), np.ascontiguousarray(mesh.uv[:, 1])
    anchors = [int(np.argmin((u - a) ** 2 + (v - b) ** 2)) for a, b in pts]
    return _anchored(range(pts.shape[0]), anchors, mesh, BASE)


def snap_to_mesh(mesh: TexturedMesh, points) -> LandmarkSet:
    """Anchor arbitrary 3D points to their nearest mesh vertices (exact kNN)."""
    from .patch_features import build_kd_index

    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise EmptyInput("no points given")
    index = build_kd_index(mesh)
    anchors = [index.k_nearest(p, 1)[0] for p in pts]
    return _anchored(range(pts.shape[0]), anchors, mesh, BASE)


def _load_point_file(path, dim: int) -> np.ndarray:
    path = Path(path)
    pts = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        if len(tok) != dim:
            raise ParseError(f"expected {dim} floats per line", path=path, line=lineno)
        try:
            pts.append([float(t) for t in tok])
        except ValueError:
            raise ParseError("bad float", path=path, line=lineno)
        if not all(map(math.isfinite, pts[-1])):
            raise ParseError("non-finite coordinate", path=path, line=lineno)
    if not pts:
        raise EmptyInput(f"{path}: no landmark points")
    return np.asarray(pts, dtype=np.float64)


def load_landmarks_2d(path) -> np.ndarray:
    """Read `u v` lines (whitespace separated, # comments) into an (n, 2) array."""
    return _load_point_file(path, 2)


def load_landmarks_3d(path) -> np.ndarray:
    """Read `x y z` lines into an (n, 3) array."""
    return _load_point_file(path, 3)


@dataclass(frozen=True)
class GeodesicPath:
    vertices: np.ndarray  # (n,) int64 along the path
    cumulative: np.ndarray  # (n,) float64, cumulative[0] == 0

    @property
    def total_length(self) -> float:
        return float(self.cumulative[-1])


def _csr_rows(graph: EdgeGraph, vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR edge indices of every row in ``vertices``, concatenated, and each row's length."""
    lo = graph.indptr[vertices]
    counts = graph.indptr[vertices + 1] - lo
    edges = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    return edges, counts


def _search(graph: EdgeGraph, sources, target_sets) -> np.ndarray:
    """Shortest-path distances from every source at once, one (N,) row per source.

    A label-correcting search in rounds, in the spirit of delta-stepping
    (Meyer & Sanders, J. Algorithms 2003). The frontier holds flat
    (source, vertex) indices into one (S * N) distance array; each round
    relaxes all their CSR edges with ``np.minimum.at``, and the entries whose
    distance fell form the next frontier. A search's bound is the largest
    current distance to its targets (infinite until all are reached), and
    frontier entries above it are dropped, as no path through them can
    shorten a path to a target.

    Row s holds exact distances for every vertex no farther from sources[s]
    than its farthest target: the same doubles a heap Dijkstra computes, since
    float addition is monotone and both reach the fixed point
    d[v] = min_u fl(d[u] + w). That needs fl(d + w) > d on every relaxed
    edge, so an absorbed edge (d + w == d) raises InvariantError. Unreached
    vertices stay infinite.
    """
    n = graph.n_nodes
    offsets = np.arange(len(sources), dtype=np.int64) * n
    dist = np.full(offsets.size * n, np.inf)
    slot = np.empty(dist.size, dtype=np.int64)  # dedupes the next frontier without a sort
    frontier = offsets + np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0.0
    sizes = [len(t) for t in target_sets]
    goals = np.array([t for ts in target_sets for t in ts], dtype=np.int64)
    goals += np.repeat(offsets, sizes)
    groups = np.cumsum(sizes) - sizes
    while frontier.size:
        bound = np.maximum.reduceat(dist[goals], groups)
        d = dist[frontier]
        row, vertex = np.divmod(frontier, n)
        keep = d <= bound[row]
        frontier, d, vertex = frontier[keep], d[keep], vertex[keep]
        edges, counts = _csr_rows(graph, vertex)
        du = np.repeat(d, counts)
        nd = du + graph.weights_csr[edges]
        if (nd == du).any():
            raise InvariantError("an edge weight is absorbed by the path length (d + w == d)")
        cand = np.repeat(frontier - vertex, counts) + graph.targets[edges]
        fell = nd < dist[cand]
        cand, nd = cand[fell], nd[fell]
        np.minimum.at(dist, cand, nd)
        order = np.arange(cand.size)
        slot[cand] = order  # the last write per index wins: one entry per index survives
        frontier = cand[slot[cand] == order]
    return dist.reshape(offsets.size, n)


def _walk_back(
    graph: EdgeGraph, dist: np.ndarray, rows, ends
) -> list[tuple[list[int], list[float]]]:
    """Vertex chain and edge weights from each ``ends[i]`` back to the source of row ``rows[i]``.

    All walks advance together. Each step moves from v to the smallest
    neighbour u with fl(d[u] + w) == d[v]: the predecessor a heap Dijkstra
    keeps when ties go to the smaller predecessor index. The chains end at
    the vertex with distance 0.
    """
    n, n_csr = graph.n_nodes, graph.targets.size
    flat = dist.reshape(-1)
    rows = np.asarray(rows, dtype=np.int64) * n
    cur = np.asarray(ends, dtype=np.int64)
    chains = [[v] for v in cur.tolist()]
    weights: list[list[float]] = [[] for _ in chains]
    walking = np.nonzero(flat[rows + cur] > 0.0)[0]
    while walking.size:
        row, v = rows[walking], cur[walking]
        edges, counts = _csr_rows(graph, v)
        u = graph.targets[edges]
        hit = flat[np.repeat(row, counts) + u] + graph.weights_csr[edges] == np.repeat(
            flat[row + v], counts
        )
        # keyed so the minimum is the smallest u, then its first CSR entry
        key = np.where(hit, u * n_csr + edges, n * n_csr)
        pred, edge = np.divmod(np.minimum.reduceat(key, np.cumsum(counts) - counts), n_csr)
        for i, p, w in zip(walking.tolist(), pred.tolist(), graph.weights_csr[edge].tolist()):
            chains[i].append(p)
            weights[i].append(w)
        cur[walking] = pred
        walking = walking[flat[rows[walking] + pred] > 0.0]
    return list(zip(chains, weights))


def _oriented_path(chain: list[int], weights: list[float], start: int) -> GeodesicPath:
    """The path along ``chain``, reversed if needed to begin at ``start``.

    Cumulative arc lengths are exactly-rounded prefix sums (math.fsum), so
    the total length does not depend on the direction.
    """
    if chain[0] != start:
        chain, weights = chain[::-1], weights[::-1]
    cumulative = np.array([0.0] + [math.fsum(weights[:i]) for i in range(1, len(chain))])
    return GeodesicPath(vertices=np.array(chain, dtype=np.int64), cumulative=cumulative)


def geodesic_path(graph: EdgeGraph, src: int, dst: int) -> GeodesicPath:
    """Shortest path between two vertices in the face-edge graph.

    Ties between equal-length paths are broken toward the smaller
    predecessor vertex index. The search always runs from the smaller
    endpoint and the cumulative arc lengths are exactly-rounded prefix sums
    (math.fsum), so path lengths are exactly symmetric in (src, dst).
    """
    n = graph.n_nodes
    if not (0 <= src < n and 0 <= dst < n):
        raise IndexError(f"vertex out of range: src={src}, dst={dst}, n={n}")
    if src == dst:
        return GeodesicPath(
            vertices=np.array([src], dtype=np.int64),
            cumulative=np.zeros(1, dtype=np.float64),
        )
    a, b = (int(src), int(dst)) if src < dst else (int(dst), int(src))
    dist = _search(graph, [a], [[b]])
    if dist[0, b] == math.inf:
        raise Unreachable(f"no path from {src} to {dst}")
    [(chain, weights)] = _walk_back(graph, dist, [0], [b])
    return _oriented_path(chain, weights, int(src))


def geodesic_midpoint(
    path: GeodesicPath, mesh: TexturedMesh | None = None
) -> tuple[int, np.ndarray | None]:
    """Path vertex whose cumulative arc length is closest to half the total.

    Ties pick the earlier vertex. Returns (vertex index, 3D position); the
    position is None unless the mesh is given. Raises DegeneratePath for
    zero-length paths.
    """
    total = path.total_length
    if total <= 0.0:
        raise DegeneratePath("zero-length path has no midpoint")
    target = total / 2.0
    idx = int(np.argmin(np.abs(path.cumulative - target)))
    v = int(path.vertices[idx])
    return v, (np.array(mesh.vertices[v]) if mesh is not None else None)


class AugmentationResult(NamedTuple):
    landmarks: LandmarkSet
    skipped: list[tuple[int, int]]  # pairs with unreachable endpoints


def augment_landmarks(
    mesh: TexturedMesh,
    graph: EdgeGraph,
    base: LandmarkSet,
    pairs: Sequence[tuple[int, int]],
) -> AugmentationResult:
    """Append one geodesic-midpoint landmark per pair of base landmark ids.

    Pairs whose endpoints lie in disconnected components are skipped and
    reported. Output ids are densely renumbered: base ids stay 0..B-1,
    augmented landmarks continue from B in pair order.
    """
    if len(base) == 0:
        raise EmptyInput("base landmark set is empty")
    base_ids = {e.id for e in base if e.kind == BASE}
    by_id = {e.id: e for e in base}

    pair_anchors = []
    for a, b in pairs:
        a, b = int(a), int(b)
        if a == b or a not in base_ids or b not in base_ids:
            raise InvalidPair(f"pair ({a}, {b}) must name two distinct base ids")
        pair_anchors.append((a, b, by_id[a].anchor, by_id[b].anchor))

    # one batched search over every smaller anchor, each bounded by its partners
    partners: dict[int, set[int]] = {}
    for _, _, va, vb in pair_anchors:
        if va != vb:
            partners.setdefault(min(va, vb), set()).add(max(va, vb))
    sources = list(partners)
    target_sets = [sorted(partners[lo]) for lo in sources]
    dist = _search(graph, sources, target_sets)
    walks = [(r, lo, hi) for r, lo in enumerate(sources) for hi in target_sets[r]
             if dist[r, hi] < math.inf]
    found = _walk_back(graph, dist, [r for r, _, _ in walks], [hi for _, _, hi in walks])
    paths = {(lo, hi): walk for (_, lo, hi), walk in zip(walks, found)}

    entries = list(base.entries)
    skipped: list[tuple[int, int]] = []
    next_id = len(base)
    for a, b, va, vb in pair_anchors:
        if va == vb:
            mid = va  # both snapped to one vertex: midpoint is that vertex
        else:
            walk = paths.get((min(va, vb), max(va, vb)))
            if walk is None:
                skipped.append((a, b))
                continue
            mid, _ = geodesic_midpoint(_oriented_path(*walk, va))
        pos = np.array(mesh.vertices[mid], dtype=np.float64)
        pos.flags.writeable = False
        entries.append(
            Landmark(id=next_id, anchor=mid, position=pos, kind=AUGMENTED, source=(a, b))
        )
        next_id += 1
    return AugmentationResult(LandmarkSet(entries=tuple(entries)), skipped)
