"""Landmarks on meshes: 2D->3D lifting, geodesic paths, midpoint augmentation.

Base landmarks are ingested (from uv files or 3D point files) and anchored to
mesh vertices. The set is then augmented with new landmarks at the midpoints
of approximate geodesic paths (shortest paths in the face-edge graph), which
covers face regions the detector conventions leave empty.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DegeneratePath,
    EmptyInput,
    InvalidPair,
    MissingUV,
    ParseError,
    Unreachable,
)
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

    @property
    def n_base(self) -> int:
        return sum(1 for e in self.entries if e.kind == BASE)

    def positions(self) -> np.ndarray:
        return np.array([e.position for e in self.entries], dtype=np.float64)

    def anchors(self) -> np.ndarray:
        return np.array([e.anchor for e in self.entries], dtype=np.int64)

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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
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


def _dijkstra(graph: EdgeGraph, a: int, targets) -> tuple[list[int], list[bool]]:
    """Predecessors and popped flags of a Dijkstra search from ``a``.

    The search stops once every target has been popped (or the component of
    ``a`` is exhausted). Ties between equal-length paths go to the smaller
    predecessor index. A popped vertex's predecessor never changes again, so
    its path is the one a search stopping at that vertex alone would give.
    """
    n = graph.n_nodes
    # memoryviews index to Python scalars far faster than the arrays do,
    # without copying the graph
    indptr, nbrs, weights = (
        memoryview(graph.indptr), memoryview(graph.targets), memoryview(graph.weights_csr)
    )
    heappop, heappush = heapq.heappop, heapq.heappush
    remaining = set(targets)
    dist = [math.inf] * n
    pred = [-1] * n
    done = [False] * n
    dist[a] = 0.0
    heap = [(0.0, a)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u in remaining:
            remaining.discard(u)
            if not remaining:
                break
        for i in range(indptr[u], indptr[u + 1]):
            v = nbrs[i]
            if done[v]:
                continue
            nd = d + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
            elif nd == dist[v] and u < pred[v]:
                pred[v] = u
    return pred, done


def _path_from_preds(
    graph: EdgeGraph, pred: list[int], a: int, b: int, src: int
) -> GeodesicPath:
    """The a -> b predecessor chain of a search from a, oriented to start at src."""
    indptr, nbrs, weights = (
        memoryview(graph.indptr), memoryview(graph.targets), memoryview(graph.weights_csr)
    )
    chain = [b]
    while chain[-1] != a:
        chain.append(pred[chain[-1]])
    chain.reverse()
    if src != a:
        chain.reverse()
    edge_weights = []
    for u, v in zip(chain, chain[1:]):
        i = indptr[u]
        while nbrs[i] != v:
            i += 1
        edge_weights.append(weights[i])
    cumulative = np.array(
        [0.0] + [math.fsum(edge_weights[:i]) for i in range(1, len(chain))]
    )
    return GeodesicPath(vertices=np.array(chain, dtype=np.int64), cumulative=cumulative)


def geodesic_path(graph: EdgeGraph, src: int, dst: int) -> GeodesicPath:
    """Shortest path between two vertices in the face-edge graph (Dijkstra).

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
    pred, done = _dijkstra(graph, a, (b,))
    if not done[b]:
        raise Unreachable(f"no path from {src} to {dst}")
    return _path_from_preds(graph, pred, a, b, int(src))


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

    # one search per smaller anchor, stopping once all its partners are popped
    partners: dict[int, set[int]] = {}
    for _, _, va, vb in pair_anchors:
        if va != vb:
            partners.setdefault(min(va, vb), set()).add(max(va, vb))
    searches = {lo: _dijkstra(graph, lo, his) for lo, his in partners.items()}

    entries = list(base.entries)
    skipped: list[tuple[int, int]] = []
    next_id = len(base)
    for a, b, va, vb in pair_anchors:
        if va == vb:
            mid = va  # both snapped to one vertex: midpoint is that vertex
        else:
            lo, hi = min(va, vb), max(va, vb)
            pred, done = searches[lo]
            if not done[hi]:
                skipped.append((a, b))
                continue
            mid, _ = geodesic_midpoint(_path_from_preds(graph, pred, lo, hi, va))
        pos = np.array(mesh.vertices[mid], dtype=np.float64)
        pos.flags.writeable = False
        entries.append(
            Landmark(id=next_id, anchor=mid, position=pos, kind=AUGMENTED, source=(a, b))
        )
        next_id += 1
    return AugmentationResult(LandmarkSet(entries=tuple(entries)), skipped)
