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

from . import mesh_core
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
from .mesh_core import EdgeGraph, TexturedMesh, edge_topology
from .patch_features import KdIndex, build_kd_index


class LandmarkView(NamedTuple):
    """Landmark j of a set, built on demand by ``LandmarkSet[j]``."""

    anchor: int  # mesh vertex index
    position: np.ndarray  # (3,) read-only row of LandmarkSet.positions


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_SOURCES = _read_only(np.empty((0, 2), dtype=np.int64))


@dataclass(frozen=True, eq=False)
class LandmarkSet:
    """The J landmarks of one frame: ids 0..J-1, the n_base base landmarks first.

    Landmark n_base + i is augmented: it lies between the base landmarks
    ``sources[i]``. Every array is read-only.
    """

    anchors: np.ndarray  # (J,) int64 mesh vertex of each landmark
    positions: np.ndarray  # (J, 3) float64, equals mesh.vertices[anchors]
    n_base: int
    sources: np.ndarray  # (J - n_base, 2) int64 base ids of each augmented landmark

    def __len__(self) -> int:
        return self.anchors.size

    def __getitem__(self, j: int) -> LandmarkView:
        return LandmarkView(int(self.anchors[j]), self.positions[j])

    def __reduce__(self):
        return _read_only_set, (self.anchors, self.positions, self.n_base, self.sources)

    def ordering_hash(self) -> int:
        """64-bit hash of the logical landmark ordering.

        Covers count, kinds and augmentation sources but not anchors or
        positions, so all frames of a deforming sequence share the hash.
        Each landmark is a packed record: kind (0 base, 1 augmented), then
        its two source ids, (-1, -1) for a base landmark.
        """
        records = np.empty(len(self), dtype=[("kind", "u1"), ("a", "<i4"), ("b", "<i4")])
        records["kind"] = np.arange(len(self)) >= self.n_base
        records["a"][: self.n_base] = records["b"][: self.n_base] = -1
        records["a"][self.n_base :], records["b"][self.n_base :] = self.sources.T
        h = hashlib.blake2b(digest_size=8)
        h.update(b"FGLM" + len(self).to_bytes(4, "little") + records.tobytes())
        return int.from_bytes(h.digest(), "little")


def _read_only_set(anchors, positions, n_base: int, sources) -> LandmarkSet:
    """The set of these arrays, made read-only: how a pickled set is rebuilt."""
    return LandmarkSet(_read_only(anchors), _read_only(positions), n_base, _read_only(sources))


def _anchored(anchors, mesh, sources: np.ndarray = _NO_SOURCES) -> LandmarkSet:
    """Landmarks at the given mesh vertices, in order; the last len(sources) are augmented."""
    anchors = _read_only(np.array(anchors, dtype=np.int64))
    positions = _read_only(mesh.vertices[anchors].astype(np.float64, copy=False))
    return LandmarkSet(anchors, positions, anchors.size - len(sources), _read_only(sources))


def lift_landmarks(mesh: TexturedMesh, uv_points: Sequence) -> LandmarkSet:
    """Anchor each uv point to the mesh vertex with the nearest uv coordinate.

    Ties go to the lowest vertex index. Order of the input points is
    preserved; ids are 0..n-1 and every landmark is a base landmark. A
    non-finite uv point raises InvariantError.
    """
    if mesh.uv is None:
        raise MissingUV("mesh carries no uv coordinates")
    pts = np.asarray(uv_points, dtype=np.float64).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise EmptyInput("no uv points given")
    # uv as (u, v, 0) points: the kNN's (du² + dv²) + 0 is the 2D distance
    # exactly, and its index tie order keeps the lowest vertex
    return _anchored(KdIndex(_uv_points(mesh.uv)).k_nearest_many(_uv_points(pts), 1)[:, 0], mesh)


def _uv_points(uv: np.ndarray) -> np.ndarray:
    """(n, 3) points (u, v, 0) of the (n, 2) uv array."""
    return np.concatenate([uv, np.zeros((len(uv), 1))], axis=1)


def snap_to_mesh(mesh: TexturedMesh, points) -> LandmarkSet:
    """Anchor arbitrary 3D points to their nearest mesh vertices (exact kNN)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        raise EmptyInput("no points given")
    return _anchored(build_kd_index(mesh).k_nearest_many(pts, 1)[:, 0], mesh)


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


def _stacked(graphs: Sequence[EdgeGraph]) -> EdgeGraph:
    """One CSR graph holding each graph's vertices in turn, shifted past the earlier ones."""
    if len(graphs) == 1:
        return graphs[0]
    vertex_at = np.cumsum([0] + [g.n_nodes for g in graphs])
    edge_at = np.cumsum([0] + [g.targets.size for g in graphs])
    rows = [g.indptr[:-1] + e for g, e in zip(graphs, edge_at)]
    return EdgeGraph(
        n_nodes=int(vertex_at[-1]),
        indptr=np.concatenate(rows + [edge_at[-1:]]),
        targets=np.concatenate([g.targets + v for g, v in zip(graphs, vertex_at)]),
        weights_csr=np.concatenate([g.weights_csr for g in graphs]),
    )


def _greedy_bounds(graph: EdgeGraph, points: np.ndarray, starts, ends) -> np.ndarray:
    """(1 + 1e-9) x the length of a greedy walk from each starts[i] to ends[i], inf if it stalls.

    All walks advance together. Each step moves to the neighbour nearest
    ends[i] in straight-line distance, the first CSR entry on ties. A walk
    stops where no neighbour is nearer than its vertex, so it never loops,
    and it stalls if that vertex is not ends[i] (an isolated start stalls at
    once). The length is summed edge by edge from the start, as _search
    sums a path, so it is no shorter than the searched distance.
    """
    cur = np.array(starts, dtype=np.int64)
    goal = points[ends]
    gap = ((points[cur] - goal) ** 2).sum(axis=1)
    length = np.zeros(cur.size)
    walking = np.nonzero(graph.indptr[cur + 1] > graph.indptr[cur])[0]  # not an isolated start
    while walking.size:
        lo, hi = graph.indptr[cur[walking]], graph.indptr[cur[walking] + 1]
        # each row's CSR entries, padded with its last: argmin keeps the first on ties
        edges = lo[:, None] + np.minimum(np.arange((hi - lo).max()), (hi - lo - 1)[:, None])
        sq = ((points[graph.targets[edges]] - goal[walking, None]) ** 2).sum(axis=2)
        at = (np.arange(walking.size), sq.argmin(axis=1))
        best, edge = sq[at], edges[at]
        nearer = best < gap[walking]
        walking, best, edge = walking[nearer], best[nearer], edge[nearer]
        cur[walking] = graph.targets[edge]
        gap[walking] = best
        length[walking] += graph.weights_csr[edge]
    length[cur != ends] = math.inf
    return length * (1.0 + 1e-9)


def _search(graph: EdgeGraph, stride: int, shift, sources, target_sets,
            points: np.ndarray | None = None) -> np.ndarray:
    """Shortest-path distances from every source at once, in one flat array.

    Row r is the search from vertex sources[r] of ``graph``, which may stack
    several frames' graphs (see _stacked). Its distances occupy the stride
    entries from r * stride on, and vertex v of its frame sits at flat index
    v + shift[r]; the frame's vertices fill the first entries of the row.

    A label-correcting search in rounds, in the spirit of delta-stepping
    (Meyer & Sanders, J. Algorithms 2003). The frontier holds flat
    (row, vertex) indices into one (rows * stride) distance array; each
    round relaxes all their CSR edges with ``np.minimum.at``, and the entries
    whose distance fell form the next frontier. A search's bound is the
    largest current distance to its targets (infinite until all are
    reached), and frontier entries above it are dropped, as no path through
    them can shorten a path to a target. Rows never touch each other's
    entries, so a row's rounds and results do not depend on its batch.

    Row r holds exact distances for every vertex no farther from sources[r]
    than its farthest target: the same doubles a heap Dijkstra computes, since
    float addition is monotone and both reach the fixed point
    d[v] = min_u fl(d[u] + w). That needs fl(d + w) > d on every relaxed
    edge, so an absorbed edge (d + w == d) raises InvariantError. Unreached
    vertices stay infinite.

    Goal-directed bound (A*: Hart, Nilsson & Raphael, IEEE TSSC 1968).
    ``points`` are the graph's vertex positions, whose distances its edge
    weights are; None skips the bound. When the rows fill more than one
    search pass (rows * stride > ``mesh_core.BATCH_ENTRIES``, which only a
    lone scan-size frame does), every (source, target t) pair first gets an
    upper bound U_t on d(t) from _greedy_bounds, and a frontier entry (v, d)
    is kept only while some target t of its row has
    d + (1 - 1e-9) |p_v - p_t| <= min(U_t, dist[t]) (1 + n 2^-52), n the
    graph's vertex count. That implies d <= (1 + n 2^-52) times the
    farthest target's current distance, so the plain bound is dropped.

    The bound changes no result. Let x lie k edges before t on a shortest
    path. Those k weights sum to at least |p_x - p_t| (triangle inequality;
    weights and chord are norms rounded within a few ulps, which the 1e-9
    margin covers), and the k rounded additions from d(x) to d(t) each lose
    at most 2^-53 d(t). So the test's rounded left side is at most
    d(t) (1 + (k + 2) 2^-53) with k < n, while d(t) <= U_t (the walk is a
    path summed the same way) and d(t) <= dist[t] always. By induction
    along the path, x receives d(x), enters the frontier with it and is
    kept. So every vertex on a shortest path, and every tie predecessor
    _walk_back can pick (it lies on a shortest path through the vertex it
    precedes), gets the unbounded search's double. Any other neighbour u of
    a chain vertex v fails _walk_back's test in both searches, as
    dist[u] >= d(u) and fl(d(u) + w) == d(v) would make u a tie
    predecessor. Chains, midpoints and skipped pairs are therefore
    unchanged. A target in another component stalls its walk (U_t = inf),
    and its row floods that component as before. The absorbed-edge check
    sees only relaxed edges, now fewer, but they include every edge out of
    a vertex on a shortest path.
    """
    shift = np.asarray(shift, dtype=np.int64)
    dist = np.full(shift.size * stride, np.inf)
    slot = np.empty(dist.size, dtype=np.int64)  # dedupes the next frontier without a sort
    frontier = shift + np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0.0
    sizes = [len(t) for t in target_sets]
    ends = np.array([t for ts in target_sets for t in ts], dtype=np.int64)
    goals = ends + np.repeat(shift, sizes)
    groups = np.cumsum(sizes) - sizes
    bounded = points is not None and dist.size > mesh_core.BATCH_ENTRIES
    if bounded:
        # each row's targets padded to one width by repeating its last one
        pad = groups[:, None] + np.minimum(np.arange(max(sizes)), np.array(sizes)[:, None] - 1)
        upper = _greedy_bounds(graph, points, np.repeat(sources, sizes), ends)[pad]
        goals, goal_points = goals[pad], points[ends[pad]]  # (rows, width), (rows, width, 3)
        slack = 1.0 + graph.n_nodes * 2.0**-52
    while frontier.size:
        d = dist[frontier]
        row = frontier // stride
        at = shift[row]
        if bounded:
            limit = np.minimum(upper, dist[goals]) * slack
            delta = points[frontier - at][:, None] - goal_points[row]
            chord = np.sqrt((delta * delta).sum(axis=2))
            keep = (d[:, None] + (1.0 - 1e-9) * chord <= limit[row]).any(axis=1)
        else:
            keep = d <= np.maximum.reduceat(dist[goals], groups)[row]
        frontier, d, at = frontier[keep], d[keep], at[keep]
        edges, counts = _csr_rows(graph, frontier - at)
        du = np.repeat(d, counts)
        nd = du + graph.weights_csr[edges]
        if (nd == du).any():
            raise InvariantError("an edge weight is absorbed by the path length (d + w == d)")
        cand = np.repeat(at, counts) + graph.targets[edges]
        fell = nd < dist[cand]
        cand, nd = cand[fell], nd[fell]
        np.minimum.at(dist, cand, nd)
        order = np.arange(cand.size)
        slot[cand] = order  # the last write per index wins: one entry per index survives
        frontier = cand[slot[cand] == order]
    return dist


def _walk_back(
    graph: EdgeGraph, dist: np.ndarray, shift, ends
) -> list[tuple[list[int], list[float]]]:
    """Vertex chain and edge weights from each ``ends[i]`` back to its row's source.

    ``dist`` is _search's flat array and ``shift[i]`` the shift of the row
    that walk i reads. All walks advance together. Each step moves from v to
    the smallest neighbour u with fl(d[u] + w) == d[v]: the predecessor a
    heap Dijkstra keeps when ties go to the smaller predecessor index. The
    chains end at the vertex with distance 0.
    """
    n, n_csr = graph.n_nodes, graph.targets.size
    at = np.asarray(shift, dtype=np.int64)
    cur = np.asarray(ends, dtype=np.int64)
    chains = [[v] for v in cur.tolist()]
    weights: list[list[float]] = [[] for _ in chains]
    walking = np.nonzero(dist[at + cur] > 0.0)[0]
    while walking.size:
        a, v = at[walking], cur[walking]
        edges, counts = _csr_rows(graph, v)
        u = graph.targets[edges]
        hit = dist[np.repeat(a, counts) + u] + graph.weights_csr[edges] == np.repeat(
            dist[a + v], counts
        )
        # keyed so the minimum is the smallest u, then its first CSR entry
        key = np.where(hit, u * n_csr + edges, n * n_csr)
        pred, edge = np.divmod(np.minimum.reduceat(key, np.cumsum(counts) - counts), n_csr)
        for i, p, w in zip(walking.tolist(), pred.tolist(), graph.weights_csr[edge].tolist()):
            chains[i].append(p)
            weights[i].append(w)
        cur[walking] = pred
        walking = walking[dist[a + pred] > 0.0]
    return list(zip(chains, weights))


def _arc_lengths(
    chain: list[int], weights: list[float], start: int
) -> tuple[list[int], list[float]]:
    """``chain`` and its cumulative arc lengths, reversed if needed to begin at ``start``.

    Cumulative arc lengths are exactly-rounded prefix sums (math.fsum), so
    the total length does not depend on the direction.
    """
    if chain[0] != start:
        chain, weights = chain[::-1], weights[::-1]
    return chain, [math.fsum(weights[:i]) for i in range(len(weights) + 1)]


def _halfway(cumulative: list[float]) -> int:
    """Index of the arc length closest to half the total; the first one on ties."""
    total = cumulative[-1]
    if total <= 0.0:
        raise DegeneratePath("zero-length path has no midpoint")
    target = total / 2.0
    gaps = [abs(c - target) for c in cumulative]
    return gaps.index(min(gaps))


def geodesic_path(graph: EdgeGraph, src: int, dst: int) -> GeodesicPath:
    """Shortest path between two vertices in the face-edge graph.

    Ties between equal-length paths are broken toward the smaller
    predecessor vertex index. The search always runs from the smaller
    endpoint and each cumulative arc length is one math.fsum of its prefix,
    exactly rounded, so path lengths are exactly symmetric in (src, dst).
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
    dist = _search(graph, n, [0], [a], [[b]])
    if dist[b] == math.inf:
        raise Unreachable(f"no path from {src} to {dst}")
    [(chain, weights)] = _walk_back(graph, dist, [0], [b])
    chain, cumulative = _arc_lengths(chain, weights, int(src))
    return GeodesicPath(vertices=np.array(chain, dtype=np.int64), cumulative=np.array(cumulative))


def geodesic_midpoint(
    path: GeodesicPath, mesh: TexturedMesh | None = None
) -> tuple[int, np.ndarray | None]:
    """Path vertex whose cumulative arc length is closest to half the total.

    Ties pick the earlier vertex. Returns (vertex index, 3D position); the
    position is None unless the mesh is given. Raises DegeneratePath for
    zero-length paths.
    """
    v = int(path.vertices[_halfway(path.cumulative.tolist())])
    return v, (np.array(mesh.vertices[v]) if mesh is not None else None)


class AugmentationResult(NamedTuple):
    landmarks: LandmarkSet
    skipped: list[tuple[int, int]]  # pairs with unreachable endpoints


class _Plan(NamedTuple):
    pairs: list[tuple[int, int, int, int]]  # (id a, id b, anchor a, anchor b) per pair
    targets: dict[int, list[int]]  # smaller anchor -> its partners, ascending


def _plan(base: LandmarkSet, pairs: Sequence[tuple[int, int]]) -> _Plan:
    """Check the pairs against ``base`` and group them into one search per smaller anchor."""
    if len(base) == 0:
        raise EmptyInput("base landmark set is empty")
    anchors = base.anchors.tolist()
    pair_anchors = []
    for a, b in pairs:
        a, b = int(a), int(b)
        if a == b or not (0 <= a < base.n_base and 0 <= b < base.n_base):
            raise InvalidPair(f"pair ({a}, {b}) must name two distinct base ids")
        pair_anchors.append((a, b, anchors[a], anchors[b]))
    partners: dict[int, set[int]] = {}
    for _, _, va, vb in pair_anchors:
        if va != vb:
            partners.setdefault(min(va, vb), set()).add(max(va, vb))
    return _Plan(pair_anchors, {lo: sorted(hi) for lo, hi in partners.items()})


def _augment_batch(
    batch: Sequence[tuple[TexturedMesh, EdgeGraph, LandmarkSet, _Plan]],
) -> list[AugmentationResult]:
    """Every frame's searches as rows of one _search over the stacked frame graphs."""
    graphs = [graph for _, graph, _, _ in batch]
    starts = np.cumsum([0] + [g.n_nodes for g in graphs]).tolist()  # first stacked vertex
    stride = max(g.n_nodes for g in graphs)
    shift, sources, target_sets = [], [], []
    for at, (_, _, _, plan) in zip(starts, batch):
        for lo, his in plan.targets.items():
            shift.append(len(sources) * stride - at)
            sources.append(lo + at)
            target_sets.append([hi + at for hi in his])
    stacked = _stacked(graphs)
    # the goal-directed bound needs vertex positions; only a lone frame fills a search pass
    points = batch[0][0].vertices if len(batch) == 1 else None
    dist = _search(stacked, stride, shift, sources, target_sets, points)
    walks = [(r, hi) for r, his in enumerate(target_sets) for hi in his
             if dist[hi + shift[r]] < math.inf]
    found = _walk_back(stacked, dist, [shift[r] for r, _ in walks], [hi for _, hi in walks])
    paths = {(sources[r], hi): walk for (r, hi), walk in zip(walks, found)}

    results = []
    for at, (mesh, _, base, plan) in zip(starts, batch):
        skipped: list[tuple[int, int]] = []
        kept, mids = [], []  # the pairs that get a landmark, and its vertex
        for a, b, va, vb in plan.pairs:
            if va == vb:
                mid = va  # both snapped to one vertex: midpoint is that vertex
            else:
                walk = paths.get((min(va, vb) + at, max(va, vb) + at))
                if walk is None:
                    skipped.append((a, b))
                    continue
                chain, cumulative = _arc_lengths(*walk, va + at)
                mid = chain[_halfway(cumulative)] - at
            kept.append((a, b))
            mids.append(mid)
        landmarks = _anchored(
            np.concatenate([base.anchors, np.array(mids, dtype=np.int64)]), mesh,
            np.concatenate([base.sources, np.array(kept, dtype=np.int64).reshape(-1, 2)]))
        results.append(AugmentationResult(landmarks, skipped))
    return results


def augment_landmarks(
    mesh: TexturedMesh,
    graph: EdgeGraph,
    base: LandmarkSet,
    pairs: Sequence[tuple[int, int]],
) -> AugmentationResult:
    """Append one geodesic-midpoint landmark per pair of base landmark ids.

    ``graph`` is the mesh's edge graph (``build_edge_graph(mesh)``): on a
    scan-size frame the search bounds take its weights to be the distances
    between the mesh's vertices. Pairs whose endpoints lie in disconnected
    components are skipped and reported. Output ids are densely renumbered:
    base ids stay 0..B-1, augmented landmarks continue from B in pair order. This is the
    one-frame batch of augment_sequence (one search per smaller anchor, all
    run together), so both give the same landmarks and skipped pairs.
    """
    return _augment_batch([(mesh, graph, base, _plan(base, pairs))])[0]


def augment_sequence(
    frames: Sequence[tuple[TexturedMesh, LandmarkSet]],
    pairs: Sequence[tuple[int, int]],
) -> list[AugmentationResult]:
    """augment_landmarks for every (mesh, base landmarks) frame, batched over frames.

    Each frame gets its own edge weights; consecutive frames with one vertex
    count and equal faces share one ``mesh_core.EdgeTopology``, so their
    graphs share read-only ``indptr`` and ``targets`` arrays, and frames with
    equal base landmarks share one check of the pairs. Runs of consecutive
    frames are searched together, as many as keep (searches in the run) x
    (largest N in the run) within ``mesh_core.BATCH_ENTRIES``, and always at
    least one frame, so desk-scale sequences share each array pass within
    that fixed memory budget while 40k-vertex scans search one frame at a
    time. Frames may differ in vertex count and faces. The results are those
    of augment_landmarks on each frame alone, whatever the batches.
    """
    plan_of: dict[tuple, _Plan] = {}
    plans = []
    for _, base in frames:
        key = (base.n_base, base.anchors.tobytes(), base.sources.tobytes())
        if key not in plan_of:
            plan_of[key] = _plan(base, pairs)
        plans.append(plan_of[key])
    results: list[AugmentationResult] = []
    topology = None
    lo = 0
    while lo < len(frames):
        hi, rows, stride = lo + 1, len(plans[lo].targets), frames[lo][0].n_vertices
        while hi < len(frames):
            more, wider = rows + len(plans[hi].targets), max(stride, frames[hi][0].n_vertices)
            if more * wider > mesh_core.BATCH_ENTRIES:
                break
            hi, rows, stride = hi + 1, more, wider
        batch = []
        for (mesh, base), plan in zip(frames[lo:hi], plans[lo:hi]):
            if topology is None or not topology.fits(mesh):
                topology = edge_topology(mesh.n_vertices, mesh.faces)
            batch.append((mesh, topology.graph(mesh.vertices), base, plan))
        results += _augment_batch(batch)
        lo = hi
    return results
