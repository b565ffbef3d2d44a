import dataclasses
import heapq
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from facegcn import landmark_engine, mesh_core
from facegcn.config import DEFAULT_AUGMENT_PAIRS
from facegcn.dataset_synth import (
    ExpressionParams,
    IdentityParams,
    SynthConfig,
    build_dataset,
    make_frame_mesh,
)
from facegcn.errors import (
    DegeneratePath,
    EmptyInput,
    InvalidPair,
    InvariantError,
    MissingUV,
    ParseError,
    Unreachable,
)
from facegcn.landmark_engine import (
    GeodesicPath,
    augment_landmarks,
    augment_sequence,
    geodesic_midpoint,
    geodesic_path,
    lift_landmarks,
    load_landmarks_2d,
    load_landmarks_3d,
    snap_to_mesh,
)
from facegcn.mesh_core import EdgeGraph, TexturedMesh, build_edge_graph

from edge_testutil import undirected_edges
from landmark_testutil import assert_same_landmarks


def synth_mesh(grid=10, seed=2):
    return make_frame_mesh(IdentityParams(seed=seed, grid=grid), ExpressionParams(emotion=1), 2, 6)


def two_component_mesh():
    return TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0], [11, 0, 0], [10, 1, 0]],
        [[0, 1, 2], [3, 4, 5]],
    )


def brute_dijkstra(graph, src):
    """Independent O(V^2) shortest-path oracle (no heap, no shared code path)."""
    n = graph.n_nodes
    adjacency = [[] for _ in range(n)]
    edges, weights = undirected_edges(graph)
    for (u, v), w in zip(edges.tolist(), weights.tolist()):
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    dist = [float("inf")] * n
    dist[src] = 0.0
    visited = [False] * n
    for _ in range(n):
        u, best = -1, float("inf")
        for i in range(n):
            if not visited[i] and dist[i] < best:
                u, best = i, dist[i]
        if u < 0:
            break
        visited[u] = True
        for v, w in adjacency[u]:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
    return dist


# ---------------------------------------------------------------------------
# lifting / snapping


def test_lift_exact_uv_hits_vertex():
    mesh = synth_mesh()
    lms = lift_landmarks(mesh, [mesh.uv[17]])
    assert lms.anchors.tolist() == [17]
    assert np.array_equal(lms.positions, mesh.vertices[[17]])
    assert lms.n_base == 1 and lms.sources.shape == (0, 2)
    # landmarks[j] is a view of row j
    assert lms[0].anchor == 17
    assert np.array_equal(lms[0].position, mesh.vertices[17])
    assert not lms[0].position.flags.writeable


def test_lift_68_points():
    mesh = synth_mesh(grid=12)
    rng = np.random.default_rng(5)
    lms = lift_landmarks(mesh, rng.uniform(size=(68, 2)))
    assert len(lms) == lms.n_base == 68
    assert lms.anchors.shape == (68,) and lms.positions.shape == (68, 3)


def test_lift_tie_breaks_to_lowest_index():
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 2]],
        uv=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    )
    lms = lift_landmarks(mesh, [[0.5, 0.0], [0.0, 0.5]])
    assert lms.anchors.tolist() == [0, 0]  # equidistant to vertices 0 and 1, and 0 and 2


def test_lift_requires_uv_and_points():
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(MissingUV):
        lift_landmarks(mesh, [[0.5, 0.5]])
    with pytest.raises(EmptyInput):
        lift_landmarks(synth_mesh(), [])


def test_snap_exact_vertex():
    mesh = synth_mesh()
    lms = snap_to_mesh(mesh, [mesh.vertices[31]])
    assert lms.anchors.tolist() == [31]


def test_snap_outside_bounding_box():
    mesh = synth_mesh()
    far = mesh.vertices.max(axis=0) + 100.0
    lms = snap_to_mesh(mesh, [far])
    d = np.linalg.norm(mesh.vertices - far, axis=1)
    assert lms.anchors.tolist() == [int(np.argmin(d))]


def test_snap_duplicates_get_distinct_ids():
    mesh = synth_mesh()
    p = mesh.vertices[4]
    lms = snap_to_mesh(mesh, [p, p])
    assert len(lms) == 2 and lms.anchors.tolist() == [4, 4]


def test_landmark_file_parsing(tmp_path):
    p2 = tmp_path / "a.lm2"
    p2.write_text("# comment\n0.1 0.2\n0.3 0.4\n")
    assert np.allclose(load_landmarks_2d(p2), [[0.1, 0.2], [0.3, 0.4]])
    p3 = tmp_path / "a.lm3"
    p3.write_text("1 2 3\n")
    assert np.allclose(load_landmarks_3d(p3), [[1, 2, 3]])
    bad = tmp_path / "bad.lm2"
    bad.write_text("0.1 0.2 0.3\n")
    with pytest.raises(ParseError):
        load_landmarks_2d(bad)
    empty = tmp_path / "e.lm2"
    empty.write_text("# nothing\n")
    with pytest.raises(EmptyInput):
        load_landmarks_2d(empty)


@pytest.mark.parametrize("load, row", [
    (load_landmarks_2d, b"nan 0.3"),
    (load_landmarks_2d, b"1e999 0.3"),
    (load_landmarks_2d, b"0.1 0.3\xff"),
    (load_landmarks_3d, b"0 inf 1"),
    (load_landmarks_3d, b"0 1 -nan"),
    (load_landmarks_3d, b"\xff0 1 2"),
])
def test_landmark_file_bad_row_is_parse_error_at_its_line(tmp_path, load, row):
    good = b" ".join([b"0.5"] * len(row.split()))
    p = tmp_path / "points"
    p.write_bytes(b"# points\n" + good + b"\n" + row + b"\n" + good + b"\n")
    with pytest.raises(ParseError) as info:
        load(p)
    assert info.value.line == 3


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_same_vertex():
    g = build_edge_graph(synth_mesh())
    path = geodesic_path(g, 5, 5)
    assert list(path.vertices) == [5]
    assert path.total_length == 0.0


def test_geodesic_single_edge_length():
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [2.5, 0, 0], [1.25, 5, 0]], [[0, 1, 2]]
    )
    g = build_edge_graph(mesh)
    path = geodesic_path(g, 0, 1)
    assert list(path.vertices) == [0, 1]
    assert path.total_length == 2.5


def test_geodesic_matches_brute_force_and_chord_bound():
    mesh = synth_mesh(grid=7)
    g = build_edge_graph(mesh)
    for src in (0, 10, 25):
        oracle = brute_dijkstra(g, src)
        for dst in range(0, g.n_nodes, 5):
            path = geodesic_path(g, src, dst)
            assert path.total_length == pytest.approx(oracle[dst], rel=1e-12)
            chord = np.linalg.norm(mesh.vertices[src] - mesh.vertices[dst])
            assert path.total_length >= chord - 1e-9


def test_geodesic_path_is_connected_walk():
    g = build_edge_graph(synth_mesh(grid=6))
    path = geodesic_path(g, 0, g.n_nodes - 1)
    edge_set = {(u, v) for u, v in undirected_edges(g)[0].tolist()}
    for a, b in zip(path.vertices, path.vertices[1:]):
        assert (min(a, b), max(a, b)) in edge_set
    assert np.all(np.diff(path.cumulative) > 0)


def test_geodesic_symmetry_exact():
    g = build_edge_graph(synth_mesh(grid=8))
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, b = rng.integers(0, g.n_nodes, size=2)
        assert geodesic_path(g, int(a), int(b)).total_length == geodesic_path(
            g, int(b), int(a)
        ).total_length


def test_geodesic_triangle_inequality():
    g = build_edge_graph(synth_mesh(grid=6))
    rng = np.random.default_rng(4)
    for _ in range(60):
        a, b, c = (int(x) for x in rng.integers(0, g.n_nodes, size=3))
        ab = geodesic_path(g, a, b).total_length
        bc = geodesic_path(g, b, c).total_length
        ac = geodesic_path(g, a, c).total_length
        assert ac <= ab + bc + 1e-9


def test_geodesic_unreachable():
    g = build_edge_graph(two_component_mesh())
    with pytest.raises(Unreachable):
        geodesic_path(g, 0, 3)


@pytest.mark.parametrize("src, dst", [(-1, 2), (0, 6), (6, 6)])
def test_geodesic_vertex_out_of_range(src, dst):
    g = build_edge_graph(two_component_mesh())
    with pytest.raises(IndexError):
        geodesic_path(g, src, dst)


def test_absorbed_edge_weight_is_an_invariant_error():
    # path 0 - 1 - 2: the unit edge vanishes in 1e20 + 1.0 == 1e20
    g = EdgeGraph(
        n_nodes=3,
        indptr=np.array([0, 1, 3, 4]),
        targets=np.array([1, 0, 2, 1]),
        weights_csr=np.array([1e20, 1e20, 1.0, 1.0]),
    )
    with pytest.raises(InvariantError, match="absorbed"):
        geodesic_path(g, 0, 2)


# ---------------------------------------------------------------------------
# midpoints


def path_from(cumulative):
    verts = np.arange(len(cumulative), dtype=np.int64)
    return GeodesicPath(vertices=verts, cumulative=np.asarray(cumulative, dtype=np.float64))


def test_midpoint_symmetric_three_vertex():
    v, _ = geodesic_midpoint(path_from([0.0, 1.0, 2.0]))
    assert v == 1


def test_midpoint_two_vertex_tie_takes_earlier():
    v, _ = geodesic_midpoint(path_from([0.0, 3.0]))
    assert v == 0


def test_midpoint_uneven_cumulative():
    # cumulative [0,1,2,3,10], L/2=5: |3-5|=2 is the minimum
    v, _ = geodesic_midpoint(path_from([0.0, 1.0, 2.0, 3.0, 10.0]))
    assert v == 3


def test_midpoint_zero_length_degenerate():
    with pytest.raises(DegeneratePath):
        geodesic_midpoint(path_from([0.0]))


def test_midpoint_deviation_bounded_by_max_edge():
    g = build_edge_graph(synth_mesh(grid=9))
    rng = np.random.default_rng(6)
    for _ in range(40):
        a, b = (int(x) for x in rng.integers(0, g.n_nodes, size=2))
        if a == b:
            continue
        path = geodesic_path(g, a, b)
        v, _ = geodesic_midpoint(path)
        idx = list(path.vertices).index(v)
        max_edge = np.diff(path.cumulative).max()
        assert abs(path.cumulative[idx] - path.total_length / 2) <= max_edge + 1e-12


def test_midpoint_returns_position_with_mesh():
    mesh = synth_mesh(grid=6)
    g = build_edge_graph(mesh)
    path = geodesic_path(g, 0, g.n_nodes - 1)
    v, pos = geodesic_midpoint(path, mesh)
    assert np.array_equal(pos, mesh.vertices[v])


def test_arc_lengths_equal_per_prefix_fsum():
    def exact_prefixes(weights):
        # each prefix summed exactly in rationals, then rounded once to float
        return [0.0] + [float(total) for total in itertools.accumulate(map(Fraction, weights))]

    rng = np.random.default_rng(35)
    for _ in range(300):
        n_edges = int(rng.integers(1, 301))
        weights = (10.0 ** rng.uniform(-8, 8, size=n_edges)).tolist()  # 1e-8 to 1e8
        chain = list(range(n_edges + 1))
        want = exact_prefixes(weights)
        got_chain, got = landmark_engine._arc_lengths(chain, weights, 0)
        assert got_chain == chain
        assert np.array(got).tobytes() == np.array(want).tobytes()
        # walked from the other end: reversed, then summed from the start vertex
        back = exact_prefixes(weights[::-1])
        got_chain, got = landmark_engine._arc_lengths(chain, weights, n_edges)
        assert got_chain == chain[::-1]
        assert np.array(got).tobytes() == np.array(back).tobytes()


# ---------------------------------------------------------------------------
# augmentation


def base_landmarks(mesh, n=10, seed=8):
    rng = np.random.default_rng(seed)
    return lift_landmarks(mesh, rng.uniform(size=(n, 2)))


def test_augment_empty_pairs_identity():
    mesh = synth_mesh()
    base = base_landmarks(mesh)
    result = augment_landmarks(mesh, build_edge_graph(mesh), base, [])
    assert_same_landmarks(result.landmarks, base)
    assert result.skipped == []


def test_augment_68_plus_15_gives_83():
    mesh = synth_mesh(grid=12)
    base = base_landmarks(mesh, n=68)
    pairs = [(i, 67 - i) for i in range(15)]
    result = augment_landmarks(mesh, build_edge_graph(mesh), base, pairs)
    lms = result.landmarks
    assert len(lms) == 83 and lms.n_base == 68
    assert lms.sources.tolist() == [list(p) for p in pairs]


def test_augment_append_only_prefix():
    mesh = synth_mesh()
    base = base_landmarks(mesh)
    result = augment_landmarks(mesh, build_edge_graph(mesh), base, [(0, 9), (2, 7)])
    lms = result.landmarks
    assert lms.n_base == len(base)
    assert np.array_equal(lms.anchors[: len(base)], base.anchors)
    assert lms.positions[: len(base)].tobytes() == base.positions.tobytes()


def test_augment_midpoint_is_on_path():
    mesh = synth_mesh(grid=8)
    g = build_edge_graph(mesh)
    base = base_landmarks(mesh, n=6)
    result = augment_landmarks(mesh, g, base, [(0, 5)])
    lms = result.landmarks
    path = geodesic_path(g, base.anchors[0], base.anchors[5])
    assert lms.anchors[-1] in path.vertices.tolist()
    assert np.array_equal(lms.positions[-1], mesh.vertices[lms.anchors[-1]])


def test_augment_disconnected_pair_skipped():
    mesh = two_component_mesh()
    g = build_edge_graph(mesh)
    base = snap_to_mesh(mesh, [mesh.vertices[0], mesh.vertices[4]])
    result = augment_landmarks(mesh, g, base, [(0, 1)])
    assert result.skipped == [(0, 1)]
    assert len(result.landmarks) == 2


def test_augment_ids_stay_dense_after_skip():
    mesh = two_component_mesh()
    g = build_edge_graph(mesh)
    # landmarks 0, 1 in one component, 2 in the other
    base = snap_to_mesh(mesh, [mesh.vertices[0], mesh.vertices[1], mesh.vertices[4]])
    result = augment_landmarks(mesh, g, base, [(0, 2), (0, 1)])
    assert result.skipped == [(0, 2)]
    lms = result.landmarks
    assert len(lms) == 4 and lms.n_base == 3  # dense despite the skip
    assert lms.sources.tolist() == [[0, 1]]


def test_augment_invalid_pair():
    mesh = synth_mesh()
    base = base_landmarks(mesh, n=4)
    g = build_edge_graph(mesh)
    with pytest.raises(InvalidPair):
        augment_landmarks(mesh, g, base, [(0, 0)])
    with pytest.raises(InvalidPair):
        augment_landmarks(mesh, g, base, [(0, 99)])
    # pair ids name base landmarks only: -1 and the first augmented id are out
    augmented = augment_landmarks(mesh, g, base, [(0, 3)]).landmarks
    for pair in [(-1, 0), (0, 4)]:
        with pytest.raises(InvalidPair):
            augment_landmarks(mesh, g, augmented, [pair])
    assert augment_landmarks(mesh, g, augmented, [(1, 3)]).landmarks.sources.tolist() == \
        [[0, 3], [1, 3]]


def test_augment_same_anchor_pair_not_skipped():
    mesh = synth_mesh()
    p = mesh.uv[12]
    base = lift_landmarks(mesh, [p, p])  # two ids, one anchor
    result = augment_landmarks(mesh, build_edge_graph(mesh), base, [(0, 1)])
    assert result.skipped == []
    assert result.landmarks.anchors[2] == base.anchors[0]


def test_augment_deterministic():
    mesh = synth_mesh()
    g = build_edge_graph(mesh)
    base = base_landmarks(mesh)
    pairs = [(0, 9), (1, 8), (2, 7)]
    a = augment_landmarks(mesh, g, base, pairs)
    b = augment_landmarks(mesh, g, base, pairs)
    assert_same_landmarks(a.landmarks, b.landmarks)


def test_ordering_hash_tracks_structure_not_geometry():
    m1 = synth_mesh(seed=2)
    m2 = synth_mesh(seed=3)  # different geometry, same landmark structure
    rng = np.random.default_rng(9)
    pts = rng.uniform(size=(12, 2))
    h1 = lift_landmarks(m1, pts).ordering_hash()
    h2 = lift_landmarks(m2, pts).ordering_hash()
    assert h1 == h2
    h3 = lift_landmarks(m1, pts[:11]).ordering_hash()
    assert h1 != h3


# ordering_hash of two sets, pinned before landmarks became arrays: the shipped
# synth set (J = 28, B = 16), and 68 lifted base landmarks with the shipped
# augmentation pairs (J = 83)
SHIPPED_SYNTH_ORDERING_HASH = 17776700141229389604
LIFTED_SHIPPED_PAIRS_ORDERING_HASH = 1015977540414376111


def assert_read_only(lms):
    for a in (lms.anchors, lms.positions, lms.sources):
        assert not a.flags.writeable


def test_ordering_hash_pinned_for_shipped_synth_set():
    lms = build_dataset(SynthConfig()).landmarks
    assert (len(lms), lms.n_base) == (28, 16)
    assert lms.ordering_hash() == SHIPPED_SYNTH_ORDERING_HASH
    assert_read_only(lms)


def test_ordering_hash_pinned_for_lifted_set_at_shipped_pairs():
    mesh = synth_mesh(grid=24)
    base = lift_landmarks(mesh, np.random.default_rng(68).uniform(size=(68, 2)))
    result = augment_landmarks(mesh, build_edge_graph(mesh), base, DEFAULT_AUGMENT_PAIRS)
    assert result.skipped == [] and len(result.landmarks) == 83
    assert result.landmarks.ordering_hash() == LIFTED_SHIPPED_PAIRS_ORDERING_HASH
    assert_read_only(base)
    assert_read_only(result.landmarks)


# ---------------------------------------------------------------------------
# references: one Dijkstra per pair, and the broadcast uv lift


def reference_geodesic_path(graph, src, dst):
    """One search per pair, stopping at dst: the path geodesic_path must reproduce."""
    if src == dst:
        return GeodesicPath(vertices=np.array([src], dtype=np.int64), cumulative=np.zeros(1))
    n = graph.n_nodes
    indptr, targets, weights = graph.indptr, graph.targets, graph.weights_csr
    a, b = (src, dst) if src < dst else (dst, src)
    dist, pred, done = [math.inf] * n, [-1] * n, [False] * n
    dist[a] = 0.0
    heap = [(0.0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == b:
            break
        for i in range(int(indptr[u]), int(indptr[u + 1])):
            v = int(targets[i])
            if done[v]:
                continue
            nd = d + float(weights[i])
            if nd < dist[v]:
                dist[v], pred[v] = nd, u
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] and u < pred[v]:
                pred[v] = u
    if not done[b]:
        raise Unreachable(f"no path from {src} to {dst}")
    chain = [b]
    while chain[-1] != a:
        chain.append(pred[chain[-1]])
    chain.reverse()
    if src != a:
        chain.reverse()
    edge_weights = []
    for u, v in zip(chain, chain[1:]):
        lo, hi = int(indptr[u]), int(indptr[u + 1])
        edge_weights.append(float(weights[lo + list(targets[lo:hi]).index(v)]))
    cumulative = np.array([0.0] + [math.fsum(edge_weights[:i]) for i in range(1, len(chain))])
    return GeodesicPath(vertices=np.array(chain, dtype=np.int64), cumulative=cumulative)


def unit_grids(n, rng, copies=2):
    """`copies` disconnected n x n unit grids, random cell diagonals: many equal-length paths."""
    verts, faces = [], []
    for c in range(copies):
        off = len(verts)
        verts += [(i + 10.0 * n * c, j, 0.0) for i in range(n) for j in range(n)]
        for i in range(n - 1):
            for j in range(n - 1):
                p, q, r, s = (off + i * n + j, off + (i + 1) * n + j,
                              off + i * n + j + 1, off + (i + 1) * n + j + 1)
                faces += [(p, q, r), (q, s, r)] if rng.random() < 0.5 else [(p, q, s), (p, s, r)]
    return TexturedMesh.from_arrays(verts, faces)


def test_geodesic_path_matches_per_pair_reference_on_unit_grids():
    rng = np.random.default_rng(31)
    mesh = unit_grids(9, rng)
    g = build_edge_graph(mesh)
    for _ in range(150):
        s, d = (int(x) for x in rng.integers(0, g.n_nodes, size=2))
        try:
            want = reference_geodesic_path(g, s, d)
        except Unreachable:
            with pytest.raises(Unreachable):
                geodesic_path(g, s, d)
            continue
        got = geodesic_path(g, s, d)
        assert got.vertices.tolist() == want.vertices.tolist()
        assert got.cumulative.tobytes() == want.cumulative.tobytes()


def test_augment_matches_per_pair_reference_on_unit_grids():
    rng = np.random.default_rng(32)
    n_skipped = 0
    for trial in range(6):
        mesh = unit_grids(8, rng)
        g = build_edge_graph(mesh)
        # few distinct anchors, so many pairs share their smaller anchor
        picks = rng.integers(0, mesh.n_vertices, size=6)
        base = snap_to_mesh(mesh, mesh.vertices[rng.choice(picks, size=12)])
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 12, size=(30, 2)) if a != b]
        got = augment_landmarks(mesh, g, base, pairs)

        mids, sources, skipped = [], [], []
        for a, b in pairs:
            va, vb = int(base.anchors[a]), int(base.anchors[b])
            if va == vb:
                mid = va
            else:
                try:
                    mid, _ = geodesic_midpoint(reference_geodesic_path(g, va, vb))
                except Unreachable:
                    skipped.append((a, b))
                    continue
            mids.append(mid)
            sources.append([a, b])
        assert got.skipped == skipped
        n_skipped += len(skipped)
        lms = got.landmarks
        assert lms.n_base == len(base)
        assert lms.anchors.tolist() == base.anchors.tolist() + mids
        assert lms.sources.tolist() == sources
        assert np.array_equal(lms.positions, mesh.vertices[lms.anchors])
    assert n_skipped > 0


def with_random_weights(graph, rng):
    """The same edges as ``graph`` with seeded weights in [0.1, 1), symmetric in CSR."""
    n = graph.n_nodes
    edges, _ = undirected_edges(graph)
    weights = rng.uniform(0.1, 1.0, size=len(edges))
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    keys = np.minimum(rows, graph.targets) * n + np.maximum(rows, graph.targets)
    edge_of = np.searchsorted(edges[:, 0] * n + edges[:, 1], keys)
    return dataclasses.replace(graph, weights_csr=weights[edge_of])


def test_augment_batched_sources_match_per_pair_reference_on_random_weights():
    rng = np.random.default_rng(34)
    mesh = unit_grids(9, rng)  # two components of 81 vertices each
    g = with_random_weights(build_edge_graph(mesh), rng)
    anchors = [3, 17, 40, 44, 62, 80, 81 + 40]  # the last lies in the other component
    base = snap_to_mesh(mesh, mesh.vertices[anchors])
    pairs = [(0, 1), (0, 4), (0, 6), (1, 2), (1, 5), (2, 3), (3, 4), (5, 0), (4, 5)]
    got = augment_landmarks(mesh, g, base, pairs)

    assert got.skipped == [(0, 6)]
    want = [geodesic_midpoint(reference_geodesic_path(g, anchors[a], anchors[b]))[0]
            for a, b in pairs if (a, b) != (0, 6)]
    assert got.landmarks.anchors[len(base):].tolist() == want


def test_lift_matches_broadcast_reference():
    rng = np.random.default_rng(33)
    n = 400
    uv = rng.uniform(size=(n, 2))
    uv[: n // 2] = np.round(uv[: n // 2] * 8) / 8  # lattice vertices, some repeated
    mesh = TexturedMesh.from_arrays(rng.normal(size=(n, 3)), [[0, 1, 2]], uv=uv)
    lattice = uv[: n // 2]
    # free points, and lattice points and midpoints: exact distance ties
    pts = np.concatenate([rng.uniform(size=(300, 2)), lattice[:40],
                          (lattice[:40] + lattice[40:80]) / 2])
    want = np.argmin(((mesh.uv[None, :, :] - pts[:, None, :]) ** 2).sum(axis=2), axis=1)
    assert lift_landmarks(mesh, pts).anchors.tolist() == want.tolist()


def test_lift_at_scan_scale_matches_per_point_argmin():
    # a 200 x 200 float32 uv grid (200 vertices share each u), as on a scan
    # frame: the queries run x-sorted windows over (u, v, 0)
    g = np.linspace(0.0, 1.0, 200).astype(np.float32).astype(np.float64)
    u, v = np.meshgrid(g, g, indexing="ij")
    uv = np.stack([u.ravel(), v.ravel()], axis=1)
    rng = np.random.default_rng(34)
    mesh = TexturedMesh.from_arrays(rng.normal(size=(len(uv), 3)), [[0, 1, 2]], uv=uv)
    pick = rng.integers(len(uv), size=(3, 20))
    pts = np.concatenate([rng.uniform(size=(28, 2)), uv[pick[0]],
                          (uv[pick[1]] + uv[pick[2]]) / 2, [[-0.5, 0.5], [1.5, 0.5]]])
    want = [int(np.argmin((uv[:, 0] - a) ** 2 + (uv[:, 1] - b) ** 2)) for a, b in pts]
    assert lift_landmarks(mesh, pts).anchors.tolist() == want


@pytest.mark.parametrize("bad", [[np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf], [0.5, np.nan]])
def test_lift_refuses_non_finite_points(bad):
    # these used to anchor silently to vertex 0
    with pytest.raises(InvariantError):
        lift_landmarks(synth_mesh(), [[0.5, 0.5], bad])


# ---------------------------------------------------------------------------
# sequences: frames batched into one search


SEQUENCE_PAIRS = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)]


def sequence_frames():
    """(mesh, base) frames of different N; four base landmarks each, for SEQUENCE_PAIRS.

    The two-component frame puts pairs (0, 2) and (2, 3) across its
    components and anchors landmarks 0 and 3 on one vertex, so (3, 0) is a
    va == vb pair.
    """
    rng = np.random.default_rng(40)
    frames = []
    for grid, seed in ((8, 2), (10, 3), (12, 4), (9, 5)):
        mesh = synth_mesh(grid=grid, seed=seed)
        uv = rng.uniform(size=(4, 2))
        if grid == 12:
            uv[3] = uv[0]  # one anchor for landmarks 0 and 3
        frames.append((mesh, lift_landmarks(mesh, uv)))
    mesh = two_component_mesh()
    frames.insert(2, (mesh, snap_to_mesh(mesh, mesh.vertices[[0, 1, 4, 0]])))
    return frames


def assert_same_results(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_landmarks(g.landmarks, w.landmarks)
        assert g.skipped == w.skipped


@pytest.mark.parametrize("budget, searches", [(1, 5), (600, 3), (None, 1), (1 << 40, 1)],
                         ids=["one-row", "some-frames", "default", "all-frames"])
def test_augment_sequence_equals_per_frame_augment(monkeypatch, budget, searches):
    if budget is not None:
        monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", budget)
    frames = sequence_frames()
    calls = []
    search = landmark_engine._search
    monkeypatch.setattr(landmark_engine, "_search", lambda *a: calls.append(a) or search(*a))
    got = augment_sequence(frames, SEQUENCE_PAIRS)
    assert len(calls) == searches
    monkeypatch.undo()
    want = [augment_landmarks(mesh, build_edge_graph(mesh), base, SEQUENCE_PAIRS)
            for mesh, base in frames]
    assert len({mesh.n_vertices for mesh, _ in frames}) == len(frames)
    assert_same_results(got, want)
    assert got[2].skipped == [(0, 2), (2, 3)]
    assert got[2].landmarks.anchors[-1] == frames[2][1].anchors[0]  # the va == vb pair
    assert got[3].landmarks.anchors[-1] == frames[3][1].anchors[0]


def test_augment_sequence_of_no_frames():
    assert augment_sequence([], SEQUENCE_PAIRS) == []


def absorbing_frame():
    """Triangle whose unit edge vanishes next to 1e20: 1e20 + 1.0 == 1e20."""
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [1e20, 0, 0], [1e20, 1, 0]], [[0, 1, 2]])
    return mesh, snap_to_mesh(mesh, mesh.vertices[[0, 2, 1, 0]])


@pytest.mark.parametrize("budget", [1, None], ids=["own-batch", "shared-batch"])
def test_augment_sequence_absorbed_edge_in_later_frame(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", budget)
    frames = sequence_frames()
    assert len(augment_sequence(frames, SEQUENCE_PAIRS)) == len(frames)
    with pytest.raises(InvariantError, match="absorbed"):
        augment_sequence(frames + [absorbing_frame()], SEQUENCE_PAIRS)


def test_augment_sequence_checks_every_frame_before_searching():
    frames = sequence_frames()
    mesh = frames[1][0]
    frames[-1] = (mesh, lift_landmarks(mesh, mesh.uv[:3]))  # no base id 3
    with pytest.raises(InvalidPair):
        augment_sequence(frames, SEQUENCE_PAIRS)


def mixed_topology_frames():
    """(mesh, base) frames in topology runs, and each frame's run number.

    Run 0: three frames on one faces array, then one whose equal faces are a
    distinct array. Run 1: the same vertex count with half the faces (so
    some pairs are unreachable). Run 2: a different vertex count. Run 3: the
    first faces again, which start a new run as they do not follow run 0.
    """
    ident = IdentityParams(seed=6, grid=8)
    meshes = [make_frame_mesh(ident, ExpressionParams(emotion=2), t, 7) for t in range(5)]
    faces = meshes[0].faces
    uv = np.random.default_rng(41).uniform(size=(4, 2))
    frames, runs = [], []

    def add(mesh, run):
        frames.append((mesh, lift_landmarks(mesh, uv)))
        runs.append(run)

    for m in meshes[:3]:
        add(TexturedMesh.from_arrays(m.vertices, faces, m.colors, m.uv), 0)
    add(TexturedMesh.from_arrays(meshes[3].vertices, faces.copy(), meshes[3].colors, meshes[3].uv), 0)
    add(TexturedMesh.from_arrays(meshes[4].vertices, faces[::2], meshes[4].colors, meshes[4].uv), 1)
    add(synth_mesh(grid=9, seed=7), 2)
    add(TexturedMesh.from_arrays(meshes[1].vertices, faces, meshes[1].colors, meshes[1].uv), 3)
    return frames, runs


@pytest.mark.parametrize("budget", [1, None, 1 << 40], ids=["one-row", "default", "all-frames"])
def test_augment_sequence_shares_topology_per_run(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", budget)
    frames, runs = mixed_topology_frames()
    graphs, plans = [], []
    augment_batch, plan = landmark_engine._augment_batch, landmark_engine._plan
    monkeypatch.setattr(landmark_engine, "_augment_batch",
                        lambda batch: graphs.extend(g for _, g, _, _ in batch) or augment_batch(batch))
    monkeypatch.setattr(landmark_engine, "_plan", lambda *a: plans.append(a) or plan(*a))
    got = augment_sequence(frames, SEQUENCE_PAIRS)
    monkeypatch.undo()

    want = [augment_landmarks(mesh, build_edge_graph(mesh), base, SEQUENCE_PAIRS)
            for mesh, base in frames]
    assert_same_results(got, want)
    assert got[4].skipped  # run 1 drops faces, so some pairs cross components
    # one plan per distinct base: the frames on one uv grid share their anchors
    assert len(plans) == len({base.anchors.tobytes() for _, base in frames}) < len(frames)
    for (mesh, _), graph in zip(frames, graphs):
        want_graph = build_edge_graph(mesh)
        for name in ("indptr", "targets", "weights_csr"):
            assert getattr(graph, name).tobytes() == getattr(want_graph, name).tobytes()
    for i in range(1, len(frames)):
        shared = runs[i - 1] == runs[i]
        assert (graphs[i - 1].indptr is graphs[i].indptr) == shared
        assert (graphs[i - 1].targets is graphs[i].targets) == shared
        assert graphs[i - 1].weights_csr is not graphs[i].weights_csr


@pytest.mark.parametrize("vertex", [np.inf, 0.0], ids=["non-finite", "zero-length"])
@pytest.mark.parametrize("budget", [1, None, 1 << 40], ids=["one-row", "default", "all-frames"])
def test_augment_sequence_checks_each_frame_of_a_shared_run(monkeypatch, budget, vertex):
    if budget is not None:
        monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", budget)
    frames, _ = mixed_topology_frames()
    mesh, base = frames[2]
    vertices = mesh.vertices.copy()
    a, b = mesh.faces[5, :2]
    if vertex == np.inf:
        vertices[b, 1] = np.inf
    else:
        vertices[b] = vertices[a]  # coincident endpoints of a face edge
    frames[2] = (TexturedMesh.from_arrays(vertices, mesh.faces, mesh.colors, mesh.uv), base)
    with pytest.raises(InvariantError) as want:
        build_edge_graph(frames[2][0])
    with pytest.raises(InvariantError, match=f"^{re.escape(str(want.value))}$"):
        augment_sequence(frames, SEQUENCE_PAIRS)


# ---------------------------------------------------------------------------
# scan-size frames: each search bounded by a greedy walk


def height_field(z, copies=1):
    """`copies` disconnected n x n grids of unit spacing at heights z, one diagonal per cell."""
    n = z.shape[0]
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    grid = np.stack([i.ravel(), j.ravel(), z.ravel()], axis=1).astype(np.float64)
    idx = np.arange(n * n).reshape(n, n)
    a, b, c, d = (idx[:-1, :-1].ravel(), idx[1:, :-1].ravel(),
                  idx[:-1, 1:].ravel(), idx[1:, 1:].ravel())
    faces = np.concatenate([np.stack([a, b, c], 1), np.stack([b, d, c], 1)])
    return TexturedMesh.from_arrays(
        np.concatenate([grid + [2.0 * n * k, 0.0, 0.0] for k in range(copies)]),
        np.concatenate([faces + k * n * n for k in range(copies)]))


def bumps(n, rng, amplitude=3.0):
    """Seeded smooth heights on an n x n grid."""
    u = np.arange(n) / n
    z = np.zeros((n, n))
    for _ in range(4):
        fu, fv = rng.integers(1, 4, size=2)
        pu, pv = rng.uniform(0, 6.28, size=2)
        z += amplitude * np.outer(np.cos(2 * np.pi * fu * u + pu), np.cos(2 * np.pi * fv * u + pv))
    return z


def cells(*ij):
    return [i * 100 + j for i, j in ij]


def ridge_frame(rng):
    # a wall 40 high across the grid: walks that meet it stall at its foot
    z = bumps(100, rng)
    z[48:50, :] += 40.0
    return height_field(z), cells((20, 30), (80, 60), (30, 75), (75, 20), (10, 90), (60, 50))


def ties_frame(rng):
    # a flat unit grid: every path length is a sum of 1.0 and sqrt(2), with many ties
    return height_field(np.zeros((100, 100))), cells((10, 10), (40, 70), (90, 20), (25, 95),
                                                     (70, 70), (55, 5))


def components_frame(rng):
    # landmark 5 lies on a second copy of the grid (rows 100 on), out of reach of the others
    return height_field(bumps(100, rng), copies=2), cells((20, 30), (80, 60), (30, 75), (75, 20),
                                                          (50, 50), (150, 40))


SCAN_PAIRS = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 0), (5, 0),
              (4, 5)]


def scan_case(make, seed):
    mesh, anchors = make(np.random.default_rng(seed))
    return mesh, snap_to_mesh(mesh, mesh.vertices[anchors])


def walk_chains(mesh, base, pairs, points):
    """Every _walk_back chain of one frame's _search, keyed by (source, target) vertex."""
    graph = build_edge_graph(mesh)
    plan = landmark_engine._plan(base, pairs)
    sources = list(plan.targets)
    targets = [plan.targets[s] for s in sources]
    n = graph.n_nodes
    shift = [r * n for r in range(len(sources))]
    assert len(sources) * n > mesh_core.BATCH_ENTRIES  # one frame fills a search pass
    dist = landmark_engine._search(graph, n, shift, sources, targets, points)
    ends = [(r, t) for r, ts in enumerate(targets) for t in ts if dist[t + shift[r]] < math.inf]
    walks = landmark_engine._walk_back(graph, dist, [shift[r] for r, _ in ends],
                                       [t for _, t in ends])
    return {(sources[r], t): walk for (r, t), walk in zip(ends, walks)}


@pytest.mark.parametrize("make, stalls", [(ridge_frame, True), (ties_frame, False),
                                          (components_frame, True)],
                         ids=["ridge", "ties", "components"])
def test_bounded_search_equals_unbounded_and_heap_reference(monkeypatch, make, stalls):
    mesh, base = scan_case(make, 50)
    bounds = []
    greedy = landmark_engine._greedy_bounds
    monkeypatch.setattr(landmark_engine, "_greedy_bounds",
                        lambda *a: bounds.append(greedy(*a)) or bounds[-1])
    got = augment_landmarks(mesh, build_edge_graph(mesh), base, SCAN_PAIRS)
    chains = walk_chains(mesh, base, SCAN_PAIRS, mesh.vertices)
    assert len(bounds) == 2  # one walk per bounded search
    assert np.isinf(bounds[0]).any() == stalls
    assert np.isfinite(bounds[0]).any()
    monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", 1 << 40)
    want = augment_landmarks(mesh, build_edge_graph(mesh), base, SCAN_PAIRS)
    assert len(bounds) == 2  # the unbounded search does not walk
    monkeypatch.undo()
    assert_same_landmarks(got.landmarks, want.landmarks)
    assert got.skipped == want.skipped
    assert chains == walk_chains(mesh, base, SCAN_PAIRS, None)

    graph = build_edge_graph(mesh)
    mids, skipped = [], []
    for a, b in SCAN_PAIRS:
        va, vb = int(base.anchors[a]), int(base.anchors[b])
        try:
            path = reference_geodesic_path(graph, va, vb)
        except Unreachable:
            skipped.append((a, b))
            continue
        chain, _ = chains[min(va, vb), max(va, vb)]
        assert chain[::-1] == path.vertices.tolist()[:: 1 if va < vb else -1]
        mids.append(geodesic_midpoint(path)[0])
    assert got.skipped == skipped
    assert (make is components_frame) == bool(skipped)
    assert got.landmarks.anchors[len(base):].tolist() == mids


def test_bounded_search_from_isolated_anchors_skips_their_pairs(monkeypatch):
    # vertices 0-3 are in no face, and every search starts at one: no walk can take a step
    grid = height_field(bumps(100, np.random.default_rng(52)))
    mesh = TexturedMesh.from_arrays(
        np.concatenate([[[-5.0, -5.0, float(i)] for i in range(4)], grid.vertices]),
        grid.faces + 4)
    base = snap_to_mesh(mesh, mesh.vertices[[0, 1, 2, 3] + [4 + v for v in cells((20, 30),
                                                                                  (80, 60))]])
    pairs = [(i, j) for i in range(4) for j in (4, 5)]
    got = augment_landmarks(mesh, build_edge_graph(mesh), base, pairs)
    monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", 1 << 40)
    want = augment_landmarks(mesh, build_edge_graph(mesh), base, pairs)
    monkeypatch.undo()
    assert got.skipped == want.skipped == pairs
    assert_same_landmarks(got.landmarks, want.landmarks)
    assert walk_chains(mesh, base, pairs, mesh.vertices) == {}


def test_bounded_search_raises_on_an_absorbed_edge_of_a_shortest_path(monkeypatch):
    # vertex 10000 sits 1e-30 above vertex (50, 50): d + 1e-30 == d on the way to it
    z = bumps(100, np.random.default_rng(51))
    z[50, 50] = 0.0
    grid = height_field(z)
    a, c = 50 * 100 + 50, 51 * 100 + 50
    mesh = TexturedMesh.from_arrays(
        np.concatenate([grid.vertices, [[50.0, 50.0, 1e-30]]]),
        np.concatenate([grid.faces, [[a, 10000, c]]]))
    base = snap_to_mesh(mesh, mesh.vertices[[10 * 100 + 10, 10000, 90 * 100 + 20, 30 * 100 + 80,
                                             80 * 100 + 80]])
    assert base.anchors[1] == 10000
    pairs = [(0, 1), (0, 2), (2, 1), (3, 1), (3, 4), (1, 4)]
    walked = []
    greedy = landmark_engine._greedy_bounds
    monkeypatch.setattr(landmark_engine, "_greedy_bounds", lambda *a: walked.append(a) or greedy(*a))
    with pytest.raises(InvariantError, match="absorbed"):
        augment_landmarks(mesh, build_edge_graph(mesh), base, pairs)
    assert walked
    monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", 1 << 40)
    with pytest.raises(InvariantError, match="absorbed"):
        augment_landmarks(mesh, build_edge_graph(mesh), base, pairs)
