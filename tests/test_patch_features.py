import errno
import mmap
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from facegcn import mesh_core
from facegcn.dataset_synth import ExpressionParams, IdentityParams, make_frame_mesh
from facegcn.errors import EmptyMesh, InconsistentLandmarks, InvariantError, ParseError
from facegcn.landmark_engine import LandmarkSet, augment_landmarks, lift_landmarks, snap_to_mesh
from facegcn.mesh_core import TexturedMesh
from facegcn.patch_features import (
    FeatureTensor,
    KdIndex,
    build_kd_index,
    build_sequence_tensor,
    extract_patch,
    load_tensor,
    save_tensor,
)

from test_cli import child_env


def synth_mesh(grid=10, seed=4, t=1):
    return make_frame_mesh(IdentityParams(seed=seed, grid=grid), ExpressionParams(emotion=2), t, 6)


def brute_knn(points, q, k):
    """Oracle: full sorted scan by (squared distance, index)."""
    d2 = ((points - q) ** 2).sum(axis=1)
    order = sorted(range(len(points)), key=lambda i: (d2[i], i))
    return order[: min(k, len(points))]


# ---------------------------------------------------------------------------
# KdIndex


def test_single_point_index():
    idx = KdIndex(np.array([[1.0, 2.0, 3.0]]))
    assert list(idx.k_nearest([0, 0, 0], 1)) == [0]
    assert list(idx.k_nearest([9, 9, 9], 5)) == [0]  # min(k, N)


def test_kd_matches_brute_force_random():
    rng = np.random.default_rng(11)
    pts = rng.normal(size=(500, 3))
    index = KdIndex(pts)
    for qi in range(50):
        q = rng.normal(size=3) * 1.5
        for k in (1, 5, 20):
            assert list(index.k_nearest(q, k)) == brute_knn(pts, q, k)


def test_kd_matches_brute_force_lattice_ties():
    # integer lattice: queries at cell centers produce exact distance ties
    g = np.arange(5, dtype=np.float64)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    index = KdIndex(pts)
    rng = np.random.default_rng(12)
    for _ in range(30):
        q = rng.integers(0, 4, size=3) + 0.5
        for k in (1, 5, 20):
            assert list(index.k_nearest(q, k)) == brute_knn(pts, q, k)


def test_kd_midpoint_tie_lower_index_first():
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [50, 50, 50]])
    index = KdIndex(pts)
    assert list(index.k_nearest([1.0, 0, 0], 2)) == [0, 1]


def test_kd_duplicate_points():
    pts = np.array([[1.0, 1, 1]] * 4 + [[2.0, 2, 2]])
    index = KdIndex(pts)
    assert list(index.k_nearest([1, 1, 1], 3)) == [0, 1, 2]


def test_columnwise_d2_bit_equal_to_row_sum():
    # KdIndex sums (dx² + dy²) + dz² over a (3, N) copy; the doubles must be
    # those of the (N, 3) row sum the brute-force oracle uses
    rng = np.random.default_rng(35)
    for scale in (1e-3, 1.0, 1e4):
        pts = rng.normal(size=(5003, 3)) * scale
        pts[::2] = pts[::2].astype(np.float32)  # mesh coordinates are float32-quantized
        cols = np.ascontiguousarray(pts.T)
        for q in np.concatenate([rng.normal(size=(10, 3)) * scale, pts[:10]]):
            row = ((pts - q) ** 2).sum(axis=1)
            dx, dy, dz = cols[0] - q[0], cols[1] - q[1], cols[2] - q[2]
            assert ((dx * dx + dy * dy) + dz * dz).tobytes() == row.tobytes()
            k = 30
            want = np.lexsort((np.arange(len(pts)), row))[:k]
            assert KdIndex(pts).k_nearest(q, k).tolist() == want.tolist()


def test_kd_tie_order_follows_row_sum_d2():
    # (a, b, c) and (b, a, c) have equal row-sum d² from the origin, so they
    # tie and come back in index order; another summation order would often
    # round them apart
    rng = np.random.default_rng(36)
    for a, b, c in rng.normal(size=(300, 3)):
        index = KdIndex(np.array([[b, a, c], [a, b, c]]))
        assert index.k_nearest([0.0, 0.0, 0.0], 2).tolist() == [0, 1]


def test_kd_rejects_empty_and_bad_k():
    with pytest.raises(EmptyMesh):
        KdIndex(np.zeros((0, 3)))
    index = KdIndex(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        index.k_nearest([0, 0, 0], 0)
    with pytest.raises(InvariantError):
        index.k_nearest([np.nan, 0, 0], 1)


def knn_many_cases():
    """(points, queries, k): seeded clouds, lattice ties, duplicates, N < k."""
    rng = np.random.default_rng(37)
    cloud = rng.normal(size=(300, 3))
    g = np.arange(5, dtype=np.float64)
    lattice = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    dupes = np.repeat(rng.normal(size=(6, 3)), 4, axis=0)
    return [
        (cloud, rng.normal(size=(40, 3)) * 1.5, 7),
        (cloud, cloud[:20], 1),  # queries on points: d² == 0 ties none
        (lattice, rng.integers(0, 4, size=(40, 3)) + 0.5, 9),  # cell centres: exact d² ties
        (lattice, lattice[::7], 27),
        (dupes, np.concatenate([dupes[::5], rng.normal(size=(5, 3))]), 6),  # duplicate points
        (cloud[:5], rng.normal(size=(8, 3)), 12),  # N < k: rows of N indices
    ]


@pytest.mark.parametrize("case", range(6))
def test_k_nearest_many_equals_per_query_k_nearest(case):
    pts, queries, k = knn_many_cases()[case]
    index = KdIndex(pts)
    got = index.k_nearest_many(queries, k)
    assert got.shape == (len(queries), min(k, len(pts)))
    for q, row in zip(queries, got):
        assert row.tolist() == index.k_nearest(q, k).tolist() == brute_knn(pts, q, k)
    assert index.k_nearest_many(queries[:1], k).tolist() == got[:1].tolist()  # R = 1


@pytest.mark.parametrize("over", [0, 1, 2])
def test_k_nearest_many_across_block_boundary(over):
    # R at, and just over, the queries one block holds: the rows of the last
    # block are answered alone and must not change
    g = np.arange(5, dtype=np.float64)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    per_block = mesh_core.BATCH_ENTRIES // len(pts)
    rng = np.random.default_rng(38)
    queries = rng.integers(0, 4, size=(per_block + over, 3)) + 0.5
    index = KdIndex(pts)
    got = index.k_nearest_many(queries, 10)
    assert [row.tolist() for row in got] == [brute_knn(pts, q, 10) for q in queries]


# Windowed queries: most cases above fit in one window of the whole set, so
# the ones below are sized to reach the x-sorted windows.


@pytest.fixture
def passes(monkeypatch):
    """Each KdIndex pass as it runs: ("window", w, rows in, rows left) or ("whole", N, rows)."""
    calls = []
    window_pass, whole_pass = KdIndex._window_pass, KdIndex._whole_pass

    def window(self, q, rows, k, w, out):
        left = window_pass(self, q, rows, k, w, out)
        calls.append(("window", w, rows.size, left.size))
        return left

    def whole(self, q, rows, k, out):
        calls.append(("whole", self.n, rows.size))
        whole_pass(self, q, rows, k, out)

    monkeypatch.setattr(KdIndex, "_window_pass", window)
    monkeypatch.setattr(KdIndex, "_whole_pass", whole)
    return calls


def uv_grid_points(n=150):
    """(u, v, 0) points of an n x n grid in steps of 1/128: n points share each u."""
    g = np.arange(n) / 128.0
    u, v = np.meshgrid(g, g, indexing="ij")
    return np.stack([u.ravel(), v.ravel(), np.zeros(n * n)], axis=1)


def windowed_cases():
    """name -> (points, queries, k); every case reaches the windowed pass."""
    rng = np.random.default_rng(40)
    scan = synth_mesh(grid=200).vertices  # N = 40 000, as a scan frame
    one_x = np.concatenate([np.full((4096, 1), 0.25), rng.normal(size=(4096, 2))], axis=1)
    uv = uv_grid_points()
    cloud = rng.uniform(-1.0, 1.0, size=(8192, 3))
    ends = np.array([[-4.0, 0.0, 0.0], [4.0, 0.5, -0.5], [-1.0001, 1.0, 1.0], [1.0001, -1.0, 0.0],
                     [-50.0, 3.0, 3.0], [50.0, 0.0, 0.0]])
    half_cell = [0.5 / 128, 0.5 / 128, 0.0]  # grid midpoints: exact d² ties
    uv_queries = np.concatenate([uv[rng.integers(len(uv), size=10)],
                                 uv[rng.integers(len(uv), size=10)] + half_cell,
                                 rng.uniform(0, 150 / 128, size=(10, 3)) * [1, 1, 0]])
    scan_queries = np.concatenate([scan[rng.integers(len(scan), size=20)],
                                   rng.normal(size=(12, 3)) * 0.5])
    return {
        "scan-scale": (scan, scan_queries, 25),
        "one-x": (one_x, np.concatenate([one_x[:4], [[0.25, 0, 0], [-1, 0, 0], [2, 1, 1]]]), 5),
        "uv-grid-k1": (uv, uv_queries, 1),
        "uv-grid-k9": (uv, uv[rng.integers(len(uv), size=12)] + half_cell, 9),
        "beyond-both-ends": (cloud, ends, 7),
    }


@pytest.mark.parametrize("name", list(windowed_cases()))
def test_windowed_k_nearest_many_equals_brute_force(name, passes):
    pts, queries, k = windowed_cases()[name]
    got = KdIndex(pts).k_nearest_many(queries, k)
    assert [row.tolist() for row in got] == [brute_knn(pts, q, k) for q in queries]
    assert passes[0][0] == "window"
    if name == "one-x":
        # no x gap anywhere: every row widens until the window would hold
        # a quarter of the set, then one pass over all N covers
        r = len(queries)
        assert passes == [("window", 512, r, r), ("window", 1024, r, r), ("whole", 4096, r)]
    if name == "scan-scale":
        assert passes[0][:3] == ("window", 2048, len(queries))


def test_whole_set_pass_when_the_window_would_hold_a_quarter(passes):
    # the shipped desk frame (N = 576, k = 25) and N < k never sort or window
    mesh = synth_mesh(grid=24)
    rng = np.random.default_rng(41)
    queries = rng.normal(size=(28, 3))
    for pts, k in ((mesh.vertices, 25), (mesh.vertices[:20], 30)):
        index = KdIndex(pts)
        got = index.k_nearest_many(queries, k)
        assert [row.tolist() for row in got] == [brute_knn(pts, q, k) for q in queries]
        assert index._order is None
    assert passes == [("whole", 576, 28), ("whole", 20, 28)]


def edge_tie_case(side):
    """Points whose first-window k-th (k = 4, d² = 25) ties the nearest point
    outside the window on ``side``; the outside point has the lower index.

    Built in x order around the query at the origin. N = 4096 and k = 4 give
    w = 256, so the window is x-sorted positions 1920..2175.
    """
    far = 1000.0  # y of every point that is not a neighbor
    near = [[0.0, 0, 0], [0.5, 0, 0], [1.0, 0, 0]] if side == "below" else \
        [[-1.0, 0, 0], [-0.5, 0, 0], [0.0, 0, 0]]

    def line(lo, hi, n):
        return np.stack([np.linspace(lo, hi, n), np.full(n, far), np.zeros(n)], axis=1)

    if side == "below":  # outside (-5, 0, 0) at position 1919, inside (3, 4, 0)
        parts = [line(-3000, -10, 1919), [[-5.0, 0, 0]], line(-4.9, -0.1, 128), near,
                 [[3.0, 4.0, 0]], line(3.1, 9, 124), line(1000, 3000, 1920)]
    else:  # inside (-3, 4, 0), outside (5, 0, 0) at position 2176
        parts = [line(-3000, -9, 1920), line(-8, -3.1, 125), [[-3.0, 4.0, 0]], near,
                 line(0.1, 4.9, 127), [[5.0, 0, 0]], line(1000, 3000, 1919)]
    pts = np.concatenate(parts)
    outside = {"below": 1919, "above": 2176}[side]
    inside = {"below": 2051, "above": 2045}[side]
    if side == "above":  # reverse the indices so the outside point comes first
        pts, outside, inside = pts[::-1], len(pts) - 1 - outside, len(pts) - 1 - inside
    return pts, outside, inside


@pytest.mark.parametrize("side", ["below", "above"])
def test_window_edge_tie_widens(side, passes):
    # the outside point's x gap alone equals the k-th, so the window is not
    # known to be exact; taking it as exact (a >= coverage test) would
    # return the inside point of the tie instead of the lower index
    pts, outside, inside = edge_tie_case(side)
    assert len(pts) == 4096
    want = brute_knn(pts, np.zeros(3), 4)
    assert want[-1] == outside and inside not in want
    assert KdIndex(pts).k_nearest([0.0, 0.0, 0.0], 4).tolist() == want
    assert passes[0] == ("window", 256, 1, 1)


@pytest.mark.parametrize("over", [0, 1, 2])
def test_windowed_pass_across_block_boundary(over, passes):
    # R at, and just over, the rows one windowed block holds (R·w within the
    # budget); the last row also needs a wider window
    pts, outside, _ = edge_tie_case("below")
    per_block = mesh_core.BATCH_ENTRIES // 256
    rng = np.random.default_rng(42)
    queries = np.concatenate([rng.uniform(-3000, 3000, size=(per_block + over - 1, 3)),
                              np.zeros((1, 3))])
    got = KdIndex(pts).k_nearest_many(queries, 4)
    assert [row.tolist() for row in got] == [brute_knn(pts, q, 4) for q in queries]
    assert got[-1, -1] == outside
    assert passes[0][:3] == ("window", 256, per_block + over) and passes[0][3] >= 1


def test_windowed_results_do_not_depend_on_budget(monkeypatch):
    tie_points, _, _ = edge_tie_case("above")
    cases = [*windowed_cases().values(), (tie_points, np.zeros((1, 3)), 4)]
    want = [KdIndex(pts).k_nearest_many(q, k) for pts, q, k in cases]
    for budget in (1, 1 << 40):
        monkeypatch.setattr(mesh_core, "BATCH_ENTRIES", budget)
        for (pts, q, k), w in zip(cases, want):
            assert KdIndex(pts).k_nearest_many(q, k).tolist() == w.tolist()


def test_k_nearest_many_traced_peak_at_scan_scale():
    # 83 landmarks over a 40k-vertex frame, on a fresh index so the one x
    # sort counts too; capped at the peak of one whole-set scan per row
    # (1 303 648 bytes measured), so windows cost no memory beyond it
    mesh = synth_mesh(grid=200)
    rng = np.random.default_rng(43)
    queries = mesh.vertices[rng.integers(mesh.n_vertices, size=83)]
    queries = queries + rng.normal(size=(83, 3)) * 0.01
    index = KdIndex(mesh.vertices)
    tracemalloc.start()
    try:
        index.k_nearest_many(queries, 25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.31e6


def test_k_nearest_many_rejects_bad_input():
    index = KdIndex(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        index.k_nearest_many(np.zeros((3, 3)), 0)
    with pytest.raises(InvariantError):
        index.k_nearest_many([[0, 0, 0], [0, np.inf, 0]], 1)
    assert index.k_nearest_many(np.zeros((0, 3)), 2).shape == (0, 2)


def test_build_kd_index_from_mesh():
    mesh = synth_mesh()
    index = build_kd_index(mesh)
    assert list(index.k_nearest(mesh.vertices[7], 1)) == brute_knn(mesh.vertices, mesh.vertices[7], 1)


# ---------------------------------------------------------------------------
# patches


def test_patch_at_anchor_has_zero_relative():
    mesh = synth_mesh()
    lms = snap_to_mesh(mesh, [mesh.vertices[13]])
    patch = extract_patch(build_kd_index(mesh), mesh, lms[0], 1)
    assert patch.shape == (6,)
    assert np.array_equal(patch[:3], np.zeros(3))


def test_patch_k200_gives_1200_channels():
    mesh = synth_mesh(grid=24)  # 576 vertices
    lms = snap_to_mesh(mesh, [mesh.vertices[300]])
    patch = extract_patch(build_kd_index(mesh), mesh, lms[0], 200)
    assert patch.shape == (1200,)
    assert patch.dtype == np.float32


def test_patch_padding_when_k_exceeds_vertices():
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]]
    )
    lms = snap_to_mesh(mesh, [[0, 0, 0]])
    groups = extract_patch(build_kd_index(mesh), mesh, lms[0], 5).reshape(5, 6)
    assert len({tuple(g) for g in groups[:3]}) == 3  # the three vertices, once each
    assert np.array_equal(groups[3:], [groups[2]] * 2)  # then the last one repeated


def test_patch_ordering_by_distance():
    mesh = synth_mesh()
    lms = snap_to_mesh(mesh, [mesh.vertices[40]])
    patch = extract_patch(build_kd_index(mesh), mesh, lms[0], 12).reshape(12, 6)
    dists = np.linalg.norm(patch[:, :3].astype(np.float64), axis=1)
    assert np.all(np.diff(dists) >= 0)
    assert dists[0] <= dists.min()


def test_patch_scale_normalize():
    mesh = synth_mesh()
    lms = snap_to_mesh(mesh, [mesh.vertices[40]])
    index = build_kd_index(mesh)
    raw = extract_patch(index, mesh, lms[0], 8).reshape(8, 6)
    scaled = extract_patch(index, mesh, lms[0], 8, scale_normalize=True).reshape(8, 6)
    raw_norms = np.linalg.norm(raw[:, :3].astype(np.float64), axis=1)
    norms = np.linalg.norm(scaled[:, :3].astype(np.float64), axis=1)
    assert norms.max() == pytest.approx(1.0)
    # the same neighbors in the same ranks: equal colors, xyz scaled by one factor
    assert np.array_equal(np.argsort(norms, kind="stable"), np.argsort(raw_norms, kind="stable"))
    assert np.array_equal(raw[:, 3:], scaled[:, 3:])
    assert np.allclose(scaled[:, :3] * raw_norms.max(), raw[:, :3], rtol=1e-6, atol=0)


def test_channels_interleave_rel_then_rgb():
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [2, 0, 0], [0, 3, 0]], [[0, 1, 2]], colors=np.eye(3)
    )
    lms = snap_to_mesh(mesh, [[0, 0, 0]])
    patch = extract_patch(build_kd_index(mesh), mesh, lms[0], 2)
    assert list(patch) == [0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 1, 0]


def test_channels_gray_default_slices():
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 3, 2]]
    )
    lms = snap_to_mesh(mesh, [[0, 0, 0]])
    vec = extract_patch(build_kd_index(mesh), mesh, lms[0], 4)
    for r in range(4):
        assert np.all(vec[6 * r + 3 : 6 * r + 6] == 0.5)


# ---------------------------------------------------------------------------
# sequence tensors


def landmark_pair(mesh):
    return lift_landmarks(mesh, [mesh.uv[3], mesh.uv[11]])


def test_tensor_small_shape():
    mesh = synth_mesh()
    t = build_sequence_tensor([(mesh, landmark_pair(mesh))], 1)
    assert t.values.shape == (6, 2, 1)
    assert t.values.dtype == np.float32


def test_tensor_paper_scale_shape():
    # 83 landmarks, k=200, T=100 on a tiny mesh: padding keeps C = 1200
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
        [[0, 1, 2], [1, 3, 2]],
        uv=[[0, 0], [1, 0], [0, 1], [1, 1]],
    )
    rng = np.random.default_rng(13)
    lms = lift_landmarks(mesh, rng.uniform(size=(83, 2)))
    frames = [(mesh, lms)] * 100
    t = build_sequence_tensor(frames, 200)
    assert t.values.shape == (1200, 83, 100)


def test_tensor_frame_permutation_permutes_t_axis():
    meshes = [synth_mesh(t=i) for i in range(4)]
    frames = [(m, landmark_pair(m)) for m in meshes]
    t_fwd = build_sequence_tensor(frames, 3)
    t_rev = build_sequence_tensor(frames[::-1], 3)
    assert np.array_equal(t_rev.values, t_fwd.values[:, :, ::-1])


def test_tensor_rejects_inconsistent_landmarks():
    m = synth_mesh()
    frames = [(m, landmark_pair(m)), (m, lift_landmarks(m, [m.uv[3]]))]
    with pytest.raises(InconsistentLandmarks):
        build_sequence_tensor(frames, 2)


def test_tensor_rejects_frames_differing_in_base_count():
    # J = 4 in both frames: three base landmarks and one augmented, then four base
    m = synth_mesh()
    uv = [m.uv[3], m.uv[11], m.uv[40], m.uv[50]]
    lms = augment_landmarks(m, mesh_core.build_edge_graph(m), lift_landmarks(m, uv[:3]),
                            [(0, 1)]).landmarks
    all_base = lift_landmarks(m, uv)
    assert len(lms) == len(all_base) and lms.n_base != all_base.n_base
    with pytest.raises(InconsistentLandmarks, match="frame 1 disagrees on landmark ordering"):
        build_sequence_tensor([(m, lms), (m, all_base)], 2)


def test_tensor_rejects_frames_differing_in_one_augmentation_source():
    m = synth_mesh()
    base = lift_landmarks(m, [m.uv[3], m.uv[11], m.uv[40]])
    lms = augment_landmarks(m, mesh_core.build_edge_graph(m), base, [(0, 1), (1, 2)]).landmarks
    sources = lms.sources.copy()
    sources[-1] = [2, 1]
    swapped = LandmarkSet(lms.anchors, lms.positions, lms.n_base, sources)
    tensor = build_sequence_tensor([(m, lms), (m, lms)], 2)
    assert tensor.landmark_hash == lms.ordering_hash() != swapped.ordering_hash()
    with pytest.raises(InconsistentLandmarks, match="frame 1 disagrees on landmark ordering"):
        build_sequence_tensor([(m, lms), (m, swapped)], 2)


def test_tensor_translation_invariance_bit_exact():
    mesh = synth_mesh()
    lms = landmark_pair(mesh)
    t0 = build_sequence_tensor([(mesh, lms)], 4)
    shift = np.array([4.0, -2.0, 8.0])
    moved = TexturedMesh.from_arrays(
        mesh.vertices + shift, mesh.faces, mesh.colors, mesh.uv
    )
    lms_moved = lift_landmarks(moved, [mesh.uv[3], mesh.uv[11]])
    t1 = build_sequence_tensor([(moved, lms_moved)], 4)
    assert np.array_equal(t0.values, t1.values)


def test_tensor_deterministic():
    mesh = synth_mesh()
    frames = [(mesh, landmark_pair(mesh))]
    a = build_sequence_tensor(frames, 5)
    b = build_sequence_tensor(frames, 5)
    assert np.array_equal(a.values, b.values)
    assert a.landmark_hash == b.landmark_hash


def reference_patch(mesh, position, k, scale_normalize):
    """One landmark's channel column from the brute-force oracle, padded and scaled alone."""
    idx = brute_knn(mesh.vertices, position, k)
    idx += [idx[-1]] * (k - len(idx))
    rel = mesh.vertices[idx] - position
    if scale_normalize:
        scale = float(np.sqrt((rel * rel).sum(axis=1)).max())
        if scale > 0.0:
            rel = rel / scale
    return np.concatenate([rel, mesh.colors[idx]], axis=1).reshape(-1).astype(np.float32)


@pytest.mark.parametrize("scale_normalize", [False, True])
def test_tensor_columns_equal_per_landmark_patches(scale_normalize):
    rng = np.random.default_rng(39)
    meshes = [synth_mesh(t=i) for i in range(3)]
    # three vertices on the origin: a landmark there has scale 0 for k <= 3,
    # next to landmarks with a positive scale in the same block
    flat = TexturedMesh.from_arrays(
        [[0, 0, 0]] * 3 + list(rng.normal(size=(5, 3))), [[0, 1, 2]] * 2
    )
    for k in (3, 12):
        for mesh in meshes + [flat]:
            lms = snap_to_mesh(mesh, np.concatenate([[[0, 0, 0]], rng.normal(size=(20, 3))]))
            t = build_sequence_tensor([(mesh, lms)] * 2, k, scale_normalize=scale_normalize)
            index = build_kd_index(mesh)
            for j, lm in enumerate(lms):
                want = extract_patch(index, mesh, lm, k, scale_normalize=scale_normalize)
                ref = reference_patch(mesh, lm.position, k, scale_normalize)
                assert want.tobytes() == ref.tobytes()
                assert t.values[:, j, 0].tobytes() == want.tobytes()
                assert t.values[:, j, 1].tobytes() == want.tobytes()


def test_channels_injective_given_k():
    mesh = synth_mesh()
    lms = landmark_pair(mesh)
    index = build_kd_index(mesh)
    back = extract_patch(index, mesh, lms[0], 4).reshape(4, 6)
    idx = index.k_nearest(lms[0].position, 4)
    rel = mesh.vertices[idx] - lms[0].position
    assert np.array_equal(back[:, :3], rel.astype(np.float32))
    assert np.array_equal(back[:, 3:], mesh.colors[idx].astype(np.float32))


# ---------------------------------------------------------------------------
# FGT1 cache


def test_fgt1_round_trip(tmp_path):
    mesh = synth_mesh()
    t = build_sequence_tensor([(mesh, landmark_pair(mesh))] * 3, 4)
    p = tmp_path / "t.fgt"
    save_tensor(t, p)
    loaded = load_tensor(p)
    assert np.array_equal(loaded.values, t.values)
    assert (loaded.k, loaded.landmark_hash) == (t.k, t.landmark_hash)
    p2 = tmp_path / "t2.fgt"
    save_tensor(loaded, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_fgt1_rejects_corruption(tmp_path):
    mesh = synth_mesh()
    t = build_sequence_tensor([(mesh, landmark_pair(mesh))], 2)
    p = tmp_path / "t.fgt"
    save_tensor(t, p)
    raw = bytearray(p.read_bytes())
    raw[0] = ord("X")
    p.write_bytes(bytes(raw))
    with pytest.raises(ParseError):
        load_tensor(p)
    p.write_bytes(bytes(raw[: len(raw) - 4]))
    with pytest.raises(ParseError):
        load_tensor(p)


def test_fgt1_load_is_a_read_only_view_of_the_saved_bytes(tmp_path):
    mesh = synth_mesh()
    t = build_sequence_tensor([(mesh, landmark_pair(mesh))] * 3, 4)
    p = tmp_path / "t.fgt"
    save_tensor(t, p)
    values = load_tensor(p).values
    assert values.dtype == np.float32 and values.flags.c_contiguous
    assert values.tobytes() == p.read_bytes()[28:]  # after the 28-byte header
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        values.flags.writeable = True


def test_fgt1_loaded_tensor_outlives_a_replaced_file(tmp_path):
    mesh = synth_mesh()
    old = build_sequence_tensor([(mesh, landmark_pair(mesh))] * 3, 4)
    new = FeatureTensor(old.values + 1, old.k, old.landmark_hash)
    p = tmp_path / "t.fgt"
    save_tensor(old, p)
    loaded = load_tensor(p)
    save_tensor(new, p)  # renames a new file over the mapped one
    assert np.array_equal(loaded.values, old.values)
    assert np.array_equal(load_tensor(p).values, new.values)


def test_fgt1_out_of_descriptors_names_the_file(tmp_path, monkeypatch):
    p = tmp_path / "t.fgt"
    save_tensor(FeatureTensor(np.zeros((6, 1, 1), np.float32), 1, 7), p)

    def no_descriptor_left(*args, **kwargs):
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(mmap, "mmap", no_descriptor_left)
    with pytest.raises(OSError) as info:
        load_tensor(p)
    assert info.value.errno == errno.EMFILE and info.value.filename == str(p)
    assert str(info.value) == f"[Errno {errno.EMFILE}] {os.strerror(errno.EMFILE)}: {str(p)!r}"


# loads every FGT1 file named on the command line, then reads every value of
# the first 16; prints VmRSS in bytes before loading, after it and after reading
RESIDENT_AFTER_LOAD = """
import sys
from facegcn.patch_features import load_tensor


def vm_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))


base = vm_rss()
tensors = [load_tensor(p) for p in sys.argv[1:]]
loaded = vm_rss()
for t in tensors[:16]:
    t.values.sum()
print(base, loaded, vm_rss())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_fgt1_payload_is_resident_only_once_read(tmp_path):
    values = np.random.default_rng(5).standard_normal((24, 28, 780)).astype(np.float32)
    size = values.nbytes  # about 2 MB
    paths = [tmp_path / f"t{i:02d}.fgt" for i in range(32)]
    save_tensor(FeatureTensor(values, 4, 7), paths[0])
    for p in paths[1:]:
        shutil.copyfile(paths[0], p)
    r = subprocess.run([sys.executable, "-c", RESIDENT_AFTER_LOAD, *map(str, paths)],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 0, r.stderr
    base, loaded, read = map(int, r.stdout.split())
    assert loaded - base < 2 * size
    assert 14 * size < read - base < 18 * size


def fgt1_bytes(c, j, t, k, values=None):
    """An FGT1 file with the given header counts and C*J*T float32 values (zeros by default)."""
    if values is None:
        values = np.zeros(c * j * t, dtype="<f4")
    return struct.pack("<4sIIIIQ", b"FGT1", c, j, t, k, 7) + np.asarray(values, "<f4").tobytes()


@pytest.mark.parametrize("data, message", [
    (fgt1_bytes(0, 0, 0, 0), "empty feature tensor"),
    (fgt1_bytes(0, 3, 2, 0), "empty feature tensor"),
    (fgt1_bytes(6, 0, 2, 1), "empty feature tensor"),
    (fgt1_bytes(6, 3, 0, 1), "empty feature tensor"),
    (fgt1_bytes(12, 1, 1, 1), "C=12 != 6\\*k"),
    (fgt1_bytes(6, 1, 1, 1, [0, 0, np.nan, 0, 0, 0]), "non-finite"),
    (fgt1_bytes(6, 1, 1, 1, [0, np.inf, 0, 0, 0, 0]), "non-finite"),
    (b"", "truncated FGT1 header"),  # mmap refuses an empty file
], ids=["all-zero", "k-zero", "J-zero", "T-zero", "C-not-6k", "nan", "inf", "empty"])
def test_fgt1_invalid_tensor_is_parse_error_naming_file(tmp_path, data, message):
    p = tmp_path / "bad.fgt"
    p.write_bytes(data)
    with pytest.raises(ParseError, match=message) as info:
        load_tensor(p)
    assert info.value.path == p and str(info.value).startswith(f"{p}: ")

