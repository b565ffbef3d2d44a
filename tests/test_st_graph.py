import numpy as np
import pytest

from facegcn.dataset_synth import ExpressionParams, IdentityParams, make_frame_mesh
from facegcn.errors import InvalidPair, ParseError, UnknownId
from facegcn.landmark_engine import LandmarkSet, lift_landmarks
from facegcn.mesh_core import build_edge_graph
from facegcn.st_graph import (
    PartitionLabels,
    SpatialGraph,
    build_spatial_edges,
    load_graph,
    normalize_adjacency,
    partition,
    save_graph,
)
from facegcn import landmark_engine

from stgcn_testutil import cardinalities, label, neighborhood


def base_landmarks_at(positions):
    """Base landmarks 0..J-1 at the given (J, 3) positions, on vertices 0..J-1."""
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    return LandmarkSet(anchors=np.arange(len(positions), dtype=np.int64), positions=positions,
                       n_base=len(positions), sources=np.empty((0, 2), dtype=np.int64))


def collinear_landmarks(n=3, spacing=1.0):
    return base_landmarks_at([[i * spacing, 0.0, 0.0] for i in range(n)])


def random_graph(j, rng, p=0.4):
    a = np.zeros((j, j), dtype=np.int8)
    for i in range(j):
        for k in range(i + 1, j):
            if rng.random() < p:
                a[i, k] = a[k, i] = 1
    return SpatialGraph(adjacency=a)


# ---------------------------------------------------------------------------
# build_spatial_edges


def test_single_node_graph():
    g = build_spatial_edges(collinear_landmarks(1), "knn", knn_m=2)
    assert g.J == 1
    assert g.adjacency.sum() == 0
    assert list(neighborhood(g, 0)) == [0]


def test_knn1_collinear_chain():
    # brute-force check: nearest of 0 is 1, of 1 is 0 (tie to lower), of 2 is 1
    lms = collinear_landmarks(3)
    pos = lms.positions
    for i in range(3):
        d = np.linalg.norm(pos - pos[i], axis=1)
        d[i] = np.inf
        nearest = min(range(3), key=lambda j: (d[j], j))
        assert nearest == {0: 1, 1: 0, 2: 1}[i]
    g = build_spatial_edges(lms, "knn", knn_m=1)
    expected = np.zeros((3, 3), dtype=np.int8)
    expected[0, 1] = expected[1, 0] = 1
    expected[1, 2] = expected[2, 1] = 1
    assert np.array_equal(g.adjacency, expected)


def test_knn_m_larger_than_graph_clamps():
    g = build_spatial_edges(collinear_landmarks(3), "knn", knn_m=10)
    # every node connects to every other node
    assert g.adjacency.sum() == 3 * 2


def knn_per_row_reference(pos, m):
    """Each row's m nearest other landmarks by a Python (d2, j) sort, symmetrized."""
    j_count = len(pos)
    d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
    a = np.zeros((j_count, j_count), dtype=np.int8)
    for i in range(j_count):
        order = sorted((j for j in range(j_count) if j != i), key=lambda j: (d2[i, j], j))
        a[i, order[:m]] = 1
    return a | a.T


def test_knn_graph_symmetric():
    rng = np.random.default_rng(21)
    cases = [(rng.normal(size=(12, 3)), 3)]
    # integer lattice points: exact distance ties and repeated points
    lattice = rng.integers(0, 3, size=(20, 3)).astype(np.float64)
    cases += [(lattice, m) for m in (1, 2, 4, 7)]
    for pos, m in cases:
        g = build_spatial_edges(base_landmarks_at(pos), "knn", knn_m=m)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0)
        assert np.array_equal(g.adjacency, knn_per_row_reference(pos, m))


def test_template_single_pair():
    g = build_spatial_edges(collinear_landmarks(3), "template", template_pairs=[(0, 1)])
    assert g.adjacency.sum() == 2  # one undirected edge


def test_template_includes_augmented_sources():
    mesh = make_frame_mesh(IdentityParams(seed=5, grid=8), ExpressionParams(emotion=0), 0, 4)
    base = lift_landmarks(mesh, [mesh.uv[2], mesh.uv[30], mesh.uv[60]])
    res = landmark_engine.augment_landmarks(mesh, build_edge_graph(mesh), base, [(0, 2)])
    g = build_spatial_edges(res.landmarks, "template", template_pairs=[(0, 1)])
    assert g.adjacency[0, 1] == 1
    assert g.adjacency[3, 0] == 1 and g.adjacency[3, 2] == 1  # augmented -> sources


def test_template_rejects_bad_pairs():
    with pytest.raises(UnknownId):
        build_spatial_edges(collinear_landmarks(3), "template", template_pairs=[(0, 9)])
    # the id range is 0..J-1: just below and just above it
    for pair in [(-1, 0), (0, 3), (3, 0)]:
        with pytest.raises(UnknownId, match=r"names an unknown landmark id"):
            build_spatial_edges(collinear_landmarks(3), "template", template_pairs=[pair])
    with pytest.raises(InvalidPair):
        build_spatial_edges(collinear_landmarks(3), "template", template_pairs=[(1, 1)])


# ---------------------------------------------------------------------------
# partition


def test_uniform_partition_all_zero():
    g = random_graph(5, np.random.default_rng(1))
    labels = partition(g, "uniform")
    assert labels.P == 1
    for i in range(5):
        for j in neighborhood(g, i):
            assert label(labels, i, int(j)) == 0


def test_distance_partition_two_node():
    a = np.array([[0, 1], [1, 0]], dtype=np.int8)
    labels = partition(SpatialGraph(adjacency=a), "distance")
    assert labels.P == 2
    assert label(labels, 0, 0) == 0
    assert label(labels, 0, 1) == 1
    assert label(labels, 1, 0) == 1
    assert label(labels, 1, 1) == 0


def test_partition_subsets_disjoint_cover():
    rng = np.random.default_rng(2)
    for trial in range(10):
        g = random_graph(6, rng)
        for strategy in ("uniform", "distance"):
            labels = partition(g, strategy)
            for i in range(g.J):
                b = set(int(x) for x in neighborhood(g, i))
                labeled = {j for j in range(g.J) if labels.labels[i, j] >= 0}
                assert labeled == b  # cover exactly B_i, each pair once


# ---------------------------------------------------------------------------
# normalize_adjacency


def test_normalize_no_edges_uniform_is_identity():
    g = SpatialGraph(adjacency=np.zeros((3, 3), dtype=np.int8))
    norm = normalize_adjacency(g, partition(g, "uniform"))
    assert norm.shape[0] == 1
    assert np.array_equal(norm[0], np.eye(3))


def test_normalize_two_node_uniform():
    g = SpatialGraph(adjacency=np.array([[0, 1], [1, 0]], dtype=np.int8))
    norm = normalize_adjacency(g, partition(g, "uniform"))
    assert np.allclose(norm[0], [[0.5, 0.5], [0.5, 0.5]])


def test_normalize_two_node_distance():
    g = SpatialGraph(adjacency=np.array([[0, 1], [1, 0]], dtype=np.int8))
    norm = normalize_adjacency(g, partition(g, "distance"))
    assert np.allclose(norm[0], [[0.5, 0.0], [0.0, 0.5]])
    assert np.allclose(norm[1], [[0.0, 0.5], [0.5, 0.0]])


def test_normalize_returns_read_only_float64_stack():
    g = random_graph(5, np.random.default_rng(7))
    norm = normalize_adjacency(g, partition(g, "distance"))
    assert isinstance(norm, np.ndarray)
    assert norm.shape == (2, 5, 5) and norm.dtype == np.float64
    with pytest.raises(ValueError):
        norm[0, 0, 0] = 1.0


def test_mask_sum_reconstructs_a_plus_i():
    rng = np.random.default_rng(3)
    for trial in range(20):
        g = random_graph(rng.integers(2, 9), rng)
        labels = partition(g, "distance" if trial % 2 else "uniform")
        degree = g.adjacency.astype(np.float64).sum(axis=1) + 1.0
        scale = np.outer(1 / np.sqrt(degree), 1 / np.sqrt(degree))
        total = normalize_adjacency(g, labels).sum(axis=0)
        expected = (g.adjacency + np.eye(g.J)) * scale
        assert np.array_equal(total, expected)


def test_uniform_matrix_symmetric_spectral_radius():
    rng = np.random.default_rng(4)
    for _ in range(25):
        g = random_graph(rng.integers(2, 13), rng)
        m = normalize_adjacency(g, partition(g, "uniform"))[0]
        assert np.array_equal(m, m.T)
        x = rng.normal(size=g.J)
        for _ in range(200):
            x = m @ x
            n = np.linalg.norm(x)
            if n == 0:
                break
            x = x / n
        radius = float(np.abs(x @ (m @ x))) if np.linalg.norm(x) else 0.0
        assert radius <= 1 + 1e-6


def test_normalization_commutes_with_permutation():
    rng = np.random.default_rng(5)
    for strategy in ("uniform", "distance"):
        g = random_graph(7, rng)
        labels = partition(g, strategy)
        norm = normalize_adjacency(g, labels)
        perm = rng.permutation(7)
        pg = SpatialGraph(adjacency=g.adjacency[np.ix_(perm, perm)])
        pnorm = normalize_adjacency(pg, partition(pg, strategy))
        for p in range(labels.P):
            assert np.array_equal(pnorm[p], norm[p][np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# cardinalities


def test_cardinalities_isolated_node():
    g = SpatialGraph(adjacency=np.zeros((1, 1), dtype=np.int8))
    z = cardinalities(g, partition(g, "uniform"))
    assert z[0, 0] == 1


def test_cardinalities_three_neighbors():
    a = np.zeros((4, 4), dtype=np.int8)
    a[0, 1:] = a[1:, 0] = 1
    g = SpatialGraph(adjacency=a)
    assert cardinalities(g, partition(g, "uniform"))[0, 0] == 4
    z = cardinalities(g, partition(g, "distance"))
    assert z[0, 0] == 1 and z[0, 1] == 3


# ---------------------------------------------------------------------------
# FGG1 cache


def test_fgg1_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    g = random_graph(6, rng)
    labels = partition(g, "distance")
    p = tmp_path / "g.fgg"
    save_graph(g, labels, p)
    g2, labels2 = load_graph(p)
    assert np.array_equal(g.adjacency, g2.adjacency)
    assert labels2.P == labels.P and labels2.strategy == labels.strategy
    assert np.array_equal(labels.labels, labels2.labels)
    p2 = tmp_path / "g2.fgg"
    save_graph(g2, labels2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_fgg1_header_format(tmp_path):
    g = SpatialGraph(adjacency=np.array([[0, 1], [1, 0]], dtype=np.int8))
    p = tmp_path / "g.fgg"
    save_graph(g, partition(g, "uniform"), p)
    lines = p.read_text().splitlines()
    assert lines[0] == "FGG1 2 1 uniform"
    assert lines[1:] == ["0 0 0", "0 1 0", "1 0 0", "1 1 0"]


@pytest.mark.parametrize("text, line", [
    (b"FGG1 2 2 distance\n0 1 1\n1 0 \xff\n", 3),
    (b"FGG1 2 2 dist\xe9nce\n0 1 1\n", 1),
], ids=["body", "header"])
def test_fgg1_non_ascii_byte_is_parse_error(tmp_path, text, line):
    p = tmp_path / "g.fgg"
    p.write_bytes(text)
    with pytest.raises(ParseError, match="non-ASCII") as info:
        load_graph(p)
    assert info.value.line == line


@pytest.mark.parametrize("body, line", [
    ("0 0 0\n0 1 1\n1 1 0\n", 4),  # (1, 0) missing
    ("0 0 0\n0 1 1\n1 0 0\n1 1 0\n", 4),  # (1, 0) labeled as a root
], ids=["missing-reverse", "reverse-label-differs"])
def test_fgg1_asymmetric_labels_are_parse_error(tmp_path, body, line):
    p = tmp_path / "g.fgg"
    p.write_text("FGG1 2 2 distance\n" + body)
    with pytest.raises(ParseError, match="expected `1 0 1`") as info:
        load_graph(p)
    assert info.value.line == line


def test_fgg1_missing_root_pair_is_parse_error(tmp_path):
    p = tmp_path / "g.fgg"
    p.write_text("FGG1 2 2 distance\n0 0 0\n0 1 1\n1 0 1\n")  # no `1 1 0`
    with pytest.raises(ParseError, match="expected `1 1 0`") as info:
        load_graph(p)
    assert info.value.line == 5  # end of file


@pytest.mark.parametrize("text, line, expected", [
    ("FGG1 2 2 distance\n0 0 0\n0 1 1\n0 1 1\n1 0 1\n1 1 0\n", 4, "`1 0 1`"),
    ("FGG1 2 2 distance\n0 0 0\n0 1 1\n0 1 0\n1 0 0\n1 1 0\n", 4, "`1 0 1`"),
    ("FGG1 2 2 distance\n0 0 0\n0 1 0\n1 0 0\n1 1 0\n", 3, "`0 1 1`"),
    ("FGG1 2 2 bogus\n0 0 0\n0 1 1\n1 0 1\n1 1 0\n", 1, "unknown partition strategy"),
    ("FGG1 2 2 uniform\n0 0 0\n0 1 0\n1 0 0\n1 1 0\n", 1, "`FGG1 2 1 uniform`"),
    ("FGG1 2 1 distance\n0 0 0\n1 1 0\n", 1, "`FGG1 2 2 distance`"),
    ("FGG1 2 2 distance\n0 0 0\n0 1 1\n1 0 1\n1 1 0\n1 1 0\n", 6, "end of file"),
    ("FGG1 2 2 distance\n1 1 0\n0 0 0\n", 2, "`0 0 0`"),
], ids=["duplicate-pair", "duplicate-pair-relabeled-root", "neighbor-labeled-root",
        "unknown-strategy", "uniform-with-P2", "distance-with-P1", "trailing-duplicate",
        "out-of-order"])
def test_fgg1_lines_must_match_partition(tmp_path, text, line, expected):
    # labels are a function of the graph and the strategy: anything but the
    # lines save_graph writes for them is rejected at its first differing line
    p = tmp_path / "g.fgg"
    p.write_text(text)
    with pytest.raises(ParseError, match=expected) as info:
        load_graph(p)
    assert info.value.line == line


def test_fgg1_blank_lines_and_spacing_are_ignored(tmp_path):
    g = SpatialGraph(adjacency=np.array([[0, 1], [1, 0]], dtype=np.int8))
    p = tmp_path / "g.fgg"
    p.write_text("FGG1  2 2 distance\n\n0 0 0\n0 1   1\n\n1 0 1\n1 1 0\n\n")
    g2, labels = load_graph(p)
    assert np.array_equal(g2.adjacency, g.adjacency)
    assert np.array_equal(labels.labels, partition(g, "distance").labels)


@pytest.mark.parametrize("head", ["FGG1 -1 2 distance", "FGG1 2 0 distance",
                                  "FGG1 2 200 distance", "FGG1 10000000000000 2 distance",
                                  "FGG1 0 2 distance"])
def test_fgg1_bad_header_counts_are_parse_error(tmp_path, head):
    p = tmp_path / "g.fgg"
    p.write_text(head + "\n")
    with pytest.raises(ParseError, match="header"):
        load_graph(p)
