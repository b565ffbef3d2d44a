import hashlib
import os
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from facegcn import mesh_core, parallel
from facegcn.dataset_synth import ExpressionParams, IdentityParams, _grid_faces, make_frame_mesh
from facegcn.errors import InvariantError, ParseError
from facegcn.mesh_core import (
    TexturedMesh,
    build_edge_graph,
    load_mesh,
    validate_mesh,
    write_mesh,
)

from edge_testutil import reference_edge_graph, undirected_edges
from mesh_testutil import reference_validate_mesh, triples
from ply_reference import read_ply_ascii, read_ply_binary

MINIMAL_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"


def synth_mesh(grid=10, seed=1):
    return make_frame_mesh(IdentityParams(seed=seed, grid=grid), ExpressionParams(emotion=0), 1, 5)


def triangle_mesh(colors=None, uv=None):
    return TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]], colors, uv
    )


# ---------------------------------------------------------------------------
# load_mesh


def test_minimal_obj_defaults_colors(tmp_path):
    p = tmp_path / "tri.obj"
    p.write_text(MINIMAL_OBJ)
    mesh = load_mesh(p)
    assert mesh.n_vertices == 3
    assert mesh.n_faces == 1
    assert np.all(mesh.colors == 0.5)
    assert mesh.uv is None


def test_obj_zero_face_index_is_parse_error(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(ParseError):
        load_mesh(p)


def test_obj_out_of_range_index_is_invariant_error(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
    with pytest.raises(InvariantError):
        load_mesh(p)


def test_obj_unsupported_record_is_parse_error(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nvn 0 0 1\n")
    with pytest.raises(ParseError) as exc:
        load_mesh(p)
    assert exc.value.line == 2


def test_obj_bad_byte_is_parse_error_at_its_line(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_bytes(b"v 0 0 0\nv 1 0 0\nv 0 1 0  # \xff\nf 1 2 3\n")
    with pytest.raises(ParseError) as exc:
        load_mesh(p)
    assert exc.value.line == 3


def test_obj_face_index_beyond_int64_is_parse_error_at_its_line(tmp_path):
    p = tmp_path / "big.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n")
    with pytest.raises(ParseError, match="beyond int64") as exc:
        load_mesh(p)
    assert exc.value.line == 4
    # the largest int64 index parses, then fails validation as out of range
    p.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 {2**63 - 1}\n")
    with pytest.raises(InvariantError):
        load_mesh(p)


def test_obj_comments_and_colors(tmp_path):
    p = tmp_path / "c.obj"
    p.write_text("# header\nv 0 0 0 1 0 0\nv 1 0 0 0 1 0\nv 0 1 0 0 0 1  # inline\nf 1 2 3\n")
    mesh = load_mesh(p)
    assert np.allclose(mesh.colors, np.eye(3))


def test_obj_positional_uv(tmp_path):
    p = tmp_path / "uv.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvt 0 1\nf 1 2 3\n")
    mesh = load_mesh(p)
    assert mesh.uv is not None
    assert np.allclose(mesh.uv, [[0, 0], [1, 0], [0, 1]])


def test_obj_face_uv_references(tmp_path):
    p = tmp_path / "uv.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0.5 0.5\nvt 1 0\nvt 0 1\nf 1/2 2/3 3/1\n")
    mesh = load_mesh(p)
    assert np.allclose(mesh.uv, [[1, 0], [0, 1], [0.5, 0.5]])


def test_obj_unmappable_vt_count(tmp_path):
    p = tmp_path / "uv.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvt 1 0\nf 1 2 3\n")
    with pytest.raises(ParseError):
        load_mesh(p)


def test_grid_ply_counts(tmp_path):
    # 10x10 grid: faces = 2 * (n-1)^2 = 162
    mesh = synth_mesh(grid=10)
    p = tmp_path / "grid.ply"
    write_mesh(mesh, p)
    loaded = load_mesh(p)
    assert loaded.n_vertices == 100
    assert loaded.n_faces == 2 * 9 * 9 == 162


def test_ply_rejects_unknown_property(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\nproperty float y\n"
        "property float z\nproperty float nx\nelement face 0\n"
        "property list uchar int32 vertex_indices\nend_header\n0 0 0 0\n"
    )
    with pytest.raises(ParseError):
        load_mesh(p)


def test_ply_rejects_quad_face(tmp_path):
    p = tmp_path / "quad.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 4\nproperty float x\nproperty float y\n"
        "property float z\nelement face 1\nproperty list uchar int32 vertex_indices\n"
        "end_header\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"
    )
    with pytest.raises(ParseError):
        load_mesh(p)


PLY_HEADER_TAIL = (
    "property float x\nproperty float y\nproperty float z\n"
    "element face 0\nproperty list uchar int32 vertex_indices\nend_header\n"
)


@pytest.mark.parametrize("count", ["x", "-1"])
def test_ply_bad_vertex_count_is_parse_error(tmp_path, count):
    p = tmp_path / "bad.ply"
    p.write_text(f"ply\nformat ascii 1.0\nelement vertex {count}\n" + PLY_HEADER_TAIL)
    with pytest.raises(ParseError) as exc:
        load_mesh(p)
    assert exc.value.line == 3


def test_ply_short_face_list_property_is_parse_error(tmp_path):
    p = tmp_path / "bad.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\nproperty float y\n"
        "property float z\nelement face 0\nproperty list uchar\nend_header\n"
    )
    with pytest.raises(ParseError) as exc:
        load_mesh(p)
    assert exc.value.line == 8


# ---------------------------------------------------------------------------
# validate_mesh


def test_validate_valid_mesh_is_empty():
    assert validate_mesh(synth_mesh()).ok


def test_validate_single_nan_vertex():
    verts = np.array([[0, 0, 0], [1, 0, 0], [np.nan, 1, 0]])
    mesh = TexturedMesh.from_arrays(verts, [[0, 1, 2]])
    report = validate_mesh(mesh)
    nan_violations = [v for v in report.violations if v.kind == "nan"]
    assert len(nan_violations) == 1
    assert nan_violations[0].where == "vertices[2]"


def test_validate_degenerate_face():
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 0, 1]])
    report = validate_mesh(mesh)
    assert [v.kind for v in report.violations] == ["degenerate_face"]


def test_validate_out_of_range_face():
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 5]])
    assert [v.kind for v in validate_mesh(mesh).violations] == ["face_index"]


def test_validate_color_range():
    mesh = triangle_mesh(colors=[[0, 0, 0], [2.0, 0, 0], [0, 0, 0]])
    assert any(v.kind == "range" for v in validate_mesh(mesh).violations)


def test_validate_uv_range():
    mesh = triangle_mesh(uv=[[0, 0], [1.5, 0], [0, 1]])
    assert any(v.kind == "range" and "uv" in v.where for v in validate_mesh(mesh).violations)


def test_validate_float32_overflow():
    f32_max = float(np.finfo(np.float32).max)
    verts = [[0, 0, 0], [1e39, 0, 0], [0, -1e39, 0], [f32_max, 1, 0], [0, 0, -f32_max]]
    mesh = TexturedMesh.from_arrays(verts, [[0, 1, 2], [0, 3, 4]])
    got = [(v.kind, v.where, v.detail) for v in validate_mesh(mesh).violations]
    assert got == [("range", f"vertices[{i}]", "coordinate beyond float32 range") for i in (1, 2)]


def test_validate_coincident_edge_endpoints():
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [0, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    kinds = [v.kind for v in validate_mesh(mesh).violations]
    assert kinds == ["degenerate_edge"]
    # the empty-report => no-downstream-InvariantError property
    assert not validate_mesh(synth_mesh()).violations


def test_validate_violation_order_is_stable():
    # face violations come in face order whatever their kind; the coincident
    # edge check runs only when all indices are in range and all vertices finite
    nan = np.nan
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [nan, 0, 0], [1, 1, 0], [1, 1, 0], [2, 0, 0], [2, 1, 0]]
    faces = [[0, 1, 2], [0, 1, 9], [1, 1, 2], [4, 5, 6], [-1, 2, 3], [6, 7, 7], [1, 4, 6],
             [2, 2, 2], [8, 0, 1]]
    got = [(v.kind, v.where) for v in validate_mesh(TexturedMesh.from_arrays(verts, faces)).violations]
    assert got == [
        ("nan", "vertices[3]"),
        ("face_index", "faces[1]"),
        ("degenerate_face", "faces[2]"),
        ("face_index", "faces[4]"),
        ("degenerate_face", "faces[5]"),
        ("degenerate_face", "faces[7]"),
        ("face_index", "faces[8]"),
    ]
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [1, 1, 0], [2, 0, 0], [0, 0, 0]]
    faces = [[0, 1, 2], [3, 4, 5], [1, 1, 2], [2, 6, 0], [1, 3, 5], [4, 4, 5], [5, 1, 0]]
    got = [(v.kind, v.where) for v in validate_mesh(TexturedMesh.from_arrays(verts, faces)).violations]
    assert got == [
        ("degenerate_face", "faces[2]"),
        ("degenerate_face", "faces[5]"),
        ("degenerate_edge", "edge(0,6)"),
        ("degenerate_edge", "edge(3,4)"),
    ]


def test_validate_face_checks_match_loop_reference():
    # the per-face loop the vectorized checks replaced, kept as the reference
    rng = np.random.default_rng(21)
    faces = rng.integers(-2, 14, size=(300, 3))
    faces[::7] = faces[::7][:, [0, 0, 1]]
    mesh = TexturedMesh.from_arrays(rng.normal(size=(12, 3)), faces)
    expect = []
    for fi, face in enumerate(mesh.faces.tolist()):
        if min(face) < 0 or max(face) >= 12:
            expect.append(("face_index", f"faces[{fi}]", f"index out of range in {tuple(face)}"))
        elif len(set(face)) != 3:
            expect.append(("degenerate_face", f"faces[{fi}]", f"repeated vertex in {tuple(face)}"))
    assert len(expect) > 50
    assert [(v.kind, v.where, v.detail) for v in validate_mesh(mesh).violations] == expect


@pytest.mark.parametrize("face, text", [
    ("3 0 1 7", "face_index at faces[0]: index out of range in (0, 1, 7)"),
    ("3 0 0 1", "degenerate_face at faces[0]: repeated vertex in (0, 0, 1)"),
], ids=["face_index", "degenerate_face"])
def test_load_mesh_face_violation_text_has_plain_ints(tmp_path, face, text):
    p = tmp_path / "bad.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
        "property float z\nelement face 1\nproperty list uchar int32 vertex_indices\n"
        f"end_header\n0 0 0\n1 0 0\n0 1 0\n{face}\n"
    )
    with pytest.raises(InvariantError) as err:
        load_mesh(p)
    assert str(err.value) == f"{p}: {text}"


F32_MAX = float(np.finfo(np.float32).max)
F32_OVERFLOW = 3.4028235677973366e38  # the least double that rounds to float32 inf
DBL_MAX = float(np.finfo(np.float64).max)
HUGE = (1e308, -1e308, -1.7e308, 1.7e308, DBL_MAX, -DBL_MAX)


def _reference_cases():
    """(name, mesh) pairs for every boundary the whole-array predicates must keep."""
    tri = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    cases = []
    for value in (np.nan, np.inf, -np.inf, 1e39, -1e39, F32_MAX, -F32_MAX, F32_OVERFLOW,
                  -F32_OVERFLOW, np.nextafter(F32_OVERFLOW, 0.0), 5e-324):
        for coord in range(3):
            verts = np.array(tri)
            verts[1, coord] = value
            cases.append((f"vertex-{value!r}-{coord}", TexturedMesh.from_arrays(verts, [[0, 1, 2]])))
    # coincident endpoints far out, where a key whose weights sum to 1 or more overflows
    for x in HUGE:
        for y in HUGE:
            for z in HUGE:
                verts = [[x, y, z], [x, y, z], [0.0, 0.0, 0.0], [x, y, -z]]
                cases.append((f"coincident-{x}-{y}-{z}",
                              TexturedMesh.from_arrays(verts, [[0, 1, 2], [1, 2, 3]])))
    signed = [[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], [0.0, 1.0, 0.0], [-0.0, -0.0, -0.0]]
    cases.append(("signed-zero", TexturedMesh.from_arrays(signed, [[0, 1, 2], [2, 1, 3]])))
    tiny = [[0.0, 0.0, 0.0], [5e-324, 0.0, 0.0], [0.0, 5e-324, 0.0], [0.0, 0.0, -5e-324]]
    cases.append(("subnormal", TexturedMesh.from_arrays(tiny, [[0, 1, 2], [1, 2, 3], [0, 2, 3]])))
    for name in ("colors", "uv"):
        for value in (np.nan, np.inf, -1e-300, -0.5, 1.0000000000000002, 7.0, 0.0, -0.0, 1.0):
            arr = np.full((3, 3 if name == "colors" else 2), 0.5)
            arr[2, 1] = value
            cases.append((f"{name}-{value!r}", triangle_mesh(**{name: arr})))
        short = np.full((2, 3 if name == "colors" else 2), 0.5)
        cases.append((f"{name}-length", triangle_mesh(**{name: short})))
    cases.append(("uv-none", triangle_mesh(uv=None)))
    cases.append(("face-index", TexturedMesh.from_arrays(tri, [[0, 1, 2], [-1, 1, 2], [0, 3, 1]])))
    cases.append(("repeated", TexturedMesh.from_arrays(tri, [[0, 0, 1], [2, 1, 2], [1, 1, 1]])))
    cases.append(("no-faces", TexturedMesh.from_arrays([[np.nan, 0, 0], [1e39, 0, 0]], np.zeros((0, 3)))))
    cases.append(("no-vertices", TexturedMesh.from_arrays(np.zeros((0, 3)), [[0, 1, 2]])))
    cases.append(("empty", TexturedMesh.from_arrays(np.zeros((0, 3)), np.zeros((0, 3)))))
    return cases


@pytest.mark.parametrize("mesh", [pytest.param(mesh, id=name) for name, mesh in _reference_cases()])
def test_validate_matches_per_row_reference_on_boundary_cases(mesh):
    assert triples(validate_mesh(mesh)) == triples(reference_validate_mesh(mesh))


def test_validate_boundary_cases_are_not_vacuous():
    # the fixed cases reach every kind of violation, and some pass clean
    kinds, clean = set(), 0
    for _, mesh in _reference_cases():
        got = triples(reference_validate_mesh(mesh))
        kinds |= {kind for kind, _, _ in got}
        clean += not got
    assert kinds == {"nan", "range", "length", "face_index", "degenerate_face", "degenerate_edge"}
    assert clean >= 10


@pytest.mark.parametrize("seed", range(4))
def test_validate_matches_per_row_reference_on_random_meshes(seed):
    rng = np.random.default_rng(seed)
    special = [np.nan, np.inf, -np.inf, 1e39, -1.7e308, 1e308, -0.0, 5e-324, F32_MAX, F32_OVERFLOW,
               np.nextafter(F32_OVERFLOW, 0.0)]
    for _ in range(150):
        n = int(rng.integers(0, 12))
        # few distinct positions, so many face edges have coincident endpoints
        verts = rng.integers(-2, 3, size=(4, 3)).astype(np.float64)[rng.integers(0, 4, size=n)]
        hit = rng.random(verts.shape) < 0.1
        verts[hit] = rng.choice(special, size=int(hit.sum()))
        faces = rng.integers(-1 if rng.random() < 0.3 else 0, max(n, 1) + (rng.random() < 0.3),
                             size=(int(rng.integers(0, 15)), 3))
        colors = rng.random((n, 3))
        hit = rng.random(colors.shape) < 0.05
        colors[hit] = rng.choice([np.nan, -0.1, 1.1, -0.0], size=int(hit.sum()))
        uv = None if rng.random() < 0.3 else rng.uniform(-0.05, 1.05, size=(n + (rng.random() < 0.1), 2))
        mesh = TexturedMesh.from_arrays(verts, faces, colors, uv)
        assert triples(validate_mesh(mesh)) == triples(reference_validate_mesh(mesh))


def _scan_grid_mesh(n=200):
    """A valid n x n grid dome, the scan-ingest geometry (40 000 vertices, 79 202 faces)."""
    lin = np.linspace(0.0, 1.0, n)
    u, v = np.meshgrid(lin, lin, indexing="ij")
    su, sv = 2 * u - 1, 2 * v - 1
    z = 0.8 * np.sqrt(np.clip(1 - su**2 - sv**2, 0, None))
    verts = np.stack([su, 1.3 * sv, z], -1).reshape(-1, 3).astype(np.float32)
    uv = np.stack([u, v], -1).reshape(-1, 2).astype(np.float32)
    return TexturedMesh.from_arrays(verts, _grid_faces(n), uv=uv)


def _validate_peak_bytes(mesh):
    tracemalloc.start()
    try:
        report = validate_mesh(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    return peak


def test_validate_valid_scan_mesh_takes_the_fast_path(monkeypatch):
    mesh = _scan_grid_mesh()
    assert (mesh.n_vertices, mesh.n_faces) == (40000, 79202)
    calls = []

    def counted(faces):
        calls.append(faces.shape[0])
        return face_edges(faces)

    face_edges = mesh_core._face_edges
    monkeypatch.setattr(mesh_core, "_face_edges", counted)
    assert validate_mesh(mesh).ok
    assert calls == []
    # the per-row validation peaked at 11.7 MB here (3F face-edge arrays);
    # the key screen holds three F-length float64 gathers
    assert _validate_peak_bytes(mesh) < 3_000_000


def test_validate_bounds_are_inclusive_on_the_fast_path():
    # a valid mesh touching +-float32 max and 0 and 1 needs no per-row scan,
    # and the whole-array predicates allocate nothing
    verts = np.zeros((40000, 3))
    verts[7, 0], verts[9, 2] = F32_MAX, -F32_MAX
    colors, uv = np.full((40000, 3), 0.25), np.full((40000, 2), 0.75)
    colors[3], uv[5] = (0.0, 1.0, -0.0), (1.0, 0.0)
    mesh = TexturedMesh.from_arrays(verts, np.zeros((0, 3)), colors, uv)
    assert _validate_peak_bytes(mesh) < 20_000


# ---------------------------------------------------------------------------
# build_edge_graph


def test_single_triangle_edges():
    edges, _ = undirected_edges(build_edge_graph(triangle_mesh()))
    assert edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_shared_edge_counted_once():
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 2, 3]]
    )
    edges, _ = undirected_edges(build_edge_graph(mesh))
    assert len(edges) == 5


def test_unit_grid_axis_edge_weights():
    n = 4
    ii, jj = np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float), indexing="ij")
    verts = np.stack([ii, jj, np.zeros_like(ii)], axis=-1).reshape(-1, 3)
    idx = np.arange(n * n).reshape(n, n)
    faces = []
    for r in range(n - 1):
        for c in range(n - 1):
            faces.append([idx[r, c], idx[r + 1, c], idx[r, c + 1]])
            faces.append([idx[r + 1, c], idx[r + 1, c + 1], idx[r, c + 1]])
    edges, weights = undirected_edges(build_edge_graph(TexturedMesh.from_arrays(verts, faces)))
    for (u, v), w in zip(edges, weights):
        du = verts[u] - verts[v]
        if np.count_nonzero(du) == 1:  # axis-aligned edge
            assert w == 1.0
        assert w == np.sqrt((du * du).sum())


def test_edges_match_unique_rows_reference():
    mesh = synth_mesh(grid=12)
    faces = np.random.default_rng(3).permutation(mesh.faces)
    edges, _ = undirected_edges(build_edge_graph(TexturedMesh.from_arrays(mesh.vertices, faces)))
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    assert np.array_equal(edges, np.unique(np.sort(pairs, axis=1), axis=0))


def test_edge_count_bounds():
    for grid in (4, 8, 12):
        mesh = synth_mesh(grid=grid)
        edges, _ = undirected_edges(build_edge_graph(mesh))
        assert mesh.n_faces <= len(edges) <= 3 * mesh.n_faces


def test_invalid_mesh_rejected():
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 5]])
    with pytest.raises(InvariantError):
        build_edge_graph(mesh)


def test_zero_length_edge_rejected():
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [0, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(InvariantError):
        build_edge_graph(mesh)


def test_non_manifold_accepted():
    # one edge shared by three faces
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
        [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
    )
    edges, _ = undirected_edges(build_edge_graph(mesh))
    assert len(edges) == 3 * 2 + 1


def random_grid(n, rng, offset=0.0):
    """n x n jittered grid with seeded cell diagonals, shifted by ``offset`` in x."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    verts = np.stack([i + offset, j, np.zeros((n, n))], axis=-1).reshape(-1, 3)
    verts = verts + rng.uniform(-0.3, 0.3, size=verts.shape)
    p, q = (i[:-1, :-1] * n + j[:-1, :-1]).ravel(), (i[1:, :-1] * n + j[1:, :-1]).ravel()
    r, s = p + 1, q + 1
    flip = rng.random(p.size) < 0.5
    faces = np.concatenate([
        np.where(flip[:, None], np.stack([p, q, r], 1), np.stack([p, q, s], 1)),
        np.where(flip[:, None], np.stack([q, s, r], 1), np.stack([p, s, r], 1)),
    ])
    return verts, faces


def edge_case_mesh(case):
    rng = np.random.default_rng(51)
    verts, faces = random_grid(12, rng)
    if case == "repeated-faces":
        repeated = np.concatenate([faces, faces[rng.integers(0, len(faces), size=40)]])
        return TexturedMesh.from_arrays(verts, rng.permutation(repeated))
    if case == "unreferenced":  # no face refers to the extra vertices
        return TexturedMesh.from_arrays(np.concatenate([verts, rng.uniform(-5, 5, (30, 3))]), faces)
    if case == "two-components":
        v2, f2 = random_grid(9, rng, offset=50.0)
        return TexturedMesh.from_arrays(np.concatenate([verts, v2]),
                                        np.concatenate([faces, f2 + len(verts)]))
    return TexturedMesh.from_arrays(*random_grid(101, rng))  # 10 201 vertices


def assert_reference_bytes(got, mesh):
    """``got`` is ``mesh``'s edge graph, byte for byte, with read-only arrays."""
    want = reference_edge_graph(mesh)
    assert got.n_nodes == want.n_nodes
    for name in ("indptr", "targets", "weights_csr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert not a.flags.writeable


@pytest.mark.parametrize("case", ["repeated-faces", "unreferenced", "two-components", "grid-10k"])
def test_build_edge_graph_matches_reference(case):
    mesh = edge_case_mesh(case)
    assert_reference_bytes(build_edge_graph(mesh), mesh)


def flip_diagonal(faces, cell):
    """``random_grid`` faces with ``cell`` cut along its other diagonal: the
    same vertex and face counts, one edge different."""
    cells = len(faces) // 2
    p, r, q, s = sorted(set(faces[cell].tolist()) | set(faces[cell + cells].tolist()))
    out = faces.copy()
    out[[cell, cell + cells]] = [[p, q, r], [q, s, r]] if s in faces[cell] else [[p, q, s], [p, s, r]]
    return out


def test_frames_with_equal_faces_share_one_topology():
    rng = np.random.default_rng(52)
    verts, faces = random_grid(12, rng)
    first = TexturedMesh.from_arrays(verts, faces)
    second = TexturedMesh.from_arrays(verts + rng.uniform(-0.1, 0.1, verts.shape), faces.copy())
    assert second.faces is not first.faces
    a, b = build_edge_graph(first), build_edge_graph(second)
    assert b.indptr is a.indptr and b.targets is a.targets
    assert b.weights_csr.tobytes() != a.weights_csr.tobytes()
    assert_reference_bytes(a, first)
    assert_reference_bytes(b, second)


def test_frame_with_one_diagonal_flipped_gets_its_own_topology():
    rng = np.random.default_rng(53)
    verts, faces = random_grid(12, rng)
    first = TexturedMesh.from_arrays(verts, faces)
    flipped = TexturedMesh.from_arrays(verts, flip_diagonal(faces, 40))
    assert (flipped.n_vertices, flipped.n_faces) == (first.n_vertices, first.n_faces)
    a, b = build_edge_graph(first), build_edge_graph(flipped)
    assert b.indptr is not a.indptr and b.targets is not a.targets
    assert b.targets.tobytes() != a.targets.tobytes()
    assert_reference_bytes(a, first)
    assert_reference_bytes(b, flipped)


def test_faces_written_in_place_between_calls_get_a_new_topology():
    rng = np.random.default_rng(54)
    verts, faces = random_grid(12, rng)
    assert faces.flags.writeable
    before = faces.copy()
    topology = mesh_core.edge_topology(len(verts), faces)
    assert not topology.faces.flags.writeable
    faces[:] = flip_diagonal(faces, 40)
    assert_reference_bytes(topology.graph(verts), TexturedMesh.from_arrays(verts, before))
    assert_reference_bytes(mesh_core.edge_topology(len(verts), faces).graph(verts),
                           TexturedMesh.from_arrays(verts, faces.copy()))


def test_failed_call_keeps_the_last_topology():
    rng = np.random.default_rng(55)
    verts, faces = random_grid(12, rng)
    first = TexturedMesh.from_arrays(verts, faces)
    a = build_edge_graph(first)
    bad = faces.copy()
    bad[7, 1] = len(verts)
    with pytest.raises(InvariantError, match="face index out of range"):
        build_edge_graph(TexturedMesh.from_arrays(verts, bad))
    again = TexturedMesh.from_arrays(verts, faces.copy())
    b = build_edge_graph(again)
    assert b.indptr is a.indptr and b.targets is a.targets
    assert_reference_bytes(b, again)


def test_threads_alternating_two_face_sets_each_get_their_own_topology():
    # eight threads switching often: a call must never return the topology
    # another thread kept for the other face set
    rng = np.random.default_rng(56)
    verts, faces = random_grid(12, rng)
    meshes = [TexturedMesh.from_arrays(verts, f) for f in (faces, flip_diagonal(faces, 40))]
    want = [reference_edge_graph(m) for m in meshes]
    wrong = []

    def run(start):
        for i in range(start, start + 60):
            got = build_edge_graph(meshes[i % 2])
            if (got.indptr.tobytes(), got.targets.tobytes()) != (
                    want[i % 2].indptr.tobytes(), want[i % 2].targets.tobytes()):
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("vertex", [[0, 1, 0], [0, np.inf, 0]], ids=["zero-length", "non-finite"])
def test_build_edge_graph_errors_match_reference(vertex):
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [1, 0, 0], [0, 1, 0], vertex], [[0, 1, 2], [1, 2, 3]])
    with pytest.raises(InvariantError) as want:
        reference_edge_graph(mesh)
    with pytest.raises(InvariantError, match=re.escape(str(want.value))):
        build_edge_graph(mesh)


@pytest.mark.parametrize("n", [576, 1 << 16, (1 << 16) + 1])  # uint32 keys up to n * n == 2**32
def test_unique_pairs_equal_np_unique_of_int64_keys(n):
    rng = np.random.default_rng(n)
    faces = rng.integers(0, n, size=(3000, 3))
    faces[:2] = [[n - 1, n - 2, 0], [n - 1, n - 2, n - 1]]  # the largest keys, and a repeat
    lo, hi = mesh_core._face_edges(faces)
    keys = np.unique(lo * n + hi)
    got = mesh_core._unique_pairs(lo, hi, n)
    for a, b in zip(got, (keys // n, keys % n)):
        assert a.dtype == np.int64 and np.array_equal(a, b)


def test_zero_length_edge_message_names_plain_vertex_ids():
    mesh = TexturedMesh.from_arrays([[0, 0, 0], [0, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    want = ("zero-length edge between vertices (0, 1): "
            "coincident positions are not usable for geodesics")
    for build in (build_edge_graph, reference_edge_graph):
        with pytest.raises(InvariantError) as err:
            build(mesh)
        assert str(err.value) == want


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("fmt", ["ply", "ply-binary", "obj"])
def test_write_load_bit_exact(tmp_path, fmt):
    mesh = synth_mesh(grid=8)  # generator output is already in the canonical domain
    p = tmp_path / f"m.{'obj' if fmt == 'obj' else 'ply'}"
    if fmt == "obj":
        # obj stores colors as text floats: use float32-exact colors
        mesh = TexturedMesh.from_arrays(
            mesh.vertices, mesh.faces, np.full((mesh.n_vertices, 3), 0.5), mesh.uv
        )
    write_mesh(mesh, p, fmt=fmt)
    loaded = load_mesh(p)
    assert np.array_equal(loaded.vertices, mesh.vertices)
    assert np.array_equal(loaded.faces, mesh.faces)
    assert np.array_equal(loaded.colors, mesh.colors)
    assert np.array_equal(loaded.uv, mesh.uv)


@pytest.mark.parametrize("fmt", ["ply", "ply-binary", "obj"])
def test_write_load_write_idempotent(tmp_path, fmt):
    # arbitrary float64 colors/coords: one write quantizes, then it is stable
    rng = np.random.default_rng(0)
    mesh = TexturedMesh.from_arrays(
        rng.normal(size=(6, 3)),
        [[0, 1, 2], [3, 4, 5]],
        rng.uniform(size=(6, 3)),
        rng.uniform(size=(6, 2)),
    )
    ext = "obj" if fmt == "obj" else "ply"
    p1, p2 = tmp_path / f"a.{ext}", tmp_path / f"b.{ext}"
    write_mesh(mesh, p1, fmt=fmt)
    write_mesh(load_mesh(p1), p2, fmt=fmt)
    assert p1.read_bytes() == p2.read_bytes()


def golden_writer_mesh(seed, with_uv):
    """Coordinates over 1e-30..1e30 with a +-0 vertex, colors at 0, 1 and the 0.5/255 edge."""
    rng = np.random.default_rng(seed)
    n = 24
    vertices = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-30, 31, size=(n, 1))
    vertices[0] = [0.0, -0.0, 1.0]
    colors = rng.uniform(size=(n, 3))
    edge = 0.5 / 255
    colors[1] = [0.0, 1.0, edge]
    colors[2] = [np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), 127.5 / 255]
    faces = np.array([rng.permutation(n)[:3] for _ in range(20)])
    uv = rng.uniform(size=(n, 2)) if with_uv else None
    if with_uv:
        uv[3] = [0.0, 1.0]
    return TexturedMesh.from_arrays(vertices, faces, colors, uv)


# sha256 of the writer's bytes, pinned before the writers were built from arrays
GOLDEN_WRITER_SHA256 = {
    ("ply", False): "0d60f8327679aafe7a2acad640956a4d35124b56f99cd84c5824372f84619b8d",
    ("ply-binary", False): "d37880f2a919088e350ae5c382fb3a3f3afe6ca6f837c759f7d377b3047e16e4",
    ("obj", False): "f73095f70209f5248508700f57664cb81edc651e4ccb5cf187ec9c65502f8ddb",
    ("ply", True): "117060386ef9e529eb629dea205d0edfc43dd329aed29b8a8daad67adbbeac04",
    ("ply-binary", True): "a60f4a7cd9c92d8a565f7c21bc5a494854a1ff470c22bb1e3112cc6a795b77fc",
    ("obj", True): "881e8b05ed240c57953625febf6b308fd59dd5c300aaa13ebf7125e577c0f7b0",
}


def test_write_mesh_golden_digest(tmp_path):
    # round-trip tests cannot see a formatting drift that both writes share
    got = {}
    for fmt, with_uv in GOLDEN_WRITER_SHA256:
        p = tmp_path / f"m.{'obj' if fmt == 'obj' else 'ply'}"
        write_mesh(golden_writer_mesh(5 + with_uv, with_uv), p, fmt=fmt)
        got[fmt, with_uv] = hashlib.sha256(p.read_bytes()).hexdigest()
    assert got == GOLDEN_WRITER_SHA256


def invalid_mesh(case):
    mesh = synth_mesh(grid=4)
    vertices, colors = mesh.vertices.copy(), mesh.colors.copy()
    if case == "nan-color":
        colors[2, 1] = np.nan
    elif case == "nan-vertex":
        vertices[3, 0] = np.nan
    elif case == "f32-overflow-vertex":  # finite, but inf once cast to the file's float32
        vertices[3, 0] = 1e39
    else:  # would be clipped to 255 in PLY and written as is in OBJ
        colors[1, 0] = 1.5
    return TexturedMesh.from_arrays(vertices, mesh.faces, colors, mesh.uv)


@pytest.mark.parametrize("case", ["nan-color", "nan-vertex", "f32-overflow-vertex", "color-1.5"])
@pytest.mark.parametrize("fmt", ["ply", "ply-binary", "obj"])
def test_write_mesh_refuses_invalid_mesh(tmp_path, fmt, case):
    p = tmp_path / f"m.{'obj' if fmt == 'obj' else 'ply'}"
    write_mesh(synth_mesh(grid=4), p, fmt=fmt)
    before = p.read_bytes()
    with pytest.raises(InvariantError, match=re.escape(str(p))):
        write_mesh(invalid_mesh(case), p, fmt=fmt)
    assert p.read_bytes() == before  # no partial or replaced file, no temporary left
    assert list(tmp_path.iterdir()) == [p]


def test_vertex_order_preserved(tmp_path):
    mesh = synth_mesh(grid=6)
    p = tmp_path / "m.ply"
    write_mesh(mesh, p)
    loaded = load_mesh(p)
    assert np.array_equal(loaded.vertices, mesh.vertices)  # order, not just set


def test_ply_binary_matches_ascii(tmp_path):
    mesh = synth_mesh(grid=6)
    pa, pb = tmp_path / "a.ply", tmp_path / "b.ply"
    write_mesh(mesh, pa, fmt="ply")
    write_mesh(mesh, pb, fmt="ply-binary")
    ma, mb = load_mesh(pa), load_mesh(pb)
    assert np.array_equal(ma.vertices, mb.vertices)
    assert np.array_equal(ma.colors, mb.colors)
    assert np.array_equal(ma.uv, mb.uv)


def test_format_from_suffix(tmp_path):
    mesh = triangle_mesh()
    p = tmp_path / "m.ply"
    write_mesh(mesh, p)
    assert load_mesh(p).n_vertices == 3
    txt = tmp_path / "m.txt"
    txt.write_bytes(p.read_bytes())
    with pytest.raises(ParseError):
        load_mesh(txt)


def test_colors_default_kind():
    mesh = triangle_mesh()
    assert np.all(mesh.colors == mesh_core.DEFAULT_COLOR)


# ---------------------------------------------------------------------------
# PLY body readers against the per-record reference


def random_ply(rng, binary):
    """(file bytes, vprops, n_vertices, n_faces, body line0) of a valid random PLY."""
    n = int(rng.integers(3, 40))
    nf = int(rng.integers(0, 25))
    props = ["x", "y", "z"]
    if rng.random() < 0.7:
        props += ["red", "green", "blue"]
    if rng.random() < 0.7:
        props += ["u", "v"]
    props = [str(p) for p in rng.permutation(props)]
    values = {
        "x": rng.normal(size=n) * 10.0 ** rng.integers(-4, 5, size=n),
        "y": rng.normal(size=n),
        "z": rng.normal(size=n) * 1e3,
        "red": rng.integers(0, 256, n), "green": rng.integers(0, 256, n),
        "blue": rng.integers(0, 256, n),
        "u": rng.uniform(size=n), "v": rng.uniform(size=n),
    }
    faces = np.array([rng.choice(n, 3, replace=False) for _ in range(nf)], dtype=np.int64)
    faces = faces.reshape(nf, 3)
    header = ["ply", f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
              f"element vertex {n}"]
    header += [f"property {'uchar' if p in ('red', 'green', 'blue') else 'float'} {p}"
               for p in props]
    header += [f"element face {nf}", "property list uchar int32 vertex_indices"]
    head = ("\n".join(header + ["end_header"]) + "\n").encode("ascii")
    if binary:
        dt = np.dtype([(p, "u1" if p in ("red", "green", "blue") else "<f4") for p in props])
        rows = np.zeros(n, dtype=dt)
        for p in props:
            rows[p] = values[p]
        frows = np.zeros(nf, dtype=[("n", "u1"), ("i", "<i4", (3,))])
        frows["n"], frows["i"] = 3, faces
        return head + rows.tobytes() + frows.tobytes(), props, n, nf, len(header) + 2
    eol = "\r\n" if rng.random() < 0.3 else "\n"
    lines = []
    for i in range(n):
        fields = []
        for p in props:
            if p in ("red", "green", "blue"):
                fields.append("%d" % values[p][i])
            else:
                fields.append("%.*g" % (int(rng.integers(1, 18)), values[p][i]))
        sep = " \t"[int(rng.integers(0, 2))] * int(rng.integers(1, 3))
        lines.append(" " * int(rng.integers(0, 2)) + sep.join(fields))
    lines += ["3 %d %d %d" % tuple(f) for f in faces]
    return head + (eol.join(lines) + eol).encode("ascii"), props, n, nf, len(header) + 2


def reference_mesh(read, data, props, n, nf, *extra):
    body = data[data.find(b"end_header\n") + len(b"end_header\n"):]
    verts, cols, uv, faces = read("m.ply", body, n, nf, props, *extra)
    return TexturedMesh.from_arrays(
        verts, faces,
        cols if {"red", "green", "blue"} <= set(props) else None,
        uv if {"u", "v"} <= set(props) else None,
    )


def assert_same_mesh(got, want):
    for a, b in ((got.vertices, want.vertices), (got.faces, want.faces),
                 (got.colors, want.colors)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    assert (got.uv is None) == (want.uv is None)
    if want.uv is not None:
        assert got.uv.tobytes() == want.uv.tobytes()


@pytest.mark.parametrize("binary", [False, True])
def test_ply_body_matches_per_record_reference(tmp_path, binary):
    rng = np.random.default_rng(401 + binary)
    p = tmp_path / "m.ply"
    for _ in range(40):
        data, props, n, nf, line0 = random_ply(rng, binary)
        p.write_bytes(data)
        if binary:
            want = reference_mesh(read_ply_binary, data, props, n, nf)
        else:
            want = reference_mesh(read_ply_ascii, data, props, n, nf, line0)
        assert_same_mesh(load_mesh(p), want)


def corrupt_ascii(rng, data, props, n, nf):
    head, _, body = data.partition(b"end_header\n")
    eol = "\r\n" if b"\r\n" in body else "\n"
    lines = body.decode("ascii").split(eol)[:-1]
    for _ in range(int(rng.integers(1, 3))):
        if nf and rng.random() < 0.4:
            i = n + int(rng.integers(0, nf))
            tok = lines[i].split()
            lines[i] = str(rng.choice([
                "4 " + " ".join(tok[1:]) + " 0", " ".join(tok[:3]), " ".join(tok[:3] + ["x"]),
                "", " ".join(tok + ["1"]), "x " + " ".join(tok[1:]), "3 1.0 " + " ".join(tok[2:]),
            ]))
        else:
            i = int(rng.integers(0, n))
            tok = lines[i].split()
            if not tok:  # blanked by an earlier edit
                continue
            j = int(rng.integers(0, len(tok)))
            kind = int(rng.integers(0, 6))
            if kind == 0:
                tok = tok[:-1]
            elif kind == 1:
                tok = tok + ["1"]
            elif kind == 2:
                tok[j] = "abc"
            elif kind == 3:
                tok[j] = "#"
            elif kind == 4:
                tok = []
            elif "red" in props:
                tok[props.index("red")] = "1.5"  # non-integer color
            lines[i] = " ".join(tok)
    if rng.random() < 0.1:
        lines = lines[: int(rng.integers(0, n + nf))]
    return head + b"end_header\n" + (eol.join(lines) + eol).encode("ascii")


def test_ply_ascii_body_errors_match_reference(tmp_path):
    rng = np.random.default_rng(409)
    p = tmp_path / "m.ply"
    errors = 0
    for _ in range(150):
        data, props, n, nf, line0 = random_ply(rng, binary=False)
        bad = corrupt_ascii(rng, data, props, n, nf)
        p.write_bytes(bad)
        try:
            want = reference_mesh(read_ply_ascii, bad, props, n, nf, line0)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                load_mesh(p)
            assert str(got.value) == str(exc).replace("m.ply", str(p))
            assert got.value.line == exc.line
            errors += 1
        else:  # an edit that left the file valid
            assert_same_mesh(load_mesh(p), want)
    assert errors > 120


def test_ply_binary_body_errors_match_reference(tmp_path):
    rng = np.random.default_rng(410)
    p = tmp_path / "m.ply"
    for _ in range(60):
        data, props, n, nf, _ = random_ply(rng, binary=True)
        start = data.find(b"end_header\n") + len(b"end_header\n")
        bad = bytearray(data)
        vsize = (len(data) - start - 13 * nf) // n
        if nf and rng.random() < 0.5:
            bad[start + n * vsize + 13 * int(rng.integers(0, nf))] = int(rng.choice([0, 4, 255]))
        bad = bytes(bad[: int(rng.integers(start, len(bad)))])
        p.write_bytes(bad)
        with pytest.raises(ParseError) as want:
            reference_mesh(read_ply_binary, bad, props, n, nf)
        with pytest.raises(ParseError) as got:
            load_mesh(p)
        assert str(got.value) == str(want.value).replace("m.ply", str(p))


PINNED_PLY = [
    "ply", "format ascii 1.0", "element vertex 4", "property float x", "property float y",
    "property float z", "property uchar red", "property uchar green", "property uchar blue",
    "element face 2", "property list uchar int32 vertex_indices", "end_header",
    "0 0 0 10 20 30", "1 0 0 10 20 30", "0 1 0 10 20 30", "1 1 0 10 20 30",  # lines 13-16
    "3 0 1 2", "3 1 3 2",  # lines 17-18
]


@pytest.mark.parametrize("edits, eol, line, message", [
    ({14: "0 1 0 128 128"}, "\n", 15, "vertex record has 5 fields, expected 6"),
    ({13: ""}, "\n", 14, "vertex record has 0 fields, expected 6"),
    ({15: "# comment 1 2 3 4"}, "\n", 16, "bad numeric field in vertex record"),
    ({12: "0 0 zero 1 2 3"}, "\n", 13, "bad numeric field in vertex record"),
    ({14: "0 1 0 128 1.5 128"}, "\n", 15, "bad numeric field in vertex record"),
    ({16: "4 0 1 2 3"}, "\n", 17, "face record must be `3 i j k`"),
    ({17: "3 1 3"}, "\n", 18, "face record must be `3 i j k`"),
    ({17: "3 1 3 two"}, "\n", 18, "bad face index"),
    ({17: "3 1 3 two"}, "\r\n", 18, "bad face index"),
    ({15: "1 1", 16: "4 0 1 2 3"}, "\r\n", 16, "vertex record has 2 fields, expected 6"),
])
def test_ply_ascii_body_error_line_numbers(tmp_path, edits, eol, line, message):
    lines = [edits.get(i, text) for i, text in enumerate(PINNED_PLY)]
    p = tmp_path / "bad.ply"
    p.write_bytes(("\n".join(lines[:12]) + "\n" + eol.join(lines[12:]) + eol).encode("ascii"))
    with pytest.raises(ParseError) as exc:
        load_mesh(p)
    assert exc.value.line == line
    assert str(exc.value) == f"{p}:{line}: {message}"


def test_ply_ascii_crlf_body_loads(tmp_path):
    p = tmp_path / "crlf.ply"
    p.write_bytes(("\n".join(PINNED_PLY[:12]) + "\n" + "\r\n".join(PINNED_PLY[12:]) + "\r\n")
                  .encode("ascii"))
    mesh = load_mesh(p)
    assert mesh.faces.tolist() == [[0, 1, 2], [1, 3, 2]]
    assert mesh.vertices[3].tolist() == [1.0, 1.0, 0.0]
    assert mesh.colors[0].tolist() == [10 / 255.0, 20 / 255.0, 30 / 255.0]


def pinned_ply_bytes(header_eol="\n", body_eol="\n", header=PINNED_PLY[:12]):
    return (header_eol.join(header) + header_eol + body_eol.join(PINNED_PLY[12:]) + body_eol
            ).encode("ascii")


def test_ply_header_ends_at_crlf_end_header_line(tmp_path):
    p = tmp_path / "crlf.ply"
    p.write_bytes(pinned_ply_bytes())
    want = load_mesh(p)
    p.write_bytes(pinned_ply_bytes("\r\n", "\r\n"))
    assert_same_mesh(load_mesh(p), want)


def test_ply_header_ends_only_at_a_whole_end_header_line(tmp_path):
    p = tmp_path / "m.ply"
    p.write_bytes(pinned_ply_bytes())
    want = load_mesh(p)
    header = PINNED_PLY[:2] + ["comment x end_header", "comment end_header"] + PINNED_PLY[2:12]
    p.write_bytes(pinned_ply_bytes(header=header))
    assert_same_mesh(load_mesh(p), want)
    for last in ("end_headerx", " end_header", "comment end_header"):
        p.write_bytes(pinned_ply_bytes(header=PINNED_PLY[:11] + [last]))
        with pytest.raises(ParseError, match="missing end_header"):
            load_mesh(p)


def assert_loads_like_reference(p, data, props, n, nf, line0):
    """load_mesh gives the per-record reference's mesh, or its ParseError; True on an error."""
    p.write_bytes(data)
    try:
        want = reference_mesh(read_ply_ascii, data, props, n, nf, line0)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            load_mesh(p)
        assert str(got.value) == str(exc).replace("m.ply", str(p))
        assert got.value.line == exc.line
        return True
    assert_same_mesh(load_mesh(p), want)
    return False


# np.loadtxt reads these as whitespace inside a line; str.splitlines ends a line at each
LINE_BREAKING_WHITESPACE = b"\x0b\x0c\x1c\x1d\x1e"


def test_ply_ascii_line_breaking_whitespace_matches_reference(tmp_path):
    rng = np.random.default_rng(411)
    p = tmp_path / "m.ply"
    errors = 0
    for _ in range(60):
        data, props, n, nf, line0 = random_ply(rng, binary=False)
        start = data.find(b"end_header\n") + len(b"end_header\n")
        bad = bytearray(data)
        for _ in range(int(rng.integers(1, 3))):
            at = int(rng.integers(start, len(bad) + 1))
            if rng.random() < 0.3:
                at = len(bad) - 1  # before the last line end: an extra line after the records
            sep = LINE_BREAKING_WHITESPACE[int(rng.integers(0, 5))]
            if at < len(bad) and bad[at] in b" \t" and rng.random() < 0.7:
                bad[at] = sep  # one field separator becomes a line break
            else:
                bad[at:at] = bytes([sep])
        errors += assert_loads_like_reference(p, bytes(bad), props, n, nf, line0)
    assert 10 < errors < 60


def test_ply_ascii_mixed_line_ends_match_reference(tmp_path):
    # lone \r, \r\n and \n mixed line by line, and a last line with no line end
    rng = np.random.default_rng(412)
    p = tmp_path / "m.ply"
    for case in range(40):
        data, props, n, nf, line0 = random_ply(rng, binary=False)
        head, _, body = data.partition(b"end_header\n")
        lines = body.splitlines()
        ends = rng.choice([b"\n", b"\r\n", b"\r"], size=len(lines))
        if case % 2:
            ends[-1] = b""
        body = b"".join(line + end for line, end in zip(lines, ends))
        assert not assert_loads_like_reference(p, head + b"end_header\n" + body, props, n, nf,
                                               line0)


def spy_body_records(monkeypatch):
    """The list of paths ``_ascii_body_records`` (the general ASCII path) is called for."""
    calls = []
    real = mesh_core._ascii_body_records

    def spy(path, *args):
        calls.append(path)
        return real(path, *args)

    monkeypatch.setattr(mesh_core, "_ascii_body_records", spy)
    return calls


def test_plain_ascii_ply_loads_without_the_general_path(tmp_path, monkeypatch):
    def general(*args):
        raise AssertionError("a plain file reached the general path")

    monkeypatch.setattr(mesh_core, "_ascii_body_records", general)
    rng = np.random.default_rng(413)
    p = tmp_path / "m.ply"
    for case in range(60):
        data, props, n, nf, line0 = random_ply(rng, binary=False)
        head, _, body = data.partition(b"end_header\n")
        if case % 3 == 1:  # header lines of every kind, and lines after the records
            head = head.replace(b"format ascii 1.0\n",
                                b"format ascii 1.0\ncomment a # b\r\n\ncomment c\r")
            line0 += 3
            body += b"3 0 1\n\n  \t\nanything\n"
        if case % 3 == 2:  # lone \r, \r\n and \n mixed, and no last line end
            lines = body.splitlines()
            ends = rng.choice([b"\n", b"\r\n", b"\r"], size=len(lines))
            body = b"".join(line + end for line, end in zip(lines, ends))[:-1]
        assert not assert_loads_like_reference(p, head + b"end_header\n" + body, props, n, nf,
                                               line0)


@pytest.mark.parametrize("trigger", ["non-ascii after the records", "form feed line break",
                                     "blank line among the records"])
def test_ply_ascii_trigger_takes_the_general_path(tmp_path, monkeypatch, trigger):
    calls = spy_body_records(monkeypatch)
    rng = np.random.default_rng(414)
    p = tmp_path / "m.ply"
    errors = 0
    for case in range(30):
        data, props, n, nf, line0 = random_ply(rng, binary=False)
        head, _, body = data.partition(b"end_header\n")
        eol = b"\r\n" if b"\r\n" in body else b"\n"
        lines = body.split(eol)[:-1]
        if trigger == "non-ascii after the records":
            lines.append(b"comment \xe9\xff")
        elif trigger == "form feed line break":
            i = int(rng.integers(0, len(lines)))
            lines[i] = re.sub(rb"[ \t]", b"\x0c", lines[i], count=1)
        else:  # the last record is pushed past the block
            lines.insert(int(rng.integers(0, len(lines))), b" \t"[:case % 3])
        errors += assert_loads_like_reference(p, head + b"end_header\n" + eol.join(lines) + eol,
                                              props, n, nf, line0)
        assert calls == [p] * (case + 1)
    if trigger == "blank line among the records":
        assert errors == 30
    elif trigger == "non-ascii after the records":
        assert errors == 0


@pytest.mark.parametrize("swap", ["renamed over", "rewritten"])
def test_ply_ascii_file_changed_after_the_read_loads_the_bytes_read(tmp_path, monkeypatch,
                                                                   swap):
    p, other = tmp_path / "m.ply", tmp_path / "other.ply"
    p.write_bytes(pinned_ply_bytes())
    want = load_mesh(p)
    other.write_bytes(pinned_ply_bytes().replace(b"\n0 0 0 10", b"\n0 0 0.5 10"))
    assert load_mesh(other).vertices[0, 2] == 0.5
    calls = spy_body_records(monkeypatch)
    read_records = mesh_core._plain_ascii_records

    def change_then_read(path, *args):
        if swap == "renamed over":
            os.replace(other, path)
        else:
            path.write_bytes(other.read_bytes())
        return read_records(path, *args)

    monkeypatch.setattr(mesh_core, "_plain_ascii_records", change_then_read)
    assert_same_mesh(load_mesh(p), want)
    assert calls == [p]


def load_outcome(p):
    """The bytes of the mesh loaded from ``p``, or the text and line of its ParseError."""
    try:
        mesh = load_mesh(p)
    except ParseError as exc:
        return str(exc), exc.line
    return tuple(a.tobytes() for a in (mesh.vertices, mesh.faces, mesh.colors))


PLAIN_PATH_CASES = {  # case -> file lines
    "good": PINNED_PLY,
    "bad vertex record": PINNED_PLY[:14] + ["0 1 0 128 1.5 128"] + PINNED_PLY[15:],
    "bad face record": PINNED_PLY[:17] + ["3 1 3 two"],
    "blank line among the records": PINNED_PLY[:15] + [""] + PINNED_PLY[15:],
    "changed after the read": PINNED_PLY,
}


@pytest.mark.parametrize("case", list(PLAIN_PATH_CASES))
def test_ply_ascii_plain_path_does_not_depend_on_cpu_count(tmp_path, monkeypatch, case):
    data = ("\n".join(PLAIN_PATH_CASES[case]) + "\n").encode("ascii")
    calls = spy_body_records(monkeypatch)
    read_records = mesh_core._plain_ascii_records

    def change_then_read(path, *args):
        os.replace(path.with_name("other.ply"), path)
        return read_records(path, *args)

    if case == "changed after the read":
        monkeypatch.setattr(mesh_core, "_plain_ascii_records", change_then_read)
    outcomes = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        p = tmp_path / "m.ply"
        p.write_bytes(data)
        p.with_name("other.ply").write_bytes(data.replace(b"\n0 0 0 10", b"\n0 0 0.5 10"))
        outcomes.append(load_outcome(p))
        assert parallel._workers or cpus == 1
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    assert isinstance(outcomes[0][0], bytes) == (case in ("good", "changed after the read"))
    assert len(calls) == (0 if case == "good" else 3)


@pytest.mark.parametrize("action", [None, "ignore", "always", "error"])
def test_ply_ascii_blank_face_line_before_an_extra_line_is_a_parse_error(tmp_path, monkeypatch,
                                                                         fresh_workers, action):
    # loadtxt does not count a blank line towards max_rows and reads the
    # extra line instead; it warns when it does, and the loader takes that
    # warning as a failed read, whatever filter the caller sets, also on a
    # worker forked under that filter. Should a numpy release stop warning,
    # this file loads and the test fails.
    lines = PINNED_PLY[:17] + [""] + PINNED_PLY[17:] + ["3 0 1 3"]
    data = ("\n".join(lines) + "\n").encode("ascii")
    p = tmp_path / "m.ply"
    p.write_bytes(data)
    props = ["x", "y", "z", "red", "green", "blue"]
    with pytest.raises(ParseError) as want:
        reference_mesh(read_ply_ascii, data, props, 4, 2, 13)
    for cpus in (1, 2):  # at 2 the face block is read by a worker forked below
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        with warnings.catch_warnings(record=True) as seen:
            if action is not None:
                warnings.simplefilter(action)
            with pytest.raises(ParseError) as got:
                load_mesh(p)
        assert str(got.value) == str(want.value).replace("m.ply", str(p))
        assert got.value.line == want.value.line == 18
        assert not seen
    assert len(parallel._workers) == 1


@pytest.mark.parametrize("body", [b"", b"\n\n", b"0 0 0 10 20 30\n"])
def test_ply_ascii_missing_records_raise_without_a_warning(tmp_path, body):
    p = tmp_path / "m.ply"
    p.write_bytes(("\n".join(PINNED_PLY[:12]) + "\n").encode("ascii") + body)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="expected 6 body lines, found "):
            load_mesh(p)
    assert not seen


def test_ply_ascii_load_holds_the_file_bytes_and_the_arrays(tmp_path):
    # a scan-size frame; one list of every body line would take about 6.6x the file size
    p = tmp_path / "scan.ply"
    write_mesh(_scan_grid_mesh(), p)
    size = p.stat().st_size
    load_mesh(p)
    tracemalloc.start()
    try:
        mesh = load_mesh(p)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (mesh.vertices, mesh.faces, mesh.colors, mesh.uv))
    assert mesh.n_vertices == 40000 and size > 3_000_000
    assert peak <= 4 * size
    assert arrays <= current < arrays + 16_384
