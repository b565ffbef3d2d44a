import numpy as np
import pytest

from facegcn import mesh_core
from facegcn.dataset_synth import ExpressionParams, IdentityParams, make_frame_mesh
from facegcn.errors import InvariantError, ParseError
from facegcn.mesh_core import (
    TexturedMesh,
    build_edge_graph,
    load_mesh,
    validate_mesh,
    write_mesh,
)

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
    for fi, face in enumerate(mesh.faces):
        if (face < 0).any() or (face >= 12).any():
            expect.append(("face_index", f"faces[{fi}]", f"index out of range in {tuple(face)}"))
        elif len(set(int(x) for x in face)) != 3:
            expect.append(("degenerate_face", f"faces[{fi}]", f"repeated vertex in {tuple(face)}"))
    assert len(expect) > 50
    assert [(v.kind, v.where, v.detail) for v in validate_mesh(mesh).violations] == expect


# ---------------------------------------------------------------------------
# build_edge_graph


def test_single_triangle_edges():
    g = build_edge_graph(triangle_mesh())
    assert g.n_edges == 3


def test_shared_edge_counted_once():
    mesh = TexturedMesh.from_arrays(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 2], [1, 2, 3]]
    )
    g = build_edge_graph(mesh)
    assert g.n_edges == 5


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
    g = build_edge_graph(TexturedMesh.from_arrays(verts, faces))
    for (u, v), w in zip(g.edges, g.weights):
        du = verts[u] - verts[v]
        if np.count_nonzero(du) == 1:  # axis-aligned edge
            assert w == 1.0
        assert w == np.sqrt((du * du).sum())


def test_edges_match_unique_rows_reference():
    mesh = synth_mesh(grid=12)
    faces = np.random.default_rng(3).permutation(mesh.faces)
    g = build_edge_graph(TexturedMesh.from_arrays(mesh.vertices, faces))
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    assert np.array_equal(g.edges, np.unique(np.sort(pairs, axis=1), axis=0))


def test_edge_count_bounds():
    for grid in (4, 8, 12):
        mesh = synth_mesh(grid=grid)
        g = build_edge_graph(mesh)
        assert mesh.n_faces <= g.n_edges <= 3 * mesh.n_faces


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
    g = build_edge_graph(mesh)
    assert g.n_edges == 3 * 2 + 1


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


def test_format_inference_and_override(tmp_path):
    mesh = triangle_mesh()
    p = tmp_path / "m.ply"
    write_mesh(mesh, p)
    assert load_mesh(p).n_vertices == 3
    with pytest.raises(ParseError):
        load_mesh(p, fmt="txt")


def test_colors_default_kind():
    mesh = triangle_mesh()
    assert np.all(mesh.colors == mesh_core.DEFAULT_COLOR)
