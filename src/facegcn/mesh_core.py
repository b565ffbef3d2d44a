"""Textured triangular meshes: loading, validation, writing, edge graph.

Supported formats are a small OBJ subset (``v x y z [r g b]``, ``vt u v``,
``f i j k`` or ``f i/ti j/tj k/tk``) and a PLY subset (ascii or
binary_little_endian 1.0, float x/y/z, optional uchar red/green/blue,
optional float u/v, uchar+int32 face lists). The canonical writer is ascii
PLY with 9 significant digits. The writers build each format from arrays:
the PLY vertex record is the reader's own (``_PLY_VERTEX_PROPS`` gives the
header's property lines and ``_vertex_dtype`` the binary record), and text
rows are one ``%`` format per row. ``write_mesh`` validates the mesh first,
writing nothing for an invalid one, and replaces the file atomically.

All float geometry is quantized through float32 at load time (PLY's
``float`` property is 32-bit) and stored in float64 arrays, which is what
makes write/load round trips bit-exact.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import parallel
from .errors import InvariantError, ParseError
from .fileio import read_text, write_atomic

DEFAULT_COLOR = (0.5, 0.5, 0.5)

# Entries (float64 values) of one batched array pass over N-vertex meshes: a
# kNN block of R queries holds R * w squared distances (w points per x
# window, or all N for a small set) and a geodesic search batch holds one
# N-length distance row per source. Work is batched up to this size so
# per-call overhead is shared: a desk frame's 28 queries run in one whole-set
# block, a 40k-vertex scan's 83 run in blocks of 16 over 2048-point windows,
# and a scan keeps one frame per search pass. Results do not depend on it.
BATCH_ENTRIES = 1 << 15


@dataclass(frozen=True)
class TexturedMesh:
    """One frame of a raw 3D scan: geometry, topology, per-vertex color."""

    vertices: np.ndarray  # (N, 3) float64
    faces: np.ndarray  # (F, 3) int64
    colors: np.ndarray  # (N, 3) float64 in [0, 1]
    uv: np.ndarray | None = None  # (N, 2) float64 in [0, 1]^2

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_faces(self) -> int:
        return self.faces.shape[0]

    @classmethod
    def from_arrays(cls, vertices, faces, colors=None, uv=None) -> "TexturedMesh":
        """Normalize dtypes, default missing colors to mid-gray, freeze arrays."""
        vertices = np.ascontiguousarray(vertices, dtype=np.float64).reshape(-1, 3)
        faces = np.ascontiguousarray(faces, dtype=np.int64).reshape(-1, 3)
        if colors is None:
            colors = np.tile(np.asarray(DEFAULT_COLOR), (vertices.shape[0], 1))
        colors = np.ascontiguousarray(colors, dtype=np.float64).reshape(-1, 3)
        if uv is not None:
            uv = np.ascontiguousarray(uv, dtype=np.float64).reshape(-1, 2)
        for arr in (vertices, faces, colors, uv):
            if arr is not None:
                arr.flags.writeable = False
        return cls(vertices=vertices, faces=faces, colors=colors, uv=uv)


@dataclass(frozen=True)
class Violation:
    kind: str  # e.g. "face_index", "degenerate_face", "nan", "length", "range"
    where: str  # array name plus index, e.g. "vertices[3]"
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: str, detail: str) -> None:
        self.violations.append(Violation(kind, where, detail))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"{v.kind} at {v.where}: {v.detail}" for v in self.violations)


@dataclass(frozen=True)
class EdgeGraph:
    """Undirected weighted graph over mesh vertices, one edge per face edge.

    CSR adjacency: the neighbors of v are ``targets[indptr[v]:indptr[v + 1]]``
    with weights ``weights_csr[indptr[v]:indptr[v + 1]]``; every undirected
    edge appears once in each endpoint's row. All three arrays are read-only:
    graphs of frames with one topology share one ``indptr`` and ``targets``.
    """

    n_nodes: int
    indptr: np.ndarray  # (n_nodes + 1,) int64
    targets: np.ndarray  # (2E,) int64
    weights_csr: np.ndarray  # (2E,) float64, > 0


class EdgeTopology(NamedTuple):
    """What an EdgeGraph takes from the vertex count and faces alone.

    The unique face edges are the pairs ``(lo[e], hi[e])`` in lexicographic
    order; CSR entry i carries the length of pair ``pair_of[i]``. Every frame
    with this vertex count and these faces shares it (see ``fits``), so all
    its arrays are read-only.
    """

    faces: np.ndarray  # (F, 3) the faces it was built from
    lo: np.ndarray  # (E,) int64
    hi: np.ndarray  # (E,) int64, lo < hi
    pair_of: np.ndarray  # (2E,) int64
    indptr: np.ndarray  # (n_nodes + 1,) int64
    targets: np.ndarray  # (2E,) int64

    @property
    def n_nodes(self) -> int:
        return self.indptr.size - 1

    def fits(self, mesh: "TexturedMesh") -> bool:
        """Whether ``mesh`` has this vertex count and equal faces."""
        return mesh.n_vertices == self.n_nodes and (
            mesh.faces is self.faces or np.array_equal(mesh.faces, self.faces))

    def graph(self, vertices: np.ndarray) -> EdgeGraph:
        """The edge graph of this topology at ``vertices``, (n_nodes, 3) float64.

        Raises InvariantError for a non-finite vertex or a zero-length edge.
        """
        if not np.isfinite(vertices).all():
            raise InvariantError("non-finite vertex coordinates")
        # over column copies: the doubles of the (E, 3) row sum, without row gathers
        dx, dy, dz = (col[self.lo] - col[self.hi]
                      for col in np.ascontiguousarray(vertices.T))
        weights = np.sqrt((dx * dx + dy * dy) + dz * dz)
        if (weights <= 0.0).any():
            bad = int(np.nonzero(weights <= 0.0)[0][0])
            raise InvariantError(
                f"zero-length edge between vertices {(int(self.lo[bad]), int(self.hi[bad]))}: "
                "coincident positions are not usable for geodesics"
            )
        weights_csr = weights[self.pair_of]
        weights_csr.flags.writeable = False
        return EdgeGraph(n_nodes=self.n_nodes, indptr=self.indptr, targets=self.targets,
                         weights_csr=weights_csr)


def _face_edges(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 3F face edges as (lo, hi) endpoint arrays, lo <= hi, in face-edge order."""
    a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
    u, v = np.concatenate([a, b, a]), np.concatenate([b, c, c])
    return np.minimum(u, v), np.maximum(u, v)


def _unique_pairs(lo: np.ndarray, hi: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique (lo, hi) pairs as (E,) endpoint arrays, in lexicographic order.

    Indices must lie in [0, n); each pair is keyed as lo * n + hi, whose 1-D
    order is the lexicographic order. Sorting and dropping repeats of the
    previous key gives what ``np.unique`` would, without its extra passes.
    The keys are uint32 when every one fits (n * n <= 2**32), which sorts
    faster; the pairs come back as int64 either way.
    """
    if n * n <= 1 << 32:
        lo, hi = lo.astype(np.uint32), hi.astype(np.uint32)
    keys = np.sort(lo * n + hi)
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    lo, hi = np.divmod(keys[keep], n)
    return lo.astype(np.int64, copy=False), hi.astype(np.int64, copy=False)


_F32_MAX = float(np.finfo(np.float32).max)

# Weights of the per-vertex key (x * a + y * b) + z * c that screens face
# edges for coincident endpoints. They are positive and sum to less than 1,
# so a finite vertex gives a finite key (no product or sum can overflow, so
# none is NaN), and equal positions give equal keys, 0.0 and -0.0 included.
# A key tie is necessary for coincident endpoints but not sufficient.
_KEY_WEIGHTS = (0.4142135623730951, 0.2679491924311228, 0.2360679774997898)


def _within(arr: np.ndarray, lo, hi) -> bool:
    """Whether every entry of ``arr`` lies in [lo, hi]; NaN fails, empty passes."""
    return arr.size == 0 or bool(lo <= arr.min() and arr.max() <= hi)


def validate_mesh(mesh: TexturedMesh) -> ValidationReport:
    """List every invariant violation; an empty report means the mesh is valid.

    Each check is one whole-array predicate first; the per-row scan that
    names every bad index runs only for a check whose predicate fails.
    """
    report = ValidationReport()
    n, vertices = mesh.n_vertices, mesh.vertices

    finite = True
    if not _within(vertices, -_F32_MAX, _F32_MAX):
        rows = np.isfinite(vertices).all(axis=1)
        for i in np.nonzero(~rows)[0]:
            report.add("nan", f"vertices[{i}]", "non-finite coordinate")
        # a finite float64 can still overflow the float32 every file stores
        with np.errstate(over="ignore"):
            overflow = rows & np.isinf(vertices.astype(np.float32)).any(axis=1)
        for i in np.nonzero(overflow)[0]:
            report.add("range", f"vertices[{i}]", "coordinate beyond float32 range")
        finite = bool(rows.all())

    for name, arr in (("colors", mesh.colors), ("uv", mesh.uv)):
        if arr is None:
            continue
        if arr.shape[0] != n:
            report.add("length", name, f"{arr.shape[0]} {name} for {n} vertices")
            continue
        if _within(arr, 0.0, 1.0):
            continue
        ok = np.isfinite(arr).all(axis=1)
        for i in np.nonzero(~ok)[0]:
            report.add("nan", f"{name}[{i}]", "non-finite component")
        out = ok & ((arr < 0.0) | (arr > 1.0)).any(axis=1)
        for i in np.nonzero(out)[0]:
            report.add("range", f"{name}[{i}]", "component outside [0, 1]")

    f = mesh.faces
    in_range = _within(f, 0, n - 1)
    out = np.zeros(f.shape[0], dtype=bool) if in_range else ((f < 0) | (f >= n)).any(axis=1)
    repeated = ~out & ((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2]))
    for fi in np.nonzero(out | repeated)[0]:
        if out[fi]:
            report.add("face_index", f"faces[{fi}]", f"index out of range in {tuple(f[fi].tolist())}")
        else:
            report.add("degenerate_face", f"faces[{fi}]", f"repeated vertex in {tuple(f[fi].tolist())}")

    # coincident edge endpoints would give zero-weight edges downstream; only
    # the faces with a key tie have their edges narrowed coordinate-wise, and
    # only the hits need deduplicating
    if in_range and mesh.n_faces and finite:
        a, b, c = _KEY_WEIGHTS
        key = (vertices[:, 0] * a + vertices[:, 1] * b) + vertices[:, 2] * c
        k0, k1, k2 = key[f[:, 0]], key[f[:, 1]], key[f[:, 2]]
        tie = (k0 == k1) | (k1 == k2) | (k0 == k2)
        if tie.any():
            lo, hi = _face_edges(f[tie])
            hit = np.nonzero(lo != hi)[0]  # self-pairs are degenerate faces
            for col in vertices.T:  # narrow the candidates one coordinate at a time
                hit = hit[col[lo[hit]] == col[hi[hit]]]
            for u, v in zip(*_unique_pairs(lo[hit], hi[hit], n)):
                report.add("degenerate_edge", f"edge({u},{v})", "coincident endpoint positions")
    return report


def edge_topology(n: int, faces: np.ndarray) -> EdgeTopology:
    """The EdgeTopology of ``n`` vertices and ``faces``; InvariantError if an index is out of range."""
    if faces.size and (faces.min() < 0 or faces.max() >= n):
        raise InvariantError(f"face index out of range for {n} vertices")
    lo, hi = _unique_pairs(*_face_edges(faces), n)
    # each pair listed from both ends, rows in vertex order, stable within a row
    src = np.concatenate([lo, hi])
    order = np.argsort(src, kind="stable")
    targets = np.concatenate([hi, lo])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    pair_of = np.where(order < lo.size, order, order - lo.size)
    for arr in (lo, hi, pair_of, indptr, targets):
        arr.flags.writeable = False
    return EdgeTopology(faces=faces, lo=lo, hi=hi, pair_of=pair_of, indptr=indptr,
                        targets=targets)


def build_edge_graph(mesh: TexturedMesh) -> EdgeGraph:
    """Edge graph of the mesh: one undirected edge per unique face edge.

    Weights are the Euclidean distances between endpoint vertices. The mesh
    is not validated again (``load_mesh`` does that at the file boundary);
    only this function's own preconditions are checked, each raising
    InvariantError: face indices in range, finite vertices, and positive
    edge lengths (zero-length edges, from coincident positions or repeated
    face vertices, would stop geodesic arc lengths from strictly increasing).
    This is ``edge_topology(...).graph(...)`` for one frame.
    """
    return edge_topology(mesh.n_vertices, mesh.faces).graph(mesh.vertices)


# ---------------------------------------------------------------------------
# loading


def _f32(text: str) -> float:
    # quantize through float32: the canonical domain of all on-disk floats
    return float(np.float32(text))


def load_mesh(path) -> TexturedMesh:
    """Load an OBJ or PLY mesh; the format is the file suffix.

    The returned mesh satisfies every TexturedMesh invariant (otherwise
    InvariantError); malformed records raise ParseError with a line number.
    A plain ASCII PLY file's vertex and face blocks are read on two
    processes when there are two usable CPUs, the caller and a worker of
    ``parallel.map_in_order``; meshes and errors do not depend on the CPU
    count, and ``taskset -c 0`` gives the one-process read.
    """
    path = Path(path)
    fmt = path.suffix.lower().lstrip(".")
    if fmt == "obj":
        mesh = _load_obj(path)
    elif fmt == "ply":
        mesh = _load_ply(path)
    else:
        raise ParseError(f"unsupported format {fmt!r} (expected obj or ply)", path=path)
    report = validate_mesh(mesh)
    if not report.ok:
        raise InvariantError(f"{path}: {report}")
    return mesh


_INDEX_MAX = int(np.iinfo(np.int64).max)


def _load_obj(path: Path) -> TexturedMesh:
    vertices: list[tuple] = []
    colors: list[tuple | None] = []
    uvs: list[tuple] = []
    faces: list[tuple[int, int, int]] = []
    face_uv_refs: list[tuple[int, int, int] | None] = []

    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind, args = tok[0], tok[1:]
        if kind == "v":
            if len(args) not in (3, 6):
                raise ParseError("v expects 3 or 6 floats", path=path, line=lineno)
            try:
                vals = [_f32(a) for a in args]
            except ValueError:
                raise ParseError("bad float in v record", path=path, line=lineno)
            vertices.append(tuple(vals[:3]))
            colors.append(tuple(vals[3:]) if len(vals) == 6 else None)
        elif kind == "vt":
            if len(args) != 2:
                raise ParseError("vt expects 2 floats", path=path, line=lineno)
            try:
                uvs.append((_f32(args[0]), _f32(args[1])))
            except ValueError:
                raise ParseError("bad float in vt record", path=path, line=lineno)
        elif kind == "f":
            if len(args) != 3:
                raise ParseError("f expects exactly 3 vertex references", path=path, line=lineno)
            vidx, tidx = [], []
            for ref in args:
                parts = ref.split("/")
                if len(parts) == 1:
                    v, t = parts[0], None
                elif len(parts) == 2 and parts[1]:
                    v, t = parts
                else:
                    raise ParseError(f"unsupported face reference {ref!r}", path=path, line=lineno)
                try:
                    vi = int(v)
                    ti = int(t) if t is not None else None
                except ValueError:
                    raise ParseError(f"bad index in face reference {ref!r}", path=path, line=lineno)
                if vi < 1 or (ti is not None and ti < 1):
                    raise ParseError("OBJ indices are 1-based", path=path, line=lineno)
                if vi > _INDEX_MAX:
                    raise ParseError(f"face index {vi} beyond int64", path=path, line=lineno)
                vidx.append(vi - 1)
                tidx.append(ti - 1 if ti is not None else None)
            faces.append(tuple(vidx))
            face_uv_refs.append(tuple(tidx) if all(t is not None for t in tidx) else None)
        else:
            raise ParseError(f"unsupported OBJ record {kind!r}", path=path, line=lineno)

    n = len(vertices)
    color_arr = np.array(
        [c if c is not None else DEFAULT_COLOR for c in colors], dtype=np.float64
    ).reshape(n, 3)

    uv_arr = None
    if uvs:
        refs = [r for r in face_uv_refs if r is not None]
        if refs:
            uv_arr = np.zeros((n, 2), dtype=np.float64)
            for face, ref in zip(faces, face_uv_refs):
                if ref is None:
                    continue
                for vi, ti in zip(face, ref):
                    if ti >= len(uvs):
                        raise InvariantError(f"{path}: vt index {ti + 1} out of range")
                    if 0 <= vi < n:
                        uv_arr[vi] = uvs[ti]
        elif len(uvs) == n:
            uv_arr = np.asarray(uvs, dtype=np.float64)
        else:
            raise ParseError(
                f"{len(uvs)} vt records cannot be mapped onto {n} vertices", path=path
            )

    return TexturedMesh.from_arrays(
        np.array(vertices, dtype=np.float64).reshape(n, 3),
        np.array(faces, dtype=np.int64).reshape(-1, 3),
        color_arr,
        uv_arr,
    )


# The PLY vertex record: property name -> type, in the order the writers
# emit them (readers accept any order, and the aliases below).
_PLY_VERTEX_PROPS = {
    "x": "float", "y": "float", "z": "float",
    "red": "uchar", "green": "uchar", "blue": "uchar",
    "u": "float", "v": "float",
}
_PLY_TYPE_ALIAS = {"float": "float32", "uchar": "uint8"}
_PLY_FACE_DTYPE = np.dtype([("n", "u1"), ("i", "<i4", (3,))])
_ASCII_FACE_DTYPE = np.dtype([("n", "<i8"), ("i", "<i8", (3,))])
# the header ends at the first line that is exactly end_header
_END_HEADER = re.compile(rb"^end_header\r?\n", re.MULTILINE)


def _load_ply(path: Path) -> TexturedMesh:
    # the file stays open until the parse ends, so a file that replaces it
    # cannot take its inode number (see _plain_ascii_records)
    with open(path, "rb") as fh:
        opened = os.fstat(fh.fileno())
        return _parse_ply(path, fh.read(), opened)


def _parse_ply(path: Path, data: bytes, opened: os.stat_result) -> TexturedMesh:
    # header is ascii regardless of body encoding; the body is not copied
    end = _END_HEADER.search(data)
    if end is None:
        raise ParseError("missing end_header", path=path)
    header_lines = data[:end.start()].decode("ascii", errors="replace").splitlines()
    body = memoryview(data)[end.end():]

    if not header_lines or header_lines[0].strip() != "ply":
        raise ParseError("not a PLY file", path=path)

    binary = None
    n_vertices = n_faces = None
    vprops: list[str] = []
    element = None
    for lineno, line in enumerate(header_lines[1:], start=2):
        tok = line.split()
        if not tok or tok[0] == "comment":
            continue
        if tok[0] == "format":
            if tok[1:] == ["ascii", "1.0"]:
                binary = False
            elif tok[1:] == ["binary_little_endian", "1.0"]:
                binary = True
            else:
                raise ParseError(f"unsupported format {' '.join(tok[1:])!r}", path=path, line=lineno)
        elif tok[0] == "element":
            if len(tok) != 3:
                raise ParseError("malformed element", path=path, line=lineno)
            element = tok[1]
            if element not in ("vertex", "face"):
                raise ParseError(f"unsupported element {element!r}", path=path, line=lineno)
            try:
                count = int(tok[2])
            except ValueError:
                raise ParseError(f"bad {element} count {tok[2]!r}", path=path, line=lineno)
            if count < 0:
                raise ParseError(f"negative {element} count {count}", path=path, line=lineno)
            if element == "vertex":
                n_vertices = count
            else:
                n_faces = count
        elif tok[0] == "property":
            if element == "vertex":
                if len(tok) != 3:
                    raise ParseError("malformed vertex property", path=path, line=lineno)
                ptype, name = tok[1], tok[2]
                if name not in _PLY_VERTEX_PROPS:
                    raise ParseError(f"unsupported vertex property {name!r}", path=path, line=lineno)
                want = _PLY_VERTEX_PROPS[name]
                if ptype not in (want, _PLY_TYPE_ALIAS[want]):
                    raise ParseError(f"property {name} must be {want}", path=path, line=lineno)
                vprops.append(name)
            elif element == "face":
                if (len(tok) < 4 or tok[1] != "list" or tok[2] not in ("uchar", "uint8")
                        or tok[3] not in ("int", "int32")):
                    raise ParseError("face property must be `list uchar int32`", path=path, line=lineno)
            else:
                raise ParseError("property before any element", path=path, line=lineno)
        else:
            raise ParseError(f"unsupported header record {tok[0]!r}", path=path, line=lineno)

    if binary is None or n_vertices is None or n_faces is None:
        raise ParseError("header missing format/vertex/face declarations", path=path)
    if not {"x", "y", "z"} <= set(vprops):
        raise ParseError("vertex element must declare x, y, z", path=path)

    if binary:
        verts, cols, uv, faces = _read_ply_binary(path, body, n_vertices, n_faces, vprops)
    else:
        body_line0 = len(header_lines) + 2  # first body line, 1-based
        verts, cols, uv, faces = _read_ply_ascii(
            path, data, opened, body, n_vertices, n_faces, vprops, body_line0
        )

    return TexturedMesh.from_arrays(verts, faces, cols, uv)


def _vertex_dtype(vprops, binary: bool) -> np.dtype:
    # fields are positional: a header may declare one property twice;
    # ascii colors are read as integers, which validation range-checks
    utype = "u1" if binary else "<i8"
    return np.dtype([(f"p{j}", "<f4" if _PLY_VERTEX_PROPS[p] == "float" else utype)
                     for j, p in enumerate(vprops)])


def _vertex_arrays(table: np.ndarray, vprops):
    """(verts, cols, uv) float64 arrays from one record per vertex.

    Floats are float32 already, which is the load-time quantization. cols
    and uv are None unless all their properties are declared; when a
    property is declared twice the later column wins.
    """
    col = {name: table[f"p{j}"] for j, name in enumerate(vprops)}

    def stack(names):
        if not all(name in col for name in names):
            return None
        return np.stack([col[name] for name in names], axis=1).astype(np.float64)

    cols = stack(("red", "green", "blue"))
    return stack(("x", "y", "z")), None if cols is None else cols / 255.0, stack(("u", "v"))


def _ascii_records(lines: list[str], dtype: np.dtype) -> np.ndarray | None:
    """One record per line of ``lines``, or None if a line is not exactly one record.

    loadtxt skips blank lines, so a short result also means a bad line (and
    a leading blank one is rejected before loadtxt can find no data at all).
    """
    if not lines:
        return np.zeros(0, dtype=dtype)
    if not lines[0].split():
        return None
    try:
        rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    return rows if rows.shape[0] == len(lines) else None


def _face_records(lines: list[str]) -> np.ndarray | None:
    rows = _ascii_records(lines, _ASCII_FACE_DTYPE)
    return rows if rows is not None and (rows["n"] == 3).all() else None


def _first_bad_line(lines, good) -> int:
    """Index of the first line for which ``good([line])`` fails.

    ``good`` must fail on ``lines`` and hold for a block exactly when it
    holds for each of its lines; the search bisects on blocks.
    """
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if good(lines[lo:mid]):
            lo = mid
        else:
            hi = mid
    return lo


# bytes that str.splitlines ends a line at, and np.loadtxt reads as whitespace
_LINE_BREAKING_WHITESPACE = (b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")


def _no_data_is_an_error() -> tuple:
    """Put first the filter that makes loadtxt's no-data warnings errors; return it.

    loadtxt warns, and reads on past ``max_rows`` lines, when a blank line
    falls among the records it reads; it warns again when no record follows
    ``skiprows``. The filter matches only these two messages, raised for
    this module's own loadtxt calls (the warnings name loadtxt's caller).
    """
    warnings.filterwarnings("error", r"(input line \d+|loadtxt: input) contained no data",
                            UserWarning, re.escape(__name__) + r"\Z")
    return warnings.filters[0]


_NO_DATA_FILTER = _no_data_is_an_error()


def _file_records(path, skip: int, count: int, dtype: np.dtype) -> np.ndarray:
    """``count`` records read by loadtxt from the file after its first ``skip`` lines."""
    if count == 0:  # max_rows=0 warns of its own
        return np.zeros(0, dtype=dtype)
    return np.loadtxt(str(path), dtype=dtype, comments=None, skiprows=skip, max_rows=count,
                      ndmin=1, encoding="latin-1")


def _block_records(path, skip: int, count: int, dtype: np.dtype):
    """``_file_records``, or None if they do not parse or are short.

    For the face dtype, the (count, 3) int64 indices, or None unless every
    record lists 3. It may run on a forked worker, whose warning filters
    are those of its fork, so it puts ``_NO_DATA_FILTER`` first itself.
    """
    if warnings.filters[:1] != [_NO_DATA_FILTER]:  # a catch_warnings block swapped the list
        _no_data_is_an_error()
    try:
        rows = _file_records(path, skip, count, dtype)
    except (ValueError, UserWarning, OSError):
        return None
    if rows.shape[0] != count:
        return None
    if dtype == _ASCII_FACE_DTYPE:
        return np.ascontiguousarray(rows["i"]) if (rows["n"] == 3).all() else None
    return rows


def _plain_ascii_records(path, data, opened, skip, n_vertices, n_faces, vdtype):
    """(vertex table, faces) read by loadtxt from the file itself, or None.

    It reads only a file of ASCII bytes without ``_LINE_BREAKING_WHITESPACE``,
    where loadtxt's C reader ends lines where ``str.splitlines`` does
    (``\\n``, ``\\r\\n`` and a lone ``\\r``), so its records are those of
    the first body lines. None (never an error) for any other file, if a
    record does not parse, if a blank line falls among the records
    (``_no_data_is_an_error``), or if the path no longer names the file
    ``opened`` describes, unchanged since it was read. The vertex block is
    read here and the face block on a worker (``parallel.map_in_order``),
    side by side when there are two usable CPUs; the path is made absolute
    first, because a worker keeps the working directory of its fork.
    """
    if not data.isascii() or any(map(data.__contains__, _LINE_BREAKING_WHITESPACE)):
        return None
    path = os.path.abspath(path)
    try:
        table, faces = parallel.map_in_order(_block_records, [
            (path, skip, n_vertices, vdtype),
            (path, skip + n_vertices, n_faces, _ASCII_FACE_DTYPE)])
        now = os.stat(path)
    except OSError:  # the stat, or a worker that could not be forked or was lost
        return None
    if (table is None or faces is None
            or any(getattr(now, k) != getattr(opened, k)
                   for k in ("st_dev", "st_ino", "st_size", "st_mtime_ns"))):
        return None
    return table, faces


def _read_ply_ascii(path, data: bytes, opened, body: memoryview, n_vertices, n_faces, vprops,
                    line0):
    """Vertex then face records of an ASCII body whose first line is ``line0``.

    ``_plain_ascii_records`` reads them from the file when it can; otherwise
    ``_ascii_body_records`` parses ``data``.
    """
    vdtype = _vertex_dtype(vprops, binary=False)
    table, faces = (
        _plain_ascii_records(path, data, opened, line0 - 1, n_vertices, n_faces, vdtype)
        or _ascii_body_records(path, body, n_vertices, n_faces, vdtype, line0))
    return (*_vertex_arrays(table, vprops), faces)


def _ascii_body_records(path, body, n_vertices, n_faces, vdtype, line0):
    """(vertex table, faces) from the lines of the whole body, or the
    ParseError of its first bad line."""
    lines = str(body, "ascii", "replace").splitlines()
    if len(lines) < n_vertices + n_faces:
        raise ParseError(
            f"expected {n_vertices + n_faces} body lines, found {len(lines)}", path=path
        )

    vlines = lines[:n_vertices]
    table = _ascii_records(vlines, vdtype)
    if table is None:
        i = _first_bad_line(vlines, lambda block: _ascii_records(block, vdtype) is not None)
        nfields = len(vlines[i].split())
        if nfields != len(vdtype):
            raise ParseError(f"vertex record has {nfields} fields, expected {len(vdtype)}",
                             path=path, line=line0 + i)
        raise ParseError("bad numeric field in vertex record", path=path, line=line0 + i)

    flines = lines[n_vertices:n_vertices + n_faces]
    frows = _face_records(flines)
    if frows is None:
        i = _first_bad_line(flines, lambda block: _face_records(block) is not None)
        tok = flines[i].split()
        message = "bad face index"
        if not tok or tok[0] != "3" or len(tok) != 4:
            message = "face record must be `3 i j k`"
        raise ParseError(message, path=path, line=line0 + n_vertices + i)
    return table, frows["i"]


def _read_ply_binary(path, body: memoryview, n_vertices, n_faces, vprops):
    vdtype = _vertex_dtype(vprops, binary=True)
    need = vdtype.itemsize * n_vertices
    if len(body) < need:
        raise ParseError("truncated vertex data", path=path)
    table = np.frombuffer(body, dtype=vdtype, count=n_vertices)
    complete = min(n_faces, (len(body) - need) // _PLY_FACE_DTYPE.itemsize)
    frows = np.frombuffer(body, dtype=_PLY_FACE_DTYPE, count=complete, offset=need)
    bad = np.nonzero(frows["n"] != 3)[0]
    if bad.size:
        i = int(bad[0])
        raise ParseError(
            f"face {i} has {frows['n'][i]} vertices, only triangles supported", path=path
        )
    if complete < n_faces:
        raise ParseError("truncated face data", path=path)
    return (*_vertex_arrays(table, vprops), frows["i"].astype(np.int64))


# ---------------------------------------------------------------------------
# writing


def write_mesh(mesh: TexturedMesh, path, fmt: str = "ply") -> None:
    """Write a mesh; ``fmt`` is ``ply`` (canonical ascii), ``ply-binary`` or ``obj``.

    An invalid mesh is refused with InvariantError before anything is
    written; the file is replaced atomically (``fileio.write_atomic``).
    """
    path = Path(path)
    if fmt not in ("ply", "ply-binary", "obj"):
        raise ValueError(f"unsupported write format {fmt!r}")
    report = validate_mesh(mesh)
    if not report.ok:
        raise InvariantError(f"{path}: refusing to write an invalid mesh: {report}")
    write_atomic(path, _obj_bytes(mesh) if fmt == "obj" else _ply_bytes(mesh, fmt == "ply-binary"))


def _ply_bytes(mesh: TexturedMesh, binary: bool) -> bytes:
    """Header, one ``_vertex_dtype`` record per vertex, one face record per face."""
    columns = [mesh.vertices, np.clip(np.floor(mesh.colors * 255 + 0.5), 0, 255)]
    if mesh.uv is not None:
        columns.append(mesh.uv)
    values = np.hstack(columns)
    vprops = list(_PLY_VERTEX_PROPS)[: values.shape[1]]
    table = np.empty(mesh.n_vertices, dtype=_vertex_dtype(vprops, binary=True))
    for j, column in enumerate(values.T):
        table[f"p{j}"] = column
    header = "\n".join([
        "ply",
        f"format {'binary_little_endian' if binary else 'ascii'} 1.0",
        f"element vertex {mesh.n_vertices}",
        *(f"property {_PLY_VERTEX_PROPS[p]} {p}" for p in vprops),
        f"element face {mesh.n_faces}",
        "property list uchar int32 vertex_indices",
        "end_header\n",
    ]).encode("ascii")
    if binary:
        faces = np.empty(mesh.n_faces, dtype=_PLY_FACE_DTYPE)
        faces["n"], faces["i"] = 3, mesh.faces
        return header + table.tobytes() + faces.tobytes()
    row = " ".join("%.9g" if _PLY_VERTEX_PROPS[p] == "float" else "%d" for p in vprops) + "\n"
    rows = [row % r for r in table.tolist()]
    rows += ["3 %d %d %d\n" % tuple(f) for f in mesh.faces.tolist()]
    return header + "".join(rows).encode("ascii")


def _obj_bytes(mesh: TexturedMesh) -> bytes:
    """``v x y z r g b`` per vertex; then ``vt u v`` and ``f i/i ..`` with uv, else ``f i ..``."""
    values = np.hstack([mesh.vertices, mesh.colors]).astype(np.float32)
    rows = ["v %.9g %.9g %.9g %.9g %.9g %.9g\n" % tuple(r) for r in values.tolist()]
    faces = (mesh.faces + 1).tolist()
    if mesh.uv is None:
        rows += ["f %d %d %d\n" % tuple(f) for f in faces]
    else:
        rows += ["vt %.9g %.9g\n" % tuple(r) for r in mesh.uv.astype(np.float32).tolist()]
        rows += ["f %d/%d %d/%d %d/%d\n" % (a, a, b, b, c, c) for a, b, c in faces]
    return "".join(rows).encode("ascii")
