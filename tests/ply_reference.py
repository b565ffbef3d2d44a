"""Per-record PLY body readers: the reference the array readers are checked against.

They read one vertex or face record at a time, into a dict per record, and
raise the same ParseErrors (message and body line number) as
``mesh_core.load_mesh``.
"""

import struct

import numpy as np

from facegcn.errors import ParseError

_KIND = {"x": "f", "y": "f", "z": "f", "red": "u", "green": "u", "blue": "u", "u": "f", "v": "f"}


def _f32(text: str) -> float:
    return float(np.float32(text))


def read_ply_ascii(path, body: bytes, n_vertices, n_faces, vprops, line0=1):
    lines = body.decode("ascii", errors="replace").splitlines()
    if len(lines) < n_vertices + n_faces:
        raise ParseError(
            f"expected {n_vertices + n_faces} body lines, found {len(lines)}", path=path
        )
    verts = np.zeros((n_vertices, 3))
    cols = np.zeros((n_vertices, 3))
    uv = np.zeros((n_vertices, 2))
    for i in range(n_vertices):
        tok = lines[i].split()
        if len(tok) != len(vprops):
            raise ParseError(f"vertex record has {len(tok)} fields, expected {len(vprops)}",
                             path=path, line=line0 + i)
        try:
            vals = {name: tok[j] for j, name in enumerate(vprops)}
            verts[i] = (_f32(vals["x"]), _f32(vals["y"]), _f32(vals["z"]))
            if "red" in vals:
                cols[i] = (int(vals["red"]) / 255.0, int(vals["green"]) / 255.0,
                           int(vals["blue"]) / 255.0)
            if "u" in vals:
                uv[i] = (_f32(vals["u"]), _f32(vals["v"]))
        except ValueError:
            raise ParseError("bad numeric field in vertex record", path=path, line=line0 + i)
    faces = np.zeros((n_faces, 3), dtype=np.int64)
    for i in range(n_faces):
        tok = lines[n_vertices + i].split()
        if not tok or tok[0] != "3" or len(tok) != 4:
            raise ParseError("face record must be `3 i j k`", path=path,
                             line=line0 + n_vertices + i)
        try:
            faces[i] = [int(t) for t in tok[1:]]
        except ValueError:
            raise ParseError("bad face index", path=path, line=line0 + n_vertices + i)
    return verts, cols, uv, faces


def read_ply_binary(path, body: bytes, n_vertices, n_faces, vprops):
    fmt = "<" + "".join("f" if _KIND[p] == "f" else "B" for p in vprops)
    rec = struct.Struct(fmt)
    need = rec.size * n_vertices
    if len(body) < need:
        raise ParseError("truncated vertex data", path=path)
    verts = np.zeros((n_vertices, 3))
    cols = np.zeros((n_vertices, 3))
    uv = np.zeros((n_vertices, 2))
    for i in range(n_vertices):
        vals = dict(zip(vprops, rec.unpack_from(body, i * rec.size)))
        verts[i] = (vals["x"], vals["y"], vals["z"])
        if "red" in vals:
            cols[i] = (vals["red"] / 255.0, vals["green"] / 255.0, vals["blue"] / 255.0)
        if "u" in vals:
            uv[i] = (vals["u"], vals["v"])
    faces = np.zeros((n_faces, 3), dtype=np.int64)
    off = need
    frec = struct.Struct("<Biii")
    for i in range(n_faces):
        if off + frec.size > len(body):
            raise ParseError("truncated face data", path=path)
        cnt, a, b, c = frec.unpack_from(body, off)
        if cnt != 3:
            raise ParseError(f"face {i} has {cnt} vertices, only triangles supported", path=path)
        faces[i] = (a, b, c)
        off += frec.size
    return verts, cols, uv, faces
