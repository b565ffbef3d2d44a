"""Per-row reference for ``mesh_core.validate_mesh``.

Every check builds its per-row mask and names each bad index; coincident
edge endpoints are found on all 3F raw face edges. The library answers each
check with a whole-array predicate first and screens edges through a
per-vertex key, so this is the oracle its reports must equal.
"""

import numpy as np

from facegcn.mesh_core import ValidationReport


def reference_validate_mesh(mesh) -> ValidationReport:
    report = ValidationReport()
    n = mesh.n_vertices

    finite = np.isfinite(mesh.vertices).all(axis=1)
    for i in np.nonzero(~finite)[0]:
        report.add("nan", f"vertices[{i}]", "non-finite coordinate")
    with np.errstate(over="ignore"):
        overflow = finite & np.isinf(mesh.vertices.astype(np.float32)).any(axis=1)
    for i in np.nonzero(overflow)[0]:
        report.add("range", f"vertices[{i}]", "coordinate beyond float32 range")

    for name, arr in (("colors", mesh.colors), ("uv", mesh.uv)):
        if arr is None:
            continue
        if arr.shape[0] != n:
            report.add("length", name, f"{arr.shape[0]} {name} for {n} vertices")
            continue
        ok = np.isfinite(arr).all(axis=1)
        for i in np.nonzero(~ok)[0]:
            report.add("nan", f"{name}[{i}]", "non-finite component")
        out = ok & ((arr < 0.0) | (arr > 1.0)).any(axis=1)
        for i in np.nonzero(out)[0]:
            report.add("range", f"{name}[{i}]", "component outside [0, 1]")

    f = mesh.faces
    out = ((f < 0) | (f >= n)).any(axis=1)
    repeated = ~out & ((f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2]))
    for fi in np.nonzero(out | repeated)[0]:
        if out[fi]:
            report.add("face_index", f"faces[{fi}]", f"index out of range in {tuple(f[fi].tolist())}")
        else:
            report.add("degenerate_face", f"faces[{fi}]", f"repeated vertex in {tuple(f[fi].tolist())}")

    if not out.any() and mesh.n_faces and finite.all():
        u = np.concatenate([f[:, 0], f[:, 1], f[:, 0]])
        v = np.concatenate([f[:, 1], f[:, 2], f[:, 2]])
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        hit = np.nonzero(lo != hi)[0]
        for c in range(3):
            col = mesh.vertices[:, c]
            hit = hit[col[lo[hit]] == col[hi[hit]]]
        pairs = np.unique(np.stack([lo[hit], hi[hit]], axis=1), axis=0)
        for u, v in pairs.tolist():
            report.add("degenerate_edge", f"edge({u},{v})", "coincident endpoint positions")
    return report


def triples(report: ValidationReport) -> list[tuple[str, str, str]]:
    return [(v.kind, v.where, v.detail) for v in report.violations]
