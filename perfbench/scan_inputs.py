"""Seeded raw scan frames for the scan-ingest workload.

The generator is the benchmark's own code, so its output depends only on the
seed: a 200 x 200 vertex dome (40 000 vertices, 79 202 faces) with a smooth
seeded displacement, a per-vertex color texture, uv coordinates, and 68 uv
landmarks in the usual face layout (jaw, brows, nose, eyes, mouth). Frames of
one sequence differ by a mouth/eye bump that grows with time. Files are ASCII
PLY (x y z red green blue u v) plus one `u v` line per landmark (.lm2).
"""

from __future__ import annotations

import numpy as np

GRID = 200
N_LANDMARKS = 68


def _faces(n: int) -> np.ndarray:
    idx = np.arange(n * n).reshape(n, n)
    a, b = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel()
    c, d = idx[:-1, 1:].ravel(), idx[1:, 1:].ravel()
    return np.concatenate([np.stack([a, b, c], 1), np.stack([b, d, c], 1)])


def _landmark_layout() -> np.ndarray:
    """68 (u, v) points: jaw 0-16, brows 17-26, nose 27-35, eyes 36-47, mouth 48-67."""
    pts = []
    ang = np.linspace(np.pi * 1.05, np.pi * 1.95, 17)  # jaw: lower arc
    pts += [(0.5 + 0.36 * np.cos(a), 0.55 + 0.40 * np.sin(a)) for a in ang]
    for cx in (0.33, 0.67):  # brows
        pts += [(cx + dx, 0.78 + 0.02 * np.cos(dx * 20)) for dx in np.linspace(-0.09, 0.09, 5)]
    pts += [(0.5, v) for v in np.linspace(0.72, 0.52, 4)]  # nose bridge
    pts += [(u, 0.46) for u in np.linspace(0.43, 0.57, 5)]  # nostrils
    for cx in (0.35, 0.65):  # eyes: 6 points on an ellipse
        pts += [(cx + 0.06 * np.cos(a), 0.66 + 0.025 * np.sin(a))
                for a in np.linspace(np.pi, -np.pi, 6, endpoint=False)]
    pts += [(0.5 + 0.12 * np.cos(a), 0.32 + 0.05 * np.sin(a))  # outer lip
            for a in np.linspace(np.pi, -np.pi, 12, endpoint=False)]
    pts += [(0.5 + 0.07 * np.cos(a), 0.32 + 0.02 * np.sin(a))  # inner lip
            for a in np.linspace(np.pi, -np.pi, 8, endpoint=False)]
    out = np.array(pts, dtype=np.float64)
    assert out.shape == (N_LANDMARKS, 2)
    return out


def make_frame(seed: int, t: int, n_frames: int):
    """(ply_text, lm2_text) of frame t of the seeded sequence."""
    rng = np.random.default_rng([seed, 0x5CA9])
    lin = np.linspace(0.0, 1.0, GRID)
    u, v = np.meshgrid(lin, lin, indexing="ij")
    su, sv = 2 * u - 1, 2 * v - 1
    z = 0.8 * np.sqrt(np.clip(1 - su**2 - sv**2, 0, None))
    for _ in range(4):
        amp, fu, fv, pu, pv = rng.uniform(-0.05, 0.05), *rng.integers(1, 4, 2), *rng.uniform(0, 6.28, 2)
        z += amp * np.cos(2 * np.pi * fu * u + pu) * np.cos(2 * np.pi * fv * v + pv)
    env = np.sin(np.pi * t / max(n_frames - 1, 1)) ** 2
    for cu, cv in ((0.5, 0.32), (0.35, 0.66), (0.65, 0.66)):
        z += env * 0.03 * np.exp(-((u - cu) ** 2 + (v - cv) ** 2) / 0.01)
    xyz = np.stack([su, 1.3 * sv, z], -1).reshape(-1, 3).astype(np.float32)
    tex = rng.uniform(0, 1, (8, 8, 3))
    rgb = np.round(255 * tex[(u * 7.999).astype(int), (v * 7.999).astype(int)]).reshape(-1, 3)
    uvs = np.stack([u, v], -1).reshape(-1, 2).astype(np.float32)

    verts = np.concatenate([xyz, rgb.astype(np.float32), uvs], axis=1)
    lines = [
        "ply", "format ascii 1.0", f"element vertex {GRID * GRID}",
        "property float x", "property float y", "property float z",
        "property uchar red", "property uchar green", "property uchar blue",
        "property float u", "property float v",
        f"element face {2 * (GRID - 1) ** 2}", "property list uchar int32 vertex_indices",
        "end_header",
    ]
    fmt = "%.9g %.9g %.9g %d %d %d %.9g %.9g"
    body = [fmt % tuple(row) for row in verts.tolist()]
    body += ["3 %d %d %d" % tuple(f) for f in _faces(GRID).tolist()]
    ply = "\n".join(lines + body) + "\n"

    lm = _landmark_layout() + np.random.default_rng([seed, 0x1A2D]).uniform(-0.004, 0.004, (N_LANDMARKS, 2))
    lm2 = "".join("%.6f %.6f\n" % (a, b) for a, b in lm)
    return ply, lm2
