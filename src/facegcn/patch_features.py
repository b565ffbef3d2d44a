"""kNN patches around landmarks and per-sequence feature tensors.

Each landmark gets a patch of its k nearest mesh vertices, found by an exact
brute-force kNN with (d², index) tie order; the patch is one column of 6k
channels (relative xyz + rgb per neighbor, ordered by ascending distance). A
sequence of frames becomes one float32 tensor of shape (6k, J, T).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import EmptyMesh, InconsistentLandmarks, InvariantError, ParseError
from .fileio import write_atomic
from .mesh_core import TexturedMesh

if TYPE_CHECKING:
    from .landmark_engine import LandmarkSet


class KdIndex:
    """Exact k-nearest-neighbor index over a fixed 3D point set.

    Queries return exactly min(k, N) distinct point indices sorted by
    ascending (squared distance, index); equidistant points therefore come
    back in ascending index order. Each query is an exact brute-force scan:
    squared distances to every point, a partition to find the k-th, then a
    (d², index) sort of the points at or below it. The distances are summed
    column-wise, (dx² + dy²) + dz², over a (3, N) copy of the points: the
    same doubles as the (N, 3) row sum, in a fraction of its time.
    """

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
        if points.shape[0] == 0:
            raise EmptyMesh("cannot index zero points")
        if not np.isfinite(points).all():
            raise InvariantError("non-finite coordinates in point set")
        self.n = points.shape[0]
        self._columns = np.ascontiguousarray(points.T)

    def k_nearest(self, query, k: int) -> np.ndarray:
        """Indices of the k nearest points to ``query`` (fewer if N < k)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(query, dtype=np.float64).reshape(3)
        if not np.isfinite(q).all():
            raise InvariantError("non-finite query coordinates")
        k = min(k, self.n)
        x, y, z = self._columns
        d2 = x - q[0]
        d2 *= d2
        t = y - q[1]
        t *= t
        d2 += t
        np.subtract(z, q[2], out=t)
        t *= t
        d2 += t
        kth = np.partition(d2, k - 1)[k - 1]
        cand = np.nonzero(d2 <= kth)[0]
        return cand[np.lexsort((cand, d2[cand]))[:k]]


def build_kd_index(mesh: TexturedMesh) -> KdIndex:
    if mesh.n_vertices == 0:
        raise EmptyMesh("mesh has no vertices")
    return KdIndex(mesh.vertices)


def extract_patch(
    index: KdIndex, mesh: TexturedMesh, landmark, k: int, scale_normalize: bool = False
) -> np.ndarray:
    """The landmark's (6k,) float32 channel column: [rel xyz, rgb] per neighbor rank.

    Neighbors are the k nearest vertices in KdIndex order. Meshes with fewer
    than k vertices repeat the last neighbor to pad, so the channel count
    stays fixed at 6k. With scale_normalize the relative positions are
    divided by the largest neighbor distance (default off: raw
    landmark-relative coordinates).
    """
    idx = index.k_nearest(landmark.position, k)
    if idx.shape[0] < k:
        idx = np.concatenate([idx, np.full(k - idx.shape[0], idx[-1], dtype=np.int64)])
    rel = mesh.vertices[idx] - landmark.position
    if scale_normalize:
        scale = float(np.sqrt((rel * rel).sum(axis=1)).max())
        if scale > 0.0:
            rel = rel / scale
    return np.concatenate([rel, mesh.colors[idx]], axis=1).reshape(-1).astype(np.float32)


@dataclass(frozen=True)
class FeatureTensor:
    """Per-sequence features, float32, laid out (C, J, T) with C = 6k."""

    values: np.ndarray  # (C, J, T) float32
    k: int
    landmark_hash: int

    @property
    def C(self) -> int:
        return self.values.shape[0]

    @property
    def J(self) -> int:
        return self.values.shape[1]

    @property
    def T(self) -> int:
        return self.values.shape[2]

    def validate(self) -> None:
        if self.values.ndim != 3 or self.values.dtype != np.float32:
            raise InvariantError("feature tensor must be float32 with shape (C, J, T)")
        if self.C != 6 * self.k:
            raise InvariantError(f"C={self.C} != 6*k with k={self.k}")
        if not np.isfinite(self.values).all():
            raise InvariantError("non-finite feature values")


def build_sequence_tensor(
    frames: Sequence[tuple[TexturedMesh, "LandmarkSet"]], k: int, scale_normalize: bool = False
) -> FeatureTensor:
    """Stack per-landmark patch channels over all frames into (6k, J, T).

    All frames must agree on landmark count and logical ordering; the
    ordering hash is stored in the tensor metadata.
    """
    if not frames:
        raise InconsistentLandmarks("no frames given")
    _, lm0 = frames[0]
    j_count = len(lm0)
    lm_hash = lm0.ordering_hash()
    for t, (_, lms) in enumerate(frames):
        if len(lms) != j_count or lms.ordering_hash() != lm_hash:
            raise InconsistentLandmarks(f"frame {t} disagrees on landmark ordering")

    values = np.empty((6 * k, j_count, len(frames)), dtype=np.float32)
    for t, (mesh, lms) in enumerate(frames):
        index = build_kd_index(mesh)
        for j, lm in enumerate(lms):
            values[:, j, t] = extract_patch(index, mesh, lm, k, scale_normalize=scale_normalize)
    tensor = FeatureTensor(values=values, k=k, landmark_hash=lm_hash)
    tensor.validate()
    return tensor


# ---------------------------------------------------------------------------
# FGT1 tensor cache: magic, u32 C/J/T/k, u64 ordering hash, C*J*T f32 LE

_FGT1_MAGIC = b"FGT1"
_FGT1_HEADER = struct.Struct("<4sIIIIQ")


def save_tensor(tensor: FeatureTensor, path) -> None:
    tensor.validate()
    header = _FGT1_HEADER.pack(
        _FGT1_MAGIC, tensor.C, tensor.J, tensor.T, tensor.k, tensor.landmark_hash
    )
    payload = np.ascontiguousarray(tensor.values, dtype="<f4").tobytes()
    write_atomic(path, header + payload)


def load_tensor(path) -> FeatureTensor:
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _FGT1_HEADER.size:
        raise ParseError("truncated FGT1 header", path=path)
    magic, c, j, t, k, lm_hash = _FGT1_HEADER.unpack_from(data, 0)
    if magic != _FGT1_MAGIC:
        raise ParseError(f"bad magic {magic!r}", path=path)
    need = _FGT1_HEADER.size + 4 * c * j * t
    if len(data) != need:
        raise ParseError(f"payload size {len(data)} != expected {need}", path=path)
    values = np.frombuffer(data, dtype="<f4", offset=_FGT1_HEADER.size).reshape(c, j, t)
    tensor = FeatureTensor(values=values.astype(np.float32), k=k, landmark_hash=lm_hash)
    tensor.validate()
    return tensor
