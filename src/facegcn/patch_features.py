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

from . import mesh_core
from .errors import EmptyMesh, InconsistentLandmarks, InvariantError, ParseError
from .fileio import write_atomic
from .mesh_core import TexturedMesh

if TYPE_CHECKING:
    from .landmark_engine import LandmarkSet


class KdIndex:
    """Exact k-nearest-neighbor index over a fixed 3D point set.

    Queries return exactly min(k, N) distinct point indices sorted by
    ascending (squared distance, index); equidistant points therefore come
    back in ascending index order. Queries are answered in blocks of R rows
    with R * N within ``mesh_core.BATCH_ENTRIES`` (at least one row): an exact
    brute-force scan builds the block's (R, N) squared distances, a
    partition finds each row's k-th, then one (row, d², index) sort orders
    the points at or below it. The distances are summed column-wise,
    (dx² + dy²) + dz², over a (3, N) copy of the points: the same doubles as
    the (N, 3) row sum, in a fraction of its time, and the same whatever the
    block size, so batching leaves every result unchanged.
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
        return self.k_nearest_many(np.asarray(query, dtype=np.float64).reshape(1, 3), k)[0]

    def k_nearest_many(self, queries, k: int) -> np.ndarray:
        """(R, min(k, N)) indices: row r lists the nearest points to ``queries[r]``."""
        if k < 1:
            raise ValueError("k must be >= 1")
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        if not np.isfinite(q).all():
            raise InvariantError("non-finite query coordinates")
        k = min(k, self.n)
        out = np.empty((q.shape[0], k), dtype=np.int64)
        per_block = max(1, mesh_core.BATCH_ENTRIES // self.n)
        x, y, z = self._columns
        for lo in range(0, q.shape[0], per_block):
            block = q[lo:lo + per_block]
            d2 = x - block[:, 0:1]
            d2 *= d2
            t = y - block[:, 1:2]
            t *= t
            d2 += t
            np.subtract(z, block[:, 2:3], out=t)
            t *= t
            d2 += t
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
            cand = np.flatnonzero(d2 <= kth)  # far faster than a 2D nonzero
            row, col = np.divmod(cand, self.n)
            order = np.lexsort((col, d2.reshape(-1)[cand], row))
            # every row has at least k candidates; take the first k of each
            first = np.searchsorted(row, np.arange(block.shape[0]))
            out[lo:lo + per_block] = col[order[first[:, None] + np.arange(k)]]
        return out


def build_kd_index(mesh: TexturedMesh) -> KdIndex:
    if mesh.n_vertices == 0:
        raise EmptyMesh("mesh has no vertices")
    return KdIndex(mesh.vertices)


def _patch_columns(
    index: KdIndex, mesh: TexturedMesh, positions: np.ndarray, k: int, scale_normalize: bool
) -> np.ndarray:
    """(R, 6k) float32 channel columns of the landmarks at ``positions`` (R, 3)."""
    positions = positions.reshape(-1, 3)
    idx = index.k_nearest_many(positions, k)
    if idx.shape[1] < k:
        idx = np.concatenate([idx, np.repeat(idx[:, -1:], k - idx.shape[1], axis=1)], axis=1)
    rel = mesh.vertices[idx] - positions[:, None, :]
    if scale_normalize:
        scale = np.sqrt((rel * rel).sum(axis=2)).max(axis=1)
        rel = rel / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    cols = np.concatenate([rel, mesh.colors[idx]], axis=2)
    return cols.reshape(len(positions), 6 * k).astype(np.float32)


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
    position = np.asarray(landmark.position, dtype=np.float64).reshape(1, 3)
    return _patch_columns(index, mesh, position, k, scale_normalize)[0]


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
        if min(self.k, self.J, self.T) < 1:
            raise InvariantError(f"empty feature tensor: k={self.k}, J={self.J}, T={self.T}")
        if self.C != 6 * self.k:
            raise InvariantError(f"C={self.C} != 6*k with k={self.k}")
        if not np.isfinite(self.values).all():
            raise InvariantError("non-finite feature values")


def build_sequence_tensor(
    frames: Sequence[tuple[TexturedMesh, "LandmarkSet"]], k: int, scale_normalize: bool = False
) -> FeatureTensor:
    """Stack per-landmark patch channels over all frames into (6k, J, T).

    All frames must agree on landmark count and logical ordering (the base
    count and augmentation sources, what the ordering hash covers); the
    first frame's ordering hash is stored in the tensor metadata.
    """
    if not frames:
        raise InconsistentLandmarks("no frames given")
    _, lm0 = frames[0]
    j_count = len(lm0)
    for t, (_, lms) in enumerate(frames):
        if lms.n_base != lm0.n_base or not np.array_equal(lms.sources, lm0.sources):
            raise InconsistentLandmarks(f"frame {t} disagrees on landmark ordering")

    values = np.empty((6 * k, j_count, len(frames)), dtype=np.float32)
    for t, (mesh, lms) in enumerate(frames):
        values[:, :, t] = _patch_columns(
            build_kd_index(mesh), mesh, lms.positions, k, scale_normalize
        ).T
    tensor = FeatureTensor(values=values, k=k, landmark_hash=lm0.ordering_hash())
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
    try:
        tensor.validate()
    except InvariantError as exc:
        raise ParseError(str(exc), path=path) from None
    return tensor
