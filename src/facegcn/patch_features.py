"""kNN patches around landmarks and per-sequence feature tensors.

Each landmark gets a patch of its k nearest mesh vertices, found by an exact
kNN with (d², index) tie order (brute force over a window of x-sorted
points that provably holds the answer, or over the whole set when that
window would hold a quarter of it); the patch is one column of 6k
channels (relative xyz + rgb per neighbor, ordered by ascending distance). A
sequence of frames becomes one float32 tensor of shape (6k, J, T).
"""

from __future__ import annotations

import mmap
import struct
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    back in ascending index order. Every squared distance is summed
    column-wise, (dx² + dy²) + dz², over a (3, N) copy of the points: the
    same doubles as the (N, 3) row sum, in a fraction of its time.

    A query is answered from a window of w consecutive points in x order,
    w the power of two at or above 2·√(kN), so k ≤ w: a partition finds the
    window's k-th squared distance. Rounding is monotone and
    fl((dx² + dy²) + dz²) ≥ fl(dx²), so a point outside the window is at
    least fl(x − qx)² from the query, and that grows away from it on each
    side. When the nearest outside point on each side has fl(x − qx)²
    strictly above the k-th, every outside point is strictly farther than
    the k-th, and the window holds the exact answer with its ties. Rows that
    fail this run again with w doubled. Once the window would hold a quarter
    of the set or more, the rows run one pass over all N points instead,
    which always covers; a set that never needs a window (every desk frame:
    N = 576, k = 25) is never sorted or gathered. The x order is one stable
    argsort, applied to the columns in place by the first windowed query, so
    one index is not to be queried from two threads at once.
    Blocks of R rows keep R·w (R·N for the whole set) within
    ``mesh_core.BATCH_ENTRIES``, at least one row. Every (query, point) gets
    the same doubles and the same (d², index) order whatever the window or
    block, so neither changes a result.
    """

    def __init__(self, points: np.ndarray):
        points = np.ascontiguousarray(points, dtype=np.float64).reshape(-1, 3)
        if points.shape[0] == 0:
            raise EmptyMesh("cannot index zero points")
        if not np.isfinite(points).all():
            raise InvariantError("non-finite coordinates in point set")
        self.n = points.shape[0]
        # (3, N) coordinate columns, put in x order the first time a query
        # uses windows; from then on column c holds point _order[c]
        self._columns = np.ascontiguousarray(points.T)
        self._order: np.ndarray | None = None

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
        rows = np.arange(q.shape[0])
        w = 2 << ((k * self.n - 1).bit_length() + 1) // 2  # power of two >= 2·sqrt(kN)
        while rows.size and 4 * w <= self.n:
            rows = self._window_pass(q, rows, k, w, out)
            w *= 2
        if rows.size:
            self._whole_pass(q, rows, k, out)
        return out

    def _whole_pass(self, q: np.ndarray, rows: np.ndarray, k: int, out: np.ndarray) -> None:
        """Answer ``q[rows]`` into ``out[rows]`` by a scan of all N points."""
        order = self._order
        per_block = max(1, mesh_core.BATCH_ENTRIES // self.n)
        for lo in range(0, rows.size, per_block):
            block = rows[lo:lo + per_block]
            qb = q[block]
            d2 = _squared_distances(c - qb[:, a:a + 1] for a, c in enumerate(self._columns))
            _, out[block] = _rank(d2, k, lambda row, col: col if order is None else order[col])

    def _window_pass(
        self, q: np.ndarray, rows: np.ndarray, k: int, w: int, out: np.ndarray
    ) -> np.ndarray:
        """Answer ``q[rows]`` from w-point x windows; return the rows not yet final."""
        if self._order is None:
            order = np.argsort(self._columns[0], kind="stable")
            for c in self._columns:
                c[:] = c[order]  # one (N,) temporary at a time
            self._order = order
        order, xs = self._order, self._columns[0]
        # xs[i - 1] < qx <= xs[i], so xs[start - 1] < qx <= xs[start + w]
        starts = np.clip(np.searchsorted(xs, q[rows, 0]) - w // 2, 0, self.n - w)
        windows = [sliding_window_view(c, w) for c in self._columns]  # (N - w + 1, w) views
        per_block = max(1, mesh_core.BATCH_ENTRIES // w)
        pending = []
        for lo in range(0, rows.size, per_block):
            block, start = rows[lo:lo + per_block], starts[lo:lo + per_block]
            qb = q[block]
            kth, found = _rank(_squared_distances(_window_diffs(windows, start, qb)), k,
                               lambda row, col: order[start[row] + col])
            # the window is exact when the nearest outside point on each side
            # is strictly beyond the k-th by its x gap alone
            below = xs[start - 1] - qb[:, 0]  # start - 1 = -1 wraps; masked by start == 0
            above = xs[np.minimum(start + w, self.n - 1)] - qb[:, 0]
            final = (start == 0) | (below * below > kth)
            final &= (start + w == self.n) | (above * above > kth)
            out[block[final]] = found[final]
            pending.append(block[~final])
        return np.concatenate(pending)


def _window_diffs(windows, start: np.ndarray, qb: np.ndarray):
    """x − qx, y − qy, z − qz over each row's window: one gathered (R, w) array at a time."""
    for a, v in enumerate(windows):
        d = v[start]
        d -= qb[:, a:a + 1]
        yield d


def _squared_distances(diffs) -> np.ndarray:
    """(dx² + dy²) + dz², summed in place from an iterator of the (R, M) differences.

    The iterator makes each difference only when it is needed, so at most
    three (R, M) arrays are alive at once.
    """
    d2 = next(diffs)
    d2 *= d2
    for t in diffs:
        t *= t
        d2 += t
    return d2


def _rank(d2: np.ndarray, k: int, point) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k-th smallest of the (R, M) ``d2`` and its first k points by (d², index).

    ``point(row, col)`` gives the point index of the entries at (row, col).
    Returns the (R,) k-th values and the (R, k) point indices.
    """
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k].copy()  # frees the partitioned copy
    cand = np.flatnonzero(d2 <= kth)  # far faster than a 2D nonzero
    row, col = np.divmod(cand, d2.shape[1])
    points = point(row, col)
    order = np.lexsort((points, d2.reshape(-1)[cand], row))
    # every row has at least k candidates; take the first k of each
    first = np.searchsorted(row, np.arange(d2.shape[0]))
    return kth[:, 0], points[order[first[:, None] + np.arange(k)]]


def build_kd_index(mesh: TexturedMesh) -> KdIndex:
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
            raise InconsistentLandmarks(f"frame {t} disagrees on landmark ordering", frame=t)

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
_FGT1_HEADER = struct.Struct("<4sIIIIQ")  # 28 bytes: the payload stays 4-byte aligned
# Python 3.13+ can map a file without keeping a duplicate of its descriptor
_MMAP_UNTRACKED = {"trackfd": False} if sys.version_info >= (3, 13) else {}


def save_tensor(tensor: FeatureTensor, path) -> None:
    tensor.validate()
    header = _FGT1_HEADER.pack(
        _FGT1_MAGIC, tensor.C, tensor.J, tensor.T, tensor.k, tensor.landmark_hash
    )
    payload = np.ascontiguousarray(tensor.values, dtype="<f4").tobytes()
    write_atomic(path, header + payload)


def load_tensor(path) -> FeatureTensor:
    """The tensor in an FGT1 file, as a read-only float32 view of its mapping.

    The file is mapped read-only and checked whole before this returns
    (header, magic, payload size, ``FeatureTensor.validate``); then the
    mapping's pages are released, so a payload counts against the process
    only once a caller reads it. Writing to ``values`` raises ValueError.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ, **_MMAP_UNTRACKED)
        except ValueError:  # an empty file cannot be mapped
            data = b""
        except OSError as exc:  # e.g. EMFILE, which names no file
            exc.filename = str(path)
            raise
    if len(data) < _FGT1_HEADER.size:
        raise ParseError("truncated FGT1 header", path=path)
    magic, c, j, t, k, lm_hash = _FGT1_HEADER.unpack_from(data, 0)
    if magic != _FGT1_MAGIC:
        raise ParseError(f"bad magic {magic!r}", path=path)
    need = _FGT1_HEADER.size + 4 * c * j * t
    if len(data) != need:
        raise ParseError(f"payload size {len(data)} != expected {need}", path=path)
    values = np.frombuffer(data, dtype="<f4", offset=_FGT1_HEADER.size).reshape(c, j, t)
    tensor = FeatureTensor(values=values, k=k, landmark_hash=lm_hash)
    try:
        tensor.validate()
    except InvariantError as exc:
        raise ParseError(str(exc), path=path) from None
    data.madvise(mmap.MADV_DONTNEED)
    return tensor
