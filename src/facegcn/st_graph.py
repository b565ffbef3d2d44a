"""Spatial landmark graph, partition labels, normalized adjacency stack.

The J landmarks of a sequence form an undirected graph; each ordered pair
(i, j in B_i) carries a partition label selecting a weight matrix in the
graph convolution. The network consumes the stack of P normalized matrices
M_p = D^{-1/2} (A_p + I_p) D^{-1/2}, where the degree D comes from the full
A + I so the stack sums consistently across partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidPair, ParseError, UnknownId
from .fileio import read_text, write_atomic

UNIFORM = "uniform"
DISTANCE = "distance"


@dataclass(frozen=True)
class SpatialGraph:
    adjacency: np.ndarray  # (J, J) int8, symmetric, zero diagonal

    @property
    def J(self) -> int:
        return self.adjacency.shape[0]


@dataclass(frozen=True)
class PartitionLabels:
    """Label in 0..P-1 for every ordered pair (i, j in B_i); -1 elsewhere."""

    P: int
    strategy: str
    labels: np.ndarray  # (J, J) int8


def _graph_from_adjacency(a: np.ndarray) -> SpatialGraph:
    a = np.asarray(a, dtype=np.int8)
    np.fill_diagonal(a, 0)
    a = np.maximum(a, a.T)
    a.flags.writeable = False
    return SpatialGraph(adjacency=a)


def build_spatial_edges(
    landmarks,
    strategy: str = "knn",
    knn_m: int = 4,
    template_pairs: Sequence[tuple[int, int]] | None = None,
) -> SpatialGraph:
    """Connect landmarks spatially.

    knn: edge (i, j) iff j is among i's m nearest landmarks by 3D distance
    (first-frame positions) or vice versa. template: the configured id
    pairs, plus for each augmented landmark edges to its two source ids.
    """
    j_count = len(landmarks)
    a = np.zeros((j_count, j_count), dtype=np.int8)
    if strategy == "knn":
        if knn_m < 1:
            raise ValueError("knn_m must be >= 1")
        if j_count > 1:
            pos = landmarks.positions
            d2 = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)
            np.fill_diagonal(d2, np.inf)
            # stable: equal distances keep index order, the (d2, j) tie rule
            order = np.argsort(d2, axis=1, kind="stable")[:, : min(knn_m, j_count - 1)]
            np.put_along_axis(a, order, 1, axis=1)
    elif strategy == "template":
        for p, q in template_pairs or []:
            p, q = int(p), int(q)
            if not (0 <= p < j_count and 0 <= q < j_count):
                raise UnknownId(f"template pair ({p}, {q}) names an unknown landmark id")
            if p == q:
                raise InvalidPair(f"template pair ({p}, {p}) would be a self-loop")
            a[p, q] = 1
        a[np.arange(landmarks.n_base, j_count)[:, None], landmarks.sources] = 1
    else:
        raise ValueError(f"unknown edge strategy {strategy!r}")
    return _graph_from_adjacency(a)


def partition(graph: SpatialGraph, strategy: str = DISTANCE) -> PartitionLabels:
    """Assign each (i, j in B_i) pair to a weight subset.

    uniform: single subset. distance: subset 0 is the root (i == j),
    subset 1 the distance-1 neighbors.
    """
    j_count = graph.J
    labels = np.full((j_count, j_count), -1, dtype=np.int8)
    in_b = (graph.adjacency > 0) | np.eye(j_count, dtype=bool)
    if strategy == UNIFORM:
        p = 1
        labels[in_b] = 0
    elif strategy == DISTANCE:
        p = 2
        labels[in_b] = 1
        np.fill_diagonal(labels, 0)
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    labels.flags.writeable = False
    return PartitionLabels(P=p, strategy=strategy, labels=labels)


def normalize_adjacency(graph: SpatialGraph, labels: PartitionLabels) -> np.ndarray:
    """Read-only (P, J, J) float64 stack of D^{-1/2} (A_p + I_p) D^{-1/2}.

    The degree D_ii = sum_j (A + I)_ij uses the full unpartitioned matrix,
    so the masked matrices sum back to the normalization of A + I exactly.
    """
    j_count = graph.J
    a_plus_i = graph.adjacency.astype(np.float64) + np.eye(j_count)
    degree = a_plus_i.sum(axis=1)  # >= 1 always: the self loop
    inv_sqrt = 1.0 / np.sqrt(degree)
    scale = np.outer(inv_sqrt, inv_sqrt)
    stack = np.empty((labels.P, j_count, j_count), dtype=np.float64)
    for p in range(labels.P):
        stack[p] = np.where(labels.labels == p, a_plus_i, 0.0) * scale
    stack.flags.writeable = False
    return stack


# ---------------------------------------------------------------------------
# FGG1 graph cache: `FGG1 J P strategy` header, then one `i j label` line
# per labeled ordered pair in row-major order


def _render(graph: SpatialGraph, labels: PartitionLabels) -> list[str]:
    """The lines of the FGG1 file for (graph, labels), header first."""
    rows, cols = np.nonzero(labels.labels >= 0)
    pairs = zip(rows.tolist(), cols.tolist(), labels.labels[rows, cols].tolist())
    return [f"FGG1 {graph.J} {labels.P} {labels.strategy}"] + [f"{i} {j} {l}" for i, j, l in pairs]


def save_graph(graph: SpatialGraph, labels: PartitionLabels, path) -> None:
    write_atomic(path, ("\n".join(_render(graph, labels)) + "\n").encode("ascii"))


def load_graph(path) -> tuple[SpatialGraph, PartitionLabels]:
    """Read an FGG1 file: the adjacency comes from its `i != j` lines.

    The labels are `partition(graph, strategy)`, and the file's non-blank
    lines must be exactly what `save_graph` writes for them, so a duplicated
    or missing pair, a wrong label or a P that disagrees with the strategy is
    a ParseError naming the first differing line.
    """
    path = Path(path)
    lines = read_text(path, "ascii").splitlines()
    if not lines:
        raise ParseError("empty graph cache", path=path)
    head = lines[0].split()
    # a valid file has a root line per node, so J < len(lines) bounds the arrays
    if (len(head) != 4 or head[0] != "FGG1" or not head[1].isdigit()
            or not 1 <= int(head[1]) < len(lines)):
        raise ParseError("bad FGG1 header", path=path, line=1)
    j_count = int(head[1])
    body = [(n, line.split()) for n, line in enumerate(lines[1:], start=2) if line.strip()]
    a = np.zeros((j_count, j_count), dtype=np.int8)
    for lineno, tok in body:
        try:
            i, j = map(int, tok[:2])
        except ValueError:
            raise ParseError("expected `i j label`", path=path, line=lineno)
        if not (0 <= i < j_count and 0 <= j < j_count):
            raise ParseError("pair out of range", path=path, line=lineno)
        if i != j:
            a[i, j] = 1
    graph = _graph_from_adjacency(a)
    try:
        labels = partition(graph, head[3])
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=1)
    found = [(1, head)] + body + [(len(lines) + 1, None)]
    expected = [line.split() for line in _render(graph, labels)] + [None]
    for (lineno, tok), want in zip(found, expected):
        if tok != want:
            where = "header" if lineno == 1 else "line"
            what = "end of file" if want is None else f"`{' '.join(want)}`"
            raise ParseError(f"{where} differs from the saved {head[3]} partition of this "
                             f"graph: expected {what}", path=path, line=lineno)
    return graph, labels
