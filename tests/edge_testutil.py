"""Test helpers for ``EdgeGraph``: its undirected edge list, and a reference build.

Tests that check edges one at a time read the edge list back from the CSR
in place of a second edge representation in the library.
"""

import numpy as np

from facegcn.errors import InvariantError
from facegcn.mesh_core import EdgeGraph


def undirected_edges(graph):
    """Each edge once, as (E, 2) rows u < v in lexicographic order, and its (E,) weights.

    Rows of the CSR are in vertex order and each row lists its targets in
    ascending order among those above the row vertex, so the u < v entries
    come out sorted.
    """
    rows = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    upper = rows < graph.targets
    return np.stack([rows[upper], graph.targets[upper]], axis=1), graph.weights_csr[upper]


def reference_edge_graph(mesh):
    """The one-frame edge graph built directly, as ``build_edge_graph`` once did.

    Unique pairs from ``np.unique`` over sorted face-edge rows, weights as
    the (E, 3) row sum of squared deltas, and one stable CSR sort; the
    library's shared-topology build must give the same bytes.
    """
    n = mesh.n_vertices
    faces = mesh.faces
    if faces.size and (faces.min() < 0 or faces.max() >= n):
        raise InvariantError(f"face index out of range for {n} vertices")
    if not np.isfinite(mesh.vertices).all():
        raise InvariantError("non-finite vertex coordinates")

    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    pairs = np.unique(np.sort(edges, axis=1), axis=0).reshape(-1, 2)
    deltas = mesh.vertices[pairs[:, 0]] - mesh.vertices[pairs[:, 1]]
    weights = np.sqrt((deltas * deltas).sum(axis=1))
    if (weights <= 0.0).any():
        bad = int(np.nonzero(weights <= 0.0)[0][0])
        raise InvariantError(
            f"zero-length edge between vertices {(int(pairs[bad, 0]), int(pairs[bad, 1]))}: "
            "coincident positions are not usable for geodesics"
        )

    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
    w2 = np.concatenate([weights, weights])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return EdgeGraph(n_nodes=n, indptr=indptr, targets=dst[order], weights_csr=w2[order])
