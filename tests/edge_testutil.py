"""The undirected edge list of an ``EdgeGraph``, read back from its CSR.

Tests that check edges one at a time use this in place of a second edge
representation in the library.
"""

import numpy as np


def undirected_edges(graph):
    """Each edge once, as (E, 2) rows u < v in lexicographic order, and its (E,) weights.

    Rows of the CSR are in vertex order and each row lists its targets in
    ascending order among those above the row vertex, so the u < v entries
    come out sorted.
    """
    rows = np.repeat(np.arange(graph.n_nodes), np.diff(graph.indptr))
    upper = rows < graph.targets
    return np.stack([rows[upper], graph.targets[upper]], axis=1), graph.weights_csr[upper]
