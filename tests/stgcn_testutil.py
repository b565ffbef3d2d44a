"""Shared rigs for the network tests and the acceptance suite.

Also holds the per-vertex oracles of the spatial graph convolution (Eq. 1),
which only tests use: neighborhood B_i, partition label lookup, subset
cardinalities Z and the summation form the matrix form is checked against;
the tensordot matrix form that graph_conv must equal byte for byte; the
padded time unfold that the library's must equal byte for byte; and the
im2col temporal-convolution backward that the library's must equal byte for
byte.
"""

import numpy as np

from facegcn import st_graph, stgcn_net
from facegcn.errors import ShapeMismatch


def neighborhood(graph, i):
    """B_i: neighbors of i plus i itself, ascending."""
    b = np.nonzero(graph.adjacency[i])[0]
    return np.unique(np.append(b, i))


def label(labels, i, j):
    """Partition label of the ordered pair (i, j in B_i)."""
    l = int(labels.labels[i, j])
    if l < 0:
        raise KeyError(f"({i}, {j}) is not a labeled pair")
    return l


def cardinalities(graph, labels):
    """Z[i, p] = size of the label-p subset of B_i (Eq. 1 normalizer)."""
    z = np.zeros((graph.J, labels.P), dtype=np.int64)
    for p in range(labels.P):
        z[:, p] = (labels.labels == p).sum(axis=1)
    return z


def graph_conv_reference(f_in, params, graph, labels, Z, normalization="cardinality"):
    """Per-vertex summation form of the spatial graph convolution (the oracle).

    normalization "cardinality" uses 1/Z_ij (the subset-size normalizer);
    "symmetric_degree" uses 1/sqrt(D_ii D_jj), which expands the matrix form
    entrywise and coincides with "cardinality" exactly on regular graphs
    under the uniform partition.
    """
    if labels.P != params.P:
        raise ShapeMismatch(f"{labels.P} partitions for {params.P} weight matrices")
    c_in, j_count, t_count = f_in.shape
    if c_in != params.c_in or j_count != graph.J:
        raise ShapeMismatch(f"input {f_in.shape} does not match weights/graph")
    degree = graph.adjacency.astype(np.float64).sum(axis=1) + 1.0
    out = np.zeros((params.c_out, j_count, t_count), dtype=f_in.dtype)
    for i in range(j_count):
        for j in neighborhood(graph, i):
            lab = label(labels, i, int(j))
            if normalization == "cardinality":
                norm = 1.0 / Z[i, lab]
            elif normalization == "symmetric_degree":
                norm = 1.0 / np.sqrt(degree[i] * degree[j])
            else:
                raise ValueError(f"unknown normalization {normalization!r}")
            for t in range(t_count):
                out[:, i, t] += norm * (params.weights[lab] @ f_in[:, j, t])
    if params.bias is not None:
        out += params.bias[:, None, None]
    return out


def graph_conv_tensordot_reference(f_in, params, matrices):
    """sum_p M_p (W_p f_in), each node mix a tensordot over J moved back to (C, J, T)."""
    c_in, j_count, t_count = f_in.shape
    flat = f_in.reshape(c_in, j_count * t_count)
    out = np.zeros((params.c_out, j_count, t_count), dtype=f_in.dtype)
    for p in range(params.P):
        tmp = (params.weights[p] @ flat).reshape(params.c_out, j_count, t_count)
        out += np.moveaxis(np.tensordot(matrices[p], tmp, axes=([1], [1])), 0, 1)
    if params.bias is not None:
        out += params.bias[:, None, None]
    return out


def node_mix_grad_reference(g, m):
    """M.T g over the nodes of g (C, J, T): a node scale when m is diagonal."""
    if np.count_nonzero(m) == np.count_nonzero(np.diagonal(m)):
        return g * np.diagonal(m)[:, None]
    return np.matmul(m.T, g)


def graph_conv_backward_reference(g, f_in, params, matrices, input_grad):
    """(d_in, dw, db) partition by partition: dw[p] and W_p.T (M_p.T g) from one M_p.T g at a time."""
    c_in, j_count, t_count = f_in.shape
    flat_in = f_in.reshape(c_in, j_count * t_count)
    d_in_flat = np.zeros_like(flat_in) if input_grad else None
    dw = np.zeros_like(params.weights)
    for p in range(params.P):
        dtmp_flat = node_mix_grad_reference(g, matrices[p]).reshape(params.c_out, -1)
        dw[p] = dtmp_flat @ flat_in.T
        if input_grad:
            d_in_flat += params.weights[p].T @ dtmp_flat
    db = g.sum(axis=(1, 2)) if params.bias is not None else None
    d_in = d_in_flat.reshape(f_in.shape) if input_grad else None
    return d_in, dw, db


def unfold_time_reference(f, kernel_size, stride):
    """Zero-pad along T and gather the K taps: (C*K, J*T_out) column matrix."""
    c_in, j_count, t_count = f.shape
    pad = kernel_size // 2
    t_out = (t_count - 1) // stride + 1
    xp = np.zeros((c_in, j_count, t_count + 2 * pad), dtype=f.dtype)
    xp[:, :, pad : pad + t_count] = f
    cols = np.empty((c_in, kernel_size, j_count, t_out), dtype=f.dtype)
    for tap in range(kernel_size):
        cols[:, tap] = xp[:, :, tap : tap + stride * (t_out - 1) + 1 : stride]
    return cols.reshape(c_in * kernel_size, j_count * t_out), t_out


def temporal_conv_backward_reference(g, f, params):
    """(dx, dk) from the full (C*K, J*T_out) column block and its transpose product."""
    c_in, j_count, t_count = f.shape
    pad = params.K // 2
    s = params.stride
    t_out = g.shape[2]
    c_out = params.kernel.shape[0]
    g_flat = g.reshape(c_out, j_count * t_out)

    cols, _ = unfold_time_reference(f, params.K, s)
    dk = (g_flat @ cols.T).reshape(params.kernel.shape)

    dcols = (params.kernel.reshape(c_out, c_in * params.K).T @ g_flat).reshape(
        c_in, params.K, j_count, t_out
    )
    dxp = np.zeros((c_in, j_count, t_count + 2 * pad), dtype=f.dtype)
    for tap in range(params.K):
        dxp[:, :, tap : tap + s * (t_out - 1) + 1 : s] += dcols[:, tap]
    return dxp[:, :, pad : pad + t_count], dk


def random_regular_graph(j, d, rng, max_tries=200):
    """Random simple d-regular graph on j nodes via the pairing model."""
    if (j * d) % 2 or d >= j:
        raise ValueError(f"no {d}-regular graph on {j} nodes")
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(j), d)
        rng.shuffle(stubs)
        a = np.zeros((j, j), dtype=np.int8)
        ok = True
        for u, v in zip(stubs[0::2], stubs[1::2]):
            if u == v or a[u, v]:
                ok = False
                break
            a[u, v] = a[v, u] = 1
        if ok:
            return st_graph.SpatialGraph(adjacency=a)
    raise RuntimeError("failed to sample a regular graph")


def toy_model_and_input(dtype=np.float64, seed=4, input_seed=1004):
    """2-block toy model (J=4, T=6, C_in=3, 3 classes) at a well-conditioned
    point for finite differences: positive inputs and biases keep every
    pre-activation away from the ReLU kink at the h=1e-3 scale."""
    j = 4
    a = np.zeros((j, j), dtype=np.int8)
    for (i, k) in [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]:
        a[i, k] = a[k, i] = 1
    graph = st_graph.SpatialGraph(adjacency=a)
    labels = st_graph.partition(graph, "distance")
    adjacency = st_graph.normalize_adjacency(graph, labels)
    arch = stgcn_net.ModelArch(
        in_channels=3, block_channels=(5, 5), strides=(1, 1), kernel_size=3, num_classes=3
    )
    model = stgcn_net.init_model(arch, adjacency, seed=seed, dtype=dtype)
    for block in model.blocks:
        block.gconv.bias[:] = 0.05 + 0.02 * np.arange(block.gconv.bias.size)
    x = np.abs(np.random.default_rng(input_seed).normal(size=(3, j, 6))) * 0.5 + 0.1
    return model, x.astype(dtype)


def finite_difference_check(model, x, label=1, h=1e-3, rel_tol=1e-4, abs_tol=1e-7):
    """Central finite differences vs backward for every parameter coordinate.

    Returns (n_checked, n_failed, worst_error).
    """

    def loss_of():
        tape = stgcn_net.GradientTape()
        logits = stgcn_net.forward(model, x, tape=tape)
        return stgcn_net.cross_entropy(logits, label, tape=tape), tape

    _, tape = loss_of()
    grads = stgcn_net.backward(tape)
    checked = failed = 0
    worst = 0.0
    for name, param in model.parameters():
        flat = param.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _ = loss_of()
            flat[i] = orig - h
            lm, _ = loss_of()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            if abs(gflat[i]) < 1e-6:
                err = abs(fd - gflat[i])
                ok = err <= abs_tol
            else:
                err = abs(fd - gflat[i]) / max(abs(fd), abs(gflat[i]))
                ok = err <= rel_tol
            checked += 1
            failed += int(not ok)
            worst = max(worst, err)
    return checked, failed, worst
