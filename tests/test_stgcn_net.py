import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from facegcn import parallel, stgcn_net
from facegcn.errors import (
    LabelOutOfRange,
    NumericalError,
    ParseError,
    PartitionMismatch,
    ShapeMismatch,
    TapeIncomplete,
)
from facegcn.st_graph import SpatialGraph, normalize_adjacency, partition
from facegcn.stgcn_net import (
    GradientTape,
    GraphConvParams,
    Model,
    ModelArch,
    TemporalConvParams,
    backward,
    cross_entropy,
    evaluate,
    forward,
    graph_conv,
    init_model,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    sgd_step,
    temporal_conv,
    train_model,
)
from stgcn_testutil import (
    cardinalities,
    finite_difference_check,
    graph_conv_backward_reference,
    graph_conv_reference,
    graph_conv_tensordot_reference,
    node_mix_grad_reference,
    random_regular_graph,
    temporal_conv_backward_reference,
    toy_model_and_input,
    unfold_time_reference,
)


def single_node_setup():
    g = SpatialGraph(adjacency=np.zeros((1, 1), dtype=np.int8))
    labels = partition(g, "uniform")
    return g, labels, normalize_adjacency(g, labels)


def complete_two_node():
    g = SpatialGraph(adjacency=np.array([[0, 1], [1, 0]], dtype=np.int8))
    labels = partition(g, "uniform")
    return g, labels, normalize_adjacency(g, labels)


def shipped_model_and_input(seed=0):
    """The shipped network (k = 25, J = 28, T = 24, distance partition, 10
    identities) in float32, and one non-negative input sequence."""
    rng = np.random.default_rng(seed)
    g = random_regular_graph(28, 4, rng)
    norm = normalize_adjacency(g, partition(g, "distance"))
    model = init_model(ModelArch(in_channels=150, num_classes=10), norm, seed=seed)
    return model, np.abs(rng.normal(size=(150, 28, 24))).astype(np.float32)


# ---------------------------------------------------------------------------
# graph convolution


def test_reference_isolated_node_identity():
    g, labels, _ = single_node_setup()
    z = cardinalities(g, labels)
    params = GraphConvParams(weights=np.eye(3)[None])
    f = np.random.default_rng(0).normal(size=(3, 1, 4))
    out = graph_conv_reference(f, params, g, labels, z)
    assert np.allclose(out, f)


def test_reference_two_node_average():
    g, labels, _ = complete_two_node()
    z = cardinalities(g, labels)
    params = GraphConvParams(weights=np.ones((1, 1, 1)))
    f = np.array([[[2.0], [6.0]]])  # (C=1, J=2, T=1): a=2, b=6
    out = graph_conv_reference(f, params, g, labels, z)
    assert np.allclose(out, (2 + 6) / 2)


def test_reference_zero_weights():
    g, labels, _ = complete_two_node()
    z = cardinalities(g, labels)
    params = GraphConvParams(weights=np.zeros((1, 2, 1)))
    f = np.random.default_rng(1).normal(size=(1, 2, 3))
    assert np.all(graph_conv_reference(f, params, g, labels, z) == 0)


def test_graph_conv_identity_stack():
    _, _, norm = single_node_setup()
    params = GraphConvParams(weights=np.eye(2)[None])
    f = np.random.default_rng(2).normal(size=(2, 1, 5))
    assert np.allclose(graph_conv(f, params, norm), f)


def test_graph_conv_matches_reference_on_regular_graphs():
    rng = np.random.default_rng(3)
    for trial in range(30):
        j = int(rng.integers(4, 9))
        d = 2 if (j * 3) % 2 else int(rng.choice([2, 3]))
        g = random_regular_graph(j, d, rng)
        labels = partition(g, "uniform")
        norm = normalize_adjacency(g, labels)
        z = cardinalities(g, labels)
        c_in, c_out, t = (int(x) for x in rng.integers(1, 5, size=3))
        params = GraphConvParams(weights=rng.normal(size=(1, c_out, c_in)))
        f = rng.normal(size=(c_in, j, t))
        fast = graph_conv(f, params, norm)
        ref = graph_conv_reference(f, params, g, labels, z)
        assert np.max(np.abs(fast - ref)) <= 1e-5 * max(1.0, np.max(np.abs(ref)))


def test_graph_conv_matches_degree_weighted_reference_on_irregular():
    rng = np.random.default_rng(4)
    for _ in range(10):
        j = int(rng.integers(3, 8))
        a = np.zeros((j, j), dtype=np.int8)
        for i in range(j):
            for k in range(i + 1, j):
                if rng.random() < 0.5:
                    a[i, k] = a[k, i] = 1
        g = SpatialGraph(adjacency=a)
        labels = partition(g, "distance")
        norm = normalize_adjacency(g, labels)
        z = cardinalities(g, labels)
        params = GraphConvParams(weights=rng.normal(size=(2, 3, 2)))
        f = rng.normal(size=(2, j, 2))
        fast = graph_conv(f, params, norm)
        ref = graph_conv_reference(f, params, g, labels, z, normalization="symmetric_degree")
        assert np.allclose(fast, ref, rtol=1e-10, atol=1e-12)


def test_graph_conv_linearity():
    rng = np.random.default_rng(5)
    g = random_regular_graph(6, 3, rng)
    norm = normalize_adjacency(g, partition(g, "distance"))
    params = GraphConvParams(weights=rng.normal(size=(2, 4, 3)))  # no bias
    f1 = rng.normal(size=(3, 6, 4))
    f2 = rng.normal(size=(3, 6, 4))
    lhs = graph_conv(0.7 * f1 + 1.3 * f2, params, norm)
    rhs = 0.7 * graph_conv(f1, params, norm) + 1.3 * graph_conv(f2, params, norm)
    assert np.max(np.abs(lhs - rhs)) <= 1e-5


def graph_adjacency(kind, j, rng):
    """The normalized stack of a 3-regular graph on j nodes under the distance
    or uniform partition, or of the j-node graph with no edges."""
    if kind == "edgeless":
        g = SpatialGraph(adjacency=np.zeros((j, j), dtype=np.int8))
        return normalize_adjacency(g, partition(g, "distance"))
    g = random_regular_graph(j, 3, rng)
    return normalize_adjacency(g, partition(g, kind))


# which partitions graph_conv applies as a node scale: the distance root
# subset, and an edgeless graph's all-zero neighbor subset as well
DIAGONAL_PARTITIONS = {"distance": [True, False], "uniform": [False],
                       "edgeless": [True, True]}


def graph_conv_cases(test):
    """Parametrize ``test`` over the graph-conv cases: (C_in, C_out, J, T) of
    the shipped blocks (k = 25, J = 28, T = 24) and of the golden
    checkpoint's small config (k = 4, J = 6, T = 2), both dtypes, with and
    without bias, every partition kind, and inputs with and without zeros."""
    for mark in [
        pytest.mark.parametrize("c_in, c_out, j, t", [
            (150, 64, 28, 24), (64, 128, 28, 24), (128, 256, 28, 12),
            (24, 64, 6, 2), (64, 128, 6, 2), (128, 256, 6, 1),
        ]),
        pytest.mark.parametrize("dtype", [np.float32, np.float64]),
        pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"]),
        pytest.mark.parametrize("kind", list(DIAGONAL_PARTITIONS)),
        pytest.mark.parametrize("zeros", [False, True], ids=["normal", "zeros"]),
    ]:
        test = mark(test)
    return test


def graph_conv_case(c_in, c_out, j, t, dtype, bias, kind, zeros):
    """(norm, params, f, rng) of one graph_conv_cases case."""
    rng = np.random.default_rng(c_in * 1000 + j * 10 + t)
    norm = graph_adjacency(kind, j, rng).astype(dtype)
    assert [stgcn_net._diagonal(m) is not None for m in norm] == DIAGONAL_PARTITIONS[kind]
    params = GraphConvParams(weights=rng.normal(size=(norm.shape[0], c_out, c_in)).astype(dtype),
                             bias=rng.normal(size=c_out).astype(dtype) if bias else None)
    f = rng.normal(size=(c_in, j, t)).astype(dtype)
    if zeros:
        with_zeros(f, rng)
    return norm, params, f, rng


def with_zeros(x, rng):
    """Put exact +0.0 and -0.0 entries in x, and make node 0 all zero."""
    signs = rng.integers(0, 10, size=x.shape)
    x[signs == 0] = 0.0
    x[signs == 1] = -0.0
    x[:, 0] = 0.0


@graph_conv_cases
def test_graph_conv_equals_tensordot_reference(c_in, c_out, j, t, dtype, bias, kind, zeros):
    norm, params, f, _ = graph_conv_case(c_in, c_out, j, t, dtype, bias, kind, zeros)
    got = graph_conv(f, params, norm)
    want = graph_conv_tensordot_reference(f, params, norm)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("input_grad", [True, False], ids=["input-grad", "no-input-grad"])
@graph_conv_cases
def test_graph_conv_backward_equals_per_partition_reference(c_in, c_out, j, t, dtype, bias,
                                                            kind, zeros, input_grad):
    norm, params, f, rng = graph_conv_case(c_in, c_out, j, t, dtype, bias, kind, zeros)
    g = rng.normal(size=(c_out, j, t)).astype(dtype)
    if zeros:
        with_zeros(g, rng)
    got = stgcn_net._graph_conv_backward(g, f, params, norm, input_grad)
    want = graph_conv_backward_reference(g, f, params, norm, input_grad)
    for name, got_x, want_x in zip(["d_in", "dw", "db"], got, want):
        if want_x is None:
            assert got_x is None, name
            continue
        assert got_x.shape == want_x.shape and got_x.dtype == want_x.dtype, name
        if name == "dw" and dtype is np.float64:
            # a multi-threaded OpenBLAS dgemm may round the stacked product and
            # the per-partition ones differently (either also differs from its
            # one-thread result), so float64 dw is held to the error bound of
            # a J*T-term dot product, 2 * J*T * eps * sum |M_p.T g| |f|
            terms = np.stack([np.abs(node_mix_grad_reference(g, m)).reshape(c_out, -1)
                              @ np.abs(f.reshape(c_in, -1)).T for m in norm])
            assert np.all(np.abs(got_x - want_x) <= 2 * j * t * np.finfo(dtype).eps * terms)
        else:
            assert got_x.tobytes() == want_x.tobytes(), name


def test_graph_conv_partition_mismatch():
    _, _, norm = complete_two_node()  # P = 1
    params = GraphConvParams(weights=np.zeros((2, 1, 1)))
    with pytest.raises(PartitionMismatch):
        graph_conv(np.zeros((1, 2, 1)), params, norm)


# ---------------------------------------------------------------------------
# temporal convolution


def test_temporal_identity_kernel():
    c = 3
    kern = np.zeros((c, c, 1))
    kern[:, :, 0] = np.eye(c)
    params = TemporalConvParams(kernel=kern, stride=1)
    f = np.random.default_rng(6).normal(size=(c, 2, 7))
    assert np.allclose(temporal_conv(f, params), f)


def test_temporal_mean_kernel_boundaries():
    params = TemporalConvParams(kernel=np.full((1, 1, 3), 1.0 / 3.0), stride=1)
    c = 0.9
    f = np.full((1, 1, 6), c)
    out = temporal_conv(f, params)
    assert np.allclose(out[0, 0, 1:-1], c)
    assert np.allclose(out[0, 0, [0, -1]], 2 * c / 3)


def test_temporal_stride_shape():
    params = TemporalConvParams(kernel=np.zeros((2, 2, 3)), stride=2)
    out = temporal_conv(np.zeros((2, 3, 10)), params)
    assert out.shape == (2, 3, 5)
    out = temporal_conv(np.zeros((2, 3, 9)), params)
    assert out.shape == (2, 3, 5)


def test_temporal_rejects_even_kernel():
    with pytest.raises(ShapeMismatch):
        TemporalConvParams(kernel=np.zeros((1, 1, 4)), stride=1)


# every clamped tap range for K up to 5: T <= K//2 (some taps read only
# padding), T = 2 (the golden config's last block) and T > K
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, stride, t", [
    (k, stride, t) for k in (1, 3, 5) for stride in (1, 2) for t in range(1, k + 2)
])
def test_unfold_time_equals_padded_reference(k, stride, t, dtype):
    rng = np.random.default_rng(k * 100 + stride * 10 + t)
    f = rng.normal(size=(3, 4, t)).astype(dtype)
    f[1, :, ::2] = -0.0
    got, got_t = stgcn_net._unfold_time(f, k, stride)
    want, want_t = unfold_time_reference(f, k, stride)
    assert got_t == want_t
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# (C, J, T, K, stride): the shipped blocks' temporal convs (J = 28, T = 24),
# a stride equal to K, and sequences shorter than the kernel
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c, j, t, k, stride", [
    (64, 28, 24, 5, 1), (128, 28, 24, 5, 2), (256, 28, 12, 5, 2),
    (7, 4, 10, 3, 3), (5, 3, 2, 5, 1), (6, 4, 1, 3, 2), (4, 3, 2, 7, 3),
])
def test_temporal_backward_equals_im2col_reference(c, j, t, k, stride, dtype):
    rng = np.random.default_rng(c * 1000 + t * 10 + k)
    params = TemporalConvParams(kernel=rng.normal(size=(c, c, k)).astype(dtype), stride=stride)
    f = rng.normal(size=(c, j, t)).astype(dtype)
    g = rng.normal(size=temporal_conv(f, params).shape).astype(dtype)
    got = stgcn_net._temporal_conv_backward(g, f, params)
    want = temporal_conv_backward_reference(g, f, params)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_input_gives_classifier_bias():
    model, x = toy_model_and_input(dtype=np.float32)
    for block in model.blocks:
        block.gconv.bias[:] = 0
    model.classifier_b[:] = np.array([0.3, -0.2, 0.1], dtype=np.float32)
    logits = forward(model, np.zeros_like(x))
    assert np.array_equal(logits, model.classifier_b)


def test_forward_permutation_invariance():
    model, x = toy_model_and_input(dtype=np.float32)
    logits = forward(model, x)
    perm = np.array([2, 0, 3, 1])
    adjacency = np.ascontiguousarray(model.adjacency[:, perm][:, :, perm])
    permuted = Model(
        arch=model.arch,
        adjacency=adjacency,
        blocks=model.blocks,
        classifier_w=model.classifier_w,
        classifier_b=model.classifier_b,
        dtype=model.dtype,
    )
    logits_p = forward(permuted, x[:, perm, :])
    assert np.max(np.abs(logits - logits_p)) <= 1e-5


def test_forward_frame_repetition_with_k1():
    rng = np.random.default_rng(7)
    g = random_regular_graph(4, 2, rng)
    norm = normalize_adjacency(g, partition(g, "distance"))
    arch = ModelArch(in_channels=3, block_channels=(4, 4), strides=(1, 1),
                     kernel_size=1, num_classes=3)
    model = init_model(arch, norm, seed=8)
    x = rng.normal(size=(3, 4, 5)).astype(np.float32)
    doubled = np.repeat(x, 2, axis=2)
    assert np.max(np.abs(forward(model, x) - forward(model, doubled))) <= 1e-5


def test_forward_shape_errors():
    model, x = toy_model_and_input(dtype=np.float32)
    with pytest.raises(ShapeMismatch):
        forward(model, x[:2])
    with pytest.raises(ShapeMismatch):
        forward(model, x[:, :2, :])


def test_forward_residual_applies_when_shapes_match():
    model, x = toy_model_and_input(dtype=np.float32)
    logits = forward(model, x)
    model.blocks[0].residual = False  # 3 -> 5 channels: never added
    assert np.array_equal(forward(model, x), logits)
    model.blocks[1].residual = False  # 5 -> 5, stride 1: added until now
    assert not np.array_equal(forward(model, x), logits)


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_uniform_logits():
    for n in (2, 4, 10):
        assert cross_entropy(np.zeros(n), 0) == pytest.approx(math.log(n))


def test_cross_entropy_is_stable():
    loss = cross_entropy(np.array([1000.0, 0.0]), 0)
    assert np.isfinite(loss) and loss == pytest.approx(0.0, abs=1e-12)
    assert cross_entropy(np.array([0.0, 0.0]), 0) == pytest.approx(math.log(2))


def test_cross_entropy_label_range():
    with pytest.raises(LabelOutOfRange):
        cross_entropy(np.zeros(3), 3)


def test_softmax_sums_to_one_loss_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(50):
        logits = rng.normal(size=rng.integers(2, 8)) * rng.uniform(0.1, 50)
        tape = GradientTape()
        loss = cross_entropy(logits, 0, tape=tape)
        assert abs(tape.probs.sum() - 1.0) <= 1e-6
        assert loss >= 0.0


# ---------------------------------------------------------------------------
# backward


def test_backward_zero_input_zeroes_weight_grads():
    model, x = toy_model_and_input(dtype=np.float64)
    for block in model.blocks:
        block.gconv.bias[:] = 0
    tape = GradientTape()
    logits = forward(model, np.zeros_like(x), tape=tape)
    cross_entropy(logits, 0, tape=tape)
    grads = backward(tape)
    for name in grads:
        if name == "classifier.bias":
            assert np.any(grads[name] != 0)
        else:
            assert np.all(grads[name] == 0), name


def test_backward_scaling_linear():
    model, x = toy_model_and_input(dtype=np.float64)
    tape = GradientTape()
    logits = forward(model, x, tape=tape)
    cross_entropy(logits, 2, tape=tape)
    g1 = backward(tape, loss_scale=1.0)
    g2 = backward(tape, loss_scale=2.0)
    for name in g1:
        assert np.array_equal(2.0 * g1[name], g2[name])


def test_backward_grads_follow_parameter_order():
    model, x = toy_model_and_input(dtype=np.float64)
    tape = GradientTape()
    cross_entropy(forward(model, x, tape=tape), 1, tape=tape)
    grads = backward(tape)
    assert type(grads) is dict
    assert list(grads) == [name for name, _ in model.parameters()]
    for name, param in model.parameters():
        assert grads[name].shape == param.shape and grads[name].dtype == param.dtype


def test_backward_requires_recorded_loss():
    model, x = toy_model_and_input(dtype=np.float64)
    tape = GradientTape()
    forward(model, x, tape=tape)
    with pytest.raises(TapeIncomplete):
        backward(tape)


def test_gradients_match_finite_differences():
    model, x = toy_model_and_input(dtype=np.float64)
    checked, failed, worst = finite_difference_check(model, x)
    assert checked == sum(p.size for _, p in model.parameters())
    assert failed == 0, f"worst error {worst}"


def residual_block0_model_and_input():
    """The toy graph with block 0 residual (C_in = C_out, stride 1)."""
    toy, _ = toy_model_and_input(np.float32)
    arch = ModelArch(in_channels=5, block_channels=(5, 6), strides=(1, 2), kernel_size=3,
                     num_classes=3)
    model = init_model(arch, toy.adjacency, seed=8)
    x = np.abs(np.random.default_rng(9).normal(size=(5, toy.J, 7))).astype(np.float32)
    return model, x


@pytest.mark.parametrize("make", [
    lambda: toy_model_and_input(np.float32), residual_block0_model_and_input,
    shipped_model_and_input,
], ids=["toy", "residual-block0", "shipped"])
def test_training_step_gradients_equal_backward_without_input_gradient(make):
    model, x = make()
    tape = GradientTape()
    cross_entropy(forward(model, x, tape=tape), 1, tape=tape)
    want = backward(tape, loss_scale=0.25)

    products = []

    class CountingWeights(np.ndarray):
        """Block 0's graph-conv weights, counting the matmuls they enter."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(ufunc)
            inputs = tuple(a.view(np.ndarray) if isinstance(a, CountingWeights) else a
                           for a in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    gconv = model.blocks[0].gconv
    weights = gconv.weights
    gconv.weights = weights.view(CountingWeights)
    try:
        _, _, got = stgcn_net._sample_step(model, 0.25, 0, GradientTape(), (x, 1))
        in_step = len(products)
        tape = GradientTape()
        cross_entropy(forward(model, x, tape=tape), 1, tape=tape)
        backward(tape, loss_scale=0.25)
        in_full = len(products) - in_step
    finally:
        gconv.weights = weights
    # the forward's one stacked W f_in only: neither path forms block 0's
    # input gradient, which would add a W_p.T product per partition
    assert in_step == 1 and in_full == 1
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert got[name].tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("make", [
    toy_model_and_input, residual_block0_model_and_input, shipped_model_and_input,
], ids=["toy", "residual-block0", "shipped"])
def test_forward_and_backward_leave_the_input_unchanged(make):
    # forward and backward write in place on arrays they allocate; the
    # caller's features are taped as they are and only read
    model, x = make()
    assert x.flags.writeable and x.flags.c_contiguous and x.dtype == model.dtype
    before = x.tobytes()
    tape = GradientTape()
    cross_entropy(forward(model, x, tape=tape), 1, tape=tape)
    assert tape.activations[0] is x
    backward(tape)
    assert x.tobytes() == before


def test_training_step_traced_peak_at_shipped_defaults():
    # every sample train_model has in flight holds this peak at once (4.91 MB
    # measured; 4.96 MB while backward kept dx beside its masked copy dz, and
    # 5.14 MB while the tape also kept the ReLU masks and the pooled vector)
    model, x = shipped_model_and_input()
    stgcn_net._sample_step(model, 0.125, 0, GradientTape(), (x, 3))
    tracemalloc.start()
    try:
        stgcn_net._sample_step(model, 0.125, 0, GradientTape(), (x, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.05e6


# ---------------------------------------------------------------------------
# optimizer / schedule


def test_sgd_plain_step():
    p = np.array([1.0, 2.0])
    g = np.array([0.5, -1.0])
    v = np.zeros(2)
    sgd_step(p, g, v, np.empty(2), lr=0.1)
    assert np.allclose(p, [0.95, 2.1])


def test_sgd_zero_grad_no_motion():
    p = np.array([1.0, 2.0])
    v = np.zeros(2)
    sgd_step(p, np.zeros(2), v, np.empty(2), lr=0.1)
    assert np.array_equal(p, [1.0, 2.0])


def test_sgd_momentum_two_steps():
    # constant gradient g, mu=0.9: v1=g, v2=1.9g, total displacement 2.9*lr*g
    p = np.array([0.0])
    g = np.array([1.0])
    v = np.zeros(1)
    sgd_step(p, g, v, np.empty(1), lr=0.1, momentum=0.9)
    sgd_step(p, g, v, np.empty(1), lr=0.1, momentum=0.9)
    assert np.allclose(p, [-2.9 * 0.1])


def test_sgd_weight_decay():
    p = np.array([2.0])
    v = np.zeros(1)
    sgd_step(p, np.zeros(1), v, np.empty(1), lr=0.1, weight_decay=0.5)
    assert np.allclose(p, [2.0 - 0.1 * 0.5 * 2.0])


def test_lr_schedule():
    assert lr_schedule(0, 0.01, (), 0.1) == 0.01
    assert lr_schedule(9, 0.01, (10,), 0.1) == 0.01
    assert lr_schedule(10, 0.01, (10,), 0.1) == pytest.approx(0.001)
    assert lr_schedule(25, 0.01, (10, 20), 0.5) == pytest.approx(0.0025)
    assert lr_schedule(999, 0.01, (), 0.1) == 0.01


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model, {"k": 25, "seed": 7, "epoch": 3})
    loaded, meta = load_checkpoint(p)
    assert meta == {"k": 25, "seed": 7, "epoch": 3}
    assert loaded.arch == model.arch
    for (n1, a1), (n2, a2) in zip(model.parameters(), loaded.parameters()):
        assert n1 == n2
        assert np.array_equal(a1, a2)
    assert np.array_equal(loaded.adjacency, model.adjacency)
    p2 = tmp_path / "m2.fgc"
    save_checkpoint(p2, loaded, meta)
    assert p.read_bytes() == p2.read_bytes()


def test_checkpoint_loaded_model_runs(tmp_path):
    model, x = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model)
    loaded, _ = load_checkpoint(p)
    assert np.array_equal(forward(loaded, x), forward(model, x))


# ---------------------------------------------------------------------------
# training loop


def tiny_training_setup(n=6, seed=10):
    rng = np.random.default_rng(seed)
    g = random_regular_graph(4, 2, rng)
    norm = normalize_adjacency(g, partition(g, "distance"))
    arch = ModelArch(in_channels=4, block_channels=(6, 6), strides=(1, 1),
                     kernel_size=3, num_classes=2)
    data = []
    for i in range(n):
        label = i % 2
        x = rng.normal(size=(4, 4, 5)).astype(np.float32) + label * 2.0
        data.append((x, label))
    return arch, norm, data


def test_training_deterministic_bit_identical():
    arch, norm, data = tiny_training_setup()

    def run():
        model = init_model(arch, norm, seed=5)
        hist = train_model(model, data, epochs=3, base_lr=0.01, momentum=0.9,
                           weight_decay=1e-4, decay_epochs=(), gamma=0.1,
                           batch_size=2, seed=5)
        return model, [h.loss for h in hist]

    m1, losses1 = run()
    m2, losses2 = run()
    assert losses1 == losses2  # bit-identical floats
    for (_, a1), (_, a2) in zip(m1.parameters(), m2.parameters()):
        assert np.array_equal(a1, a2)


# trains the shipped float32 network for one short epoch; prints a digest of its parameters
SHORT_SHIPPED_TRAINING = """
import hashlib
import numpy as np
from facegcn.st_graph import normalize_adjacency, partition
from facegcn.stgcn_net import ModelArch, init_model, train_model
from stgcn_testutil import random_regular_graph
rng = np.random.default_rng(3)
g = random_regular_graph(28, 4, rng)
model = init_model(ModelArch(in_channels=150, num_classes=10),
                   normalize_adjacency(g, partition(g, "distance")), seed=3)
data = [(rng.uniform(size=(150, 28, 24)).astype(np.float32), i % 10) for i in range(4)]
train_model(model, data, epochs=1, batch_size=2, seed=3, weight_decay=1e-4)
print(hashlib.sha256(b"".join(arr.tobytes() for _, arr in model.parameters())).hexdigest())
"""


def test_float32_training_bytes_do_not_depend_on_the_blas_thread_count():
    # the golden checkpoint digest and the bench's pinned BLAS rest on this;
    # float64 GEMMs at these shapes do differ between one and two OpenBLAS threads
    src = os.path.dirname(os.path.dirname(os.path.abspath(stgcn_net.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    digests = []
    for threads in ("1", "2"):
        r = subprocess.run([sys.executable, "-c", SHORT_SHIPPED_TRAINING], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": path,
                                           "OPENBLAS_NUM_THREADS": threads})
        assert r.returncode == 0, r.stderr
        digests.append(r.stdout)
    assert digests[0] == digests[1]


def test_training_handles_variable_sequence_lengths():
    arch, norm, data = tiny_training_setup()
    rng = np.random.default_rng(15)
    mixed = [
        (rng.normal(size=(4, 4, t)).astype(np.float32) + (i % 2) * 2.0, i % 2)
        for i, t in enumerate((3, 5, 8, 12))
    ]
    model = init_model(arch, norm, seed=6)
    hist = train_model(model, mixed, epochs=2, base_lr=0.01, momentum=0.9,
                       weight_decay=0.0, decay_epochs=(), gamma=0.1,
                       batch_size=2, seed=6)
    assert len(hist) == 2 and np.isfinite(hist[-1].loss)


def train_with_cpus(monkeypatch, cpus, data, batch_size, epochs=3, on_epoch=None, threads=None):
    """A fresh tiny model trained with the in-flight count forced through ``cpus``.

    ``threads``, a set, collects the threads that ran a forward pass.
    """
    arch, norm, _ = tiny_training_setup()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    if threads is not None:
        def recording_forward(*args, _forward=stgcn_net.forward, **kwargs):
            threads.add(threading.get_ident())
            return _forward(*args, **kwargs)

        monkeypatch.setattr(stgcn_net, "forward", recording_forward)
    model = init_model(arch, norm, seed=5)
    try:
        hist = train_model(model, data, epochs=epochs, base_lr=0.05, momentum=0.9,
                           weight_decay=1e-4, decay_epochs=(1,), gamma=0.5,
                           batch_size=batch_size, seed=5, on_epoch=on_epoch)
    except NumericalError as exc:
        return model, exc
    return model, [(h.loss, h.train_acc) for h in hist]


def parameter_bytes(model):
    return [(name, arr.tobytes()) for name, arr in model.parameters()]


@pytest.fixture
def fast_thread_switches():
    """Switch threads every microsecond, so that a race between samples shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("batch_size", [1, 3, 8])  # 10 samples: short last batches
@pytest.mark.parametrize("cpus", [2, 3])  # 3 may be more CPUs than there are
def test_training_bytes_do_not_depend_on_cpu_count(monkeypatch, fast_thread_switches,
                                                   batch_size, cpus):
    _, _, data = tiny_training_setup(n=10)
    threads = threading.active_count()
    ran_on_1, ran_on_n = set(), set()
    model_1, stats_1 = train_with_cpus(monkeypatch, 1, data, batch_size, threads=ran_on_1)
    monkeypatch.undo()
    model_n, stats_n = train_with_cpus(monkeypatch, cpus, data, batch_size, threads=ran_on_n)
    assert stats_n == stats_1  # bit-identical losses and accuracies
    assert parameter_bytes(model_n) == parameter_bytes(model_1)
    assert ran_on_1 == {threading.get_ident()}
    # with 3 in flight one pool thread may happen to take both pool samples
    assert len(ran_on_n) == 1 if batch_size == 1 else 1 < len(ran_on_n) <= min(cpus, batch_size)
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [2, 3])
def test_training_error_order_does_not_depend_on_cpu_count(monkeypatch, cpus):
    # a NaN sample at batch position 1 of the second batch of epoch 0, and a
    # label out of range at position 2: the NaN comes first in batch order
    _, _, data = tiny_training_setup(n=10)
    order = np.random.default_rng([5, 0]).permutation(len(data))
    data[order[4 + 1]] = (np.full_like(data[0][0], np.nan), data[0][1])
    data[order[4 + 2]] = (data[0][0], 7)
    threads = threading.active_count()
    model_1, err_1 = train_with_cpus(monkeypatch, 1, data, batch_size=4)
    model_n, err_n = train_with_cpus(monkeypatch, cpus, data, batch_size=4)
    assert isinstance(err_1, NumericalError) and type(err_n) is type(err_1)
    assert str(err_n) == str(err_1)
    assert parameter_bytes(model_n) == parameter_bytes(model_1)  # the first batch's step
    assert threading.active_count() == threads


def test_training_threads_end_when_on_epoch_raises(monkeypatch):
    class Stop(Exception):
        pass

    def stop(stats):
        raise Stop

    _, _, data = tiny_training_setup(n=10)
    threads = threading.active_count()
    with pytest.raises(Stop):
        train_with_cpus(monkeypatch, 2, data, batch_size=4, on_epoch=stop)
    assert threading.active_count() == threads


class FirstSampleLast:
    """A _sample_step whose batches finish out of order.

    With ``hold_first``, each batch's position-0 sample, once stepped, waits
    until position 1 has finished. The positions in ``fail`` of epoch 0's
    second batch raise NumericalError instead of stepping. ``finished``
    records (epoch, batch, position, thread) in finishing order. The batch
    positions are those train_with_cpus's seed gives over three epochs.
    """

    def __init__(self, data, batch_size, hold_first, fail=()):
        self._step = stgcn_net._sample_step
        self.hold_first = hold_first
        self.fail = fail
        self.where = {}
        for epoch in range(3):
            order = np.random.default_rng([5, epoch]).permutation(len(data))
            for k, idx in enumerate(order):
                self.where[epoch, id(data[idx][0])] = (k // batch_size, k % batch_size)
        assert len(data) % batch_size != 1  # every batch has a position 1
        self.second_done = {(epoch, batch): threading.Event()
                            for (epoch, _), (batch, _) in self.where.items()}
        self.finished = []

    def __call__(self, model, loss_scale, epoch, tape, sample):
        batch, pos = self.where[epoch, id(sample[0])]
        try:
            if epoch == 0 and batch == 1 and pos in self.fail:
                raise NumericalError(f"position {pos} of epoch 0's second batch")
            return self._step(model, loss_scale, epoch, tape, sample)
        finally:
            if pos == 0 and self.hold_first:
                assert self.second_done[epoch, batch].wait(timeout=30)
            self.finished.append((epoch, batch, pos, threading.get_ident()))
            if pos == 1:
                self.second_done[epoch, batch].set()


@pytest.mark.parametrize("cpus", [2, 3])
def test_training_adds_in_batch_order_when_the_first_sample_finishes_last(monkeypatch, cpus):
    _, _, data = tiny_training_setup(n=10)
    threads = threading.active_count()
    model_1, stats_1 = train_with_cpus(monkeypatch, 1, data, batch_size=4)
    steps = FirstSampleLast(data, batch_size=4, hold_first=True)
    monkeypatch.setattr(stgcn_net, "_sample_step", steps)
    model_n, stats_n = train_with_cpus(monkeypatch, cpus, data, batch_size=4)
    assert stats_n == stats_1  # bit-identical losses and accuracies
    assert parameter_bytes(model_n) == parameter_bytes(model_1)
    finish_order = [(epoch, batch, pos) for epoch, batch, pos, _ in steps.finished]
    for epoch, batch in steps.second_done:
        assert finish_order.index((epoch, batch, 0)) > finish_order.index((epoch, batch, 1))
    assert 1 < len({thread for *_, thread in steps.finished}) <= min(cpus, 4)
    assert threading.active_count() == threads


@pytest.mark.parametrize("first_fails", [False, True], ids=["later-fails", "both-fail"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_training_raises_the_first_error_in_batch_order(monkeypatch, cpus, first_fails):
    # position 1 of epoch 0's second batch fails while position 0 still runs;
    # position 0 then returns, or fails too
    _, _, data = tiny_training_setup(n=10)
    fail = (0, 1) if first_fails else (1,)
    threads = threading.active_count()
    steps_1 = FirstSampleLast(data, batch_size=4, hold_first=False, fail=fail)
    steps = FirstSampleLast(data, batch_size=4, hold_first=True, fail=fail)
    monkeypatch.setattr(stgcn_net, "_sample_step", steps_1)
    model_1, err_1 = train_with_cpus(monkeypatch, 1, data, batch_size=4)
    monkeypatch.setattr(stgcn_net, "_sample_step", steps)
    model_n, err_n = train_with_cpus(monkeypatch, cpus, data, batch_size=4)
    assert isinstance(err_1, NumericalError) and type(err_n) is type(err_1)
    assert str(err_n) == str(err_1) == f"position {fail[0]} of epoch 0's second batch"
    assert parameter_bytes(model_n) == parameter_bytes(model_1)  # the first batch's step
    finish_order = [(epoch, batch, pos) for epoch, batch, pos, _ in steps.finished]
    assert finish_order.index((0, 1, 0)) > finish_order.index((0, 1, 1))
    assert len({thread for *_, thread in steps.finished}) <= min(cpus, 4)
    assert threading.active_count() == threads


def test_training_learns_separable_toy():
    arch, norm, data = tiny_training_setup()
    model = init_model(arch, norm, seed=5)
    hist = train_model(model, data, epochs=40, base_lr=0.01, momentum=0.95,
                       weight_decay=0.0, decay_epochs=(), gamma=0.1,
                       batch_size=2, seed=5)
    assert hist[-1].train_acc == 1.0
    correct, total, _ = evaluate(model, data)
    assert correct == total


def test_epoch_stats_log_line():
    stats = stgcn_net.EpochStats(epoch=2, lr=0.01, loss=1.5, train_acc=0.75, seconds=0.5)
    line = stats.log_line()
    assert line.startswith("epoch=2 lr=0.01 loss=1.500000 train_acc=0.7500")
    assert "eval_acc" not in line
    assert line == "epoch=2 lr=0.01 loss=1.500000 train_acc=0.7500 time=0.50s"


def tamper_checkpoint(path, edit_header=None, extra=b""):
    data = path.read_bytes()
    end = data.index(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    if edit_header is not None:
        header = edit_header(header)
    path.write_bytes(("\n".join(header) + "\n").encode("ascii") + data[end:] + extra)


def test_checkpoint_byte_length_not_multiple_of_4_is_parse_error(tmp_path):
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model)
    # move two bytes from the adjacency to the next tensor: the total still matches
    def edit(header):
        i = next(i for i, line in enumerate(header) if line.startswith("tensor adjacency "))
        name, n = header[i].rsplit(" ", 1)
        nxt_name, m = header[i + 1].rsplit(" ", 1)
        header[i], header[i + 1] = f"{name} {int(n) - 2}", f"{nxt_name} {int(m) + 2}"
        return header

    tamper_checkpoint(p, edit)
    with pytest.raises(ParseError, match=re.escape("is `tensor adjacency 126`, but save_checkpoint "
                                                   "writes `tensor adjacency 128`")):
        load_checkpoint(p)


def test_checkpoint_duplicate_tensor_is_parse_error(tmp_path):
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model)
    bias = np.asarray(model.classifier_b, dtype="<f4").tobytes()
    tamper_checkpoint(p, lambda h: h + [f"tensor classifier.bias {len(bias)}"], extra=bias)
    with pytest.raises(ParseError, match=re.escape("is `tensor classifier.bias 12`, but "
                                                   "save_checkpoint writes `end_header`")):
        load_checkpoint(p)


def test_checkpoint_extra_tensor_with_its_payload_is_parse_error(tmp_path):
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model)
    tamper_checkpoint(p, lambda h: h + ["tensor bogus 8"], extra=b"\x00" * 8)
    with pytest.raises(ParseError, match=re.escape("is `tensor bogus 8`, but save_checkpoint "
                                                   "writes `end_header`")):
        load_checkpoint(p)


def test_checkpoint_negative_dimension_is_parse_error(tmp_path):
    # the header agrees with itself and the payload has its total length,
    # but the (2, -5, -3) weight and the (-5,) bias are no shapes to cut
    arch = ModelArch(in_channels=-3, block_channels=(-5,), strides=(1,), kernel_size=3,
                     num_classes=2)
    header = stgcn_net._header(arch, 4, 2, {})
    total = sum(int(line.split()[2]) for line in header if line.startswith("tensor "))
    p = tmp_path / "m.fgc"
    p.write_bytes(("\n".join(header) + "\n").encode("ascii") + bytes(total))
    with pytest.raises(ParseError, match="negative tensor dimension"):
        load_checkpoint(p)


def test_checkpoint_trailing_payload_is_parse_error(tmp_path):
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model)
    tamper_checkpoint(p, extra=b"\x00" * 8)
    with pytest.raises(ParseError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_non_ascii_header_is_parse_error(tmp_path):
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model)
    data = bytearray(p.read_bytes())
    data[data.index(b"kernel_size")] = 0xE9
    p.write_bytes(bytes(data))
    with pytest.raises(ParseError, match="non-ASCII"):
        load_checkpoint(p)


def test_checkpoint_bad_meta_value_is_parse_error(tmp_path):
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model, {"epoch": 3})
    tamper_checkpoint(p, lambda h: [("epoch x" if line == "epoch 3" else line) for line in h])
    with pytest.raises(ParseError, match="metadata"):
        load_checkpoint(p)


# headers save_checkpoint never writes: (edit, message)
CHECKPOINT_HEADER_TAMPERS = {
    "version-7": (lambda h: ["version 7" if ln == "version 1" else ln for ln in h],
                  "unsupported FGC1 version '7'"),
    "no-version": (lambda h: [ln for ln in h if ln != "version 1"],
                   "header has no `version` line"),
    "no-k": (lambda h: [ln for ln in h if not ln.startswith("k ")], "header has no `k` line"),
    "extra-key": (lambda h: h + ["bogus 5"],
                  "is `bogus 5`, but save_checkpoint writes `end_header`"),
    "epoch-twice": (lambda h: h + ["epoch 9"],
                    "is `epoch 9`, but save_checkpoint writes `end_header`"),
    "bias-7": (lambda h: ["graph_conv_bias 7" if ln.startswith("graph_conv_bias ") else ln
                          for ln in h],
               "is `graph_conv_bias 7`, but save_checkpoint writes `graph_conv_bias 1`"),
    "J-leading-zero": (lambda h: ["J 0" + ln[2:] if ln.startswith("J ") else ln for ln in h],
                       "is `J 04`, but save_checkpoint writes `J 4`"),
    "version-after-in_channels": (lambda h: [h[0], h[2], h[1]] + h[3:],
                                  "header line 2 is `in_channels 3`, but save_checkpoint "
                                  "writes `version 1`"),
    # headers that agree with themselves, but name an architecture no model has
    "stride-0": (lambda h: [ln.replace("strides 1", "strides 0", 1) for ln in h],
                 "stride must be >= 1"),
    "block_channels-over-strides": (lambda h: [ln + ",5" if ln.startswith("block_channels ")
                                               else ln for ln in h],
                                    "block_channels and strides must have equal length"),
}


@pytest.mark.parametrize("case", list(CHECKPOINT_HEADER_TAMPERS))
def test_checkpoint_header_other_than_saved_is_parse_error(tmp_path, case):
    edit, message = CHECKPOINT_HEADER_TAMPERS[case]
    model, _ = toy_model_and_input(dtype=np.float32)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, model)
    tamper_checkpoint(p, edit)
    with pytest.raises(ParseError, match=re.escape(message)) as exc:
        load_checkpoint(p)
    assert str(exc.value).startswith(f"{p}: ")


def test_checkpoint_even_kernel_is_parse_error(tmp_path):
    # the header and payload save_checkpoint would write for kernel_size 4
    model, _ = toy_model_and_input(dtype=np.float32)
    arch = dataclasses.replace(model.arch, kernel_size=4)
    header = stgcn_net._header(arch, model.J, model.P, {})
    size = sum(math.prod(shape) for _, shape in stgcn_net._tensor_shapes(arch, model.J, model.P))
    p = tmp_path / "m.fgc"
    p.write_bytes(("\n".join(header) + "\n").encode("ascii") + bytes(4 * size))
    with pytest.raises(ParseError, match="temporal kernel size 4 must be odd") as exc:
        load_checkpoint(p)
    assert str(exc.value).startswith(f"{p}: ")


@pytest.mark.parametrize("line, tampered", [("J 3", "J -3"), ("J 3", "J 0"), ("P 2", "P 0")])
def test_checkpoint_nonpositive_j_or_p_is_parse_error(tmp_path, line, tampered):
    # J=3, P=2: the 18 adjacency values also fit a (2, -3, -3) reshape
    g = SpatialGraph(adjacency=np.ones((3, 3), dtype=np.int8) - np.eye(3, dtype=np.int8))
    adjacency = normalize_adjacency(g, partition(g, "distance"))
    arch = ModelArch(in_channels=3, block_channels=(4,), strides=(1,), kernel_size=3,
                     num_classes=2)
    p = tmp_path / "m.fgc"
    save_checkpoint(p, init_model(arch, adjacency, seed=0))
    tamper_checkpoint(p, lambda h: [(tampered if ln == line else ln) for ln in h])
    with pytest.raises(ParseError, match="must both be positive"):
        load_checkpoint(p)
