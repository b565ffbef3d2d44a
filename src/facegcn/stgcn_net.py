"""Spatio-temporal graph convolutional network on dense (C, J, T) tensors.

Everything is plain numpy with hand-written reverse-mode gradients: the
spatial graph convolution in normalized-adjacency matrix form, temporal
convolution of odd kernel K with stride and symmetric zero padding, ReLU,
global average pooling, an affine classifier, stabilized cross-entropy, and
SGD with momentum, weight decay and a step-decay learning rate.

Training runs in float32; gradient-check suites build float64 models. A
GradientTape records the forward activations of one sequence; backward()
replays it exactly.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np

from . import parallel
from .errors import (
    LabelOutOfRange,
    NumericalError,
    ParseError,
    PartitionMismatch,
    ShapeMismatch,
    TapeIncomplete,
)
from .fileio import write_atomic

# Tensor3 = float array of shape (C, J, T); plain np.ndarray throughout.


# ---------------------------------------------------------------------------
# parameters and model


@dataclass
class GraphConvParams:
    weights: np.ndarray  # (P, C_out, C_in)
    bias: np.ndarray | None = None  # (C_out,)

    @property
    def P(self) -> int:
        return self.weights.shape[0]

    @property
    def c_out(self) -> int:
        return self.weights.shape[1]

    @property
    def c_in(self) -> int:
        return self.weights.shape[2]


@dataclass
class TemporalConvParams:
    kernel: np.ndarray  # (C_out, C_in, K)
    stride: int = 1

    def __post_init__(self):
        if self.kernel.shape[2] % 2 == 0:
            raise ShapeMismatch(f"temporal kernel size {self.kernel.shape[2]} must be odd")
        if self.stride < 1:
            raise ShapeMismatch("stride must be >= 1")

    @property
    def K(self) -> int:
        return self.kernel.shape[2]


@dataclass
class Block:
    gconv: GraphConvParams
    tconv: TemporalConvParams
    residual: bool = True  # applied only when input/output shapes match


@dataclass(frozen=True)
class ModelArch:
    in_channels: int
    block_channels: tuple[int, ...] = (64, 128, 256)
    strides: tuple[int, ...] = (1, 2, 2)
    kernel_size: int = 5
    num_classes: int = 2
    graph_conv_bias: bool = True
    residual: bool = True


@dataclass
class Model:
    arch: ModelArch
    adjacency: np.ndarray  # (P, J, J), model dtype, frozen
    blocks: list[Block]
    classifier_w: np.ndarray  # (num_classes, C_last)
    classifier_b: np.ndarray  # (num_classes,)
    dtype: np.dtype = np.dtype(np.float32)

    @property
    def J(self) -> int:
        return self.adjacency.shape[1]

    @property
    def P(self) -> int:
        return self.adjacency.shape[0]

    def parameters(self):
        """Yield (name, array) in declaration order; arrays update in place."""
        for bi, block in enumerate(self.blocks):
            yield f"block{bi}.gconv.weight", block.gconv.weights
            if block.gconv.bias is not None:
                yield f"block{bi}.gconv.bias", block.gconv.bias
            yield f"block{bi}.tconv.kernel", block.tconv.kernel
        yield "classifier.weight", self.classifier_w
        yield "classifier.bias", self.classifier_b


def _layout(arch: ModelArch, p_count: int):
    """Yield (name, shape, fan_in, fan_out) in Model.parameters() order.

    fan_in is None for the biases, which start at zero.
    """
    if len(arch.block_channels) != len(arch.strides):
        raise ShapeMismatch("block_channels and strides must have equal length")
    c_in, k = arch.in_channels, arch.kernel_size
    for bi, c_out in enumerate(arch.block_channels):
        yield f"block{bi}.gconv.weight", (p_count, c_out, c_in), c_in, c_out
        if arch.graph_conv_bias:
            yield f"block{bi}.gconv.bias", (c_out,), None, None
        yield f"block{bi}.tconv.kernel", (c_out, c_out, k), c_out * k, c_out
        c_in = c_out
    yield "classifier.weight", (arch.num_classes, c_in), c_in, arch.num_classes
    yield "classifier.bias", (arch.num_classes,), None, None


def _build_model(arch: ModelArch, adjacency, params: dict, dtype) -> Model:
    blocks = [
        Block(
            gconv=GraphConvParams(weights=params[f"block{bi}.gconv.weight"],
                                  bias=params.get(f"block{bi}.gconv.bias")),
            tconv=TemporalConvParams(kernel=params[f"block{bi}.tconv.kernel"], stride=stride),
            residual=arch.residual,
        )
        for bi, stride in enumerate(arch.strides)
    ]
    return Model(arch=arch, adjacency=adjacency, blocks=blocks,
                 classifier_w=params["classifier.weight"],
                 classifier_b=params["classifier.bias"], dtype=dtype)


def init_model(
    arch: ModelArch,
    adjacency: np.ndarray,
    seed: int = 0,
    dtype=np.float32,
) -> Model:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)) per weight matrix."""
    dtype = np.dtype(dtype)
    rng = np.random.default_rng(seed)
    adjacency = np.ascontiguousarray(adjacency, dtype=dtype)
    adjacency.flags.writeable = False

    def init(shape, fan_in, fan_out):
        if fan_in is None:
            return np.zeros(shape, dtype=dtype)
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    params = {name: init(*spec) for name, *spec in _layout(arch, adjacency.shape[0])}
    return _build_model(arch, adjacency, params, dtype)


# ---------------------------------------------------------------------------
# functional ops


def _diagonal(m: np.ndarray) -> np.ndarray | None:
    """m's diagonal if no entry off it is nonzero, else None."""
    d = np.diagonal(m)
    return d if np.count_nonzero(m) == np.count_nonzero(d) else None


def graph_conv(f_in: np.ndarray, params: GraphConvParams, matrices: np.ndarray) -> np.ndarray:
    """Matrix-form spatial graph convolution: sum_p M_p (W_p f_in).

    All P channel products W_p f_in are one (P*C_out, C_in) @ (C_in, J*T)
    GEMM over the stacked weights; each of its rows has the bytes of the
    same row of W_p @ f_in alone, as the tensordot reference test checks.
    Each partition's mix is added, in partition order, into a zeroed
    (C_out, J, T) output, then the bias is added in place. A diagonal M_p
    (the distance partition's root subset) scales the nodes of W_p f_in; any
    other M_p is the (J, J) @ (J, C_out*T) GEMM of tensordot(m, tmp, ([1], [1])).
    A diagonal row's product is that GEMM's one nonzero term, and the sum
    starts from +0 either way, so both give the bytes of the tensordot form.
    """
    if matrices.shape[0] != params.P:
        raise PartitionMismatch(
            f"{matrices.shape[0]} adjacency matrices for {params.P} weight matrices"
        )
    c_in, j_count, t_count = f_in.shape
    if c_in != params.c_in or matrices.shape[1] != j_count:
        raise ShapeMismatch(
            f"input {f_in.shape} incompatible with weights {params.weights.shape} "
            f"and adjacency J={matrices.shape[1]}"
        )
    c_out = params.c_out
    flat = f_in.reshape(c_in, j_count * t_count)
    stacked = (params.weights.reshape(params.P * c_out, c_in) @ flat).reshape(
        params.P, c_out, j_count, t_count
    )
    out = np.zeros((c_out, j_count, t_count), dtype=f_in.dtype)
    for p, tmp in enumerate(stacked):
        diag = _diagonal(matrices[p])
        if diag is not None:
            tmp *= diag[:, None]
            out += tmp
        else:
            mixed = np.dot(matrices[p], tmp.transpose(1, 0, 2).reshape(j_count, c_out * t_count))
            out += mixed.reshape(j_count, c_out, t_count).transpose(1, 0, 2)
    if params.bias is not None:
        out += params.bias[:, None, None]
    return out


def _graph_conv_backward(g, f_in, params: GraphConvParams, matrices, input_grad):
    """(d_in, dw, db); d_in is None when input_grad is false.

    Each partition's M_p.T g is written into one (P, C_out, J*T) stack; a
    diagonal M_p scales the nodes of g, as in graph_conv. dw is one GEMM of
    that stack with f_in; it has the bytes of P per-partition products in
    float32, and in float64 on one BLAS thread (a multi-threaded OpenBLAS
    dgemm may round the two differently, as it rounds each differently from
    its one-thread result). d_in adds W_p.T (M_p.T g), partition by
    partition, into zeros.
    """
    c_in, j_count, t_count = f_in.shape
    c_out = params.c_out
    flat_in = f_in.reshape(c_in, j_count * t_count)
    dtmp = np.empty((params.P, c_out, j_count, t_count), dtype=g.dtype)
    for p, out in enumerate(dtmp):
        diag = _diagonal(matrices[p])
        if diag is not None:
            np.multiply(g, diag[:, None], out=out)
        else:
            np.matmul(matrices[p].T, g, out=out)
    dtmp = dtmp.reshape(params.P, c_out, j_count * t_count)
    dw = (dtmp.reshape(-1, j_count * t_count) @ flat_in.T).reshape(params.weights.shape)
    db = g.sum(axis=(1, 2)) if params.bias is not None else None
    if not input_grad:
        return None, dw, db
    d_in_flat = np.zeros_like(flat_in)
    for p in range(params.P):
        d_in_flat += params.weights[p].T @ dtmp[p]
    return d_in_flat.reshape(f_in.shape), dw, db


def _unfold_time(f: np.ndarray, kernel_size: int, stride: int):
    """Gather the K taps along T: (C*K, J*T_out) column matrix.

    Output step o of tap k reads time o*stride + k - K//2. Each tap copies
    its in-range steps straight from f and zeroes the steps that fall in
    the K//2 zero padding on either side.
    """
    c_in, j_count, t_count = f.shape
    pad = kernel_size // 2
    t_out = (t_count - 1) // stride + 1
    cols = np.empty((c_in, kernel_size, j_count, t_out), dtype=f.dtype)
    for tap in range(kernel_size):
        shift = tap - pad
        # in-range steps o_lo <= o < o_hi: 0 <= o*stride + shift < t_count
        o_lo = min(-(shift // stride), t_out) if shift < 0 else 0
        o_hi = max(min(-((shift - t_count) // stride), t_out), o_lo)
        cols[:, tap, :, :o_lo] = 0
        cols[:, tap, :, o_hi:] = 0
        if o_hi > o_lo:
            t0 = o_lo * stride + shift
            cols[:, tap, :, o_lo:o_hi] = f[:, :, t0 : t0 + stride * (o_hi - o_lo - 1) + 1 : stride]
    return cols.reshape(c_in * kernel_size, j_count * t_out), t_out


def temporal_conv(f: np.ndarray, params: TemporalConvParams) -> np.ndarray:
    """1-D convolution along T with zero padding K//2 and stride s."""
    c_in, j_count, _ = f.shape
    if params.kernel.shape[1] != c_in:
        raise ShapeMismatch(
            f"kernel expects {params.kernel.shape[1]} channels, input has {c_in}"
        )
    cols, t_out = _unfold_time(f, params.K, params.stride)
    c_out = params.kernel.shape[0]
    out = params.kernel.reshape(c_out, c_in * params.K) @ cols
    return out.reshape(c_out, j_count, t_out)


def _temporal_conv_backward(g, f, params: TemporalConvParams):
    """(dx, dk); dx is a (C_in, J, T) view of a (J, T, C_in) buffer.

    dk is one GEMM over the forward's columns. The dx products are one GEMM
    in (J*T_out, C_in*K) layout, added tap by tap, in tap order, into a
    zeroed time-major buffer, so each += runs J*T_out rows of C_in elements.
    Each element sums the same products in the same order as the im2col
    reference, so the bytes are the same.
    """
    c_in, j_count, t_count = f.shape
    pad = params.K // 2
    s = params.stride
    t_out = g.shape[2]
    c_out = params.kernel.shape[0]
    g_flat = g.reshape(c_out, j_count * t_out)

    cols, _ = _unfold_time(f, params.K, s)
    dk = (g_flat @ cols.T).reshape(params.kernel.shape)
    del cols  # as large as dcols; every sample in flight would hold both
    dcols = (g_flat.T @ params.kernel.reshape(c_out, c_in * params.K)).reshape(
        j_count, t_out, c_in, params.K
    )
    dxp = np.zeros((j_count, t_count + 2 * pad, c_in), dtype=f.dtype)
    for tap in range(params.K):
        dxp[:, tap : tap + s * (t_out - 1) + 1 : s] += dcols[..., tap]
    return dxp[:, pad : pad + t_count].transpose(2, 0, 1), dk


def cross_entropy(logits: np.ndarray, label: int, tape: "GradientTape | None" = None) -> float:
    """-log p[label] for p = exp(z) / sum(exp(z)), z = logits - max(logits)."""
    n = logits.shape[0]
    if not (0 <= label < n):
        raise LabelOutOfRange(f"label {label} outside [0, {n})")
    z = logits - logits.max()
    logsumexp = np.log(np.exp(z).sum())
    loss = float(logsumexp - z[label])
    if tape is not None:
        tape.probs = np.exp(z - logsumexp)
        tape.label = int(label)
    return loss


# ---------------------------------------------------------------------------
# forward / backward


@dataclass
class GradientTape:
    """Forward record of one sequence, enough for exact reverse mode.

    ``activations`` is [x_0, a_0, x_1, a_1, ..., x_L]: block b reads x_b,
    a_b is its graph-conv ReLU output and x_{b+1} its output. backward
    derives the ReLU masks, residual use and the pooled vector from them.
    """

    model: Model | None = None
    activations: list[np.ndarray] = field(default_factory=list)
    probs: np.ndarray | None = None
    label: int | None = None


def forward(model: Model, features: np.ndarray, tape: GradientTape | None = None) -> np.ndarray:
    """Run the block stack, global average pool, and classifier; return logits."""
    x = np.ascontiguousarray(features, dtype=model.dtype)
    if x.ndim != 3:
        raise ShapeMismatch(f"features must be (C, J, T), got {x.shape}")
    if x.shape[0] != model.arch.in_channels or x.shape[1] != model.J:
        raise ShapeMismatch(
            f"features {x.shape} incompatible with model "
            f"(C_in={model.arch.in_channels}, J={model.J})"
        )
    if tape is not None:
        tape.model = model
        tape.activations = [x]

    for block in model.blocks:
        # graph_conv and temporal_conv return new arrays, so the ReLUs and
        # the residual add run in place on them; x, maybe the caller's
        # features, is only read
        a = graph_conv(x, block.gconv, model.adjacency)
        a *= a > 0
        z = temporal_conv(a, block.tconv)
        if block.residual and z.shape == x.shape:
            z += x
        z *= z > 0
        x = z
        if tape is not None:
            tape.activations += [a, x]

    logits = model.classifier_w @ x.mean(axis=(1, 2)) + model.classifier_b
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite logits")
    return logits


def backward(tape: GradientTape, loss_scale: float = 1.0):
    """Exact reverse-mode gradients of (loss_scale * loss).

    Returns a dict mapping each parameter name to its gradient, in
    Model.parameters() order. Block 0's input gradient is never formed.

    The masks are read off the activations: a = g*[g > 0] is > 0 exactly
    where g > 0 (NaN*0 is NaN, which is not > 0), and likewise for x and z,
    so each derived mask equals the one forward used, bit for bit; the
    pooled vector is forward's own mean of the same array.
    """
    if tape.model is None or tape.probs is None or tape.label is None:
        raise TapeIncomplete("forward pass and cross_entropy must be recorded first")
    model = tape.model
    grads = {}

    dlogits = tape.probs.astype(model.dtype).copy()
    dlogits[tape.label] -= 1.0
    if loss_scale != 1.0:
        dlogits *= model.dtype.type(loss_scale)

    acts = tape.activations
    grads["classifier.weight"] = np.outer(dlogits, acts[-1].mean(axis=(1, 2)))
    grads["classifier.bias"] = dlogits
    dpooled = model.classifier_w.T @ dlogits

    _, j_count, t_count = acts[-1].shape
    dx = np.broadcast_to(
        dpooled[:, None, None] / (j_count * t_count),
        (dpooled.shape[0], j_count, t_count),
    ).astype(model.dtype)

    for bi in range(len(model.blocks) - 1, -1, -1):
        block = model.blocks[bi]
        f_in, a, x_out = acts[2 * bi : 2 * bi + 3]
        dz = dx
        dz *= x_out > 0  # dx is not read again, so dz takes its place
        dres = dz if block.residual and x_out.shape == f_in.shape else None
        da, dk = _temporal_conv_backward(dz, a, block.tconv)
        del dx, dz  # dres keeps dz when the residual needs it
        grads[f"block{bi}.tconv.kernel"] = dk
        # every sample train_model has in flight holds what is alive here, so
        # da and dg go once used (0.4 MB less per sample at the defaults); da
        # is a transposed view, and dg is formed C-contiguous so that the
        # node-mix matmul sees the layout its bytes were pinned with
        dg = np.multiply(da, a > 0, order="C")
        del da
        d_in, dw, db = _graph_conv_backward(dg, f_in, block.gconv, model.adjacency,
                                            input_grad=bi > 0)
        del dg
        grads[f"block{bi}.gconv.weight"] = dw
        if db is not None:
            grads[f"block{bi}.gconv.bias"] = db
        if dres is not None and d_in is not None:
            d_in += dres
        dx = d_in
    return {name: grads[name] for name, _ in model.parameters()}


# ---------------------------------------------------------------------------
# optimizer


def sgd_step(param, grad, velocity, scratch, lr, momentum=0.0, weight_decay=0.0):
    """v <- mu v + g + lambda theta; theta <- theta - lr v. In place.

    ``scratch``, shaped like param, holds lambda theta and then lr v, so the
    step allocates nothing.
    """
    np.multiply(velocity, momentum, out=velocity)
    velocity += grad
    if weight_decay:
        velocity += np.multiply(param, weight_decay, out=scratch)
    param -= np.multiply(velocity, lr, out=scratch)


class SGD:
    """Momentum SGD over a model's parameter set, deterministic and in place."""

    def __init__(self, momentum: float, weight_decay: float):
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._state: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, model: Model, grads: dict[str, np.ndarray], lr: float) -> None:
        if lr <= 0:
            raise ValueError("lr must be > 0")
        for name, param in model.parameters():
            state = self._state.get(name)
            if state is None:
                state = self._state[name] = (np.zeros_like(param), np.empty_like(param))
            sgd_step(param, grads[name], *state, lr, self.momentum, self.weight_decay)


def lr_schedule(epoch: int, base_lr: float, decay_epochs, gamma: float) -> float:
    """Step decay: base_lr * gamma^(number of decay epochs already reached)."""
    n = sum(1 for d in decay_epochs if epoch >= d)
    return base_lr * gamma**n


# ---------------------------------------------------------------------------
# checkpoint (FGC1): text header with architecture and per-tensor byte
# lengths, then raw little-endian float32 payload in declaration order

_END_HEADER = b"\nend_header\n"
# a header value read back as the ModelArch field type that rendered it
_ARCH_VALUE = {"int": int, "bool": lambda text: bool(int(text)),
               "tuple[int, ...]": lambda text: tuple(int(v) for v in text.split(","))}


def _tensor_shapes(arch: ModelArch, j_count: int, p_count: int) -> list[tuple[str, tuple]]:
    """(name, shape) of each saved tensor in payload order: adjacency, then parameters."""
    layout = [(name, shape) for name, shape, _, _ in _layout(arch, p_count)]
    return [("adjacency", (p_count, j_count, j_count))] + layout


def _header(arch: ModelArch, j_count: int, p_count: int, meta: dict) -> list[str]:
    """The header lines save_checkpoint writes, `FGC1` through `end_header`."""
    lines = ["FGC1", "version 1"] + [
        f"{name} " + ",".join(str(int(v)) for v in (value if isinstance(value, tuple) else [value]))
        for name, value in asdict(arch).items()
    ]
    lines += [f"J {j_count}", f"P {p_count}"]
    lines += [f"{key} {int(meta.get(key, 0))}" for key in ("k", "seed", "epoch")]
    lines += [f"tensor {name} {4 * math.prod(shape)}"
              for name, shape in _tensor_shapes(arch, j_count, p_count)]
    return lines + ["end_header"]


def save_checkpoint(path, model: Model, meta: dict | None = None) -> None:
    header = _header(model.arch, model.J, model.P, meta or {})
    tensors = [model.adjacency] + [arr for _, arr in model.parameters()]
    payload = b"".join(np.ascontiguousarray(arr, dtype="<f4").tobytes() for arr in tensors)
    write_atomic(path, ("\n".join(header) + "\n").encode("ascii") + payload)


def load_checkpoint(path) -> tuple[Model, dict]:
    """Read an FGC1 file whose header is exactly the one save_checkpoint writes.

    The header is rendered again from the first line of each key, and the
    first line that differs is a ParseError naming the line expected there.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(_END_HEADER)
    if end < 0 or not data.startswith(b"FGC1\n"):
        raise ParseError("not an FGC1 checkpoint", path=path)
    try:
        found = data[:end].decode("ascii").split("\n") + ["end_header"]
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte in header at offset {exc.start}", path=path)
    values = dict(line.partition(" ")[::2] for line in reversed(found))  # first line wins

    def value(key, parse=int):
        if key not in values:
            raise ParseError(f"header has no `{key}` line", path=path)
        try:
            return parse(values[key])
        except ValueError:
            raise ParseError(f"bad checkpoint metadata: `{key} {values[key]}`", path=path)

    if value("version", str) != "1":
        raise ParseError(f"unsupported FGC1 version {values['version']!r}", path=path)
    arch = ModelArch(**{f.name: value(f.name, _ARCH_VALUE[f.type]) for f in fields(ModelArch)})
    j_count, p_count = value("J"), value("P")
    meta = {key: value(key) for key in ("k", "seed", "epoch")}
    if j_count < 1 or p_count < 1:
        raise ParseError(f"J={j_count} and P={p_count} must both be positive", path=path)
    try:  # a header that agrees with itself may still name no buildable model
        shapes = _tensor_shapes(arch, j_count, p_count)
    except ShapeMismatch as exc:
        raise ParseError(str(exc), path=path)
    if any(d < 0 for _, shape in shapes for d in shape):
        raise ParseError(f"negative tensor dimension in {arch}", path=path)
    for n, (got, want) in enumerate(zip(found, _header(arch, j_count, p_count, meta)), 1):
        if got != want:
            raise ParseError(f"header line {n} is `{got}`, but save_checkpoint writes `{want}`",
                             path=path)

    body = memoryview(data)[end + len(_END_HEADER):]
    sizes = [math.prod(shape) for _, shape in shapes]
    if len(body) < 4 * sum(sizes):
        raise ParseError(f"truncated payload: {len(body)} of {4 * sum(sizes)} bytes", path=path)
    if len(body) > 4 * sum(sizes):
        raise ParseError(f"{len(body) - 4 * sum(sizes)} trailing payload bytes", path=path)
    flat = np.frombuffer(body, dtype="<f4").astype(np.float32)
    arrays = {name: part.reshape(shape)
              for part, (name, shape) in zip(np.split(flat, list(accumulate(sizes))[:-1]), shapes)}
    arrays["adjacency"].flags.writeable = False
    try:
        return _build_model(arch, arrays["adjacency"], arrays, np.dtype(np.float32)), meta
    except ShapeMismatch as exc:
        raise ParseError(str(exc), path=path)


# ---------------------------------------------------------------------------
# training loop


@dataclass
class EpochStats:
    epoch: int
    lr: float
    loss: float
    train_acc: float
    seconds: float

    def log_line(self) -> str:
        return (f"epoch={self.epoch} lr={self.lr:.6g} loss={self.loss:.6f} "
                f"train_acc={self.train_acc:.4f} time={self.seconds:.2f}s")


def predict(model: Model, features: np.ndarray) -> int:
    return int(np.argmax(forward(model, features)))


def evaluate(model: Model, samples) -> tuple[int, int, list[int]]:
    """(correct, total, predictions) over (features, label) pairs."""
    preds = []
    correct = 0
    for features, label in samples:
        p = predict(model, features)
        preds.append(p)
        correct += int(p == label)
    return correct, len(preds), preds


def _sample_step(model: Model, loss_scale: float, epoch: int, tape: GradientTape, sample):
    """(loss, hit, grads) of one (features, label) pair; grads are scaled by loss_scale.

    ``tape`` is the one this thread's previous sample used, so its arrays
    are freed just as this forward allocates them again. Freed before the
    gradients are added up, they let the allocator hand the heap top back to
    the OS and fault it in again for every sample: 5x the page faults and
    1.5 ms more per sample at the defaults.
    """
    features, label = sample
    logits = forward(model, features, tape=tape)
    loss = cross_entropy(logits, label, tape=tape)
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss at epoch {epoch}")
    grads = backward(tape, loss_scale=loss_scale)
    return loss, int(np.argmax(logits) == label), grads


class _InOrder:
    """Runs each batch's samples on ``threads`` threads and adds their results in batch order.

    The calling thread is one of them; the others start on entry and end on
    exit. Each thread takes the batch's next sample as soon as it is free and
    steps it with its own tape. Once every earlier sample of the batch is
    added, it adds that sample's loss to ``loss``, its hit to ``correct`` and
    its gradients to ``acc``, which the batch's first sample zeroes, so every
    sum has batch order for any thread count. ``run`` returns when the whole
    batch is added; a sample's error is raised there once every earlier
    sample is added, and no sample of the batch starts after it.
    """

    def __init__(self, acc: dict[str, np.ndarray], threads: int):
        self.acc = acc
        self.loss = 0.0
        self.correct = 0
        self._tape = GradientTape()
        self._cond = threading.Condition()
        self._step = None
        self._items: list = []
        self._taken = self._added = 0
        self._error: BaseException | None = None
        self._closed = False
        self._workers = [
            threading.Thread(target=self._work, name=f"facegcn-train-{k}")
            for k in range(1, threads)
        ]

    def __enter__(self):
        for worker in self._workers:
            worker.start()
        return self

    def __exit__(self, *exc_info):
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join()

    def run(self, step, items: list) -> None:
        """Add step(tape, item) for every item, in order."""
        with self._cond:
            self._step, self._items = step, items
            self._taken = self._added = 0
            self._cond.notify_all()
        self._take(self._tape)
        with self._cond:
            self._cond.wait_for(lambda: self._added == len(items) or self._error is not None)
            if self._error is not None:
                raise self._error

    def _work(self) -> None:
        """A worker thread: take samples from each batch until exit."""
        tape = GradientTape()
        while True:
            with self._cond:
                self._cond.wait_for(lambda: self._closed or self._taken < len(self._items))
                if self._closed:
                    return
            self._take(tape)

    def _take(self, tape: GradientTape) -> None:
        """Step and add the batch's next sample until none is left to take."""
        cond = self._cond
        while True:
            with cond:
                if self._closed or self._taken == len(self._items):
                    return
                i, step, item = self._taken, self._step, self._items[self._taken]
                self._taken += 1
            try:
                loss, hit, grads = step(tape, item)
                error = None
            except BaseException as exc:  # raised in the caller, in batch order
                error = exc
            with cond:
                cond.wait_for(lambda: self._added == i or self._error is not None or self._closed)
                if self._added != i:
                    continue  # an earlier sample failed, or training is over
                if error is not None:
                    self._error = error
                    self._taken = len(self._items)
                    cond.notify_all()
                    continue
            # this sample's turn: no other thread adds until _added moves on
            self.loss += loss
            self.correct += hit
            for name, g in grads.items():
                if i == 0:
                    self.acc[name].fill(0)
                self.acc[name] += g
            # held, these gradients would stay alive through the next
            # sample's forward and backward (+2 MB peak RSS at the defaults)
            del grads
            with cond:
                self._added += 1
                cond.notify_all()


def train_model(
    model: Model,
    train_samples,
    *,
    epochs: int,
    base_lr: float = 0.01,
    momentum: float = 0.95,
    weight_decay: float = 0.0,
    decay_epochs=(),
    gamma: float = 0.1,
    batch_size: int = 8,
    seed: int = 0,
    on_epoch=None,
) -> list[EpochStats]:
    """SGD training over (features, label) pairs; deterministic given the seed.

    The epoch shuffle is drawn from default_rng([seed, epoch]). The samples
    of a mini-batch run on min(batch_size, usable CPUs) threads, the calling
    one included; each thread takes the next sample as soon as it is free,
    and all read the same parameters. A thread adds its sample's gradients,
    loss and hit once every earlier sample's are added, and the first error
    is raised in that order too, so parameters, losses and stats are
    byte-identical for any CPU count; with one CPU the calling thread runs
    the same loop alone. The gradients accumulate in buffers reused for
    every batch. Every thread ends before this returns or raises, an error
    from on_epoch included.
    """
    if base_lr <= 0:
        raise ValueError("base_lr must be > 0")
    opt = SGD(momentum=momentum, weight_decay=weight_decay)
    history: list[EpochStats] = []
    n = len(train_samples)
    acc = {name: np.empty_like(arr) for name, arr in model.parameters()}
    with _InOrder(acc, min(batch_size, parallel.usable_cpus())) as batches:
        for epoch in range(epochs):
            t0 = time.perf_counter()
            lr = lr_schedule(epoch, base_lr, decay_epochs, gamma)
            order = np.random.default_rng([seed, epoch]).permutation(n)
            batches.loss, batches.correct = 0.0, 0
            for start in range(0, n, batch_size):
                batch = [train_samples[int(idx)] for idx in order[start : start + batch_size]]
                batches.run(partial(_sample_step, model, 1.0 / len(batch), epoch), batch)
                opt.step(model, acc, lr)
            stats = EpochStats(
                epoch=epoch,
                lr=lr,
                loss=batches.loss / max(n, 1),
                train_acc=batches.correct / max(n, 1),
                seconds=time.perf_counter() - t0,
            )
            history.append(stats)
            if on_epoch is not None:
                on_epoch(stats)
    return history
