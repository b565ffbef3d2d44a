"""Spans around the calls into each facegcn layer, kept in memory.

`install` replaces each public function named in LAYERS by a wrapper that
records a span (name, start, end, parent span, work count), both in its own
module and in every facegcn module that imported it by name, so calls are
seen wherever their caller looks the name up. `layer_report` turns the spans
into per-layer calls, self time (span time not covered by child spans) and
work counts.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

# module -> public functions traced
LAYERS = {
    "mesh_core": ("load_mesh", "validate_mesh", "build_edge_graph"),
    "landmark_engine": ("lift_landmarks", "augment_landmarks", "geodesic_path"),
    "patch_features": (
        "build_kd_index", "extract_patch", "build_sequence_tensor", "save_tensor", "load_tensor",
    ),
    "st_graph": ("build_spatial_edges", "partition", "normalize_adjacency", "load_graph"),
    "stgcn_net": (
        "graph_conv", "temporal_conv", "forward", "backward", "cross_entropy",
        "predict", "load_checkpoint", "init_model", "train_model",
    ),
    "dataset_synth": ("build_dataset", "generate_sequence"),
}


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _graph_conv_flop(args, kwargs, result):
    # sum_p M_p (W_p f): per partition one (c_out x c_in) and one (J x J) matmul
    f_in, params = args[0], args[1]
    p, c_out, c_in = params.weights.shape
    cols = f_in.size // c_in
    j = f_in.shape[-2]
    return 2 * p * c_out * cols * (c_in + j)


def _temporal_conv_flop(args, kwargs, result):
    f, params = args[0], args[1]
    c_out, c_in, k = params.kernel.shape
    return 2 * result.size * c_in * k


# span name -> (work count name, count from (args, kwargs, result))
ATTRIBUTES = {
    "mesh_core.load_mesh": ("bytes", _file_bytes),
    "patch_features.load_tensor": ("bytes", _file_bytes),
    "patch_features.save_tensor": ("bytes", _saved_bytes),
    "landmark_engine.geodesic_path": ("path_vertices", lambda a, k, r: len(r.vertices)),
    "landmark_engine.augment_landmarks": ("skipped", lambda a, k, r: len(r.skipped)),
    "stgcn_net.graph_conv": ("flop", _graph_conv_flop),
    "stgcn_net.temporal_conv": ("flop", _temporal_conv_flop),
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # seconds, as perf_counter() but without the benchmark's probe time
        self.spans: list = []  # [name, start, end, parent index, work count]
        self._stack: list[int] = []
        self.paused = False

    def wrap(self, name, fn):
        count = ATTRIBUTES.get(name, (None, None))[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function where its callers look it up."""
    modules = {m: importlib.import_module(f"facegcn.{m}") for m in LAYERS}
    for mod_name, names in LAYERS.items():
        for fn_name in names:
            original = getattr(modules[mod_name], fn_name)
            traced = tracer.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                for attr, value in vars(mod).items():
                    if value is original:
                        setattr(mod, attr, traced)
    sgd = modules["stgcn_net"].SGD
    sgd.step = tracer.wrap("stgcn_net.SGD.step", sgd.step)


def layer_report(spans, frames: int) -> dict[str, float]:
    """Per-layer metrics from recorded spans; `frames` is the per-frame base."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    work = defaultdict(int)
    for i, (name, start, end, parent, count) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        total_s[name] += end - start
        work[name] += count

    names = [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns] + ["stgcn_net.SGD.step"]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name, (key, _) in ATTRIBUTES.items():
        out[f"{name}.{key}"] = work[name]
    out["mesh_core.load_mesh.mb_per_s"] = _ratio(
        work["mesh_core.load_mesh"] / 1e6, total_s["mesh_core.load_mesh"])
    for name in ("mesh_core.validate_mesh", "landmark_engine.geodesic_path",
                 "patch_features.extract_patch"):
        out[f"{name}.calls_per_frame"] = _ratio(calls[name], frames)
    for name in ("stgcn_net.graph_conv", "stgcn_net.temporal_conv"):
        gflop = out.pop(f"{name}.flop") / 1e9
        out[f"{name}.gflop"] = gflop
        out[f"{name}.gflop_per_call"] = _ratio(gflop, calls[name])
        out[f"{name}.gflop_per_s"] = _ratio(gflop, self_s[name])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
