"""One workload process: set up, warm up, run the timed closed loop, check outputs.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --inputs DIR
        --scratch DIR --out RESULT.json --t0 T0 [--setup-only] [--spans SPANS.json]

`--t0` is the caller's time.monotonic() just before it started this process,
so `setup_s` covers interpreter start, imports, input loading, graph and model
build and one untimed warm-up unit. Only the unit's own work is timed; the
correctness checks after each unit are not (identify's range check on each
predicted class is the exception). Every time is also reported in
reference seconds (see SpeedProbe). The result (a JSON object) goes to
`--out`; with `--spans` the process traces every facegcn layer call and
writes the spans there at exit.

The `quality` workload evaluates the desk checkpoint on its held-out side.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

PROBE_PERIOD_S = 0.02
# A reference second is the time in which a SpeedProbe sample would read
# 1 / REF_NOMINAL_S times; the constant only sets the scale of the unit.
REF_NOMINAL_S = 0.0001
IDENTIFY_BLOCK = 50  # predict calls per timed unit, long enough for ~10 probes


class StopTraining(Exception):
    """Raised from the epoch callback to end the training loop."""


class SpeedProbe:
    """Machine speed sampled every PROBE_PERIOD_S while the work runs.

    The host of a small VM slows each vCPU by up to ~1.6x, independently per
    vCPU and in phases of a fraction of a second, so one probe next to a unit
    misses most of what the unit saw. A SIGALRM handler runs the reference
    kernel on the same thread, between the program's bytecodes, every
    PROBE_PERIOD_S; its time is kept out of `now()`, and the samples taken
    during a unit scale that unit's time to reference seconds. The program
    shares no state with the handler.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._mat = rng.standard_normal((96, 96)).astype(np.float32)
        self._vec = rng.standard_normal(64)
        self._big = rng.standard_normal(1 << 18)  # 2 MB
        self._dst = np.empty_like(self._big)
        self.samples: list[float] = []
        self.spent = 0.0

    def reference_kernel(self) -> tuple[float, float]:
        """(sample, seconds taken) of five fixed parts, ~0.5 ms in all.

        The parts are an integer loop, small NumPy calls, heap and dict
        operations, float32 matmuls and a 2 MB copy. The host's slowdowns hit
        them unequally, and so the workloads: the interpreter-bound parts
        track desk-synth and scan-ingest best, the matmul and copy track train
        and identify. The sample is the geometric mean of the part times.
        """
        import numpy as np

        parts = []
        t = t0 = time.perf_counter()
        total = 0
        for i in range(1500):
            total += i * i
        parts.append(time.perf_counter() - t)
        t = time.perf_counter()
        for _ in range(40):
            (self._vec + self._vec).sum()
        parts.append(time.perf_counter() - t)
        t = time.perf_counter()
        heap, seen = [], {}
        for i in range(300):
            heapq.heappush(heap, (i * 7919) % 301)
            seen[i] = i
        while heap:
            heapq.heappop(heap)
        parts.append(time.perf_counter() - t)
        t = time.perf_counter()
        for _ in range(2):
            self._mat @ self._mat
        parts.append(time.perf_counter() - t)
        t = time.perf_counter()
        np.copyto(self._dst, self._big)
        end = time.perf_counter()
        parts.append(end - t)
        return statistics.geometric_mean(parts), end - t0

    def _sample(self, signum, frame) -> None:
        sample, seconds = self.reference_kernel()
        self.samples.append(sample)
        self.spent += seconds

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def now(self) -> float:
        """perf_counter() without the time spent in the probe."""
        return time.perf_counter() - self.spent

    def ref_seconds(self, seconds: float, first_sample: int) -> float:
        """`seconds` of work in reference seconds, by the samples from first_sample on."""
        got = self.samples[first_sample:] or [self.reference_kernel()[0]]
        return seconds * REF_NOMINAL_S / statistics.mean(got)


class Run:
    """Counters and timings one workload process reports."""

    def __init__(self, args, probe: SpeedProbe):
        self.args = args
        self.probe = probe
        self.setup_s = None
        self.setup_ref_s = None
        self.units = 0
        self.frames = 0  # warm-up and timed frames, the per-frame base of counts
        self.timed_frames = 0
        self.timed_s = 0.0
        self.unit_rates: list[float] = []  # frames per reference second, per timed unit
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.info: dict = {}
        self.tracer = None

    @contextmanager
    def untraced(self):
        """Record no spans while the benchmark's own checks call the program."""
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def setup_done(self) -> bool:
        """Record set-up time; True when this process only measures set-up."""
        self.setup_s = time.monotonic() - self.args.t0 - self.probe.spent
        self.setup_ref_s = self.probe.ref_seconds(self.setup_s, 0)
        return self.args.setup_only

    def start(self) -> tuple[float, int]:
        """Start of a timed unit, for `timed`."""
        return self.probe.now(), len(self.probe.samples)

    def timed(self, start: tuple[float, int], frames: int) -> bool:
        """Account one timed unit begun at `start`; True while the run should go on."""
        seconds = self.probe.now() - start[0]
        self.units += 1
        self.timed_s += seconds
        self.timed_frames += frames
        self.frames += frames
        self.unit_rates.append(frames / self.probe.ref_seconds(seconds, start[1]))
        return self.timed_s < self.args.seconds


def check_tensor(run: Run, tensor, k: int, j: int, t: int, what: str) -> None:
    import numpy as np

    v = tensor.values
    run.check(v.shape == (6 * k, j, t) and bool(np.isfinite(v).all()),
              f"{what}: tensor shape {v.shape} != {(6 * k, j, t)} or not finite")


def knn_oracle_channels(vertices, colors, position, k: int):
    """Patch channels from a full sort of all vertices by (d^2, index)."""
    import numpy as np

    d2 = ((vertices - position) ** 2).sum(axis=1)
    order = np.lexsort((np.arange(d2.shape[0]), d2))[:k]
    rel = vertices[order] - position
    return np.concatenate([rel, colors[order]], axis=1).reshape(-1).astype(np.float32)


def check_patches(run: Run, frames, values, picks, k: int, what: str) -> None:
    """Compare tensor columns (j, t) with the brute-force kNN oracle."""
    import numpy as np

    for t, j in picks:
        mesh, landmarks = frames[t]
        want = knn_oracle_channels(mesh.vertices, mesh.colors, landmarks[j].position, k)
        run.check(np.array_equal(values[:, j, t], want),
                  f"{what}: patch (j={j}, t={t}) differs from brute-force kNN")


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


def closed_loop(run: Run, unit, frames_of, check) -> None:
    """One caller: warm-up unit 0, then timed units until --seconds of unit time.

    `check(output, i)` runs after each unit, outside the timed region.
    """
    out = unit(0)
    run.frames += frames_of(out)
    if run.setup_done():
        return
    check(out, 0)
    going = True
    while going:
        i = run.units + 1
        start = run.start()
        out = unit(i)
        going = run.timed(start, frames_of(out))
        check(out, i)


def desk_synth(run: Run) -> None:
    """`facegcn synth` at the shipped geometry: build_dataset, save tensors and graph."""
    import numpy as np

    from facegcn import dataset_synth, landmark_engine, mesh_core, patch_features, st_graph
    from facegcn.config import RunConfig

    cfg = RunConfig()
    s, k = cfg.synth, cfg.features.k
    pairs = dataset_synth.default_augment_pairs(s.landmark_grid)
    j_count = s.landmark_grid**2 + len(pairs)
    out = Path(run.args.scratch)

    def synth_config(i: int):
        # two identities of one emotion: the smallest build_dataset call
        return dataset_synth.SynthConfig(
            n_identities=2, emotions=(i % len(s.emotions),), T=s.frames, k=k, grid=s.grid,
            lm_grid=s.landmark_grid, identity_amplitude=s.identity_amplitude,
            expression_amplitude=s.expression_amplitude, seed=run.args.seed * 1000 + i,
        )

    def unit(i: int):
        result = dataset_synth.build_dataset(synth_config(i), scale_normalize=cfg.features.scale_normalize)
        for n, sample in enumerate(result.samples):
            patch_features.save_tensor(sample.tensor, out / f"seq{n}.fgt")
        graph = st_graph.build_spatial_edges(
            result.landmarks, strategy=cfg.graph.strategy, knn_m=cfg.graph.knn_m,
            template_pairs=cfg.graph.template_pairs,
        )
        labels = st_graph.partition(graph, cfg.graph.partition)
        st_graph.save_graph(graph, labels, out / "graph.fgg")
        return result

    rng = np.random.default_rng([run.args.seed, 0xC4EC])

    def check(result, i: int):
        for sample in result.samples:
            check_tensor(run, sample.tensor, k, j_count, s.frames, f"unit {i}")
        if i == 0:
            run.info["warmup_tensor_sha256"] = file_digest(
                out / f"seq{n}.fgt" for n in range(len(result.samples)))
        if i != 1:
            return
        # kNN oracle on one sequence of the first timed unit: regenerate its
        # meshes and landmarks, then compare sampled patches
        sc = synth_config(i)
        which = int(rng.integers(len(result.samples)))
        frames = []
        with run.untraced():
            seq = dataset_synth.generate_sequence(
                sc.identity_params(which), sc.expression_params(sc.emotions[0]), sc.T, lm_grid=sc.lm_grid
            )
            for mesh, base in seq:
                graph = mesh_core.build_edge_graph(mesh)
                frames.append((mesh, landmark_engine.augment_landmarks(mesh, graph, base, pairs).landmarks))
        picks = zip(rng.integers(sc.T, size=32), rng.integers(j_count, size=32))
        check_patches(run, frames, result.samples[which].tensor.values, picks, k, f"unit {i}")

    closed_loop(run, unit, lambda result: sum(x.tensor.T for x in result.samples), check)


def scan_ingest(run: Run) -> None:
    """`facegcn preprocess` on raw 40k-vertex PLY frames with 68 uv landmarks."""
    import numpy as np

    from facegcn import landmark_engine, mesh_core, patch_features
    from facegcn.config import RunConfig

    cfg = RunConfig()
    k, pairs = cfg.features.k, cfg.features.augmentation_pairs
    plys = sorted(Path(run.args.inputs).glob("frame_*.ply"))
    out = Path(run.args.scratch) / "frame.fgt"

    def unit(i: int):
        ply = plys[i % len(plys)]
        mesh = mesh_core.load_mesh(ply)
        base = landmark_engine.lift_landmarks(
            mesh, landmark_engine.load_landmarks_2d(ply.with_suffix(".lm2"))
        )
        graph = mesh_core.build_edge_graph(mesh)
        result = landmark_engine.augment_landmarks(mesh, graph, base, pairs)
        frames = [(mesh, result.landmarks)]
        tensor = patch_features.build_sequence_tensor(frames, k, scale_normalize=cfg.features.scale_normalize)
        patch_features.save_tensor(tensor, out)
        return frames, result.skipped, tensor

    rng = np.random.default_rng([run.args.seed, 0x5CA1])

    def check(output, i: int):
        frames, skipped, tensor = output
        run.check(not skipped, f"frame {i}: skipped augmentation pairs {skipped}")
        check_tensor(run, tensor, k, 68 + len(pairs), 1, f"frame {i}")
        picks = [(0, int(j)) for j in rng.integers(tensor.J, size=4)]
        check_patches(run, frames, tensor.values, picks, k, f"frame {i}")
        if i == 0:
            run.info["warmup_tensor_sha256"] = file_digest([out])

    closed_loop(run, unit, lambda output: 1, check)


def load_desk(root: Path):
    """The desk set as `facegcn train`/`eval` load it: manifest, FGT1 tensors, FGG1 graph."""
    from facegcn import dataset_synth, patch_features, st_graph

    manifest = json.loads((root / "manifest.json").read_text())
    samples = [
        dataset_synth.SequenceSample(
            tensor=patch_features.load_tensor(root / e["tensor"]),
            identity=int(e["identity"]), emotion=int(e["emotion"]),
        )
        for e in manifest["samples"]
    ]
    graph, labels = st_graph.load_graph(root / manifest["graph"])
    classes = {ident: i for i, ident in enumerate(sorted({s.identity for s in samples}))}
    return samples, graph, labels, classes


def train(run: Run) -> None:
    """`facegcn train` at the shipped defaults on the desk set's train side."""
    import numpy as np

    from facegcn import dataset_synth, st_graph, stgcn_net
    from facegcn.config import RunConfig

    cfg = RunConfig()
    samples, graph, labels, classes = load_desk(Path(run.args.inputs))
    train_side, _ = dataset_synth.cross_emotion_split(samples, cfg.train.train_emotions)
    norm = st_graph.normalize_adjacency(graph, labels)
    m = cfg.model
    arch = stgcn_net.ModelArch(
        in_channels=samples[0].tensor.C, block_channels=m.block_channels, strides=m.strides,
        kernel_size=m.kernel_size, num_classes=len(classes),
        graph_conv_bias=m.graph_conv_bias, residual=m.residual,
    )
    model = stgcn_net.init_model(arch, norm, seed=run.args.seed)
    data = [(s.tensor.values, classes[s.identity]) for s in train_side]
    frames_per_epoch = sum(s.tensor.T for s in train_side)
    losses = []
    start = [run.start()]

    def on_epoch(stats):
        going = stats.epoch == 0 or run.timed(start[0], frames_per_epoch)
        losses.append(stats.loss)
        run.check(bool(np.isfinite(stats.loss)), f"epoch {stats.epoch}: loss {stats.loss}")
        if stats.epoch == 0:
            run.frames += frames_per_epoch
            going = not run.setup_done()
        if not going:
            raise StopTraining
        start[0] = run.start()

    o = cfg.optim
    try:
        stgcn_net.train_model(
            model, data, epochs=10**6, base_lr=o.base_lr, momentum=o.momentum,
            weight_decay=o.weight_decay, decay_epochs=o.decay_epochs, gamma=o.gamma,
            batch_size=cfg.train.batch_size, seed=run.args.seed, on_epoch=on_epoch,
        )
    except StopTraining:
        pass
    if not run.args.setup_only:
        # SGD at the shipped learning rate can sit on the initial ~ln(10) plateau
        # for tens of epochs, so progress is the best timed epoch, not the last
        run.check(min(losses[1:]) < losses[0],
                  f"loss never fell: {losses[0]:.6f} after warm-up, best {min(losses[1:]):.6f}")
        run.info["loss_after_warmup"] = losses[0]
        run.info["loss_best"] = min(losses[1:])
        run.info["loss_at_end"] = losses[-1]
        run.info["samples_per_epoch"] = len(data)


def identify(run: Run) -> None:
    """`facegcn eval` as a closed loop: one caller sends one held-out sequence at a time."""
    import numpy as np

    from facegcn import dataset_synth, stgcn_net
    from facegcn.config import RunConfig

    cfg = RunConfig()
    root = Path(run.args.inputs)
    samples, graph, labels, classes = load_desk(root)
    model, _ = stgcn_net.load_checkpoint(root / "checkpoint_final.fgc")
    run.check(model.J == graph.J and model.arch.num_classes == len(classes),
              "checkpoint disagrees with the desk set")
    _, test_side = dataset_synth.cross_emotion_split(samples, cfg.train.train_emotions)
    queries = [(s.tensor.values, classes[s.identity], s.tensor.T) for s in test_side]
    stgcn_net.predict(model, queries[0][0])
    run.frames += queries[0][2]
    if run.setup_done():
        return

    rng = np.random.default_rng([run.args.seed, 0x1D])
    order: list[int] = []
    latencies = []
    correct = 0
    while len(latencies) < 1000 or run.timed_s < run.args.seconds:
        start, frames = run.start(), 0
        for _ in range(IDENTIFY_BLOCK):
            if not order:
                order = list(rng.permutation(len(queries)))
            x, label, t_frames = queries[order.pop()]
            t = run.probe.now()
            pred = stgcn_net.predict(model, x)
            latencies.append(run.probe.now() - t)
            frames += t_frames
            run.check(0 <= pred < len(classes), f"call {len(latencies)}: class {pred} out of range")
            correct += int(pred == label)
        run.timed(start, frames)
    lat = np.sort(np.array(latencies)) * 1e3
    run.info.update(
        calls=len(lat), latency_p50_ms=float(np.percentile(lat, 50)),
        latency_p99_ms=float(np.percentile(lat, 99)), beyond_p99=int((lat > np.percentile(lat, 99)).sum()),
        stream_accuracy=correct / len(lat),
    )
    run.check(correct / len(lat) >= 0.90, f"stream accuracy {correct / len(lat):.3f} < 0.90")


def quality(run: Run) -> None:
    """Held-out NLL and accuracy of the desk checkpoint (the criterion 8 gate)."""
    import numpy as np

    from facegcn import dataset_synth, stgcn_net
    from facegcn.config import RunConfig

    root = Path(run.args.inputs)
    samples, _, _, classes = load_desk(root)
    model, _ = stgcn_net.load_checkpoint(root / "checkpoint_final.fgc")
    _, test_side = dataset_synth.cross_emotion_split(samples, RunConfig().train.train_emotions)
    nll, correct = 0.0, 0
    for s in test_side:
        logits = stgcn_net.forward(model, s.tensor.values)
        nll += stgcn_net.cross_entropy(logits, classes[s.identity])
        correct += int(np.argmax(logits) == classes[s.identity])
    run.info.update(heldout_nll=nll / len(test_side), heldout_accuracy=correct / len(test_side),
                    heldout_total=len(test_side))
    run.check(bool(np.isfinite(nll)), "held-out NLL is not finite")
    run.check(correct / len(test_side) >= 0.90,
              f"held-out accuracy {correct}/{len(test_side)} < 0.90")


WORKLOADS = {
    "desk-synth": desk_synth,
    "scan-ingest": scan_ingest,
    "train": train,
    "identify": identify,
    "quality": quality,
}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    args = p.parse_args()

    probe = SpeedProbe()
    probe.start()
    run = Run(args, probe)
    if args.spans:
        import tracing

        run.tracer = tracing.Tracer(clock=probe.now)
        tracing.install(run.tracer)
    try:
        WORKLOADS[args.workload](run)
    finally:
        probe.stop()
        if run.tracer is not None:
            Path(args.spans).write_text(json.dumps(run.tracer.spans))
    result = {
        "setup_s": run.setup_s,
        "units": run.units,
        "frames": run.frames,
        "timed_frames": run.timed_frames,
        "timed_s": run.timed_s,
        "frames_per_ref_s": statistics.median(run.unit_rates) if run.unit_rates else None,
        "unit_rates": run.unit_rates,
        "setup_ref_s": run.setup_ref_s,
        "probe_samples": len(probe.samples),
        "probe_ms": 1e3 * statistics.median(probe.samples) if probe.samples else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "info": run.info,
    }
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
