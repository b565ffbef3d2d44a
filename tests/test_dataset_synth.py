import dataclasses
import hashlib
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from facegcn import dataset_synth, landmark_engine, parallel
from facegcn.dataset_synth import (
    DatasetBuildResult,
    ExpressionParams,
    IdentityParams,
    SynthConfig,
    build_dataset,
    cross_emotion_split,
    default_augment_pairs,
    generate_sequence,
    landmark_grid_indices,
    make_frame_mesh,
    sequence_tensor,
)
from facegcn.errors import ConfigError, EmptySide, InconsistentLandmarks, InvariantError, MissingIdentity
from facegcn.landmark_engine import _anchored
from facegcn.mesh_core import TexturedMesh, validate_mesh
from facegcn.patch_features import build_sequence_tensor, save_tensor
from landmark_testutil import assert_same_landmarks
from test_cli import child_env, cut_at_half_u

FAST = SynthConfig(n_identities=3, emotions=(0, 1), T=3, k=4, grid=8, lm_grid=2, seed=11)


@pytest.fixture(scope="module")
def fast_dataset() -> DatasetBuildResult:
    return build_dataset(FAST)


def test_generated_meshes_are_valid():
    frames = generate_sequence(IdentityParams(seed=1, grid=8), ExpressionParams(emotion=3), 4, lm_grid=2)
    assert len(frames) == 4
    for mesh, lms in frames:
        assert validate_mesh(mesh).ok
        assert len(lms) == lms.n_base == 4
        assert np.array_equal(lms.positions, mesh.vertices[lms.anchors])


def test_zero_expression_amplitude_freezes_sequence():
    ident = IdentityParams(seed=2, grid=8)
    frames = generate_sequence(ident, ExpressionParams(emotion=0, amplitude=0.0), 5, lm_grid=2)
    v0 = frames[0][0].vertices
    for mesh, _ in frames[1:]:
        assert np.array_equal(mesh.vertices, v0)


def test_frame_zero_identical_across_emotions():
    ident = IdentityParams(seed=3, grid=8)
    a = generate_sequence(ident, ExpressionParams(emotion=0), 5, lm_grid=2)
    b = generate_sequence(ident, ExpressionParams(emotion=4), 5, lm_grid=2)
    assert np.array_equal(a[0][0].vertices, b[0][0].vertices)
    assert np.array_equal(a[-1][0].vertices, b[-1][0].vertices)  # envelope ends at 0
    assert not np.array_equal(a[2][0].vertices, b[2][0].vertices)  # peak differs


def test_identities_differ():
    ea = ExpressionParams(emotion=1)
    a = make_frame_mesh(IdentityParams(seed=4, grid=8), ea, 0, 4)
    b = make_frame_mesh(IdentityParams(seed=5, grid=8), ea, 0, 4)
    assert not np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.colors, b.colors)


def test_same_seed_bit_identical():
    ident = IdentityParams(seed=6, grid=8)
    e = ExpressionParams(emotion=2)
    m1 = make_frame_mesh(ident, e, 3, 6)
    m2 = make_frame_mesh(ident, e, 3, 6)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.colors, m2.colors)


@pytest.mark.parametrize("seed", [0, 9, 700_003])
@pytest.mark.parametrize("T", [1, 2, 5, 24])
def test_sequence_frames_equal_make_frame_mesh(seed, T):
    ident = IdentityParams(seed=seed)
    for emotion in range(6):
        expr = ExpressionParams(emotion=emotion)
        frames = generate_sequence(ident, expr, T)
        assert len(frames) == T
        for t, (mesh, _) in enumerate(frames):
            one = make_frame_mesh(ident, expr, t, T)
            for name in ("vertices", "colors", "uv", "faces"):
                a, b = getattr(mesh, name), getattr(one, name)
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes(), (emotion, t, name)


def test_sequence_frames_share_read_only_arrays():
    frames = generate_sequence(IdentityParams(seed=8, grid=8), ExpressionParams(emotion=5), 5, lm_grid=2)
    first = frames[0][0]
    for mesh, _ in frames:
        for name in ("faces", "colors", "uv", "vertices"):
            assert not getattr(mesh, name).flags.writeable
        for name in ("faces", "colors", "uv"):
            assert np.shares_memory(getattr(mesh, name), getattr(first, name))


@pytest.mark.parametrize("t, T", [(-1, 4), (4, 4), (9, 4), (0, 0)])
def test_make_frame_mesh_rejects_frame_outside_sequence(t, T):
    with pytest.raises(ConfigError):
        make_frame_mesh(IdentityParams(seed=1, grid=8), ExpressionParams(emotion=0), t, T)


def test_generate_sequence_validates_length_and_grid():
    with pytest.raises(ConfigError):
        generate_sequence(IdentityParams(seed=1, grid=8), ExpressionParams(emotion=0), 0, lm_grid=2)
    with pytest.raises(ConfigError):
        generate_sequence(IdentityParams(seed=1, grid=1), ExpressionParams(emotion=0), 3, lm_grid=1)


def test_landmark_grid_indices_shape_and_range():
    idx = landmark_grid_indices(24, 4)
    assert idx.shape == (16,)
    assert len(set(idx.tolist())) == 16
    assert idx.min() >= 0 and idx.max() < 24 * 24
    with pytest.raises(ConfigError):
        landmark_grid_indices(4, 9)


def test_default_augment_pairs_count():
    pairs = default_augment_pairs(4)
    assert len(pairs) == 12
    assert all(0 <= a < 16 and 0 <= b < 16 and a != b for a, b in pairs)


def test_build_dataset_counts_and_labels(fast_dataset):
    samples = fast_dataset.samples
    assert len(samples) == 3 * 2
    for ident in range(3):
        assert sum(1 for s in samples if s.identity == ident) == 2
    # J = base 4 + 2 horizontal pairs
    assert all(s.tensor.J == 6 for s in samples)
    assert all(s.tensor.C == 6 * FAST.k for s in samples)
    assert all(s.tensor.T == FAST.T for s in samples)


def test_build_dataset_deterministic(fast_dataset):
    again = build_dataset(FAST)
    for a, b in zip(fast_dataset.samples, again.samples):
        assert np.array_equal(a.tensor.values, b.tensor.values)
        assert a.provenance == b.provenance


def test_landmark_hash_uniform_across_samples(fast_dataset):
    hashes = {s.tensor.landmark_hash for s in fast_dataset.samples}
    assert len(hashes) == 1


def _per_frame_tensors(cfg: SynthConfig):
    """build_dataset's tensors rebuilt from every frame of every sequence, no reuse."""
    pairs = default_augment_pairs(cfg.lm_grid)
    tensors = []
    for i in range(cfg.n_identities):
        for e in cfg.emotions:
            frames = generate_sequence(cfg.identity_params(i), cfg.expression_params(e), cfg.T,
                                       lm_grid=cfg.lm_grid)
            results = landmark_engine.augment_sequence(frames, pairs)
            augmented = [(mesh, r.landmarks) for (mesh, _), r in zip(frames, results)]
            tensors.append(build_sequence_tensor(augmented, cfg.k))
    return tensors


@pytest.mark.parametrize("case, distinct", [("shipped", 12), ("still", 1), ("ramp", 24)])
def test_build_dataset_processes_each_distinct_frame_once(monkeypatch, case, distinct):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # workers would miss the patches
    cfg = SynthConfig(n_identities=2, emotions=(0,))
    if case == "still":  # every frame equals the neutral one
        cfg = dataclasses.replace(cfg, expression_amplitude=0.0)
    if case == "ramp":  # no frame repeats
        monkeypatch.setattr(dataset_synth, "_envelope", lambda t, T: t / T)
    reference = _per_frame_tensors(cfg)
    real_augment, augmented = dataset_synth.augment_sequence, []

    def counting_augment(frames, pairs):
        augmented.append(len(frames))
        return real_augment(frames, pairs)

    monkeypatch.setattr(dataset_synth, "augment_sequence", counting_augment)
    samples = build_dataset(cfg).samples
    assert augmented == [distinct] * len(reference) == [distinct] * len(samples)
    for sample, ref in zip(samples, reference):
        got = sample.tensor
        assert (got.values.shape, got.values.dtype, got.k, got.landmark_hash) == (
            ref.values.shape, ref.values.dtype, ref.k, ref.landmark_hash)
        assert got.values.tobytes() == ref.values.tobytes()


def _other_diagonal(mesh: TexturedMesh) -> TexturedMesh:
    """The mesh with each grid quad split along its other diagonal."""
    n = int(round(mesh.n_vertices ** 0.5))
    idx = np.arange(n * n).reshape(n, n)
    a, b, c, d = (q.ravel() for q in (idx[:-1, :-1], idx[1:, :-1], idx[:-1, 1:], idx[1:, 1:]))
    faces = np.concatenate([np.stack([a, b, d], axis=1), np.stack([a, d, c], axis=1)])
    return TexturedMesh.from_arrays(mesh.vertices, faces, mesh.colors, mesh.uv)


# what differs between two frames of equal vertex bytes -> the second frame
OTHER_FRAME = {
    "anchors": lambda mesh, base: (mesh, _anchored(base.anchors + 1, mesh)),
    "faces": lambda mesh, base: (_other_diagonal(mesh), base),
    "colors": lambda mesh, base: (
        TexturedMesh.from_arrays(mesh.vertices, mesh.faces, 1.0 - mesh.colors, mesh.uv), base),
}


@pytest.mark.parametrize("differ", list(OTHER_FRAME))
def test_sequence_tensor_tells_frames_apart_by_all_they_read(differ):
    [(mesh, base)] = generate_sequence(IdentityParams(seed=3, grid=8), ExpressionParams(emotion=2),
                                       1, lm_grid=3)
    other = OTHER_FRAME[differ](mesh, base)
    assert other[0].vertices.tobytes() == mesh.vertices.tobytes()
    pairs = [(0, 4), (2, 6), (0, 1)]  # the diagonal pairs cross the grid quads
    alone = [sequence_tensor([frame], pairs, 4, False) for frame in ((mesh, base), other)]
    assert alone[0][0].values.tobytes() != alone[1][0].values.tobytes()
    frames = [(mesh, base), other, other, (mesh, base)]
    tensor, results = sequence_tensor(frames, pairs, 4, False)
    for t, which in enumerate([0, 1, 1, 0]):
        want, [result] = alone[which]
        assert tensor.values[:, :, t].tobytes() == want.values[:, :, 0].tobytes()
        assert_same_landmarks(results[t].landmarks, result.landmarks)
        assert results[t].skipped == result.skipped


def test_sequence_tensor_names_the_frame_that_disagrees_by_its_index_in_the_sequence():
    [(mesh, base)] = generate_sequence(IdentityParams(seed=3, grid=8), ExpressionParams(emotion=2),
                                       1, lm_grid=3)
    pairs = [(0, 6), (4, 7)]  # landmarks 0 and 6 lie on either side of u = 0.5
    cut = cut_at_half_u(mesh)
    assert sequence_tensor([(cut, base)], pairs, 4, False)[1][0].skipped == [(0, 6)]
    with pytest.raises(InconsistentLandmarks, match="^frame 2 disagrees on landmark ordering$") as err:
        sequence_tensor([(mesh, base), (mesh, base), (cut, base)], pairs, 4, False)
    assert err.value.frame == 2


def test_shipped_sequences_mirror_in_time():
    """Frame t equals frame T-1-t after quantization: the repeats build_dataset reuses."""
    cfg = SynthConfig()
    distinct = 0
    for i in range(cfg.n_identities):
        for e in cfg.emotions:
            frames = generate_sequence(cfg.identity_params(i), cfg.expression_params(e), cfg.T,
                                       lm_grid=cfg.lm_grid)
            keys = [mesh.vertices.tobytes() for mesh, _ in frames]
            assert all(keys[t] == keys[cfg.T - 1 - t] for t in range(cfg.T))
            distinct += len(set(keys))
    assert (distinct, cfg.n_identities * len(cfg.emotions) * cfg.T) == (720, 1440)


def test_separability_oracle(fast_dataset):
    assert fast_dataset.inter_identity_distance > fast_dataset.intra_identity_distance


def test_separability_violation_raises():
    bad = SynthConfig(n_identities=2, emotions=(0, 1), T=3, k=4, grid=8, lm_grid=2,
                      identity_amplitude=0.0001, expression_amplitude=0.3, seed=12)
    with pytest.raises(ConfigError):
        build_dataset(bad)


def test_build_dataset_validates_config():
    with pytest.raises(ConfigError):
        build_dataset(SynthConfig(n_identities=1))
    with pytest.raises(ConfigError):
        build_dataset(SynthConfig(emotions=()))
    with pytest.raises(ConfigError):
        build_dataset(SynthConfig(emotions=(0, 7)))


def dataset_bytes(result: DatasetBuildResult):
    samples = [(s.tensor.values.tobytes(), s.tensor.values.shape, s.tensor.k,
                s.tensor.landmark_hash, s.identity, s.emotion, s.provenance)
               for s in result.samples]
    lms = result.landmarks
    landmarks = (lms.anchors.tobytes(), lms.positions.tobytes(), lms.n_base, lms.sources.tobytes())
    return (samples, landmarks, result.inter_identity_distance.hex(),
            result.intra_identity_distance.hex())


def build_with_cpus(monkeypatch, cpus, cfg=FAST):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    try:
        return build_dataset(cfg)
    except Exception as exc:
        return exc


@pytest.mark.parametrize("cpus", [2, 3])  # 3 may be more CPUs than there are
def test_build_dataset_bytes_do_not_depend_on_cpu_count(monkeypatch, cpus):
    one = build_with_cpus(monkeypatch, 1)
    many = build_with_cpus(monkeypatch, cpus)
    assert dataset_bytes(many) == dataset_bytes(one)
    assert not any(a.flags.writeable for a in (many.landmarks.anchors, many.landmarks.positions,
                                               many.landmarks.sources))
    workers = parallel._workers[: cpus - 1]
    assert len(workers) == cpus - 1
    assert all(os.waitpid(w.pid, os.WNOHANG) == (0, 0) for w in workers)  # kept for later calls
    assert dataset_bytes(build_with_cpus(monkeypatch, cpus)) == dataset_bytes(one)


_sequence_sample = dataset_synth._sequence_sample


def failing_sequence_sample(cfg, i, e, scale_normalize):
    """_sequence_sample, except at seeds 101 and 102: there sequence 2 fails
    at once and, at 101, sequence 1 fails later (FAST has two emotions)."""
    if (i, e) == (1, 0) and cfg.seed in (101, 102):
        raise InvariantError("sequence 2")
    if (i, e) == (0, 1) and cfg.seed == 101:
        time.sleep(0.2)  # so that sequence 2 has failed on another process
        raise ConfigError("sequence 1")
    return _sequence_sample(cfg, i, e, scale_normalize)


@pytest.mark.parametrize("first_fails", [False, True], ids=["later-fails", "both-fail"])
@pytest.mark.parametrize("cpus", [2, 3])
def test_build_dataset_raises_the_first_error_in_sequence_order(monkeypatch, fresh_workers,
                                                                cpus, first_fails):
    cfg = dataclasses.replace(FAST, seed=101 if first_fails else 102)
    good = build_with_cpus(monkeypatch, 1)
    monkeypatch.setattr(dataset_synth, "_sequence_sample", failing_sequence_sample)
    err_1 = build_with_cpus(monkeypatch, 1, cfg)
    err_n = build_with_cpus(monkeypatch, cpus, cfg)
    assert type(err_n) is type(err_1) is (ConfigError if first_fails else InvariantError)
    assert str(err_n) == str(err_1) == ("sequence 1" if first_fails else "sequence 2")
    assert len(parallel._workers) == cpus - 1
    # the workers are still in step: a good build after the error is the same
    assert dataset_bytes(build_with_cpus(monkeypatch, cpus)) == dataset_bytes(good)


def test_a_lost_worker_fails_one_build_and_the_next_forks_anew(monkeypatch):
    one = build_with_cpus(monkeypatch, 1)
    build_with_cpus(monkeypatch, 2)
    pid = parallel._workers[0].pid
    os.kill(pid, signal.SIGKILL)
    assert isinstance(build_with_cpus(monkeypatch, 2), (BrokenPipeError, ChildProcessError))
    assert parallel._workers == [] and gone(pid)  # every worker ended and reaped
    assert dataset_bytes(build_with_cpus(monkeypatch, 2)) == dataset_bytes(one)


def test_landmark_set_stays_read_only_through_pickle(fast_dataset):
    import pickle

    lms = fast_dataset.landmarks
    back = pickle.loads(pickle.dumps(lms))
    for name in ("anchors", "positions", "sources"):
        assert not getattr(back, name).flags.writeable
        assert getattr(back, name).tobytes() == getattr(lms, name).tobytes()
    assert back.n_base == lms.n_base and back.ordering_hash() == lms.ordering_hash()


# builds a small dataset on two processes, prints the worker's pid, then
# waits for a line on stdin before it exits
TWO_CPU_BUILD = """
import sys
from facegcn import dataset_synth, parallel

parallel.usable_cpus = lambda: 2
dataset_synth.build_dataset(dataset_synth.SynthConfig(n_identities=2, emotions=(0,), T=3, k=4,
                                                      grid=8, lm_grid=2))
print(*[w.pid for w in parallel._workers], flush=True)
sys.stdin.readline()
"""


def gone(pid: int) -> bool:
    """No process has this pid, or it has exited and waits to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="no /proc")
@pytest.mark.parametrize("end", ["exit", "sigkill"])
def test_workers_end_with_the_caller(end):
    caller = subprocess.Popen([sys.executable, "-c", TWO_CPU_BUILD], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        pids = [int(p) for p in caller.stdout.readline().split()]
        assert len(pids) == 1 and not gone(pids[0])
        if end == "exit":
            caller.communicate("\n", timeout=30)
            assert caller.returncode == 0
            assert gone(pids[0])  # reaped before the interpreter exited
        else:
            caller.kill()
            caller.communicate(timeout=30)
            deadline = time.monotonic() + 5
            while not gone(pids[0]) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gone(pids[0])
    finally:
        if caller.poll() is None:
            caller.kill()
            caller.wait()


def test_expression_params_range():
    with pytest.raises(ConfigError):
        ExpressionParams(emotion=6)


# ---------------------------------------------------------------------------
# cross-emotion split


def test_split_half_and_half(fast_dataset):
    train, test = cross_emotion_split(fast_dataset.samples, (0,))
    assert len(train) == len(test) == 3
    assert {s.emotion for s in train} == {0}
    assert {s.emotion for s in test} == {1}


def test_split_counts_six_emotions():
    class S:  # structural stand-in
        def __init__(self, i, e):
            self.identity, self.emotion = i, e

    samples = [S(i, e) for i in range(10) for e in range(6)]
    train, test = cross_emotion_split(samples, (0, 1, 2))
    assert len(train) == len(test) == 30


def test_split_train_all_emotions_empty_side(fast_dataset):
    with pytest.raises(EmptySide):
        cross_emotion_split(fast_dataset.samples, (0, 1))


def test_split_partition_and_coverage(fast_dataset):
    train, test = cross_emotion_split(fast_dataset.samples, (1,))
    ids = {id(s) for s in fast_dataset.samples}
    assert {id(s) for s in train} | {id(s) for s in test} == ids
    assert not ({id(s) for s in train} & {id(s) for s in test})
    for side in (train, test):
        assert {s.identity for s in side} == {0, 1, 2}


def test_split_missing_identity():
    class S:
        def __init__(self, i, e):
            self.identity, self.emotion = i, e

    samples = [S(0, 0), S(0, 1), S(1, 0)]  # identity 1 has no emotion-1 sample
    with pytest.raises(MissingIdentity):
        cross_emotion_split(samples, (0,))


# SHA-256 of the FGT1 files of SynthConfig(n_identities=2, emotions=(0,), T=4),
# concatenated in sample order. Any change to mesh validation, geodesic
# augmentation or kNN patch extraction that moves one output bit changes it.
GOLDEN_FGT1_SHA256 = "39df4c632784e8c0a3a652e759979cef94bf34d6caf0b745531ba77afdfe0121"


def _fgt1_digest(cfg: SynthConfig, tmp_path) -> str:
    h = hashlib.sha256()
    for i, sample in enumerate(build_dataset(cfg).samples):
        save_tensor(sample.tensor, tmp_path / f"{i}.fgt")
        h.update((tmp_path / f"{i}.fgt").read_bytes())
    return h.hexdigest()


def test_golden_fgt1_digest(tmp_path):
    assert _fgt1_digest(SynthConfig(n_identities=2, emotions=(0,), T=4), tmp_path) == GOLDEN_FGT1_SHA256


# SHA-256 of the FGT1 files of SynthConfig(n_identities=2, emotions=(0, ..., 5),
# T=24), concatenated in sample order: the shipped frame count, so every
# envelope value of a 24-frame sequence is covered.
GOLDEN_FGT1_T24_SHA256 = "81eff0b90d43120e114af2b039319637c09e1b52243a6b7d6c7103d23f46ac09"


def test_golden_fgt1_digest_shipped_frame_count(tmp_path):
    cfg = SynthConfig(n_identities=2, emotions=(0, 1, 2, 3, 4, 5), T=24)
    assert _fgt1_digest(cfg, tmp_path) == GOLDEN_FGT1_T24_SHA256
