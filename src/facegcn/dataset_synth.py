"""Synthetic dynamic textured face-like mesh sequences.

Stands in for license-restricted motion-capture data at desk scale: each
identity is an ellipsoid-dome grid mesh with a seeded smooth displacement
field and a per-region color palette; each of the 6 emotions deforms fixed
mouth/eye regions with a neutral-peak-neutral amplitude envelope. The
cross-emotion split trains on some expressions and tests identification on
the held-out ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

import numpy as np

from . import parallel
from .errors import ConfigError, EmptySide, InconsistentLandmarks, MissingIdentity
from .landmark_engine import AugmentationResult, LandmarkSet, _anchored, augment_sequence
from .mesh_core import TexturedMesh
from .patch_features import FeatureTensor, build_sequence_tensor

N_EMOTIONS = 6

# fixed facial regions of the (u, v) parameter square: mouth, left eye, right eye
_REGION_CENTERS = ((0.5, 0.3), (0.35, 0.7), (0.65, 0.7))
_EMOTION_ENTROPY = 7707  # seeds the per-emotion deformation templates
_RADII = (1.0, 1.3, 0.8)  # dome semi-axes along x, y, z
_N_MODES = 4  # smooth displacement modes per identity
_PALETTE_REGIONS = 4  # color palette cells per side of the (u, v) square
_N_BUMPS = 3  # localized bumps per emotion


@dataclass(frozen=True)
class IdentityParams:
    """Seeded identity: dome geometry plus smooth displacement and palette."""

    seed: int
    grid: int = 24
    amplitude: float = 0.18


@dataclass(frozen=True)
class ExpressionParams:
    """One of 6 emotions; localized bumps scaled by a neutral-peak-neutral envelope."""

    emotion: int
    amplitude: float = 0.035

    def __post_init__(self):
        if not (0 <= self.emotion < N_EMOTIONS):
            raise ConfigError(f"emotion {self.emotion} outside 0..{N_EMOTIONS - 1}")


@dataclass(frozen=True)
class SequenceSample:
    tensor: FeatureTensor
    identity: int
    emotion: int
    provenance: dict = field(default_factory=dict)


def _grid_faces(n: int) -> np.ndarray:
    idx = np.arange(n * n).reshape(n, n)
    a = idx[:-1, :-1].ravel()
    b = idx[1:, :-1].ravel()
    c = idx[:-1, 1:].ravel()
    d = idx[1:, 1:].ravel()
    return np.concatenate(
        [np.stack([a, b, c], axis=1), np.stack([b, d, c], axis=1)], axis=0
    )


def _identity_fields(params: IdentityParams):
    rng = np.random.default_rng(params.seed)
    modes = []
    for _ in range(_N_MODES):
        amp = rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
        fu, fv = rng.integers(1, 4), rng.integers(1, 4)
        pu, pv = rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)
        modes.append((amp, int(fu), int(fv), pu, pv))
    r = _PALETTE_REGIONS
    palette = rng.uniform(0.02, 0.98, size=(r * r, 3))
    palette = np.round(palette * 255.0) / 255.0  # uchar domain for exact round trips
    return modes, palette


def _emotion_template(expr: ExpressionParams):
    rng = np.random.default_rng([_EMOTION_ENTROPY, expr.emotion])
    bumps = []
    for b in range(_N_BUMPS):
        cu, cv = _REGION_CENTERS[b % len(_REGION_CENTERS)]
        cu += rng.uniform(-0.06, 0.06)
        cv += rng.uniform(-0.06, 0.06)
        width = rng.uniform(0.08, 0.18)
        strength = rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
        bumps.append((cu, cv, width, strength))
    return bumps


def _envelope(t: int, T: int) -> float:
    if T < 2:
        return 0.0
    return float(np.sin(np.pi * t / (T - 1)) ** 2)


def _sequence_meshes(identity: IdentityParams, expr: ExpressionParams, ts, T: int) -> list[TexturedMesh]:
    """Meshes at frames ts of a T-frame sequence: dome + identity displacement
    + enveloped expression bumps.

    Everything but the expression term is computed once; frame t adds
    ``((env_t * amplitude) * strength) * field`` per bump, in template order,
    and only when env_t > 0 (adding a zero term could turn -0.0 into +0.0).
    The frames share one read-only faces, colors and uv array.
    """
    n = identity.grid
    if n < 2:
        raise ConfigError(f"grid resolution {n} too small")
    lin = np.linspace(0.0, 1.0, n)
    u, v = np.meshgrid(lin, lin, indexing="ij")
    su, sv = 2.0 * u - 1.0, 2.0 * v - 1.0
    rx, ry, rz = _RADII

    z = rz * np.sqrt(np.clip(1.0 - su**2 - sv**2, 0.0, None))
    modes, palette = _identity_fields(identity)
    for amp, fu, fv, pu, pv in modes:
        z = z + identity.amplitude * amp * np.cos(2 * np.pi * fu * u + pu) * np.cos(
            2 * np.pi * fv * v + pv
        )
    zs = np.repeat(z[None], len(ts), axis=0)
    env = np.array([_envelope(t, T) for t in ts])
    live = env > 0.0
    if live.any():
        scale = env[live] * expr.amplitude
        z_live = zs[live]
        for cu, cv, width, strength in _emotion_template(expr):
            field = np.exp(-((u - cu) ** 2 + (v - cv) ** 2) / width**2)
            z_live = z_live + (scale * strength)[:, None, None] * field
        zs[live] = z_live

    # quantize to the canonical on-disk domain so write/load is bit-exact
    vertices = np.empty((len(ts), n * n, 3))
    vertices[:, :, 0] = (rx * su).reshape(-1)
    vertices[:, :, 1] = (ry * sv).reshape(-1)
    vertices[:, :, 2] = zs.reshape(len(ts), -1)
    vertices = vertices.astype(np.float32).astype(np.float64)
    r = _PALETTE_REGIONS
    iu = np.minimum((u * r).astype(int), r - 1)
    iv = np.minimum((v * r).astype(int), r - 1)
    colors = palette[(iu * r + iv).reshape(-1)]
    uv = np.stack([u, v], axis=-1).reshape(-1, 2).astype(np.float32).astype(np.float64)
    faces = _grid_faces(n)
    for arr in (vertices, faces, colors, uv):
        arr.flags.writeable = False
    return [TexturedMesh.from_arrays(frame, faces, colors, uv) for frame in vertices]


def make_frame_mesh(identity: IdentityParams, expr: ExpressionParams, t: int, T: int) -> TexturedMesh:
    """Mesh at frame t of a T-frame sequence; the one-frame call of generate_sequence."""
    if not (0 <= t < T):
        raise ConfigError(f"frame {t} outside 0..{T - 1}")
    return _sequence_meshes(identity, expr, [t], T)[0]


def landmark_grid_indices(grid: int, lm_grid: int) -> np.ndarray:
    """Vertex indices of an lm_grid x lm_grid interior sample of the mesh grid."""
    if not (1 <= lm_grid <= grid):
        raise ConfigError(f"landmark grid {lm_grid} incompatible with mesh grid {grid}")
    picks = np.round(np.linspace(0.15 * (grid - 1), 0.85 * (grid - 1), lm_grid)).astype(int)
    rows, cols = np.meshgrid(picks, picks, indexing="ij")
    return (rows * grid + cols).reshape(-1)


def default_augment_pairs(lm_grid: int) -> list[tuple[int, int]]:
    """Horizontal-neighbor pairs of the landmark sample grid."""
    pairs = []
    for r in range(lm_grid):
        for c in range(lm_grid - 1):
            pairs.append((r * lm_grid + c, r * lm_grid + c + 1))
    return pairs


def generate_sequence(
    identity: IdentityParams,
    expr: ExpressionParams,
    T: int,
    lm_grid: int = 4,
) -> list[tuple[TexturedMesh, LandmarkSet]]:
    """T frames of (mesh, base landmark set); deterministic given the seeds."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    anchors = landmark_grid_indices(identity.grid, lm_grid)
    return [(mesh, _anchored(anchors, mesh)) for mesh in _sequence_meshes(identity, expr, range(T), T)]


def sequence_tensor(frames: Sequence[tuple[TexturedMesh, LandmarkSet]], pairs, k: int,
                    scale_normalize: bool) -> tuple[FeatureTensor, list[AugmentationResult]]:
    """The (6k, J, T) tensor of (mesh, base landmarks) frames and each frame's
    ``augment_sequence`` result: the path of ``build_dataset`` and ``preprocess``.

    Each distinct frame (by its bytes of all that augmentation and patches
    read: vertices, faces, colors, base anchors and sources) is processed
    once and its column gathered back into frame order. Frame t of a
    synthetic sequence equals frame T-1-t; scan frames all differ. Frames
    that disagree on landmark ordering raise InconsistentLandmarks naming
    the first such frame by its index in ``frames``.
    """
    # by a hash of the vertex bytes, so that a scan keeps no copy of its frames
    first_of: dict[int, list[int]] = {}  # that hash -> the distinct frames with it
    distinct, column = [], []
    for frame in frames:
        same = first_of.setdefault(hash(frame[0].vertices.tobytes()), [])
        d = next((d for d in same if _same_frame(distinct[d], frame)), len(distinct))
        if d == len(distinct):
            same.append(d)
            distinct.append(frame)
        column.append(d)
    results = augment_sequence(distinct, pairs)
    try:
        unique = build_sequence_tensor(
            [(mesh, r.landmarks) for (mesh, _), r in zip(distinct, results)], k, scale_normalize
        )
    except InconsistentLandmarks as exc:
        if exc.frame is None:
            raise
        t = column.index(exc.frame)  # the first frame of the sequence that disagrees
        raise InconsistentLandmarks(f"frame {t} disagrees on landmark ordering", frame=t) from None
    tensor = FeatureTensor(np.take(unique.values, column, axis=2), unique.k, unique.landmark_hash)
    return tensor, [results[d] for d in column]


def _same_frame(a: tuple[TexturedMesh, LandmarkSet], b: tuple[TexturedMesh, LandmarkSet]) -> bool:
    """Whether two frames have the same bytes of all that ``sequence_tensor`` reads."""
    arrays = [(mesh.vertices, mesh.faces, mesh.colors, lms.anchors, lms.sources) for mesh, lms in (a, b)]
    return all(x is y or x.tobytes() == y.tobytes() for x, y in zip(*arrays))


@dataclass(frozen=True)
class SynthConfig:
    n_identities: int = 10
    emotions: tuple[int, ...] = (0, 1, 2, 3, 4, 5)
    T: int = 24
    k: int = 25
    grid: int = 24
    lm_grid: int = 4
    identity_amplitude: float = 0.18
    expression_amplitude: float = 0.035
    seed: int = 7

    def identity_params(self, i: int) -> IdentityParams:
        return IdentityParams(seed=self.seed * 100_003 + i, grid=self.grid,
                              amplitude=self.identity_amplitude)

    def expression_params(self, e: int) -> ExpressionParams:
        return ExpressionParams(emotion=e, amplitude=self.expression_amplitude)


@dataclass
class DatasetBuildResult:
    samples: list[SequenceSample]
    landmarks: LandmarkSet  # augmented set of the first frame (graph topology source)
    inter_identity_distance: float
    intra_identity_distance: float


def build_dataset(cfg: SynthConfig, scale_normalize: bool = False) -> DatasetBuildResult:
    """One SequenceSample per (identity, emotion) with augmented landmarks.

    Each sequence is ``generate_sequence`` then ``sequence_tensor``, as in
    ``facegcn preprocess``, on min(usable CPUs, sequences) processes: the
    caller and workers forked on the first such call and kept for later
    ones (``parallel.map_in_order``), each running the code as it stood at
    its fork. Samples, landmarks, the separability numbers and the first
    error raised follow sequence order, so they are byte-identical for any
    CPU count; to build on fewer CPUs, narrow the affinity (``taskset``).

    Runs the separability oracle: the mean inter-identity neutral-frame
    vertex distance must exceed the mean intra-identity cross-emotion
    distance at peak deformation, otherwise the task is ill-posed and a
    ConfigError is raised.
    """
    if cfg.n_identities < 2:
        raise ConfigError("need at least 2 identities")
    if not cfg.emotions:
        raise ConfigError("need at least 1 emotion")
    for e in cfg.emotions:
        cfg.expression_params(e)  # every emotion is checked before any sequence is built
    items = [(cfg, i, e, scale_normalize) for i in range(cfg.n_identities) for e in cfg.emotions]
    built = parallel.map_in_order(_sequence_sample, items)

    neutral_frames: dict[int, np.ndarray] = {}
    peak_frames: dict[tuple[int, int], np.ndarray] = {}
    for (_, i, e, _), (_, _, neutral, peak) in zip(items, built):
        neutral_frames.setdefault(i, neutral)
        peak_frames[(i, e)] = peak
    inter, intra = _separability(neutral_frames, peak_frames, cfg)
    if intra > 0 and inter <= intra:
        raise ConfigError(
            f"identity separability violated: inter={inter:.4g} <= intra={intra:.4g}; "
            "raise identity_amplitude or lower expression_amplitude"
        )
    return DatasetBuildResult(
        samples=[sample for sample, *_ in built],
        landmarks=built[0][1],
        inter_identity_distance=inter,
        intra_identity_distance=intra,
    )


def _sequence_sample(cfg: SynthConfig, i: int, e: int, scale_normalize: bool):
    """Sequence (i, e) of ``build_dataset``: (sample, first frame's augmented
    landmarks, neutral frame vertices, peak frame vertices)."""
    ident = cfg.identity_params(i)
    frames = generate_sequence(ident, cfg.expression_params(e), cfg.T, cfg.lm_grid)
    tensor, results = sequence_tensor(frames, default_augment_pairs(cfg.lm_grid), cfg.k,
                                      scale_normalize)
    sample = SequenceSample(tensor, i, e, {"identity_seed": ident.seed, "k": cfg.k, "J": tensor.J,
                                           "T": cfg.T})
    # copies: a frame's vertices are a view of the whole sequence's block
    return (sample, results[0].landmarks, frames[0][0].vertices.copy(),
            frames[len(frames) // 2][0].vertices.copy())


def _separability(neutral, peak, cfg: SynthConfig) -> tuple[float, float]:
    ids = sorted(neutral)
    inter_vals = [np.linalg.norm(neutral[a] - neutral[b], axis=1).mean()
                  for a, b in combinations(ids, 2)]
    intra_vals = [np.linalg.norm(peak[(i, a)] - peak[(i, b)], axis=1).mean()
                  for i in ids for a, b in combinations(sorted(cfg.emotions), 2)]
    inter = float(np.mean(inter_vals)) if inter_vals else np.inf
    intra = float(np.mean(intra_vals)) if intra_vals else 0.0
    return inter, intra


def cross_emotion_split(
    samples: Sequence[SequenceSample], train_emotions: Sequence[int]
) -> tuple[list[SequenceSample], list[SequenceSample]]:
    """Train on the configured emotions, test identification on the rest."""
    train_set = set(int(e) for e in train_emotions)
    present = {s.emotion for s in samples}
    if not train_set & present:
        raise EmptySide("no sample carries a training emotion")
    train = [s for s in samples if s.emotion in train_set]
    test = [s for s in samples if s.emotion not in train_set]
    if not train or not test:
        raise EmptySide("split leaves one side empty")
    identities = {s.identity for s in samples}
    for name, side in (("train", train), ("test", test)):
        covered = {s.identity for s in side}
        missing = identities - covered
        if missing:
            raise MissingIdentity(f"identities {sorted(missing)} absent from the {name} side")
    return train, test
