"""The raw-file twin of a synthetic dataset: ``facegcn synth``'s frames and base
landmarks written as the sequence directories that ``facegcn preprocess`` reads.

``preprocess`` on the twin writes the FGT1 tensors and ``graph.fgg`` of
``synth`` on the same config, byte for byte, since both run
``dataset_synth.sequence_tensor`` on equal frames: the mesh writers keep
float32 vertices and uchar colors exact, and each landmark file names its
anchor vertex exactly (its uv for ``.lm2``, its position for ``.lm3``), so
``lift_landmarks`` and ``snap_to_mesh`` find that vertex at distance 0.
"""

import json

from facegcn import dataset_synth
from facegcn.config import load_config
from facegcn.mesh_core import write_mesh


def write_raw_twin(config_path, root, fmt="ply", source="lm2"):
    """Write the twin of the synth config at ``config_path`` under ``root``.

    ``root/raw`` gets one ``id{i:03d}_emo{e}`` directory per synthetic
    sequence, named as ``synth`` names its tensors, with ``labels.json``;
    each frame is a ``write_mesh`` file in ``fmt`` and a ``source`` landmark
    file. Returns the path of ``root/config.json``: the synth config with
    the twin as ``paths.input_dir``, ``root/out`` as ``paths.output_dir``,
    ``source`` as ``features.landmark_source`` and the synthetic
    augmentation pairs as ``features.augmentation_pairs``.
    """
    cfg = load_config(config_path)
    s = cfg.synth
    synth_cfg = dataset_synth.SynthConfig(
        n_identities=s.n_identities, emotions=s.emotions, T=s.frames, k=cfg.features.k,
        grid=s.grid, lm_grid=s.landmark_grid, identity_amplitude=s.identity_amplitude,
        expression_amplitude=s.expression_amplitude, seed=cfg.seed,
    )
    raw = root / "raw"
    suffix = ".obj" if fmt == "obj" else ".ply"
    labels = {}
    for i in range(s.n_identities):
        for e in s.emotions:
            name = f"id{i:03d}_emo{e}"
            labels[name] = {"identity": i, "emotion": e}
            seq = raw / name
            seq.mkdir(parents=True)
            frames = dataset_synth.generate_sequence(
                synth_cfg.identity_params(i), synth_cfg.expression_params(e), s.frames,
                lm_grid=s.landmark_grid)
            for t, (mesh, base) in enumerate(frames):
                write_mesh(mesh, seq / f"frame_{t:04d}{suffix}", fmt)
                points = mesh.uv[base.anchors] if source == "lm2" else base.positions
                lines = "".join(" ".join(repr(float(x)) for x in p) + "\n" for p in points)
                (seq / f"frame_{t:04d}.{source}").write_text(lines)
    (raw / "labels.json").write_text(json.dumps(labels))

    data = json.loads(config_path.read_text())
    data["paths"] = {"input_dir": str(raw), "output_dir": str(root / "out")}
    data.setdefault("features", {}).update(
        landmark_source=source,
        augmentation_pairs=dataset_synth.default_augment_pairs(s.landmark_grid))
    twin_config = root / "config.json"
    twin_config.write_text(json.dumps(data))
    return twin_config
