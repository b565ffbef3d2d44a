"""Command-line pipeline: synth, preprocess, train, eval.

Exit codes: 0 success, 2 config/input error, 3 runtime numerical error.
Each command locks the directories it writes and reads for its whole run
and refuses to overwrite existing outputs unless --force is given.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import fcntl
import json
import logging
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path

import numpy as np

from . import dataset_synth, landmark_engine, mesh_core, patch_features, st_graph, stgcn_net
from .config import RunConfig, _field_value, _is_int, load_config, serialize_config
from .errors import (
    ArchitectureMismatch,
    ConfigError,
    FaceGcnError,
    InconsistentLandmarks,
    InvalidPair,
    NumericalError,
)
from .fileio import read_json, write_atomic

log = logging.getLogger("facegcn")


@contextmanager
def _run_lock(*targets: tuple[Path, int]):
    """Hold a flock on each ``(directory, operation)`` for the ``with`` body.

    A command enters this once and holds it for its whole run: ``LOCK_EX`` on
    each directory it writes, made first, and ``LOCK_SH`` on each it only
    reads, which is skipped when it does not exist. A directory named twice
    (matched with ``samefile``) is locked once, as first named, so the write
    locks come first. The kernel drops every lock when its holder exits or is
    killed (a worker forked inside it closes its copy of each descriptor at
    once), so a killed command leaves nothing behind that blocks a later one. Each
    directory made here, parents too, is removed again if the body fails
    and leaves it empty.
    """
    made: list[Path] = []
    held: list[Path] = []
    with ExitStack() as locks:
        try:
            for path, operation in targets:
                if operation == fcntl.LOCK_EX:
                    made += reversed([d for d in (path, *path.parents) if not d.exists()])
                    path.mkdir(parents=True, exist_ok=True)
                if not path.is_dir() or any(path.samefile(h) for h in held):
                    continue
                locks.enter_context(_dir_lock(path, operation))
                held.append(path)
            yield
        except BaseException:
            for path in reversed(made):
                with suppress(OSError):  # not empty: kept
                    path.rmdir()
            raise


@contextmanager
def _dir_lock(path: Path, operation: int):
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        try:
            fcntl.flock(fd, operation | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(f"{path} is locked: another command is using this directory")
        yield
    finally:
        # a process forked inside the lock that keeps its copy of fd shares
        # the lock, so closing ours alone would not end it
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)


def _refuse_existing(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise ConfigError(f"{path} exists; rerun with --force to overwrite")


def _write_dataset(cfg: RunConfig, named_samples, landmarks, **extra) -> None:
    """Write each sample's tensor, then graph.fgg, then the manifest.

    The manifest is what marks a complete dataset, so any previous one is
    removed before the first write and the new one is written last; on any
    failure every file this call wrote is removed again. The manifest names
    each file relative to its own directory (made by ``_run_lock``),
    which need not be the output directory.
    """
    out = cfg.output_dir
    graph = st_graph.build_spatial_edges(landmarks, strategy=cfg.graph.strategy,
                                         knn_m=cfg.graph.knn_m,
                                         template_pairs=cfg.graph.template_pairs)
    labels = st_graph.partition(graph, cfg.graph.partition)
    root = cfg.manifest_path.parent
    cfg.manifest_path.unlink(missing_ok=True)
    written: list[Path] = []
    try:
        entries = []
        for name, sample in named_samples:
            written.append(out / f"{name}.fgt")
            patch_features.save_tensor(sample.tensor, written[-1])
            entries.append({
                "sequence": name,
                "identity": sample.identity,
                "emotion": sample.emotion,
                "tensor": os.path.relpath(written[-1], root),
                "provenance": sample.provenance,
            })
        written.append(out / "graph.fgg")
        st_graph.save_graph(graph, labels, written[-1])
        manifest = {
            "kind": "facegcn-manifest",
            "k": cfg.features.k,
            "J": len(landmarks),
            "graph": os.path.relpath(written[-1], root),
            "samples": entries,
            **extra,
        }
        write_atomic(cfg.manifest_path,
                     (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("ascii"))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    log.info("wrote %d tensors and %s", len(entries), cfg.manifest_path)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(cfg: RunConfig, force: bool) -> int:
    with _run_lock((cfg.output_dir, fcntl.LOCK_EX), (cfg.manifest_path.parent, fcntl.LOCK_EX)):
        _refuse_existing(cfg.manifest_path, force)
        s = cfg.synth
        synth_cfg = dataset_synth.SynthConfig(
            n_identities=s.n_identities,
            emotions=s.emotions,
            T=s.frames,
            k=cfg.features.k,
            grid=s.grid,
            lm_grid=s.landmark_grid,
            identity_amplitude=s.identity_amplitude,
            expression_amplitude=s.expression_amplitude,
            seed=cfg.seed,
        )
        log.info("generating %d x %d synthetic sequences", s.n_identities, len(s.emotions))
        result = dataset_synth.build_dataset(
            synth_cfg, scale_normalize=cfg.features.scale_normalize
        )
        _write_dataset(
            cfg,
            [(f"id{x.identity:03d}_emo{x.emotion}", x) for x in result.samples],
            result.landmarks,
            separability={
                "inter_identity": result.inter_identity_distance,
                "intra_identity": result.intra_identity_distance,
            },
        )
    return 0


# ---------------------------------------------------------------------------
# preprocess


def _ingest_sequence(seq_dir: Path, cfg: RunConfig):
    """Feature tensor of one sequence directory and its first frame's landmarks,
    by ``dataset_synth.sequence_tensor``: a frame is a ``frame_*`` file with a
    ``.ply`` or ``.obj`` suffix in any case, one per stem, in name order."""
    mesh_files: dict[str, Path] = {}
    for path in sorted(seq_dir.iterdir()):
        if path.suffix.lower() in (".ply", ".obj") and path.stem.startswith("frame_"):
            if path.stem in mesh_files:
                raise ConfigError(f"{seq_dir}: frame {path.stem} has two mesh files, "
                                  f"{mesh_files[path.stem].name} and {path.name}")
            mesh_files[path.stem] = path
    if not mesh_files:
        raise ConfigError(f"{seq_dir}: no frame_*.ply or frame_*.obj files")
    ext = "." + cfg.features.landmark_source
    frames = []
    for mesh_path in mesh_files.values():
        lm_path = mesh_path.with_suffix(ext)
        if not lm_path.exists():
            raise ConfigError(f"missing landmark file for frame {mesh_path.name}: {lm_path}")
        mesh = mesh_core.load_mesh(mesh_path)
        if cfg.features.landmark_source == "lm2":
            base = landmark_engine.lift_landmarks(mesh, landmark_engine.load_landmarks_2d(lm_path))
        else:
            base = landmark_engine.snap_to_mesh(mesh, landmark_engine.load_landmarks_3d(lm_path))
        for a, b in cfg.features.augmentation_pairs:
            if not (0 <= a < len(base) and 0 <= b < len(base)):
                raise InvalidPair(f"sequence {seq_dir}, frame {mesh_path.name}: {lm_path} has "
                                  f"{len(base)} landmarks, too few for pair ({a}, {b})")
        frames.append((mesh, base))
    paths = list(mesh_files.values())
    try:
        tensor, results = dataset_synth.sequence_tensor(
            frames, cfg.features.augmentation_pairs, cfg.features.k, cfg.features.scale_normalize
        )
    except InconsistentLandmarks as exc:
        raise InconsistentLandmarks(
            f"sequence {seq_dir}, frame {paths[exc.frame].name}: landmark ordering differs from "
            f"{paths[0].name}'s (base landmark count or skipped augmentation pairs)") from None
    for mesh_path, result in zip(paths, results):
        if result.skipped:
            log.warning("%s: skipped unreachable pairs %s", mesh_path.name, result.skipped)
    return tensor, results[0].landmarks


def _sequence_targets(cfg: RunConfig) -> list[tuple[Path, int, int]]:
    """(directory, identity, emotion) of each sequence under ``paths.input_dir``."""
    if not cfg.paths.input_dir:
        raise ConfigError("paths.input_dir is required for preprocess")
    input_dir = Path(cfg.paths.input_dir)
    if not input_dir.is_dir():
        raise ConfigError(f"input directory not found: {input_dir}")
    seq_dirs = sorted(p for p in input_dir.iterdir() if p.is_dir())
    if not seq_dirs:
        raise ConfigError(f"{input_dir} contains no sequence directories")

    labels_path = Path(cfg.paths.labels_file) if cfg.paths.labels_file else input_dir / "labels.json"
    if not labels_path.exists():
        raise ConfigError(f"label mapping file not found: {labels_path}")
    labels = read_json(labels_path)
    if not isinstance(labels, dict):
        raise ConfigError(f"{labels_path}: expected an object keyed by sequence name")
    targets = []
    for seq_dir in seq_dirs:
        entry = labels.get(seq_dir.name)
        if not (isinstance(entry, dict) and _is_int(entry.get("identity"))
                and _is_int(entry.get("emotion"))):
            raise ConfigError(f"{labels_path}: sequence {seq_dir.name!r} needs an entry with "
                              "integer identity and emotion")
        targets.append((seq_dir, entry["identity"], entry["emotion"]))
    return targets


def cmd_preprocess(cfg: RunConfig, force: bool) -> int:
    with _run_lock((cfg.output_dir, fcntl.LOCK_EX), (cfg.manifest_path.parent, fcntl.LOCK_EX)):
        targets = _sequence_targets(cfg)
        _refuse_existing(cfg.manifest_path, force)
        named = []
        for seq_dir, identity, emotion in targets:
            tensor, seq_landmarks = _ingest_sequence(seq_dir, cfg)
            if not named:
                landmarks = seq_landmarks
            elif tensor.landmark_hash != named[0][1].tensor.landmark_hash:
                raise InconsistentLandmarks(f"sequence {seq_dir.name!r} disagrees with "
                                            f"{named[0][0]!r} on landmark count or ordering")
            provenance = {"k": cfg.features.k, "J": tensor.J, "T": tensor.T}
            sample = dataset_synth.SequenceSample(tensor, identity, emotion, provenance)
            named.append((seq_dir.name, sample))
        _write_dataset(cfg, named, landmarks)
    return 0


# ---------------------------------------------------------------------------
# train / eval


def _load_manifest(cfg: RunConfig):
    path = cfg.manifest_path
    if not path.exists():
        raise ConfigError(f"manifest not found: {path}")
    manifest = read_json(path)
    if (not isinstance(manifest, dict) or manifest.get("kind") != "facegcn-manifest"
            or not manifest.get("samples")):
        raise ConfigError(f"{path}: not a usable manifest")
    root = path.parent

    def integer(value, where):
        return _field_value(f"{path}: {where}", "int", value)

    try:
        k, j_count = integer(manifest["k"], "k"), integer(manifest["J"], "J")
        graph_path = root / str(manifest["graph"])
        entries = [
            (root / str(e["tensor"]), integer(e["identity"], f"samples[{i}].identity"),
             integer(e["emotion"], f"samples[{i}].emotion"), e.get("provenance", {}))
            for i, e in enumerate(manifest["samples"])
        ]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})")
    samples = []
    for tensor_path, identity, emotion, provenance in entries:
        t = patch_features.load_tensor(tensor_path)
        first = samples[0].tensor if samples else t
        if t.k != k:
            raise ConfigError(f"{tensor_path}: k={t.k}, but {path} says k={k}")
        if (t.J, t.landmark_hash) != (first.J, first.landmark_hash):
            raise InconsistentLandmarks(f"{tensor_path} disagrees with {entries[0][0]} on "
                                        f"landmark count or ordering (J={t.J} vs {first.J})")
        samples.append(dataset_synth.SequenceSample(t, identity, emotion, provenance))
    if first.J != j_count:
        raise InconsistentLandmarks(f"tensors have J={first.J}, but {path} says J={j_count}")
    graph, labels = st_graph.load_graph(graph_path)
    if first.J != graph.J:
        raise InconsistentLandmarks(f"tensors have J={first.J}, but {graph_path} has J={graph.J}")
    return k, samples, graph, labels


def _class_mapping(samples) -> dict[int, int]:
    return {ident: i for i, ident in enumerate(sorted({s.identity for s in samples}))}


def _model_arch(cfg: RunConfig, in_channels: int, num_classes: int) -> stgcn_net.ModelArch:
    return stgcn_net.ModelArch(
        in_channels=in_channels, num_classes=num_classes, **dataclasses.asdict(cfg.model)
    )


def cmd_train(cfg: RunConfig, force: bool) -> int:
    out = cfg.output_dir
    with _run_lock((out, fcntl.LOCK_EX), (cfg.checkpoint_path.parent, fcntl.LOCK_EX),
                   (cfg.manifest_path.parent, fcntl.LOCK_SH)):
        log_path = out / "train_log.txt"
        best_path = out / "checkpoint_best.fgc"
        _refuse_existing(cfg.checkpoint_path, force)
        _refuse_existing(log_path, force)
        k, samples, graph, labels = _load_manifest(cfg)
        train_side, _ = dataset_synth.cross_emotion_split(samples, cfg.train.train_emotions)
        classes = _class_mapping(samples)
        adjacency = st_graph.normalize_adjacency(graph, labels)

        in_channels = samples[0].tensor.C
        model = stgcn_net.init_model(
            _model_arch(cfg, in_channels, len(classes)), adjacency, seed=cfg.seed
        )
        train_data = [(s.tensor.values, classes[s.identity]) for s in train_side]
        # a run killed from here on leaves no checkpoint that eval would trust,
        # and no log of a run whose checkpoints are gone
        for path in (cfg.checkpoint_path, best_path, log_path):
            path.unlink(missing_ok=True)
        meta = {"k": k, "seed": cfg.seed, "epoch": 0}

        best_loss = np.inf
        best: tuple[stgcn_net.Model, int] | None = None  # parameters and epoch of best_loss
        lines: list[str] = []

        def on_epoch(stats: stgcn_net.EpochStats):
            nonlocal best_loss, best
            lines.append(stats.log_line())
            log.info("%s", stats.log_line())
            if stats.loss < best_loss:
                best_loss, best = stats.loss, (copy.deepcopy(model), stats.epoch)

        stgcn_net.train_model(
            model,
            train_data,
            epochs=cfg.train.epochs,
            base_lr=cfg.optim.base_lr,
            momentum=cfg.optim.momentum,
            weight_decay=cfg.optim.weight_decay,
            decay_epochs=cfg.optim.decay_epochs,
            gamma=cfg.optim.gamma,
            batch_size=cfg.train.batch_size,
            seed=cfg.seed,
            on_epoch=on_epoch,
        )
        write_atomic(log_path, "".join(line + "\n" for line in lines).encode("ascii"))
        if best is not None:
            stgcn_net.save_checkpoint(best_path, best[0], {**meta, "epoch": best[1]})
        stgcn_net.save_checkpoint(
            cfg.checkpoint_path, model, {**meta, "epoch": max(cfg.train.epochs - 1, 0)}
        )
        log.info("wrote %s", cfg.checkpoint_path)
    return 0


def cmd_eval(cfg: RunConfig, force: bool) -> int:
    out = cfg.output_dir
    with _run_lock((out, fcntl.LOCK_EX), (cfg.manifest_path.parent, fcntl.LOCK_SH),
                   (cfg.checkpoint_path.parent, fcntl.LOCK_SH)):
        report_path = out / "eval_report.json"
        _refuse_existing(report_path, force)
        text = _evaluate_report(cfg)
        write_atomic(report_path, text.encode("ascii"))
    print(text, end="")
    return 0


def _evaluate_report(cfg: RunConfig) -> str:
    """The JSON report of the checkpoint on the cross-emotion test side."""
    _, samples, graph, labels = _load_manifest(cfg)
    model, meta = stgcn_net.load_checkpoint(cfg.checkpoint_path)
    classes = _class_mapping(samples)

    expected = _model_arch(cfg, samples[0].tensor.C, len(classes))
    if model.arch != expected:
        raise ArchitectureMismatch(
            f"checkpoint has {model.arch}, but config and tensors give {expected}"
        )
    if model.J != graph.J:
        raise ArchitectureMismatch(f"checkpoint J={model.J}, graph J={graph.J}")

    _, test_side = dataset_synth.cross_emotion_split(samples, cfg.train.train_emotions)

    targets = [classes[s.identity] for s in test_side]
    correct, total, preds = stgcn_net.evaluate(
        model, [(s.tensor.values, c) for s, c in zip(test_side, targets)]
    )
    by_emotion: dict[int, list[int]] = {}
    for s, c, pred in zip(test_side, targets, preds):
        by_emotion.setdefault(s.emotion, []).append(int(pred == c))

    report = {
        "total": total,
        "correct": correct,
        "accuracy": correct / total,
        "per_emotion": [
            {
                "emotion": e,
                "total": len(v),
                "correct": sum(v),
                "accuracy": sum(v) / len(v),
            }
            for e, v in sorted(by_emotion.items())
        ],
        "checkpoint_epoch": meta.get("epoch"),
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facegcn",
        description="Dynamic 3D face identification pipeline on synthetic or generic mesh sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic dataset of feature tensors"),
        ("preprocess", "turn raw per-frame mesh+landmark sequences into feature tensors"),
        ("train", "train the ST-GCN on the cross-emotion train side"),
        ("eval", "evaluate a checkpoint on the cross-emotion test side"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration (defaults used if omitted)")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")
        p.add_argument("--print-config", action="store_true",
                       help="print the resolved configuration and exit")
        p.add_argument("--seed", type=int, help="override the configured seed")
    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.validate()
        if args.print_config:
            print(serialize_config(cfg), end="")
            return 0
        return _COMMANDS[args.command](cfg, args.force)
    except NumericalError as exc:
        print(f"facegcn: numerical error: {exc}", file=sys.stderr)
        return 3
    except (FaceGcnError, OSError) as exc:
        print(f"facegcn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
