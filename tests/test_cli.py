import dataclasses
import fcntl
import hashlib
import json
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

import facegcn
from facegcn import fileio, mesh_core, parallel, stgcn_net
from facegcn.cli import _dir_lock, main
from facegcn.config import RunConfig, config_from_dict, load_config, serialize_config
from facegcn.dataset_synth import ExpressionParams, IdentityParams, make_frame_mesh
from facegcn.errors import ConfigError
from facegcn.mesh_core import TexturedMesh, write_mesh
from facegcn.patch_features import FeatureTensor, load_tensor, save_tensor
from facegcn.st_graph import SpatialGraph, load_graph, partition, save_graph

from test_fileio import HalfWriteFile
from test_stgcn_net import CHECKPOINT_HEADER_TAMPERS, tamper_checkpoint
from twin_testutil import write_raw_twin


def small_config(tmp_path, **over):
    """Full 10x6 protocol at a desk-tiny mesh scale."""
    data = {
        "paths": {"output_dir": str(tmp_path / "out")},
        "features": {"k": 4},
        "synth": {"n_identities": 10, "frames": 2, "grid": 8, "landmark_grid": 2},
        "train": {"epochs": 0, "batch_size": 4, "train_emotions": [0, 1, 2]},
    }
    for key, val in over.items():
        data.setdefault(key, {}).update(val)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return p


def write_sequence_dir(root, n_frames=5, n_landmarks=68, grid=12, seed=20, name="seq_a",
                       identity=0):
    seq = root / name
    seq.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    points = rng.uniform(size=(n_landmarks, 2))
    for t in range(n_frames):
        mesh = make_frame_mesh(IdentityParams(seed=seed, grid=grid), ExpressionParams(emotion=0), t, n_frames)
        write_mesh(mesh, seq / f"frame_{t:04d}.ply")
        lines = "\n".join(f"{u} {v}" for u, v in points)
        (seq / f"frame_{t:04d}.lm2").write_text(lines + "\n")
    labels_path = root / "labels.json"
    labels = json.loads(labels_path.read_text()) if labels_path.exists() else {}
    labels[name] = {"identity": identity, "emotion": 0}
    labels_path.write_text(json.dumps(labels))
    return seq


# ---------------------------------------------------------------------------
# config


def test_config_round_trip():
    cfg = RunConfig()
    cfg.features.k = 9
    cfg.train.train_emotions = (1, 4)
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg
    assert config_from_dict(json.loads(serialize_config(cfg))) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"features": {"bogus": 1}}))
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text(json.dumps({"wat": {}}))
    with pytest.raises(ConfigError):
        load_config(p)


# (wording, JSON values of other types, a JSON value and what it parses to), by
# the annotation of the config field the value fills
CONFIG_VALUE_TYPES = {
    "int": ("an integer", ["25", 2.0, True, None, [1]], 3, 3),
    "float": ("a number", ["0.1", True, None, {}], 2, 2),
    "bool": ("a boolean", [1, "true", None, 0.0], False, False),
    "str": ("a string", [None, 3, ["a"], False], "x", "x"),
    "str | None": ("a string or null", [3, False, {}, ["a"]], None, None),
    "tuple[int, ...]": ("a list of integers", [5, "12", [1, 2.5], [True], [[1]], {}],
                        [4, 1], (4, 1)),
    "tuple[tuple[int, int], ...]": ("a list of [int, int] pairs",
                                    [7, [1, 2], [[1, 2, 3]], [[1, "2"]], [[True, 2]], [[1]]],
                                    [[1, 2], [3, 4]], ((1, 2), (3, 4))),
}


def config_keys():
    """(section or None, key, annotation) of every key a config file may set."""
    for f in dataclasses.fields(RunConfig):
        if f.default_factory is dataclasses.MISSING:
            yield None, f.name, f.type
        else:
            yield from ((f.name, g.name, g.type) for g in dataclasses.fields(f.default_factory))


CONFIG_KEYS = {key if section is None else f"{section}.{key}": (section, key, annotation)
               for section, key, annotation in config_keys()}


@pytest.mark.parametrize("where", list(CONFIG_KEYS))
def test_config_value_of_another_type_names_the_key(where):
    section, key, annotation = CONFIG_KEYS[where]
    kind, bad_values, good, parsed = CONFIG_VALUE_TYPES[annotation]
    for bad in bad_values:
        with pytest.raises(ConfigError) as info:
            config_from_dict({key: bad} if section is None else {section: {key: bad}})
        assert str(info.value) == f"{where} must be {kind}, got {bad!r}"
    cfg = config_from_dict({key: good} if section is None else {section: {key: good}})
    value = getattr(cfg if section is None else getattr(cfg, section), key)
    assert value == parsed and type(value) is type(parsed)
    if isinstance(parsed, tuple):
        assert all(type(v) is type(p) for v, p in zip(value, parsed))


@pytest.mark.parametrize("data, message", [
    ({"wat": {}}, "unknown config section 'wat'"),
    ({"features": {"bogus": 1}}, "unknown key features.bogus"),
    ({"features": 5}, "config section 'features' must be an object, got 5"),
    ({"paths": ["out"]}, "config section 'paths' must be an object, got ['out']"),
    ([], "config root must be an object"),
    ("x", "config root must be an object"),
], ids=["unknown-section", "unknown-key", "int-section", "list-section", "list-root",
        "string-root"])
def test_config_shape_error_messages(data, message):
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value) == message


def test_config_validation_errors():
    cfg = RunConfig()
    cfg.features.k = 0
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = RunConfig()
    cfg.model.kernel_size = 4
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = RunConfig()
    cfg.optim.base_lr = 0.0
    with pytest.raises(ConfigError):
        cfg.validate()


def test_print_config_exits_zero(tmp_path, capsys):
    assert main(["synth", "--print-config"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert parsed["optim"]["base_lr"] == 0.01
    assert parsed["features"]["k"] == 25


def test_invalid_k_exit_code_2(tmp_path, capsys):
    p = small_config(tmp_path, features={"k": 0})
    assert main(["synth", "--config", str(p)]) == 2


@pytest.mark.parametrize("data", [
    {"features": 5},
    {"features": {"k": "25"}},
    {"seed": "x"},
], ids=["section-not-object", "string-k", "string-seed"])
def test_config_type_error_exit_code_2(tmp_path, capsys, data):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(data))
    assert main(["synth", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("facegcn: error:") and "Traceback" not in err


@pytest.mark.parametrize("text, constant", [
    ('{"optim": {"base_lr": Infinity}}', "Infinity"),
    ('{"optim": {"weight_decay": NaN}}', "NaN"),
    ('{"optim": {"base_lr": -Infinity}}', "-Infinity"),
], ids=["infinite-lr", "nan-decay", "negative-infinite-lr"])
def test_config_non_finite_number_exit_code_2(tmp_path, capsys, text, constant):
    p = tmp_path / "c.json"
    p.write_text(text)
    assert main(["synth", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("facegcn: error:") and "Traceback" not in err
    assert str(p) in err and f"non-finite number {constant} at [\"optim\"]" in err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_negative_seed_exit_code_2(tmp_path, capsys, where):
    p = small_config(tmp_path)
    argv = ["synth", "--config", str(p)]
    if where == "flag":
        argv += ["--seed", "-3"]
    else:
        p.write_text(json.dumps({**json.loads(p.read_text()), "seed": -1}))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("facegcn: error: seed must be >= 0") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_60_tensors_and_manifest(tmp_path):
    p = small_config(tmp_path)
    assert main(["synth", "--config", str(p)]) == 0
    out = tmp_path / "out"
    tensors = sorted(out.glob("*.fgt"))
    assert len(tensors) == 60  # 10 identities x 6 emotions
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["samples"]) == 60
    assert (out / "graph.fgg").exists()
    t = load_tensor(tensors[0])
    assert t.C == 6 * 4
    assert not (out / ".facegcn.lock").exists()


def test_manifest_outside_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    p = small_config(tmp_path, paths={"output_dir": "out", "manifest": "meta/manifest.json"})
    assert main(["synth", "--config", str(p)]) == 0
    manifest = json.loads((tmp_path / "meta" / "manifest.json").read_text())
    assert manifest["graph"] == "../out/graph.fgg"
    assert main(["train", "--config", str(p)]) == 0


def test_synth_refuses_rerun_without_force(tmp_path, capsys):
    p = small_config(tmp_path)
    assert main(["synth", "--config", str(p)]) == 0
    manifest = (tmp_path / "out" / "manifest.json").read_bytes()
    tensor = (tmp_path / "out" / "id003_emo2.fgt").read_bytes()
    assert main(["synth", "--config", str(p)]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["synth", "--config", str(p), "--force"]) == 0
    # idempotent under --force with identical config and seed
    assert (tmp_path / "out" / "manifest.json").read_bytes() == manifest
    assert (tmp_path / "out" / "id003_emo2.fgt").read_bytes() == tensor


def test_synth_seed_override_changes_data(tmp_path):
    p = small_config(tmp_path)
    assert main(["synth", "--config", str(p)]) == 0
    a = (tmp_path / "out" / "id000_emo0.fgt").read_bytes()
    assert main(["synth", "--config", str(p), "--force", "--seed", "99"]) == 0
    b = (tmp_path / "out" / "id000_emo0.fgt").read_bytes()
    assert a != b


@pytest.mark.parametrize("rerun", [False, True], ids=["fresh", "force"])
def test_failed_synth_write_removes_what_it_wrote(tmp_path, monkeypatch, rerun):
    # the third tensor write fails halfway: no manifest is left, and neither
    # are the tensors this run wrote before it
    p = small_config(tmp_path)
    out = tmp_path / "out"
    if rerun:
        assert main(["synth", "--config", str(p)]) == 0
    before = {q.name for q in out.iterdir()} if rerun else set()
    real_open = open
    tensor_opens = []

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if ".fgt." in str(path):
            tensor_opens.append(path)
            if len(tensor_opens) == 3:
                return HalfWriteFile(fh)
        return fh

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    assert main(["synth", "--config", str(p)] + ["--force"] * rerun) == 2
    monkeypatch.undo()
    written = {"id000_emo0.fgt", "id000_emo1.fgt", "id000_emo2.fgt"}
    if rerun:
        assert {q.name for q in out.iterdir()} == before - written - {"manifest.json"}
    else:  # nor the output directory it made
        assert not out.exists()


# ---------------------------------------------------------------------------
# preprocess


def test_preprocess_shapes(tmp_path):
    raw = tmp_path / "raw"
    write_sequence_dir(raw)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
        "features": {"k": 25},
    }))
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    t = load_tensor(tmp_path / "out" / "seq_a.fgt")
    # 68 base + 15 default pairs = 83 landmarks; 6*25 = 150 channels; 5 frames
    assert t.values.shape == (150, 83, 5)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["samples"][0]["sequence"] == "seq_a"


GOLDEN_PREPROCESS_FGT1_SHA256 = "6f180e5e19c8b8a6bb9f6aa0462d13c47fccf8993dfb3f27d2c647eda050694a"


def test_preprocess_golden_fgt1_digest(tmp_path):
    # ASCII-PLY frames through load_mesh, lift, edge graph, augmentation and
    # kNN patches: a change in any of them that moves one output byte fails
    raw = tmp_path / "raw"
    write_sequence_dir(raw, n_frames=3, grid=14, seed=27)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
        "features": {"k": 9},
    }))
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "seq_a.fgt").read_bytes()).hexdigest()
    assert digest == GOLDEN_PREPROCESS_FGT1_SHA256


def test_preprocess_missing_landmark_file_names_frame(tmp_path, capsys):
    raw = tmp_path / "raw"
    seq = write_sequence_dir(raw, n_frames=3)
    (seq / "frame_0001.lm2").unlink()
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
    }))
    assert main(["preprocess", "--config", str(cfg_path)]) == 2
    assert "frame_0001" in capsys.readouterr().err
    assert not (tmp_path / "out" / "seq_a.fgt").exists()  # partial output removed


def test_preprocess_empty_input_dir(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
    }))
    assert main(["preprocess", "--config", str(cfg_path)]) == 2


def test_preprocess_lm3_source(tmp_path):
    raw = tmp_path / "raw"
    seq = raw / "seq_b"
    seq.mkdir(parents=True)
    rng = np.random.default_rng(24)
    for t in range(2):
        mesh = make_frame_mesh(IdentityParams(seed=24, grid=10), ExpressionParams(emotion=1), t, 2)
        write_mesh(mesh, seq / f"frame_{t:04d}.ply")
        picks = rng.integers(0, mesh.n_vertices, size=10)
        lines = "\n".join(" ".join(str(v) for v in mesh.vertices[i]) for i in picks)
        (seq / f"frame_{t:04d}.lm3").write_text(lines + "\n")
    (raw / "labels.json").write_text(json.dumps({"seq_b": {"identity": 1, "emotion": 1}}))
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({
        "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
        "features": {"k": 5, "landmark_source": "lm3",
                     "augmentation_pairs": [[0, 9], [1, 8]]},
    }))
    assert main(["preprocess", "--config", str(cfg_path)]) == 0
    t = load_tensor(tmp_path / "out" / "seq_b.fgt")
    assert t.values.shape == (30, 12, 2)  # 10 base + 2 augmented


def preprocess_config(tmp_path, raw, **features):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({
        "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
        "features": features,
    }))
    return p


# file to corrupt -> (landmark source, 1-based line, new content of that line)
BAD_TEXT_INPUTS = {
    "config-byte": ("c.json", "lm2", 3, lambda line: line + b"\xff"),
    "lm2-byte": ("frame_0000.lm2", "lm2", 5, lambda line: b"\xff" + line),
    "lm3-byte": ("frame_0000.lm3", "lm3", 5, lambda line: line + b" \xff"),
    "obj-byte": ("frame_0000.obj", "lm2", 5, lambda line: line.replace(b" ", b"\xff", 1)),
    "lm2-nan": ("frame_0000.lm2", "lm2", 5, lambda line: b"nan 0.3"),
    "lm2-inf": ("frame_0000.lm2", "lm2", 5, lambda line: b"1e999 0.3"),
}


@pytest.mark.parametrize("case", list(BAD_TEXT_INPUTS))
def test_bad_text_input_exit_code_2(tmp_path, capsys, case):
    name, source, lineno, corrupt = BAD_TEXT_INPUTS[case]
    raw = tmp_path / "raw"
    seq = write_sequence_dir(raw, n_frames=1)
    frame = seq / "frame_0000.ply"
    mesh = mesh_core.load_mesh(frame)
    if name.endswith(".obj"):
        write_mesh(mesh, frame.with_suffix(".obj"), fmt="obj")
        frame.unlink()
    if source == "lm3":
        rows = mesh.vertices[::2][:68]
        frame.with_suffix(".lm3").write_text("".join(f"{x} {y} {z}\n" for x, y, z in rows))
    p = tmp_path / "c.json"
    p.write_text(json.dumps({
        "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
        "features": {"landmark_source": source},
    }, indent=2))
    target = p if name == p.name else seq / name
    lines = target.read_bytes().split(b"\n")
    lines[lineno - 1] = corrupt(lines[lineno - 1])
    target.write_bytes(b"\n".join(lines))
    assert main(["preprocess", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"facegcn: error: {target}:{lineno}: ") and "Traceback" not in err
    assert not list((tmp_path / "out").glob("*.fgt"))


def test_preprocess_failed_second_sequence_leaves_no_tensor(tmp_path, capsys):
    raw = tmp_path / "raw"
    write_sequence_dir(raw, n_frames=2)
    seq_b = write_sequence_dir(raw, n_frames=2, name="seq_b", identity=1)
    (seq_b / "frame_0001.lm2").unlink()
    assert main(["preprocess", "--config", str(preprocess_config(tmp_path, raw))]) == 2
    assert "frame_0001" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_failed_force_preprocess_keeps_previous_dataset(tmp_path):
    raw = tmp_path / "raw"
    write_sequence_dir(raw, n_frames=2)
    write_sequence_dir(raw, n_frames=2, name="seq_b", identity=1)
    p = preprocess_config(tmp_path, raw)
    assert main(["preprocess", "--config", str(p)]) == 0
    out = tmp_path / "out"
    before = {q.name: q.read_bytes() for q in out.iterdir()}
    assert set(before) == {"graph.fgg", "manifest.json", "seq_a.fgt", "seq_b.fgt"}
    write_sequence_dir(raw, n_frames=2, seed=21)  # seq_a's frames change
    (raw / "seq_b" / "frame_0001.lm2").unlink()
    assert main(["preprocess", "--config", str(p), "--force"]) == 2
    assert {q.name: q.read_bytes() for q in out.iterdir()} == before


@pytest.mark.parametrize("seq_b_entry", [
    None,
    {"identity": 1},
    {"identity": float("inf"), "emotion": 0},
    {"identity": 1.5, "emotion": 0},
    {"identity": 1, "emotion": True},
    {"identity": "1", "emotion": 0},
], ids=["missing", "no-emotion", "infinite-identity", "float-identity", "bool-emotion",
        "string-identity"])
def test_bad_labels_entry_exits_before_ingest(tmp_path, monkeypatch, capsys, seq_b_entry):
    raw = tmp_path / "raw"
    write_sequence_dir(raw, n_frames=1)
    write_sequence_dir(raw, n_frames=1, name="seq_b", identity=1)
    labels = {"seq_a": {"identity": 0, "emotion": 0}}
    if seq_b_entry is not None:
        labels["seq_b"] = seq_b_entry
    (raw / "labels.json").write_text(json.dumps(labels))
    real_load_mesh, loaded = mesh_core.load_mesh, []

    def counting_load_mesh(path, *args, **kwargs):
        loaded.append(path)
        return real_load_mesh(path, *args, **kwargs)

    monkeypatch.setattr(mesh_core, "load_mesh", counting_load_mesh)
    assert main(["preprocess", "--config", str(preprocess_config(tmp_path, raw))]) == 2
    assert "seq_b" in capsys.readouterr().err
    assert loaded == []


def test_preprocess_inconsistent_landmarks_exit_code_2(tmp_path, capsys):
    raw = tmp_path / "raw"
    write_sequence_dir(raw, n_frames=1, n_landmarks=12)
    write_sequence_dir(raw, n_frames=1, n_landmarks=10, name="seq_b", identity=1)
    p = preprocess_config(tmp_path, raw, k=5, augmentation_pairs=[[0, 9], [1, 8]])
    assert main(["preprocess", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "seq_b" in err and "landmark count or ordering" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def cut_at_half_u(mesh):
    """The mesh without its faces that cross u = 0.5: no path joins its two halves."""
    left = mesh.uv[:, 0] < 0.5
    keep = left[mesh.faces].all(axis=1) | ~left[mesh.faces].any(axis=1)
    return TexturedMesh.from_arrays(mesh.vertices, mesh.faces[keep], mesh.colors, mesh.uv)


def test_preprocess_names_the_frame_that_disagrees_on_landmark_ordering(tmp_path, capsys):
    # frames A, A, B: pair (0, 1) crosses u = 0.5, which B's faces do not, so
    # B alone skips it; B is the sequence's frame 2 but its distinct frame 1
    raw = tmp_path / "raw"
    seq = write_sequence_dir(raw, n_frames=3)
    shutil.copy(seq / "frame_0000.ply", seq / "frame_0001.ply")
    write_mesh(cut_at_half_u(mesh_core.load_mesh(seq / "frame_0000.ply")), seq / "frame_0002.ply")
    for t in range(3):
        (seq / f"frame_{t:04d}.lm2").write_text("0.2 0.5\n0.8 0.5\n0.3 0.3\n0.35 0.6\n")
    p = preprocess_config(tmp_path, raw, k=5, augmentation_pairs=[[0, 1], [2, 3]])
    assert assert_one_error_line(["preprocess", "--config", str(p)], capsys) == (
        f"facegcn: error: sequence {seq}, frame frame_0002.ply: landmark ordering differs from "
        "frame_0000.ply's (base landmark count or skipped augmentation pairs)")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fmt, source", [("ply", "lm2"), ("obj", "lm3"), ("ply-binary", "lm3")])
def test_preprocess_of_the_raw_twin_writes_the_synth_bytes(tmp_path, fmt, source):
    # synth and preprocess share one path from frames to tensors: the raw-file
    # twin pins load_mesh, lift/snap and the file formats to synth's bytes.
    # Three frames, as two are equal after quantization (sin^2(pi) ~ 1e-32):
    # frames 0 and 2 are equal, frame 1 is the peak
    p = small_config(tmp_path, synth={"frames": 3})
    assert main(["synth", "--config", str(p)]) == 0
    twin = write_raw_twin(p, tmp_path / "twin", fmt, source)
    assert main(["preprocess", "--config", str(twin)]) == 0
    synth_dir, twin_dir = tmp_path / "out", tmp_path / "twin" / "out"
    names = sorted(q.name for q in synth_dir.glob("*.fgt"))
    assert len(names) == 60
    assert sorted(q.name for q in twin_dir.glob("*.fgt")) == names
    for name in names + ["graph.fgg"]:
        assert (twin_dir / name).read_bytes() == (synth_dir / name).read_bytes(), name
    assert all(load_tensor(twin_dir / name).T == 3 for name in names)  # a column per frame


@pytest.mark.parametrize("other", [".obj", ".PLY"])
def test_preprocess_refuses_two_mesh_files_of_one_frame(tmp_path, capsys, other):
    raw = tmp_path / "raw"
    seq = write_sequence_dir(raw, n_frames=3)
    frame = seq / "frame_0001.ply"
    second_file = frame.with_name("frame_0001" + other)
    write_mesh(mesh_core.load_mesh(frame), second_file, fmt="obj" if other == ".obj" else "ply")
    assert main(["preprocess", "--config", str(preprocess_config(tmp_path, raw))]) == 2
    first, second = sorted([frame.name, second_file.name])
    assert capsys.readouterr().err == (
        f"facegcn: error: {seq}: frame frame_0001 has two mesh files, {first} and {second}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suffix", [".PLY", ".Obj"])
def test_preprocess_reads_frame_suffixes_in_any_case(tmp_path, suffix):
    raw = tmp_path / "raw"
    seq = write_sequence_dir(raw, n_frames=3)
    p = preprocess_config(tmp_path, raw, k=5)
    assert main(["preprocess", "--config", str(p)]) == 0
    want = (tmp_path / "out" / "seq_a.fgt").read_bytes()
    frame = seq / "frame_0001.ply"
    write_mesh(mesh_core.load_mesh(frame), frame.with_name("frame_0001" + suffix),
               fmt="obj" if suffix.lower() == ".obj" else "ply")
    frame.unlink()
    assert main(["preprocess", "--config", str(p), "--force"]) == 0
    assert load_tensor(tmp_path / "out" / "seq_a.fgt").T == 3
    assert (tmp_path / "out" / "seq_a.fgt").read_bytes() == want


# ---------------------------------------------------------------------------
# train / eval


@pytest.fixture(scope="module")
def synth_out(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("pipeline")
    p = small_config(tmp_path)
    assert main(["synth", "--config", str(p)]) == 0
    return tmp_path, p


def test_train_zero_epochs_writes_initial_checkpoint(synth_out):
    tmp_path, p = synth_out
    assert main(["train", "--config", str(p)]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoint_final.fgc").exists()
    assert (out / "train_log.txt").read_text() == ""
    model, meta = stgcn_net.load_checkpoint(out / "checkpoint_final.fgc")
    assert model.arch.num_classes == 10
    assert meta["epoch"] == 0


def test_train_deterministic_rerun(synth_out, tmp_path_factory):
    tmp_path, _ = synth_out
    cfg = json.loads((tmp_path / "config.json").read_text())
    cfg["train"]["epochs"] = 2
    p2 = tmp_path / "config_e2.json"
    p2.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p2), "--force"]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoint_best.fgc").exists()  # written once, before the final checkpoint
    first = (out / "checkpoint_final.fgc").read_bytes()
    first_log = (out / "train_log.txt").read_text()
    assert main(["train", "--config", str(p2), "--force"]) == 0
    assert (out / "checkpoint_final.fgc").read_bytes() == first
    log = (out / "train_log.txt").read_text()
    assert len(log.splitlines()) == 2
    # wall time differs between runs; losses must not
    strip = lambda s: [l.rsplit(" time=", 1)[0] for l in s.splitlines()]
    assert strip(log) == strip(first_log)


def test_eval_constant_classifier_hits_one_over_n(synth_out, tmp_path):
    p = config_on_synth(synth_out, tmp_path, epochs=0)
    assert main(["train", "--config", str(p)]) == 0
    out = tmp_path / "out"
    model, meta = stgcn_net.load_checkpoint(out / "checkpoint_final.fgc")
    for _, arr in model.parameters():
        arr[...] = 0.0
    stgcn_net.save_checkpoint(out / "checkpoint_final.fgc", model, meta)
    assert main(["eval", "--config", str(p)]) == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["total"] == 30  # 10 identities x 3 held-out emotions
    assert report["accuracy"] == pytest.approx(1 / 10)
    assert sum(e["total"] for e in report["per_emotion"]) == report["total"]
    assert sum(e["correct"] for e in report["per_emotion"]) == report["correct"]
    assert 0.0 <= report["accuracy"] <= 1.0


def test_eval_architecture_mismatch(synth_out, tmp_path, capsys):
    p = config_on_synth(synth_out, tmp_path, epochs=0)
    assert main(["train", "--config", str(p)]) == 0
    cfg = json.loads(p.read_text())
    cfg["model"] = {"block_channels": [8, 8], "strides": [1, 1], "kernel_size": 3}
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["eval", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"facegcn: error: checkpoint has ModelArch\(.*block_channels=\(64, 128, "
                        r"256\).*\), but config and tensors give ModelArch\(.*block_channels="
                        r"\(8, 8\).*\)\n", err)
    assert not (tmp_path / "out" / "eval_report.json").exists()


def test_eval_checkpoint_of_another_landmark_grid(synth_out, tmp_path, capsys):
    other = tmp_path / "other"
    other.mkdir()
    assert main(["synth", "--config", str(small_config(other, synth={"landmark_grid": 3}))]) == 0
    assert main(["train", "--config", str(other / "config.json")]) == 0
    p = config_on_synth(synth_out, tmp_path, epochs=0)
    cfg = json.loads(p.read_text())
    cfg["paths"]["checkpoint"] = str(other / "out" / "checkpoint_final.fgc")
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["eval", "--config", str(p)]) == 2
    graph_j = load_graph(synth_out[0] / "out" / "graph.fgg")[0].J
    model_j = stgcn_net.load_checkpoint(other / "out" / "checkpoint_final.fgc")[0].J
    assert model_j != graph_j
    assert capsys.readouterr().err == (
        f"facegcn: error: checkpoint J={model_j}, graph J={graph_j}\n")


def test_eval_empty_test_side(synth_out, tmp_path, capsys):
    p = config_on_synth(synth_out, tmp_path, epochs=0)
    assert main(["train", "--config", str(p)]) == 0
    cfg = json.loads(p.read_text())
    cfg["train"]["train_emotions"] = [0, 1, 2, 3, 4, 5]
    p.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["eval", "--config", str(p)]) == 2
    assert capsys.readouterr().err == "facegcn: error: split leaves one side empty\n"


def config_on_synth(synth_out, tmp_path, epochs):
    """Config that reads the shared synthetic set and writes to its own directory."""
    synth_tmp, _ = synth_out
    cfg = json.loads((synth_tmp / "config.json").read_text())
    cfg["paths"] = {"output_dir": str(tmp_path / "out"),
                    "manifest": str(synth_tmp / "out" / "manifest.json")}
    cfg["train"]["epochs"] = epochs
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    return p


GOLDEN_TRAIN_CHECKPOINT_SHA256 = "4aa1741d32098ce1383ff52cbea56b59458deffcfdbde7a260dd17956b9d2415"


def test_train_golden_checkpoint_digest(synth_out, tmp_path):
    # three epochs of the shipped network and optimizer: a change that moves the
    # float order of forward, backward, gradient accumulation or SGD fails here
    p = config_on_synth(synth_out, tmp_path, epochs=3)
    assert main(["train", "--config", str(p)]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "checkpoint_final.fgc").read_bytes()).hexdigest()
    assert digest == GOLDEN_TRAIN_CHECKPOINT_SHA256


def test_force_train_killed_after_epoch_0_leaves_no_checkpoint(synth_out, tmp_path, monkeypatch):
    p = config_on_synth(synth_out, tmp_path, epochs=2)
    assert main(["train", "--config", str(p)]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoint_final.fgc").exists() and (out / "checkpoint_best.fgc").exists()
    train = stgcn_net.train_model

    def killed_after_epoch_0(*args, on_epoch, **kwargs):
        def hook(stats):
            on_epoch(stats)
            raise RuntimeError("killed")

        return train(*args, on_epoch=hook, **kwargs)

    monkeypatch.setattr(stgcn_net, "train_model", killed_after_epoch_0)
    with pytest.raises(RuntimeError, match="killed"):
        main(["train", "--config", str(p), "--force"])
    monkeypatch.undo()
    assert not (out / "checkpoint_final.fgc").exists()
    assert not (out / "checkpoint_best.fgc").exists()
    assert not (out / "train_log.txt").exists()
    assert main(["eval", "--config", str(p)]) == 2


def test_best_checkpoint_written_once_from_the_best_epoch(synth_out, tmp_path, monkeypatch):
    # at this learning rate the training loss falls after epochs 0 and 2, and rises after 3
    p = config_on_synth(synth_out, tmp_path, epochs=4)
    cfg = json.loads(p.read_text())
    cfg["optim"] = {"base_lr": 0.05}
    p.write_text(json.dumps(cfg))
    seen = []  # (loss, epoch, parameter copies) after each epoch
    train, save = stgcn_net.train_model, stgcn_net.save_checkpoint

    def recording(model, *args, on_epoch, **kwargs):
        def hook(stats):
            seen.append((stats.loss, stats.epoch, [arr.copy() for _, arr in model.parameters()]))
            on_epoch(stats)

        return train(model, *args, on_epoch=hook, **kwargs)

    saved = []
    monkeypatch.setattr(stgcn_net, "train_model", recording)
    monkeypatch.setattr(stgcn_net, "save_checkpoint", lambda *a: saved.append(a[0].name) or save(*a))
    assert main(["train", "--config", str(p)]) == 0
    monkeypatch.undo()
    assert saved == ["checkpoint_best.fgc", "checkpoint_final.fgc"]

    losses = [loss for loss, _, _ in seen]
    assert sum(loss < min(losses[:i], default=np.inf) for i, loss in enumerate(losses)) > 1
    _, epoch, params = min(seen, key=lambda s: s[0])  # the first epoch on ties
    assert epoch < 3
    out = tmp_path / "out"
    model, meta = stgcn_net.load_checkpoint(out / "checkpoint_final.fgc")
    for (_, arr), best in zip(model.parameters(), params, strict=True):
        arr[...] = best
    save(tmp_path / "want.fgc", model, {**meta, "epoch": epoch})
    assert (out / "checkpoint_best.fgc").read_bytes() == (tmp_path / "want.fgc").read_bytes()


def test_eval_residual_mismatch(synth_out, tmp_path):
    # the checkpoint's residual flag is part of the architecture eval checks
    p = config_on_synth(synth_out, tmp_path, epochs=0)
    cfg = json.loads(p.read_text())
    p_plain = tmp_path / "plain.json"
    p_plain.write_text(json.dumps(cfg))
    cfg["model"] = {"residual": False}
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["eval", "--config", str(p_plain)]) == 2


def test_eval_nonpositive_checkpoint_j_exit_code_2(synth_out, tmp_path, capsys):
    # (P, -J, -J) holds as many values as the adjacency, so only the header
    # check stops the reshape from failing with a ValueError
    p = config_on_synth(synth_out, tmp_path, epochs=0)
    assert main(["train", "--config", str(p)]) == 0
    ckpt = tmp_path / "out" / "checkpoint_final.fgc"
    data = ckpt.read_bytes()
    j = stgcn_net.load_checkpoint(ckpt)[0].J
    ckpt.write_bytes(data.replace(f"\nJ {j}\n".encode(), f"\nJ -{j}\n".encode(), 1))
    assert main(["eval", "--config", str(p)]) == 2
    assert "must both be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command, artifact", [
    ("train", "train_log.txt"),
    ("eval", "eval_report.json"),
])
def test_failed_report_write_keeps_previous_file(synth_out, tmp_path, monkeypatch,
                                                 command, artifact):
    p = config_on_synth(synth_out, tmp_path, epochs=1)
    assert main(["train", "--config", str(p)]) == 0
    assert main(["eval", "--config", str(p)]) == 0
    out = tmp_path / "out"
    before = (out / artifact).read_bytes()
    assert before
    real_open = open

    def failing_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return HalfWriteFile(fh) if artifact in str(path) else fh

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    assert main([command, "--config", str(p), "--force"]) == 2
    monkeypatch.undo()
    if command == "train":  # train --force removes the previous log before its first epoch
        assert not (out / artifact).exists()
    else:
        assert (out / artifact).read_bytes() == before
    assert not [q.name for q in out.iterdir() if q.name.endswith(".tmp")]


def _tensor_with_other_ordering(data):
    t = load_tensor(data / "id004_emo1.fgt")
    save_tensor(FeatureTensor(t.values, t.k, t.landmark_hash ^ 1), data / "id004_emo1.fgt")


def _tensor_with_fewer_landmarks(data):
    t = load_tensor(data / "id004_emo1.fgt")
    fewer = FeatureTensor(t.values[:, 1:].copy(), t.k, t.landmark_hash)
    save_tensor(fewer, data / "id004_emo1.fgt")


def _smaller_graph(data):
    g = SpatialGraph(adjacency=np.zeros((3, 3), dtype=np.int8))
    save_graph(g, partition(g, "distance"), data / "graph.fgg")


def _manifest_with_other_k(data):
    manifest = json.loads((data / "manifest.json").read_text())
    manifest["k"] = 5
    (data / "manifest.json").write_text(json.dumps(manifest))


def _manifest_with(field, value):
    """Tamper: set ``field`` of the manifest's first sample (or the manifest's own k or J)."""
    def tamper(data):
        manifest = json.loads((data / "manifest.json").read_text())
        (manifest if field in ("k", "J") else manifest["samples"][0])[field] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
    return tamper


MANIFEST_DISAGREEMENTS = {
    "tensor-landmark-ordering": (_tensor_with_other_ordering, "landmark count or ordering"),
    "tensor-landmark-count": (_tensor_with_fewer_landmarks, "landmark count or ordering"),
    "graph-J": (_smaller_graph, "graph.fgg has J=3"),
    "manifest-k": (_manifest_with_other_k, "says k=5"),
    "manifest-J": (_manifest_with("J", 99), "manifest.json says J=99"),
    # JSON integers only, as in labels.json
    "manifest-float-identity": (_manifest_with("identity", 1.7),
                                "manifest.json: samples[0].identity must be an integer, got 1.7"),
    "manifest-bool-emotion": (_manifest_with("emotion", True),
                              "manifest.json: samples[0].emotion must be an integer, got True"),
    "manifest-string-identity": (_manifest_with("identity", "1"),
                                 "manifest.json: samples[0].identity must be an integer, got '1'"),
    "manifest-string-k": (_manifest_with("k", "4"),
                          "manifest.json: k must be an integer, got '4'"),
}


@pytest.mark.parametrize("case", list(MANIFEST_DISAGREEMENTS))
def test_manifest_disagreement_exit_code_2(synth_out, tmp_path, capsys, case):
    tamper, message = MANIFEST_DISAGREEMENTS[case]
    synth_tmp, _ = synth_out
    data = tmp_path / "data"
    shutil.copytree(synth_tmp / "out", data,
                    ignore=shutil.ignore_patterns("checkpoint_*", "*.txt", "eval_report.json"))
    tamper(data)
    cfg = json.loads((synth_tmp / "config.json").read_text())
    cfg["paths"] = {"output_dir": str(tmp_path / "out"), "manifest": str(data / "manifest.json")}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("facegcn: error:") and message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


BAD_JSON_INPUTS = {
    "labels-invalid-json": ("preprocess", "labels.json", "{not json"),
    "labels-entry-without-emotion": ("preprocess", "labels.json", '{"seq_a": {"identity": 0}}'),
    "manifest-invalid-json": ("train", "manifest.json", '{"kind": "facegcn-manifest",'),
    "manifest-sample-without-tensor": ("train", "manifest.json", json.dumps({
        "kind": "facegcn-manifest", "k": 4, "graph": "graph.fgg",
        "samples": [{"identity": 0, "emotion": 0}],
    })),
}


@pytest.mark.parametrize("case", list(BAD_JSON_INPUTS))
def test_bad_json_input_exit_code_2(tmp_path, capsys, case):
    command, name, text = BAD_JSON_INPUTS[case]
    if name == "labels.json":
        raw = tmp_path / "raw"
        write_sequence_dir(raw, n_frames=1)
        (raw / name).write_text(text)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "paths": {"input_dir": str(raw), "output_dir": str(tmp_path / "out")},
        }))
    else:
        p = small_config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / name).write_text(text)
    assert main([command, "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("facegcn: error:") and name in err and "Traceback" not in err


def test_zero_size_dataset_exit_code_2(tmp_path, capsys):
    # empty FGT1 tensors (k = C = J = T = 0) and an empty graph: the first
    # tensor is refused on load, before training sees it
    p = small_config(tmp_path, train={"epochs": 1})
    out = tmp_path / "out"
    out.mkdir()
    empty = struct.pack("<4sIIIIQ", b"FGT1", 0, 0, 0, 0, 0)
    samples = []
    for i, (identity, emotion) in enumerate([(0, 0), (0, 3), (1, 0), (1, 3)]):
        (out / f"s{i}.fgt").write_bytes(empty)
        samples.append({"tensor": f"s{i}.fgt", "identity": identity, "emotion": emotion})
    (out / "graph.fgg").write_text("FGG1 0 2 distance\n")
    (out / "manifest.json").write_text(json.dumps({
        "kind": "facegcn-manifest", "k": 0, "J": 0, "graph": "graph.fgg", "samples": samples,
    }))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(p)]) == 2
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"facegcn: error: {out / 's0.fgt'}: ")
    assert not (out / "checkpoint_final.fgc").exists()


def test_missing_manifest_is_config_error(tmp_path, capsys):
    p = small_config(tmp_path)
    assert main(["train", "--config", str(p)]) == 2


def test_numerical_error_exit_code_3(synth_out, tmp_path):
    p = config_on_synth(synth_out, tmp_path, epochs=0)
    assert main(["train", "--config", str(p)]) == 0
    checkpoint = tmp_path / "out" / "checkpoint_final.fgc"
    model, meta = stgcn_net.load_checkpoint(checkpoint)
    model.classifier_b[...] = np.inf  # non-finite logits at eval time
    stgcn_net.save_checkpoint(checkpoint, model, meta)
    assert main(["eval", "--config", str(p)]) == 3


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_read_inputs_only_under_the_lock(tmp_path, capsys, monkeypatch, command):
    p = small_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir(parents=True)
    reads = []

    def load_manifest(cfg):
        reads.append(cfg)
        raise ConfigError("read without the lock")

    monkeypatch.setattr("facegcn.cli._load_manifest", load_manifest)
    holder = os.open(out, os.O_RDONLY | os.O_DIRECTORY)  # a live holder
    try:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main([command, "--config", str(p)]) == 2
        assert "another command" in capsys.readouterr().err
    finally:
        os.close(holder)
    assert reads == []


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_exit_2_while_their_manifest_directory_is_written(tmp_path, capsys,
                                                                          command):
    data = tmp_path / "data"
    synth = small_config(tmp_path, synth={"n_identities": 2}, paths={"output_dir": str(data)})
    assert main(["synth", "--config", str(synth)]) == 0
    (tmp_path / "run").mkdir()
    p = small_config(tmp_path / "run", synth={"n_identities": 2},
                     paths={"manifest": str(data / "manifest.json")})
    assert main(["train", "--config", str(p)]) == 0
    holder = os.open(data, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(holder, fcntl.LOCK_SH | fcntl.LOCK_NB)  # another reader
        assert main([command, "--config", str(p), "--force"]) == 0
        capsys.readouterr()
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)  # as a running synth holds it
        assert main([command, "--config", str(p), "--force"]) == 2
        assert f"{data} is locked: another command" in capsys.readouterr().err
    finally:
        os.close(holder)


def test_synth_exits_2_while_its_manifest_directory_is_read(tmp_path, capsys):
    meta, out = tmp_path / "meta", tmp_path / "out"
    p = small_config(tmp_path, synth={"n_identities": 2},
                     paths={"manifest": str(meta / "manifest.json")})
    assert main(["synth", "--config", str(p)]) == 0

    def files():
        return {q: q.read_bytes() for d in (meta, out) for q in d.rglob("*") if q.is_file()}

    before = files()
    holder = os.open(meta, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(holder, fcntl.LOCK_SH | fcntl.LOCK_NB)  # as a reading train holds it
        assert main(["synth", "--config", str(p), "--force"]) == 2
        err = capsys.readouterr().err
        assert f"{meta} is locked: another command" in err
        assert "writing" not in err  # the holder only reads
    finally:
        os.close(holder)
    assert files() == before


def test_synth_on_two_cpus_unlocks_its_directory_on_return(tmp_path, monkeypatch):
    # the dataset worker is forked inside synth's lock and shares its descriptor
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    p = small_config(tmp_path, synth={"n_identities": 2})
    parallel._stop_workers()
    assert main(["synth", "--config", str(p)]) == 0
    assert len(parallel._workers) == 1
    take_lock = "import fcntl, os, sys; fcntl.flock(os.open(sys.argv[1], os.O_RDONLY), " \
                "fcntl.LOCK_EX | fcntl.LOCK_NB)"
    r = subprocess.run([sys.executable, "-c", take_lock, str(tmp_path / "out")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert main(["train", "--config", str(p)]) == 0


def test_preprocess_on_two_cpus_unlocks_its_directory_on_return(tmp_path, monkeypatch,
                                                               fresh_workers):
    # the mesh worker is forked inside preprocess's lock, at the first frame
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    raw = tmp_path / "raw"
    write_sequence_dir(raw, n_frames=2)
    p = preprocess_config(tmp_path, raw, k=9)
    assert main(["preprocess", "--config", str(p)]) == 0
    assert len(parallel._workers) == 1
    take_lock = "import fcntl, os, sys; fcntl.flock(os.open(sys.argv[1], os.O_RDONLY), " \
                "fcntl.LOCK_EX | fcntl.LOCK_NB)"
    r = subprocess.run([sys.executable, "-c", take_lock, str(tmp_path / "out")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert main(["preprocess", "--config", str(p), "--force"]) == 0


@pytest.mark.parametrize("inner", ["synth", "train"])
def test_train_holds_its_locks_for_the_whole_run(tmp_path, capsys, monkeypatch, inner):
    # from inside a running train, a synth --force into its manifest directory,
    # or a second train onto its checkpoint from another output directory, exits 2
    data, checkpoint = tmp_path / "data", tmp_path / "ck" / "model.fgc"
    synth = small_config(tmp_path, synth={"n_identities": 2}, paths={"output_dir": str(data)})
    assert main(["synth", "--config", str(synth)]) == 0
    runs = []
    for name in ("run", "second"):
        (tmp_path / name).mkdir()
        runs.append(small_config(tmp_path / name, synth={"n_identities": 2}, paths={
            "manifest": str(data / "manifest.json"), "checkpoint": str(checkpoint)}))
    argv = {"synth": ["synth", "--config", str(synth), "--force"],
            "train": ["train", "--config", str(runs[1]), "--seed", "5"]}[inner]
    locked = data if inner == "synth" else checkpoint.parent
    before = {q: q.read_bytes() for q in data.iterdir()}
    codes = []
    train_model = stgcn_net.train_model

    def train_model_running_another(*args, **kwargs):
        if not codes:
            codes.append(None)  # before the call: a train started here starts no third
            codes[0] = main(argv)
        return train_model(*args, **kwargs)

    monkeypatch.setattr(stgcn_net, "train_model", train_model_running_another)
    assert main(["train", "--config", str(runs[0])]) == 0
    assert codes == [2]
    assert f"{locked} is locked: another command" in capsys.readouterr().err
    assert {q: q.read_bytes() for q in data.iterdir()} == before
    assert sorted(q.name for q in checkpoint.parent.iterdir()) == ["model.fgc"]
    assert not (tmp_path / "second" / "out").exists()


def test_failed_train_removes_the_directories_it_made(tmp_path, capsys):
    p = small_config(tmp_path, paths={"output_dir": str(tmp_path / "out" / "run"),
                                      "checkpoint": str(tmp_path / "ck" / "model.fgc")})
    assert main(["train", "--config", str(p)]) == 2
    assert "manifest not found" in capsys.readouterr().err
    assert sorted(q.name for q in tmp_path.iterdir()) == ["config.json"]


def test_train_makes_the_checkpoint_directory(tmp_path, monkeypatch):
    checkpoint = tmp_path / "ckdir" / "model.fgc"
    p = small_config(tmp_path, synth={"n_identities": 2}, train={"epochs": 1},
                     paths={"checkpoint": str(checkpoint)})
    assert main(["synth", "--config", str(p)]) == 0
    assert main(["train", "--config", str(p)]) == 0
    loaded = []
    load = stgcn_net.load_checkpoint
    monkeypatch.setattr(stgcn_net, "load_checkpoint", lambda path: loaded.append(path) or load(path))
    assert main(["eval", "--config", str(p)]) == 0
    assert loaded == [checkpoint]
    assert not (tmp_path / "out" / "checkpoint_final.fgc").exists()


def test_killed_holder_does_not_block(tmp_path):
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, sys, time; from pathlib import Path; from facegcn.cli import _dir_lock\n"
         "with _dir_lock(Path(sys.argv[1]), fcntl.LOCK_EX):\n"
         "    print('held', flush=True); time.sleep(60)",
         str(tmp_path)],
        stdout=subprocess.PIPE, text=True, env=child_env(),
    )
    try:
        assert child.stdout.readline() == "held\n"
        with pytest.raises(ConfigError, match="another command"):
            with _dir_lock(tmp_path, fcntl.LOCK_EX):
                pass
    finally:
        child.kill()  # SIGKILL: the child runs no cleanup
        child.wait()
        child.stdout.close()
    with _dir_lock(tmp_path, fcntl.LOCK_EX):
        pass


@pytest.mark.parametrize("content", ["", "1", "not a pid"])
def test_leftover_lock_file_does_not_block(tmp_path, content):
    # a .facegcn.lock pid file from an earlier version; one killed mid-write is empty
    lock = tmp_path / ".facegcn.lock"
    lock.write_text(content)
    with _dir_lock(tmp_path, fcntl.LOCK_EX):
        pass
    assert lock.read_text() == content


def child_env():
    """os.environ with the imported facegcn package's directory first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(facegcn.__file__)))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


# runs one facegcn command in a child process; prints that child's maximum RSS in KB
CHILD_MAX_RSS = """
import resource, subprocess, sys

r = subprocess.run([sys.executable, "-m", "facegcn.cli", *sys.argv[1:]], capture_output=True)
if r.returncode:
    sys.exit(r.stderr.decode())
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_eval_memory_does_not_grow_with_the_unused_train_side(tmp_path):
    p = small_config(tmp_path, features={"k": 16}, synth={"n_identities": 2, "frames": 400})
    assert main(["synth", "--config", str(p)]) == 0
    assert main(["train", "--config", str(p)]) == 0
    out = tmp_path / "out"

    def eval_max_rss():
        r = subprocess.run([sys.executable, "-c", CHILD_MAX_RSS, "eval", "--config", str(p),
                            "--force"], capture_output=True, text=True, env=child_env())
        assert r.returncode == 0, r.stderr
        return int(r.stdout) * 1024, (out / "eval_report.json").read_bytes()

    before, report = eval_max_rss()
    manifest = json.loads((out / "manifest.json").read_text())
    train_side = [e for e in manifest["samples"] if e["emotion"] in (0, 1, 2)]
    for n in range(3):  # the train side, four times over
        for e in train_side:
            shutil.copyfile(out / e["tensor"], out / f"copy{n}_{e['tensor']}")
            manifest["samples"].append({**e, "tensor": f"copy{n}_{e['tensor']}"})
    (out / "manifest.json").write_text(json.dumps(manifest))
    added = 3 * sum((out / e["tensor"]).stat().st_size for e in train_side)
    assert added > 15 * 2**20  # eval holding them would show
    after, report_after = eval_max_rss()
    assert report_after == report
    assert abs(after - before) < 2 * 2**20


# runs facegcn with the arguments given, its soft descriptor limit 8 above the
# number of descriptors open when it starts
FEW_DESCRIPTORS = """
import os, resource, sys
from facegcn.cli import main

_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/proc/self/fd")) + 8, hard))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="mmap duplicates no descriptor")
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_eval_out_of_descriptors_names_the_tensor_file(synth_out, tmp_path):
    synth_tmp, _ = synth_out
    cfg = json.loads((synth_tmp / "config.json").read_text())
    cfg["paths"] = {"output_dir": str(tmp_path / "out"),
                    "manifest": str(synth_tmp / "out" / "manifest.json")}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    r = subprocess.run([sys.executable, "-c", FEW_DESCRIPTORS, "eval", "--config", str(p)],
                       capture_output=True, text=True, env=child_env())
    assert r.returncode == 2, r.stderr
    last = r.stderr.splitlines()[-1]
    prefix = "facegcn: error: [Errno 24] Too many open files: '"
    assert last.startswith(prefix) and last.endswith(".fgt'"), r.stderr
    named = last[len(prefix):-1]
    assert os.path.dirname(named) == str(synth_tmp / "out") and os.path.isfile(named)


def test_installed_cli_entry_point(tmp_path):
    r = subprocess.run(
        [sys.executable, "-m", "facegcn.cli", "synth", "--print-config"],
        capture_output=True, text=True, env=child_env(),
    )
    assert r.returncode == 0
    assert json.loads(r.stdout)["optim"]["momentum"] == 0.95


# runs each given command (its name and flags in one argument) with --config
# and --force, with every module's write_atomic binding replaced by one that
# SIGKILLs this process on entering its n-th call (n = 0: never); prints each
# command's name as it starts, then the number of calls
KILL_AT_WRITE = """
import os, signal, sys
from facegcn import cli, fileio

n, config, commands = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
real = fileio.write_atomic
calls = 0


def write_atomic(*args, **kwargs):
    global calls
    calls += 1
    if calls == n:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(*args, **kwargs)


for module in list(sys.modules.values()):
    if getattr(module, "write_atomic", None) is real:
        module.write_atomic = write_atomic
for command in commands:
    print(command.split()[0], flush=True)
    if cli.main([*command.split(), "--config", config, "--force"]) != 0:
        sys.exit(1)
print(calls)
"""


def run_killed_at_write(n, config, *commands):
    return subprocess.run([sys.executable, "-c", KILL_AT_WRITE, str(n), str(config), *commands],
                          capture_output=True, text=True, env=child_env())


def test_killed_at_any_write_leaves_no_mixed_state(tmp_path):
    # a seed-2 run over a complete seed-1 run, SIGKILLed on entering each
    # artifact write in turn: the next consumer (train after a killed synth,
    # eval after a killed train) exits 2, or reads exactly the files an
    # uninterrupted seed-2 run leaves
    def run(n, where, seed):
        where.mkdir(exist_ok=True)
        p = small_config(where, synth={"n_identities": 2}, train={"epochs": 1})
        return run_killed_at_write(n, p, f"synth --seed {seed}", f"train --seed {seed}"), p

    r, _ = run(0, tmp_path / "start", 1)
    assert r.returncode == 0, r.stderr
    r, _ = run(0, tmp_path / "ref", 2)
    assert r.returncode == 0, r.stderr
    calls = int(r.stdout.split()[-1])
    ref = tmp_path / "ref" / "out"
    dataset = sorted(q.name for q in ref.iterdir() if q.suffix in (".fgt", ".fgg", ".json"))
    assert calls == len(dataset) + 3  # and the log and two checkpoints
    inputs = {"synth": ("train", dataset), "train": ("eval", dataset + ["checkpoint_final.fgc"])}
    for n in range(1, calls + 1):
        case = tmp_path / f"kill{n}"
        shutil.copytree(tmp_path / "start", case)
        r, p = run(n, case, 2)
        assert r.returncode == -signal.SIGKILL, r.stderr
        consumer, names = inputs[r.stdout.split()[-1]]
        code = main([consumer, "--config", str(p), "--force"])
        assert code in (0, 2)
        if code == 0:
            for name in names:
                assert (case / "out" / name).read_bytes() == (ref / name).read_bytes(), (n, name)


def test_killed_preprocess_at_any_write_leaves_no_mixed_state(tmp_path):
    # preprocess --force of new PLY frames over a complete dataset of other
    # frames, SIGKILLed on entering each artifact write in turn: the next
    # train exits 2, or reads exactly the files an uninterrupted run leaves
    def raw(seed):
        root = tmp_path / f"raw{seed}"
        # (identity, emotion): every identity on the train and on the test side
        labels = {"seq_a": (0, 0), "seq_b": (1, 0), "seq_c": (0, 4), "seq_d": (1, 4)}
        for i, name in enumerate(labels):
            write_sequence_dir(root, n_frames=2, n_landmarks=10, grid=8, seed=seed + i, name=name)
        (root / "labels.json").write_text(json.dumps(
            {name: {"identity": a, "emotion": b} for name, (a, b) in labels.items()}))
        return root

    def config(where, frames):
        where.mkdir(exist_ok=True)
        return small_config(where, paths={"input_dir": str(frames)},
                            features={"augmentation_pairs": [[0, 9], [1, 8]]})

    frames = raw(40)
    start, ref = config(tmp_path / "start", raw(30)), config(tmp_path / "ref", frames)
    assert main(["preprocess", "--config", str(start)]) == 0
    r = run_killed_at_write(0, ref, "preprocess")
    assert r.returncode == 0, r.stderr
    calls = int(r.stdout.split()[-1])
    out = tmp_path / "ref" / "out"
    dataset = sorted(q.name for q in out.iterdir() if q.suffix in (".fgt", ".fgg", ".json"))
    assert calls == len(dataset) == 6  # four tensors, the graph and the manifest
    assert main(["train", "--config", str(ref)]) == 0
    for n in range(1, calls + 1):
        case = tmp_path / f"kill{n}"
        shutil.copytree(tmp_path / "start", case)
        p = config(case, frames)
        r = run_killed_at_write(n, p, "preprocess")
        assert r.returncode == -signal.SIGKILL, r.stderr
        code = main(["train", "--config", str(p), "--force"])
        assert code in (0, 2)
        if code == 0:
            for name in dataset:
                assert (case / "out" / name).read_bytes() == (out / name).read_bytes(), (n, name)


# ---------------------------------------------------------------------------
# every command on malformed input: exit 2, one error line, no traceback


@pytest.fixture(scope="module")
def trained_out(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    p = small_config(tmp_path)
    assert main(["synth", "--config", str(p)]) == 0
    assert main(["train", "--config", str(p)]) == 0
    return tmp_path / "out"


def _cut_in_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


CORRUPTIONS = {
    "empty": lambda path: path.write_bytes(b""),
    "half": _cut_in_half,
    "binary": lambda path: path.write_bytes(bytes(range(256)) * 2),
}

# command -> the files it reads, relative to the case directory
COMMAND_INPUTS = {
    "synth": ["config.json"],
    "preprocess": ["config.json", "raw/labels.json", "raw/seq_a/frame_0000.ply",
                   "raw/seq_a/frame_0001.lm2"],
    "train": ["config.json", "out/manifest.json", "out/graph.fgg", "out/id003_emo1.fgt"],
    "eval": ["config.json", "out/manifest.json", "out/graph.fgg", "out/id007_emo4.fgt",
             "out/checkpoint_final.fgc"],
}


def command_case(command, tmp_path, trained_out, **over):
    """A directory where ``command`` succeeds; returns the config path."""
    if command == "preprocess":
        raw = tmp_path / "raw"
        write_sequence_dir(raw, n_frames=2)
        over.setdefault("paths", {})["input_dir"] = str(raw)
    elif command in ("train", "eval"):
        shutil.copytree(trained_out, tmp_path / "out")
    return small_config(tmp_path, **over)


def assert_one_error_line(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("facegcn: error: ")]
    assert len(errors) == 1, err
    return errors[0]


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_command_case_succeeds_unmodified(tmp_path, trained_out, command):
    p = command_case(command, tmp_path, trained_out)
    assert all((tmp_path / name).is_file() for name in COMMAND_INPUTS[command])
    assert main([command, "--config", str(p), "--force"]) == 0


@pytest.mark.parametrize("command", list(COMMAND_INPUTS))
def test_output_dir_lock_blocks_concurrent_commands(tmp_path, trained_out, capsys, command):
    p = command_case(command, tmp_path, trained_out)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)

    def files():
        return {q: q.read_bytes() for q in out.rglob("*") if q.is_file()}

    before = files()
    holder = os.open(out, os.O_RDONLY | os.O_DIRECTORY)  # a live holder
    try:
        fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
        assert main([command, "--config", str(p), "--force"]) == 2
        assert f"{out} is locked: another command" in capsys.readouterr().err
    finally:
        os.close(holder)
    assert files() == before
    assert main([command, "--config", str(p), "--force"]) == 0


@pytest.mark.parametrize("command, name, corruption", [
    (command, name, corruption)
    for command, names in COMMAND_INPUTS.items() for name in names for corruption in CORRUPTIONS
])
def test_malformed_input_exit_code_2(tmp_path, trained_out, capsys, command, name, corruption):
    p = command_case(command, tmp_path, trained_out)
    CORRUPTIONS[corruption](tmp_path / name)
    assert_one_error_line([command, "--config", str(p), "--force"], capsys)


def _obj_face_beyond_int64(tmp_path):
    frame = tmp_path / "raw" / "seq_a" / "frame_0000.ply"
    write_mesh(mesh_core.load_mesh(frame), frame.with_suffix(".obj"), fmt="obj")
    frame.unlink()
    with open(frame.with_suffix(".obj"), "a") as fh:
        fh.write("f 1 2 99999999999999999999\n")
    return "beyond int64"


def _pair_beyond_landmarks(tmp_path):
    return "pair (0, 99)"


def _short_landmark_file(tmp_path):
    # the second frame's landmark file loses its last 38 points
    seq = tmp_path / "raw" / "seq_a"
    lm = seq / "frame_0001.lm2"
    lm.write_text("".join(lm.read_text().splitlines(keepends=True)[:30]))
    return f"sequence {seq}, frame frame_0001.ply: {lm} has 30 landmarks, too few for pair"


MALFORMED_CONTENT = {
    "synth-inseparable": ("synth", {"synth": {"identity_amplitude": 0.0,
                                               "expression_amplitude": 1.0}},
                          lambda tmp_path: "separability violated"),
    "preprocess-obj-face-beyond-int64": ("preprocess", {}, _obj_face_beyond_int64),
    "preprocess-pair-beyond-landmarks": ("preprocess",
                                         {"features": {"augmentation_pairs": [[0, 99]]}},
                                         _pair_beyond_landmarks),
    "preprocess-short-landmark-file": ("preprocess", {}, _short_landmark_file),
}


@pytest.mark.parametrize("case", list(MALFORMED_CONTENT))
def test_malformed_content_exit_code_2(tmp_path, trained_out, capsys, case):
    command, over, tamper = MALFORMED_CONTENT[case]
    p = command_case(command, tmp_path, trained_out, **over)
    message = tamper(tmp_path)
    assert message in assert_one_error_line([command, "--config", str(p)], capsys)


@pytest.mark.parametrize("case", list(CHECKPOINT_HEADER_TAMPERS))
def test_eval_checkpoint_header_exit_code_2(tmp_path, trained_out, capsys, case):
    p = command_case("eval", tmp_path, trained_out)
    checkpoint = tmp_path / "out" / "checkpoint_final.fgc"
    tamper_checkpoint(checkpoint, CHECKPOINT_HEADER_TAMPERS[case][0])
    error = assert_one_error_line(["eval", "--config", str(p), "--force"], capsys)
    assert error.startswith(f"facegcn: error: {checkpoint}: ")
