import numpy as np
import pytest

from facegcn import fileio, st_graph, stgcn_net
from facegcn.errors import ConfigError, ParseError
from facegcn.patch_features import FeatureTensor, save_tensor

from stgcn_testutil import toy_model_and_input


class HalfWriteFile:
    """A file object whose write stores half the bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def writers():
    model, _ = toy_model_and_input(dtype=np.float32)
    a = np.zeros((4, 4), dtype=np.int8)
    a[0, 1] = a[1, 0] = a[1, 2] = a[2, 1] = 1
    graph = st_graph.SpatialGraph(adjacency=a)
    tensor = FeatureTensor(
        values=np.arange(6 * 4 * 2, dtype=np.float32).reshape(6, 4, 2), k=1, landmark_hash=9
    )
    return {
        "tensor": lambda p: save_tensor(tensor, p),
        "graph": lambda p: st_graph.save_graph(graph, st_graph.partition(graph, "distance"), p),
        "checkpoint": lambda p: stgcn_net.save_checkpoint(p, model, {"epoch": 1}),
        "manifest": lambda p: fileio.write_atomic(p, b'{"kind": "facegcn-manifest"}\n'),
    }


@pytest.mark.parametrize("name", ["tensor", "graph", "checkpoint", "manifest"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, name):
    write = writers()[name]
    fresh, existing = tmp_path / "fresh.out", tmp_path / "existing.out"
    existing.write_bytes(b"previous complete artifact")
    real_open = open
    monkeypatch.setattr(fileio, "open", lambda *a, **kw: HalfWriteFile(real_open(*a, **kw)),
                        raising=False)
    for path in (fresh, existing):
        with pytest.raises(OSError):
            write(path)
    assert not fresh.exists()
    assert existing.read_bytes() == b"previous complete artifact"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.out"]  # no temp files left

    monkeypatch.undo()
    write(fresh)
    write(existing)
    assert fresh.read_bytes() == existing.read_bytes() != b"previous complete artifact"


def test_read_text_reads_universal_newlines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_bytes(b"a\r\nb\rc\n")
    assert fileio.read_text(p) == "a\nb\nc\n"


@pytest.mark.parametrize("encoding, data, line", [
    ("utf-8", b"a\nb\n\xffc\n", 3),
    ("utf-8", b"\xe9", 1),
    ("ascii", b"FGG1\n0 1 \xc3\xa9\n", 2),
])
def test_read_text_bad_byte_is_parse_error_at_its_line(tmp_path, encoding, data, line):
    p = tmp_path / "t.txt"
    p.write_bytes(data)
    with pytest.raises(ParseError, match=f"non-{encoding.upper()} byte") as info:
        fileio.read_text(p, encoding)
    assert info.value.line == line


def test_read_json(tmp_path):
    p = tmp_path / "t.json"
    p.write_bytes(b'{"a": [1, 2]}\r\n')
    assert fileio.read_json(p) == {"a": [1, 2]}
    p.write_bytes(b'{"a": [1, 2}')
    with pytest.raises(ConfigError, match="not valid JSON"):
        fileio.read_json(p)
    p.write_bytes(b'{"a":\n "\xff"}')
    with pytest.raises(ParseError) as info:
        fileio.read_json(p)
    assert info.value.line == 2


@pytest.mark.parametrize("text, message", [
    (b"NaN", "non-finite number NaN at top level"),
    (b'{"a": [1, {"b": Infinity}]}', 'non-finite number Infinity at ["a"][1]["b"]'),
    (b'[0, -Infinity, NaN]', "non-finite number -Infinity at [1]"),
    (b'{"x": {"y": 1.0}, "z": [NaN]}', 'non-finite number NaN at ["z"][0]'),
])
def test_read_json_refuses_non_finite_constants(tmp_path, text, message):
    p = tmp_path / "t.json"
    p.write_bytes(text)
    with pytest.raises(ConfigError) as info:
        fileio.read_json(p)
    assert str(info.value) == f"{p}: {message}"


def test_read_json_keeps_finite_floats_and_strings(tmp_path):
    p = tmp_path / "t.json"
    p.write_bytes(b'{"lr": 1e308, "name": "NaN", "v": [-0.0, "Infinity"]}')
    assert fileio.read_json(p) == {"lr": 1e308, "name": "NaN", "v": [-0.0, "Infinity"]}
