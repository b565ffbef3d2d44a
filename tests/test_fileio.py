import numpy as np
import pytest

from facegcn import fileio, st_graph, stgcn_net
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
