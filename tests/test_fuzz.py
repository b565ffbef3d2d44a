"""Seeded mutation fuzzing of every file loader.

Each format starts from one valid file written by the library (the point
files, which the library only reads, are written here in the format the
readers document). Mutants are made in the style of AFL: bit flips,
truncation, block splices and inserted bytes. A loader may accept a mutant
or reject it, but only with a FaceGcnError subclass: anything else would
reach the command line as a traceback instead of exit code 2.
"""

import random

import numpy as np
import pytest

from facegcn import st_graph, stgcn_net
from facegcn.config import RunConfig, load_config, serialize_config
from facegcn.dataset_synth import ExpressionParams, IdentityParams, make_frame_mesh
from facegcn.errors import FaceGcnError
from facegcn.landmark_engine import load_landmarks_2d, load_landmarks_3d
from facegcn.mesh_core import load_mesh, write_mesh
from facegcn.patch_features import FeatureTensor, load_tensor, save_tensor

from stgcn_testutil import toy_model_and_input

MUTANTS_PER_FORMAT = 300
INSERTED = (b"\xff", b"\x00", b"-", b"\n")


def _mesh():
    return make_frame_mesh(IdentityParams(seed=5, grid=4), ExpressionParams(emotion=3), 1, 3)


def _points(dim):
    rows = np.random.default_rng(dim).uniform(size=(6, dim))
    return "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in rows).encode("ascii")


def _graph(path):
    a = np.zeros((5, 5), dtype=np.int8)
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]:
        a[i, j] = a[j, i] = 1
    graph = st_graph.SpatialGraph(adjacency=a)
    st_graph.save_graph(graph, st_graph.partition(graph, "distance"), path)


def _tensor(path):
    values = np.random.default_rng(2).normal(size=(6, 3, 4)).astype(np.float32)
    save_tensor(FeatureTensor(values=values, k=1, landmark_hash=77), path)


def _checkpoint(path):
    model, _ = toy_model_and_input(dtype=np.float32)
    stgcn_net.save_checkpoint(path, model, {"epoch": 2})


# format -> (file name, writer of the seed file, loader)
FORMATS = {
    "config": ("c.json", lambda p: p.write_text(serialize_config(RunConfig())), load_config),
    "lm2": ("p.lm2", lambda p: p.write_bytes(_points(2)), load_landmarks_2d),
    "lm3": ("p.lm3", lambda p: p.write_bytes(_points(3)), load_landmarks_3d),
    "obj": ("m.obj", lambda p: write_mesh(_mesh(), p, fmt="obj"), load_mesh),
    "ply-ascii": ("m.ply", lambda p: write_mesh(_mesh(), p, fmt="ply"), load_mesh),
    "ply-binary": ("m.ply", lambda p: write_mesh(_mesh(), p, fmt="ply-binary"), load_mesh),
    "fgg1": ("g.fgg", _graph, st_graph.load_graph),
    "fgt1": ("t.fgt", _tensor, load_tensor),
    "fgc1": ("c.fgc", _checkpoint, stgcn_net.load_checkpoint),
}


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three mutations of ``data``, each picked at random."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        n = len(out)
        if kind == 0 and n:  # bit flips
            for _ in range(rng.randint(1, 4)):
                out[rng.randrange(n)] ^= 1 << rng.randrange(8)
        elif kind == 1:  # truncation
            del out[rng.randint(0, n):]
        elif kind == 2 and n:  # block splice: some of the file in place of a span of it
            a, b = sorted(rng.randint(0, n) for _ in range(2))
            c, d = sorted(rng.randint(0, n) for _ in range(2))
            out[a:b] = out[c:d]
        else:  # inserted bytes
            at = rng.randint(0, n)
            out[at:at] = rng.choice(INSERTED) * rng.randint(1, 3)
    return bytes(out)


@pytest.mark.parametrize("fmt", list(FORMATS))
def test_mutants_raise_only_facegcn_errors(tmp_path, fmt):
    name, write, load = FORMATS[fmt]
    path = tmp_path / name
    write(path)
    seed = path.read_bytes()
    load(path)  # the unmutated file loads
    rng = random.Random(f"facegcn-fuzz-{fmt}")
    escapes = []
    for i in range(MUTANTS_PER_FORMAT):
        mutant = mutate(rng, seed)
        path.write_bytes(mutant)
        try:
            load(path)
        except FaceGcnError:
            pass
        except Exception as exc:  # any other type would reach the CLI as a traceback
            escapes.append(f"mutant {i}: {type(exc).__name__}: {exc} <- {mutant[:80]!r}")
    assert escapes == []
