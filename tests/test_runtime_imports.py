"""The runtime is numpy-only: the package imports nothing else outside the standard library."""

import ast
import subprocess
import sys
from pathlib import Path

import facegcn
from test_cli import child_env


def test_package_imports_only_stdlib_and_numpy():
    outside = []
    for path in sorted(Path(facegcn.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]
    assert outside == []


# trains and queries a tiny model, then checks that nothing forked or loaded
# multiprocessing: only a dataset build starts worker processes
TRAIN_AND_PREDICT = """
import os, sys
import numpy as np
from facegcn import st_graph, stgcn_net

graph = st_graph.SpatialGraph(adjacency=(1 - np.eye(4)).astype(np.int8))
norm = st_graph.normalize_adjacency(graph, st_graph.partition(graph, "distance"))
arch = stgcn_net.ModelArch(in_channels=4, block_channels=(6, 6), strides=(1, 1),
                           kernel_size=3, num_classes=2)
model = stgcn_net.init_model(arch, norm, seed=5)
rng = np.random.default_rng(0)
data = [(rng.normal(size=(4, 4, 5)).astype(np.float32), i % 2) for i in range(6)]
stgcn_net.train_model(model, data, epochs=2, batch_size=4)
stgcn_net.predict(model, data[0][0])
assert "multiprocessing" not in sys.modules
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:  # no child process at all
    pass
else:
    sys.exit("the process has a child")
"""


def test_training_and_prediction_start_no_process():
    r = subprocess.run([sys.executable, "-c", TRAIN_AND_PREDICT], capture_output=True, text=True,
                       env=child_env())
    assert r.returncode == 0, r.stderr
