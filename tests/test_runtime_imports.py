"""The runtime is numpy-only: the package imports nothing else outside the standard library."""

import ast
import sys
from pathlib import Path

import facegcn


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
