"""The benchmark's layer tracer names functions that must exist in facegcn.

`perfbench/tracing.py` wraps each function in its LAYERS table by name, so a
rename or deletion here would break `perfbench/run.py --trace 1` only when
the benchmark runs; this test catches it in the suite.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import ModuleType

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{name}" for module, names in tracing.LAYERS.items() for name in names
        if not callable(getattr(importlib.import_module(f"facegcn.{module}"), name, None))
    ]
    assert missing == []
    assert callable(importlib.import_module("facegcn.stgcn_net").SGD.step)
    assert {span.split(".")[0] for span in tracing.ATTRIBUTES} <= set(tracing.LAYERS)


PERFBENCH = TRACING.parent


def _resolve(module: str, name: str):
    """The object ``module.name`` names, importing a submodule if need be; None if absent."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return None


def perfbench_facegcn_names() -> set[tuple[str, str]]:
    """(module, name) for every facegcn name perfbench imports or reads off a facegcn module.

    Covers `from facegcn... import name` and `alias.attr` where `alias` was
    bound to a facegcn module by such an import.
    """
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "facegcn":
                for alias in node.names:
                    used.add((node.module, alias.name))
                    if isinstance(_resolve(node.module, alias.name), ModuleType):
                        aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                used.add((aliases[node.value.id], node.attr))
    return used


def test_every_facegcn_name_perfbench_uses_resolves():
    # the benchmark calls these by name on the checked-out library; a rename or
    # deletion would otherwise surface only when the benchmark runs
    used = perfbench_facegcn_names()
    assert ("facegcn.config", "RunConfig") in used
    assert any(module == "facegcn.stgcn_net" for module, _ in used)
    missing = sorted(f"{m}.{n}" for m, n in used if _resolve(m, n) is None)
    assert missing == []
