"""The package's modules import one another only downward, at module level."""

import ast
from pathlib import Path

import stokes_fv

LAYERS = ("errors", "grid", "fields", "operators", "assembly", "solver", "verify", "cli")
PACKAGE = Path(stokes_fv.__file__).parent


def test_every_package_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_intra_package_imports_are_top_level_and_point_downward():
    wrong = []
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            # `from .x import y` imports x; `from . import x, y` imports x and y
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            for target in targets:
                if id(node) not in top_level:
                    wrong.append(f"{name}.py:{node.lineno} imports {target} inside a block")
                elif node.level != 1 or LAYERS.index(target) >= LAYERS.index(name):
                    wrong.append(f"{name}.py:{node.lineno} imports {target}, not a lower layer")
    assert wrong == []
