"""No public function or class that nothing uses.

Every public module-level function and class of the package must be either
used somewhere in the package source, by name or as an attribute, or
exported in ``convquant.__all__``.
"""

import ast
from pathlib import Path

import convquant

SRC = Path(__file__).resolve().parent.parent / "src" / "convquant"


def unused_public_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text("utf-8")) for path in SRC.glob("*.py")}
    used = set(convquant.__all__)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{module}.{node.name}" for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and node.name not in used)


def test_every_public_definition_is_used_or_exported():
    assert unused_public_definitions() == []
