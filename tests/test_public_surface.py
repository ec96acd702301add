"""The public surface is what the package, its demos and its benchmark use.

A public name that only the tests call belongs in the tests (see
api_oracle.py), so every public top-level function or class of the modules
below must be read somewhere in src/framekit (other than __init__.py),
demos/ or perfbench/: as a name, an attribute or an imported name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "framekit"
MODULES = ("errors", "hermitian", "frames", "gabor", "sampling", "serialization", "cli")


def _public_definitions(tree):
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_is_used_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = set()
    for path in sources:
        used |= _used_names(ast.parse(path.read_text(), str(path)))
    unused = [
        "%s.%s" % (module, name)
        for module in MODULES
        for name in _public_definitions(ast.parse((PACKAGE / ("%s.py" % module)).read_text()))
        if name not in used
    ]
    assert not unused, "public but unused outside the tests: %s" % ", ".join(unused)
