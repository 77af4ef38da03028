"""Private code that nothing calls is dead: every _name function, method or
class defined in src/koszul must be referenced somewhere else in it."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "koszul")


def _private_definitions_and_references():
    defined, referenced = [], set()
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((filename, node.lineno, name))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_every_private_definition_is_referenced():
    defined, referenced = _private_definitions_and_references()
    assert defined, "no private definitions found: is the package path right?"
    unused = [f"{filename}:{line} {name}" for filename, line, name in defined
              if name not in referenced]
    assert not unused, f"private code nothing references: {unused}"
