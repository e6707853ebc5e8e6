"""Every definition in the package is reached from somewhere but its own body.

The search reads `src/zng/*.py`, the acceptance gate `tests/test_acceptance.py`
and the references it uses in `tests/helpers.py`.  A top-level function or
class, or a non-dunder method, passes when its name appears as an `ast.Name`
or as the attribute of an `ast.Attribute` outside its own definition.  Names
brought in by an import statement do not count.

The check works on names only.  Two definitions that share a name, or an
attribute or variable that happens to share it, let each other through, and
so does a reference from code that is itself unreached.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "zng").glob("*.py"))
SEARCHED = [*PACKAGE, ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py"]


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member


def _references(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node


def test_every_package_definition_is_referenced():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SEARCHED}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for name, node in _references(tree):
            uses.setdefault(name, []).append(node)
    unreached = []
    for path in PACKAGE:
        for definition in _definitions(trees[path]):
            inside = {id(node) for _, node in _references(definition)}
            if not any(id(node) not in inside for node in uses.get(definition.name, ())):
                unreached.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert unreached == []
