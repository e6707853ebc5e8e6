"""Every definition in the package is reached from somewhere but its own body,
every parameter with a default is set by some call, every attribute stored
on self is read, and no module imports another module's private name.

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
WITH_PERFBENCH = [*SEARCHED, *sorted((ROOT / "perfbench").glob("*.py"))]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


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
    trees = {path: _parse(path) for path in SEARCHED}
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


def _defaulted(definition: ast.FunctionDef, method: bool):
    """(name, positional index at a call or None) of each parameter with a default.

    A method's call does not pass self or cls (the package has no staticmethod).
    """
    args = definition.args
    first = len(args.args) - len(args.defaults)
    for index, arg in enumerate(args.args[first:], first - method):
        yield arg.arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether call sets the parameter: by keyword, at its position, or through * or **."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    for at, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return at <= index
    return index < len(call.args)


def test_every_default_is_overridden_somewhere():
    """A parameter with a default that no call sets is a setting only tests use.

    Calls are matched to definitions by name, as above; the search adds
    perfbench/*.py to the files read above.  A call with **mapping sets
    every parameter, and *sequence every position from its own on.
    """
    calls: dict[str, list[ast.Call]] = {}
    for path in WITH_PERFBENCH:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for path in PACKAGE:
        tree = _parse(path)
        methods = {
            id(member) for node in tree.body if isinstance(node, ast.ClassDef) for member in node.body
        }
        for definition in _definitions(tree):
            if isinstance(definition, ast.ClassDef):
                continue
            for name, index in _defaulted(definition, id(definition) in methods):
                if not any(_passes(call, name, index) for call in calls.get(definition.name, ())):
                    unset.append(f"{path.name}:{definition.lineno} {definition.name}({name})")
    assert unset == []


def test_every_attribute_stored_on_self_is_read():
    """An attribute that no code reads is state kept for nothing.

    Each `self.<attr>` that the package stores to must be loaded, as an
    attribute of any object, in the files the defaults check reads.  Like
    the checks above this works on names: an attribute read under the same
    name elsewhere lets the store through, as config.budget did for the
    BudgetError.budget that nothing read.
    """
    loaded = {
        node.attr
        for path in WITH_PERFBENCH
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}:{node.lineno} self.{node.attr}"
        for path in PACKAGE
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr not in loaded
    ]
    assert unread == []


def test_no_module_imports_another_modules_private_name():
    """A `_`-prefixed name is its module's own: no `from zng... import _name`.

    The walk reads every `ast.ImportFrom` of the package, relative ones too.
    A helper two modules share is public, as reader.index_masks is.
    """
    imported = [
        f"{path.name}:{node.lineno} {alias.name} from {node.module}"
        for path in PACKAGE
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").partition(".")[0] == "zng")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert imported == []
