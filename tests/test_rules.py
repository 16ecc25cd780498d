"""Repository rules, checked on the syntax trees of the engine source.

- No bare `assert` or `raise AssertionError` under src/nonloose: the
  paper's cross-checks go through `farey.audit`, which `python -O` keeps.
- No unbounded cache under src/nonloose.
- No code under src/nonloose that only the tests read.
- No public method or property name under src/nonloose defined by two
  top-level classes.

Each file is parsed once.  perfbench/ is only read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "nonloose").rglob("*.py"))
# the readers of the engine: its modules and perfbench; the tests do not count
READERS = [path for path in SRC if path.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
TREES = {path: ast.parse(path.read_text()) for path in SRC + READERS}
CACHE = ("lru_cache", "functools.lru_cache")


def _where(path, node):
    return f"{path.relative_to(ROOT)}:{node.lineno}"


def _raises_assertion(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def _unbounded(node):
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(a.name == "cache" for a in node.names)
    if isinstance(node, ast.Attribute):
        return ast.unparse(node) == "functools.cache"
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return any(ast.unparse(d) in CACHE for d in node.decorator_list)
    if isinstance(node, ast.Call) and ast.unparse(node.func) in CACHE:
        size = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
        return bool(size) and isinstance(size[0], ast.Constant) and size[0].value is None
    return False


def test_no_bare_assert_in_src():
    bad = [
        _where(path, node)
        for path in SRC
        for node in ast.walk(TREES[path])
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and node.exc is not None and _raises_assertion(node)
    ]
    assert not bad, f"bare assert or raise AssertionError under src/nonloose (use farey.audit): {bad}"


def test_no_unbounded_cache_in_src():
    bad = [_where(path, node) for path in SRC for node in ast.walk(TREES[path]) if _unbounded(node)]
    assert not bad, f"unbounded cache under src/nonloose (give lru_cache a maxsize): {bad}"


def test_no_src_code_that_only_tests_read():
    # a top-level def or class is read by a name, an attribute, an import
    # alias or a dotted part of a string constant (perfbench names engine
    # functions in strings); a method or property, dunders aside, by an
    # attribute or a dotted part of a string
    names, attrs = set(), set()
    for path in READERS:
        for node in ast.walk(TREES[path]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."), [node.asname])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                attrs.update(node.value.split("."))
    used = names | attrs
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    bad = []
    for path in SRC:
        for node in TREES[path].body:
            if isinstance(node, (*defs, ast.ClassDef)) and node.name not in used:
                bad.append(f"{_where(path, node)} {node.name}")
            if isinstance(node, ast.ClassDef):
                bad += [
                    f"{_where(path, member)} {node.name}.{member.name}"
                    for member in node.body
                    if isinstance(member, defs)
                    and not (member.name.startswith("__") and member.name.endswith("__"))
                    and member.name not in attrs
                ]
    assert not bad, (
        "top-level def or class, or method or property of one, under src/nonloose "
        f"that only tests read (move it to tests/oracles.py): {bad}"
    )


def test_no_public_member_name_in_two_classes():
    # the rule above matches a member by its name alone, so a dead member is
    # hidden by a live one of the same name in another class
    classes = {}
    for path in SRC:
        for node in TREES[path].body:
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not member.name.startswith("_"):
                        classes.setdefault(member.name, []).append(f"{_where(path, member)} {node.name}")
    bad = {name: where for name, where in classes.items() if len(where) > 1}
    assert not bad, f"public method or property name defined by two classes under src/nonloose (rename one): {bad}"
