"""Checks on the program's source text."""

import ast
from pathlib import Path

import hierlab

SOURCE = Path(hierlab.__file__).parent


def unread_parameters(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, function, parameter) for each parameter of a function or
    lambda that its body never reads.  ``del`` is no read; ``self`` and
    names starting with ``_`` are exempt."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        found += [(node.lineno, name, p) for p in params
                  if p != "self" and not p.startswith("_") and p not in read]
    return found


def test_every_parameter_is_read():
    unread = [f"{path.name}:{line}: {name}({param})"
              for path in sorted(SOURCE.glob("*.py"))
              for line, name, param in unread_parameters(
                  ast.parse(path.read_text(encoding="utf-8")))]
    assert unread == []


def definitions(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each top-level function, class and assigned name
    of a module, and each method and annotated field of its top-level
    classes; dunders are exempt."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(m.lineno, m.name) for m in node.body
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            found += [(m.lineno, m.target.id) for m in node.body
                      if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
    return [(line, name) for line, name in found
            if not (name.startswith("__") and name.endswith("__"))]


def names_used(tree: ast.AST) -> set[str]:
    """The names a module reads, imports or spells as an identifier string
    (such as the names in a list of functions to patch)."""
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            used.add(n.value)
    return used


def test_every_definition_is_named_somewhere():
    """Every definition is named by the program or the benchmark; one that
    only tests name does nothing the program needs."""
    repo = Path(__file__).resolve().parent.parent
    modules = sorted(SOURCE.glob("*.py"))
    readers = modules + sorted((repo / "perfbench").glob("*.py"))
    used = set().union(*(names_used(ast.parse(path.read_text(encoding="utf-8")))
                         for path in readers))
    unnamed = [f"{path.name}:{line}: {name}"
               for path in modules
               for line, name in definitions(ast.parse(path.read_text(encoding="utf-8")))
               if name not in used]
    assert unnamed == []


def test_every_file_parses_as_python_3_10():
    """pyproject.toml declares Python 3.10 as the oldest supported
    version, so no source or test file may use later syntax."""
    tests = Path(__file__).resolve().parent
    late = []
    for path in sorted(SOURCE.glob("*.py")) + sorted(tests.glob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
        except SyntaxError as exc:
            late.append(f"{path.name}:{exc.lineno}: {exc.msg}")
    assert late == []
