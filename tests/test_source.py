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
              for line, name, param in unread_parameters(ast.parse(path.read_text()))]
    assert unread == []

