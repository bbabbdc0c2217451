"""Shared fixtures: parsed corpus modules and their elaborations.

Everything here is session-scoped because elaboration is pure; tests must
not mutate the returned objects.
"""

import itertools
from pathlib import Path

import pytest

from hierlab.cli import main as cli_main
from hierlab.elaborator import EncodingStrategy, elaborate
from hierlab.kernel import DefEqConfig
from hierlab.surface import parse

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ETA_OFF = DefEqConfig(eta_kernel=False, eta_unifier=False)
ETA_ON = DefEqConfig(eta_kernel=True, eta_unifier=False)
UNIFIER_ON = DefEqConfig(eta_kernel=True, eta_unifier=True)


def corpus_path(name: str) -> Path:
    return CORPUS / name


def load(name: str):
    return parse(corpus_path(name).read_text())


def cube_name(subset: tuple[int, ...]) -> str:
    return "base" if not subset else "c" + "".join(map(str, subset))


def cube_source(n: int, top_instance: bool = False) -> str:
    """The n-dimensional mixin hypercube, shaped like corpus/cube.hier: a
    base with three fields, one class per singleton adding one field, and
    one field-less class per larger subset extending each subset one
    element smaller.  Then one goal `g_<class> : <class> T` per class, in a
    context that holds an instance of the top class when `top_instance`."""
    lines: list[str] = []
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            head = f"class {cube_name(subset)} (α : Type)"
            if k:
                head += " extends " + ", ".join(
                    f"{cube_name(s)} α" for s in itertools.combinations(subset, k - 1))
            if k == 0:
                lines += [head + " where", "  (zero : α)", "  (add : α → α → α)",
                          "  (mul : α → α → α)"]
            elif k == 1:
                lines += [head + " where", f"  (op{subset[0]} : α → α)"]
            else:
                lines.append(head)
    top = cube_name(tuple(range(n)))
    lines.append(f"variables (T : Type) [iT : {top} T]" if top_instance
                 else "variables (T : Type)")
    lines += [f"goal g_{cube_name(s)} : {cube_name(s)} T"
              for k in range(n + 1) for s in itertools.combinations(range(n), k)]
    return "\n".join(lines) + "\n"


def chain_source(classes: int) -> str:
    """A chain k0 <- k1 <- ... of `classes` classes, each adding one field
    of type α.  Under flat the last class lays out one field per class."""
    return "".join(f"class k{i} (α : Type){f' extends k{i - 1} α' if i else ''} where\n"
                   f"  (f{i} : α)\n" for i in range(classes))


# d extends b and c, which extend a; the chain e1 … e7 extends d.  So e7
# reaches a by two 9-edge paths, one edge past the analyzer's path limit.
LONG_DIAMOND = (
    "class a (α : Type) where\n  (x : α)\n"
    "class b (α : Type) extends a α\nclass c (α : Type) extends a α\n"
    "class d (α : Type) extends b α, c α\nclass e1 (α : Type) extends d α\n"
    + "".join(f"class e{k} (α : Type) extends e{k - 1} α\n" for k in range(2, 8)))


@pytest.fixture(scope="session")
def fig1_module():
    return load("fig1.hier")


@pytest.fixture(scope="session")
def fig1_nested(fig1_module):
    return elaborate(fig1_module, EncodingStrategy("nested"))


@pytest.fixture(scope="session")
def fig1_flat(fig1_module):
    return elaborate(fig1_module, EncodingStrategy("flat"))


@pytest.fixture(scope="session")
def fig1_hack(fig1_module):
    return elaborate(fig1_module, EncodingStrategy("flat_hack"))


@pytest.fixture(scope="session")
def module_module():
    return load("module.hier")


@pytest.fixture(scope="session")
def module_nested(module_module):
    return elaborate(module_module, EncodingStrategy("nested"))


@pytest.fixture(scope="session")
def module_flat(module_module):
    return elaborate(module_module, EncodingStrategy("flat"))


@pytest.fixture(scope="session")
def rootonly_nested():
    return elaborate(load("rootonly.hier"), EncodingStrategy("nested"))


@pytest.fixture(scope="session")
def cube_module():
    return load("cube.hier")


@pytest.fixture(scope="session")
def point_nested():
    return elaborate(load("point.hier"), EncodingStrategy("nested"))


@pytest.fixture
def run_cli(capsys):
    """Invoke the command line in-process and capture its streams."""

    def run(*argv: str):
        code = cli_main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
