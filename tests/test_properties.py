"""Randomized invariants.

Each suite runs 200 derandomized examples: reduction and eta behave the same
on every record shape, the encoding guarantees hold on arbitrary generated
hierarchies, diamond verdicts from per-path normal forms match the pairwise
reference, resolution only returns well-typed instances, and definitional
equality is symmetric.
"""

from hypothesis import given, settings, strategies as st

from hierlab.analyzer import (
    analyze, build_graph, check_diamond, enumerate_diamonds, random_hierarchy,
)
from hierlab.declarations import Environment, OpaqueDecl, StructDecl
from hierlab.elaborator import EncodingStrategy, elaborate
from hierlab.kernel import FuelExhausted, check_type, defeq, whnf
from hierlab.resolution import resolve
from hierlab.surface import parse
from hierlab.terms import Binder, Const, FreeVar, Mk, Pi, Proj, Sort, apps
from conftest import ETA_OFF, ETA_ON

COMMON = settings(max_examples=200, deadline=None, derandomize=True)

ATOMS = ("a", "b", "c")


def arrow_type(arity: int):
    ty = Const("ι")
    for _ in range(arity):
        ty = Pi("_", Const("ι"), ty)
    return ty


def record_env(field_arities) -> Environment:
    """One opaque ground type, a few atoms, a record whose fields have the
    given function arities over it, and an opaque inhabitant of the record."""
    env = Environment()
    env.add(OpaqueDecl("ι", (), Sort()))
    for atom in ATOMS:
        env.add(OpaqueDecl(atom, (), Const("ι")))
    fields = tuple(Binder(f"f{k}", arrow_type(arity))
                   for k, arity in enumerate(field_arities))
    env.add(StructDecl("s", (), fields, "s.mk"))
    env.add(OpaqueDecl("x", (), Const("s")))
    return env


@COMMON
@given(st.data())
def test_projection_of_constructor_returns_that_field(data):
    n = data.draw(st.integers(min_value=1, max_value=4), label="fields")
    values = tuple(Const(data.draw(st.sampled_from(ATOMS), label=f"v{k}"))
                   for k in range(n))
    k = data.draw(st.integers(min_value=0, max_value=n - 1), label="which")
    env = record_env([0] * n)
    t = Proj("s", f"f{k}", Mk("s", (), values))
    assert whnf(env, ETA_OFF, (), t) == values[k]
    assert defeq(env, ETA_OFF, (), t, values[k])
    assert defeq(env, ETA_ON, (), t, values[k])


@COMMON
@given(st.data())
def test_eta_gates_record_rebuilding(data):
    n = data.draw(st.integers(min_value=1, max_value=6), label="fields")
    arities = [data.draw(st.integers(min_value=0, max_value=2),
                         label=f"arity {k}") for k in range(n)]
    env = record_env(arities)
    x = Const("x")
    rebuilt = Mk("s", (), tuple(Proj("s", f"f{k}", x) for k in range(n)))
    assert defeq(env, ETA_ON, (), rebuilt, x)
    assert defeq(env, ETA_ON, (), x, rebuilt)
    assert not defeq(env, ETA_OFF, (), rebuilt, x)
    assert not defeq(env, ETA_OFF, (), x, rebuilt)
    if n >= 2:
        offset = data.draw(st.integers(min_value=1, max_value=n - 1),
                           label="rotation")
        rotated = Mk("s", (), tuple(
            Proj("s", f"f{(k + offset) % n}", x) for k in range(n)))
        assert not defeq(env, ETA_ON, (), rotated, x)
        assert not defeq(env, ETA_OFF, (), rotated, x)


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_flat_encoding_diamonds_always_commute(seed):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy("flat"))
    for report in analyze(elab, ETA_OFF):
        assert report.oracle and report.predictor


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_nested_encoding_diamonds_commute_with_eta(seed):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy("nested"))
    for report in analyze(elab, ETA_ON):
        assert report.oracle


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(("nested", "flat", "flat_hack")),
       st.sampled_from((ETA_OFF, ETA_ON)))
def test_analyze_matches_pairwise_check_diamond(seed, encoding, config):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy(encoding))
    graph = build_graph(elab.env, elab.instances)
    assert analyze(elab, config) == [check_diamond(elab.env, d, config)
                                     for d in enumerate_diamonds(graph)]


def ancestors_of(graph, cls: str) -> set[str]:
    out: set[str] = set()
    frontier = [cls]
    while frontier:
        node = frontier.pop()
        for e in graph.edges:
            if e.src == node and e.dst not in out:
                out.add(e.dst)
                frontier.append(e.dst)
    return out


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_resolved_instances_are_well_typed(seed):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy("nested"))
    graph = build_graph(elab.env, elab.instances)
    cls = max(elab.classes, key=lambda name: int(name[1:]))
    ctx = (Binder("T", Sort()),
           Binder("i", apps(Const(cls), FreeVar("T")), instance_implicit=True))
    for ancestor in sorted(ancestors_of(graph, cls)):
        goal = apps(Const(ancestor), FreeVar("T"))
        term, _ = resolve(elab.env, elab.instances, ctx, goal, config=ETA_OFF)
        ty = check_type(elab.env, ETA_OFF, ctx, term)
        assert defeq(elab.env, ETA_OFF, ctx, ty, goal)


def forgetful_steps(elab):
    steps: dict[str, list[tuple[str, str]]] = {}
    for info in elab.instances:
        if info.from_class is not None:
            steps.setdefault(info.from_class, []).append(
                (info.decl_name, info.to_class))
    return steps


@COMMON
@given(st.data())
def test_definitional_equality_is_symmetric(fig1_nested, data):
    steps = forgetful_steps(fig1_nested)
    R = FreeVar("R")
    ctx = fig1_nested.defeqs[0][1]

    def draw_walk(label):
        """A random instance term: forgetful hops interleaved with record
        rebuilds (a constructor applied to the term's own projections)."""
        term, cls = FreeVar("iR"), "ring"
        for hop in range(data.draw(st.integers(0, 4), label=f"{label} length")):
            moves = ["rebuild"] + (["hop"] if cls in steps else [])
            if data.draw(st.sampled_from(moves), label=f"{label} move {hop}") == "hop":
                decl, cls = data.draw(st.sampled_from(sorted(steps[cls])),
                                      label=f"{label} hop {hop}")
                term = apps(Const(decl), R, term)
            else:
                layout = fig1_nested.classes[cls].layout
                term = Mk(cls, (R,),
                          tuple(Proj(cls, b.name, term) for b in layout))
        return term

    a = draw_walk("a")
    b = draw_walk("b")

    def verdict(lhs, rhs, config):
        try:
            return defeq(fig1_nested.env, config, ctx, lhs, rhs)
        except FuelExhausted:
            return "fuel"

    for config in (ETA_OFF, ETA_ON):
        assert verdict(a, a, config) is True
        assert verdict(a, b, config) == verdict(b, a, config)
