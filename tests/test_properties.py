"""Randomized invariants.

Each suite runs 200 derandomized examples: reduction and eta behave the same
on every record shape, the encoding guarantees hold on arbitrary generated
hierarchies, diamond verdicts from per-path normal forms match the pairwise
reference, the stored leaf-field view matches its recursive reference,
the flat layout is that view with every parent rebuilt from it,
tabled resolution matches the untabled search and only returns well-typed
instances, the incremental spanning search matches the whole-module one,
definitional equality is symmetric, and the command line's JSON writer
matches ``json.dumps``.
"""

import json

from hypothesis import given, settings, strategies as st

import reference

from hierlab.analyzer import (
    MAX_PATH_LEN, analyze, build_graph, check_diamond, enumerate_diamonds,
    random_hierarchy, spanning_search,
)
from hierlab.cli import _json_text
from hierlab.declarations import Environment, OpaqueDecl, StructDecl
from hierlab.elaborator import FLAT, EncodingStrategy, elaborate, flatten_fields
from hierlab.kernel import FuelExhausted, check_type, defeq, whnf
from hierlab.resolution import MAX_DEPTH, AnswerTable, DepthExceeded, NotFound, resolve
from hierlab.surface import parse
from hierlab.terms import Binder, Const, FreeVar, Mk, Pi, Proj, Sort, apps
from conftest import ETA_OFF, ETA_ON, UNIFIER_ON, corpus_path, cube_source

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


ENCODINGS = ("nested", "flat", "flat_hack")


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(ENCODINGS))
def test_stored_leaf_view_matches_recursive_flatten(seed, encoding):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy(encoding))
    for name in elab.classes:
        assert flatten_fields(elab.classes, name) == \
            reference.flatten_fields(elab.classes, name)


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_flat_layout_is_the_leaf_view_with_rebuilt_parents(seed):
    """Flat is nested with no substructure: every class stores its leaf view
    in order, and every parent is rebuilt from the leaf projections."""
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy("flat"))
    for name, info in elab.classes.items():
        assert [(f.name, f.ty, f.parent) for f in info.layout] == \
            [(leaf, ty, None) for leaf, ty in reference.flatten_fields(elab.classes, name)]
        edges = [i for i in elab.instances if i.from_class == name]
        assert [(i.decl_name, i.to_class, i.kind, i.priority) for i in edges] == \
            [(f"{name}.to_{p}", p, FLAT, 1000) for p, _ in info.parents]
        for parent, args in info.parents:
            decl = elab.instance_decl(f"{name}.to_{parent}")
            assert decl.body == reference.flat_forgetful_body(
                elab.classes, name, parent, args, FreeVar(decl.binders[-1].name))


# A self-referential instance: its only subgoal is its own goal, which the
# path guard cuts, so that goal's answer is never tabled.
AM_SELF = """
instance am_self (α : Type) [i : add_monoid α] : add_monoid α where
  (zero := add_monoid.zero α i)
  (add := add_monoid.add α i)
"""


def resolution_source(kind: str, n: int) -> str:
    if kind == "random":
        return random_hierarchy(n)
    if kind == "cube":
        return cube_source(n)
    return corpus_path("fig1.hier").read_text() + AM_SELF


def extra_instances(data, elab) -> str:
    """A few user instances between random classes, with every field
    opaque.  They add cycles and candidates with several subgoals, where a
    goal can fail on one path because the guard cut it and succeed on
    another."""
    classes = [c for c, info in elab.classes.items() if len(info.params) == 1]
    out = []
    for k in range(data.draw(st.integers(0, 8), label="extra instances")):
        target = data.draw(st.sampled_from(classes), label=f"extra {k} target")
        needs = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3,
                                   unique=True), label=f"extra {k} needs")
        priority = data.draw(st.sampled_from((10, 1000, 2000)), label=f"extra {k} priority")
        binders = " ".join(f"[i{j} : {c} α]" for j, c in enumerate(needs))
        fields = "".join(f"\n  ({leaf} := opaque)" for leaf in elab.classes[target].leaf_types)
        out.append(f"@[priority {priority}] instance extra{k} (α : Type) {binders} : "
                   f"{target} α where{fields}\n")
    # Expressions are whitespace-insensitive, so an `@[...]` attribute right
    # after a class header or goal would parse as part of its expression; a
    # variables item (closed by its binder's parenthesis) separates them.
    return "\nvariables (β : Type)\n" + "\n".join(out) + "\n"


def outcome(search):
    try:
        return "found", search()
    except NotFound:
        return "not-found", None
    except DepthExceeded:
        return "depth-exceeded", None


@COMMON
@given(st.data(),
       st.one_of(st.tuples(st.just("random"), st.integers(0, 10 ** 6)),
                 st.tuples(st.just("cube"), st.integers(1, 4)),
                 st.just(("am_self", 0))),
       st.sampled_from(ENCODINGS),
       st.booleans(),
       st.sampled_from((ETA_OFF, UNIFIER_ON)))
def test_tabled_resolution_matches_untabled_search(data, source, encoding, top_binder,
                                                   config):
    text = resolution_source(*source)
    elab = elaborate(parse(text), EncodingStrategy(encoding))
    if source[0] != "am_self":
        head, sep, tail = text.partition("variables")
        elab = elaborate(parse(head + extra_instances(data, elab) + sep + tail),
                         EncodingStrategy(encoding))
    classes = [c for c, info in elab.classes.items() if len(info.params) == 1]
    T = FreeVar("T")
    ctx = (Binder("T", Sort()),)
    if top_binder:
        ctx += (Binder("iT", apps(Const(classes[-1]), T), instance_implicit=True),)
    # One table per cap serves every goal, in a drawn order, as `hier resolve`
    # shares one among the goals of a context.  Small caps make the search
    # exceed its depth on some goals and not others.
    order = data.draw(st.permutations(classes), label="goal order")
    for max_depth in (1, 3, MAX_DEPTH):
        table = AnswerTable()
        for cls in order:
            goal = apps(Const(cls), T)
            tabled = outcome(lambda: resolve(elab.env, elab.instances, ctx, goal,
                                             config=config, max_depth=max_depth,
                                             table=table)[0])
            untabled = outcome(lambda: reference.resolve(
                elab.env, elab.instances, ctx, goal, config=config, max_depth=max_depth))
            assert tabled == untabled, (cls, max_depth)


def raised_or_returned(search):
    try:
        return "returned", search()
    except Exception as exc:
        return type(exc), str(exc)


@COMMON
@given(st.data(), st.integers(0, 10 ** 6), st.sampled_from(ENCODINGS),
       st.sampled_from((ETA_OFF, ETA_ON)), st.booleans(),
       st.sampled_from((2, 3, MAX_PATH_LEN)))
def test_incremental_spanning_search_matches_whole_module_search(
        data, seed, encoding, config, with_instances, max_path_len):
    """Forking at each class with several parents and reusing the reports
    of unchanged sources gives the placements of elaborating and analysing
    every order whole, or the same error; short path limits make some
    searches fail."""
    text = random_hierarchy(seed)
    if with_instances:
        text += extra_instances(data, elaborate(parse(text), EncodingStrategy(encoding)))
    module, strategy = parse(text), EncodingStrategy(encoding)
    assert raised_or_returned(
        lambda: spanning_search(module, strategy, config, max_path_len)) == \
        raised_or_returned(
            lambda: reference.spanning_search(module, strategy, config, max_path_len))


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


# Quotes, backslashes, control characters and non-ASCII text, including
# characters outside the basic plane that encode as surrogate pairs.
JSON_STRINGS = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€𝔸') | st.characters(),
                       max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from([0, 1]) | st.integers()
    | st.integers(min_value=2 ** 64, max_value=2 ** 200) | JSON_STRINGS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=24)


@COMMON
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
