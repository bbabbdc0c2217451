"""Randomized invariants.

Each suite runs 200 derandomized examples: reduction and eta behave the same
on every record shape, the encoding guarantees hold on arbitrary generated
hierarchies, diamond verdicts from per-path normal forms match the pairwise
reference, the command line's diamonds report matches the reference dict,
the stored leaf-field view matches its recursive reference, a class's
projections through its layout follow the substructure paths a search
finds, the flat layout is that view with every parent rebuilt from it,
tabled resolution matches the untabled search and only returns well-typed
instances, the generated declarations typecheck and keep their diamond
verdicts whatever the class parameter is named, the incremental spanning
search matches the whole-module one,
definitional equality is symmetric, every substitution of the one term
walker matches its recursive reference, the spine reducer's normal forms
match the one-binder-at-a-time reducer's, adding declarations one at a
time leaves what the reference environment leaves, the command line's
JSON writer matches ``json.dumps``, the lexer matches its character loop,
the parser over token arrays matches the one over token objects, and
random token streams through every ``hier`` subcommand end in an exit code
and at most one diagnostic line, never an escaped exception.
"""

import contextlib
import functools
import io
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import reference

from hierlab.analyzer import (
    MAX_PATH_LEN, analyze, build_graph, diamond_rows, random_hierarchy, spanning_search,
)
from hierlab.cli import _json_text, main as cli_main
from hierlab.declarations import (
    DefDecl, Environment, EnvironmentError_, OpaqueDecl, StructDecl, projections,
)
from hierlab.elaborator import FLAT, EncodingStrategy, elaborate
from hierlab.kernel import (
    DefEqConfig, FuelExhausted, check_type, defeq, normalize, whnf,
)
from hierlab.resolution import MAX_DEPTH, AnswerTable, DepthExceeded, NotFound, resolve
from hierlab.surface import _SYMBOLS, KEYWORDS, ParseError, _tokenize, parse
from hierlab import terms
from hierlab.terms import (
    App, Binder, BoundVar, Const, FreeVar, Lam, Meta, Mk, Pi, Proj, Sort, apps,
)
from conftest import CORPUS, ETA_OFF, ETA_ON, UNIFIER_ON, corpus_path, cube_source, load

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
    env.add(StructDecl("s", (), fields))
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
    assert whnf(env, ETA_OFF, t) == values[k]
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
    for *_, oracle, predictor in diamond_rows(analyze(elab, ETA_OFF)):
        assert oracle and predictor


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_nested_encoding_diamonds_commute_with_eta(seed):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy("nested"))
    for *_, oracle, _ in diamond_rows(analyze(elab, ETA_ON)):
        assert oracle


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(("nested", "flat", "flat_hack")),
       st.sampled_from((ETA_OFF, ETA_ON)))
def test_analyze_matches_pairwise_check_diamond(seed, encoding, config):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy(encoding))
    assert list(diamond_rows(analyze(elab, config))) == reference.analyze(elab, config)


ENCODINGS = ("nested", "flat", "flat_hack")


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_diamonds_json_matches_the_reference_report(seed):
    """`hier diamonds --emit json` writes its report in one pass over the
    analyzer's list; it must give the bytes of the reference dict through
    ``json.dumps``, in every encoding and with eta off and on."""
    module = parse(random_hierarchy(seed))
    for encoding in ENCODINGS:
        elab = elaborate(module, EncodingStrategy(encoding))
        for config, eta in ((ETA_OFF, "off"), (ETA_ON, "on")):
            payload = reference.report_dict(encoding, config, analyze(elab, config))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(["diamonds", "@random", "--seed", str(seed), "--emit", "json",
                                 "--encoding", encoding.replace("_", "-"),
                                 "--eta-kernel", eta])
            assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
            summary = payload["summary"]
            assert code == (0 if summary["commuting"] == summary["total"] else 1)


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(ENCODINGS))
def test_stored_leaf_view_matches_recursive_flatten(seed, encoding):
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy(encoding))
    for name in elab.classes:
        assert [(leaf, b.ty) for leaf, b in elab.classes[name].leaves.items()] == \
            reference.flatten_fields(elab.classes, name)


@COMMON
@given(st.data(), st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(ENCODINGS))
def test_layout_projections_match_breadth_first_search(data, seed, encoding):
    """Seen through a class's layout, each class stored at any depth is the
    chain of projections along the path a search over the layouts finds,
    and each leaf is a projection out of the class whose layout holds it,
    under any parent order."""
    module = parse(random_hierarchy(seed))
    declared = elaborate(module, EncodingStrategy("nested")).classes
    order = {name: tuple(data.draw(st.permutations([p for p, _ in info.parents]),
                                   label=f"{name} parent order"))
             for name, info in declared.items() if len(info.parents) >= 2}
    elab = elaborate(module, EncodingStrategy(encoding, order))
    value = FreeVar("v")
    for source, info in elab.classes.items():
        leaves, stored = projections(elab.env, info.struct, value)
        expected = {}
        for target in elab.classes.keys() - {source}:
            path = reference.preferred_path(elab, source, target)
            if path is not None:
                term = value
                for struct, field in path:
                    term = Proj(struct, field, term)
                expected[target] = term
        assert stored == expected
        assert set(leaves) == set(info.leaves)
        for leaf, proj in leaves.items():
            holder = elab.classes[proj.struct]
            assert proj.field == leaf
            assert leaf in {f.name for f in holder.layout} - holder.substructures.keys()
            assert proj.target == (value if proj.struct == source else stored[proj.struct])


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_flat_layout_is_the_leaf_view_with_rebuilt_parents(seed):
    """Flat is nested with no substructure: every class stores its leaf view
    in order, and every parent is rebuilt from the leaf projections."""
    elab = elaborate(parse(random_hierarchy(seed)), EncodingStrategy("flat"))
    for name, info in elab.classes.items():
        assert not info.substructures
        assert [(f.name, f.ty) for f in info.layout] == \
            reference.flatten_fields(elab.classes, name)
        edges = [i for i in elab.instances if i.from_class == name]
        assert [(i.decl_name, i.to_class, i.kind, i.priority) for i in edges] == \
            [(f"{name}.to_{p}", p, FLAT, 1000) for p, _ in info.parents]
        for parent, args in info.parents:
            decl = elab.env[f"{name}.to_{parent}"]
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
        fields = "".join(f"\n  ({leaf} := opaque)" for leaf in elab.classes[target].leaves)
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
    """Forking at each class with several parents, enumerating the paths
    once and reusing the reports of unchanged sources gives the placements
    of elaborating every order whole and deciding it pair by pair, or the
    same error; short path limits make some searches fail."""
    text = random_hierarchy(seed)
    if with_instances:
        text += extra_instances(data, elaborate(parse(text), EncodingStrategy(encoding)))
    module, strategy = parse(text), EncodingStrategy(encoding)
    assert raised_or_returned(lambda: reference.placement_rows(
        spanning_search(module, strategy, config, max_path_len))) == \
        raised_or_returned(
            lambda: reference.spanning_search(module, strategy, config, max_path_len))


def ancestors_of(graph, cls: str) -> set[str]:
    out: set[str] = set()
    frontier = [cls]
    while frontier:
        node = frontier.pop()
        for e in graph.edges:
            if e.from_class == node and e.to_class not in out:
                out.add(e.to_class)
                frontier.append(e.to_class)
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


def check_declarations(env):
    """Check with the kernel, eta off, each structure's parameters and
    fields as one telescope, each opaque constant's type, and each
    definition's type and its closure against that type."""
    for decl in env:
        if isinstance(decl, StructDecl):
            check_type(env, ETA_OFF, (), terms.pi_type(decl.params + decl.fields, Sort()))
        elif isinstance(decl, OpaqueDecl):
            check_type(env, ETA_OFF, (), decl.type)
        elif isinstance(decl, DefDecl):
            ty = decl.type
            check_type(env, ETA_OFF, (), ty)
            check_type(env, ETA_OFF, (), decl.closure, ty)


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_generated_declarations_check_whatever_the_parameter_is_named(seed):
    """The constructors, projections and rebuilt instances the elaborator
    generates typecheck, and the diamond verdicts stay the same, when the
    parameter is named like the instance binder of a projection (``self``)
    or of a rebuilt instance (``i``)."""
    source = random_hierarchy(seed)
    for encoding in ENCODINGS:
        rows = {}
        for name in ("α", "i", "self"):
            elab = elaborate(parse(source.replace("α", name)), EncodingStrategy(encoding))
            check_declarations(elab.env)
            rows[name] = list(diamond_rows(analyze(elab, ETA_OFF)))
        assert rows["i"] == rows["α"] and rows["self"] == rows["α"], encoding


@pytest.mark.parametrize("name", [p.name for p in sorted(CORPUS.glob("*.hier"))])
def test_corpus_declarations_check(name):
    for encoding in ENCODINGS:
        check_declarations(elaborate(load(name), EncodingStrategy(encoding)).env)


# Fields whose types name earlier fields, own and inherited, which the
# generated hierarchies lack.
DEPENDENT_FIELDS = ("class dep (α : Type) extends c0 α where\n"
                    "  (carrier : Type)\n  (pt : carrier)\n  (act : carrier → α)\n"
                    "class dep2 (α : Type) extends dep α where\n  (w : α)\n")


# Under nested, `dpq` stores `dp`, which holds `carrier` in its stored
# `dpt`, and lays out the leaf `base` of the overlapping parent `dq`, whose
# type names `carrier`.  The instance's opaque fields have types that name
# an earlier field and a parameter, whose argument is a binder named like
# that field.  The generated hierarchies have neither.
HELD_AND_OPAQUE = ("class dpt (α : Type) where\n  (carrier : Type)\n  (pt : carrier)\n"
                   "class dp (α : Type) extends c0 α, dpt α\n"
                   "class dq (α : Type) where\n  (carrier : Type)\n  (base : carrier)\n"
                   "  (elt : α)\n"
                   "class dpq (α : Type) extends dp α, dq α\n"
                   "instance idq (carrier : Type) (z : Type) : dq carrier where\n"
                   "  (carrier := z)\n  (base := opaque)\n  (elt := opaque)\n")


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_leaves_naming_held_leaves_and_opaque_fields_naming_earlier_ones_check(seed):
    """A leaf of an overlapping parent whose type names a leaf the class
    holds only inside a stored substructure, and an opaque instance field
    whose type names an earlier field, leave declarations that the kernel
    checks, under every encoding."""
    module = parse(random_hierarchy(seed) + HELD_AND_OPAQUE)
    for encoding in ENCODINGS:
        check_declarations(elaborate(module, EncodingStrategy(encoding)).env)


@COMMON
@given(st.sampled_from([p.name for p in sorted(CORPUS.glob("*.hier"))])
       | st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["α", "self"]), st.booleans())
def test_derived_declarations_match_the_eager_reference(source, param, dependent):
    """Each structure's constructor and projections, derived on first read,
    equal those built eagerly from its class record, also when the class
    parameter takes the projections' value binder name or a field's type
    names an earlier field; the environment lists them right after the
    structure, as the objects it looks up."""
    if isinstance(source, str):
        module = load(source)
    else:
        text = random_hierarchy(source) + DEPENDENT_FIELDS * dependent
        module = parse(text.replace("α", param))
    for encoding in ENCODINGS:
        elab = elaborate(module, EncodingStrategy(encoding))
        env = elab.env
        listed = list(env)
        names = [decl.name for decl in listed]
        assert all(env[decl.name] is decl for decl in listed)
        for info in elab.classes.values():
            eager = reference.class_declarations(info)
            at = names.index(info.name) + 1
            assert names[at:at + len(eager)] == [decl.name for decl in eager]
            assert [env[decl.name] for decl in eager] == eager


@COMMON
@given(st.sampled_from([p.name for p in sorted(CORPUS.glob("*.hier"))])
       | st.integers(min_value=0, max_value=10 ** 6),
       st.sampled_from(["α", "i"]))
def test_rebuilt_instances_match_the_eager_reference(source, param):
    """Each instance that rebuilds a parent, derived from its class's
    structure on first read, equals the one built eagerly from the class
    records under every encoding, also when the class parameter takes the
    instance binder's name; the environment lists them right after the
    structure's projections, in parent order."""
    if isinstance(source, str):
        module = load(source)
    else:
        module = parse(random_hierarchy(source).replace("α", param))
    for encoding in ENCODINGS:
        elab = elaborate(module, EncodingStrategy(encoding))
        env = elab.env
        names = [decl.name for decl in env]
        for info in elab.classes.values():
            eager = reference.rebuilt_declarations(elab, info)
            derived = [f"{info.name}.mk", *(f"{info.name}.{f.name}" for f in info.layout),
                       *(decl.name for decl in eager)]
            at = names.index(info.name) + 1
            assert names[at:at + len(derived)] == derived
            assert env.struct(info.name).derived_names() == derived
            assert [env[decl.name] for decl in eager] == eager


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


WALK_NAMES = st.sampled_from(("x", "y", "z"))


def walker_terms(metas):
    """Terms with every node kind.  Binders, free variables and constants
    share three names, so binders shadow each other and the free variables;
    bound variables may be loose; metas come from ``metas``."""
    leaves = st.one_of(
        st.just(Sort()), WALK_NAMES.map(Const), WALK_NAMES.map(FreeVar),
        st.integers(0, 3).map(BoundVar), st.sampled_from(metas).map(Meta))
    return st.recursive(leaves, lambda kids: st.one_of(
        st.builds(App, kids, kids),
        st.builds(Lam, WALK_NAMES, kids, kids),
        st.builds(Pi, WALK_NAMES, kids, kids, st.booleans()),
        st.builds(Mk, st.just("s"), st.lists(kids, max_size=2).map(tuple),
                  st.lists(kids, max_size=2).map(tuple)),
        st.builds(Proj, st.just("s"), st.just("f"), kids),
    ), max_leaves=12)


# Terms with metas ?first..?4.  Meta ?i is assigned a term from
# WALKER_TERMS[i + 1], so assignments chain but never cycle.
WALKER_TERMS = [walker_terms(range(first, 5)) for first in range(5)]


@COMMON
@given(st.data())
def test_term_walker_matches_the_recursive_substitutions(data):
    t = data.draw(WALKER_TERMS[0], label="term")
    # A bound variable instantiated by BoundVar(0), or a free variable
    # mapped to itself, comes back equal but as a new object.
    value = data.draw(WALKER_TERMS[0].filter(lambda v: v != BoundVar(0)), label="value")
    mapping = data.draw(st.dictionaries(WALK_NAMES, WALKER_TERMS[0], max_size=2)
                        .filter(lambda m: all(v != FreeVar(k) for k, v in m.items())),
                        label="mapping")
    subst = {}
    for mid in range(4):
        if data.draw(st.booleans(), label=f"assign ?{mid}"):
            subst[mid] = data.draw(WALKER_TERMS[mid + 1], label=f"?{mid}")
    names = data.draw(st.lists(WALK_NAMES, max_size=3), label="names")
    binders = data.draw(st.lists(st.builds(Binder, WALK_NAMES, WALKER_TERMS[0], st.booleans()),
                                 max_size=3), label="binders")
    amount = data.draw(st.integers(0, 2), label="amount")
    depth = data.draw(st.integers(0, 3), label="depth")

    substitutions = [
        (terms.lift(t, amount, depth), reference.lift(t, amount, depth)),
        (terms.instantiate(t, value, depth), reference.instantiate(t, value, depth)),
        (terms.abstract(t, names, depth), reference.abstract(t, names, depth)),
        (terms.subst_frees(t, mapping), reference.subst_frees(t, mapping)),
        (terms.zonk(t, subst), reference.zonk(t, subst)),
    ]
    assert terms.consts_in(t, value) == reference.consts_in(t) | reference.consts_in(value)
    closures = [
        (terms.pi_type(binders, t), reference.pi_type(binders, t)),
        (terms.lam_closure(binders, t), reference.lam_closure(binders, t)),
    ]
    # repr also compares binder names and Pi's implicit flag, which == ignores.
    for got, want in substitutions + closures:
        assert repr(got) == repr(want)
    for got, want in substitutions:
        if repr(want) == repr(t):
            assert got is t
    beyond = 4  # no bound variable index reaches this, under any binder
    assert terms.lift(t, 1, beyond) is t
    assert terms.instantiate(t, value, beyond) is t
    assert terms.subst_frees(t, {"w": Sort()}) is t
    assert terms.zonk(t, {99: Sort()}) is t


REDUCTION_SOURCES = sorted(p.name for p in CORPUS.glob("*.hier")) + [
    f"@random {seed}" for seed in range(8)]


@functools.cache
def reduction_elaboration(source: str, encoding: str):
    text = (random_hierarchy(int(source.split()[1])) if source.startswith("@random")
            else corpus_path(source).read_text())
    return elaborate(parse(text), EncodingStrategy(encoding))


def reduction_terms(rng: random.Random, elab):
    """A term over an elaboration's classes: an instance variable taken
    through forgetful instances, substructure projections (stuck
    projection chains), rebuilt constructors and beta redexes of one to
    three binders, whose body is one argument or a constructor rebuilt
    from it, given as many arguments as binders, one fewer, or one more
    when the selected argument is itself a lambda; then now and then
    projected onto a leaf field."""
    if not elab.classes:
        return FreeVar("i")
    steps = forgetful_steps(elab)
    # Walks start at a class with parents when there is one.
    cls = rng.choice(sorted(steps) or sorted(elab.classes))
    term = FreeVar("i")
    for _ in range(rng.randint(1, 8)):
        struct = elab.classes[cls].struct
        params = [FreeVar(b.name) for b in struct.params]
        moves = (["hop"] * 3 if cls in steps else []) + (
            ["project"] * 2 if struct.substructures else []) + ["beta", "beta", "rebuild"]
        move = rng.choice(moves)
        if move == "hop":
            decl, cls = rng.choice(sorted(steps[cls]))
            term = apps(Const(decl), *params, term)
        elif move == "project":
            field = rng.choice(sorted(struct.substructures))
            term, cls = Proj(cls, field, term), struct.substructures[field]
        elif move == "rebuild":
            term = Mk(cls, tuple(params), tuple(Proj(cls, b.name, term) for b in struct.fields))
        else:
            binders = rng.randint(1, 3)
            selected = rng.randrange(binders)
            # The selected argument is BoundVar(binders - 1 - selected) in the body.
            body = BoundVar(binders - 1 - selected)
            shape = rng.choice(["exact", "partial", "extra", "rebuilt"])
            if shape == "rebuilt":
                body = Mk(cls, tuple(params), tuple(Proj(cls, b.name, body)
                                                    for b in struct.fields))
            redex = body
            for _ in range(binders):
                redex = Lam("x", Sort(), redex)
            args = [FreeVar("a")] * binders
            args[selected] = term
            if shape == "extra":
                args[selected] = Lam("y", Sort(), term)
                args.append(FreeVar("b"))
            elif shape == "partial" and selected < binders - 1:
                args.pop()
            term = apps(redex, *args)
    fields = [b.name for b in elab.classes[cls].struct.fields]
    if fields and rng.random() < 0.5:
        term = Proj(cls, rng.choice(fields), term)
    return term


@COMMON
@given(st.data(), st.sampled_from(REDUCTION_SOURCES), st.sampled_from(ENCODINGS),
       st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3, 5, 8, 13, 21, 34, 256]))
def test_spine_reducer_matches_the_term_reducer(data, source, encoding, seed, depth):
    """The kernel's normal forms equal the reference's one-binder-at-a-time
    reducer's wherever that returns, and the kernel never runs out of fuel
    where it does not.  One walk instantiating several binders equals
    instantiating them one at a time."""
    elab = reduction_elaboration(source, encoding)
    t = reduction_terms(random.Random(seed), elab)
    config = DefEqConfig(eta_kernel=False, eta_unifier=False, unfold_depth=depth)
    try:
        want = reference.normalize(elab.env, config, t)
    except FuelExhausted:
        pass
    else:
        # repr also compares binder names, which == ignores.
        assert repr(normalize(elab.env, config, t)) == repr(want)

    body = data.draw(WALKER_TERMS[0], label="body")
    values = data.draw(st.lists(WALKER_TERMS[0], min_size=1, max_size=3), label="values")
    under = data.draw(st.integers(0, 2), label="depth")
    folded = body
    for _ in values:
        folded = Lam("x", Sort(), folded)
    for value in values:
        folded = reference.instantiate(folded.body, value, under)
    assert repr(terms.instantiate_many(body, values, under)) == repr(folded)


# Terms that name only "a" and "b", which `add_all`'s environments declare.
SAFE_TERMS = st.recursive(
    st.sampled_from([Const("a"), Const("b"), FreeVar("x"), Sort()]),
    lambda kids: st.one_of(
        st.builds(App, kids, kids), st.builds(Pi, st.just("_"), kids, kids),
        st.builds(Proj, st.just("b"), st.just("f"), kids),
        st.builds(Mk, st.just("b"), st.lists(kids, max_size=2).map(tuple), st.just(()))),
    max_leaves=3)
SHARED_BINDERS = (Binder("x", Const("a")), Binder("y", Pi("_", Const("a"), Const("b"))),
                  Binder("z", App(Const("b"), Const("zz"))))
SHARED_TELESCOPES = ((), SHARED_BINDERS[:1], SHARED_BINDERS[:2], SHARED_BINDERS[1:])
TELESCOPES = st.sampled_from(SHARED_TELESCOPES) | st.lists(
    st.sampled_from(SHARED_BINDERS) | st.builds(Binder, st.just("w"), SAFE_TERMS),
    max_size=3).map(tuple)


@st.composite
def declaration_runs(draw):
    """Declarations for an environment that declares "a" and "b", named "c"
    to "f" but now and then like a declared name, another of the run, or
    the constructor or a field's projection of a structure of the run.
    Two result types in three also name one of "a" to "f", such a derived
    name or the undeclared "zz", so that a run meets self-references,
    references to its own later or earlier declarations and missing names.
    Binder records and telescopes come from a shared pool, as a class's
    leaves are its parent's records, or are new; the pool's "z" names "zz".
    A structure rebuilds, now and then, the structure "u", whose derived
    instance's name another declaration may take before or after it, or
    the undeclared "zz".  Half the runs also hold, somewhere, a structure
    "g" with a field "h.x" or "h.mk" and a structure "g.h" with a field "x"
    or "mk", in either order: both derive "g.h.x" or "g.h.mk", or "g.h"
    derives "g.h.mk" twice."""
    names = draw(st.lists(st.sampled_from("cdef"), max_size=4, unique=True))
    derived = [f"{n}.{suffix}" for n in names for suffix in ("mk", "x", "w", "to_u")]
    decls = []
    for name in names:
        if draw(st.integers(0, 5)) == 0:
            name = draw(st.sampled_from(["a", *names, *derived]))
        telescope = draw(TELESCOPES)
        ty = draw(SAFE_TERMS)
        named = draw(st.none() | st.sampled_from([*"abcdef", "c.mk", "c.x"]) | st.just("zz"))
        if named is not None:
            ty = App(ty, Const(named))
        kind = draw(st.sampled_from((OpaqueDecl, DefDecl, StructDecl)))
        if kind is OpaqueDecl:
            decls.append(OpaqueDecl(name, telescope, ty))
        elif kind is DefDecl:
            decls.append(DefDecl(name, telescope, ty, draw(SAFE_TERMS)))
        else:
            rebuilt = draw(st.sampled_from([(), (Const("u"),), (Const("u"),), (Const("zz"),)]))
            decls.append(StructDecl(name, telescope, draw(TELESCOPES), rebuilt=rebuilt))
    if draw(st.booleans()):
        outer = draw(st.sampled_from(["h.x", "h.mk"]))
        inner = draw(st.sampled_from(["x", "mk"]))
        dotted = [StructDecl("g", (), (Binder(outer, Const("a")),)),
                  StructDecl("g.h", (), (Binder(inner, Const("a")),))]
        at = draw(st.integers(0, len(decls)))
        decls[at:at] = dotted if draw(st.booleans()) else dotted[::-1]
    return decls


def add_all(env, decls):
    """Add ``decls`` one at a time to ``env``; the error message, or None."""
    try:
        for decl in decls:
            env.add(decl)
    except EnvironmentError_ as exc:
        return str(exc)
    return None


@COMMON
@given(declaration_runs())
def test_single_adds_match_the_reference_environment(decls):
    """The same error, names in order and stored names as the reference,
    whose ``add`` builds every derived name and checks every term on its
    own.  Both first declare "a" and "b", which checks the record of "x",
    and the structure "u" with no field."""
    env, want = Environment(), reference.Environment()
    base = [OpaqueDecl("a", (), Sort()), OpaqueDecl("b", SHARED_BINDERS[:1], Const("a")),
            StructDecl("u", (), ())]
    add_all(env, base)
    add_all(want, base)
    assert add_all(env, decls) == add_all(want, decls)
    assert [decl.name for decl in env] == list(want.names)
    assert len(env) == len(want.names)
    assert [decl.name for decl in env.stored()] == [
        name for name, decl in want.names.items() if decl.name == name]


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


# A JSON value with holes, each filled with one shared object.
HOLE = object()
JSON_SKELETONS = st.recursive(
    st.just(HOLE) | st.none() | st.integers() | JSON_STRINGS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=12)


def fill(skeleton, shared):
    if skeleton is HOLE:
        return shared
    if isinstance(skeleton, list):
        return [fill(item, shared) for item in skeleton]
    if isinstance(skeleton, dict):
        return {key: fill(item, shared) for key, item in skeleton.items()}
    return skeleton


@COMMON
@given(JSON_VALUES, st.data())
def test_json_writer_matches_json_dumps(value, data):
    """Also on values in which one dict or list object comes up several
    times, at one depth or at several, and holds another such object."""
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)
    innermost = data.draw(st.dictionaries(JSON_STRINGS, JSON_VALUES, min_size=1, max_size=3)
                          | st.lists(JSON_VALUES, min_size=1, max_size=3), label="innermost")
    inner = fill(data.draw(JSON_SKELETONS, label="inner"), innermost)
    shared = fill(data.draw(JSON_SKELETONS, label="outer"), inner)
    for aliased in (shared, [inner, shared, {"k": [inner]}, inner]):
        assert _json_text(aliased) == json.dumps(aliased, indent=2, sort_keys=True)


# Names (Unicode and dotted, a digit after a dot), numbers, every symbol, a
# lone minus, comments with and without their newline, every kind of blank
# and a character that starts no token.
LEXER_PIECES = ("a", "x'", "αβ", "ℕ.succ", "_y", "a.b.c", "x.1", "0", "42", "٣",
                *(sym for sym, _ in _SYMBOLS), "-", "--", "-- note", "-- note\n",
                " ", "\n", "\r", "\t", "\x0b", "\xa0", "\u2003", "!")


def lexed(tokenize, text: str):
    try:
        return [t if isinstance(t, tuple) else (t.kind, t.value, t.line, t.col)
                for t in tokenize(text)]
    except ParseError as exc:
        return str(exc)


@COMMON
@given(st.lists(st.sampled_from(LEXER_PIECES), max_size=30))
def test_lexer_matches_the_character_loop(pieces):
    text = "".join(pieces)
    assert lexed(lambda t: zip(*_tokenize(t)), text) == lexed(reference.tokenize, text)


FUZZ_TOKENS = (*sorted(KEYWORDS), "a", "b", "T", "α", "iT", "mag.z", "x.y", "0", "7",
               "?1", *(sym for sym, _ in _SYMBOLS), "@[priority 5]", "\n", "!")
FUZZ_CORPUS = ("cube.hier", "fig1.hier", "module.hier", "point.hier")


def replace_words(data, text: str) -> str:
    """``text`` with one to three of its words replaced by fuzz tokens."""
    words = re.split(r"(\s+)", text)
    for _ in range(data.draw(st.integers(1, 3), label="replacements")):
        # Even pieces are the words, odd ones the blanks between them.
        k = data.draw(st.integers(0, len(words) // 2), label="word") * 2
        words[k] = data.draw(st.sampled_from(FUZZ_TOKENS), label="token")
    return "".join(words)


def fuzz_text(data) -> str:
    """Keywords, names and symbols at random, or a corpus file with a few
    words replaced."""
    if data.draw(st.booleans(), label="from corpus"):
        name = data.draw(st.sampled_from(FUZZ_CORPUS), label="file")
        return replace_words(data, corpus_path(name).read_text())
    return " ".join(data.draw(st.lists(st.sampled_from(FUZZ_TOKENS), max_size=40),
                              label="tokens"))


# Every production of the surface syntax, which the corpus files leave
# out in part: binders, priorities, opaque values, projections of
# parenthesized and ``@`` terms, by one segment and by a dotted name, and
# a comment that ends the input.
ALL_SYNTAX = """-- a module that parses, though its names do not resolve
class base (α : Type)
class mag (α β : Type) [base α] [i : base β] extends base α, base β where
  (op : Pi (x : α), α → α)
  (pick : Pi [j : base α], (α → β) → Type)
@[priority 3] instance mag.self (γ : Type) [m : mag γ γ] : mag γ (base γ) where
  (op := fun (x : γ), λ (y : γ), (@mag.op γ m).to_base x)
  (pick := opaque)
variables (R : Type) [iR : mag R R]
goal g : (@mag.op R iR) .pick.to_base R
defeq d : Π (x : R), @mag .op R = (fun (z : R), z).val.fst  -- no newline after it"""


def parsed(parse, text: str):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@COMMON
@given(st.data())
def test_parser_matches_the_token_object_parser(data):
    """Lexemes run together, random token streams, mutated corpus files and
    a mutated module of every production, whole or cut short, parse to
    equal modules under the parser over token arrays and the one over token
    objects, or fail with the same ParseError text."""
    source = data.draw(st.sampled_from(("lexemes", "fuzz", "all syntax")), label="source")
    if source == "lexemes":
        text = "".join(data.draw(st.lists(st.sampled_from(LEXER_PIECES), max_size=30),
                                 label="pieces"))
    elif source == "fuzz":
        text = fuzz_text(data)
    else:
        text = replace_words(data, ALL_SYNTAX)
        if data.draw(st.booleans(), label="cut short"):
            # After a piece at random, and ended by a comment.
            pieces = re.split(r"(\s+)", text)
            text = "".join(pieces[:data.draw(st.integers(1, len(pieces)), label="cut")])
            text += "-- cut"
    assert parsed(parse, text) == parsed(reference.parse, text)


@COMMON
@given(st.data())
def test_random_token_streams_end_in_an_exit_code(tmp_path_factory, data):
    """Keywords, names and symbols at random, or a corpus file with a few
    words replaced: every subcommand exits with 0 or 1 and writes nothing to
    stderr, or exits with 2 and writes one ``path:line:col: `` or ``path: ``
    diagnostic line, and lets no exception escape."""
    text = fuzz_text(data)
    path = tmp_path_factory.getbasetemp() / "fuzz.hier"
    path.write_text(text)
    diagnostic = re.compile(re.escape(str(path)) + r"(:\d+:\d+)?: [^\n]*\n")
    for command in ("elaborate", "defeq", "resolve", "diamonds", "spanning-search"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main([command, str(path)])
        if code == 2:
            assert diagnostic.fullmatch(err.getvalue()), (command, err.getvalue())
        else:
            assert (code, err.getvalue()) in ((0, ""), (1, "")), command
