"""Kernel tests: reduction, definitional equality, type inference, and
first-order unification."""

import pytest

from hierlab.declarations import DefDecl, Environment, OpaqueDecl, StructDecl
from hierlab.kernel import (
    DEFAULT_CONFIG,
    DefEqConfig,
    FuelExhausted,
    IllTyped,
    Mismatch,
    OccursCheck,
    Trace,
    check_type,
    defeq,
    infer_type,
    normalize,
    unify,
    whnf,
)
from hierlab.surface import parse_term
from hierlab.terms import (
    App,
    Binder,
    BoundVar,
    Const,
    FreeVar,
    Lam,
    Meta,
    Mk,
    Pi,
    Proj,
    Sort,
    apps,
    subst_frees,
)
from conftest import ETA_OFF, ETA_ON, UNIFIER_ON


@pytest.fixture(scope="module")
def tiny_env():
    """An environment with one opaque ground type and a two-field record."""
    env = Environment()
    env.add(OpaqueDecl("ι", (), Sort()))
    env.add(OpaqueDecl("a", (), Const("ι")))
    env.add(OpaqueDecl("b", (), Const("ι")))
    env.add(StructDecl("pair", (), (Binder("fst", Const("ι")), Binder("snd", Const("ι")))))
    return env


# ---------------------------------------------------------------------------
# Weak head normal form

def test_whnf_beta_reduces_applied_lambdas(tiny_env):
    t = App(Lam("x", Const("ι"), BoundVar(0)), Const("a"))
    assert whnf(tiny_env, DEFAULT_CONFIG, t) == Const("a")


def test_whnf_iota_reduces_projected_constructors(tiny_env):
    t = Proj("pair", "snd", Mk("pair", (), (Const("a"), Const("b"))))
    assert whnf(tiny_env, DEFAULT_CONFIG, t) == Const("b")


def test_whnf_delta_unfolds_definitions(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    t = parse_term("ring.to_semiring R iR", ctx, fig1_nested.env)
    assert whnf(fig1_nested.env, DEFAULT_CONFIG, t) == \
        Proj("ring", "to_semiring", FreeVar("iR"))


def test_whnf_stops_at_constructors(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    t = parse_term("ring.to_add_comm_group R iR", ctx, fig1_nested.env)
    out = whnf(fig1_nested.env, DEFAULT_CONFIG, t)
    assert isinstance(out, Mk)
    assert out.struct == "add_comm_group"


def test_whnf_keeps_stuck_projections_in_declared_form(fig1_nested):
    """A projection whose target is neutral comes back exactly as given,
    without the target being rewritten to its reduced form."""
    ctx = fig1_nested.defeqs[0][1]
    t = Proj("semiring", "to_add_comm_monoid",
             parse_term("ring.to_semiring R iR", ctx, fig1_nested.env))
    assert whnf(fig1_nested.env, DEFAULT_CONFIG, t) == t


def test_whnf_opaque_constants_do_not_unfold(tiny_env):
    assert whnf(tiny_env, DEFAULT_CONFIG, Const("a")) == Const("a")


def test_normalize_reduces_under_binders_and_inside_constructors(tiny_env):
    ι, a = Const("ι"), Const("a")
    t = Lam("z", ι, Mk("pair", (), (
        App(Lam("w", ι, BoundVar(0)), BoundVar(0)),
        Proj("pair", "snd", Mk("pair", (), (a, BoundVar(0)))))))
    assert normalize(tiny_env, ETA_OFF, t) == Lam("z", ι, Mk("pair", (), (
        BoundVar(0), BoundVar(0))))


def test_normalize_reduces_both_sides_of_a_pi_and_keeps_its_form(tiny_env):
    """A redex in a Pi's domain and one in its codomain, which mentions the
    bound variable, both reduce; the binder name and implicitness stay."""
    ι, a = Const("ι"), Const("a")
    identity = Lam("w", Sort(), BoundVar(0))
    t = Pi("x", App(identity, ι), Pi("_", Proj("pair", "fst", Mk("pair", (), (ι, a))),
                                     App(identity, ι)), implicit=True)
    assert normalize(tiny_env, ETA_OFF, t) == Pi("x", ι, Pi("_", ι, ι), implicit=True)
    first = Lam("w", ι, Proj("pair", "fst", Mk("pair", (), (BoundVar(0), a))))
    dependent = Pi("x", ι, App(first, BoundVar(0)))
    assert normalize(tiny_env, ETA_OFF, dependent) == Pi("x", ι, BoundVar(0))


def test_normalizing_a_projection_chain_reduces_each_link_once():
    """``g1 (g2 (... (g64 x)))``, where ``gi y`` unfolds to ``y.down``, is a
    chain of 64 stuck projections.  Its normal form takes one delta and one
    beta step per link, and fits an unfold depth of 64.  Reducing each
    link's target again, once per projection above it, would take 2,080
    delta steps."""
    k = 64
    env = Environment()
    env.add(OpaqueDecl("ι", (), Sort()))
    env.add(StructDecl("s0", (), (Binder("v", Const("ι")),)))
    for i in range(1, k + 1):
        env.add(StructDecl(f"s{i}", (), (Binder("down", Const(f"s{i - 1}")),)))
        env.add(DefDecl(f"g{i}", (Binder("y", Const(f"s{i}")),), Const(f"s{i - 1}"),
                        Proj(f"s{i}", "down", FreeVar("y"))))
    chain = expected = FreeVar("x")
    for i in range(k, 0, -1):
        chain = App(Const(f"g{i}"), chain)
        expected = Proj(f"s{i}", "down", expected)
    trace = Trace()
    assert normalize(env, DefEqConfig(unfold_depth=k), chain, trace) == expected
    steps = [line.split()[0] for line in trace.lines]
    assert {"delta": steps.count("delta"), "beta": steps.count("beta")} == \
        {"delta": k, "beta": k}
    assert len(steps) == 2 * k


def test_whnf_fuel_exhaustion_raises(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    t = parse_term("semiring.to_add_comm_monoid R (ring.to_semiring R iR)",
                   ctx, fig1_nested.env)
    with pytest.raises(FuelExhausted):
        whnf(fig1_nested.env, DefEqConfig(unfold_depth=1), t)


def test_whnf_projection_of_another_structures_constructor_is_ill_typed(fig1_nested):
    """Iota fires only on a constructor of the projected structure: a ring
    constructor has no semiring fields to take by position."""
    ctx = fig1_nested.defeqs[0][1]
    t = parse_term("semiring.mul R (ring.mk R iR.to_semiring iR.neg)", ctx, fig1_nested.env)
    with pytest.raises(IllTyped, match="^projection semiring.mul applied to a "
                                       "constructor of ring$"):
        whnf(fig1_nested.env, DEFAULT_CONFIG, t)


# ---------------------------------------------------------------------------
# Definitional equality: the inheritance-diamond scenario

def diamond_sides(elab):
    label, ctx, lhs, rhs = elab.defeqs[0]
    assert label == "diamond"
    return ctx, lhs, rhs


def test_diamond_not_defeq_under_nested_encoding_without_eta(fig1_nested):
    ctx, lhs, rhs = diamond_sides(fig1_nested)
    assert defeq(fig1_nested.env, ETA_OFF, ctx, lhs, rhs) is False


def test_diamond_defeq_under_flat_encoding_without_eta(fig1_flat):
    ctx, lhs, rhs = diamond_sides(fig1_flat)
    assert defeq(fig1_flat.env, ETA_OFF, ctx, lhs, rhs) is True


def test_diamond_defeq_under_nested_encoding_with_eta(fig1_nested):
    ctx, lhs, rhs = diamond_sides(fig1_nested)
    assert defeq(fig1_nested.env, ETA_ON, ctx, lhs, rhs) is True


def test_diamond_defeq_under_flat_hack_without_eta(fig1_hack):
    ctx, lhs, rhs = diamond_sides(fig1_hack)
    assert defeq(fig1_hack.env, ETA_OFF, ctx, lhs, rhs) is True


def test_defeq_is_reflexive_on_neutral_terms(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    assert defeq(fig1_nested.env, ETA_OFF, ctx, FreeVar("iR"), FreeVar("iR"))


def test_defeq_trace_records_unfold_and_eta_steps(fig1_nested):
    ctx, lhs, rhs = diamond_sides(fig1_nested)
    trace = Trace()
    assert defeq(fig1_nested.env, ETA_ON, ctx, lhs, rhs, trace=trace)
    rendered = trace.render()
    assert "delta" in rendered
    assert "eta" in rendered


# ---------------------------------------------------------------------------
# Structural eta on a plain record

def test_record_equals_constructor_of_projections_only_with_eta(point_nested):
    label, ctx, lhs, rhs = point_nested.defeqs[0]
    assert label == "eta"
    assert defeq(point_nested.env, ETA_OFF, ctx, lhs, rhs) is False
    assert defeq(point_nested.env, ETA_ON, ctx, lhs, rhs) is True


def test_eta_rejects_swapped_projections(tiny_env):
    ctx = (Binder("p", Const("pair")),)
    swapped = Mk("pair", (), (Proj("pair", "snd", FreeVar("p")),
                              Proj("pair", "fst", FreeVar("p"))))
    assert defeq(tiny_env, ETA_ON, ctx, FreeVar("p"), swapped) is False
    assert defeq(tiny_env, ETA_OFF, ctx, FreeVar("p"), swapped) is False


def test_eta_applies_on_either_side(tiny_env):
    ctx = (Binder("p", Const("pair")),)
    expanded = Mk("pair", (), (Proj("pair", "fst", FreeVar("p")),
                               Proj("pair", "snd", FreeVar("p"))))
    assert defeq(tiny_env, ETA_ON, ctx, expanded, FreeVar("p")) is True
    assert defeq(tiny_env, ETA_ON, ctx, FreeVar("p"), expanded) is True


def test_eta_is_not_transitive_on_structures_without_fields():
    """x and y each equal the empty constructor by eta, yet x = y fails: with
    no constructor on either side, eta never fires.  This is why the diamond
    analyzer never groups normal forms by an eta-long key (which would put x
    and y together) and asks defeq about every pair of distinct ones."""
    env = Environment()
    env.add(StructDecl("unit", (), ()))
    ctx = (Binder("x", Const("unit")), Binder("y", Const("unit")))
    x, y, mk = FreeVar("x"), FreeVar("y"), Mk("unit", (), ())
    assert defeq(env, ETA_ON, ctx, x, mk) is True
    assert defeq(env, ETA_ON, ctx, mk, y) is True
    assert defeq(env, ETA_ON, ctx, x, y) is False


def test_constructors_compare_fieldwise(tiny_env):
    x = Mk("pair", (), (Const("a"), Const("b")))
    y = Mk("pair", (), (Const("a"), Const("b")))
    z = Mk("pair", (), (Const("b"), Const("a")))
    assert defeq(tiny_env, ETA_OFF, (), x, y) is True
    assert defeq(tiny_env, ETA_OFF, (), x, z) is False


def test_lambdas_compare_up_to_alpha(tiny_env):
    f = Lam("x", Const("ι"), BoundVar(0))
    g = Lam("y", Const("ι"), BoundVar(0))
    assert defeq(tiny_env, ETA_OFF, (), f, g) is True


def test_pi_types_compare_componentwise(tiny_env):
    p = Pi("x", Const("ι"), Const("ι"))
    q = Pi("y", Const("ι"), Const("ι"))
    r = Pi("x", Const("ι"), Sort())
    assert defeq(tiny_env, ETA_OFF, (), p, q) is True
    assert defeq(tiny_env, ETA_OFF, (), p, r) is False


# ---------------------------------------------------------------------------
# Type inference and checking

def test_infer_projection_type(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    ty = infer_type(fig1_nested.env, ctx, Proj("ring", "neg", FreeVar("iR")))
    assert ty == Pi("_", FreeVar("R"), FreeVar("R"))


def test_infer_constructor_type(tiny_env):
    ty = infer_type(tiny_env, (), Mk("pair", (), (Const("a"), Const("b"))))
    assert ty == Const("pair")


def test_infer_instance_definition_type(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    t = parse_term("ring.to_semiring R iR", ctx, fig1_nested.env)
    assert infer_type(fig1_nested.env, ctx, t) == \
        apps(Const("semiring"), FreeVar("R"))


def test_infer_rejects_applying_a_non_function(tiny_env):
    with pytest.raises(IllTyped):
        infer_type(tiny_env, (), App(Const("a"), Const("b")))


def test_infer_rejects_unknown_constants(tiny_env):
    with pytest.raises(IllTyped):
        infer_type(tiny_env, (), Const("nonexistent"))


def test_infer_rejects_loose_bound_variables(tiny_env):
    with pytest.raises(IllTyped):
        infer_type(tiny_env, (), BoundVar(0))


def test_infer_rejects_wrong_structure_projection(tiny_env):
    with pytest.raises(IllTyped):
        infer_type(tiny_env, (), Proj("pair", "fst", Const("a")))


def test_infer_meta_requires_a_recorded_type(tiny_env):
    with pytest.raises(IllTyped):
        infer_type(tiny_env, (), Meta(0))
    assert infer_type(tiny_env, (), Meta(0), meta_types={0: Const("ι")}) == Const("ι")


def test_check_type_verifies_constructor_fields(tiny_env):
    bad = Mk("pair", (), (Const("a"), Const("pair")))
    with pytest.raises(IllTyped):
        check_type(tiny_env, DEFAULT_CONFIG, (), bad)


def test_check_type_against_expected(tiny_env):
    check_type(tiny_env, DEFAULT_CONFIG, (), Const("a"), expected=Const("ι"))
    with pytest.raises(IllTyped):
        check_type(tiny_env, DEFAULT_CONFIG, (), Const("a"), expected=Const("pair"))


# (fun (x : ι), x) applied to a type, not to a value of ι.
ILL_TYPED_APP = App(Lam("x", Const("ι"), BoundVar(0)), Const("pair"))


def test_check_type_rejects_an_ill_typed_argument(tiny_env):
    with pytest.raises(IllTyped, match="^argument type Type does not match ι$"):
        check_type(tiny_env, DEFAULT_CONFIG, (), ILL_TYPED_APP)


def test_infer_type_does_not_check_arguments(tiny_env):
    assert infer_type(tiny_env, (), ILL_TYPED_APP) == Const("ι")


@pytest.mark.parametrize("binder", [Lam, Pi], ids=["fun", "Pi"])
def test_check_type_rejects_an_ill_typed_binder_type(tiny_env, binder):
    t = binder("x", App(Const("a"), Const("b")), Const("ι"))
    with pytest.raises(IllTyped, match="^applied non-function of type ι$"):
        check_type(tiny_env, DEFAULT_CONFIG, (), t)


def test_infer_type_infers_the_body_of_a_pi(tiny_env):
    """Without a config the binder type goes unchecked, but the body is
    still inferred, under the binder."""
    with pytest.raises(IllTyped, match="^applied non-function of type ι$"):
        infer_type(tiny_env, (), Pi("x", Const("ι"), App(Const("a"), Const("b"))))


@pytest.mark.parametrize("term", [
    Pi("x", Const("a"), Const("ι")),
    Lam("x", Const("a"), BoundVar(0)),
    Pi("x", Const("ι"), Const("a")),
], ids=["Pi-binder", "fun-binder", "Pi-body"])
def test_check_type_rejects_a_binder_or_pi_body_that_is_not_a_type(tiny_env, term):
    """A binder's type, and a Pi's body, must have type Type; inference
    alone does not ask."""
    with pytest.raises(IllTyped, match="^a is not a type: it has type ι$"):
        check_type(tiny_env, DEFAULT_CONFIG, (), term)
    infer_type(tiny_env, (), term)


def test_check_type_takes_a_binder_type_that_unfolds_to_type(tiny_env):
    """A type's type is Type after weak head reduction: ``k : U`` with
    ``U := Type`` is a type."""
    env = tiny_env.copy()
    env.add(DefDecl("U", (), Sort(), Sort()))
    env.add(OpaqueDecl("k", (), Const("U")))
    assert check_type(env, DEFAULT_CONFIG, (), Pi("x", Const("k"), Const("k"))) == Sort()
    assert check_type(env, DEFAULT_CONFIG, (), Pi("x", Sort(), BoundVar(0))) == Sort()


@pytest.mark.parametrize("term, message", [
    (FreeVar("z"), "unknown free variable 'z'"),
    (Mk("pair", (), (Const("a"),)), "constructor of 'pair' applied to the wrong arity"),
    (Proj("box", "v", Const("q")), "structure type 'box' not fully applied"),
    (Proj("pair", "third", Const("p")), "structure 'pair' has no field 'third'"),
], ids=["free-variable", "constructor-arity", "structure-arity", "no-field"])
def test_infer_diagnostics(tiny_env, term, message):
    env = tiny_env.copy()
    env.add(StructDecl("box", (Binder("T", Sort()),), (Binder("v", FreeVar("T")),)))
    env.add(OpaqueDecl("q", (), Const("box")))
    env.add(OpaqueDecl("p", (), Const("pair")))
    with pytest.raises(IllTyped, match=f"^{message}$"):
        infer_type(env, (), term)


@pytest.mark.parametrize("fields, other, stuck", [
    ((Const("a"), Const("b")), FreeVar("z"), "stuck: @pair.mk a b vs z"),
    ((Const("a"),), Const("p"), "stuck: @pair.mk a vs p"),
], ids=["uninferable", "arity"])
def test_eta_gives_up_without_comparing_fields(tiny_env, fields, other, stuck):
    """Eta compares no field when the other side's type cannot be inferred,
    or the constructor does not fit the structure's arity: the terms are
    not equal, and no ``eta`` step is taken."""
    env = tiny_env.copy()
    env.add(OpaqueDecl("p", (), Const("pair")))
    trace = Trace()
    assert not defeq(env, ETA_ON, (), Mk("pair", (), fields), other, trace)
    assert trace.lines == [stuck]


def test_forgetful_instance_bodies_typecheck(fig1_nested):
    """Every synthesized definition in the environment checks against its
    declared result type, with eta disabled."""
    from hierlab.declarations import DefDecl
    for decl in fig1_nested.env:
        if isinstance(decl, DefDecl):
            ty = check_type(fig1_nested.env, ETA_OFF, decl.binders, decl.body)
            assert defeq(fig1_nested.env, ETA_OFF, decl.binders, ty, decl.result_type)


# ---------------------------------------------------------------------------
# Definitional equality: neutral heads and binders

ι = Const("ι")
F, G, P = FreeVar("f"), FreeVar("g"), FreeVar("p")
HEAD_CTX = (Binder("f", Pi("_", ι, ι)), Binder("g", Pi("_", ι, ι)),
            Binder("p", Const("pair")))
# Equal to `a`, but only after a beta step, so the spines differ as given.
BETA_A = App(Lam("y", ι, BoundVar(0)), Const("a"))


@pytest.mark.parametrize("lhs, rhs, equal, unifier", [
    (App(F, Const("a")), App(F, BETA_A), True, {}),
    (App(F, Const("a")), App(G, Const("a")), False, None),
    (Const("a"), FreeVar("a"), False, None),
    (App(BoundVar(0), Const("a")), App(BoundVar(0), BETA_A), True, {}),
    (App(BoundVar(0), Const("a")), App(BoundVar(1), Const("a")), False, None),
    (App(Meta(0), Const("a")), App(Meta(0), BETA_A), True, {}),
    (Meta(0), Meta(1), False, {0: Meta(1)}),
    (Proj("pair", "fst", P), Proj("pair", "fst", App(Lam("q", Const("pair"), BoundVar(0)), P)),
     True, {}),
    (Proj("pair", "fst", P), Proj("pair", "snd", P), False, None),
    (App(F, Const("a")), App(App(F, Const("a")), Const("a")), False, None),
    (Lam("x", ι, App(F, BoundVar(0))),
     Lam("x", ι, App(F, App(Lam("y", ι, BoundVar(0)), BoundVar(0)))), True, {}),
    (Pi("x", ι, App(F, BoundVar(0))), Pi("x", ι, App(F, BETA_A)), False, None),
    (Pi("x", ι, ι), Pi("y", App(Lam("t", Sort(), BoundVar(0)), ι), ι), True, {}),
    (Lam("x", ι, BoundVar(0)), Pi("x", ι, BoundVar(0)), False, None),
], ids=["free-same-name", "free-different-names", "const-vs-free-same-name",
        "bound-same-index", "bound-different-indices", "meta-same-head", "meta-vs-meta",
        "proj-same-field-compares-targets", "proj-different-fields", "spine-lengths",
        "lam-vs-lam", "pi-vs-pi-bodies-differ", "pi-vs-pi-types-reduce", "lam-vs-pi"])
def test_compare_heads_spines_and_binders(tiny_env, lhs, rhs, equal, unifier):
    """defeq in both directions, and unify, which also assigns a bare meta
    (``unifier`` is its substitution, None for a mismatch)."""
    for config in (ETA_OFF, ETA_ON):
        assert defeq(tiny_env, config, HEAD_CTX, lhs, rhs) is equal
        assert defeq(tiny_env, config, HEAD_CTX, rhs, lhs) is equal
        try:
            assert unify(tiny_env, config, HEAD_CTX, lhs, rhs) == unifier
        except Mismatch:
            assert unifier is None


# ---------------------------------------------------------------------------
# Unification

def test_unify_assigns_bare_metas(tiny_env):
    subst = unify(tiny_env, DEFAULT_CONFIG, (), Meta(0), Const("a"))
    assert subst == {0: Const("a")}


def test_unify_assigns_a_meta_that_reduction_exposes(tiny_env):
    """A side that is no meta until weak-head reduction still has its meta
    assigned: (fun (x : ι), x) ?0 reduces to ?0."""
    t = App(Lam("x", Const("ι"), BoundVar(0)), Meta(0))
    assert unify(tiny_env, DEFAULT_CONFIG, (), t, Const("a")) == {0: Const("a")}
    assert unify(tiny_env, DEFAULT_CONFIG, (), Const("a"), t) == {0: Const("a")}


def test_unify_keeps_assignments_in_declared_form(fig1_nested):
    """Solutions are recorded before reduction, so a goal built from named
    instances keeps those names instead of their unfolded bodies."""
    ctx = fig1_nested.defeqs[0][1]
    rhs = parse_term("ring.to_semiring R iR", ctx, fig1_nested.env)
    subst = unify(fig1_nested.env, DEFAULT_CONFIG, ctx, Meta(0), rhs)
    assert subst[0] == apps(Const("ring.to_semiring"), FreeVar("R"), FreeVar("iR"))


def test_unify_existing_substitution_is_not_mutated_on_failure(tiny_env):
    base = {0: Const("a")}
    with pytest.raises(Mismatch):
        unify(tiny_env, DEFAULT_CONFIG, (), Const("a"), Const("b"), subst=base)
    assert base == {0: Const("a")}


def test_unify_occurs_check(tiny_env):
    with pytest.raises(OccursCheck):
        unify(tiny_env, DEFAULT_CONFIG, (),
              Meta(0), Mk("pair", (), (Const("a"), Meta(0))))


def test_unify_mismatch_on_distinct_rigid_heads(tiny_env):
    with pytest.raises(Mismatch):
        unify(tiny_env, DEFAULT_CONFIG, (), Const("a"), Const("b"))


def test_unify_matches_under_applications(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    goal = parse_term("add_comm_monoid R", ctx, fig1_nested.env)
    pattern = apps(Const("add_comm_monoid"), Meta(0))
    subst = unify(fig1_nested.env, DEFAULT_CONFIG, ctx, pattern, goal)
    assert subst[0] == FreeVar("R")


def metaized_instance_target(elab, name: str):
    """The instance's result type with fresh metas for its binders, plus
    the list of those metas in binder order."""
    decl = elab.env[name]
    mapping = {}
    metas = []
    for i, b in enumerate(decl.binders):
        mapping[b.name] = Meta(i)
        metas.append(Meta(i))
    return subst_frees(decl.result_type, mapping), metas


def test_unifier_eta_gates_matching_projection_against_constructor(module_nested):
    """Matching a goal whose pinned instance argument reduces to a
    constructor against a candidate that stays a stuck projection needs
    structural eta inside the unifier."""
    label, ctx, goal = module_nested.goals[2]
    assert label == "neg_smul"
    pattern, _metas = metaized_instance_target(module_nested, "semiring.to_module")
    with pytest.raises(Mismatch):
        unify(module_nested.env, ETA_OFF, ctx, pattern, goal)
    with pytest.raises(Mismatch):
        unify(module_nested.env, ETA_ON, ctx, pattern, goal)  # kernel flag is not enough
    subst = unify(module_nested.env, UNIFIER_ON, ctx, pattern, goal)
    assert subst[1] == parse_term("ring.to_semiring R iR", ctx, module_nested.env)


def test_unifier_needs_no_eta_once_the_instance_is_a_constructor(module_nested):
    """With a concrete instance constant, both sides reduce to constructor
    form and the same match succeeds without any eta."""
    label, ctx, goal = module_nested.goals[3]
    assert label == "neg_smul_int"
    pattern, _metas = metaized_instance_target(module_nested, "semiring.to_module")
    subst = unify(module_nested.env, ETA_OFF, ctx, pattern, goal)
    assert subst[0] == Const("int")

