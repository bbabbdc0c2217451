"""Unit tests for the term representation and its helper operations."""

import pytest

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
    abstract1,
    apps,
    consts_in,
    free_names,
    fresh_name,
    instantiate,
    metas_in,
    pp_binder,
    pp_term,
    subst_frees,
    subterms,
    unfold_apps,
    zonk,
)


def test_apps_unfold_apps_round_trip():
    t = apps(Const("f"), FreeVar("a"), FreeVar("b"), FreeVar("c"))
    head, args = unfold_apps(t)
    assert head == Const("f")
    assert args == [FreeVar("a"), FreeVar("b"), FreeVar("c")]
    assert apps(head, *args) == t


def test_apps_with_no_arguments_is_identity():
    assert apps(Const("f")) == Const("f")


def test_instantiate_replaces_only_the_outermost_binder():
    # fun x, fun y, x y  with x open: instantiating the outer binder
    # must leave the inner bound variable alone.
    body = Lam("y", Sort(), App(BoundVar(1), BoundVar(0)))
    out = instantiate(body, FreeVar("a"))
    assert out == Lam("y", Sort(), App(FreeVar("a"), BoundVar(0)))


def test_abstract1_then_instantiate_is_identity():
    t = apps(Const("f"), FreeVar("x"),
             Lam("y", Sort(), apps(Const("g"), FreeVar("x"), BoundVar(0))))
    closed = abstract1(t, "x")
    assert "x" not in free_names(closed)
    assert instantiate(closed, FreeVar("x")) == t


def test_abstract1_respects_shadowing_depth():
    t = Lam("y", Sort(), App(FreeVar("x"), BoundVar(0)))
    closed = abstract1(t, "x")
    assert closed == Lam("y", Sort(), App(BoundVar(1), BoundVar(0)))


def test_subst_frees_is_capture_free_for_distinct_names():
    t = Pi("x", FreeVar("A"), App(FreeVar("f"), BoundVar(0)))
    out = subst_frees(t, {"A": Const("int"), "f": FreeVar("g")})
    assert out == Pi("x", Const("int"), App(FreeVar("g"), BoundVar(0)))


def test_zonk_follows_chained_assignments():
    subst = {0: App(Meta(1), FreeVar("a")), 1: Const("f")}
    assert zonk(Meta(0), subst) == App(Const("f"), FreeVar("a"))


def test_zonk_leaves_unsolved_metas_in_place():
    t = apps(Const("f"), Meta(3), Meta(4))
    assert zonk(t, {3: FreeVar("x")}) == apps(Const("f"), FreeVar("x"), Meta(4))


def test_zonk_descends_into_mk_and_proj():
    t = Proj("s", "fst", Mk("s", (Meta(0),), (Meta(1),)))
    out = zonk(t, {0: Const("int"), 1: FreeVar("v")})
    assert out == Proj("s", "fst", Mk("s", (Const("int"),), (FreeVar("v"),)))


def test_metas_in_and_free_names_and_consts_in():
    t = apps(Const("f"), Meta(7), FreeVar("x"), Mk("s", (), (Meta(9),)))
    assert metas_in(t) == {7, 9}
    assert free_names(t) == {"x"}
    assert "f" in consts_in(t)


def test_consts_in_names_constants_and_structures_under_every_child():
    t = Pi("_", Const("a"), Lam("_", Const("b"), apps(Const("c"), Proj(
        "s", "f", Mk("t", (Const("d"),), (FreeVar("x"), Const("e")))))))
    assert consts_in(t) == {"a", "b", "c", "d", "e", "s", "t"}


def test_subterms_visits_binder_bodies():
    t = Lam("x", Const("int"), App(BoundVar(0), FreeVar("y")))
    seen = list(subterms(t))
    assert FreeVar("y") in seen
    assert Const("int") in seen


def test_fresh_name_avoids_taken_names():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x_1"
    assert fresh_name("x", {"x", "x_1"}) == "x_2"


def test_binder_names_do_not_affect_equality():
    a = Pi("x", Sort(), BoundVar(0))
    b = Pi("y", Sort(), BoundVar(0))
    assert a == b


def test_pp_arrow_for_non_dependent_pi():
    t = Pi("_", FreeVar("α"), FreeVar("α"))
    assert pp_term(t) == "α → α"


def test_pp_dependent_pi_and_instance_binder():
    t = Pi("α", Sort(),
           Pi("i", apps(Const("ring"), BoundVar(0)), BoundVar(1), implicit=True))
    assert pp_term(t) == "Pi (α : Type), Pi [i : @ring α], α"


def test_pp_application_uses_explicit_head_marker():
    t = apps(Const("module"), FreeVar("R"), FreeVar("R"))
    assert pp_term(t) == "@module R R"


def test_pp_projection_chains_read_left_to_right():
    t = Proj("add_comm_monoid", "to_add_monoid",
             Proj("ring", "to_semiring", FreeVar("i")))
    assert pp_term(t) == "i.to_semiring.to_add_monoid"


def test_pp_parenthesizes_nested_applications():
    t = apps(Const("f"), apps(Const("g"), FreeVar("x")))
    assert pp_term(t) == "@f (@g x)"


def test_pp_mk_uses_constructor_name():
    t = Mk("point", (), (FreeVar("a"), FreeVar("b")))
    assert pp_term(t) == "@point.mk a b"


def test_pp_binder_brackets_track_instance_implicit():
    assert pp_binder(Binder("x", Sort())) == "(x : Type)"
    assert pp_binder(Binder("i", Const("c"), instance_implicit=True)) == "[i : c]"


def test_bound_variable_outside_context_raises_nothing_but_prints_index():
    assert pp_term(BoundVar(2)) == "#2"
