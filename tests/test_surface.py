"""Tests for the surface language: lexing, parsing, name resolution,
printing, and standalone term parsing."""

import pytest

from hierlab.elaborator import EncodingStrategy, elaborate
from hierlab.kernel import DEFAULT_CONFIG, IllTyped, check_type
from hierlab.surface import (
    ClassItem,
    DefeqItem,
    GoalItem,
    InstanceItem,
    ParseError,
    SName,
    SProj,
    ScopeError,
    SurfaceError,
    VariablesItem,
    parse,
    parse_expr_text,
    parse_term,
)
from hierlab.terms import Binder, Const, FreeVar, Proj, Sort, apps, pp_term
from conftest import CORPUS, corpus_path, load
from reference import print_module


FIG1 = """
class add_monoid (α : Type) where
  (zero : α)
  (add : α → α → α)

class add_comm_monoid (α : Type) extends add_monoid α

class semiring (α : Type) extends add_comm_monoid α where
  (one : α)
  (mul : α → α → α)
"""


def test_parse_class_items_and_fields():
    module = parse(FIG1)
    kinds = [type(item).__name__ for item in module.items]
    assert kinds == ["ClassItem", "ClassItem", "ClassItem"]
    am = module.items[0]
    assert am.name == "add_monoid"
    assert [b.name for b in am.binders] == ["α"]
    assert [f.name for f in am.fields] == ["zero", "add"]


def test_extends_lists_parse_in_order():
    text = FIG1 + """
class ring (α : Type) extends semiring α, add_monoid α where
  (neg : α → α)
"""
    ring = parse(text).items[-1]
    heads = [p.fn.name for p in ring.parents]
    assert heads == ["semiring", "add_monoid"]


def test_field_groups_share_one_type():
    module = parse("""
class pair (α : Type) where
  (fst snd : α)
""")
    fields = module.items[0].fields
    assert [f.name for f in fields] == ["fst", "snd"]
    assert fields[0].ty == fields[1].ty


def test_class_with_no_binders_fields_or_parents():
    module = parse("class int")
    item = module.items[0]
    assert isinstance(item, ClassItem)
    assert item.binders == () and item.fields == () and item.parents == ()


def test_comments_and_blank_lines_are_ignored():
    module = parse("-- a comment\n\nclass int  -- trailing\n")
    assert len(module.items) == 1


def test_empty_module_parses():
    assert parse("").items == ()
    assert parse("-- nothing here\n").items == ()


def test_instance_with_priority_and_opaque_fields():
    module = parse("""
class int
class has_one (α : Type) where
  (one : α)
@[priority 42] instance int.has_one : has_one int where
  (one := opaque)
""")
    inst = module.items[-1]
    assert isinstance(inst, InstanceItem)
    assert inst.priority == 42
    assert inst.assignments[0].name == "one"


def test_instance_without_priority_defaults_to_none():
    module = parse("""
class int
class has_one (α : Type) where
  (one : α)
instance int.has_one : has_one int where
  (one := opaque)
""")
    assert module.items[-1].priority is None


PRIORITY_AFTER = {
    "extends": "class has_one_too (α : Type) extends has_one α",
    "goal": "variables (T : Type) [iT : has_one T]\ngoal g : has_one T",
    "defeq": "variables (T : Type) [iT : has_one T]\ndefeq d : iT = iT",
}


@pytest.mark.parametrize("before", sorted(PRIORITY_AFTER))
def test_priority_attribute_after_an_item_ending_in_an_expression(before):
    """`@[` opens the next item's attribute; it is not an argument to the
    expression that ends the previous item."""
    module = parse(f"""
class int
class has_one (α : Type) where
  (one : α)
{PRIORITY_AFTER[before]}
@[priority 7] instance int.has_one : has_one int where
  (one := opaque)
""")
    inst = module.items[-1]
    assert isinstance(inst, InstanceItem) and inst.priority == 7
    printed = print_module(module)
    assert "@[priority 7] instance int.has_one" in printed
    assert print_module(parse(printed)) == printed


def test_variables_goal_and_defeq_items():
    module = parse(FIG1 + """
variables (R : Type) [iS : semiring R]
goal weaken : add_comm_monoid R
defeq same : iS = iS
""")
    var, goal, defeq_item = module.items[-3:]
    assert isinstance(var, VariablesItem)
    assert [b.name for b in var.binders] == ["R", "iS"]
    assert var.binders[1].instance_implicit
    assert isinstance(goal, GoalItem) and goal.label == "weaken"
    assert isinstance(defeq_item, DefeqItem) and defeq_item.label == "same"


def test_dotted_names_resolve_against_declared_prefixes():
    # `semiring.to_add_comm_monoid` must lex as one identifier, not a
    # projection of the variable `semiring`.
    e = parse_expr_text("semiring.to_add_comm_monoid R iS")
    assert isinstance(e.fn.fn, SName)
    assert e.fn.fn.name == "semiring.to_add_comm_monoid"


def test_postfix_projection_lexes_as_a_dotted_name():
    # `iS.one` stays a single dotted identifier at the surface level;
    # the split into a projection is type-directed and happens when the
    # expression is resolved against an environment.
    module = parse(FIG1 + """
variables (R : Type) [iS : semiring R]
goal g : iS.one
""")
    goal = module.items[-1]
    assert isinstance(goal.target, SName)
    assert goal.target.name == "iS.one"


def test_parse_error_reports_line_and_column():
    with pytest.raises(ParseError) as err:
        parse("class (α : Type)")
    assert err.value.line == 1
    assert "expected" in str(err.value)


def test_scope_error_names_the_unknown_identifier():
    """Parsing looks no name up; elaboration reports the unknown one."""
    module = parse("class foo (α : Type) extends bar α")
    with pytest.raises(ScopeError) as err:
        elaborate(module, EncodingStrategy("nested"))
    assert (err.value.name, err.value.line, err.value.col) == ("bar", 1, 30)
    assert str(err.value) == "1:30: name 'bar' is not declared at this point"


def test_redeclared_name_parses_but_cannot_enter_one_environment():
    # The surface syntax allows shadowing-free redeclaration to be caught
    # later, when both declarations land in a single environment.
    module = parse("class int\nclass int")
    assert len(module.items) == 2


def test_goal_referencing_later_class_is_rejected():
    module = parse("goal g : later_class\nclass later_class")
    with pytest.raises(ScopeError) as err:
        elaborate(module, EncodingStrategy("nested"))
    assert (err.value.name, err.value.line, err.value.col) == ("later_class", 1, 10)


@pytest.mark.parametrize("name", ["fig1.hier", "module.hier", "cube.hier",
                                  "rootonly.hier", "point.hier", "empty.hier"])
def test_print_parse_fixpoint_on_corpus(name):
    # Positions differ after printing (comments and blank lines are not
    # kept), so the fixpoint is on the printed form.
    module = load(name)
    printed = print_module(module)
    assert print_module(parse(printed)) == printed


BINDERS = """
class base (α : Type)

class mag (α : Type) where
  (op : Pi (x : α), α → α)
  (pick : Pi [i : base α], α)

variables (R : Type) [iR : mag R]

defeq beta :
  fun (x : R), (fun (y : R), y) x = fun (z : R), z
"""


def test_print_parse_fixpoint_on_binder_syntax():
    printed = print_module(parse(BINDERS))
    assert "  (op : Pi (x : α), α → α)\n" in printed
    assert "  (pick : Pi [i : base α], α)\n" in printed
    assert ("defeq beta : (fun (x : R), (fun (y : R), y) x) = (fun (z : R), z)\n"
            in printed)
    assert print_module(parse(printed)) == printed



def test_printer_keeps_a_user_binder_named_like_an_anonymous_one():
    printed = print_module(parse("class base (α : Type)\n"
                                 "variables (R : Type) [_inst_2 : base R] [base R]\n"))
    assert "variables (R : Type) [_inst_2 : base R] [base R]\n" in printed
    names = [b.name for b in parse(printed).items[-1].binders]
    assert names == ["R", "_inst_2", "_inst_1"]

def test_printed_module_contains_declared_syntax(fig1_module):
    printed = print_module(fig1_module)
    assert "class ring (α : Type) extends semiring α, add_comm_group α" in printed
    assert "class add_group (α : Type) extends add_monoid α where" in printed
    assert "(neg : α → α)" in printed
    assert "variables (R : Type) [iR : ring R]" in printed


def test_parse_term_in_context(fig1_nested):
    ctx = (Binder("R", Sort()),
           Binder("iR", apps(Const("ring"), FreeVar("R")), instance_implicit=True))
    t = parse_term("semiring.to_add_comm_monoid R (ring.to_semiring R iR)",
                   ctx, fig1_nested.env)
    assert t == apps(Const("semiring.to_add_comm_monoid"), FreeVar("R"),
                     apps(Const("ring.to_semiring"), FreeVar("R"), FreeVar("iR")))


def test_parse_term_resolves_field_projection_by_type(fig1_nested):
    ctx = (Binder("R", Sort()),
           Binder("iR", apps(Const("ring"), FreeVar("R")), instance_implicit=True))
    t = parse_term("iR.neg", ctx, fig1_nested.env)
    assert t == Proj("ring", "neg", FreeVar("iR"))


def test_a_projection_of_an_application_round_trips(fig1_nested, fig1_module):
    """A projection out of an application prints its target in parentheses
    and parses back to the same term, alone and inside a printed module."""
    ctx = fig1_nested.defeqs[0][1]
    t = Proj("semiring", "to_add_comm_monoid",
             apps(Const("ring.to_semiring"), FreeVar("R"), FreeVar("iR")))
    text = pp_term(t)
    assert text == "(@ring.to_semiring R iR).to_add_comm_monoid"
    assert parse_term(text, ctx, fig1_nested.env) == t
    printed = print_module(parse(print_module(fig1_module) + f"\ngoal g : {text}\n"))
    assert f"goal g : {text}\n" in printed
    assert print_module(parse(printed)) == printed


def test_check_type_rejects_an_ill_typed_parsed_term(fig1_nested):
    """The parser resolves names only; the kernel rejects the term."""
    ctx = (Binder("R", Sort()),)
    term = parse_term("ring.to_semiring R R", ctx, fig1_nested.env)
    with pytest.raises(IllTyped):
        check_type(fig1_nested.env, DEFAULT_CONFIG, ctx, term)


def test_parse_term_unknown_name_is_a_scope_error(fig1_nested):
    with pytest.raises(SurfaceError):
        parse_term("nonexistent x", (), fig1_nested.env)


def test_arrow_is_right_associative():
    module = parse("""
class c (α : Type) where
  (f : α → α → α)
""")
    ty = module.items[0].fields[0].ty
    # α → (α → α)
    assert ty.lhs.name == "α"
    assert ty.rhs.lhs.name == "α" and ty.rhs.rhs.name == "α"


def test_malformed_field_assignment_position():
    with pytest.raises(SurfaceError) as err:
        parse("""class has_one (α : Type) where
  (one : α)
instance bad : has_one where
  (one :=)
""")
    assert err.value.line == 4
