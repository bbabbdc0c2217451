"""Elaborator tests: layouts, synthesized constructors and projections,
forgetful instances, encodings, and error reporting."""

import pytest

from hierlab.declarations import (
    DefDecl, Environment, EnvironmentError_, OpaqueDecl, StructDecl,
)
from hierlab.elaborator import (
    FLAT,
    FLAT_HACK_CLASS,
    PREFERRED,
    SYNTHESIZED,
    USER,
    ElabError,
    EncodingStrategy,
    FieldTypeClash,
    elaborate,
    flatten_fields,
    preferred_edges,
)
from hierlab.surface import parse
from hierlab.terms import SORT, Binder, Const, FreeVar, Lam, Mk, Pi, Proj, apps
from conftest import ETA_OFF


def layout_names(elab, cls: str) -> list[str]:
    return [f.name for f in elab.classes[cls].layout]


def instances_of(elab, decl_name: str):
    return [i for i in elab.instances if i.decl_name == decl_name]


# ---------------------------------------------------------------------------
# Leaf flattening

def test_flatten_collects_ancestor_leaves_in_declaration_order(fig1_nested):
    classes = fig1_nested.classes
    assert [n for n, _ in flatten_fields(classes, "add_comm_group")] == \
        ["zero", "add", "neg"]
    assert [n for n, _ in flatten_fields(classes, "ring")] == \
        ["zero", "add", "one", "mul", "neg"]


def test_flatten_deduplicates_shared_ancestors(fig1_nested):
    # add_monoid reaches ring through both parents but its fields appear once.
    names = [n for n, _ in flatten_fields(fig1_nested.classes, "ring")]
    assert names.count("zero") == 1
    assert names.count("add") == 1


# ---------------------------------------------------------------------------
# Nested encoding layouts

def test_nested_layout_keeps_first_parent_as_substructure(fig1_nested):
    assert layout_names(fig1_nested, "add_comm_monoid") == ["to_add_monoid"]
    assert layout_names(fig1_nested, "semiring") == ["to_add_comm_monoid", "one", "mul"]
    assert layout_names(fig1_nested, "add_group") == ["to_add_monoid", "neg"]
    assert layout_names(fig1_nested, "ring") == ["to_semiring", "neg"]


def test_nested_layout_rebuilds_overlapping_parent_fieldwise(fig1_nested):
    # add_comm_group's second parent shares zero and add with the first,
    # so only its missing leaves are copied and no substructure is stored.
    assert layout_names(fig1_nested, "add_comm_group") == ["to_add_group"]
    # ring's second parent shares everything except neg.
    ring = fig1_nested.classes["ring"]
    assert ring.layout[0].parent == "semiring"
    assert ring.layout[1].parent is None
    assert ring.layout[1].name == "neg"


def test_nested_substructure_field_type_is_the_parent_class(fig1_nested):
    ring = fig1_nested.classes["ring"]
    assert ring.layout[0].ty == apps(Const("semiring"), FreeVar("α"))


def test_overlap_counts_substructure_names_not_just_leaves(cube_module):
    """Two parents that disagree on no leaf can still overlap, because the
    first one brought in a substructure field the second also needs."""
    elab = elaborate(cube_module, EncodingStrategy("nested"))
    assert layout_names(elab, "one_neg_mag") == ["to_one_mag", "neg"]
    kinds = {i.decl_name: i.kind for i in elab.instances}
    assert kinds["one_neg_mag.to_one_mag"] == PREFERRED
    assert kinds["one_neg_mag.to_neg_mag"] == SYNTHESIZED


# ---------------------------------------------------------------------------
# Flat encoding layouts

def test_flat_layout_copies_every_ancestor_leaf(fig1_flat):
    assert layout_names(fig1_flat, "add_comm_monoid") == ["zero", "add"]
    assert layout_names(fig1_flat, "semiring") == ["zero", "add", "one", "mul"]
    assert layout_names(fig1_flat, "add_comm_group") == ["zero", "add", "neg"]
    assert layout_names(fig1_flat, "ring") == ["zero", "add", "one", "mul", "neg"]


def test_flat_instances_are_all_constructor_built(fig1_flat):
    forgetful = [i for i in fig1_flat.instances if i.from_class is not None]
    assert len(forgetful) == 7
    assert {i.kind for i in forgetful} == {FLAT}


def test_encodings_agree_on_leaf_fields(fig1_nested, fig1_flat, fig1_hack):
    for cls in fig1_nested.classes:
        if cls == FLAT_HACK_CLASS:
            continue
        flat_names = set(layout_names(fig1_flat, cls))
        nested_leaves = set(fig1_nested.classes[cls].leaf_types)
        hack_leaves = set(fig1_hack.classes[cls].leaf_types)
        assert flat_names == nested_leaves == hack_leaves


# ---------------------------------------------------------------------------
# flat_hack encoding

def test_flat_hack_prepends_an_empty_marker_class(fig1_hack):
    marker = fig1_hack.env.struct(FLAT_HACK_CLASS)
    assert isinstance(marker, StructDecl)
    assert marker.fields == ()
    assert layout_names(fig1_hack, "ring")[0] == "to_flat_hack"
    assert layout_names(fig1_hack, "ring")[1:] == ["zero", "add", "one", "mul", "neg"]


def test_flat_hack_demotes_every_real_edge_to_synthesized(fig1_hack):
    real = [i for i in fig1_hack.instances
            if i.from_class is not None and i.to_class != FLAT_HACK_CLASS]
    assert len(real) == 7
    assert {i.kind for i in real} == {SYNTHESIZED}
    star = [i for i in fig1_hack.instances if i.to_class == FLAT_HACK_CLASS]
    assert len(star) == 6
    assert {i.kind for i in star} == {PREFERRED}


# ---------------------------------------------------------------------------
# Forgetful instances

def test_fig1_nested_instance_table(fig1_nested):
    table = {(i.decl_name, i.from_class, i.to_class, i.priority, i.kind)
             for i in fig1_nested.instances}
    assert table == {
        ("add_comm_monoid.to_add_monoid", "add_comm_monoid", "add_monoid", 1000, PREFERRED),
        ("semiring.to_add_comm_monoid", "semiring", "add_comm_monoid", 1000, PREFERRED),
        ("add_group.to_add_monoid", "add_group", "add_monoid", 1000, PREFERRED),
        ("add_comm_group.to_add_group", "add_comm_group", "add_group", 1000, PREFERRED),
        ("ring.to_semiring", "ring", "semiring", 1000, PREFERRED),
        ("add_comm_group.to_add_comm_monoid", "add_comm_group", "add_comm_monoid", 100, SYNTHESIZED),
        ("ring.to_add_comm_group", "ring", "add_comm_group", 100, SYNTHESIZED),
    }


def test_preferred_instances_project_the_stored_substructure(fig1_nested):
    decl = fig1_nested.instance_decl("ring.to_semiring")
    self_name = decl.binders[-1].name
    assert decl.binders[-1].instance_implicit
    assert decl.body == Proj("ring", "to_semiring", FreeVar(self_name))


def test_synthesized_instances_rebuild_through_preferred_projections(fig1_nested):
    """The non-preferred route reconstructs its target constructor, reaching
    shared leaves through the chain of preferred substructure projections."""
    decl = fig1_nested.instance_decl("ring.to_add_comm_group")
    alpha = FreeVar(decl.binders[0].name)
    i = FreeVar(decl.binders[-1].name)
    monoid_part = Proj("add_comm_monoid", "to_add_monoid",
                       Proj("semiring", "to_add_comm_monoid",
                            Proj("ring", "to_semiring", i)))
    expected = Mk("add_comm_group", (alpha,),
                  (Mk("add_group", (alpha,),
                      (monoid_part, Proj("ring", "neg", i))),))
    assert decl.body == expected


def test_synthesized_instance_for_second_parent_of_add_comm_group(fig1_nested):
    decl = fig1_nested.instance_decl("add_comm_group.to_add_comm_monoid")
    alpha = FreeVar(decl.binders[0].name)
    i = FreeVar(decl.binders[-1].name)
    expected = Mk("add_comm_monoid", (alpha,),
                  (Proj("add_group", "to_add_monoid",
                        Proj("add_comm_group", "to_add_group", i)),))
    assert decl.body == expected


def test_preferred_edges_form_at_most_one_path_between_any_two_classes(fig1_nested):
    edges = preferred_edges(fig1_nested)
    succ = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)

    def paths(a: str, b: str) -> int:
        if a == b:
            return 1
        return sum(paths(n, b) for n in succ.get(a, []))

    names = list(fig1_nested.classes)
    for a in names:
        for b in names:
            if a != b:
                assert paths(a, b) <= 1


# ---------------------------------------------------------------------------
# Constructors, projections, and generated declarations

def test_every_class_gets_constructor_and_projections(fig1_nested):
    env = fig1_nested.env
    ring = env.struct("ring")
    assert ring.ctor_name == "ring.mk"
    assert isinstance(env["ring.mk"], DefDecl)
    for field in ring.field_names():
        proj = env[f"ring.{field}"]
        assert isinstance(proj, DefDecl)
        assert proj.binders[-1].instance_implicit


def test_elaboration_is_deterministic(fig1_module):
    a = elaborate(fig1_module, EncodingStrategy("nested"))
    b = elaborate(fig1_module, EncodingStrategy("nested"))
    assert [d.name for d in a.env] == [d.name for d in b.env]
    assert a.instances == b.instances
    assert {n: c.layout for n, c in a.classes.items()} == \
        {n: c.layout for n, c in b.classes.items()}


# ---------------------------------------------------------------------------
# User instances

def test_user_instance_registration(module_nested):
    info, = instances_of(module_nested, "semiring.to_module")
    assert info.from_class is None
    assert info.to_class == "module"
    assert info.priority == 1000
    assert info.kind == USER


def test_under_applied_instance_target_is_completed(module_nested):
    """Writing `instance ... : module R R` lets elaboration resolve the two
    missing instance-implicit arguments itself."""
    decl = module_nested.instance_decl("semiring.to_module")
    R = FreeVar("R")
    iS = FreeVar("iS")
    assert decl.result_type == apps(
        Const("module"), R, R, iS,
        apps(Const("semiring.to_add_comm_monoid"), R, iS))


def test_opaque_field_assignments_become_opaque_constants(module_nested):
    env = module_nested.env
    assert isinstance(env["int.ring.zero"], OpaqueDecl)
    assert env["int.ring.zero"].result_type == Const("int")
    body = module_nested.instance_decl("int.ring").body
    assert isinstance(body, Mk)

    def consts(t):
        seen = set()
        stack = [t]
        while stack:
            x = stack.pop()
            if isinstance(x, Mk):
                stack.extend(x.params)
                stack.extend(x.fields)
            elif isinstance(x, Const):
                seen.add(x.name)
        return seen

    assert "int.ring.zero" in consts(body)
    assert "int.ring.neg" in consts(body)


def test_instance_priority_attribute_is_recorded():
    module = parse("""
class has_one (α : Type) where
  (one : α)
class int
@[priority 42] instance int.one : has_one int where
  (one := opaque)
""")
    elab = elaborate(module, EncodingStrategy("nested"))
    info, = instances_of(elab, "int.one")
    assert info.priority == 42


# ---------------------------------------------------------------------------
# Goals, defeqs, and ambient variables

def test_goals_capture_the_variables_block_in_effect(module_nested):
    labels = [label for label, _, _ in module_nested.goals]
    assert labels == ["module_from_semiring", "module_from_ring",
                      "neg_smul", "neg_smul_int"]
    first_ctx = module_nested.goals[0][1]
    third_ctx = module_nested.goals[2][1]
    assert [b.name for b in first_ctx] == ["R", "iS"]
    assert [b.name for b in third_ctx] == ["R", "iR"]


def test_defeq_items_store_both_sides(fig1_nested):
    label, ctx, lhs, rhs = fig1_nested.defeqs[0]
    assert label == "diamond"
    assert [b.name for b in ctx] == ["R", "iR"]
    assert lhs != rhs


def test_empty_module_elaborates_to_an_empty_environment():
    elab = elaborate(parse(""), EncodingStrategy("nested"))
    assert len(elab.env) == 0
    assert elab.instances == []


# ---------------------------------------------------------------------------
# Parent order overrides

def test_first_parent_override_changes_the_stored_substructure(fig1_module):
    strategy = EncodingStrategy("nested").with_first_parent(
        {"add_comm_group": "add_comm_monoid"})
    elab = elaborate(fig1_module, strategy)
    assert layout_names(elab, "add_comm_group") == ["to_add_comm_monoid", "neg"]
    assert ("add_comm_group", "add_comm_monoid") in preferred_edges(elab)
    kinds = {i.decl_name: i.kind for i in elab.instances}
    assert kinds["add_comm_group.to_add_comm_monoid"] == PREFERRED
    assert kinds["add_comm_group.to_add_group"] == SYNTHESIZED


def test_full_permutation_override(fig1_module):
    strategy = EncodingStrategy(
        "nested", {"ring": ("add_comm_group", "semiring")})
    elab = elaborate(fig1_module, strategy)
    assert layout_names(elab, "ring") == ["to_add_comm_group", "one", "mul"]


def test_override_with_unknown_parent_is_rejected(fig1_module):
    strategy = EncodingStrategy("nested").with_first_parent({"ring": "add_monoid"})
    with pytest.raises(ElabError):
        elaborate(fig1_module, strategy)


def test_override_must_be_a_permutation_of_declared_parents(fig1_module):
    strategy = EncodingStrategy("nested", {"ring": ("semiring",)})
    with pytest.raises(ElabError):
        elaborate(fig1_module, strategy)


def test_unknown_encoding_kind_is_rejected():
    with pytest.raises(ValueError):
        EncodingStrategy("packed")


# ---------------------------------------------------------------------------
# Errors

def test_clashing_inherited_field_types_are_reported():
    module = parse("""
class has_one (α : Type) where
  (one : α)
class has_one_fn (α : Type) where
  (one : α → α)
class both (α : Type) extends has_one α, has_one_fn α
""")
    with pytest.raises(FieldTypeClash) as err:
        elaborate(module, EncodingStrategy("nested"))
    message = str(err.value)
    assert "'one'" in message
    assert "has_one" in message and "has_one_fn" in message
    assert "clashing types" in message


def test_clash_is_reported_in_every_encoding():
    text = """
class has_one (α : Type) where
  (one : α)
class has_one_fn (α : Type) where
  (one : α → α)
class both (α : Type) extends has_one α, has_one_fn α
"""
    for kind in ("flat", "nested", "flat_hack"):
        with pytest.raises(FieldTypeClash):
            elaborate(parse(text), EncodingStrategy(kind))


def test_duplicate_class_names_are_rejected():
    with pytest.raises(ElabError) as err:
        elaborate(parse("class int\nclass int"), EncodingStrategy("nested"))
    assert "duplicate class" in str(err.value)


def test_duplicate_declarations_cannot_share_an_environment(fig1_nested):
    env_decl = fig1_nested.env["ring.mk"]
    with pytest.raises(EnvironmentError_):
        fig1_nested.env.add(env_decl)


def test_forward_reference_names_the_first_missing_name_of_the_first_bad_term():
    """Terms are checked binder types first, then the result type and the
    body; the first with unknown names is reported by the alphabetically
    first of them, however deep it sits.  The declaration may mention
    itself."""
    env = Environment()
    env.add(OpaqueDecl("ι", (), SORT))
    # `beta` sits under a Pi, an application, a projection, a lambda and a
    # constructor.
    deep = Pi("_", Const("ι"), apps(Const("zeta"), Proj(
        "ι", "f", Lam("_", Const("ι"), Mk("ι", (Const("beta"),), ())))))
    with pytest.raises(EnvironmentError_,
                       match="^declaration 'd' references 'beta' before its declaration$"):
        env.add(DefDecl("d", (Binder("x", deep),), Const("ι"), Const("alpha")))
    body = apps(Const("d"), Mk("omega", (), ()), Const("alpha"))
    with pytest.raises(EnvironmentError_, match="references 'alpha' before"):
        env.add(DefDecl("d", (Binder("x", Const("ι")),), Const("ι"), body))
    assert "d" not in env


def test_parent_applied_to_wrong_arity_is_rejected():
    module = parse("""
class base (α β : Type) where
  (pick : α → β)
class derived (α : Type) extends base α
""")
    with pytest.raises(ElabError):
        elaborate(module, EncodingStrategy("nested"))


def test_instance_missing_fields_is_rejected():
    module = parse("""
class pair_like (α : Type) where
  (fst : α)
  (snd : α)
class int
instance int.pair : pair_like int where
  (fst := opaque)
""")
    with pytest.raises(ElabError) as err:
        elaborate(module, EncodingStrategy("nested"))
    assert "missing" in str(err.value)


def test_instance_assigning_unknown_field_is_rejected():
    module = parse("""
class has_one (α : Type) where
  (one : α)
class int
instance int.one : has_one int where
  (one := opaque)
  (two := opaque)
""")
    with pytest.raises(ElabError):
        elaborate(module, EncodingStrategy("nested"))
