"""Instance-search tests: the scenario rows, priorities, failure modes,
trace output, and soundness of returned terms."""

import pytest

from hierlab.declarations import DefDecl, Environment, StructDecl
from hierlab.elaborator import EncodingStrategy, elaborate
from hierlab.kernel import Trace, check_type, infer_type, defeq
from hierlab.resolution import AnswerTable, DepthExceeded, NotFound, resolve
from hierlab.surface import parse, parse_term
from hierlab.terms import Binder, Const, FreeVar, Mk, Sort, apps, pp_term
from conftest import ETA_OFF, ETA_ON, UNIFIER_ON, corpus_path, cube_source


def goal_by_label(elab, label):
    for name, ctx, goal in elab.goals:
        if name == label:
            return ctx, goal
    raise KeyError(label)


R = FreeVar("R")
iR = FreeVar("iR")
iS = FreeVar("iS")


# ---------------------------------------------------------------------------
# The scenario rows

def test_weakening_goal_composes_forgetful_instances(fig1_nested):
    ctx, goal = goal_by_label(fig1_nested, "weaken")
    term, _ = resolve(fig1_nested.env, fig1_nested.instances, ctx, goal)
    assert term == apps(Const("semiring.to_add_comm_monoid"), R,
                        apps(Const("ring.to_semiring"), R, iR))


def test_module_goal_from_a_semiring_context(module_nested):
    ctx, goal = goal_by_label(module_nested, "module_from_semiring")
    term, _ = resolve(module_nested.env, module_nested.instances, ctx, goal)
    assert term == apps(Const("semiring.to_module"), R, iS)


def test_module_goal_from_a_ring_context(module_nested):
    ctx, goal = goal_by_label(module_nested, "module_from_ring")
    term, _ = resolve(module_nested.env, module_nested.instances, ctx, goal)
    assert term == apps(Const("semiring.to_module"), R,
                        apps(Const("ring.to_semiring"), R, iR))


def test_pinned_instance_arguments_block_search_without_unifier_eta(module_nested):
    """A goal that names the non-preferred route in its indices cannot be
    matched by the preferred-route candidate: one side stays a stuck
    projection while the other reduces to a constructor."""
    ctx, goal = goal_by_label(module_nested, "neg_smul")
    with pytest.raises(NotFound):
        resolve(module_nested.env, module_nested.instances, ctx, goal,
                config=ETA_OFF)
    with pytest.raises(NotFound):
        resolve(module_nested.env, module_nested.instances, ctx, goal,
                config=ETA_ON)


def test_pinned_goal_succeeds_with_unifier_eta(module_nested):
    ctx, goal = goal_by_label(module_nested, "neg_smul")
    term, _ = resolve(module_nested.env, module_nested.instances, ctx, goal,
                      config=UNIFIER_ON)
    assert term == apps(Const("semiring.to_module"), R,
                        apps(Const("ring.to_semiring"), R, iR))


def test_pinned_goal_succeeds_under_flat_encoding(module_flat):
    ctx, goal = goal_by_label(module_flat, "neg_smul")
    term, _ = resolve(module_flat.env, module_flat.instances, ctx, goal,
                      config=ETA_OFF)
    assert term == apps(Const("semiring.to_module"), R,
                        apps(Const("ring.to_semiring"), R, iR))


def test_concrete_instance_constant_unblocks_the_pinned_goal(module_nested):
    """Replacing the context variable by a constructor constant lets both
    routes reduce, so the match goes through without any eta."""
    ctx, goal = goal_by_label(module_nested, "neg_smul_int")
    term, _ = resolve(module_nested.env, module_nested.instances, ctx, goal,
                      config=ETA_OFF)
    assert term == apps(Const("semiring.to_module"), Const("int"),
                        apps(Const("ring.to_semiring"), Const("int"),
                             Const("int.ring")))


def test_root_arguments_variant_resolves_without_eta(rootonly_nested):
    """When every class argument of the goal lives at the hierarchy root,
    all projection paths are preferred and search needs no eta anywhere."""
    for label in ("rmodule_from_ring", "rmodule_pinned"):
        ctx, goal = goal_by_label(rootonly_nested, label)
        term, _ = resolve(rootonly_nested.env, rootonly_nested.instances,
                          ctx, goal, config=ETA_OFF)
        assert term == apps(Const("semiring.to_rmodule"), R,
                            apps(Const("ring.to_semiring"), R, iR))


# ---------------------------------------------------------------------------
# Candidate selection

def test_context_binders_win_over_global_instances(fig1_nested):
    ctx = fig1_nested.defeqs[0][1]
    goal = parse_term("ring R", ctx, fig1_nested.env)
    term, _ = resolve(fig1_nested.env, fig1_nested.instances, ctx, goal)
    assert term == iR


def test_later_context_binders_shadow_earlier_ones(fig1_nested):
    ring_R = apps(Const("ring"), R)
    ctx = (Binder("R", Sort()),
           Binder("i1", ring_R, instance_implicit=True),
           Binder("i2", ring_R, instance_implicit=True))
    term, _ = resolve(fig1_nested.env, fig1_nested.instances, ctx, ring_R)
    assert term == FreeVar("i2")


def test_under_applied_goals_are_saturated_with_holes(fig1_nested):
    ctx, goal = goal_by_label(fig1_nested, "weaken")
    bare = Const("add_comm_monoid")
    term, _ = resolve(fig1_nested.env, fig1_nested.instances, ctx, bare)
    full_term, _ = resolve(fig1_nested.env, fig1_nested.instances, ctx, goal)
    assert term == full_term


PRIORITY_SHORTCUT = """
{attr}instance acg_shortcut (α : Type) [i : add_comm_group α] : add_comm_monoid α where
  (zero := add_monoid.zero α (add_group.to_add_monoid α (add_comm_group.to_add_group α i)))
  (add := add_monoid.add α (add_group.to_add_monoid α (add_comm_group.to_add_group α i)))
"""


def shortcut_elaboration(attr: str):
    # The instance goes before the trailing goal items: expressions are
    # whitespace-insensitive, so an `@[...]` attribute directly after a
    # defeq expression would parse as a continuation of that expression.
    base = corpus_path("fig1.hier").read_text()
    head, sep, tail = base.partition("goal")
    text = head + PRIORITY_SHORTCUT.format(attr=attr) + sep + tail
    return elaborate(parse(text), EncodingStrategy("nested"))


def test_high_priority_user_instance_wins_over_synthesized_route():
    elab = shortcut_elaboration("")
    ctx = (Binder("R", Sort()),
           Binder("i", apps(Const("add_comm_group"), R), instance_implicit=True))
    goal = apps(Const("add_comm_monoid"), R)
    term, _ = resolve(elab.env, elab.instances, ctx, goal)
    assert term == apps(Const("acg_shortcut"), R, FreeVar("i"))


def test_low_priority_user_instance_loses_to_synthesized_route():
    elab = shortcut_elaboration("@[priority 10] ")
    ctx = (Binder("R", Sort()),
           Binder("i", apps(Const("add_comm_group"), R), instance_implicit=True))
    goal = apps(Const("add_comm_monoid"), R)
    term, _ = resolve(elab.env, elab.instances, ctx, goal)
    assert term == apps(Const("add_comm_group.to_add_comm_monoid"), R, FreeVar("i"))


# ---------------------------------------------------------------------------
# Failure modes

def test_not_found_on_an_environment_without_instances():
    env = Environment()
    env.add(StructDecl("cls", (Binder("α", Sort()),), ()))
    goal = apps(Const("cls"), FreeVar("T"))
    with pytest.raises(NotFound) as err:
        resolve(env, [], (Binder("T", Sort()),), goal)
    assert "no instance found" in str(err.value)


def test_a_candidate_with_an_argument_no_goal_fixes_fails():
    """An explicit binder that the instance's result type does not mention
    is left unsolved by unification, so the candidate fails."""
    elab = elaborate(parse("""
class int
class base (α : Type) where
  (x : α)
instance pick (n : int) : base int where
  (x := n)
variables (T : Type)
goal g : base int
"""), EncodingStrategy("nested"))
    ctx, goal = goal_by_label(elab, "g")
    trace = Trace()
    with pytest.raises(NotFound):
        resolve(elab.env, elab.instances, ctx, goal, trace=trace)
    assert [line.lstrip() for line in trace.lines] == [
        "goal: @base int", "try pick (priority 1000)",
        "failed: unsolved arguments remain", "failed: @base int"]


def test_depth_limit_stops_ever_growing_searches():
    """An instance whose own requirement is strictly larger than its result
    diverges; the search must fail with the depth error, not hang."""
    env = Environment()
    env.add(StructDecl("wrap", (Binder("α", Sort()),), ()))
    env.add(StructDecl("step", (Binder("α", Sort()),), ()))
    alpha = FreeVar("α")
    grow = DefDecl(
        "grow",
        (Binder("α", Sort()),
         Binder("i", apps(Const("wrap"), apps(Const("step"), alpha)),
                instance_implicit=True)),
        apps(Const("wrap"), alpha),
        Mk("wrap", (alpha,), ()))
    env.add(grow)

    class Info:
        decl_name = "grow"
        to_class = "wrap"
        priority = 1000

    with pytest.raises(DepthExceeded):
        resolve(env, [Info()], (Binder("T", Sort()),),
                apps(Const("wrap"), FreeVar("T")), max_depth=8)


def test_max_depth_bounds_legitimate_searches_too(module_nested):
    ctx, goal = goal_by_label(module_nested, "module_from_ring")
    trace = Trace()
    with pytest.raises(DepthExceeded):
        resolve(module_nested.env, module_nested.instances, ctx, goal, max_depth=1,
                trace=trace)
    # The abort leaves the trace at the depth it started from.
    trace.step("after")
    assert trace.lines[-1] == "after"


def test_repeated_goal_on_the_search_path_is_cut(fig1_nested):
    """Self-referential candidates are skipped by the path guard instead of
    looping, and the search keeps trying other candidates."""
    text = corpus_path("fig1.hier").read_text() + """
instance am_self (α : Type) [i : add_monoid α] : add_monoid α where
  (zero := add_monoid.zero α i)
  (add := add_monoid.add α i)
"""
    elab = elaborate(parse(text), EncodingStrategy("nested"))
    ctx = elab.defeqs[0][1]
    goal = parse_term("add_monoid R", ctx, elab.env)
    term, trace = resolve(elab.env, elab.instances, ctx, goal)
    assert any("already on path" in line for line in trace.lines)
    assert infer_type(elab.env, ctx, term) == goal


# ---------------------------------------------------------------------------
# Tabling

def cube5_base_trace(top_instance: bool) -> list[str]:
    elab = elaborate(parse(cube_source(5, top_instance)), EncodingStrategy("nested"))
    ctx, goal = goal_by_label(elab, "g_base")
    trace = Trace()
    try:
        resolve(elab.env, elab.instances, ctx, goal, config=ETA_OFF, trace=trace)
    except NotFound:
        pass
    return [line.lstrip() for line in trace.lines]


def test_failing_cube_goal_searches_each_class_once():
    """The nested 5-cube's failing `base T`: every class above base is
    reached along many paths but searched once; later arrivals read the
    table.  So each forgetful edge is tried once (n·2ⁿ⁻¹ = 80), 32 goals are
    searched, and every other goal line is followed by a `cached:` line."""
    lines = cube5_base_trace(top_instance=False)
    goals = [(k, line[len("goal: "):]) for k, line in enumerate(lines)
             if line.startswith("goal: ")]
    searched = [g for k, g in goals if not lines[k + 1].startswith("cached: ")]
    cached = [line for line in lines if line.startswith("cached: ")]
    assert sum(line.startswith("try ") for line in lines) == 80
    assert len(searched) == len(set(searched)) == 32
    assert len(cached) == len(goals) - 32 == 49
    assert all(line.startswith("cached: failed ") for line in cached)
    assert len(lines) == 242  # 977 before tabling


def test_succeeding_cube_goal_is_unchanged_by_tabling():
    # The first path found succeeds, so nothing is reached twice.
    lines = cube5_base_trace(top_instance=True)
    assert not any(line.startswith("cached: ") for line in lines)
    assert len(lines) == 23


def test_table_hits_are_traced(fig1_nested):
    """`ring S` is reached through add_group and again through
    add_comm_monoid; the second arrival, and the second `add_comm_group S`,
    read their failure from the table."""
    S = FreeVar("S")
    trace = Trace()
    with pytest.raises(NotFound):
        resolve(fig1_nested.env, fig1_nested.instances, (Binder("S", Sort()),),
                apps(Const("add_monoid"), S), trace=trace)
    assert trace.lines == [
        "goal: @add_monoid S",
        "  try add_group.to_add_monoid (priority 1000)",
        "  goal: @add_group S",
        "    try add_comm_group.to_add_group (priority 1000)",
        "    goal: @add_comm_group S",
        "      try ring.to_add_comm_group (priority 100)",
        "      goal: @ring S",
        "        failed: @ring S",
        "      failed: @add_comm_group S",
        "    failed: @add_group S",
        "  try add_comm_monoid.to_add_monoid (priority 1000)",
        "  goal: @add_comm_monoid S",
        "    try semiring.to_add_comm_monoid (priority 1000)",
        "    goal: @semiring S",
        "      try ring.to_semiring (priority 1000)",
        "      goal: @ring S",
        "        cached: failed @ring S",
        "      failed: @semiring S",
        "    try add_comm_group.to_add_comm_monoid (priority 100)",
        "    goal: @add_comm_group S",
        "      cached: failed @add_comm_group S",
        "    failed: @add_comm_monoid S",
        "  failed: @add_monoid S",
    ]


TWO_SUBGOALS = """
instance needs_two (α : Type) [a : add_group α] [b : semiring α] : add_comm_monoid α where
  (zero := opaque)
  (add := opaque)
"""


def test_answers_of_a_failed_candidate_are_reused():
    """needs_two solves `add_group S` (via `add_comm_group S`) and then fails
    on `semiring S`; the later candidates meet both goals again and take
    the tabled answers, the solved one included."""
    text = corpus_path("fig1.hier").read_text() + TWO_SUBGOALS
    elab = elaborate(parse(text), EncodingStrategy("nested"))
    S = FreeVar("S")
    ctx = (Binder("S", Sort()),
           Binder("i", apps(Const("add_comm_group"), S), instance_implicit=True))
    term, trace = resolve(elab.env, elab.instances, ctx, apps(Const("add_comm_monoid"), S))
    assert term == apps(Const("add_comm_group.to_add_comm_monoid"), S, FreeVar("i"))
    lines = [line.lstrip() for line in trace.lines]
    assert "cached: failed @semiring S" in lines
    assert lines[-2:] == ["cached: solved @add_comm_group S := i",
                          "solved @add_comm_monoid S := @add_comm_group.to_add_comm_monoid S i"]


def one_field_classes(*names: str) -> str:
    return "".join(f"class {n} (α : Type) where\n  (f{n} : α)\n" for n in names)


def forgetful(name: str, target: str, *needs: str) -> str:
    binders = " ".join(f"[i{k} : {c} α]" for k, c in enumerate(needs))
    return f"instance {name} (α : Type) {binders} : {target} α where\n  (f{target} := opaque)\n"


def test_goals_below_a_guard_cut_are_not_tabled():
    """r_of_af first solves `a T`, whose first candidate needs `x T`, whose
    only candidate needs `a T` again: the guard cuts it, so `x T` fails
    there.  Then `f T` fails.  r_of_x asks for `x T` with no `a T` on the
    path, and now `x T` succeeds through `a T`.  Had the failure of `x T`
    under the cut been tabled, `r T` would not be found."""
    text = (one_field_classes("b", "a", "x", "f", "r")
            + forgetful("a_of_b", "a", "b") + forgetful("a_of_x", "a", "x")
            + forgetful("x_of_a", "x", "a")
            + forgetful("r_of_x", "r", "x") + forgetful("r_of_af", "r", "a", "f"))
    elab = elaborate(parse(text), EncodingStrategy("nested"))
    T = FreeVar("T")
    ctx = (Binder("T", Sort()), Binder("ib", apps(Const("b"), T), instance_implicit=True))
    term, trace = resolve(elab.env, elab.instances, ctx, apps(Const("r"), T))
    assert term == apps(Const("r_of_x"), T,
                        apps(Const("x_of_a"), T, apps(Const("a_of_b"), T, FreeVar("ib"))))
    # Only `b T`, solved with no cut below it, comes from the table.
    assert [line.lstrip() for line in trace.lines if "cached:" in line] == \
        ["cached: solved @b T := ib"]


def test_table_entries_respect_the_depth_cap():
    """`x T` fails at depth 1 after going two levels down.  r_of_w meets it
    again at depth 2, where those two levels no longer fit under a cap of 3,
    so it is searched again and the search exceeds the cap, as the untabled
    search does.  Under a cap of 4 the entry is reused."""
    text = (one_field_classes("z", "y", "x", "w", "r")
            + forgetful("y_of_z", "y", "z") + forgetful("x_of_y", "x", "y")
            + forgetful("w_of_x", "w", "x")
            + forgetful("r_of_w", "r", "w") + forgetful("r_of_x", "r", "x"))
    elab = elaborate(parse(text), EncodingStrategy("nested"))
    ctx = (Binder("T", Sort()),)
    goal = apps(Const("r"), FreeVar("T"))
    with pytest.raises(DepthExceeded):
        resolve(elab.env, elab.instances, ctx, goal, max_depth=3)
    trace = Trace()
    with pytest.raises(NotFound):
        resolve(elab.env, elab.instances, ctx, goal, max_depth=4, trace=trace)
    assert [line.lstrip() for line in trace.lines].count("cached: failed @x T") == 1


def test_an_answer_table_belongs_to_the_inputs_of_its_first_search(fig1_nested,
                                                                   module_nested):
    """Entries hold only for the candidates, context, config and cap they
    were found under, so any other use of a table is refused."""
    ctx, goal = goal_by_label(fig1_nested, "weaken")
    env, instances = fig1_nested.env, fig1_nested.instances
    table = AnswerTable()
    first, _ = resolve(env, instances, ctx, goal, table=table)
    with pytest.raises(ValueError):
        resolve(env, instances, ctx + (Binder("S", Sort()),), goal, table=table)
    with pytest.raises(ValueError):
        resolve(env, instances, ctx, goal, config=ETA_OFF, table=table)
    with pytest.raises(ValueError):
        resolve(env, instances, ctx, goal, max_depth=5, table=table)
    with pytest.raises(ValueError):
        resolve(env, instances[:-1], ctx, goal, table=table)
    with pytest.raises(ValueError):
        resolve(module_nested.env, instances, ctx, goal, table=table)
    # An equal instance list is the same inputs: the goal comes from the table.
    again, trace = resolve(env, list(instances), ctx, goal, table=table)
    assert again == first
    assert trace.lines[1].lstrip() == f"cached: solved {pp_term(goal)} := {pp_term(first)}"


# ---------------------------------------------------------------------------
# Traces and soundness

def test_trace_records_goals_candidates_and_outcomes(fig1_nested):
    ctx, goal = goal_by_label(fig1_nested, "weaken")
    _, trace = resolve(fig1_nested.env, fig1_nested.instances, ctx, goal)
    lines = trace.lines
    assert any(line.lstrip().startswith("goal: ") for line in lines)
    assert any(line.lstrip().startswith("try ") for line in lines)
    assert any(line.lstrip().startswith("solved ") for line in lines)


def test_trace_records_failures(module_nested):
    ctx, goal = goal_by_label(module_nested, "neg_smul")
    trace = Trace()
    with pytest.raises(NotFound):
        resolve(module_nested.env, module_nested.instances, ctx, goal,
                config=ETA_OFF, trace=trace)
    assert any("failed" in line for line in trace.lines)


def test_resolved_terms_typecheck_against_their_goals(module_nested, fig1_nested,
                                                      rootonly_nested):
    """The type of every returned term is definitionally equal to the goal
    it was asked for (on fully applied goals)."""
    cases = [
        (fig1_nested, "weaken", ETA_ON),
        (module_nested, "neg_smul_int", ETA_OFF),
        (rootonly_nested, "rmodule_pinned", ETA_OFF),
    ]
    for elab, label, config in cases:
        ctx, goal = goal_by_label(elab, label)
        term, _ = resolve(elab.env, elab.instances, ctx, goal, config=config)
        ty = check_type(elab.env, config, ctx, term)
        assert defeq(elab.env, config, ctx, ty, goal)
