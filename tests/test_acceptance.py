"""Acceptance checklist.

Each test exercises one headline scenario end-to-end and prints exactly one
`criterion NN PASS` or `criterion NN FAIL` line on the real stdout, so the
checklist stays visible under pytest's capture.
"""

import pytest

from hierlab.analyzer import analyze, diamond_rows, spanning_search
from hierlab.cli import main as cli_main
from hierlab.elaborator import EncodingStrategy, FieldTypeClash, elaborate
from hierlab.kernel import defeq
from hierlab.resolution import NotFound, resolve
from hierlab.surface import parse, parse_term
from hierlab.terms import pp_term
from conftest import ETA_OFF, ETA_ON, UNIFIER_ON, corpus_path

FIG1 = str(corpus_path("fig1.hier"))
MODULE = str(corpus_path("module.hier"))
CUBE = str(corpus_path("cube.hier"))
POINT = str(corpus_path("point.hier"))

CLASH = """\
class has_one (α : Type) where
  (one : α)
class weird (α : Type) where
  (one : α → α)
class both (α : Type) extends has_one α, weird α
"""


def report(capsys, number: int, checks) -> None:
    try:
        ok = bool(checks())
    except Exception:
        with capsys.disabled():
            print(f"criterion {number:02d} FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d}"


def goal(elab, label):
    for name, ctx, target in elab.goals:
        if name == label:
            return ctx, target
    raise KeyError(label)


def test_criterion_01_diamond_defeq_matrix(capsys):
    def checks():
        flat_off = cli_main(["defeq", FIG1, "--encoding", "flat",
                             "--eta-kernel", "off"])
        nested_off = cli_main(["defeq", FIG1, "--eta-kernel", "off"])
        nested_on = cli_main(["defeq", FIG1, "--eta-kernel", "on"])
        return (flat_off, nested_off, nested_on) == (0, 1, 0)

    report(capsys, 1, checks)


def test_criterion_02_resolution_matrix(capsys):
    def checks():
        nested = elaborate(parse(corpus_path("module.hier").read_text()),
                           EncodingStrategy("nested"))
        flat = elaborate(parse(corpus_path("module.hier").read_text()),
                         EncodingStrategy("flat"))

        ctx, target = goal(nested, "module_from_semiring")
        term, _ = resolve(nested.env, nested.instances, ctx, target,
                          config=ETA_OFF)
        ok = term == parse_term("semiring.to_module R iS", ctx, nested.env)

        ctx, target = goal(nested, "module_from_ring")
        term, _ = resolve(nested.env, nested.instances, ctx, target,
                          config=ETA_OFF)
        ok &= term == parse_term("semiring.to_module R (ring.to_semiring R iR)",
                                 ctx, nested.env)

        ctx, target = goal(nested, "neg_smul")
        try:
            resolve(nested.env, nested.instances, ctx, target, config=ETA_OFF)
            return False
        except NotFound:
            pass
        term, _ = resolve(nested.env, nested.instances, ctx, target,
                          config=UNIFIER_ON)
        ok &= term == parse_term("semiring.to_module R (ring.to_semiring R iR)",
                                 ctx, nested.env)

        ctx, target = goal(flat, "neg_smul")
        term, _ = resolve(flat.env, flat.instances, ctx, target, config=ETA_OFF)
        ok &= term == parse_term("semiring.to_module R (ring.to_semiring R iR)",
                                 ctx, flat.env)
        return ok

    report(capsys, 2, checks)


def test_criterion_03_concrete_instance_escape_hatch(capsys):
    def checks():
        nested = elaborate(parse(corpus_path("module.hier").read_text()),
                           EncodingStrategy("nested"))
        ctx, target = goal(nested, "neg_smul_int")
        term, _ = resolve(nested.env, nested.instances, ctx, target,
                          config=ETA_OFF)
        return term == parse_term(
            "semiring.to_module int (ring.to_semiring int int.ring)",
            ctx, nested.env)

    report(capsys, 3, checks)


def test_criterion_04_point_eta(capsys, point_nested):
    def checks():
        label, ctx, lhs, rhs = point_nested.defeqs[0]
        off = defeq(point_nested.env, ETA_OFF, ctx, lhs, rhs)
        on = defeq(point_nested.env, ETA_ON, ctx, lhs, rhs)
        return (off, on) == (False, True)

    report(capsys, 4, checks)


def test_criterion_05_elaboration_goldens(capsys, fig1_nested, fig1_flat):
    def checks():
        ring = fig1_nested.classes["ring"]
        ok = [b.name for b in ring.layout] == ["to_semiring", "neg"]

        info = next(i for i in fig1_nested.instances
                    if i.decl_name == "ring.to_add_comm_group")
        ok &= info.kind == "synthesized-constructor" and info.priority == 100
        body = fig1_nested.env.get("ring.to_add_comm_group").body
        ok &= ("i.to_semiring.to_add_comm_monoid.to_add_monoid"
               in pp_term(body))

        flat_fields = {name: [b.name for b in cls.layout]
                       for name, cls in fig1_flat.classes.items()}
        ok &= flat_fields == {
            "add_monoid": ["zero", "add"],
            "add_comm_monoid": ["zero", "add"],
            "semiring": ["zero", "add", "one", "mul"],
            "add_group": ["zero", "add", "neg"],
            "add_comm_group": ["zero", "add", "neg"],
            "ring": ["zero", "add", "one", "mul", "neg"],
        }

        try:
            elaborate(parse(CLASH), EncodingStrategy("flat"))
            return False
        except FieldTypeClash:
            return ok

    report(capsys, 5, checks)


def test_criterion_06_flat_hack_diamonds_all_commute(capsys):
    def checks():
        return cli_main(["diamonds", FIG1, "--encoding", "flat-hack",
                         "--eta-kernel", "off"]) == 0

    report(capsys, 6, checks)


def test_criterion_07_cube_spanning_counts(capsys, cube_module):
    def checks():
        strategy = EncodingStrategy("nested")
        off = spanning_search(cube_module, strategy, ETA_OFF)
        on = spanning_search(cube_module, strategy, ETA_ON)
        return (len(off), sum(p.coherent for p in off),
                len(on), sum(p.coherent for p in on)) == (24, 0, 24, 24)

    report(capsys, 7, checks)


def test_criterion_08_predictor_matches_oracle(capsys, fig1_module):
    def checks():
        placements = [
            EncodingStrategy("nested"),
            EncodingStrategy("nested", {"add_comm_group": ("add_comm_monoid",)}),
            EncodingStrategy("flat_hack"),
        ]
        for strategy in placements:
            elab = elaborate(fig1_module, strategy)
            if not all(oracle == predictor
                       for *_, oracle, predictor in diamond_rows(analyze(elab, ETA_OFF))):
                return False
        return True

    report(capsys, 8, checks)


def test_criterion_09_property_suites_run_at_scale(capsys):
    def checks():
        import test_properties

        suites = [
            test_properties.test_projection_of_constructor_returns_that_field,
            test_properties.test_eta_gates_record_rebuilding,
            test_properties.test_flat_encoding_diamonds_always_commute,
            test_properties.test_nested_encoding_diamonds_commute_with_eta,
            test_properties.test_analyze_matches_pairwise_check_diamond,
            test_properties.test_stored_leaf_view_matches_recursive_flatten,
            test_properties.test_flat_layout_is_the_leaf_view_with_rebuilt_parents,
            test_properties.test_tabled_resolution_matches_untabled_search,
            test_properties.test_incremental_spanning_search_matches_whole_module_search,
            test_properties.test_resolved_instances_are_well_typed,
            test_properties.test_definitional_equality_is_symmetric,
            test_properties.test_term_walker_matches_the_recursive_substitutions,
            test_properties.test_json_writer_matches_json_dumps,
            test_properties.test_lexer_matches_the_character_loop,
            test_properties.test_random_token_streams_end_in_an_exit_code,
        ]
        for fn in suites:
            hyp_settings = fn._hypothesis_internal_use_settings
            if hyp_settings.max_examples < 200 or not hyp_settings.derandomize:
                return False
        return True

    report(capsys, 9, checks)


def test_criterion_10_root_only_hierarchy_avoids_the_hazard(capsys,
                                                            rootonly_nested):
    def checks():
        for label in ("rmodule_from_ring", "rmodule_pinned"):
            ctx, target = goal(rootonly_nested, label)
            term, _ = resolve(rootonly_nested.env, rootonly_nested.instances,
                              ctx, target, config=ETA_OFF)
            expected = parse_term("semiring.to_rmodule R (ring.to_semiring R iR)",
                                  ctx, rootonly_nested.env)
            if term != expected:
                return False
        return True

    report(capsys, 10, checks)
