"""End-to-end command line tests: output goldens, exit codes, JSON shape,
determinism, and diagnostics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import hierlab
import reference
from hierlab import cli, elaborator, kernel, resolution, terms
from hierlab.analyzer import ANALYZER_REPORT_SCHEMA, analyze, random_hierarchy
from hierlab.cli import main as cli_main
from hierlab.elaborator import EncodingStrategy, elaborate
from hierlab.surface import parse
from conftest import (
    CORPUS, ETA_OFF, ETA_ON, LONG_DIAMOND, chain_source, corpus_path, cube_source,
)

FIG1 = str(corpus_path("fig1.hier"))
MODULE = str(corpus_path("module.hier"))
ROOTONLY = str(corpus_path("rootonly.hier"))
CUBE = str(corpus_path("cube.hier"))
POINT = str(corpus_path("point.hier"))


@pytest.fixture
def pp_term_calls(monkeypatch):
    """A one-item list counting ``pp_term`` calls in every module that
    looks it up."""
    calls = [0]
    original = terms.pp_term

    def counted(t):
        calls[0] += 1
        return original(t)
    for module in (terms, kernel, resolution, elaborator, cli):
        monkeypatch.setattr(module, "pp_term", counted)
    return calls


# ---------------------------------------------------------------------------
# elaborate

def test_elaborate_nested_dump_contains_the_rebuilt_instance(run_cli):
    code, out, err = run_cli("elaborate", FIG1)
    assert code == 0 and err == ""
    assert ("@[priority 100] instance ring.to_add_comm_group (α : Type) "
            "[i : @ring α] : @add_comm_group α := @add_comm_group.mk α "
            "(@add_group.mk α i.to_semiring.to_add_comm_monoid.to_add_monoid "
            "i.neg)  -- synthesized-constructor") in out
    assert ("@[priority 1000] instance ring.to_semiring (α : Type) "
            "[self : @ring α] : @semiring α := self.to_semiring"
            "  -- preferred-projection") in out


def test_elaborate_flat_dump_lists_every_leaf_field(run_cli):
    code, out, _ = run_cli("elaborate", FIG1, "--encoding", "flat")
    assert code == 0
    assert ("structure ring (α : Type) where\n"
            "  (zero : α)\n"
            "  (add : α → α → α)\n"
            "  (one : α)\n"
            "  (mul : α → α → α)\n"
            "  (neg : α → α)\n") in out


def test_elaborate_prints_each_shared_field_record_once(run_cli, tmp_path, pp_term_calls):
    """Under flat, a 200-class chain lays its 20,100 fields out with 200
    leaf records.  The JSON dump prints each record's type once and each
    class's parameter once: 400 terms, where printing every field made
    20,300."""
    source = tmp_path / "chain.hier"
    source.write_text(chain_source(200))
    code, out, _ = run_cli("elaborate", source, "--encoding", "flat", "--emit", "json")
    assert code == 0
    assert sum(len(c["fields"]) for c in json.loads(out)["classes"].values()) == 20100
    assert pp_term_calls[0] == 400


def test_json_writer_renders_each_shared_field_entry_once():
    """The dump of a flat 60-class chain holds one field entry per leaf
    record, shared by every class that lays the record out, and the writer
    renders each entry once: 60 entries for 1,830 fields."""
    elab = elaborate(parse(chain_source(60)), EncodingStrategy("flat"))
    dump = cli._dump_json(elab, ETA_ON)
    entries = [entry for c in dump["classes"].values() for entry in c["fields"]]
    assert (len(entries), len({id(entry) for entry in entries})) == (1830, 60)

    class Counted(dict):
        """A dict that counts how often it is read item by item."""
        reads = 0

        def items(self):
            Counted.reads += 1
            return super().items()
    counted = {id(entry): Counted(entry) for entry in entries}
    for c in dump["classes"].values():
        c["fields"] = [counted[id(entry)] for entry in c["fields"]]
    text = cli._json_text(dump)
    assert Counted.reads == 60
    assert text == json.dumps(dump, indent=2, sort_keys=True)


@pytest.mark.parametrize("source", [p.name for p in sorted(CORPUS.glob("*.hier"))]
                         + ["chain60", "@random"])
def test_elaborate_json_is_the_dump_as_json_dumps_writes_it(run_cli, tmp_path, source):
    """The writer, which renders a shared field entry once, against
    ``json.dumps`` of the same dump, in every encoding: each corpus file, a
    flat 60-class chain and the generator's seeds 0-49."""
    if source == "@random":
        inputs = [(["@random", "--seed", str(seed)], random_hierarchy(seed))
                  for seed in range(50)]
    else:
        path = tmp_path / "chain.hier" if source == "chain60" else corpus_path(source)
        if source == "chain60":
            path.write_text(chain_source(60))
        inputs = [([path], path.read_text())]
    for argv, text in inputs:
        for encoding, kind in cli.ENCODINGS.items():
            dump = cli._dump_json(elaborate(parse(text), EncodingStrategy(kind)), ETA_ON)
            code, out, err = run_cli("elaborate", *argv, "--encoding", encoding,
                                     "--emit", "json")
            assert (code, err) == (0, "")
            assert out == json.dumps(dump, indent=2, sort_keys=True) + "\n", (argv, encoding)


def test_elaborate_text_prints_each_binder_record_once(run_cli, tmp_path, pp_term_calls):
    """The text dump of the same chain prints a binder record once, however
    many telescopes hold it: a constructor's telescope and its structure's
    field lines hold its class's leaf records, and a class's projections
    share one telescope.  Printing
    every telescope binder by binder made 102,296 terms; 40,200 of those
    left are the result types and bodies of the 20,100 projections."""
    source = tmp_path / "chain.hier"
    source.write_text(chain_source(200))
    code, out, _ = run_cli("elaborate", source, "--encoding", "flat")
    assert code == 0
    assert out.count("\ndef k199.mk (α : Type) (f0 : α) ") == 1
    assert pp_term_calls[0] == 41797


def test_elaborate_json_shape(run_cli):
    code, out, _ = run_cli("elaborate", MODULE, "--emit", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == ["classes", "config", "defeqs", "goals",
                               "instances"]
    assert payload["config"]["encoding"] == "nested"
    by_name = {i["name"]: i for i in payload["instances"]}
    assert by_name["ring.to_semiring"]["kind"] == "preferred-projection"
    assert by_name["ring.to_add_comm_group"]["kind"] == "synthesized-constructor"
    assert by_name["ring.to_add_comm_group"]["priority"] == 100
    assert by_name["semiring.to_module"]["from"] is None
    assert payload["goals"] == ["module_from_semiring", "module_from_ring",
                                "neg_smul", "neg_smul_int"]
    assert payload["defeqs"] == ["concrete_diamond"]


def test_elaborate_field_clash_is_a_diagnostic(run_cli, tmp_path):
    src = tmp_path / "clash.hier"
    src.write_text(
        "class has_one (α : Type) where\n"
        "  (one : α)\n"
        "class weird (α : Type) where\n"
        "  (one : α → α)\n"
        "class both (α : Type) extends has_one α, weird α\n")
    code, out, err = run_cli("elaborate", str(src))
    assert code == 2
    assert "one" in err and "clashing types" in err


def test_field_clash_is_positioned_in_every_encoding(run_cli, tmp_path):
    src = tmp_path / "clash.hier"
    src.write_text(
        "class has_one (α : Type) where\n"
        "  (one : α)\n"
        "class weird (α : Type) where\n"
        "  (one : α → α)\n"
        "class both (α : Type) extends has_one α, weird α\n")
    for encoding in ("flat", "nested", "flat-hack"):
        code, out, err = run_cli("elaborate", str(src), "--encoding", encoding)
        assert (code, out) == (2, "")
        assert err == (f"{src}:5:1: field 'one' is inherited from has_one and "
                       f"weird with clashing types\n"), encoding


def test_max_depth_reaches_instance_argument_synthesis(run_cli):
    """semiring.to_module's target is under-applied; filling in its
    add_comm_monoid argument needs one forgetful step below the goal."""
    code, out, err = run_cli("elaborate", MODULE, "--max-depth", "0")
    assert (code, out) == (2, "")
    assert err == (f"{MODULE}:27:1: cannot synthesize argument [_inst_2 : "
                   f"@add_comm_monoid R] of instance 'semiring.to_module': "
                   f"instance search exceeded depth 0\n")
    code, _, err = run_cli("elaborate", MODULE, "--max-depth", "1")
    assert (code, err) == (0, "")


def test_elaborate_prints_a_non_dependent_pi_field_as_an_arrow(run_cli, tmp_path):
    src = tmp_path / "pi.hier"
    src.write_text("class mag (α : Type) where\n"
                   "  (op : Pi (x : α), α → α)\n")
    code, out, err = run_cli("elaborate", str(src))
    assert (code, err) == (0, "")
    assert "structure mag (α : Type) where\n  (op : α → α → α)\n" in out


EQV = "class eqv (α : Type) (a : α) where\n  (refl : α)\n"
# `q`'s leaf `hq` names `x`, which nested `c` holds only inside `to_p`.
HELD_LEAF = EQV + ("class p (α : Type) where\n  (x : α)\n  (hp : eqv α x)\n"
                   "class q (α : Type) where\n  (x : α)\n  (hq : eqv α x)\n"
                   "class c (α : Type) extends p α, q α\n")
# The opaque field's type names the earlier field `x`.
OPAQUE_NAMES_A_FIELD = EQV + ("class c (α : Type) where\n  (x : α)\n  (p : eqv α x)\n"
                              "class int\n"
                              "instance i0 (z : int) : c int where\n  (x := z)\n"
                              "  (p := opaque)\n")
# The opaque field's type names the parameter `a`, whose argument is the
# binder `x`, named like a field.
OPAQUE_NAMES_A_PARAMETER = EQV + ("class d (α : Type) (a : α) where\n  (x : α)\n"
                                  "  (y : eqv α a)\n"
                                  "class int\n"
                                  "instance i (x : int) (z : int) : d int x where\n"
                                  "  (x := z)\n  (y := opaque)\n")
FLAT_C = ("(x : α)\n  (hp : @eqv α x)\n  (hq : @eqv α x)\n",
          "def c.hq (α : Type) [self : @c α] : @eqv α self.x := self.hq\n")


@pytest.mark.parametrize("source, encoding, expected", [
    pytest.param(HELD_LEAF, "nested", (
        "structure c (α : Type) where\n  (to_p : @p α)\n  (hq : @eqv α to_p.x)\n",
        "def c.hq (α : Type) [self : @c α] : @eqv α self.to_p.x := self.hq\n",
        "instance c.to_q (α : Type) [i : @c α] : @q α := @q.mk α i.to_p.x i.hq "),
        id="held-leaf-nested"),
    pytest.param(HELD_LEAF, "flat", ("structure c (α : Type) where\n  " + FLAT_C[0], FLAT_C[1]),
                 id="held-leaf-flat"),
    pytest.param(HELD_LEAF, "flat-hack", (
        "structure c (α : Type) where\n  (to_flat_hack : flat_hack)\n  " + FLAT_C[0],
        FLAT_C[1]), id="held-leaf-flat-hack"),
    *(pytest.param(OPAQUE_NAMES_A_FIELD, encoding,
                   ("opaque i0.p (z : int) : @eqv int z\n",), id=f"opaque-field-{encoding}")
      for encoding in ("nested", "flat", "flat-hack")),
    *(pytest.param(OPAQUE_NAMES_A_PARAMETER, encoding,
                   ("opaque i.y (x : int) (z : int) : @eqv int x\n",),
                   id=f"opaque-parameter-{encoding}")
      for encoding in ("nested", "flat", "flat-hack")),
])
def test_elaborate_reads_a_dependent_leaf_type_through_what_holds_each_name(
        run_cli, tmp_path, source, encoding, expected):
    """A leaf type laid out beside a substructure reads a leaf held there
    as its projection, and an opaque field's type reads the arguments and
    the earlier fields' values in one substitution, so every declaration
    names only what is in scope."""
    src = tmp_path / "dependent.hier"
    src.write_text(source)
    code, out, err = run_cli("elaborate", src, "--encoding", encoding)
    assert (code, err) == (0, "")
    for text in expected:
        assert text in out


# ---------------------------------------------------------------------------
# defeq

def test_defeq_diamond_matrix(run_cli):
    for args, expected_code, expected_line in [
        (("defeq", FIG1, "--eta-kernel", "off"), 1, "diamond: not equal"),
        (("defeq", FIG1), 0, "diamond: equal"),
        (("defeq", FIG1, "--encoding", "flat", "--eta-kernel", "off"), 0,
         "diamond: equal"),
        (("defeq", MODULE, "concrete_diamond", "--eta-kernel", "off"), 0,
         "concrete_diamond: equal"),
    ]:
        code, out, _ = run_cli(*args)
        assert code == expected_code, args
        assert expected_line in out, args


def test_defeq_ad_hoc_terms_use_the_trailing_variables_block(run_cli):
    code, out, _ = run_cli("defeq", FIG1, "iR", "iR")
    assert code == 0
    assert out == "defeq: equal\n"


def test_defeq_trace_shows_unfolding_and_the_stuck_pair(run_cli):
    code, out, _ = run_cli("defeq", FIG1, "--eta-kernel", "off", "--trace")
    assert code == 1
    assert "delta semiring.to_add_comm_monoid" in out
    assert "stuck:" in out


def test_defeq_of_lambdas_reduces_by_beta(run_cli):
    code, out, err = run_cli("defeq", FIG1, "fun (x : R), (fun (y : R), y) x",
                             "fun (z : R), z", "--trace")
    assert (code, out, err) == (0, "defeq: equal\nbeta\n", "")
    code, out, _ = run_cli("defeq", FIG1, "fun (x : R), (fun (y : R), y) x",
                           "fun (z : R), z", "--emit", "json")
    assert code == 0
    assert [(d["lhs"], d["rhs"]) for d in json.loads(out)["defeqs"]] == \
        [("fun (x : R), (fun (y : R), y) x", "fun (z : R), z")]
    # The binder types are compared as Pi against Pi.
    code, out, _ = run_cli("defeq", FIG1, "fun (f : R → (fun (T : Type), T) R), f",
                           "fun (g : R → R), g", "--trace")
    assert (code, out) == (0, "defeq: equal\nbeta\n")


def test_defeq_of_lambdas_with_different_bodies_fails(run_cli):
    code, out, err = run_cli("defeq", FIG1, "fun (x : R), x", "fun (x : R), iR.neg x")
    assert (code, out, err) == (1, "defeq: not equal\n", "")


@pytest.mark.parametrize("encoding", ["nested", "flat", "flat-hack"])
def test_a_dotted_name_reaches_a_leaf_through_the_stored_substructures(run_cli, encoding):
    """`iR.zero` names the leaf wherever the encoding lays it out: under
    nested, the chain of projections through the substructures that hold
    it; so does `iR.to_add_comm_monoid`, a parent stored at depth two.  A
    parent rebuilt by a constructor is no projection, and stays a
    diagnostic."""
    code, out, err = run_cli("defeq", FIG1, "iR.zero", "iR.zero", "--encoding", encoding)
    assert (code, out, err) == (0, "defeq: equal\n", "")
    term = "semiring.to_add_comm_monoid R (ring.to_semiring R iR)"
    code, out, err = run_cli("defeq", FIG1, "iR.to_add_comm_monoid", term,
                             "--encoding", encoding, "--eta-kernel", "off")
    if encoding == "nested":
        assert (code, out, err) == (0, "defeq: equal\n", "")
    else:
        assert (code, out, err) == (
            2, "", f"{FIG1}: in 'iR.to_add_comm_monoid': 1:1: expected a field of a "
            "structure value (no field 'to_add_comm_monoid'), found projection\n")


@pytest.mark.parametrize("field", ["mul", "to_add_comm_monoid"])
@pytest.mark.parametrize("command", ["defeq", "resolve"])
def test_projecting_another_structures_constructor_is_a_diagnostic(run_cli, command, field):
    """A semiring projection of a ring constructor is ill-typed, and the
    kernel rejects the ad-hoc term before comparing or searching with it, so
    no field of the ring is taken by position: not one past the end (mul),
    and not the first (to_add_comm_monoid, which would make the sides
    equal).  test_kernel covers the same term reaching iota."""
    term = f"@semiring.{field} R (@ring.mk R iR.to_semiring iR.neg)"
    rest = (term, "iR.to_semiring") if command == "defeq" else (term,)
    code, out, err = run_cli(command, FIG1, *rest, "--trace")
    assert (code, out, err) == (
        2, "", f"{FIG1}: in {term!r}: argument type @ring R does not match @semiring R\n")


def test_defeq_unknown_label_is_a_diagnostic(run_cli):
    code, _, err = run_cli("defeq", FIG1, "nosuch_label")
    assert code == 2
    assert "no defeq item named 'nosuch_label'" in err


def test_defeq_with_three_terms_is_a_diagnostic(run_cli):
    code, out, err = run_cli("defeq", FIG1, "R", "R", "R")
    assert (code, out, err) == (
        2, "", f"{FIG1}: defeq takes a label, two terms, or nothing\n")


@pytest.mark.parametrize("command", ["defeq", "resolve"])
def test_ill_typed_ad_hoc_terms_are_a_diagnostic(run_cli, command):
    """Ad-hoc terms are checked by the kernel before they are compared or
    searched: a sort applied to an argument is no term at all."""
    rest = ("Type R", "Type R") if command == "defeq" else ("Type R",)
    code, out, err = run_cli(command, FIG1, *rest)
    assert (code, out, err) == (
        2, "", f"{FIG1}: in 'Type R': applied non-function of type Type\n")


def test_ill_typed_stored_defeq_sides_are_a_diagnostic(run_cli):
    """Under flat-hack a constructor's first field is the marker
    substructure, so point.hier's eta item is ill-typed there, reported at
    the item; it is well-typed under the other encodings."""
    for label in ((), ("eta",)):
        code, out, err = run_cli("defeq", POINT, *label, "--encoding", "flat-hack")
        assert (code, out, err) == (
            2, "", f"{POINT}:13:1: defeq eta: argument type int does not match "
                   f"flat_hack\n")
    for encoding in ("flat", "nested"):
        code, out, err = run_cli("defeq", POINT, "--encoding", encoding)
        assert (code, out, err) == (0, "eta: equal\n", "")


def test_ill_typed_stored_goals_are_a_diagnostic(run_cli, tmp_path):
    """A stored goal's target is checked by the kernel before any goal is
    searched, and one it rejects is a diagnostic at the item, asked for by
    label or not.  A goal that is an under-applied class is a question, not
    an error (see module.hier's `module R R` goals)."""
    src = tmp_path / "goal.hier"
    src.write_text("class a (α : Type) where\n  (x : α)\n"
                   "variables (T : Type) [iT : a T]\n"
                   "goal fine : a T\n"
                   "goal g : a iT\n")
    for label in ((), ("g",)):
        code, out, err = run_cli("resolve", str(src), *label)
        assert (code, out, err) == (
            2, "", f"{src}:5:1: goal g: argument type @a T does not match Type\n")
    code, out, err = run_cli("resolve", str(src), "fine")
    assert (code, out, err) == (0, "goal fine : @a T\n  found: iT\n", "")


@pytest.mark.parametrize("kind, label", [("goal", "g"), ("defeq", "e")])
@pytest.mark.parametrize("command", ["elaborate", "defeq", "resolve", "diamonds",
                                     "spanning-search"])
def test_duplicate_labels_are_a_diagnostic(run_cli, tmp_path, command, kind, label):
    """A repeated label would hide the earlier item, so the elaborator
    rejects the module at the repeated item, whatever the subcommand and
    whichever item is asked for."""
    src = tmp_path / "dup.hier"
    line, second_goal = (6, "g") if kind == "goal" else (8, "h")
    src.write_text("class c (α : Type) where\n"
                   "  (x : α)\n"
                   "class d (α : Type)\n"
                   "variables (T : Type) [i : c T]\n"
                   "goal g : c T\n"
                   f"goal {second_goal} : d T\n"
                   "defeq e : T = T\n"
                   "defeq e : i.x = i.x\n")
    for rest in ((), (label,)) if command in ("defeq", "resolve") else ((),):
        code, out, err = run_cli(command, str(src), *rest)
        assert (code, out, err) == (
            2, "", f"{src}:{line}:1: duplicate {kind} label {label!r}\n")


# ---------------------------------------------------------------------------
# resolve

def test_resolve_module_goals_without_eta(run_cli):
    code, out, _ = run_cli("resolve", MODULE, "--eta-kernel", "off")
    assert code == 1
    assert "goal module_from_semiring : @module R R\n" \
           "  found: @semiring.to_module R iS\n" in out
    assert "goal module_from_ring : @module R R\n" \
           "  found: @semiring.to_module R (@ring.to_semiring R iR)\n" in out
    assert "goal neg_smul : " in out
    assert "\n  not-found\n" in out
    assert "goal neg_smul_int : " in out
    assert "  found: @semiring.to_module int (@ring.to_semiring int int.ring)\n" in out


def test_resolve_pinned_goal_needs_eta_in_the_unifier(run_cli):
    code, out, _ = run_cli("resolve", MODULE, "neg_smul",
                           "--eta-unifier", "on")
    assert code == 0
    assert "found: @semiring.to_module R (@ring.to_semiring R iR)" in out


def test_resolve_pinned_goal_succeeds_under_the_flat_encoding(run_cli):
    code, out, _ = run_cli("resolve", MODULE, "neg_smul", "--encoding", "flat",
                           "--eta-kernel", "off")
    assert code == 0
    assert "found:" in out


def test_resolve_root_class_arguments_never_need_eta(run_cli):
    code, out, _ = run_cli("resolve", ROOTONLY, "--eta-kernel", "off")
    assert code == 0
    assert out.count("found: @semiring.to_rmodule R (@ring.to_semiring R iR)") == 2


def test_resolve_ad_hoc_goal_term(run_cli):
    code, out, _ = run_cli("resolve", FIG1, "add_comm_monoid R")
    assert code == 0
    assert "found: @semiring.to_add_comm_monoid R (@ring.to_semiring R iR)" in out


def test_question_mark_is_no_token(run_cli, tmp_path):
    """A goal cannot name a metavariable: `?` is a stray character, in an
    ad-hoc goal and in a file alike."""
    code, out, err = run_cli("resolve", FIG1, "@add_monoid ?5")
    assert (code, out) == (2, "")
    assert err == f"{FIG1}: in '@add_monoid ?5': 1:13: expected a token, found '?'\n"
    source = tmp_path / "meta.hier"
    source.write_text("class c (α : Type) where\n  (x : α)\ngoal g : c ?1\n")
    code, out, err = run_cli("resolve", source)
    assert (code, out) == (2, "")
    assert err == f"{source}:3:12: expected a token, found '?'\n"


def test_resolve_depth_limit_is_reported(run_cli):
    code, out, _ = run_cli("resolve", MODULE, "module_from_ring",
                           "--max-depth", "1")
    assert code == 1
    assert "depth-exceeded" in out


def test_resolve_trace_records_the_search(run_cli):
    code, out, _ = run_cli("resolve", FIG1, "weaken", "--trace")
    assert code == 0
    assert "goal: @add_comm_monoid R" in out
    assert "try ring.to_semiring (priority 1000)" in out
    assert "solved @ring R := iR" in out


def test_resolve_json_lists_goal_statuses(run_cli):
    code, out, _ = run_cli("resolve", MODULE, "--eta-kernel", "off",
                           "--emit", "json")
    assert code == 1
    payload = json.loads(out)
    statuses = {g["label"]: g["status"] for g in payload["goals"]}
    assert statuses == {"module_from_semiring": "found",
                        "module_from_ring": "found",
                        "neg_smul": "not-found",
                        "neg_smul_int": "found"}


def test_an_untraced_resolve_formats_no_trace_line(run_cli, tmp_path, pp_term_calls):
    """Trace lines are formatted only when read.  Without --trace, the
    nested 6-cube's 64 goals, none of them found, print two terms each:
    the goal in its record and in the not-found error.  Formatting every
    trace line printed 640."""
    source = tmp_path / "cube6.hier"
    source.write_text(cube_source(6))
    code, out, _ = run_cli("resolve", source, "--emit", "json")
    assert code == 1
    assert [g["status"] for g in json.loads(out)["goals"]] == ["not-found"] * 64
    assert pp_term_calls[0] == 128


def test_resolve_whole_cube_file_tries_each_forgetful_edge_once(run_cli, tmp_path):
    """The nested 5-cube's 32 goals, with no instance in context, share one
    answer table: the first goal, `base T`, tries every forgetful edge once
    (n·2ⁿ⁻¹ = 80) and every later goal reads its answer from the table."""
    source = tmp_path / "cube5.hier"
    source.write_text(cube_source(5))
    code, out, _ = run_cli("resolve", source, "--trace")
    assert code == 1
    lines = [line.lstrip() for line in out.splitlines()]
    assert sum(line.startswith("try ") for line in lines) == 80  # 405 per goal
    assert lines.count("not-found") == 32


def test_resolve_later_goals_reuse_earlier_answers(run_cli, tmp_path):
    source = tmp_path / "cube3.hier"
    source.write_text(cube_source(3, top_instance=True))
    code, out, _ = run_cli("resolve", source, "--trace")
    assert code == 0
    later = out.split("goal g_c2 : ")[1].split("goal g_c01 : ")[0]
    assert "  cached: solved @c2 T := @c12.to_c2 T (@c012.to_c12 T iT)" in later
    assert "cached:" not in run_cli("resolve", source, "g_c2", "--trace")[1]
    # Each goal's status and term are those of a run of that goal alone.
    whole = json.loads(run_cli("resolve", source, "--emit", "json")[1])["goals"]
    assert len(whole) == 8
    for entry in whole:
        alone = json.loads(run_cli("resolve", source, entry["label"],
                                   "--emit", "json")[1])["goals"]
        assert alone == [entry]


# ---------------------------------------------------------------------------
# diamonds

def test_diamonds_nested_without_eta_flags_the_double_path(run_cli):
    code, out, _ = run_cli("diamonds", FIG1, "--eta-kernel", "off")
    assert code == 1
    assert ("ring -> add_comm_monoid: [ring.to_add_comm_group, "
            "add_comm_group.to_add_comm_monoid] vs [ring.to_semiring, "
            "semiring.to_add_comm_monoid]: oracle=not-equal predictor=fails "
            "-> DOES NOT COMMUTE") in out
    assert out.rstrip().endswith("4 / 5 commuting, 0 oracle/predictor mismatches")


def test_diamonds_commute_with_eta_or_under_flat_layouts(run_cli):
    for args, summary in [
        (("diamonds", FIG1), "5 / 5 commuting, 1 oracle/predictor mismatches"),
        (("diamonds", FIG1, "--encoding", "flat", "--eta-kernel", "off"),
         "5 / 5 commuting, 0 oracle/predictor mismatches"),
        (("diamonds", FIG1, "--encoding", "flat-hack", "--eta-kernel", "off"),
         "56 / 56 commuting, 0 oracle/predictor mismatches"),
    ]:
        code, out, _ = run_cli(*args)
        assert code == 0, args
        assert out.rstrip().endswith(summary), args


def test_diamonds_parent_order_override_restores_coherence(run_cli):
    code, out, _ = run_cli("diamonds", FIG1, "--eta-kernel", "off",
                           "--parent-order", "add_comm_group:add_comm_monoid")
    assert code == 0
    assert "DOES NOT COMMUTE" not in out


def test_diamonds_json_validates_against_the_schema(run_cli):
    code, out, _ = run_cli("diamonds", FIG1, "--eta-kernel", "off",
                           "--emit", "json")
    assert code == 1
    payload = json.loads(out)
    jsonschema.validate(payload, ANALYZER_REPORT_SCHEMA)
    assert payload["summary"] == {"total": 5, "commuting": 4, "mismatches": 0}
    assert payload["config"] == {"encoding": "nested", "eta_kernel": False,
                                 "eta_unifier": False}


def test_diamonds_trace_shows_the_stuck_pair_under_each_failing_diamond(run_cli):
    code, out, _ = run_cli("diamonds", FIG1, "--eta-kernel", "off", "--trace")
    assert code == 1
    lines = out.splitlines()
    failing = lines.index(next(line for line in lines if line.endswith("DOES NOT COMMUTE")))
    assert lines[failing + 1:failing + 8] == [
        "  delta add_comm_group.to_add_comm_monoid",
        "  beta",
        "  delta semiring.to_add_comm_monoid",
        "  beta",
        "  delta ring.to_semiring",
        "  beta",
        "  stuck: @add_comm_monoid.mk α (@ring.to_add_comm_group α i).to_add_group.to_add_monoid"
        " vs (@ring.to_semiring α i).to_add_comm_monoid",
    ]
    assert lines[failing + 8].startswith("ring -> add_monoid: ")
    assert out.count("stuck:") == 1


def test_diamonds_trace_leaves_json_unchanged(run_cli):
    plain = run_cli("diamonds", FIG1, "--eta-kernel", "off", "--emit", "json")
    traced = run_cli("diamonds", FIG1, "--eta-kernel", "off", "--emit", "json", "--trace")
    assert traced == plain


@pytest.mark.parametrize("command", ["diamonds", "spanning-search"])
def test_diamonds_beyond_the_path_limit_are_a_diagnostic(run_cli, tmp_path, command):
    """The e7 -> a diamond cannot be checked, so it must not vanish; and
    since no report is written before every diamond is decided, the
    diagnostic is all the output."""
    source = tmp_path / "long.hier"
    source.write_text(LONG_DIAMOND)
    for emit in ("text", "json"):
        code, out, err = run_cli(command, source, "--emit", emit)
        assert (code, out) == (2, ""), emit
        assert err == (f"{source}: e7 reaches a by several paths, some longer than the "
                       f"limit of 8 edges; their diamonds cannot all be checked\n"), emit


# Class names with non-ASCII characters, one outside the basic plane, which
# JSON escapes as a surrogate pair.
NON_ASCII = ("class añ (α : Type) where\n  (x : α)\n"
             "class b (α : Type) extends añ α\nclass c (α : Type) extends añ α\n"
             "class d𝔸 (α : Type) extends b α, c α\n")


@pytest.mark.parametrize("name", [p.name for p in sorted(CORPUS.glob("*.hier"))]
                         + ["non-ascii"])
def test_diamonds_report_matches_the_reference(run_cli, tmp_path, name):
    """The text and JSON reports, written in one pass, against the
    reference's lines and dict, in every encoding with eta off and on.
    empty.hier, point.hier and rootonly.hier have no diamonds nested."""
    if name == "non-ascii":
        path = tmp_path / "non_ascii.hier"
        path.write_text(NON_ASCII)
    else:
        path = corpus_path(name)
    module = parse(path.read_text())
    for encoding in ("nested", "flat", "flat_hack"):
        elab = elaborate(module, EncodingStrategy(encoding))
        for config, eta in ((ETA_OFF, "off"), (ETA_ON, "on")):
            reports = analyze(elab, config)
            summary = reference.report_summary(config, reports)
            want_code = 0 if summary["commuting"] == summary["total"] else 1
            flags = ("--encoding", encoding.replace("_", "-"), "--eta-kernel", eta)
            text = "\n".join(reference.report_lines(config, reports)) + "\n"
            assert run_cli("diamonds", path, *flags) == (want_code, text, "")
            payload = reference.report_dict(encoding, config, reports)
            assert run_cli("diamonds", path, *flags, "--emit", "json") == (
                want_code, json.dumps(payload, indent=2, sort_keys=True) + "\n", "")


@pytest.mark.parametrize("name", [p.name for p in sorted(CORPUS.glob("*.hier"))]
                         + ["non-ascii"])
def test_spanning_search_report_matches_the_reference(run_cli, tmp_path, name):
    """The text and JSON reports, streamed from the path groups, against the
    lines and dict built from the whole-module pairwise search, in every
    encoding with eta off and on."""
    if name == "non-ascii":
        path = tmp_path / "non_ascii.hier"
        path.write_text(NON_ASCII)
    else:
        path = corpus_path(name)
    module = parse(path.read_text())
    for encoding in ("nested", "flat", "flat_hack"):
        for config, eta in ((ETA_OFF, "off"), (ETA_ON, "on")):
            placements = reference.spanning_search(module, EncodingStrategy(encoding), config)
            flags = ("--encoding", encoding.replace("_", "-"), "--eta-kernel", eta)
            text = "\n".join(reference.spanning_lines(config, placements)) + "\n"
            assert run_cli("spanning-search", path, *flags) == (0, text, "")
            payload = reference.spanning_dict(encoding, config, placements)
            assert run_cli("spanning-search", path, *flags, "--emit", "json") == (
                0, json.dumps(payload, indent=2, sort_keys=True) + "\n", "")


# ---------------------------------------------------------------------------
# spanning-search

def test_spanning_search_fig1_placements(run_cli):
    code, out, _ = run_cli("spanning-search", FIG1, "--eta-kernel", "off")
    assert code == 0
    assert out == (
        "placement 0: add_comm_group=add_group ring=semiring | incoherent"
        " | failing: ring->add_comm_monoid\n"
        "placement 1: add_comm_group=add_group ring=add_comm_group | incoherent"
        " | failing: ring->add_comm_monoid\n"
        "placement 2: add_comm_group=add_comm_monoid ring=semiring | coherent\n"
        "placement 3: add_comm_group=add_comm_monoid ring=add_comm_group"
        " | coherent\n"
        "2 / 4 coherent\n")


def test_spanning_search_cube_counts(run_cli):
    code, out, _ = run_cli("spanning-search", CUBE, "--eta-kernel", "off")
    assert code == 0
    assert out.rstrip().endswith("0 / 24 coherent")
    code, out, _ = run_cli("spanning-search", CUBE, "--eta-kernel", "on")
    assert code == 0
    assert out.rstrip().endswith("24 / 24 coherent")


def test_spanning_search_single_parent_module_is_vacuous(run_cli):
    code, out, _ = run_cli("spanning-search", POINT)
    assert code == 0
    assert out == "placement 0: coherent\n1 / 1 coherent\n"


def test_spanning_search_random_module_is_seed_deterministic(run_cli):
    first = run_cli("spanning-search", "@random", "--seed", "3")
    second = run_cli("spanning-search", "@random", "--seed", "3")
    assert first == second
    assert first[0] == 0
    # Different seeds produce different hierarchies even when their spanning
    # summaries happen to coincide.
    assert run_cli("elaborate", "@random", "--seed", "3") != \
        run_cli("elaborate", "@random", "--seed", "4")


SEED_29 = ("spanning-search", "@random", "--seed", "29", "--eta-kernel", "off")


def test_spanning_search_marks_order_sensitive_placements(run_cli):
    code, out, err = run_cli(*SEED_29)
    assert (code, err) == (0, "")
    assert out == (
        "placement 0: c3=c2 c4=c2 | coherent | order-sensitive\n"
        "placement 1: c3=c2 c4=c3 | incoherent | failing: c4->c2 | order-sensitive\n"
        "placement 2: c3=c2 c4=c1 | incoherent | failing: c4->c1 | order-sensitive\n"
        "placement 3: c3=c0 c4=c2 | coherent | order-sensitive\n"
        "placement 4: c3=c0 c4=c3 | incoherent | failing: c4->c2\n"
        "placement 5: c3=c0 c4=c1 | incoherent | failing: c4->c1\n"
        "placement 6: c3=c1 c4=c2 | incoherent | failing: c4->c1 | order-sensitive\n"
        "placement 7: c3=c1 c4=c3 | incoherent | failing: c4->c1, c4->c2\n"
        "placement 8: c3=c1 c4=c1 | coherent\n"
        "3 / 9 coherent\n")


def test_spanning_search_json_lists_every_placement(run_cli):
    code, out, err = run_cli(*SEED_29, "--emit", "json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload["config"] == {"encoding": "nested", "eta_kernel": False,
                                 "eta_unifier": False}
    assert payload["summary"] == {"total": 9, "coherent": 3}
    placements = payload["placements"]
    assert [p["index"] for p in placements] == list(range(9))
    assert all(sorted(p) == ["coherent", "diamonds", "first_parents", "index",
                             "order_invariant"] for p in placements)
    assert [p["order_invariant"] for p in placements] == \
        [False, False, False, False, True, True, False, True, True]
    assert [p["coherent"] for p in placements] == \
        [True, False, False, True, False, False, False, False, True]
    diamond_keys = {*ANALYZER_REPORT_SCHEMA["properties"]["diamonds"]["items"]
                    ["properties"], "commutes"}
    assert all(set(d) == diamond_keys for p in placements for d in p["diamonds"])
    assert placements[1] == {
        "index": 1,
        "first_parents": {"c3": "c2", "c4": "c3"},
        "coherent": False,
        "order_invariant": False,
        "diamonds": [
            {"source": "c4", "target": "c1", "pathA": ["c4.to_c1"],
             "pathB": ["c4.to_c3", "c3.to_c1"], "oracle": True, "predictor": True,
             "commutes": True},
            {"source": "c4", "target": "c2", "pathA": ["c4.to_c2"],
             "pathB": ["c4.to_c3", "c3.to_c2"], "oracle": False, "predictor": False,
             "commutes": False},
        ],
    }


def test_spanning_search_honours_max_depth(run_cli):
    """Every re-elaboration completes under-applied instance targets under
    the same depth cap as `elaborate`, so the diagnostic is the same."""
    code, out, err = run_cli("spanning-search", MODULE, "--max-depth", "0")
    assert (code, out) == (2, "")
    assert err == run_cli("elaborate", MODULE, "--max-depth", "0")[2]
    assert err.startswith(f"{MODULE}:27:1: cannot synthesize argument ")
    # Depth 1 suffices in the declared order but not in the placements where
    # add_comm_group stores add_comm_monoid as its substructure.
    assert run_cli("elaborate", MODULE, "--max-depth", "1")[0] == 0
    code, out, err = run_cli("spanning-search", MODULE, "--max-depth", "1")
    assert (code, out) == (2, "")
    assert err == run_cli("elaborate", MODULE, "--max-depth", "1", "--parent-order",
                          "add_comm_group:add_comm_monoid")[2]
    code, out, err = run_cli("spanning-search", MODULE, "--max-depth", "2")
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("4 / 4 coherent")


def test_spanning_search_rejects_parent_order(run_cli, capsys):
    """Spanning search chooses every parent order itself."""
    with pytest.raises(SystemExit) as exc:
        cli_main(["spanning-search", FIG1, "--parent-order", "a:b"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parent-order" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cross-cutting behavior

def test_repeated_runs_are_byte_identical(run_cli):
    for args in [("elaborate", FIG1, "--emit", "json"),
                 ("diamonds", CUBE, "--eta-kernel", "off", "--emit", "json")]:
        assert run_cli(*args) == run_cli(*args)


def hier_process(*argv: str, **environ: str) -> subprocess.Popen:
    """Run `hier` in a fresh interpreter, on this checkout's sources, with
    ``environ`` added to the environment."""
    src = str(Path(hierlab.__file__).resolve().parent.parent)
    env = dict(os.environ, **environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.Popen([sys.executable, "-m", "hierlab", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)


# The C locale, with no locale coercion, UTF-8 mode or encoding override: the
# standard streams are ASCII.
C_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
            "PYTHONIOENCODING": ""}


def test_input_is_read_as_utf8_in_any_locale():
    outputs = []
    for environ in ({}, C_LOCALE):
        proc = hier_process("diamonds", FIG1, "--emit", "json", **environ)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_output_the_locale_cannot_encode_is_a_diagnostic():
    proc = hier_process("elaborate", FIG1, **C_LOCALE)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == (b"hier: the output cannot be encoded as ascii; run under a UTF-8 "
                   b"locale or set PYTHONIOENCODING=utf-8\n")


def test_input_that_is_not_utf8_is_a_positioned_diagnostic(run_cli, tmp_path):
    source = tmp_path / "latin1.hier"
    # A Latin-1 comment after a UTF-8 one: the column counts characters.
    source.write_bytes("class a (α : Type)\n  -- α ".encode() + "été\n".encode("latin-1"))
    code, out, err = run_cli("diamonds", source)
    assert (code, out) == (2, "")
    assert err == f"{source}:2:8: byte 0xe9 is not valid UTF-8\n"


def test_a_leading_byte_order_mark_is_skipped(run_cli, tmp_path):
    plain, marked = tmp_path / "plain.hier", tmp_path / "marked.hier"
    text = Path(FIG1).read_bytes()
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    for args in [("elaborate",), ("diamonds", "--emit", "json")]:
        code, out, err = run_cli(args[0], marked, *args[1:])
        assert (code, out, err) == run_cli(args[0], plain, *args[1:])
        assert code == 0 and out


def test_columns_after_a_byte_order_mark_count_from_after_it(run_cli, tmp_path):
    source = tmp_path / "marked.hier"
    source.write_bytes(b"\xef\xbb\xbfclass a\xe9\n")
    code, out, err = run_cli("elaborate", source)
    assert (code, out) == (2, "")
    assert err == f"{source}:1:8: byte 0xe9 is not valid UTF-8\n"
    source.write_bytes(b"\xef\xbb\xbfclass a $\n")
    code, out, err = run_cli("elaborate", source)
    assert (code, out) == (2, "")
    assert err.startswith(f"{source}:1:9: ")


def test_closing_the_output_early_is_a_diagnostic(tmp_path):
    # Far more output than a pipe buffers, so the command is still writing
    # when the reader goes away.
    source = tmp_path / "wide.hier"
    source.write_text("\n".join(
        f"class c{k} (α : Type) where\n" + "".join(f"  (f{j} : α)\n" for j in range(20))
        for k in range(300)))
    proc = hier_process("elaborate", str(source))
    assert proc.stdout.readline().startswith(b"structure c0")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err
    assert err == "hier: output closed before it was fully written\n"


def chain_goal(classes: int) -> str:
    """A chain k0 <- k1 <- ... of `classes` classes, an instance of the last
    in context, and a goal for the first: one search level per class."""
    return ("class k0 (α : Type) where\n  (f0 : α)\n" + "".join(
        f"class k{k} (α : Type) extends k{k - 1} α\n" for k in range(1, classes))
        + f"variables (T : Type) [iT : k{classes - 1} T]\ngoal g : k0 T\n")


def chain_answer(classes: int) -> str:
    """The output of `hier resolve` on `chain_goal(classes)` when found."""
    last = classes - 1
    return ("goal g : @k0 T\n  found: " + "".join(
        f"@k{k}.to_k{k - 1} T (" for k in range(1, last)) + f"@k{last}.to_k{last - 1} T iT"
        + ")" * (last - 1) + "\n")


def test_deep_search_is_bounded_by_the_depth_cap_alone(tmp_path):
    """Search takes one interpreter frame per level, so a 400-level chain is
    found, and `--max-depth` caps it exactly: the goal is 399 levels above
    the context's instance."""
    source = tmp_path / "chain.hier"
    source.write_text(chain_goal(400))
    found = chain_answer(400)
    for max_depth, code, out in (("500", 0, found), ("399", 0, found),
                                 ("398", 1, "goal g : @k0 T\n  depth-exceeded\n")):
        proc = hier_process("resolve", str(source), "--max-depth", max_depth)
        assert proc.communicate(timeout=120) == (out.encode(), b"")
        assert proc.returncode == code, max_depth


def test_a_deep_answer_is_printed(tmp_path):
    """Printing takes one interpreter frame per level of the answer, as
    search does, so a 600-level answer is found and printed."""
    source = tmp_path / "chain.hier"
    source.write_text(chain_goal(600))
    proc = hier_process("resolve", str(source), "--max-depth", "700")
    assert proc.communicate(timeout=120) == (chain_answer(600).encode(), b"")
    assert proc.returncode == 0


def test_search_deeper_than_the_interpreter_allows_is_a_diagnostic(tmp_path):
    """Search takes one frame per level, so searching 1,099 levels exceeds
    Python's recursion limit."""
    source = tmp_path / "chain.hier"
    source.write_text(chain_goal(1100))
    proc = hier_process("resolve", str(source), "--max-depth", "1200")
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert b"Traceback" not in err
    assert err.decode() == (f"{source}: nested too deeply for the interpreter's "
                            f"recursion limit ({sys.getrecursionlimit()})\n")
    assert out == b""


def chain_forgetting_to(depth: int) -> str:
    """The composite that takes `i : k299 T` down to `k{depth} T`."""
    term = "i"
    for k in range(299, depth, -1):
        term = f"(@k{k}.to_k{k - 1} T {term})"
    return term


# A 300-class chain with one field per class; the two sides of each
# scenario reach f0 and f1 through about 300 projections, more than the
# kernel's unfold depth of 256.
CHAIN_300 = "class k0 (α : Type) where\n  (f0 : α)\n" + "".join(
    f"class k{k} (α : Type) extends k{k - 1} α where\n  (f{k} : α)\n" for k in range(1, 300))
P0, P1 = chain_forgetting_to(0), chain_forgetting_to(1)


@pytest.mark.parametrize("command, text, unfolding", [
    ("defeq", CHAIN_300 + "variables (T : Type) [i : k299 T]\n"
     f"defeq d : @k0.f0 T {P0} = @k1.f1 T {P1}\n", "k256.to_k255"),
    ("resolve", CHAIN_300 + "class p (α : Type) (x : α)\n"
     f"variables (T : Type) [i : k299 T] [j : p T (@k1.f1 T {P1})]\n"
     f"goal g : p T (@k0.f0 T {P0})\n", "k257.to_k256"),
    # The same search, run by the elaborator to complete an instance target.
    ("elaborate", CHAIN_300 + "class p (α : Type) (x : α)\n"
     "class r (α : Type) (x : α) [h : p α x]\n"
     f"instance j (T : Type) [i : k299 T] [jj : p T (@k1.f1 T {P1})] : "
     f"r T (@k0.f0 T {P0})\n", "k257.to_k256"),
], ids=["defeq", "resolve", "elaborate"])
def test_running_out_of_unfold_depth_is_a_diagnostic(run_cli, tmp_path, command, text,
                                                     unfolding):
    src = tmp_path / "chain.hier"
    src.write_text(text)
    code, out, err = run_cli(command, str(src))
    assert (code, out, err) == (
        2, "", f"{src}: unfold depth exhausted while unfolding {unfolding!r}\n")


def test_missing_file_is_a_diagnostic(run_cli):
    code, out, err = run_cli("elaborate", "nosuch.hier")
    assert code == 2 and out == ""
    assert "nosuch.hier" in err


def test_parse_errors_carry_file_line_and_column(run_cli, tmp_path):
    src = tmp_path / "bad.hier"
    src.write_text("class a (α : Type) where\n  (f : )\n")
    code, _, err = run_cli("elaborate", str(src))
    assert code == 2
    assert f"{src}:2:8: expected a term" in err


HAS_ONE = "class int\nclass has_one (α : Type) where\n  (one : α)\n"
MARKER_PARENT = HAS_ONE + "class a (α : Type)\nclass x (α : Type) extends flat_hack, a α\n"
OWN_MK = "class s (α : Type) where\n  (mk : α)\n"
OWN_TO_PARENT = ("class s (α : Type) where\n  (x : α)\n"
                 "class t (α : Type) extends s α where\n  (to_s : α)\n")
INHERITED_PARAM = ("class p (β : Type) where\n  (α : β)\n"
                   "class c (α : Type) extends p α where\n  (g : α)\n")


@pytest.mark.parametrize("command", ["elaborate", "spanning-search"])
@pytest.mark.parametrize("text, encoding, diagnostic", [
    # An instance named like a projection, and one declared twice.
    (HAS_ONE + "instance has_one.one : has_one int where\n  (one := opaque)\n",
     "nested", ":4:1: duplicate declaration 'has_one.one'"),
    (HAS_ONE + "instance i : has_one int where\n  (one := opaque)\n" * 2,
     "nested", ":6:1: duplicate declaration 'i.one'"),
    # A projection the value's type does not have.
    (HAS_ONE + "variables (x : int)\ngoal g : x.one\n",
     "nested", ":5:10: expected a field of a structure value (no field 'one'), "
     "found projection"),
    # Items are checked in order, so an earlier item's error wins over a
    # later unknown name.
    (HAS_ONE + "class x (α : Type) extends has_one α, has_one α\ngoal g : nosuch\n",
     "nested", ":4:1: duplicate parent 'has_one' in 'x'"),
    (HAS_ONE + "class x (α : Type) extends (α → α)\n",
     "nested", ":4:1: parent of 'x' is not a declared class"),
    # Values are resolved before the instance's opaque fields are declared.
    (HAS_ONE + "class two (α : Type) where\n  (x : α)\n  (y : α)\n"
     "instance foo : two int where\n  (x := opaque)\n  (y := foo.x)\n",
     "nested", ":9:9: name 'foo.x' is not declared at this point"),
    # Under flat-hack the marker class is declared and is already every
    # class's first parent.
    (MARKER_PARENT, "flat-hack", ":5:1: duplicate parent 'flat_hack' in 'x'"),
    (MARKER_PARENT, "nested", ":5:28: name 'flat_hack' is not declared at this point"),
    # A projection named like the constructor, and one named like the
    # instance that rebuilds a parent not stored as a substructure.
    (OWN_MK, "nested", ":1:1: duplicate declaration 's.mk'"),
    (OWN_MK, "flat", ":1:1: duplicate declaration 's.mk'"),
    (OWN_TO_PARENT, "flat", ":3:1: duplicate declaration 't.to_s'"),
    (OWN_TO_PARENT, "flat-hack", ":3:1: duplicate declaration 't.to_s'"),
    (OWN_TO_PARENT, "nested",
     ":3:1: field name 'to_s' collides with an inherited substructure field"),
    # A field, own, inherited or a substructure, named like a parameter.
    ("class a (x : Type) where\n  (x : x)\n", "nested",
     ":2:4: field 'x' of 'a' has the name of a parameter"),
    (INHERITED_PARAM, "flat", ":3:1: field 'α' of 'c' has the name of a parameter"),
    (INHERITED_PARAM, "nested", ":3:1: field 'α' of 'c' has the name of a parameter"),
    ("class p (β : Type) where\n  (x : β)\nclass c (to_p : Type) extends p to_p\n",
     "nested", ":3:1: field 'to_p' of 'c' has the name of a parameter"),
    # Instance targets and assignments.
    (HAS_ONE + "instance foo : Type\n",
     "nested", ":4:1: instance 'foo' must target a declared class"),
    (HAS_ONE + "instance foo : has_one int where\n  (one := opaque)\n  (one := opaque)\n",
     "nested", ":6:4: 'foo' assigns 'one' twice"),
    (HAS_ONE + "instance foo : has_one int int where\n  (one := opaque)\n",
     "nested", ":4:1: instance 'foo' applies 'has_one' to too many arguments"),
    (HAS_ONE + "instance foo : has_one where\n  (one := opaque)\n",
     "nested", ":4:1: instance 'foo' leaves explicit parameter 'α' of 'has_one' unapplied"),
    # A binder whose type is not a type, or is ill-typed: a class
    # parameter, an own field (also under an arrow), an instance binder and
    # a variable.
    ("class c (α : Type) (y : α) (z : y)\n", "nested", ":1:29: y is not a type: it has type α"),
    ("class c (α : Type) (y : α) where\n  (f : y)\n", "flat",
     ":2:4: y is not a type: it has type α"),
    ("class c (α : Type) (y : α) where\n  (f : α → y)\n", "nested",
     ":2:4: y is not a type: it has type α"),
    (HAS_ONE + "instance foo (T : Type) (t : T) (u : t) : has_one T where\n  (one := opaque)\n",
     "nested", ":4:34: t is not a type: it has type T"),
    (HAS_ONE + "variables (T : Type) [h : has_one]\n", "flat-hack",
     ":4:22: has_one is not a type: it has type Type → Type"),
    ("class c (α : Type) (x : α) where\n  (f : α)\nclass d (β : Type) where\n  (g : c β β)\n",
     "nested", ":4:4: argument type Type does not match β"),
    # Parse errors.
    ("class a (α : Type) where\n  ( : α)\n", "nested", ":2:5: expected field name, found ':'"),
    (HAS_ONE + "goal g : class\n", "nested", ":4:10: expected a term, found 'class'"),
    # A structure's constructor and projections are derived, not stored, yet
    # clash with a stored name in either order, and with one another.
    (HAS_ONE + "instance foo.bar : has_one int where\n  (one := opaque)\n"
     "class foo where\n  (bar : int)\n", "flat", ":6:1: duplicate declaration 'foo.bar'"),
    (HAS_ONE + "instance has_one.mk : has_one int where\n  (one := opaque)\n",
     "flat", ":4:1: duplicate declaration 'has_one.mk'"),
    (HAS_ONE + "class has_one.one\n", "nested", ":4:1: duplicate declaration 'has_one.one'"),
    ("class a.b\nclass a where\n  (b : a.b)\n", "nested",
     ":2:1: duplicate declaration 'a.b'"),
    ("class a.b where\n  (c : Type)\nclass a where\n  (b.c : Type)\n", "flat",
     ":3:1: duplicate declaration 'a.b.c'"),
    ("class a where\n  (b.c : Type)\nclass a.b where\n  (c : Type)\n", "flat",
     ":3:1: duplicate declaration 'a.b.c'"),
    # A rebuilt parent's instance is derived too, and clashes with a stored
    # name declared before its class or after it.
    (HAS_ONE + "instance t.to_has_one : has_one int where\n  (one := opaque)\n"
     "class t (α : Type) extends has_one α where\n  (two : α)\n", "flat",
     ":6:1: duplicate declaration 't.to_has_one'"),
    (HAS_ONE + "class t (α : Type) extends has_one α where\n  (two : α)\n"
     "instance t.to_has_one : has_one int where\n  (one := opaque)\n", "flat",
     ":6:1: duplicate declaration 't.to_has_one'"),
], ids=["named-like-a-projection", "declared-twice", "missing-field",
        "earlier-item-first", "non-name-parent", "own-opaque-field",
        "marker-parent-flat-hack", "marker-parent-nested", "own-mk-nested",
        "own-mk-flat", "own-to-parent-flat", "own-to-parent-flat-hack",
        "own-to-parent-nested", "own-field-named-like-a-parameter",
        "inherited-field-named-like-a-parameter-flat",
        "inherited-field-named-like-a-parameter-nested",
        "substructure-named-like-a-parameter", "instance-of-a-non-class",
        "assigned-twice", "too-many-arguments", "explicit-parameter-unapplied",
        "parameter-not-a-type", "field-not-a-type", "arrow-into-a-value",
        "instance-binder-not-a-type", "variable-not-a-type", "ill-typed-field-type",
        "field-name-missing", "keyword-as-a-term", "stored-name-then-projection",
        "instance-named-like-a-constructor", "class-named-like-a-projection",
        "class-then-projection-named-like-it", "projection-of-a-dotted-class",
        "dotted-field-then-class", "stored-name-then-rebuilt-instance",
        "rebuilt-instance-then-stored-name"])
def test_elaboration_errors_carry_file_line_and_column(run_cli, tmp_path, command,
                                                       text, encoding, diagnostic):
    src = tmp_path / "bad.hier"
    src.write_text(text)
    code, out, err = run_cli(command, str(src), "--encoding", encoding)
    assert (code, out, err) == (2, "", f"{src}{diagnostic}\n")


def test_the_json_dump_of_the_flat_chain_derives_nothing(run_cli, tmp_path, monkeypatch):
    """`hier elaborate --emit json` on the flat 200-class chain stores one
    structure per class, and reads none of the derived constructors,
    projections and rebuilt instances, so none is built."""
    src = tmp_path / "chain.hier"
    src.write_text(chain_source(200))
    made = []
    monkeypatch.setattr(cli, "elaborate", lambda *args: made.append(elaborate(*args)) or made[-1])
    code, out, _ = run_cli("elaborate", src, "--encoding", "flat", "--emit", "json")
    assert code == 0 and out
    env = made[0].env
    stored = list(env.stored())
    assert len(stored) == 200 and len(env) == 200 + 20_100 + 200 + 199
    assert sum(len(decl.rebuilt) for decl in stored) == 199
    assert not any(made in vars(decl) for decl in stored
                   for made in ("derived", "rebuilt_view", "rebuilt_instances"))


def test_a_field_whose_type_is_a_value_is_no_defeq_question(run_cli, tmp_path):
    """A class whose field has a value for its type is an error where it is
    declared, so no later question about the field is answered."""
    src = tmp_path / "value.hier"
    src.write_text("class c (α : Type) (y : α) where\n  (f : y)\n"
                   "variables (T : Type) (t : T) [i : c T t]\n"
                   "defeq d : @c.f T t i = @c.f T t i\n")
    code, out, err = run_cli("defeq", src)
    assert (code, out, err) == (2, "", f"{src}:2:4: y is not a type: it has type α\n")


def param_diamond(param: str) -> str:
    """A flat diamond ``d -> a`` whose classes take one parameter ``param``."""
    return (f"class a ({param} : Type) where\n  (x : {param})\n"
            f"class b ({param} : Type) extends a {param} where\n  (y : {param})\n"
            f"class c ({param} : Type) extends a {param} where\n  (y : {param})\n"
            f"class d ({param} : Type) extends b {param}, c {param}\n"
            "variables (T : Type) [iT : d T]\ngoal g : a T\n")


@pytest.mark.parametrize("param", ["α", "i", "self"])
def test_generated_instance_binders_do_not_capture_a_parameter(run_cli, tmp_path, param):
    """A projection's instance binder is ``self`` and a rebuilt instance's
    ``i``, unless the class has a parameter of that name: then the binder
    takes a fresh one, and search and the oracle read the same as with
    ``α``."""
    src = tmp_path / "param.hier"
    src.write_text(param_diamond(param))
    code, out, err = run_cli("resolve", src, "--encoding", "flat")
    assert (code, out, err) == (0, "goal g : @a T\n  found: @c.to_a T (@d.to_c T iT)\n", "")
    code, out, err = run_cli("diamonds", src, "--encoding", "flat", "--eta-kernel", "off")
    assert (code, err) == (0, "")
    assert out == ("d -> a: [d.to_b, b.to_a] vs [d.to_c, c.to_a]: oracle=equal "
                   "predictor=commutes -> commutes\n"
                   "1 / 1 commuting, 0 oracle/predictor mismatches\n")
    code, out, err = run_cli("elaborate", src, "--encoding", "flat")
    assert (code, err) == (0, "")
    inst = "i_1" if param == "i" else "i"
    value = "self_1" if param == "self" else "self"
    assert (f"def a.x ({param} : Type) [{value} : @a {param}] : {param} := {value}.x\n"
            in out)
    assert (f"instance b.to_a ({param} : Type) [{inst} : @b {param}] : @a {param} := "
            f"@a.mk {param} {inst}.x  -- flat-constructor\n") in out


def test_malformed_parent_order_flag_is_rejected(run_cli):
    code, _, err = run_cli("diamonds", FIG1, "--parent-order", "ringsemiring")
    assert code == 2
    assert "CLASS:PARENT" in err


def test_parent_order_for_an_unknown_class_is_rejected(run_cli):
    code, out, err = run_cli("diamonds", FIG1, "--parent-order", "nosuch:foo")
    assert (code, out) == (2, "")
    assert err == f"{FIG1}: parent-order override names unknown class 'nosuch'\n"


def test_parent_order_naming_no_parent_of_the_class_is_rejected(run_cli):
    code, out, err = run_cli("diamonds", FIG1, "--parent-order", "ring:add_monoid")
    assert (code, out) == (2, "")
    assert err == f"{FIG1}:20:1: 'ring' has no parent 'add_monoid' to put first\n"


def test_repeated_parent_order_entries_form_a_prefix(run_cli):
    code, out, err = run_cli("elaborate", FIG1, "--parent-order", "ring:add_comm_group",
                             "--parent-order", "ring:semiring")
    assert (code, err) == (0, "")
    assert ("structure ring (α : Type) where\n"
            "  (to_add_comm_group : @add_comm_group α)\n"
            "  (one : α)\n"
            "  (mul : α → α → α)\n") in out


def test_parent_order_naming_a_parent_twice_is_rejected(run_cli):
    code, out, err = run_cli("elaborate", FIG1, "--parent-order", "ring:semiring",
                             "--parent-order", "ring:semiring")
    assert (code, out) == (2, "")
    assert err == (f"{FIG1}:20:1: parent-order override for 'ring' names "
                   f"'semiring' twice\n")


def test_in_process_calls_share_no_parser_state(run_cli, capsys):
    """The argument parser is built once per process; one call's arguments,
    or its error, must not reach the next."""
    reordered = run_cli("diamonds", FIG1, "--eta-kernel", "off",
                        "--parent-order", "add_comm_group:add_comm_monoid")
    assert reordered[0] == 0
    assert run_cli("diamonds", FIG1, "--eta-kernel", "off",
                   "--parent-order", "add_comm_group:add_comm_monoid") == reordered
    declared = run_cli("diamonds", FIG1, "--eta-kernel", "off")
    assert declared[0] == 1 and declared != reordered
    with pytest.raises(SystemExit) as exc:
        cli_main(["diamonds", FIG1, "--eta-kernel", "sometimes"])
    assert exc.value.code == 2
    assert "argument --eta-kernel: invalid choice" in capsys.readouterr().err
    assert run_cli("diamonds", FIG1, "--eta-kernel", "off") == declared


@pytest.mark.parametrize("command, positionals", [
    ("resolve", ["add_monoid"]),
    ("defeq", ["@semiring.to_add_comm_monoid R (@ring.to_semiring R iR)",
               "@add_comm_group.to_add_comm_monoid R (@ring.to_add_comm_group R iR)"]),
])
def test_positionals_may_follow_options(run_cli, command, positionals):
    before = run_cli(command, FIG1, *positionals, "--trace", "--eta-kernel", "off")
    assert before[0] in (0, 1) and before[2] == ""
    assert len(before[1].splitlines()) > 2  # a result line and its trace
    assert run_cli(command, FIG1, "--trace", *positionals, "--eta-kernel", "off") == before
    assert run_cli(command, "--trace", FIG1, "--eta-kernel", "off", *positionals) == before


def test_unknown_options_are_still_reported_by_the_top_level_parser(capsys):
    for argv in (["resolve", FIG1, "--bogus"], ["resolve", FIG1, "--bogus", "add_monoid"],
                 ["resolve", FIG1, "add_monoid", "extra"]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        unknown = " ".join(argv[2:]) if argv[2] == "--bogus" else "extra"
        assert capsys.readouterr() == ("", (
            "usage: hier [-h] {elaborate,defeq,resolve,diamonds,spanning-search} ...\n"
            f"hier: error: unrecognized arguments: {unknown}\n"))


def test_a_subcommand_error_prints_its_full_usage(capsys):
    """The usage that argparse formats for the subcommand, set once when the
    parser is built rather than formatted on every parse."""
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli_main(["resolve"])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", (
            "usage: hier resolve [-h] [--encoding {flat,flat-hack,nested}]\n"
            "                    [--eta-kernel {on,off}] [--eta-unifier {on,off}]\n"
            "                    [--emit {text,json}] [--seed SEED] [--max-depth MAX_DEPTH]\n"
            "                    [--trace] [--parent-order CLASS:PARENT]\n"
            "                    path [goal]\n"
            "hier resolve: error: the following arguments are required: path\n"))


def test_unknown_encoding_is_rejected_by_the_argument_parser(run_cli, capsys):
    with pytest.raises(SystemExit):
        cli_main(["elaborate", FIG1, "--encoding", "packed"])
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["elaborate", "spanning-search"])
def test_trace_is_rejected_where_there_is_nothing_to_trace(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([command, FIG1, "--trace"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err


def test_negative_max_depth_is_rejected_by_the_argument_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["resolve", FIG1, "--max-depth", "-1"])
    assert exc.value.code == 2
    assert "argument --max-depth: must be 0 or more, got -1" in capsys.readouterr().err
