"""Diamond-analysis tests: the instance graph, diamond enumeration, the
commutation oracle and predictor, placement search, and reports."""

from collections import Counter

import jsonschema
import pytest

import reference

from hierlab import analyzer, elaborator
from hierlab.analyzer import (
    ANALYZER_REPORT_SCHEMA,
    CycleDetected,
    Edge,
    HierGraph,
    PathLimitExceeded,
    analyze,
    build_graph,
    check_diamond,
    commutes_under,
    enumerate_diamonds,
    path_composite,
    predict_diamond,
    random_hierarchy,
    report_dict,
    spanning_search,
)
from hierlab.elaborator import PREFERRED, EncodingStrategy, InstanceInfo, elaborate
from hierlab.kernel import DefEqConfig, FuelExhausted, Trace, check_type, defeq
from hierlab.surface import parse
from hierlab.terms import Binder, Const, FreeVar, apps, unfold_apps
from conftest import CORPUS, ETA_OFF, ETA_ON, LONG_DIAMOND, cube_source, load


def path_names(path):
    return [e.decl_name for e in path]


def diamond_key(report):
    d = report.diamond
    return (d.source, d.target, tuple(path_names(d.path_a)), tuple(path_names(d.path_b)))


# ---------------------------------------------------------------------------
# Graph construction

def test_graph_has_one_edge_per_forgetful_instance(fig1_nested):
    graph = build_graph(fig1_nested.env, fig1_nested.instances)
    assert len(graph.edges) == 7
    kinds = [e.kind for e in graph.edges]
    assert kinds.count("preferred") == 5
    assert kinds.count("non-preferred") == 2


def test_graph_includes_root_classes_as_nodes(fig1_nested):
    graph = build_graph(fig1_nested.env, fig1_nested.instances)
    assert "add_monoid" in graph.nodes


def test_flat_encoding_edges_are_all_flat_kind(fig1_flat):
    graph = build_graph(fig1_flat.env, fig1_flat.instances)
    assert len(graph.edges) == 7
    assert {e.kind for e in graph.edges} == {"flat"}


def test_user_instances_are_not_graph_edges(module_nested):
    graph = build_graph(module_nested.env, module_nested.instances)
    assert all(e.decl_name != "semiring.to_module" for e in graph.edges)
    assert all(e.decl_name != "int.ring" for e in graph.edges)


def test_cyclic_instance_graphs_are_rejected():
    env_elab = elaborate(parse("class a (α : Type)\nclass b (α : Type)"),
                         EncodingStrategy("nested"))
    fake = [
        InstanceInfo("a.to_b", "a", "b", 1000, PREFERRED),
        InstanceInfo("b.to_a", "b", "a", 1000, PREFERRED),
    ]
    with pytest.raises(CycleDetected):
        build_graph(env_elab.env, fake)


# ---------------------------------------------------------------------------
# Diamond enumeration

def test_fig1_nested_has_exactly_five_diamonds(fig1_nested):
    graph = build_graph(fig1_nested.env, fig1_nested.instances)
    diamonds = enumerate_diamonds(graph)
    keys = [(d.source, d.target, tuple(path_names(d.path_a)), tuple(path_names(d.path_b)))
            for d in diamonds]
    assert keys == [
        ("add_comm_group", "add_monoid",
         ("add_comm_group.to_add_comm_monoid", "add_comm_monoid.to_add_monoid"),
         ("add_comm_group.to_add_group", "add_group.to_add_monoid")),
        ("ring", "add_comm_monoid",
         ("ring.to_add_comm_group", "add_comm_group.to_add_comm_monoid"),
         ("ring.to_semiring", "semiring.to_add_comm_monoid")),
        ("ring", "add_monoid",
         ("ring.to_add_comm_group", "add_comm_group.to_add_comm_monoid",
          "add_comm_monoid.to_add_monoid"),
         ("ring.to_add_comm_group", "add_comm_group.to_add_group",
          "add_group.to_add_monoid")),
        ("ring", "add_monoid",
         ("ring.to_add_comm_group", "add_comm_group.to_add_comm_monoid",
          "add_comm_monoid.to_add_monoid"),
         ("ring.to_semiring", "semiring.to_add_comm_monoid",
          "add_comm_monoid.to_add_monoid")),
        ("ring", "add_monoid",
         ("ring.to_add_comm_group", "add_comm_group.to_add_group",
          "add_group.to_add_monoid"),
         ("ring.to_semiring", "semiring.to_add_comm_monoid",
          "add_comm_monoid.to_add_monoid")),
    ]


def test_path_length_cap_bounds_the_enumeration(fig1_nested):
    graph = build_graph(fig1_nested.env, fig1_nested.instances)
    assert len(enumerate_diamonds(graph, max_path_len=2)) == 2
    with pytest.raises(ValueError):
        enumerate_diamonds(graph, max_path_len=1)


def test_analyze_refuses_diamonds_with_paths_beyond_the_limit():
    """enumerate_diamonds alone would leave the e7 -> a diamond out."""
    elab = elaborate(parse(LONG_DIAMOND), EncodingStrategy("nested"))
    with pytest.raises(PathLimitExceeded) as info:
        analyze(elab, ETA_OFF)
    assert (info.value.source, info.value.target, info.value.limit) == ("e7", "a", 8)
    assert len(analyze(elab, ETA_OFF, max_path_len=9)) == 8


def test_long_chains_have_one_path_per_pair_and_no_limit():
    source = "class k0 (α : Type) where\n  (f0 : α)\n" + "".join(
        f"class k{k} (α : Type) extends k{k - 1} α\n" for k in range(1, 1000))
    assert analyze(elaborate(parse(source), EncodingStrategy("nested")), ETA_OFF) == []


def test_path_composite_applies_edges_outside_in(fig1_nested):
    graph = build_graph(fig1_nested.env, fig1_nested.instances)
    path = next(
        d.path_b for d in enumerate_diamonds(graph)
        if d.source == "ring" and d.target == "add_comm_monoid")
    R = FreeVar("R")
    term = path_composite(fig1_nested.env, path, (R,), FreeVar("iR"))
    assert term == apps(Const("semiring.to_add_comm_monoid"), R,
                        apps(Const("ring.to_semiring"), R, FreeVar("iR")))


# ---------------------------------------------------------------------------
# Oracle and predictor on the bundled hierarchies

def test_fig1_nested_verdicts_without_eta(fig1_nested):
    reports = analyze(fig1_nested, ETA_OFF)
    verdicts = {diamond_key(r): (r.oracle, r.predictor) for r in reports}
    failing = ("ring", "add_comm_monoid",
               ("ring.to_add_comm_group", "add_comm_group.to_add_comm_monoid"),
               ("ring.to_semiring", "semiring.to_add_comm_monoid"))
    for key, (oracle, predictor) in verdicts.items():
        if key == failing:
            assert (oracle, predictor) == (False, False)
        else:
            assert (oracle, predictor) == (True, True)


def test_fig1_nested_all_commute_with_eta(fig1_nested):
    reports = analyze(fig1_nested, ETA_ON)
    assert all(r.oracle for r in reports)
    assert all(commutes_under(r, ETA_ON) for r in reports)


def test_fig1_flat_all_commute_without_eta(fig1_flat):
    reports = analyze(fig1_flat, ETA_OFF)
    assert len(reports) == 5
    assert all(r.oracle and r.predictor for r in reports)


def test_fig1_flat_hack_all_commute_without_eta(fig1_hack):
    reports = analyze(fig1_hack, ETA_OFF)
    assert len(reports) == 56
    assert all(r.oracle and r.predictor for r in reports)
    assert all(commutes_under(r, ETA_OFF) for r in reports)


def test_diamond_composites_typecheck(fig1_nested):
    reports = analyze(fig1_nested, ETA_OFF)
    for r in reports:
        source = fig1_nested.classes[r.diamond.source]
        ctx = tuple(source.params) + (
            Binder("i", source.self_type, instance_implicit=True),)
        target = apps(Const(r.diamond.target),
                      *(FreeVar(b.name) for b in source.params))
        for term in (r.term_a, r.term_b):
            ty = check_type(fig1_nested.env, ETA_ON, ctx, term)
            assert defeq(fig1_nested.env, ETA_ON, ctx, ty, target)


def test_predictor_agrees_with_oracle_on_fig1_under_all_placements(fig1_module,
                                                                   fig1_nested,
                                                                   fig1_hack):
    """The last-segment rule matches the equality oracle diamond by diamond,
    for the default placement, the swapped placement, and the flat-hack
    encoding, all without eta."""
    swapped = elaborate(fig1_module, EncodingStrategy("nested").with_first_parent(
        {"add_comm_group": "add_comm_monoid"}))
    for elab in (fig1_nested, swapped, fig1_hack):
        for r in analyze(elab, ETA_OFF):
            assert r.oracle == r.predictor, diamond_key(r)


def test_commutes_under_requires_the_predictor_only_without_eta(fig1_nested):
    reports = analyze(fig1_nested, ETA_OFF)
    failing = [r for r in reports if not r.oracle]
    assert len(failing) == 1
    assert not commutes_under(failing[0], ETA_OFF)
    passing = [r for r in reports if r.oracle]
    assert all(commutes_under(r, ETA_OFF) for r in passing)


def test_predict_diamond_compares_last_edge_kinds():
    pref = Edge("b", "c", "b.to_c", "preferred")
    nonpref = Edge("b", "c", "b.to_c_alt", "non-preferred")
    lead_a = Edge("a", "b", "a.to_b", "preferred")
    lead_b = Edge("a", "b", "a.to_b_alt", "non-preferred")

    from hierlab.analyzer import Diamond
    both_pref = Diamond("a", "c", (lead_a, pref), (lead_b, pref))
    mixed = Diamond("a", "c", (lead_a, pref), (lead_b, nonpref))
    assert predict_diamond(both_pref) is True
    assert predict_diamond(mixed) is False


# ---------------------------------------------------------------------------
# Oracles decided from per-path normal forms

def pairwise(elab, config):
    graph = build_graph(elab.env, elab.instances)
    return [check_diamond(elab.env, d, config) for d in enumerate_diamonds(graph)]


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.hier")))
def test_analyze_matches_pairwise_check_diamond_on_the_corpus(name):
    module = load(name)
    for kind in ("nested", "flat", "flat_hack"):
        elab = elaborate(module, EncodingStrategy(kind))
        for config in (ETA_OFF, ETA_ON):
            assert analyze(elab, config) == pairwise(elab, config), (kind, config)


def count_calls(monkeypatch, *names: str) -> Counter:
    """Count calls of functions the analyzer looks up as module globals."""
    calls: Counter = Counter()
    for name in names:
        original = getattr(analyzer, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(analyzer, name, counted)
    return calls


@pytest.mark.parametrize("config", [ETA_OFF, ETA_ON], ids=["eta-off", "eta-on"])
def test_cube_is_decided_by_one_normal_form_per_path(monkeypatch, cube_module, config):
    elab = elaborate(cube_module, EncodingStrategy("nested"))
    calls = count_calls(monkeypatch, "normalize", "defeq")
    reports = analyze(elab, config)
    assert len(reports) == 21
    assert calls == {"normalize": 27}


def test_fig1_nested_with_eta_asks_the_kernel_once(monkeypatch, fig1_nested):
    calls = count_calls(monkeypatch, "normalize", "defeq")
    assert all(r.oracle for r in analyze(fig1_nested, ETA_ON))
    assert calls == {"normalize": 12, "defeq": 1}


@pytest.mark.parametrize("n, nested_calls", [(4, 148), (5, 835)])
def test_each_normal_form_unfolds_one_edge(monkeypatch, n, nested_calls):
    """A path's normal form extends its prefix's by one edge, so every
    normalize call takes exactly one delta step, under every encoding."""
    normalize = analyzer.normalize
    steps: list[int] = []

    def traced(env, config, ctx, term, trace=None):
        log = Trace()
        try:
            return normalize(env, config, ctx, term, log)
        finally:
            steps.append(sum(1 for line in log.lines if line.lstrip().startswith("delta ")))
    monkeypatch.setattr(analyzer, "normalize", traced)
    module = parse(cube_source(n))
    for kind in ("nested", "flat", "flat_hack"):
        steps.clear()
        analyze(elaborate(module, EncodingStrategy(kind)), ETA_OFF)
        assert steps and set(steps) == {1}, kind
        if kind == "nested":
            assert len(steps) == nested_calls


@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.hier")))
def test_analyze_runs_out_of_fuel_only_where_check_diamond_does(name):
    """Normal forms by extension spend fuel per trie node, not per path.
    At every small budget analyze still agrees with the pairwise reference
    wherever that returns, and raises only where it raises."""
    module = load(name)
    for kind in ("nested", "flat", "flat_hack"):
        elab = elaborate(module, EncodingStrategy(kind))
        diamonds = enumerate_diamonds(build_graph(elab.env, elab.instances))
        for eta in (False, True):
            for depth in range(1, 21):
                config = DefEqConfig(eta_kernel=eta, eta_unifier=False, unfold_depth=depth)
                reference = {}
                for d in diamonds:
                    try:
                        reference[d] = check_diamond(elab.env, d, config).oracle
                    except FuelExhausted:
                        pass
                try:
                    reports = analyze(elab, config)
                except FuelExhausted:
                    assert len(reference) < len(diamonds), (kind, eta, depth)
                    continue
                for r in reports:
                    if r.diamond in reference:
                        assert r.oracle == reference[r.diamond], (kind, eta, depth)


def test_paths_out_of_fuel_fall_back_to_check_diamond(monkeypatch, fig1_nested):
    """A path whose normal form runs out of fuel has its diamonds decided by
    the pairwise reference; here that is the semiring route to
    add_comm_monoid, used by one diamond."""
    normalize = analyzer.normalize

    def starved(env, config, ctx, term, trace=None):
        if unfold_apps(term)[0] == Const("semiring.to_add_comm_monoid"):
            raise FuelExhausted("starved")
        return normalize(env, config, ctx, term, trace)
    monkeypatch.setattr(analyzer, "normalize", starved)
    calls = count_calls(monkeypatch, "check_diamond")
    for config in (ETA_OFF, ETA_ON):
        assert analyze(fig1_nested, config) == pairwise(fig1_nested, config)
    assert calls["check_diamond"] == 2


# ---------------------------------------------------------------------------
# Spanning search

def test_fig1_placement_search_finds_the_two_coherent_placements(fig1_module):
    placements = spanning_search(fig1_module, EncodingStrategy("nested"), ETA_OFF)
    assert len(placements) == 4
    summary = {p.first_parents: p.coherent for p in placements}
    assert summary == {
        (("add_comm_group", "add_group"), ("ring", "semiring")): False,
        (("add_comm_group", "add_group"), ("ring", "add_comm_group")): False,
        (("add_comm_group", "add_comm_monoid"), ("ring", "semiring")): True,
        (("add_comm_group", "add_comm_monoid"), ("ring", "add_comm_group")): True,
    }
    assert all(p.nonfirst_order_invariant for p in placements)


def test_fig1_incoherent_placements_fail_on_the_expected_diamond(fig1_module):
    placements = spanning_search(fig1_module, EncodingStrategy("nested"), ETA_OFF)
    for p in placements:
        bad = [(r.diamond.source, r.diamond.target)
               for r in p.diamonds if not commutes_under(r, ETA_OFF)]
        if p.coherent:
            assert bad == []
        else:
            assert set(bad) == {("ring", "add_comm_monoid")}


def test_no_cube_placement_is_coherent_without_eta(cube_module):
    placements = spanning_search(cube_module, EncodingStrategy("nested"), ETA_OFF)
    assert len(placements) == 24
    assert sum(p.coherent for p in placements) == 0
    assert all(len(p.diamonds) == 21 for p in placements)
    assert all(p.nonfirst_order_invariant for p in placements)


def count_declarations(monkeypatch) -> Counter:
    """Count the classes the elaborator declares."""
    calls: Counter = Counter()
    declare = elaborator._declare_class

    def counted(*args, **kwargs):
        calls["_declare_class"] += 1
        return declare(*args, **kwargs)
    monkeypatch.setattr(elaborator, "_declare_class", counted)
    return calls


def test_cube_spanning_search_elaborates_each_parent_order_once(monkeypatch,
                                                               cube_module):
    """Per placement (2·2·2·3 first-parent choices) both orders of
    top_mag's two remaining parents: 24·2 analysed orders.  Each class is
    declared once per distinct prefix of the choices up to it: the four
    classes with one parent once, the three pair classes 2, 4 and 8 times,
    top_mag 48 times.  A source's normal forms are likewise computed once
    per distinct prefix of the choices up to it."""
    calls = count_calls(monkeypatch, "enumerate_diamonds", "normalize")
    declarations = count_declarations(monkeypatch)
    spanning_search(cube_module, EncodingStrategy("nested"), ETA_OFF)
    calls.update(declarations)
    assert calls == {"_declare_class": 66, "enumerate_diamonds": 48, "normalize": 776}


def test_cube_flat_hack_spanning_search_declares_each_prefix_once(monkeypatch,
                                                                 cube_module):
    """As under nested, plus the one flat_hack class every order shares."""
    declarations = count_declarations(monkeypatch)
    spanning_search(cube_module, EncodingStrategy("flat_hack"), ETA_OFF)
    assert declarations == {"_declare_class": 67}


def test_a_parent_named_flat_hack_is_not_a_choice_as_in_the_whole_module_search():
    """Both searches leave a parent named like flat_hack's marker class out
    of the choices, even under nested, so `a` below has one parent to
    choose and `d` three."""
    module = parse("class flat_hack (α : Type) where\n  (y : α)\n"
                   "class b (α : Type) where\n  (x : α)\n"
                   "class c (α : Type) extends b α\n"
                   "class a (α : Type) extends flat_hack α, c α\n"
                   "class d (α : Type) extends a α, b α, c α\n")
    placements = spanning_search(module, EncodingStrategy("nested"), ETA_OFF)
    assert [p.first_parents for p in placements] == [(("d", "a"),), (("d", "b"),),
                                                     (("d", "c"),)]
    assert placements == reference.spanning_search(module, EncodingStrategy("nested"),
                                                   ETA_OFF)


def test_every_cube_placement_is_coherent_with_eta(cube_module):
    placements = spanning_search(cube_module, EncodingStrategy("nested"), ETA_ON)
    assert len(placements) == 24
    assert sum(p.coherent for p in placements) == 24


def test_spanning_search_without_multi_parent_classes_is_vacuous():
    placements = spanning_search(load("point.hier"), EncodingStrategy("nested"),
                                 ETA_OFF)
    assert len(placements) == 1
    assert placements[0].first_parents == ()
    assert placements[0].coherent
    assert placements[0].diamonds == ()


# ---------------------------------------------------------------------------
# Reports

def test_report_dict_matches_its_schema(fig1_nested):
    payload = report_dict("nested", ETA_OFF, analyze(fig1_nested, ETA_OFF))
    jsonschema.validate(payload, ANALYZER_REPORT_SCHEMA)
    assert payload["summary"] == {"total": 5, "commuting": 4, "mismatches": 0}
    assert payload["config"] == {"encoding": "nested", "eta_kernel": False,
                                 "eta_unifier": False}


def test_report_dict_flags_the_failing_diamond(fig1_nested):
    payload = report_dict("nested", ETA_OFF, analyze(fig1_nested, ETA_OFF))
    failing = [d for d in payload["diamonds"] if not d["oracle"]]
    assert failing == [{
        "source": "ring",
        "target": "add_comm_monoid",
        "pathA": ["ring.to_add_comm_group", "add_comm_group.to_add_comm_monoid"],
        "pathB": ["ring.to_semiring", "semiring.to_add_comm_monoid"],
        "oracle": False,
        "predictor": False,
    }]


# ---------------------------------------------------------------------------
# Random hierarchies

def test_random_hierarchy_is_deterministic_per_seed():
    assert random_hierarchy(7) == random_hierarchy(7)
    assert random_hierarchy(7) != random_hierarchy(8)


@pytest.mark.parametrize("seed", range(12))
def test_random_hierarchies_elaborate_under_every_encoding(seed):
    module = parse(random_hierarchy(seed))
    for kind in ("flat", "nested", "flat_hack"):
        elab = elaborate(module, EncodingStrategy(kind))
        assert elab.classes
