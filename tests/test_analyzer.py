"""Diamond-analysis tests: the instance graph, diamond enumeration, the
commutation oracle and predictor, placement search, and reports."""

import dataclasses
import gc
import itertools
import weakref
from collections import Counter

import jsonschema
import pytest

import reference

from hierlab import analyzer, elaborator
from hierlab.analyzer import (
    ANALYZER_REPORT_SCHEMA,
    CycleDetected,
    HierGraph,
    PathLimitExceeded,
    GroupReport,
    PathGroup,
    analyze,
    build_graph,
    check_diamond,
    commutes_under,
    diamond_rows,
    enumerate_diamonds,
    path_composite,
    random_hierarchy,
    same_verdicts,
    spanning_search,
)
from hierlab.declarations import instance_telescope
from hierlab.elaborator import (
    FLAT, PREFERRED, SYNTHESIZED, EncodingStrategy, InstanceInfo, begin_elaboration,
    elaborate, elaborate_item,
)
from hierlab.kernel import DefEqConfig, FuelExhausted, Trace, check_type, defeq, normalize
from hierlab.surface import parse
from hierlab.terms import Const, FreeVar, Mk, apps, unfold_apps
from conftest import CORPUS, ETA_OFF, ETA_ON, LONG_DIAMOND, cube_source, load


def path_names(path):
    return [e.decl_name for e in path]


def rows(elab, config, **kwargs):
    """The library's verdicts on ``elab``'s diamonds, one row each."""
    return list(diamond_rows(analyze(elab, config, **kwargs)))


# ---------------------------------------------------------------------------
# Graph construction

def test_graph_has_one_edge_per_forgetful_instance(fig1_nested):
    graph = build_graph(fig1_nested.env, fig1_nested.instances)
    assert len(graph.edges) == 7
    assert all(isinstance(e, InstanceInfo) for e in graph.edges)
    kinds = [e.kind for e in graph.edges]
    assert kinds.count(PREFERRED) == 5
    assert kinds.count(SYNTHESIZED) == 2


def test_graph_includes_root_classes_as_nodes(fig1_nested):
    graph = build_graph(fig1_nested.env, fig1_nested.instances)
    assert "add_monoid" in graph.nodes


def test_flat_encoding_edges_are_all_flat_kind(fig1_flat):
    graph = build_graph(fig1_flat.env, fig1_flat.instances)
    assert len(graph.edges) == 7
    assert {e.kind for e in graph.edges} == {FLAT}


def test_user_instances_are_not_graph_edges(module_nested):
    graph = build_graph(module_nested.env, module_nested.instances)
    assert all(e.decl_name != "semiring.to_module" for e in graph.edges)
    assert all(e.decl_name != "int.ring" for e in graph.edges)


def test_graph_nodes_are_in_topological_order(fig1_nested, fig1_flat):
    for elab in (fig1_nested, fig1_flat,
                 elaborate(load("cube.hier"), EncodingStrategy("nested"))):
        graph = build_graph(elab.env, elab.instances)
        position = {n: i for i, n in enumerate(graph.nodes)}
        assert sorted(position) == sorted(elab.classes)
        assert all(position[e.from_class] < position[e.to_class] for e in graph.edges)


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
    assert len(rows(elab, ETA_OFF, max_path_len=9)) == 8


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
    verdicts = {row[:4]: row[4:] for row in rows(fig1_nested, ETA_OFF)}
    failing = ("ring", "add_comm_monoid",
               ("ring.to_add_comm_group", "add_comm_group.to_add_comm_monoid"),
               ("ring.to_semiring", "semiring.to_add_comm_monoid"))
    for key, (oracle, predictor) in verdicts.items():
        if key == failing:
            assert (oracle, predictor) == (False, False)
        else:
            assert (oracle, predictor) == (True, True)


def test_fig1_nested_all_commute_with_eta(fig1_nested):
    verdicts = [row[4:] for row in rows(fig1_nested, ETA_ON)]
    assert all(oracle for oracle, _ in verdicts)
    assert all(commutes_under(oracle, predictor, ETA_ON) for oracle, predictor in verdicts)


def test_fig1_flat_all_commute_without_eta(fig1_flat):
    verdicts = [row[4:] for row in rows(fig1_flat, ETA_OFF)]
    assert len(verdicts) == 5
    assert all(oracle and predictor for oracle, predictor in verdicts)


def test_fig1_flat_hack_all_commute_without_eta(fig1_hack):
    verdicts = [row[4:] for row in rows(fig1_hack, ETA_OFF)]
    assert len(verdicts) == 56
    assert all(oracle and predictor for oracle, predictor in verdicts)
    assert all(commutes_under(oracle, predictor, ETA_OFF) for oracle, predictor in verdicts)


def test_diamond_composites_typecheck(fig1_nested):
    for r in analyze(fig1_nested, ETA_OFF):
        source = fig1_nested.classes[r.group.source]
        ctx = instance_telescope(source.name, source.params, "i")
        args = tuple(FreeVar(b.name) for b in source.params)
        target = apps(Const(r.group.target), *args)
        for path in r.group.paths:
            term = path_composite(fig1_nested.env, path, args, FreeVar("i"))
            ty = check_type(fig1_nested.env, ETA_ON, ctx, term)
            assert defeq(fig1_nested.env, ETA_ON, ctx, ty, target)


def test_predictor_agrees_with_oracle_on_fig1_under_all_placements(fig1_module,
                                                                   fig1_nested,
                                                                   fig1_hack):
    """The last-segment rule matches the equality oracle diamond by diamond,
    for the default placement, the swapped placement, and the flat-hack
    encoding, all without eta."""
    swapped = elaborate(fig1_module, EncodingStrategy(
        "nested", {"add_comm_group": ("add_comm_monoid",)}))
    for elab in (fig1_nested, swapped, fig1_hack):
        for *key, oracle, predictor in rows(elab, ETA_OFF):
            assert oracle == predictor, key


def test_commutes_under_requires_the_predictor_only_without_eta(fig1_nested):
    verdicts = [row[4:] for row in rows(fig1_nested, ETA_OFF)]
    failing = [v for v in verdicts if not v[0]]
    assert len(failing) == 1
    assert not commutes_under(*failing[0], ETA_OFF)
    passing = [v for v in verdicts if v[0]]
    assert all(commutes_under(*v, ETA_OFF) for v in passing)


def test_predict_diamond_compares_last_edge_kinds():
    pref = InstanceInfo("b.to_c", "b", "c", 1000, PREFERRED)
    nonpref = InstanceInfo("b.to_c_alt", "b", "c", 100, SYNTHESIZED)
    lead_a = InstanceInfo("a.to_b", "a", "b", 1000, PREFERRED)
    lead_b = InstanceInfo("a.to_b_alt", "a", "b", 100, SYNTHESIZED)

    from hierlab.analyzer import Diamond
    both_pref = Diamond("a", "c", (lead_a, pref), (lead_b, pref))
    mixed = Diamond("a", "c", (lead_a, pref), (lead_b, nonpref))
    assert reference.predict_diamond(both_pref) is True
    assert reference.predict_diamond(mixed) is False
    group = PathGroup("a", "c", ((lead_a, pref), (lead_b, pref), (lead_b, nonpref)))
    report = GroupReport(group, (0, 0, 0), (True, True, False), frozenset())
    assert [(i, j, predictor) for i, j, _, predictor in report.pairs()] == \
        [(0, 1, True), (0, 2, False), (1, 2, False)]


def test_order_comparison_reads_pair_verdicts_not_path_kinds():
    """Flipping every path's kind keeps every predictor, and renaming the
    forms keeps every oracle: both orders give each pair the same verdicts.
    Flipping one path's kind, or splitting one form, changes some pair."""
    group = PathGroup("a", "d", ((), (), ()))
    first = GroupReport(group, (4, 4, 7), (True, False, False), frozenset())
    assert same_verdicts(first, GroupReport(group, (9, 9, 2), (False, True, True),
                                            frozenset()))
    assert not same_verdicts(first, GroupReport(group, (4, 4, 7), (True, True, False),
                                                frozenset()))
    assert not same_verdicts(first, GroupReport(group, (4, 5, 7), (True, False, False),
                                                frozenset()))
    # The kernel found forms 4 and 7 equal: every oracle holds, as when all
    # three paths have one form.
    joined = GroupReport(group, (4, 4, 7), (True, False, False),
                         frozenset({(0, 2), (1, 2)}))
    assert same_verdicts(joined, GroupReport(group, (3, 3, 3), (False, True, True),
                                             frozenset()))
    assert not same_verdicts(joined, first)


def test_order_comparison_of_reports_from_separate_checks():
    """Reports of one group made by separate checks are distinct objects,
    as in a spanning search where a source reaches other structures, so
    their pairs are compared.  Under nested without eta, fig1's ring ->
    add_comm_monoid diamond fails both verdicts in the declared order;
    ring storing add_comm_group makes its oracle hold, and add_comm_group
    storing add_comm_monoid instead makes its predictor hold too."""
    module = load("fig1.hier")

    def report(order):
        reports = analyze(elaborate(module, EncodingStrategy("nested", order)), ETA_OFF)
        (r,) = [r for r in reports if (r.group.source, r.group.target)
                == ("ring", "add_comm_monoid")]
        assert [path_names(p) for p in r.group.paths] == [
            ["ring.to_add_comm_group", "add_comm_group.to_add_comm_monoid"],
            ["ring.to_semiring", "semiring.to_add_comm_monoid"]]
        return r

    declared, again = report({}), report({})
    oracle = report({"ring": ("add_comm_group",)})
    both = report({"add_comm_group": ("add_comm_monoid",)})
    assert list(declared.pairs())[0][2:] == (False, False)
    assert declared is not again and same_verdicts(declared, again)
    assert list(oracle.pairs())[0][2:] == (True, False)
    assert not same_verdicts(declared, oracle)
    assert list(both.pairs())[0][2:] == (True, True)
    assert not same_verdicts(oracle, both)


# ---------------------------------------------------------------------------
# Oracles decided from per-path normal forms

@pytest.mark.parametrize("name", sorted(p.name for p in CORPUS.glob("*.hier")))
def test_analyze_matches_pairwise_check_diamond_on_the_corpus(name):
    module = load(name)
    for kind in ("nested", "flat", "flat_hack"):
        elab = elaborate(module, EncodingStrategy(kind))
        for config in (ETA_OFF, ETA_ON):
            assert rows(elab, config) == reference.analyze(elab, config), (kind, config)


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
    assert len(rows(elab, config)) == 21
    assert calls == {"normalize": 24}


def test_fig1_nested_with_eta_asks_the_kernel_once(monkeypatch, fig1_nested):
    calls = count_calls(monkeypatch, "normalize", "defeq")
    assert all(row[4] for row in rows(fig1_nested, ETA_ON))
    assert calls == {"normalize": 12, "defeq": 1}


@pytest.mark.parametrize("n, nested_calls", [(4, 104), (5, 400)])
def test_each_normal_form_unfolds_one_edge(monkeypatch, n, nested_calls):
    """A path's normal form extends its prefix's by one edge, so every
    normalize call takes exactly one delta step, under every encoding."""
    normalize = analyzer.normalize
    steps: list[int] = []

    def traced(env, config, term, trace=None):
        log = Trace()
        try:
            return normalize(env, config, term, log)
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
    """Normal forms by extension spend fuel per extension, not per path.
    At every small budget analyze still agrees with the pairwise reference
    wherever that returns, and raises only where it raises."""
    module = load(name)
    for kind in ("nested", "flat", "flat_hack"):
        elab = elaborate(module, EncodingStrategy(kind))
        diamonds = enumerate_diamonds(build_graph(elab.env, elab.instances))
        for eta in (False, True):
            for depth in range(1, 21):
                config = DefEqConfig(eta_kernel=eta, eta_unifier=False, unfold_depth=depth)
                pairwise = {}
                for d in diamonds:
                    try:
                        pairwise[(d.source, d.target, tuple(path_names(d.path_a)),
                                  tuple(path_names(d.path_b)))] = \
                            check_diamond(elab.env, d, config)
                    except FuelExhausted:
                        pass
                try:
                    verdicts = rows(elab, config)
                except FuelExhausted:
                    assert len(pairwise) < len(diamonds), (kind, eta, depth)
                    continue
                for *key, oracle, _ in verdicts:
                    if tuple(key) in pairwise:
                        assert oracle == pairwise[tuple(key)], (kind, eta, depth)


def test_paths_out_of_fuel_fall_back_to_check_diamond(monkeypatch, fig1_nested):
    """A path whose normal form, or a prefix's, runs out of fuel has its
    diamonds decided by the pairwise reference; here that is the semiring
    route to add_comm_monoid and its two extensions, used by one diamond
    each, under both configs."""
    normalize = analyzer.normalize

    def starved(env, config, term, trace=None):
        if unfold_apps(term)[0] == Const("semiring.to_add_comm_monoid"):
            raise FuelExhausted("starved")
        return normalize(env, config, term, trace)
    monkeypatch.setattr(analyzer, "normalize", starved)
    calls = count_calls(monkeypatch, "check_diamond")
    for config in (ETA_OFF, ETA_ON):
        assert rows(fig1_nested, config) == reference.analyze(fig1_nested, config)
    assert calls["check_diamond"] == 6


def test_a_starved_path_leaves_the_other_distinct_forms_unequal_without_eta(monkeypatch):
    """Under nested, ``d`` reaches ``a`` by ``d.to_a`` and through ``c``
    twice.  Starving ``c.to_a`` leaves two paths with distinct normal forms:
    without eta that pair is unequal unasked, and only the pairs with the
    starved path go to the pairwise reference, here and in ``c -> a``."""
    elab = elaborate(parse("class a (α : Type) where\n  (x : α → α → α)\n"
                           "class b (α : Type) extends a α where\n  (y : α)\n"
                           "class c (α : Type) extends a α, b α where\n  (z : α)\n"
                           "class d (α : Type) extends c α, a α\n"), EncodingStrategy("nested"))
    normalize = analyzer.normalize

    def starved(env, config, term, trace=None):
        if unfold_apps(term)[0] == Const("c.to_a"):
            raise FuelExhausted("starved")
        return normalize(env, config, term, trace)
    monkeypatch.setattr(analyzer, "normalize", starved)
    expected = reference.analyze(elab, ETA_OFF)
    calls = count_calls(monkeypatch, "check_diamond", "defeq")
    reports = analyze(elab, ETA_OFF)
    assert calls == {"check_diamond": 3, "defeq": 3}
    assert list(diamond_rows(reports)) == expected
    (group,) = [r for r in reports if len(r.group.paths) == 3]
    assert [path_names(p) for p in group.group.paths] == [
        ["d.to_a"], ["d.to_c", "c.to_a"], ["d.to_c", "c.to_b", "b.to_a"]]
    assert group.forms[1] < 0 <= group.forms[0] != group.forms[2]


def test_sources_of_one_analysis_share_a_path_record(monkeypatch):
    """Under flat, `a.to_x` and `b.to_x` both rebuild the fieldless `x` as
    `x.mk α`, so sources a and b reach one prefix record, and `x.to_z` (and
    likewise `y.to_z`) extends it once for both: one record object from one
    normalize call.  Each source's two first edges are normalized apart."""
    elab = elaborate(parse("class z (α : Type)\n"
                           "class x (α : Type) extends z α\n"
                           "class y (α : Type) extends z α\n"
                           "class a (α : Type) extends x α, y α\n"
                           "class b (α : Type) extends x α, y α\n"), EncodingStrategy("flat"))
    extended = []
    extend = analyzer._Reuse.extend

    def logged(self, env, edge, record):
        child = extend(self, env, edge, record)
        extended.append((edge.decl_name, record, child))
        return child
    monkeypatch.setattr(analyzer._Reuse, "extend", logged)
    calls = count_calls(monkeypatch, "normalize")
    assert [row[:2] for row in rows(elab, ETA_OFF)] == [("a", "z"), ("b", "z")]
    assert calls == {"normalize": 6}
    for name in ("x.to_z", "y.to_z"):
        (prefix, child), (other_prefix, other_child) = (
            (record, child) for edge, record, child in extended if edge == name)
        assert prefix is other_prefix and child is other_child
        assert child[1] == Mk("z", (FreeVar("α"),), ())


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
        bad = [(source, target) for source, target, _, _, oracle, predictor
               in diamond_rows(p.groups) if not commutes_under(oracle, predictor, ETA_OFF)]
        if p.coherent:
            assert bad == []
        else:
            assert set(bad) == {("ring", "add_comm_monoid")}


def test_no_cube_placement_is_coherent_without_eta(cube_module):
    placements = spanning_search(cube_module, EncodingStrategy("nested"), ETA_OFF)
    assert len(placements) == 24
    assert sum(p.coherent for p in placements) == 0
    assert all(len(list(diamond_rows(p.groups))) == 21 for p in placements)
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
    top_mag 48 times.  A source's diamonds are checked once per distinct
    tuple of interned structures of the classes it reaches, 30 times in
    all: orders that lay a class out alike share its structure, so this is
    fewer than the 62 distinct prefixes of the choices up to each source.
    A normal form is computed once per distinct content of its edge and
    prefix, whichever order or source meets it first.  Every order has the same edges, so the graph is
    built, bounded and enumerated once."""
    calls = count_calls(monkeypatch, "build_graph", "_check_path_limit",
                        "enumerate_diamonds", "normalize", "_check_source")
    declarations = count_declarations(monkeypatch)
    spanning_search(cube_module, EncodingStrategy("nested"), ETA_OFF)
    calls.update(declarations)
    assert calls == {"_declare_class": 66, "build_graph": 1, "_check_path_limit": 1,
                     "enumerate_diamonds": 1, "normalize": 138, "_check_source": 30}


def test_cube_flat_hack_spanning_search_declares_each_prefix_once(monkeypatch,
                                                                 cube_module):
    """As under nested, plus the one flat_hack class every order shares.
    Each of the three classes with one parent reaches that class by two
    paths, so it is a source too, checked once."""
    calls = count_calls(monkeypatch, "_check_source", "normalize")
    declarations = count_declarations(monkeypatch)
    spanning_search(cube_module, EncodingStrategy("flat_hack"), ETA_OFF)
    calls.update(declarations)
    assert calls == {"_declare_class": 67, "_check_source": 33, "normalize": 103}


def test_spanning_searches_of_the_benchmark_share_normal_forms(monkeypatch):
    """The normalize calls of the benchmark's 15 spanning-search settings:
    cube, fig1, module and rootonly, nested and flat_hack, eta off and on
    (the flat_hack cube with eta off only).  Each search keeps one table of
    normal forms for all its orders, so a lost cache hit shows here."""
    calls = count_calls(monkeypatch, "normalize")
    for name in ("cube", "fig1", "module", "rootonly"):
        module = load(f"{name}.hier")
        for kind in ("nested", "flat_hack"):
            for config in (ETA_OFF,) if (name, kind) == ("cube", "flat_hack") \
                    else (ETA_OFF, ETA_ON):
                spanning_search(module, EncodingStrategy(kind), config)
    assert calls == {"normalize": 1243}


class _Stop(Exception):
    pass


@pytest.mark.parametrize("kind, expected", [
    ("nested", {"_declare_class": 2639, "_check_source": 34, "normalize": 394}),
    ("flat_hack", {"_declare_class": 2640, "_check_source": 38, "normalize": 253}),
])
def test_four_cube_spanning_search_counts_over_its_first_orders(monkeypatch, kind,
                                                                expected):
    """The 4-cube's search over its first 2,000 orders, stopped where the
    2,001st order, elaborated already, would be checked.  Its full search
    (1,990,656 orders) is too long for a test, and the benchmark does not
    run it, so these counts pin the work an order costs there."""
    calls = count_calls(monkeypatch, "_check_source", "normalize")
    declarations = count_declarations(monkeypatch)
    source_reports = analyzer._source_reports
    orders = 0

    def stopping(*args, **kwargs):
        nonlocal orders
        orders += 1
        if orders > 2000:
            raise _Stop
        return source_reports(*args, **kwargs)
    monkeypatch.setattr(analyzer, "_source_reports", stopping)
    with pytest.raises(_Stop):
        spanning_search(parse(cube_source(4)), EncodingStrategy(kind), ETA_OFF)
    calls.update(declarations)
    assert calls == expected


def elaborate_from(base, strategy, items):
    """A fork of ``base`` under ``strategy`` that elaborates ``items``."""
    elab = base.fork(strategy)
    for item in items:
        elaborate_item(elab, item)
    return elab


def test_an_edge_of_another_first_parent_is_another_interned_declaration():
    """Under nested, `c01.to_c0` is a projection when c0 is c01's first
    parent and a rebuilt constructor when c1 is.  `c012.to_c01` is another
    object too, although it reads the same in both: it names the structure
    c01, which is laid out differently.  `c02.to_c0` is one object."""
    module = parse(cube_source(3))
    base = begin_elaboration(EncodingStrategy("nested"))
    first_c0, first_c1 = (
        elaborate_from(base, strategy, module.items)
        for strategy in (EncodingStrategy("nested"),
                         EncodingStrategy("nested", {"c01": ("c1",)})))
    assert first_c0.env["c01.to_c0"] != first_c1.env["c01.to_c0"]
    assert first_c0.env["c012.to_c01"] == first_c1.env["c012.to_c01"]
    assert first_c0.env["c012.to_c01"] is not first_c1.env["c012.to_c01"]
    assert first_c0.env["c02.to_c0"] is first_c1.env["c02.to_c0"]


def test_a_fork_or_a_second_elaboration_takes_the_first_declarations():
    """A class elaborated again, in a fork under the same order, makes new
    declaration objects with the same content, and the environment takes
    the first ones in their place; so does a second elaboration of the
    whole module.  A separate elaboration, with a table of its own, keeps
    its own."""
    module = parse(cube_source(3))
    items = module.items
    index = next(i for i, item in enumerate(items) if item.name == "c012")
    nested = EncodingStrategy("nested")
    base = begin_elaboration(nested)
    elab = elaborate_from(base, nested, items)
    fork = elaborate_from(elaborate_from(base, nested, items[:index]), nested, items[index:])
    whole = elaborate_from(base, nested, items)
    plain = elaborate(module, nested)
    for decl in elab.env:
        assert fork.env[decl.name] is decl
        assert whole.env[decl.name] is decl
        assert plain.env[decl.name] == decl and plain.env[decl.name] is not decl


def test_the_interning_table_keeps_one_declaration_per_content():
    """The table keeps the first declaration of each content, not every
    object it was given, so that a spanning search's memory grows with the
    distinct contents and not with its orders: a duplicate that the
    environment replaced is collected."""
    module = parse(cube_source(3))
    items = module.items
    index = next(i for i, item in enumerate(items) if item.name == "c012")
    nested = EncodingStrategy("nested")
    base = begin_elaboration(nested)
    first = elaborate_from(base, nested, items)
    kept = sum(map(len, base.env._interned.values()))
    elaborate_from(base, nested, items)
    assert sum(map(len, base.env._interned.values())) == kept
    decl = first.env["c012"]
    duplicate = dataclasses.replace(decl)
    seen = weakref.ref(duplicate)
    later = elaborate_from(base, nested, items[:index])
    later.env.add(duplicate)
    assert later.env["c012"] is decl
    del duplicate
    gc.collect()
    assert seen() is None


def test_forks_read_the_derived_declarations_of_their_interned_structure():
    """A structure's constructor and projections are derived once and kept
    on it, so every fork that interns the structure reads the same objects,
    as `_Reuse` keys a preferred edge by its projection.  A plain
    elaboration derives equal, other objects."""
    module = parse(cube_source(3))
    items = module.items
    index = next(i for i, item in enumerate(items) if item.name == "c012")
    nested = EncodingStrategy("nested")
    base = begin_elaboration(nested)
    elab = elaborate_from(base, nested, items)
    fork = elaborate_from(elaborate_from(base, nested, items[:index]), nested, items[index:])
    plain = elaborate(module, nested)
    derived = [name for info in elab.classes.values()
               for name in elab.env[info.name].derived_names()]
    assert "c012.to_c01" in derived
    for name in derived:
        assert fork.env[name] is elab.env[name]
        assert plain.env[name] == elab.env[name] and plain.env[name] is not elab.env[name]


def test_forks_that_lay_a_rebuilt_parent_out_otherwise_derive_their_own_instance():
    """`c` stores `q` and rebuilds `p`, whose parents each fork orders its
    own way.  Both forks hold one interned `c`, laid out alike, yet each
    derives `c.to_p` into its own layout of `p`, whichever fork reads
    first, and keeps it; a plain elaboration under either order agrees."""
    text = ("class a (α : Type) where\n  (x : α)\n"
            "class b (α : Type) where\n  (y : α)\n"
            "class q (α : Type) extends a α, b α\n"
            "class p (α : Type) extends a α, b α\n"
            "class c (α : Type) extends q α, p α\n")
    module = parse(text)
    orders = [EncodingStrategy("nested", {"p": (first,)}) for first in ("a", "b")]
    for first in (0, 1):
        base = begin_elaboration(EncodingStrategy("nested"))
        forks = [elaborate_from(base, strategy, module.items) for strategy in orders]
        assert forks[0].env["p"] != forks[1].env["p"]
        assert forks[0].env["c"] is forks[1].env["c"]
        reading = forks[first:] + forks[:first]
        made = [fork.env["c.to_p"] for fork in reading]
        assert made[0] != made[1]
        for fork, decl in zip(reading, made):
            assert fork.env["c.to_p"] is decl
            assert [decl] == reference.rebuilt_declarations(fork, fork.classes["c"])
    for strategy, fork in zip(orders, forks):
        assert elaborate(module, strategy).env["c.to_p"] == fork.env["c.to_p"]


def test_forms_across_environments_key_the_definitions_their_parameters_name():
    """Across environments an extension is keyed by the edge's interned
    declaration, and a path record by those its parameters name.
    `baz.to_foo` is one object in both modules below, but applied to `im` it
    rebuilds a `foo` holding `im`'s field, which is another opaque constant
    in each."""
    text = ("class int\n"
            "class pt (α : Type) where\n  (z : α)\n"
            "instance p1 : pt int where\n  (z := opaque)\n"
            "instance p2 : pt int where\n  (z := opaque)\n"
            "instance im : pt int where\n  (z := {})\n"
            "class foo (α : Type) (m : pt α) where\n  (w : α)\n"
            "class baz (α : Type) (m : pt α) extends foo α m\n")
    flat = EncodingStrategy("flat")
    base = begin_elaboration(flat)
    first, second = (elaborate_from(base, flat, parse(text.format(z)).items)
                     for z in ("p1.z", "p2.z"))
    assert first.env["baz.to_foo"] is second.env["baz.to_foo"]
    assert first.env["im"] is not second.env["im"]
    edge = next(e for e in first.instances if e.decl_name == "baz.to_foo")
    args, start = (Const("int"), Const("im")), FreeVar("i")
    reuse = analyzer._Reuse(ETA_OFF)
    normals = []
    for elab in (first, second):
        _, normal, _ = reuse.extend(elab.env, edge, reuse.record(elab.env, args, start))
        assert normal == normalize(elab.env, ETA_OFF,
                                   path_composite(elab.env, (edge,), args, start))
        normals.append(normal)
    assert normals[0] != normals[1]


def test_a_parent_named_flat_hack_is_a_choice_under_nested_as_in_the_whole_module_search():
    """Only the flat_hack encoding leaves its marker class out of the
    choices.  Under nested a user class of that name is a parent like any
    other, so `a` below has two parents to choose from and `d` three."""
    module = parse("class flat_hack (α : Type) where\n  (y : α)\n"
                   "class b (α : Type) where\n  (x : α)\n"
                   "class c (α : Type) extends b α\n"
                   "class a (α : Type) extends flat_hack α, c α\n"
                   "class d (α : Type) extends a α, b α, c α\n")
    placements = spanning_search(module, EncodingStrategy("nested"), ETA_OFF)
    assert [p.first_parents for p in placements] == [
        (("a", first_a), ("d", first_d))
        for first_a in ("flat_hack", "c") for first_d in ("a", "b", "c")]
    assert reference.placement_rows(placements) == reference.spanning_search(
        module, EncodingStrategy("nested"), ETA_OFF)


@pytest.mark.parametrize("name", ["cube.hier", "fig1.hier"])
@pytest.mark.parametrize("kind", ["nested", "flat", "flat_hack"])
def test_every_parent_order_lists_the_same_diamonds_in_the_same_order(name, kind):
    """The spanning search compares the verdicts of two orders position by
    position, which holds because every order has the same edges, one
    `C.to_P` per class and parent."""
    module = load(name)
    declared = elaborate(module, EncodingStrategy(kind))
    skip = 1 if kind == "flat_hack" else 0
    choices = {cls: [p for p, _ in info.parents[skip:]]
               for cls, info in declared.classes.items() if len(info.parents) - skip >= 2}
    expected = [row[:4] for row in rows(declared, ETA_OFF)]
    assert expected
    for order in itertools.product(*map(itertools.permutations, choices.values())):
        elab = elaborate(module, EncodingStrategy(kind, dict(zip(choices, order))))
        assert [row[:4] for row in rows(elab, ETA_OFF)] == expected, order


def test_every_cube_placement_is_coherent_with_eta(cube_module):
    placements = spanning_search(cube_module, EncodingStrategy("nested"), ETA_ON)
    assert len(placements) == 24
    assert sum(p.coherent for p in placements) == 24


def test_spanning_search_rejects_parent_order_overrides(fig1_module):
    """The search chooses every parent order itself, so overrides would be
    ignored; it refuses them instead."""
    with pytest.raises(ValueError, match="parent_order"):
        spanning_search(fig1_module, EncodingStrategy("nested", {"ring": ("semiring",)}),
                        ETA_OFF)


def test_spanning_search_without_multi_parent_classes_is_vacuous():
    placements = spanning_search(load("point.hier"), EncodingStrategy("nested"),
                                 ETA_OFF)
    assert len(placements) == 1
    assert placements[0].first_parents == ()
    assert placements[0].coherent
    assert placements[0].groups == ()


# ---------------------------------------------------------------------------
# Reports

def test_report_dict_matches_its_schema(fig1_nested):
    payload = reference.report_dict("nested", ETA_OFF, analyze(fig1_nested, ETA_OFF))
    jsonschema.validate(payload, ANALYZER_REPORT_SCHEMA)
    assert payload["summary"] == {"total": 5, "commuting": 4, "mismatches": 0}
    assert payload["config"] == {"encoding": "nested", "eta_kernel": False,
                                 "eta_unifier": False}


def test_report_dict_flags_the_failing_diamond(fig1_nested):
    payload = reference.report_dict("nested", ETA_OFF, analyze(fig1_nested, ETA_OFF))
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
