"""Diamond enumeration and coherence analysis over an instance graph.

A diamond is an unordered pair of distinct instance paths between the same
two classes.  Each diamond gets two verdicts:

- oracle: the two composite instance terms, applied to a fresh structure
  value, are judgmentally equal under the given kernel configuration.
- predictor: the last edges of the two paths are either both preferred
  projections or both constructor-built, the syntactic rule of thumb for
  whether the paths stay interchangeable during instance search.

The two verdicts answer different questions.  The oracle compares closed
terms, where delta and iota reduction can unfold everything; instance
search instead meets these composites while the structure argument is
still an unsolved metavariable, and a projection-headed path against a
constructor-headed path then only unifies under structural eta.  A
placement of preferred projections therefore only counts as coherent when
every diamond passes the oracle and, in a kernel without structural eta,
the predictor as well.

``analyze`` decides oracles per path, not per pair.  It numbers each
source's paths as the nodes of a prefix trie and reduces each path's
composite to its beta/delta/iota normal form by extension: the normal form
of a path is that of its last edge applied to the normal form of its
prefix, since reducing a subterm first does not change the normal form.
Each ``normalize`` call therefore unfolds one edge, with a fuel budget of
its own, and only paths that some diamond needs are reduced.  Equal normal
forms are equal; without eta, different ones are not.  With eta, the kernel
compares the two normal forms, once per distinct pair.  Normal forms are
not grouped by an eta-long form instead, because the eta rule is not
transitive on structures without fields (``x = unit.mk`` and ``unit.mk = y``
hold while ``x = y`` does not).  ``check_diamond``, the pairwise comparison
of the composites, stays as the reference and decides the diamonds of any
path whose normal form runs out of fuel.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .declarations import Environment, StructDecl
# `elaborate` is not called here; it stays importable from this module,
# where perfbench's tracer wraps it.
from .elaborator import (
    FLAT, FLAT_HACK_CLASS, PREFERRED, SYNTHESIZED, Elaboration,
    EncodingStrategy, InstanceInfo, begin_elaboration, elaborate, elaborate_item,
)
from .kernel import DefEqConfig, DEFAULT_CONFIG, FuelExhausted, Trace, defeq, normalize
from .resolution import MAX_DEPTH
from .surface import ClassItem, SurfaceModule
from .terms import Binder, Const, FreeVar, Term, apps, fresh_name, subst_frees, unfold_apps

MAX_PATH_LEN = 8

_EDGE_KIND = {PREFERRED: "preferred", SYNTHESIZED: "non-preferred", FLAT: "flat"}


class CycleDetected(Exception):
    def __init__(self, nodes: tuple[str, ...]) -> None:
        super().__init__(f"instance graph has a cycle through {', '.join(nodes)}")
        self.nodes = nodes


class PathLimitExceeded(Exception):
    """Two classes are joined by several paths and one of them is longer
    than the path limit, so some of their diamonds would go unchecked."""

    def __init__(self, source: str, target: str, limit: int) -> None:
        super().__init__(f"{source} reaches {target} by several paths, some longer "
                         f"than the limit of {limit} edges; their diamonds cannot "
                         f"all be checked")
        self.source = source
        self.target = target
        self.limit = limit


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    decl_name: str
    kind: str  # preferred | non-preferred | flat


@dataclass(frozen=True)
class HierGraph:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]


Path = tuple[Edge, ...]


@dataclass(frozen=True)
class Diamond:
    source: str
    target: str
    path_a: Path
    path_b: Path


@dataclass(frozen=True)
class DiamondReport:
    diamond: Diamond
    term_a: Term
    term_b: Term
    oracle: bool
    predictor: bool


def build_graph(env: Environment, instances: list[InstanceInfo]) -> HierGraph:
    """One edge per forgetful instance; user instances carry no from-class
    and are not part of the graph."""
    edges = tuple(Edge(i.from_class, i.to_class, i.decl_name, _EDGE_KIND[i.kind])
                  for i in instances if i.from_class is not None)
    nodes: list[str] = [d.name for d in env if isinstance(d, StructDecl)]
    for e in edges:
        for name in (e.src, e.dst):
            if name not in nodes:
                nodes.append(name)
    graph = HierGraph(tuple(nodes), edges)
    _check_acyclic(graph)
    return graph


def _outgoing(graph: HierGraph) -> dict[str, list[Edge]]:
    outgoing: dict[str, list[Edge]] = {}
    for e in graph.edges:
        outgoing.setdefault(e.src, []).append(e)
    return outgoing


def _check_acyclic(graph: HierGraph) -> None:
    outgoing = _outgoing(graph)
    state: dict[str, int] = {}  # 1 visiting, 2 done

    def visit(node: str, stack: tuple[str, ...]) -> None:
        if state.get(node) == 2:
            return
        if state.get(node) == 1:
            cycle = stack[stack.index(node):] + (node,)
            raise CycleDetected(cycle)
        state[node] = 1
        for e in outgoing.get(node, ()):
            visit(e.dst, stack + (node,))
        state[node] = 2

    for node in graph.nodes:
        visit(node, ())


def enumerate_diamonds(graph: HierGraph, max_path_len: int = MAX_PATH_LEN) -> list[Diamond]:
    """All unordered pairs of distinct paths sharing both endpoints,
    ordered lexicographically by source, target, then path decl names."""
    if max_path_len < 2:
        raise ValueError("max_path_len must be at least 2")
    outgoing = _outgoing(graph)

    diamonds: list[Diamond] = []
    for source in sorted(graph.nodes):
        by_target: dict[str, list[Path]] = {}

        def walk(node: str, path: Path) -> None:
            if path:
                by_target.setdefault(node, []).append(path)
            if len(path) >= max_path_len:
                return
            for e in outgoing.get(node, ()):
                walk(e.dst, path + (e,))

        walk(source, ())
        for target in sorted(by_target):
            paths = sorted(by_target[target], key=_path_key)
            for a, b in itertools.combinations(paths, 2):
                diamonds.append(Diamond(source, target, a, b))
    return diamonds


def _path_key(path: Path) -> tuple[str, ...]:
    return tuple(e.decl_name for e in path)


def _check_path_limit(graph: HierGraph, max_path_len: int) -> None:
    """Raise PathLimitExceeded when some source reaches some target by two
    or more paths and one of them is longer than ``max_path_len``, since
    ``enumerate_diamonds`` leaves that path's diamonds out.  Paths are
    counted per source in topological order, not enumerated: a chain has one
    path per pair however long it is."""
    outgoing = _outgoing(graph)
    indegree = dict.fromkeys(graph.nodes, 0)
    for e in graph.edges:
        indegree[e.dst] += 1
    pending = dict(indegree)
    order = [n for n in graph.nodes if pending[n] == 0]
    for node in order:  # the graph is acyclic
        for e in outgoing.get(node, ()):
            pending[e.dst] -= 1
            if pending[e.dst] == 0:
                order.append(e.dst)
    # Only a source that reaches a class with two incoming edges can reach
    # some target by two paths.
    joining: set[str] = set()
    for node in reversed(order):
        if any(indegree[e.dst] > 1 or e.dst in joining for e in outgoing.get(node, ())):
            joining.add(node)
    position = {n: i for i, n in enumerate(order)}
    for source in sorted(joining):
        # node -> (number of paths from source, at most 2; longest length)
        paths = {source: (1, 0)}
        for node in order[position[source]:]:
            entry = paths.get(node)
            if entry is None:
                continue
            count, longest = entry
            if count > 1 and longest > max_path_len:
                raise PathLimitExceeded(source, node, max_path_len)
            for e in outgoing.get(node, ()):
                c, l = paths.get(e.dst, (0, 0))
                paths[e.dst] = (min(c + count, 2), max(l, longest + 1))


def path_composite(env: Environment, path: Path, args: tuple[Term, ...],
                   value: Term) -> Term:
    """Apply the path's instance declarations left to right, starting from a
    value of the source class at the given parameters."""
    for edge in path:
        value, args = _apply_edge(env, edge, args, value)
    return value


def _apply_edge(env: Environment, edge: Edge, args: tuple[Term, ...],
                value: Term) -> tuple[Term, tuple[Term, ...]]:
    """The edge's instance applied to a value of its source class at the
    given parameters, and the parameters of its target class."""
    decl = env[edge.decl_name]
    mapping = {b.name: a for b, a in zip(decl.binders[:-1], args)}
    _, result_args = unfold_apps(decl.result_type)
    return (apps(Const(edge.decl_name), *args, value),
            tuple(subst_frees(a, mapping) for a in result_args))


def predict_diamond(diamond: Diamond) -> bool:
    """The last-segment rule: the paths stay interchangeable when their
    final edges are both preferred projections or both constructor-built."""
    last_a = diamond.path_a[-1].kind == "preferred"
    last_b = diamond.path_b[-1].kind == "preferred"
    return last_a == last_b


def _source_context(env: Environment, source: str
                    ) -> tuple[tuple[Binder, ...], tuple[Term, ...], Term]:
    """The source class's parameters plus a fresh instance of it: the
    context, the parameter variables, and the instance variable."""
    decl = env.struct(source)
    args = tuple(FreeVar(b.name) for b in decl.params)
    inst = fresh_name("i", {b.name for b in decl.params})
    ctx = decl.params + (
        Binder(inst, apps(Const(source), *args), instance_implicit=True),)
    return ctx, args, FreeVar(inst)


def check_diamond(env: Environment, diamond: Diamond,
                  config: DefEqConfig = DEFAULT_CONFIG,
                  trace: Trace | None = None) -> DiamondReport:
    """Build both composites over a fresh instance variable and compare."""
    ctx, args, start = _source_context(env, diamond.source)
    term_a = path_composite(env, diamond.path_a, args, start)
    term_b = path_composite(env, diamond.path_b, args, start)
    oracle = defeq(env, config, ctx, term_a, term_b, trace)
    return DiamondReport(diamond, term_a, term_b, oracle, predict_diamond(diamond))


def commutes_under(report: DiamondReport, config: DefEqConfig) -> bool:
    """Whether a diamond counts as commuting for coherence scoring: the
    oracle must accept, and without kernel eta the predictor must too (see
    the module docstring for why both are consulted)."""
    return report.oracle and (config.eta_kernel or report.predictor)


def analyze(elab: Elaboration, config: DefEqConfig = DEFAULT_CONFIG,
            max_path_len: int = MAX_PATH_LEN) -> list[DiamondReport]:
    """Enumerate and check every diamond of an elaborated module.

    Verdicts are decided from one normal form per path, each computed by
    extending the normal form of the path's prefix by its last edge (see
    the module docstring), and equal those of ``check_diamond`` wherever it
    returns.  Fuel is spent per trie node: each ``normalize`` call unfolds
    one edge under its own ``unfold_depth`` budget, and a node whose prefix
    ran out of fuel normalises its whole composite instead.  So this can
    return verdicts where ``check_diamond``, which spends one budget on both
    whole composites, runs out of fuel.

    Raises PathLimitExceeded when some diamond has a path longer than
    ``max_path_len``, rather than leave it out of the report."""
    return [r for _, group in _source_reports(elab, config, max_path_len, {})
            for r in group]


def _source_reports(elab: Elaboration, config: DefEqConfig, max_path_len: int,
                    known: dict[str, list[DiamondReport]]
                    ) -> list[tuple[str, list[DiamondReport]]]:
    """The reports of each source with diamonds, in source order; a source
    in ``known`` takes its reports from there instead of being checked."""
    env = elab.env
    graph = build_graph(env, elab.instances)
    _check_path_limit(graph, max_path_len)
    diamonds = enumerate_diamonds(graph, max_path_len)
    position = {e: i for i, e in enumerate(graph.edges)}
    out: list[tuple[str, list[DiamondReport]]] = []
    for source, group in itertools.groupby(diamonds, key=lambda d: d.source):
        reports = known.get(source)
        if reports is None:
            reports = _check_source(env, config, source, group, position)
        out.append((source, reports))
    return out


def _check_source(env: Environment, config: DefEqConfig, source: str,
                  group: Iterable[Diamond], position: dict[Edge, int]
                  ) -> list[DiamondReport]:
    """Decide the diamonds of one source from the normal forms of its paths."""
    ctx, args, start = _source_context(env, source)
    # The trie of this source's paths, as lists indexed by node id: each
    # node's composite, the parameters its out-edges take, its normal
    # form (None when out of fuel) and that form's id.  Node 0 is the
    # empty path.  A child is keyed by its parent's id and its edge's
    # position in the graph.
    terms, node_args, normals = [start], [args], [start]
    form_of: list[int | None] = [None]
    children: dict[tuple[int, int], int] = {}
    form_ids: dict[Term, int] = {}
    forms: list[Term] = []
    # A path tuple hashes every edge, so paths are looked up by object
    # identity, which holds while the caller keeps the diamonds alive.
    path_ids: dict[int, int] = {}
    verdicts: dict[tuple[int, int], bool] = {}

    def add_path(path: Path) -> int:
        node = 0
        for e in path:
            key = (node, position[e])
            child = children.get(key)
            if child is None:
                child = children[key] = len(terms)
                term, edge_args = _apply_edge(env, e, node_args[node], terms[node])
                # By extension when the prefix has a normal form, else
                # from the whole composite.
                prefix = normals[node]
                reduced = term if prefix is None else apps(
                    Const(e.decl_name), *node_args[node], prefix)
                try:
                    normal = normalize(env, config, ctx, reduced)
                except FuelExhausted:
                    normal = form = None
                else:
                    form = form_ids.setdefault(normal, len(forms))
                    if form == len(forms):
                        forms.append(normal)
                terms.append(term)
                node_args.append(edge_args)
                normals.append(normal)
                form_of.append(form)
            node = child
        path_ids[id(path)] = node
        return node

    reports: list[DiamondReport] = []
    for d in group:
        a = path_ids.get(id(d.path_a))
        if a is None:
            a = add_path(d.path_a)
        b = path_ids.get(id(d.path_b))
        if b is None:
            b = add_path(d.path_b)
        id_a, id_b = form_of[a], form_of[b]
        if id_a is None or id_b is None:
            reports.append(check_diamond(env, d, config))
            continue
        if id_a == id_b:
            oracle = True
        elif not config.eta_kernel:
            oracle = False
        else:
            oracle = verdicts.get((id_a, id_b))
            if oracle is None:
                oracle = defeq(env, config, ctx, forms[id_a], forms[id_b])
                verdicts[(id_a, id_b)] = oracle
        reports.append(DiamondReport(d, terms[a], terms[b], oracle, predict_diamond(d)))
    return reports


# ---------------------------------------------------------------------------
# Spanning search: try every choice of first parent

@dataclass(frozen=True)
class PlacementReport:
    index: int
    first_parents: tuple[tuple[str, str], ...]
    diamonds: tuple[DiamondReport, ...]
    coherent: bool
    nonfirst_order_invariant: bool


@dataclass
class _Frame:
    """The elaboration state before one choice class, and the reports of
    the sources that come after the previous choice class and before it."""

    elab: Elaboration
    reports: dict[str, list[DiamondReport]] = field(default_factory=dict)


def spanning_search(module: SurfaceModule, strategy: EncodingStrategy,
                    config: DefEqConfig = DEFAULT_CONFIG,
                    max_path_len: int = MAX_PATH_LEN,
                    max_depth: int = MAX_DEPTH) -> list[PlacementReport]:
    """Elaborate under every first-parent choice and score coherence.

    Each placement is elaborated under every order of the remaining parents,
    declared order first; that first order gives the placement's verdicts,
    and the placement is order-invariant when no other order changes one.
    The search stops at the first order that does, rather than assuming none
    can.  ``config`` and ``max_depth`` reach every elaboration.

    A choice class is one with two or more parents.  Elaboration goes item
    by item, and a stack of frames holds a fork of the state before each
    choice class.  The declared order is elaborated first.  Each later
    order finds the first choice class whose parent order differs from the
    previous order's, drops the frames above that class's frame, forks it
    and elaborates from that class on, so a class is elaborated again only
    when a choice at or before it changed.  A source's diamonds use only
    the declarations of the classes up to it, so its reports are kept in
    the frame of the first choice class after it: that frame stays exactly
    while the choices before it are unchanged, and the reports are reused
    while it stays.  The graph is still built, bounded by the path limit
    and enumerated for every order.
    """
    items = module.items
    positions = [index for index, item in enumerate(items)
                 if isinstance(item, ClassItem) and len(item.parents) >= 2]
    frames: list[_Frame] = []

    def elaborate_from(elab: Elaboration, start: int) -> Elaboration:
        for index in range(start, len(items)):
            if len(frames) < len(positions) and positions[len(frames)] == index:
                frames.append(_Frame(elab.fork(elab.strategy)))
            elaborate_item(elab, items[index], config, max_depth)
        return elab

    elab = elaborate_from(begin_elaboration(EncodingStrategy(strategy.kind)), 0)
    # Under flat_hack a class may list flat_hack itself among its parents,
    # which leaves it fewer to choose from.
    chooseable: list[tuple[int, str, list[str]]] = []
    for k, index in enumerate(positions):
        name = items[index].name
        parents = [p for p, _ in elab.classes[name].parents if p != FLAT_HACK_CLASS]
        if len(parents) >= 2:
            chooseable.append((k, name, parents))
    frames[:] = [frames[k] for k, _, _ in chooseable]
    positions = [positions[k] for k, _, _ in chooseable]
    names = [name for _, name, _ in chooseable]
    # A class's level: the number of choice classes at or before it.
    level: dict[str, int] = {}
    for index, item in enumerate(items):
        if isinstance(item, ClassItem):
            level[item.name] = bisect.bisect_right(positions, index)
    previous = tuple(tuple(parents) for _, _, parents in chooseable)

    def analyzed(order: tuple[tuple[str, ...], ...]) -> tuple[DiamondReport, ...]:
        nonlocal elab, previous
        if order != previous:
            d = next(k for k, (new, old) in enumerate(zip(order, previous)) if new != old)
            del frames[d + 1:]
            overrides = EncodingStrategy(strategy.kind, dict(zip(names, order)))
            elab = elaborate_from(frames[d].elab.fork(overrides), positions[d])
            previous = order
        known: dict[str, list[DiamondReport]] = {}
        for frame in frames:
            known.update(frame.reports)
        groups = _source_reports(elab, config, max_path_len, known)
        for source, reports in groups:
            lvl = level.get(source, len(frames))
            if lvl < len(frames):
                frames[lvl].reports.setdefault(source, reports)
        return tuple(r for _, reports in groups for r in reports)

    reports: list[PlacementReport] = []
    combos = itertools.product(*(parents for _, _, parents in chooseable))
    for index, combo in enumerate(combos):
        orders = itertools.product(*(
            [(first,) + rest for rest in itertools.permutations(
                [p for p in parents if p != first])]
            for (_, _, parents), first in zip(chooseable, combo)))
        checked = analyzed(next(orders))
        reference = _verdicts(checked)
        invariant = all(_verdicts(analyzed(order)) == reference for order in orders)
        coherent = all(commutes_under(r, config) for r in checked)
        reports.append(PlacementReport(index, tuple(sorted(zip(names, combo))),
                                       checked, coherent, invariant))
    return reports


def _verdicts(reports: tuple[DiamondReport, ...]) -> dict[tuple, tuple[bool, bool]]:
    return {(r.diamond.source, r.diamond.target,
             _path_key(r.diamond.path_a), _path_key(r.diamond.path_b)):
            (r.oracle, r.predictor) for r in reports}


# ---------------------------------------------------------------------------
# Report serialization

ANALYZER_REPORT_SCHEMA = {
    "type": "object",
    "required": ["config", "diamonds", "summary"],
    "additionalProperties": False,
    "properties": {
        "config": {
            "type": "object",
            "required": ["encoding", "eta_kernel", "eta_unifier"],
            "additionalProperties": False,
            "properties": {
                "encoding": {"enum": ["flat", "nested", "flat_hack"]},
                "eta_kernel": {"type": "boolean"},
                "eta_unifier": {"type": "boolean"},
            },
        },
        "diamonds": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["source", "target", "pathA", "pathB",
                             "oracle", "predictor"],
                "additionalProperties": False,
                "properties": {
                    "source": {"type": "string"},
                    "target": {"type": "string"},
                    "pathA": {"type": "array", "items": {"type": "string"}},
                    "pathB": {"type": "array", "items": {"type": "string"}},
                    "oracle": {"type": "boolean"},
                    "predictor": {"type": "boolean"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "commuting", "mismatches"],
            "additionalProperties": False,
            "properties": {
                "total": {"type": "integer"},
                "commuting": {"type": "integer"},
                "mismatches": {"type": "integer"},
            },
        },
    },
}


def report_dict(encoding: str, config: DefEqConfig,
                reports: list[DiamondReport] | tuple[DiamondReport, ...]) -> dict:
    """The JSON-ready diamonds report; `commuting` uses the scoring rule of
    commutes_under and `mismatches` counts oracle/predictor disagreements."""
    return {
        "config": {
            "encoding": encoding,
            "eta_kernel": config.eta_kernel,
            "eta_unifier": config.eta_unifier,
        },
        "diamonds": [
            {
                "source": r.diamond.source,
                "target": r.diamond.target,
                "pathA": list(_path_key(r.diamond.path_a)),
                "pathB": list(_path_key(r.diamond.path_b)),
                "oracle": r.oracle,
                "predictor": r.predictor,
            }
            for r in reports
        ],
        "summary": report_summary(config, reports),
    }


def report_summary(config: DefEqConfig,
                   reports: list[DiamondReport] | tuple[DiamondReport, ...]
                   ) -> dict[str, int]:
    """The diamond count, how many commute under commutes_under, and how
    many oracle/predictor disagreements there are."""
    return {
        "total": len(reports),
        "commuting": sum(1 for r in reports if commutes_under(r, config)),
        "mismatches": sum(1 for r in reports if r.oracle != r.predictor),
    }


# ---------------------------------------------------------------------------
# Random hierarchies for property tests

_FIELD_TYPES = ("α", "α → α", "α → α → α")


def random_hierarchy(seed: int, max_classes: int = 6, max_fields: int = 4,
                     max_parents: int = 3) -> str:
    """Generate .hier source for a random single-parameter hierarchy.

    Field names come from a fixed small pool and each name is tied to one
    type, so overlaps between parents are frequent but never clash."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, max_classes)
    lines: list[str] = []
    for idx in range(n):
        name = f"c{idx}"
        n_parents = rng.randint(0, min(max_parents, idx))
        parents = rng.sample([f"c{k}" for k in range(idx)], n_parents)
        n_fields = rng.randint(0 if (parents or idx) else 1, max_fields)
        fields = rng.sample([f"f{k}" for k in range(6)], n_fields)
        head = f"class {name} (α : Type)"
        if parents:
            head += " extends " + ", ".join(f"{p} α" for p in parents)
        if fields:
            head += " where"
            lines.append(head)
            for f in fields:
                ty = _FIELD_TYPES[int(f[1:]) % len(_FIELD_TYPES)]
                lines.append(f"  ({f} : {ty})")
        else:
            lines.append(head)
        lines.append("")
    return "\n".join(lines)
