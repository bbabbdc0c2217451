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

``analyze`` decides oracles per path, not per pair.  The paths from one
class to another form a group, and each pair of them is a diamond.  Each
path's composite is reduced to its beta/delta/iota normal form by
extension: the normal form of a path is that of its last edge applied to
the normal form of its prefix, since reducing a subterm first does not
change the normal form.  Each ``normalize`` call therefore unfolds one
edge, with a fuel budget of its own.  A path's record, its normal form and
parameters, is interned by content, and an extension is keyed by its edge
and its prefix's record, so paths whose prefixes reduce alike share one
reduction, within a source and across the sources of one call.
An edge is keyed by its declaration object.  Every environment interns its
declarations, and forks share the interning table, so in a
``spanning_search`` an object stands for its content in every parent
order; the search keeps one table for all orders: an order reduces again
only what its changed declarations unfold to.

A group's report holds, per path, its normal form's id and whether its last
edge is a preferred projection; a pair's verdicts are read from its two
paths.  Equal normal forms are equal; without eta, different ones are not.
With eta, the kernel compares the two normal forms, once per distinct pair.
Normal forms are not grouped by an eta-long form instead, because the eta
rule is not transitive on structures without fields (``x = unit.mk`` and
``unit.mk = y`` hold while ``x = y`` does not).  ``check_diamond``, the
pairwise comparison of the composites, decides the pairs of any path whose
normal form, or a prefix's, ran out of fuel.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .declarations import Environment, StructDecl, instance_telescope
# `elaborate` is not called here; it stays importable from this module,
# where perfbench's tracer wraps it.
from .elaborator import (
    PREFERRED, ClassInfo, Elaboration, EncodingStrategy, InstanceInfo,
    begin_elaboration, elaborate, elaborate_item,
)
from .kernel import DefEqConfig, DEFAULT_CONFIG, FuelExhausted, Trace, defeq, normalize
from .resolution import MAX_DEPTH
from .surface import ClassItem, SurfaceModule
from .terms import (
    Binder, Const, FreeVar, Term, apps, consts_in, subst_frees, unfold_apps,
)

MAX_PATH_LEN = 8


class CycleDetected(Exception):
    def __init__(self, nodes: tuple[str, ...]) -> None:
        super().__init__(f"instance graph has a cycle; cannot order {', '.join(nodes)}")
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
class HierGraph:
    nodes: tuple[str, ...]  # in topological order
    edges: tuple[InstanceInfo, ...]
    # The edges by from-class, in edge order.
    outgoing: dict[str, list[InstanceInfo]] = field(compare=False)


Path = tuple[InstanceInfo, ...]


@dataclass(frozen=True, slots=True)
class Diamond:
    source: str
    target: str
    path_a: Path
    path_b: Path


@dataclass(frozen=True, slots=True)
class PathGroup:
    """The paths from one class to another, two or more, in order of their
    declaration names: each pair of them is a diamond."""
    source: str
    target: str
    paths: tuple[Path, ...]


@dataclass(frozen=True, slots=True)
class Diamonds:
    """The diamonds of a graph, held as its path groups in source and then
    target order.  Its length is the number of diamonds; iterating it
    yields them as ``Diamond``s, made on demand, group by group and pair by
    pair in path order."""
    groups: tuple[PathGroup, ...]

    def __len__(self) -> int:
        return sum(len(g.paths) * (len(g.paths) - 1) // 2 for g in self.groups)

    def __iter__(self) -> Iterator[Diamond]:
        for g in self.groups:
            for a, b in itertools.combinations(g.paths, 2):
                yield Diamond(g.source, g.target, a, b)


@dataclass(frozen=True, slots=True)
class GroupReport:
    """The verdicts of a path group's diamonds, held per path.  ``forms``
    gives each path's normal-form id, where a path whose normal form ran out
    of fuel has a negative id of its own; two paths with one id are equal.
    ``equal`` holds the index pairs ``(i, j)``, ``i < j``, of paths with
    different ids that the kernel found equal anyway.  ``preferred`` tells
    whether each path's last edge is a preferred projection."""
    group: PathGroup
    forms: tuple[int, ...]
    preferred: tuple[bool, ...]
    equal: frozenset[tuple[int, int]]

    def pairs(self) -> Iterator[tuple[int, int, bool, bool]]:
        """Each diamond as its two path indices, its oracle and its
        predictor, in report order.  The predictor is the last-segment rule:
        the paths stay interchangeable when their final edges are both
        preferred projections or both constructor-built."""
        forms, preferred, equal = self.forms, self.preferred, self.equal
        for i, j in itertools.combinations(range(len(forms)), 2):
            yield (i, j, forms[i] == forms[j] or (i, j) in equal,
                   preferred[i] == preferred[j])

    def commutes(self, config: DefEqConfig) -> bool:
        """Whether every diamond of the group commutes under config."""
        return all(commutes_under(oracle, predictor, config)
                   for _, _, oracle, predictor in self.pairs())


def diamond_rows(reports: Iterable[GroupReport]
                 ) -> Iterator[tuple[str, str, tuple[str, ...], tuple[str, ...], bool, bool]]:
    """Each diamond of ``reports`` as ``(source, target, pathA, pathB,
    oracle, predictor)``, paths by declaration names, in report order."""
    for report in reports:
        group = report.group
        names = [_path_key(p) for p in group.paths]
        for i, j, oracle, predictor in report.pairs():
            yield group.source, group.target, names[i], names[j], oracle, predictor


def build_graph(env: Environment, instances: list[InstanceInfo]) -> HierGraph:
    """The forgetful instances as edges and the classes in topological
    order; user instances carry no from-class and are not part of the
    graph.  Raises CycleDetected with the classes that cannot be ordered."""
    edges = tuple(i for i in instances if i.from_class is not None)
    outgoing: dict[str, list[InstanceInfo]] = {}
    for e in edges:
        outgoing.setdefault(e.from_class, []).append(e)
    pending = dict.fromkeys((d.name for d in env.stored() if isinstance(d, StructDecl)), 0)
    for e in edges:
        pending.setdefault(e.from_class, 0)
        pending[e.to_class] = pending.get(e.to_class, 0) + 1
    order = [n for n, count in pending.items() if count == 0]
    for node in order:
        for e in outgoing.get(node, ()):
            pending[e.to_class] -= 1
            if pending[e.to_class] == 0:
                order.append(e.to_class)
    if len(order) < len(pending):
        raise CycleDetected(tuple(n for n, count in pending.items() if count))
    return HierGraph(tuple(order), edges, outgoing)


def enumerate_diamonds(graph: HierGraph, max_path_len: int = MAX_PATH_LEN) -> Diamonds:
    """All unordered pairs of distinct paths sharing both endpoints, as the
    groups of two or more paths between two classes, ordered
    lexicographically by source, target, then path decl names."""
    if max_path_len < 2:
        raise ValueError("max_path_len must be at least 2")

    groups: list[PathGroup] = []
    for source in sorted(graph.nodes):
        by_target: dict[str, list[Path]] = {}

        def walk(node: str, path: Path) -> None:
            if path:
                by_target.setdefault(node, []).append(path)
            if len(path) >= max_path_len:
                return
            for e in graph.outgoing.get(node, ()):
                walk(e.to_class, path + (e,))

        walk(source, ())
        for target in sorted(by_target):
            paths = by_target[target]
            if len(paths) > 1:
                groups.append(PathGroup(source, target, tuple(sorted(paths, key=_path_key))))
    return Diamonds(tuple(groups))


def _path_key(path: Path) -> tuple[str, ...]:
    return tuple(e.decl_name for e in path)


def _check_path_limit(graph: HierGraph, max_path_len: int) -> None:
    """Raise PathLimitExceeded when some source reaches some target by two
    or more paths and one of them is longer than ``max_path_len``, since
    ``enumerate_diamonds`` leaves that path's diamonds out.  Paths are
    counted per source in topological order, not enumerated: a chain has one
    path per pair however long it is."""
    order, outgoing = graph.nodes, graph.outgoing
    indegree = dict.fromkeys(order, 0)
    for e in graph.edges:
        indegree[e.to_class] += 1
    # Only a source that reaches a class with two incoming edges can reach
    # some target by two paths.
    joining: set[str] = set()
    for node in reversed(order):
        if any(indegree[e.to_class] > 1 or e.to_class in joining
               for e in outgoing.get(node, ())):
            joining.add(node)
    for source in sorted(joining):
        # node -> (number of paths from source, at most 2; longest length)
        paths = {source: (1, 0)}
        for node in order[order.index(source):]:
            entry = paths.get(node)
            if entry is None:
                continue
            count, longest = entry
            if count > 1 and longest > max_path_len:
                raise PathLimitExceeded(source, node, max_path_len)
            for e in outgoing.get(node, ()):
                c, l = paths.get(e.to_class, (0, 0))
                paths[e.to_class] = (min(c + count, 2), max(l, longest + 1))


def path_composite(env: Environment, path: Path, args: tuple[Term, ...],
                   value: Term) -> Term:
    """Apply the path's instance declarations left to right, starting from a
    value of the source class at the given parameters."""
    for edge in path:
        value, args = _apply_edge(env, edge, args, value)
    return value


def _apply_edge(env: Environment, edge: InstanceInfo, args: tuple[Term, ...],
                value: Term) -> tuple[Term, tuple[Term, ...]]:
    """The edge's instance applied to a value of its source class at the
    given parameters, and the parameters of its target class."""
    decl = env[edge.decl_name]
    mapping = {b.name: a for b, a in zip(decl.binders[:-1], args)}
    _, result_args = unfold_apps(decl.result_type)
    return (apps(Const(edge.decl_name), *args, value),
            tuple(subst_frees(a, mapping) for a in result_args))


def _source_context(env: Environment, source: str
                    ) -> tuple[tuple[Binder, ...], tuple[Term, ...], Term]:
    """The source class's parameters plus a fresh instance of it: the
    context, the parameter variables, and the instance variable."""
    ctx = instance_telescope(source, env.struct(source).params, "i")
    return ctx, tuple(FreeVar(b.name) for b in ctx[:-1]), FreeVar(ctx[-1].name)


def check_diamond(env: Environment, diamond: Diamond,
                  config: DefEqConfig = DEFAULT_CONFIG,
                  trace: Trace | None = None) -> bool:
    """The oracle of one diamond: build both composites over a fresh
    instance variable and compare them."""
    ctx, args, start = _source_context(env, diamond.source)
    return defeq(env, config, ctx, path_composite(env, diamond.path_a, args, start),
                 path_composite(env, diamond.path_b, args, start), trace)


def commutes_under(oracle: bool, predictor: bool, config: DefEqConfig) -> bool:
    """Whether a diamond counts as commuting for coherence scoring: the
    oracle must accept, and without kernel eta the predictor must too (see
    the module docstring for why both are consulted)."""
    return oracle and (config.eta_kernel or predictor)


def analyze(elab: Elaboration, config: DefEqConfig = DEFAULT_CONFIG,
            max_path_len: int = MAX_PATH_LEN) -> list[GroupReport]:
    """Enumerate and check every diamond of an elaborated module: one
    report per path group, in the order of ``enumerate_diamonds``.

    Verdicts are decided from one normal form per path, each computed by
    extending the normal form of the path's prefix by its last edge (see
    the module docstring), and equal those of ``check_diamond`` wherever it
    returns.  An extension is keyed by the edge's declaration and the
    prefix's record, interned by content, so paths of any source whose
    prefixes reduce alike share one extension.  Fuel is spent per
    extension: each ``normalize`` call unfolds one edge under its own
    ``unfold_depth`` budget.  The diamonds of a path whose normal form, or
    a prefix's, ran out of fuel are decided by ``check_diamond``.  So this
    can return verdicts where ``check_diamond``, which spends one budget on
    both whole composites, runs out of fuel.

    Raises PathLimitExceeded when some diamond has a path longer than
    ``max_path_len``, rather than leave it out of the report."""
    return _source_reports(elab, _groups_by_source(elab, max_path_len), _Reuse(config))


def _groups_by_source(elab: Elaboration, max_path_len: int
                      ) -> list[tuple[str, list[PathGroup]]]:
    """The path groups of ``elab``'s graph, bounded by the path limit,
    collected by source in source order."""
    graph = build_graph(elab.env, elab.instances)
    _check_path_limit(graph, max_path_len)
    groups = enumerate_diamonds(graph, max_path_len).groups
    return [(source, list(by_source))
            for source, by_source in itertools.groupby(groups, key=lambda g: g.source)]


# A path's record: the parameters its last edge's target class takes, its
# normal form and that form's id.
_Record = tuple[tuple[Term, ...], Term, int]


class _Reuse:
    """What the analyzer reuses, kept for one ``analyze`` call or for every
    order of one spanning search.  ``record`` interns path records by
    content, so a record's identity stands for its content while the table
    lives.  ``extend`` maps an edge and a prefix record to the record of the
    longer path, or to None when that one-edge ``normalize`` ran out of
    fuel; fuel is spent per call, so the key fixes the outcome.
    ``IllTyped`` propagates and is not kept.

    An edge is keyed by the id of its declaration, and a record's content
    also holds the ids of the declarations its parameters name; the
    interning table of the environment and its forks (see
    ``Environment``) keeps them alive.  There an object stands for its
    content, so forks share a key exactly when the edge unfolds to the
    same term.

    ``reports`` keeps one object per distinct group report, keyed by its
    group's identity and its verdicts, so that the orders of a spanning
    search that decide a group alike share its report.  ``made`` holds each
    source's class record and reports as last checked (see
    ``_source_reports``)."""

    def __init__(self, config: DefEqConfig) -> None:
        self.config = config
        self.form_ids: dict[Term, int] = {}
        self.records: dict[tuple, _Record] = {}
        self.extensions: dict[tuple, _Record | None] = {}
        self.reports: dict[tuple, GroupReport] = {}
        self.made: dict[str, tuple[ClassInfo, list[GroupReport]]] = {}

    def record(self, env: Environment, args: tuple[Term, ...], value: Term) -> _Record:
        """The one record of a path whose normal form is ``value`` and whose
        target class takes ``args``."""
        form = self.form_ids.setdefault(value, len(self.form_ids))
        key = (form, args, *[id(env[n]) for n in sorted(consts_in(*args))])
        return self.records.setdefault(key, (args, value, form))

    def extend(self, env: Environment, edge: InstanceInfo, record: _Record) -> _Record | None:
        """The record of ``record``'s path extended by ``edge``."""
        key = (id(env[edge.decl_name]), id(record))
        try:
            return self.extensions[key]
        except KeyError:
            pass
        term, args = _apply_edge(env, edge, record[0], record[1])
        try:
            child = self.record(env, args, normalize(env, self.config, term))
        except FuelExhausted:
            child = None
        self.extensions[key] = child
        return child


def _source_reports(elab: Elaboration, by_source: list[tuple[str, list[PathGroup]]],
                    reuse: _Reuse) -> list[GroupReport]:
    """The reports of every source's path groups, in source order.  The
    groups' paths are read by declaration name: ``elab``'s environment
    unfolds them and its instances give their kinds.  A source's diamonds
    use only the declarations of the classes up to it, so its reports in
    ``reuse.made`` are reused while its class record there is the one
    ``elab`` holds; ``reuse.made`` takes the reports checked here."""
    made = reuse.made
    preferred: set[str] | None = None
    out: list[GroupReport] = []
    for source, groups in by_source:
        info = elab.classes[source]
        entry = made.get(source)
        if entry is not None and entry[0] is info:
            reports = entry[1]
        else:
            if preferred is None:
                preferred = {i.decl_name for i in elab.instances if i.kind == PREFERRED}
            reports = _check_source(elab.env, source, groups, reuse, preferred)
            made[source] = (info, reports)
        out.extend(reports)
    return out


def _check_source(env: Environment, source: str, groups: Iterable[PathGroup],
                  reuse: _Reuse, preferred: set[str]) -> list[GroupReport]:
    """Decide the path groups of one source from the records of its paths,
    each extended edge by edge from the record of the empty path; an edge
    is preferred when ``preferred`` holds its name."""
    config = reuse.config
    ctx, args, start = _source_context(env, source)
    origin = reuse.record(env, args, start)
    # The kernel's verdicts on pairs of distinct form ids, under eta.
    verdicts: dict[tuple[int, int], bool] = {}

    def record_of(path: Path) -> _Record | None:
        """The path's record, or None when its normalisation or a prefix's
        ran out of fuel."""
        record: _Record | None = origin
        for e in path:
            record = reuse.extend(env, e, record)
            if record is None:
                break
        return record

    reports: list[GroupReport] = []
    for group in groups:
        paths = group.paths
        records = [record_of(p) for p in paths]
        ids = tuple(-1 - k if r is None else r[2] for k, r in enumerate(records))
        equal: list[tuple[int, int]] = []
        # Without eta, different forms are unequal unless a path ran out of
        # fuel; otherwise the pairs of paths with different forms are asked.
        if config.eta_kernel and len(set(ids)) > 1 or min(ids) < 0:
            for i, j in itertools.combinations(range(len(paths)), 2):
                a, b = ids[i], ids[j]
                if a == b:
                    continue
                if a < 0 or b < 0:
                    oracle = check_diamond(
                        env, Diamond(source, group.target, paths[i], paths[j]), config)
                elif not config.eta_kernel:
                    continue
                else:
                    oracle = verdicts.get((a, b))
                    if oracle is None:
                        oracle = verdicts[(a, b)] = defeq(env, config, ctx, records[i][1],
                                                          records[j][1])
                if oracle:
                    equal.append((i, j))
        kinds = tuple([p[-1].decl_name in preferred for p in paths])
        key = (id(group), ids, kinds, *equal)
        report = reuse.reports.get(key)
        if report is None:
            report = reuse.reports[key] = GroupReport(group, ids, kinds, frozenset(equal))
        reports.append(report)
    return reports


def same_verdicts(a: GroupReport, b: GroupReport) -> bool:
    """Whether two reports on one path group give each diamond the same
    oracle and predictor.  Orders whose choices leave a group's edges
    alone share its report, so most calls return at ``a is b``."""
    return a is b or list(a.pairs()) == list(b.pairs())


# ---------------------------------------------------------------------------
# Spanning search: try every choice of first parent

@dataclass(frozen=True, slots=True)
class PlacementReport:
    """One first-parent choice and the reports of its first order.  The
    groups' paths hold the declared order's instance records, which only
    name the edges; each report's ``preferred`` gives this order's kinds."""
    index: int
    first_parents: tuple[tuple[str, str], ...]
    groups: tuple[GroupReport, ...]
    coherent: bool
    nonfirst_order_invariant: bool


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
    by item, and a stack holds a fork of the state before each choice
    class.  The declared order is elaborated first.  Each later order finds
    the first choice class whose parent order differs from the previous
    order's, drops the forks above that class's, forks it again and
    elaborates from that class on, so a class is elaborated again only when
    a choice at or before it changed.  A fork shares the class records of
    the classes before it, so a source's reports are reused while its
    record is unchanged (see ``_source_reports``).  A source that is
    checked again looks its path records up in one table kept for the
    whole search, where edges are keyed by interned declaration (see
    ``_Reuse``), so it reduces again only the extensions whose edge or
    prefix unfolds differently.  The search chooses every parent order
    itself: a ``strategy`` with ``parent_order`` overrides is a
    ``ValueError``.

    Every order has the same edges, one ``C.to_P`` per class and parent,
    and so the same path groups.  The graph is therefore built, bounded by
    the path limit and enumerated once, from the declared order; each order
    reads the paths by declaration name, taking its edges' kinds from its
    own instances.  Orders are compared group by group on the verdicts of
    each pair of paths (see ``same_verdicts``).
    """
    if strategy.parent_order:
        raise ValueError("spanning_search chooses every parent order itself; "
                         "strategy.parent_order must be empty")
    items = module.items
    positions = [index for index, item in enumerate(items)
                 if isinstance(item, ClassItem) and len(item.parents) >= 2]
    forks: list[Elaboration] = []

    def elaborate_from(elab: Elaboration, start: int) -> Elaboration:
        for index in range(start, len(items)):
            if len(forks) < len(positions) and positions[len(forks)] == index:
                forks.append(elab.fork(elab.strategy))
            elaborate_item(elab, items[index], config, max_depth)
        return elab

    elab = begin_elaboration(strategy)
    elaborate_from(elab, 0)
    # Under flat_hack the marker class is every class's first parent and is
    # no choice.
    skip = 1 if strategy.kind == "flat_hack" else 0
    names = [items[index].name for index in positions]
    choices = [[p for p, _ in elab.classes[name].parents[skip:]] for name in names]
    previous = tuple(tuple(parents) for parents in choices)
    by_source = _groups_by_source(elab, max_path_len)
    reuse = _Reuse(config)

    def analyzed(order: tuple[tuple[str, ...], ...]) -> list[GroupReport]:
        nonlocal elab, previous
        if order != previous:
            d = next(k for k, (new, old) in enumerate(zip(order, previous)) if new != old)
            del forks[d + 1:]
            overrides = EncodingStrategy(strategy.kind, dict(zip(names, order)))
            elab = elaborate_from(forks[d].fork(overrides), positions[d])
            previous = order
        return _source_reports(elab, by_source, reuse)

    reports: list[PlacementReport] = []
    for index, combo in enumerate(itertools.product(*choices)):
        orders = itertools.product(*(
            [(first,) + rest for rest in itertools.permutations(
                [p for p in parents if p != first])]
            for parents, first in zip(choices, combo)))
        checked = analyzed(next(orders))
        invariant = all(all(map(same_verdicts, analyzed(order), checked)) for order in orders)
        coherent = all(r.commutes(config) for r in checked)
        reports.append(PlacementReport(index, tuple(sorted(zip(names, combo))),
                                       tuple(checked), coherent, invariant))
    return reports


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


def config_dict(encoding: str, config: DefEqConfig) -> dict:
    """The ``config`` record of every JSON report."""
    return {
        "encoding": encoding,
        "eta_kernel": config.eta_kernel,
        "eta_unifier": config.eta_unifier,
    }


# ---------------------------------------------------------------------------
# Random hierarchies for property tests

_FIELD_TYPES = ("α", "α → α", "α → α → α")


def random_hierarchy(seed: int) -> str:
    """Generate .hier source for a random single-parameter hierarchy of one
    to six classes, each with up to three parents and four own fields.

    Field names come from a fixed small pool and each name is tied to one
    type, so overlaps between parents are frequent but never clash."""
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 6)
    lines: list[str] = []
    for idx in range(n):
        name = f"c{idx}"
        n_parents = rng.randint(0, min(3, idx))
        parents = rng.sample([f"c{k}" for k in range(idx)], n_parents)
        n_fields = rng.randint(0 if (parents or idx) else 1, 4)
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
