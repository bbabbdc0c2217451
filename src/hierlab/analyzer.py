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

``analyze`` decides oracles per path, not per pair: it builds each path's
composite once per source class and reduces it once to its beta/delta/iota
normal form.  Equal normal forms are equal; without eta, different ones are
not.  With eta, the kernel compares the two normal forms, once per distinct
pair.  Normal forms are not grouped by an eta-long form instead, because
the eta rule is not transitive on structures without fields (``x = unit.mk``
and ``unit.mk = y`` hold while ``x = y`` does not).  ``check_diamond``, the
pairwise comparison of the composites, stays as the reference and decides
the diamonds of any path whose normal form runs out of fuel.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .declarations import Environment, StructDecl
from .elaborator import (
    FLAT, FLAT_HACK_CLASS, PREFERRED, SYNTHESIZED, Elaboration,
    EncodingStrategy, InstanceInfo, elaborate,
)
from .kernel import DefEqConfig, DEFAULT_CONFIG, FuelExhausted, Trace, defeq, normalize
from .resolution import MAX_DEPTH
from .surface import SurfaceModule
from .terms import Binder, Const, FreeVar, Term, apps, fresh_name, subst_frees, unfold_apps

MAX_PATH_LEN = 8

_EDGE_KIND = {PREFERRED: "preferred", SYNTHESIZED: "non-preferred", FLAT: "flat"}


class CycleDetected(Exception):
    def __init__(self, nodes: tuple[str, ...]) -> None:
        super().__init__(f"instance graph has a cycle through {', '.join(nodes)}")
        self.nodes = nodes


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


def _check_acyclic(graph: HierGraph) -> None:
    outgoing: dict[str, list[Edge]] = {}
    for e in graph.edges:
        outgoing.setdefault(e.src, []).append(e)
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
    outgoing: dict[str, list[Edge]] = {}
    for e in graph.edges:
        outgoing.setdefault(e.src, []).append(e)

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


def path_composite(env: Environment, path: Path, args: tuple[Term, ...],
                   value: Term) -> Term:
    """Apply the path's instance declarations left to right, starting from a
    value of the source class at the given parameters."""
    for edge in path:
        decl = env[edge.decl_name]
        value = apps(Const(edge.decl_name), *args, value)
        mapping = {b.name: a for b, a in zip(decl.binders[:-1], args)}
        _, result_args = unfold_apps(decl.result_type)
        args = tuple(subst_frees(a, mapping) for a in result_args)
    return value


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

    Verdicts are decided from one normal form per path (see the module
    docstring) and equal those of ``check_diamond`` wherever it returns.
    It can run out of fuel where this does not: its comparison spends one
    ``unfold_depth`` budget on both composites, while each normal form here
    gets a budget of its own (on ``cube.hier``: ``unfold_depth`` 6–10 under
    nested, 7–13 under flat, 9–17 under flat_hack)."""
    env = elab.env
    diamonds = enumerate_diamonds(build_graph(env, elab.instances), max_path_len)
    reports: list[DiamondReport] = []
    for source, group in itertools.groupby(diamonds, key=lambda d: d.source):
        ctx, args, start = _source_context(env, source)
        composites: dict[Path, tuple[Term, int | None]] = {}
        form_ids: dict[Term, int] = {}
        forms: list[Term] = []
        verdicts: dict[tuple[int, int], bool] = {}

        def composite(path: Path) -> tuple[Term, int | None]:
            """The path's composite and the id of its normal form, or None
            when normalising it runs out of fuel."""
            entry = composites.get(path)
            if entry is None:
                term = path_composite(env, path, args, start)
                try:
                    form = normalize(env, config, ctx, term)
                except FuelExhausted:
                    entry = (term, None)
                else:
                    if form not in form_ids:
                        form_ids[form] = len(forms)
                        forms.append(form)
                    entry = (term, form_ids[form])
                composites[path] = entry
            return entry

        for d in group:
            term_a, id_a = composite(d.path_a)
            term_b, id_b = composite(d.path_b)
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
            reports.append(DiamondReport(d, term_a, term_b, oracle, predict_diamond(d)))
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


def spanning_search(module: SurfaceModule, strategy: EncodingStrategy,
                    config: DefEqConfig = DEFAULT_CONFIG,
                    max_path_len: int = MAX_PATH_LEN,
                    max_depth: int = MAX_DEPTH) -> list[PlacementReport]:
    """Re-elaborate under every first-parent choice and score coherence.

    Each placement is elaborated under every order of the remaining parents,
    declared order first; that first order gives the placement's verdicts,
    and the placement is order-invariant when no other order changes one.
    The search stops at the first order that does, rather than assuming none
    can.  ``config`` and ``max_depth`` reach every elaboration.
    """
    base = elaborate(module, EncodingStrategy(strategy.kind), config, max_depth)
    chooseable: list[tuple[str, list[str]]] = []
    for name, info in base.classes.items():
        parents = [p for p, _ in info.parents if p != FLAT_HACK_CLASS]
        if len(parents) >= 2:
            chooseable.append((name, parents))
    names = [name for name, _ in chooseable]
    declared = tuple(tuple(parents) for _, parents in chooseable)

    def analyzed(order: tuple[tuple[str, ...], ...]) -> tuple[DiamondReport, ...]:
        # The declared order is placement 0's first order, elaborated as `base`.
        elab = base if order == declared else elaborate(
            module, EncodingStrategy(strategy.kind, dict(zip(names, order))),
            config, max_depth)
        return tuple(analyze(elab, config, max_path_len))

    reports: list[PlacementReport] = []
    combos = itertools.product(*(parents for _, parents in chooseable))
    for index, combo in enumerate(combos):
        orders = itertools.product(*(
            [(first,) + rest for rest in itertools.permutations(
                [p for p in parents if p != first])]
            for (_, parents), first in zip(chooseable, combo)))
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
        "summary": {
            "total": len(reports),
            "commuting": sum(1 for r in reports if commutes_under(r, config)),
            "mismatches": sum(1 for r in reports if r.oracle != r.predictor),
        },
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
