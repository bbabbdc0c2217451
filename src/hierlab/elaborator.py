"""Compiling surface classes into structures, instances, and goals.

Three encodings of ``extends`` are implemented:

- nested: parents are processed in order; a parent sharing no field name
  with what was already collected becomes a substructure field ``to_<parent>``
  whose projection is registered as a preferred instance (priority 1000); an
  overlapping parent contributes only its missing leaf fields, and a
  synthesized constructor instance (priority 100) rebuilds it, filling
  each substructure field, and each leaf field, by the projection of the
  instance through the class's layout that holds it (there is at most one),
  or a substructure the class does not hold by a recursively built
  constructor.
- flat: the nested rules with no parent stored as a substructure.  Every
  parent takes the overlapping branch, so a class stores its leaf-field view
  in order, and each direct parent gets a rebuilt instance
  ``Mk(parent, args, <leaf projections>)`` of kind flat-constructor at
  priority 1000.
- flat_hack: an empty class is prepended to every extends list and the
  nested rules run; the shared empty substructure makes every real parent
  overlap, so no preferred edge between real classes survives.

The overlap test uses the parent's complete transitive field-name set
(substructure names included), which is exactly what makes flat_hack work.

A class adds one structure to the environment, which names its stored
parents (``substructures``) and its rebuilt ones (``rebuilt``).  The
structure's constructor, its projections, preferred instances included,
and its rebuilt instances are derived from it when first read
(``declarations.StructDecl.derive``); the class adds only their
``InstanceInfo`` records.

``elaborate`` is ``begin_elaboration``, then ``elaborate_item`` once per
module item, then a check that every parent-order override names a class
of the module.  What an item adds depends only on the state the items
before it left and, for a class, on the strategy's order of its parents.
``Elaboration.fork`` copies that state so that the rest of the module can
be elaborated under another strategy; the spanning search forks before
each class with several parents rather than re-elaborate the module from
its first item.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping

from .declarations import (
    DefDecl, Environment, EnvironmentError_, OpaqueDecl, StructDecl, pack_value, param_map,
    projections,
)
from .kernel import DefEqConfig, DEFAULT_CONFIG, KernelError, check_type
from .resolution import MAX_DEPTH
from .surface import (
    ClassItem, DefeqItem, GoalItem, InstanceItem, Item, Pos, SOpaque, SurfaceBinder,
    SurfaceModule, VariablesItem, resolve_expr,
)
from .terms import (
    SORT, Binder, Const, FreeVar, Pi, Telescope, Term, apps, free_names, pp_term,
    subst_frees, unfold_apps,
)

FLAT_HACK_CLASS = "flat_hack"

PREFERRED = "preferred-projection"
SYNTHESIZED = "synthesized-constructor"
FLAT = "flat-constructor"
USER = "user-declared"

PRIORITY_PREFERRED = 1000
PRIORITY_SYNTHESIZED = 100


class ElabError(Exception):
    def __init__(self, message: str, pos: Pos | None = None) -> None:
        if pos is not None:
            message = f"{pos.line}:{pos.col}: {message}"
        super().__init__(message)
        self.pos = pos


class FieldTypeClash(ElabError):
    """The same leaf field is inherited with two non-alpha-equal types."""

    def __init__(self, field: str, class_a: str, class_b: str, pos: Pos | None = None) -> None:
        super().__init__(
            f"field {field!r} is inherited from {class_a} and {class_b} "
            f"with clashing types", pos)
        self.field = field


@dataclass(frozen=True)
class EncodingStrategy:
    """Which extends-encoding to use, plus per-class parent-order overrides.

    ``parent_order[cls]`` names some of the class's parents: they come
    first, in that order, and the rest follow in declared order."""

    kind: str = "nested"  # flat | nested | flat_hack
    parent_order: Mapping[str, tuple[str, ...]] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "nested", "flat_hack"):
            raise ValueError(f"unknown encoding {self.kind!r}")


@dataclass(frozen=True, slots=True)
class InstanceInfo:
    """One registered instance: a graph edge or a user declaration."""

    decl_name: str
    from_class: str | None
    to_class: str
    priority: int
    kind: str  # preferred-projection | synthesized-constructor | flat-constructor | user-declared


@dataclass(frozen=True, eq=False)
class ClassInfo:
    """An elaborated class, built each time the class is declared; a fork
    shares the records of the classes before it.  Its interned ``struct``,
    not the record, stands for its content.  A leaf field's ``Binder``
    is its parent's whenever the parent's arguments leave its type as it
    was, so a leaf inherited down a chain of classes is one record.
    ``struct`` is the class's structure as the environment holds it, which
    gives its name, parameters and layout; the twin that another fork
    added first may list its rebuilt parents in another order."""

    parents: tuple[tuple[str, tuple[Term, ...]], ...]
    own_fields: tuple[tuple[str, Term], ...]
    struct: StructDecl
    leaves: dict[str, Binder]  # each leaf field, in flat order
    all_names: frozenset[str]

    @property
    def name(self) -> str:
        return self.struct.name

    @property
    def params(self) -> Telescope:
        return self.struct.params

    @property
    def layout(self) -> Telescope:
        """The structure's fields, over the parameters and earlier fields."""
        return self.struct.fields

    @property
    def substructures(self) -> dict[str, str]:
        """Each substructure field -> the parent it stores."""
        return self.struct.substructures


@dataclass
class Elaboration:
    """Everything produced from one surface module under one strategy.

    ``variables`` holds the telescope after the last ``variables`` block;
    goals and defeqs each capture the telescope in effect where they appear,
    since a later ``variables`` block replaces the ambient context.
    ``labels`` maps the ``("goal", label)`` and ``("defeq", label)`` pairs
    taken so far to their items' positions, so that a repeated label is an
    error at its item and a stored item's diagnostic names its place.
    """

    strategy: EncodingStrategy
    env: Environment
    instances: list[InstanceInfo]
    classes: dict[str, ClassInfo]
    variables: Telescope
    goals: list[tuple[str, Telescope, Term]]
    defeqs: list[tuple[str, Telescope, Term, Term]]
    labels: dict[tuple[str, str], Pos] = dc_field(default_factory=dict)

    def fork(self, strategy: EncodingStrategy) -> "Elaboration":
        """A copy that later items extend separately, under ``strategy``.
        The containers are copied, sharing declarations and ``ClassInfo``
        records; a declaration, not a record, stands for its content."""
        return Elaboration(strategy, self.env.copy(), list(self.instances),
                           dict(self.classes), self.variables, list(self.goals),
                           list(self.defeqs), dict(self.labels))


def elaborate(module: SurfaceModule, strategy: EncodingStrategy,
              config: DefEqConfig = DEFAULT_CONFIG,
              max_depth: int = MAX_DEPTH) -> Elaboration:
    """Elaborate a parsed module under the given encoding strategy.

    ``config`` and ``max_depth`` govern the instance searches that complete
    under-applied instance targets.  Deterministic: the same module and
    strategy produce the same environment, declaration by declaration.
    """
    elab = begin_elaboration(strategy)
    for item in module.items:
        elaborate_item(elab, item, config, max_depth)
    unused = sorted(set(strategy.parent_order) - set(elab.classes))
    if unused:
        raise ElabError(f"parent-order override names unknown class {unused[0]!r}")
    return elab


def begin_elaboration(strategy: EncodingStrategy) -> Elaboration:
    """The state before a module's first item: empty, except for the empty
    class that flat_hack prepends to every extends list."""
    elab = Elaboration(strategy=strategy, env=Environment(), instances=[],
                       classes={}, variables=(), goals=[], defeqs=[])
    if strategy.kind == "flat_hack":
        _declare_class(elab, ClassItem(FLAT_HACK_CLASS, (), (), (), Pos(0, 0)),
                       DEFAULT_CONFIG)
    return elab


def elaborate_item(elab: Elaboration, item: Item, config: DefEqConfig = DEFAULT_CONFIG,
                   max_depth: int = MAX_DEPTH) -> None:
    """Elaborate one module item into ``elab``.  What an item adds depends
    only on the items before it and, for a class, on the strategy's order
    of that class's parents.  A name the item declares twice, or a goal or
    defeq label that an earlier item took, is an error at the item."""
    try:
        if isinstance(item, ClassItem):
            _declare_class(elab, item, config)
        elif isinstance(item, InstanceItem):
            _declare_instance(elab, item, config, max_depth)
        elif isinstance(item, VariablesItem):
            elab.variables = _resolve_binders(item.binders, elab.env, config)
        elif isinstance(item, GoalItem):
            _take_label(elab, "goal", item)
            elab.goals.append((item.label, elab.variables,
                               resolve_expr(item.target, elab.variables, elab.env)))
        elif isinstance(item, DefeqItem):
            _take_label(elab, "defeq", item)
            elab.defeqs.append((item.label, elab.variables,
                                resolve_expr(item.lhs, elab.variables, elab.env),
                                resolve_expr(item.rhs, elab.variables, elab.env)))
    except EnvironmentError_ as exc:
        raise ElabError(str(exc), item.pos) from None


def _take_label(elab: Elaboration, kind: str, item: GoalItem | DefeqItem) -> None:
    key = (kind, item.label)
    if key in elab.labels:
        raise ElabError(f"duplicate {kind} label {item.label!r}", item.pos)
    elab.labels[key] = item.pos


# ---------------------------------------------------------------------------
# Classes

def _declare_class(elab: Elaboration, item: ClassItem, config: DefEqConfig) -> None:
    if item.name in elab.classes:
        raise ElabError(f"duplicate class {item.name!r}", item.pos)
    params = _resolve_binders(item.binders, elab.env, config)
    parents = _resolve_parents(elab, item, params)
    own_fields = tuple((b.name, b.ty) for b in _resolve_binders(
        item.fields, elab.env, config, params)[len(params):])

    layout, substructures, leaves, collected = _layout(elab, item.name, parents,
                                                       own_fields, item.pos)
    # A field beside a parameter of its name would capture it in the
    # constructor's telescope and in the types of later fields.
    for b in params:
        if b.name in leaves or b.name in substructures:
            pos = next((f.pos for f in item.fields if f.name == b.name), item.pos)
            raise ElabError(f"field {b.name!r} of {item.name!r} has the name of a "
                            f"parameter", pos)
    direct = set(substructures.values())
    rebuilt = [(parent, args) for parent, args in parents if parent not in direct]
    elab.env.add(StructDecl(item.name, params, layout, substructures,
                            tuple(apps(Const(parent), *args) for parent, args in rebuilt)))
    elab.classes[item.name] = ClassInfo(parents, own_fields, elab.env.struct(item.name),
                                        leaves, collected)
    _declare_forgetful_instances(elab, item.name, substructures, [p for p, _ in rebuilt])


def _resolve_binders(binders: tuple[SurfaceBinder, ...], env: Environment,
                     config: DefEqConfig, scope: Telescope = ()) -> Telescope:
    """``scope`` extended by the binders.  Each binder's type is checked by
    the kernel in the scope before it, as the binder type of a ``Pi``, so
    it must be a type."""
    for b in binders:
        ty = resolve_expr(b.ty, scope, env)
        try:
            check_type(env, config, scope, Pi(b.name, ty, SORT))
        except KernelError as exc:
            raise ElabError(str(exc), b.pos) from None
        scope = scope + (Binder(b.name, ty, b.instance_implicit),)
    return scope


def _resolve_parents(elab: Elaboration, item: ClassItem,
                     params: Telescope) -> tuple[tuple[str, tuple[Term, ...]], ...]:
    # Under flat_hack the marker class is every class's first parent, so
    # naming it again is a duplicate.
    marker = ([(FLAT_HACK_CLASS, ())] if elab.strategy.kind == "flat_hack"
              and item.name != FLAT_HACK_CLASS else [])
    declared: list[tuple[str, tuple[Term, ...]]] = list(marker)
    for parent_expr in item.parents:
        term = resolve_expr(parent_expr, params, elab.env)
        head, args = unfold_apps(term)
        if not isinstance(head, Const) or head.name not in elab.classes:
            raise ElabError(f"parent of {item.name!r} is not a declared class", item.pos)
        parent = elab.classes[head.name]
        if len(args) != len(parent.params):
            raise ElabError(
                f"parent {head.name!r} of {item.name!r} must be applied to all "
                f"{len(parent.params)} parameters", item.pos)
        if any(head.name == p for p, _ in declared):
            raise ElabError(f"duplicate parent {head.name!r} in {item.name!r}", item.pos)
        declared.append((head.name, tuple(args)))
    return tuple(marker + _apply_parent_order(elab.strategy, item.name,
                                              declared[len(marker):], item.pos))


def _apply_parent_order(strategy: EncodingStrategy, name: str,
                        declared: list[tuple[str, tuple[Term, ...]]],
                        pos: Pos) -> list[tuple[str, tuple[Term, ...]]]:
    """The override's parents first, in its order, then the rest in
    declared order."""
    first = strategy.parent_order.get(name, ())
    by_name = dict(declared)
    for k, parent in enumerate(first):
        if parent not in by_name:
            raise ElabError(f"{name!r} has no parent {parent!r} to put first", pos)
        if parent in first[:k]:
            raise ElabError(f"parent-order override for {name!r} names {parent!r} "
                            f"twice", pos)
    return ([(p, by_name[p]) for p in first]
            + [pa for pa in declared if pa[0] not in first])


def _add_leaf(leaves: dict[str, Binder], sources: dict[str, str], record: Binder,
              source: str, pos: Pos) -> bool:
    """Record an inherited or own leaf field; False when it is already there
    with an alpha-equal type, FieldTypeClash when the types differ."""
    leaf = record.name
    if leaf in leaves:
        if leaves[leaf].ty != record.ty:
            raise FieldTypeClash(leaf, sources[leaf], source, pos)
        return False
    leaves[leaf] = record
    sources[leaf] = source
    return True


def _inherit(record: Binder, mapping: dict[str, Term]) -> Binder:
    """A parent's leaf field at this class's arguments: the parent's own
    record when they leave its type unchanged."""
    ty = subst_frees(record.ty, mapping)
    return record if ty is record.ty else Binder(record.name, ty)


def _layout(elab: Elaboration, name: str,
            parents: tuple[tuple[str, tuple[Term, ...]], ...],
            own_fields: tuple[tuple[str, Term], ...], pos: Pos
            ) -> tuple[Telescope, dict[str, str], dict[str, Binder], frozenset[str]]:
    """Lay out the parents in order, then the own fields.  A parent sharing
    no name with what was already collected becomes a substructure field
    (never under flat); any other parent contributes its missing leaf fields
    and is rebuilt by a forgetful instance.  Returns the layout, the
    substructure fields, the leaf records and the collected names.

    A class has at most one substructure path to any class: storing ``A``
    at any depth collects the name ``to_A``, so no other parent that is
    ``A`` or stores ``A`` is stored as well."""
    layout: list[Binder] = []
    substructures: dict[str, str] = {}
    collected: set[str] = set()
    leaves: dict[str, Binder] = {}
    leaf_sources: dict[str, str] = {}
    held: dict[str, tuple[str, str]] = {}  # a leaf in a substructure -> its field, parent
    nested = elab.strategy.kind != "flat"

    for parent, args in parents:
        pinfo = elab.classes[parent]
        mapping = param_map(pinfo.params, args)
        sub_name = f"to_{parent}"
        parent_names = pinfo.all_names | {sub_name}
        if nested and not (parent_names & collected):
            layout.append(Binder(sub_name, apps(Const(parent), *args)))
            substructures[sub_name] = parent
            collected |= parent_names
            for leaf, record in pinfo.leaves.items():
                leaves[leaf] = _inherit(record, mapping)
                leaf_sources[leaf] = parent
            held.update(dict.fromkeys(pinfo.leaves, (sub_name, parent)))
        elif not mapping and leaves.keys().isdisjoint(pinfo.leaves):
            # Every record is the parent's and none is there yet, so none
            # can clash: the per-leaf path below would add each in turn.
            layout.extend(pinfo.leaves.values())
            leaves.update(pinfo.leaves)
            leaf_sources.update(dict.fromkeys(pinfo.leaves, parent))
            collected.update(pinfo.leaves)
        else:
            for record in pinfo.leaves.values():
                inherited = _inherit(record, mapping)
                if _add_leaf(leaves, leaf_sources, inherited, parent, pos):
                    named = free_names(record.ty).intersection(held, pinfo.leaves) \
                        if held else ()
                    if named:
                        # Each leaf held in a substructure is read out of it,
                        # in one substitution with the parent's arguments.
                        views = {leaf: projections(elab.env, elab.env.struct(held[leaf][1]),
                                                   FreeVar(held[leaf][0]))[0][leaf]
                                 for leaf in named}
                        inherited = Binder(record.name, subst_frees(record.ty, mapping | views))
                    layout.append(inherited)
                    collected.add(record.name)

    for leaf, ty in own_fields:
        if leaf not in leaves and leaf in collected:
            raise ElabError(f"field name {leaf!r} collides with an inherited "
                            f"substructure field", pos)
        record = Binder(leaf, ty)
        if _add_leaf(leaves, leaf_sources, record, name, pos):
            layout.append(record)
            collected.add(leaf)
    return tuple(layout), substructures, leaves, frozenset(collected)


def _declare_forgetful_instances(elab: Elaboration, name: str, substructures: dict[str, str],
                                 rebuilt: list[str]) -> None:
    """The records of a preferred instance per substructure field, then of
    a rebuilt instance per parent stored without one, in parent order, with
    the constructor kind and priority of the encoding.  The declarations
    are derived from the class's structure."""
    for field, parent in substructures.items():
        elab.instances.append(InstanceInfo(
            f"{name}.{field}", name, parent, PRIORITY_PREFERRED, PREFERRED))
    if elab.strategy.kind == "flat":
        kind, priority = FLAT, PRIORITY_PREFERRED
    else:
        kind, priority = SYNTHESIZED, PRIORITY_SYNTHESIZED
    for parent in rebuilt:
        elab.instances.append(InstanceInfo(f"{name}.to_{parent}", name, parent, priority, kind))


# ---------------------------------------------------------------------------
# Instances

def _declare_instance(elab: Elaboration, item: InstanceItem, config: DefEqConfig,
                      max_depth: int) -> None:
    binders = _resolve_binders(item.binders, elab.env, config)
    target = resolve_expr(item.target, binders, elab.env)
    head, args = unfold_apps(target)
    if not isinstance(head, Const) or head.name not in elab.classes:
        raise ElabError(f"instance {item.name!r} must target a declared class", item.pos)
    cinfo = elab.classes[head.name]
    full_args = _fill_instance_args(elab, item, cinfo, tuple(args), binders,
                                    config, max_depth)
    target = apps(Const(cinfo.name), *full_args)

    assigned: dict[str, Term] = {}
    for a in item.assignments:
        if a.name not in cinfo.leaves:
            raise ElabError(
                f"{item.name!r} assigns {a.name!r}, which is not a leaf field "
                f"of {cinfo.name!r}", a.pos)
        if a.name in assigned:
            raise ElabError(f"{item.name!r} assigns {a.name!r} twice", a.pos)
        assigned[a.name] = a.value
    missing = [leaf for leaf in cinfo.leaves if leaf not in assigned]
    if missing:
        raise ElabError(f"{item.name!r} is missing fields {missing}", item.pos)

    # Every value is resolved before the opaque fields are declared, so that
    # no value can name the instance's own fields.  ``values`` also takes
    # each parameter to its argument, so that an opaque field's type is its
    # record's under one substitution of the arguments and earlier values.
    values = param_map(cinfo.params, full_args) | {
        leaf: resolve_expr(assigned[leaf], binders, elab.env)
        for leaf in cinfo.leaves if not isinstance(assigned[leaf], SOpaque)}
    for leaf, record in cinfo.leaves.items():
        if isinstance(assigned[leaf], SOpaque):
            opaque_name = f"{item.name}.{leaf}"
            elab.env.add(OpaqueDecl(opaque_name, binders, subst_frees(record.ty, values)))
            values[leaf] = apps(Const(opaque_name), *(FreeVar(b.name) for b in binders))

    body = pack_value(elab.env, cinfo.name, full_args, values, {})
    elab.env.add(DefDecl(item.name, binders, target, body))
    priority = item.priority if item.priority is not None else PRIORITY_PREFERRED
    elab.instances.append(InstanceInfo(item.name, None, cinfo.name, priority, USER))


def _fill_instance_args(elab: Elaboration, item: InstanceItem, cinfo: ClassInfo,
                        args: tuple[Term, ...], binders: Telescope,
                        config: DefEqConfig, max_depth: int) -> tuple[Term, ...]:
    """Complete an under-applied class target by resolving the missing
    instance-implicit parameters in the instance's binder context, with one
    answer table for all of them."""
    if len(args) > len(cinfo.params):
        raise ElabError(f"instance {item.name!r} applies {cinfo.name!r} to too "
                        f"many arguments", item.pos)
    if len(args) == len(cinfo.params):
        return args
    from .resolution import AnswerTable, ResolutionError, resolve
    table = AnswerTable()
    full = list(args)
    for param in cinfo.params[len(args):]:
        mapping = param_map(cinfo.params, tuple(full))
        if not param.instance_implicit:
            raise ElabError(
                f"instance {item.name!r} leaves explicit parameter "
                f"{param.name!r} of {cinfo.name!r} unapplied", item.pos)
        subgoal = subst_frees(param.ty, mapping)
        try:
            term, _trace = resolve(elab.env, elab.instances, binders, subgoal,
                                   config=config, max_depth=max_depth, table=table)
        except ResolutionError as exc:
            raise ElabError(
                f"cannot synthesize argument [{param.name} : "
                f"{pp_term(subgoal)}] of instance {item.name!r}: {exc}", item.pos) from None
        full.append(term)
    return tuple(full)

