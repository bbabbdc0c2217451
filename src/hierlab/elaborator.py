"""Compiling surface classes into structures, instances, and goals.

Three encodings of ``extends`` are implemented:

- nested: parents are processed in order; a parent sharing no field name
  with what was already collected becomes a substructure field ``to_<parent>``
  whose projection is registered as a preferred instance (priority 1000); an
  overlapping parent contributes only its missing leaf fields, and a
  synthesized constructor instance (priority 100) rebuilds it, filling
  substructure fields through the shortest preferred-projection path or a
  recursively built constructor, and leaf fields through their origin paths.
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

from .declarations import DefDecl, Environment, OpaqueDecl, StructDecl
from .kernel import DefEqConfig, DEFAULT_CONFIG
from .resolution import MAX_DEPTH
from .surface import (
    ClassItem, DefeqItem, GoalItem, InstanceItem, Item, Pos, SOpaque, SurfaceModule,
    VariablesItem, resolve_expr,
)
from .terms import (
    Binder, Const, FreeVar, Mk, Proj, Telescope, Term, apps, pp_term, subst_frees,
    unfold_apps,
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
    """Which extends-encoding to use, plus per-class parent-order overrides."""

    kind: str = "nested"  # flat | nested | flat_hack
    parent_order: Mapping[str, tuple[str, ...]] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("flat", "nested", "flat_hack"):
            raise ValueError(f"unknown encoding {self.kind!r}")

    def with_first_parent(self, overrides: Mapping[str, str]) -> "EncodingStrategy":
        """Derive a strategy that moves the named parent first for each class."""
        merged = dict(self.parent_order)
        for cls, parent in overrides.items():
            merged[cls] = ("!first", parent)  # resolved against declared order later
        return EncodingStrategy(self.kind, merged)


@dataclass(frozen=True)
class InstanceInfo:
    """One registered instance: a graph edge or a user declaration."""

    decl_name: str
    from_class: str | None
    to_class: str
    priority: int
    kind: str  # preferred-projection | synthesized-constructor | flat-constructor | user-declared


@dataclass(frozen=True)
class LayoutField:
    """One stored field of an elaborated class."""

    name: str
    ty: Term  # over the class parameters (and earlier layout fields)
    parent: str | None = None  # set for substructure fields
    parent_args: tuple[Term, ...] = ()


@dataclass
class ClassInfo:
    name: str
    params: Telescope
    parents: tuple[tuple[str, tuple[Term, ...]], ...]
    own_fields: tuple[tuple[str, Term], ...]
    layout: tuple[LayoutField, ...] = ()
    leaf_types: dict[str, Term] = dc_field(default_factory=dict)
    leaf_origins: dict[str, tuple[tuple[str, str], ...]] = dc_field(default_factory=dict)
    all_names: frozenset[str] = frozenset()

    @property
    def self_type(self) -> Term:
        return apps(Const(self.name), *(FreeVar(b.name) for b in self.params))


@dataclass
class Elaboration:
    """Everything produced from one surface module under one strategy.

    ``variables`` holds the telescope after the last ``variables`` block;
    goals and defeqs each capture the telescope in effect where they appear,
    since a later ``variables`` block replaces the ambient context.
    """

    strategy: EncodingStrategy
    env: Environment
    instances: list[InstanceInfo]
    classes: dict[str, ClassInfo]
    variables: Telescope
    goals: list[tuple[str, Telescope, Term]]
    defeqs: list[tuple[str, Telescope, Term, Term]]

    def fork(self, strategy: EncodingStrategy) -> "Elaboration":
        """A copy that later items extend separately, under ``strategy``.
        The containers are copied; declarations and ``ClassInfo`` records
        are shared, since a record is only filled while its own class is
        declared."""
        return Elaboration(strategy, self.env.copy(), list(self.instances),
                           dict(self.classes), self.variables, list(self.goals),
                           list(self.defeqs))

    def instance_decl(self, name: str) -> DefDecl:
        decl = self.env[name]
        assert isinstance(decl, DefDecl)
        return decl


def flatten_fields(classes: Mapping[str, ClassInfo], name: str) -> list[tuple[str, Term]]:
    """The flat leaf-field view of a class: parents first (duplicates merged
    at first occurrence, alpha-equal types required), then own fields."""
    return list(classes[name].leaf_types.items())


def _param_map(info: ClassInfo, args: tuple[Term, ...]) -> dict[str, Term]:
    return {b.name: a for b, a in zip(info.params, args)}


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
        _declare_class(elab, ClassItem(FLAT_HACK_CLASS, (), (), (), Pos(0, 0)))
    return elab


def elaborate_item(elab: Elaboration, item: Item, config: DefEqConfig = DEFAULT_CONFIG,
                   max_depth: int = MAX_DEPTH) -> None:
    """Elaborate one module item into ``elab``.  What an item adds depends
    only on the items before it and, for a class, on the strategy's order
    of that class's parents."""
    if isinstance(item, ClassItem):
        _declare_class(elab, item)
    elif isinstance(item, InstanceItem):
        _declare_instance(elab, item, config, max_depth)
    elif isinstance(item, VariablesItem):
        elab.variables = _resolve_binders(item.binders, (), elab.env)
    elif isinstance(item, GoalItem):
        elab.goals.append((item.label, elab.variables,
                           resolve_expr(item.target, elab.variables, elab.env)))
    elif isinstance(item, DefeqItem):
        elab.defeqs.append((item.label, elab.variables,
                            resolve_expr(item.lhs, elab.variables, elab.env),
                            resolve_expr(item.rhs, elab.variables, elab.env)))


def preferred_edges(elab: Elaboration) -> frozenset[tuple[str, str]]:
    """The (from, to) pairs of all preferred-projection instances."""
    return frozenset((i.from_class, i.to_class) for i in elab.instances
                     if i.kind == PREFERRED and i.from_class is not None)


# ---------------------------------------------------------------------------
# Classes

def _declare_class(elab: Elaboration, item: ClassItem) -> None:
    if item.name in elab.classes:
        raise ElabError(f"duplicate class {item.name!r}", item.pos)
    params = _resolve_binders(item.binders, (), elab.env)
    parents = _resolve_parents(elab, item, params)
    own_scope = params
    own_fields: list[tuple[str, Term]] = []
    for f in item.fields:
        ty = resolve_expr(f.ty, own_scope, elab.env)
        own_fields.append((f.name, ty))
        own_scope = own_scope + (Binder(f.name, ty),)

    info = ClassInfo(item.name, params, parents, tuple(own_fields))
    elab.classes[item.name] = info
    try:
        _layout(elab, info, item.pos)
    except Exception:
        del elab.classes[item.name]
        raise

    struct = StructDecl(
        info.name, info.params,
        tuple(Binder(f.name, f.ty) for f in info.layout),
        f"{info.name}.mk")
    elab.env.add(struct)
    _declare_constructor(elab, info)
    _declare_projections(elab, info)
    _declare_forgetful_instances(elab, info)


def _resolve_binders(binders, scope: Telescope, env: Environment) -> Telescope:
    out = tuple(scope)
    for b in binders:
        ty = resolve_expr(b.ty, out, env)
        out = out + (Binder(b.name, ty, b.instance_implicit),)
    return out[len(scope):]


def _resolve_parents(elab: Elaboration, item: ClassItem,
                     params: Telescope) -> tuple[tuple[str, tuple[Term, ...]], ...]:
    declared: list[tuple[str, tuple[Term, ...]]] = []
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
    ordered = _apply_parent_order(elab.strategy, item.name, declared, item.pos)
    if elab.strategy.kind == "flat_hack" and item.name != FLAT_HACK_CLASS:
        ordered = [(FLAT_HACK_CLASS, ())] + ordered
    return tuple(ordered)


def _apply_parent_order(strategy: EncodingStrategy, name: str,
                        declared: list[tuple[str, tuple[Term, ...]]],
                        pos: Pos) -> list[tuple[str, tuple[Term, ...]]]:
    override = strategy.parent_order.get(name)
    if override is None:
        return declared
    by_name = {p: (p, a) for p, a in declared}
    if override and override[0] == "!first":
        first = override[1]
        if first not in by_name:
            raise ElabError(f"{name!r} has no parent {first!r} to put first", pos)
        return [by_name[first]] + [pa for pa in declared if pa[0] != first]
    if sorted(override) != sorted(by_name):
        raise ElabError(
            f"parent-order override for {name!r} must be a permutation of its "
            f"declared parents", pos)
    return [by_name[p] for p in override]


def _add_leaf(leaf_types: dict[str, Term], sources: dict[str, str], leaf: str,
              ty: Term, source: str, pos: Pos) -> bool:
    """Record an inherited or own leaf field; False when it is already there
    with an alpha-equal type, FieldTypeClash when the types differ."""
    if leaf in leaf_types:
        if leaf_types[leaf] != ty:
            raise FieldTypeClash(leaf, sources[leaf], source, pos)
        return False
    leaf_types[leaf] = ty
    sources[leaf] = source
    return True


def _layout(elab: Elaboration, info: ClassInfo, pos: Pos) -> None:
    """Lay out the parents in order, then the own fields.  A parent sharing
    no name with what was already collected becomes a substructure field
    (never under flat); any other parent contributes its missing leaf fields
    and is rebuilt by a forgetful instance."""
    layout: list[LayoutField] = []
    collected: set[str] = set()
    leaf_types: dict[str, Term] = {}
    leaf_sources: dict[str, str] = {}
    origins: dict[str, tuple[tuple[str, str], ...]] = {}
    substructures = elab.strategy.kind != "flat"

    for parent, args in info.parents:
        pinfo = elab.classes[parent]
        mapping = _param_map(pinfo, args)
        sub_name = f"to_{parent}"
        parent_names = pinfo.all_names | {sub_name}
        if substructures and not (parent_names & collected):
            layout.append(LayoutField(sub_name, apps(Const(parent), *args),
                                      parent=parent, parent_args=args))
            collected |= parent_names
            for leaf, path in pinfo.leaf_origins.items():
                origins[leaf] = ((info.name, sub_name),) + path
                leaf_types[leaf] = subst_frees(pinfo.leaf_types[leaf], mapping)
                leaf_sources[leaf] = parent
        else:
            for leaf, ty in pinfo.leaf_types.items():
                ty = subst_frees(ty, mapping)
                if _add_leaf(leaf_types, leaf_sources, leaf, ty, parent, pos):
                    layout.append(LayoutField(leaf, ty))
                    collected.add(leaf)
                    origins[leaf] = ((info.name, leaf),)

    for leaf, ty in info.own_fields:
        if leaf not in leaf_types and leaf in collected:
            raise ElabError(f"field name {leaf!r} collides with an inherited "
                            f"substructure field", pos)
        if _add_leaf(leaf_types, leaf_sources, leaf, ty, info.name, pos):
            layout.append(LayoutField(leaf, ty))
            collected.add(leaf)
            origins[leaf] = ((info.name, leaf),)

    info.layout = tuple(layout)
    info.leaf_types = leaf_types
    info.leaf_origins = origins
    info.all_names = frozenset(collected)


def _declare_constructor(elab: Elaboration, info: ClassInfo) -> None:
    binders = info.params + tuple(Binder(f.name, f.ty) for f in info.layout)
    body = Mk(info.name,
              tuple(FreeVar(b.name) for b in info.params),
              tuple(FreeVar(f.name) for f in info.layout))
    elab.env.add(DefDecl(f"{info.name}.mk", binders, info.self_type, body))


def _declare_projections(elab: Elaboration, info: ClassInfo) -> None:
    # The value argument is instance-implicit so substructure projections
    # can serve directly as forgetful instances during resolution.
    self_binder = Binder("self", info.self_type, instance_implicit=True)
    mapping: dict[str, Term] = {}
    for f in info.layout:
        ty = subst_frees(f.ty, mapping)
        elab.env.add(DefDecl(f"{info.name}.{f.name}",
                             info.params + (self_binder,), ty,
                             Proj(info.name, f.name, FreeVar("self"))))
        mapping[f.name] = Proj(info.name, f.name, FreeVar("self"))


def _declare_forgetful_instances(elab: Elaboration, info: ClassInfo) -> None:
    """A preferred instance per substructure field, then a rebuilt instance
    per parent stored without one, in parent order."""
    stored: set[str] = set()
    for f in info.layout:
        if f.parent is not None:
            stored.add(f.parent)
            elab.instances.append(InstanceInfo(
                f"{info.name}.{f.name}", info.name, f.parent,
                PRIORITY_PREFERRED, PREFERRED))
    for parent, args in info.parents:
        if parent not in stored:
            _synthesize_instance(elab, info, parent, args)


def _synthesize_instance(elab: Elaboration, info: ClassInfo,
                         parent: str, args: tuple[Term, ...]) -> None:
    """The forgetful instance that rebuilds a parent not stored as a
    substructure, with the constructor kind and priority of the encoding."""
    binders = info.params + (Binder("i", info.self_type, instance_implicit=True),)
    decl_name = f"{info.name}.to_{parent}"
    body = _build_parent_value(elab, info, parent, args, FreeVar("i"))
    elab.env.add(DefDecl(decl_name, binders, apps(Const(parent), *args), body))
    if elab.strategy.kind == "flat":
        kind, priority = FLAT, PRIORITY_PREFERRED
    else:
        kind, priority = SYNTHESIZED, PRIORITY_SYNTHESIZED
    elab.instances.append(InstanceInfo(decl_name, info.name, parent, priority, kind))


def _build_parent_value(elab: Elaboration, info: ClassInfo, target: str,
                        args: tuple[Term, ...], self_var: Term) -> Term:
    """Rebuild a value of target from a derived value: substructure fields
    go through the shortest preferred-projection path when one exists (ties
    toward the earliest-declared parent) or a recursive constructor
    otherwise; leaf fields follow their recorded origin paths."""
    tinfo = elab.classes[target]
    mapping = _param_map(tinfo, args)
    fields: list[Term] = []
    for f in tinfo.layout:
        if f.parent is not None:
            sub_args = tuple(subst_frees(a, mapping) for a in f.parent_args)
            path = _preferred_path(elab, info.name, f.parent)
            if path is not None:
                value = self_var
                for cls, fname in path:
                    value = Proj(cls, fname, value)
            else:
                value = _build_parent_value(elab, info, f.parent, sub_args, self_var)
            fields.append(value)
        else:
            value = self_var
            for cls, fname in info.leaf_origins[f.name]:
                value = Proj(cls, fname, value)
            fields.append(value)
    return Mk(target, args, tuple(fields))


def _preferred_path(elab: Elaboration, source: str,
                    target: str) -> tuple[tuple[str, str], ...] | None:
    """Breadth-first search over substructure projections, layout order."""
    if source == target:
        return ()
    queue: list[tuple[str, tuple[tuple[str, str], ...]]] = [(source, ())]
    seen = {source}
    while queue:
        cls, path = queue.pop(0)
        for f in elab.classes[cls].layout:
            if f.parent is None or f.parent in seen:
                continue
            step = path + ((cls, f.name),)
            if f.parent == target:
                return step
            seen.add(f.parent)
            queue.append((f.parent, step))
    return None


# ---------------------------------------------------------------------------
# Instances

def _declare_instance(elab: Elaboration, item: InstanceItem, config: DefEqConfig,
                      max_depth: int) -> None:
    binders = _resolve_binders(item.binders, (), elab.env)
    target = resolve_expr(item.target, binders, elab.env)
    head, args = unfold_apps(target)
    if not isinstance(head, Const) or head.name not in elab.classes:
        raise ElabError(f"instance {item.name!r} must target a declared class", item.pos)
    cinfo = elab.classes[head.name]
    full_args = _fill_instance_args(elab, item, cinfo, tuple(args), binders,
                                    config, max_depth)
    target = apps(Const(cinfo.name), *full_args)

    mapping = _param_map(cinfo, full_args)
    leaves = [(leaf, subst_frees(ty, mapping)) for leaf, ty in cinfo.leaf_types.items()]
    expected = {leaf for leaf, _ in leaves}
    assigned: dict[str, Term] = {}
    for a in item.assignments:
        if a.name not in expected:
            raise ElabError(
                f"{item.name!r} assigns {a.name!r}, which is not a leaf field "
                f"of {cinfo.name!r}", a.pos)
        if a.name in assigned:
            raise ElabError(f"{item.name!r} assigns {a.name!r} twice", a.pos)
        assigned[a.name] = a.value
    missing = [leaf for leaf, _ in leaves if leaf not in assigned]
    if missing:
        raise ElabError(f"{item.name!r} is missing fields {missing}", item.pos)

    values: dict[str, Term] = {}
    for leaf, leaf_ty in leaves:
        raw = assigned[leaf]
        if isinstance(raw, SOpaque):
            opaque_name = f"{item.name}.{leaf}"
            elab.env.add(OpaqueDecl(opaque_name, binders, leaf_ty))
            values[leaf] = apps(Const(opaque_name),
                                *(FreeVar(b.name) for b in binders))
        else:
            values[leaf] = resolve_expr(raw, binders, elab.env)

    body = _pack_value(elab, cinfo.name, full_args, values)
    elab.env.add(DefDecl(item.name, binders, target, body))
    priority = item.priority if item.priority is not None else PRIORITY_PREFERRED
    elab.instances.append(InstanceInfo(item.name, None, cinfo.name, priority, USER))


def _fill_instance_args(elab: Elaboration, item: InstanceItem, cinfo: ClassInfo,
                        args: tuple[Term, ...], binders: Telescope,
                        config: DefEqConfig, max_depth: int) -> tuple[Term, ...]:
    """Complete an under-applied class target by resolving the missing
    instance-implicit parameters in the instance's binder context."""
    if len(args) > len(cinfo.params):
        raise ElabError(f"instance {item.name!r} applies {cinfo.name!r} to too "
                        f"many arguments", item.pos)
    if len(args) == len(cinfo.params):
        return args
    from .resolution import ResolutionError, resolve
    full = list(args)
    for param in cinfo.params[len(args):]:
        mapping = {b.name: a for b, a in zip(cinfo.params, full)}
        if not param.instance_implicit:
            raise ElabError(
                f"instance {item.name!r} leaves explicit parameter "
                f"{param.name!r} of {cinfo.name!r} unapplied", item.pos)
        subgoal = subst_frees(param.ty, mapping)
        try:
            term, _trace = resolve(elab.env, elab.instances, binders, subgoal,
                                   config=config, max_depth=max_depth)
        except ResolutionError as exc:
            raise ElabError(
                f"cannot synthesize argument [{param.name} : "
                f"{pp_term(subgoal)}] of instance {item.name!r}: {exc}", item.pos) from None
        full.append(term)
    return tuple(full)


def _pack_value(elab: Elaboration, cls: str, args: tuple[Term, ...],
                values: dict[str, Term]) -> Term:
    """Pack leaf values into this encoding's constructor shape."""
    info = elab.classes[cls]
    mapping = _param_map(info, args)
    fields: list[Term] = []
    for f in info.layout:
        if f.parent is not None:
            sub_args = tuple(subst_frees(a, mapping) for a in f.parent_args)
            fields.append(_pack_value(elab, f.parent, sub_args, values))
        else:
            fields.append(values[f.name])
    return Mk(cls, args, tuple(fields))
