"""Global declarations and the environment that stores them.

Three declaration kinds exist: single-constructor structures, unfoldable
definitions, and opaque constants.  The environment is one ordered table
from names to declarations; later declarations may only mention earlier
ones.  A structure's constructor, its projections and the instances that
rebuild the parents it does not store are derived: their names are keys of
the table whose entry is the structure, which builds them when one is
first read.  Every environment interns what it adds, so that within it
and its copies one declaration object stands for one content.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterator, Mapping

from .terms import (
    SORT, Binder, Const, FreeVar, Mk, Proj, Telescope, Term, apps, consts_in, fresh_name,
    lam_closure, pi_type, subst_frees, unfold_apps,
)


class EnvironmentError_(Exception):
    """Raised on malformed environment updates (duplicate or forward names)."""


def instance_telescope(cls: str, params: Telescope, hint: str) -> Telescope:
    """The class's parameters, then an instance-implicit binder of the class
    at them, named ``hint`` unless a parameter takes that name."""
    self_type = apps(Const(cls), *(FreeVar(b.name) for b in params))
    name = fresh_name(hint, {b.name for b in params})
    return params + (Binder(name, self_type, instance_implicit=True),)


@dataclass(frozen=True)
class StructDecl:
    """A single-constructor structure, also serving as a typeclass.  Its
    constructor ``<name>.mk``, a projection ``<name>.<field>`` per field and
    an instance ``<name>.to_<P>`` per parent ``P`` it rebuilds are derived
    definitions, built on first read and kept on it, so that an interned
    structure carries interned ones.

    ``substructures`` maps each field that stores a parent to that parent,
    and ``rebuilt`` holds each rebuilt parent applied to its arguments, in
    parent order: a structure's fields do not say which parents they store,
    and a leaf may be named like a parent's instance."""

    name: str
    params: Telescope
    fields: Telescope
    substructures: dict[str, str] = dc_field(default_factory=dict, hash=False)
    rebuilt: tuple[Term, ...] = ()

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each field's position in the constructor, by name, in field order."""
        return {b.name: i for i, b in enumerate(self.fields)}

    @cached_property
    def type(self) -> Term:
        return pi_type(self.params, SORT)

    @cached_property
    def rebuilt_parents(self) -> dict[str, tuple[str, tuple[Term, ...], Term]]:
        """Each rebuilt parent's instance name -> the parent's name, its
        arguments and their application, in parent order."""
        parents = {}
        for parent in self.rebuilt:
            head, args = unfold_apps(parent)
            parents[f"{self.name}.to_{head.name}"] = head.name, tuple(args), parent
        return parents

    def derived_names(self) -> list[str]:
        """The constructor's name, then each projection's, in field order,
        then each rebuilt parent's instance's."""
        return [f"{self.name}.mk", *[f"{self.name}.{b.name}" for b in self.fields],
                *self.rebuilt_parents]

    @cached_property
    def derived(self) -> dict[str, DefDecl]:
        """The constructor and the projections, by name, in that order.  A
        projection takes the value as an instance-implicit argument, so a
        substructure's projection serves as a forgetful instance during
        resolution; its result type reads the earlier fields as projections
        of the value."""
        params, name = self.params, self.name
        binders = instance_telescope(name, params, "self")
        body = Mk(name, tuple(FreeVar(b.name) for b in params),
                  tuple(FreeVar(b.name) for b in self.fields))
        decls = [DefDecl(f"{name}.mk", params + self.fields, binders[-1].ty, body)]
        value = FreeVar(binders[-1].name)
        mapping: dict[str, Term] = {}
        for f in self.fields:
            proj = Proj(name, f.name, value)
            decls.append(DefDecl(f"{name}.{f.name}", binders, subst_frees(f.ty, mapping), proj))
            mapping[f.name] = proj
        return {decl.name: decl for decl in decls}

    def derive(self, name: str, env: Environment) -> DefDecl:
        """The derived declaration ``name``.  The rebuilt instances share
        one telescope, and the projections of its instance variable fill
        the parent structure that ``env`` holds.  An instance is kept per
        parent structure, which the memo keeps alive: another environment
        that holds this structure may lay the parent out otherwise (see
        ``Environment._twin``) and derives its own."""
        parent = self.rebuilt_parents.get(name)
        if parent is None:
            return self.derived[name]
        head, args, app = parent
        struct = env.struct(head)
        memo = self.__dict__
        made = memo.get("rebuilt_instances")
        if made is None:
            binders = instance_telescope(self.name, self.params, "i")
            memo["rebuilt_view"] = binders, *projections(env, self, FreeVar(binders[-1].name))
            made = memo["rebuilt_instances"] = {}
        kept = made.get((name, id(struct)))
        if kept is None:
            binders, leaves, stored = memo["rebuilt_view"]
            decl = DefDecl(name, binders, app, pack_value(env, head, args, leaves, stored))
            kept = made[name, id(struct)] = struct, decl
        return kept[1]


def param_map(params: Telescope, args: tuple[Term, ...]) -> dict[str, Term]:
    """Parameter name -> argument, leaving out a parameter applied to its own
    name, so that ``extends p α`` substitutes nothing and shares its terms."""
    return {b.name: a for b, a in zip(params, args)
            if not (type(a) is FreeVar and a.name == b.name)}


def projections(env: Environment, struct: StructDecl, value: Term
                ) -> tuple[dict[str, Term], dict[str, Term]]:
    """``value``, of structure ``struct``, seen through its layout: each
    leaf field, and each structure stored at any depth, as the chain of
    projections of ``value`` through the substructures that hold it."""
    leaves: dict[str, Term] = {}
    stored: dict[str, Term] = {}
    # An explicit stack: substructures may nest deeper than Python recursion.
    todo = [(struct, value)]
    while todo:
        struct, value = todo.pop()
        for f in struct.fields:
            proj = Proj(struct.name, f.name, value)
            parent = struct.substructures.get(f.name)
            if parent is None:
                leaves[f.name] = proj
            else:
                stored[parent] = proj
                todo.append((env.struct(parent), proj))
    return leaves, stored


def pack_value(env: Environment, name: str, args: tuple[Term, ...],
               leaves: Mapping[str, Term], stored: Mapping[str, Term]) -> Term:
    """A value of structure ``name`` at ``args``: ``leaves[field]`` gives
    each leaf field, and ``stored[parent]`` each substructure; one that
    ``stored`` lacks is packed the same way."""
    struct = env.struct(name)
    mapping = param_map(struct.params, args)
    fields: list[Term] = []
    for f in struct.fields:
        parent = struct.substructures.get(f.name)
        if parent is None:
            fields.append(leaves[f.name])
            continue
        value = stored.get(parent)
        if value is None:
            _, sub_args = unfold_apps(subst_frees(f.ty, mapping))
            value = pack_value(env, parent, tuple(sub_args), leaves, stored)
        fields.append(value)
    return Mk(name, args, tuple(fields))


@dataclass(frozen=True)
class DefDecl:
    """A definition; always unfolded by delta-reduction."""

    name: str
    binders: Telescope
    result_type: Term
    body: Term

    @cached_property
    def closure(self) -> Term:
        """The lambda-closed value that delta-reduction unfolds to."""
        return lam_closure(self.binders, self.body)

    @cached_property
    def type(self) -> Term:
        return pi_type(self.binders, self.result_type)


@dataclass(frozen=True)
class OpaqueDecl:
    """A constant with a type but no body; never unfolds."""

    name: str
    binders: Telescope
    result_type: Term

    @cached_property
    def type(self) -> Term:
        return pi_type(self.binders, self.result_type)


Declaration = StructDecl | DefDecl | OpaqueDecl


class Environment:
    """Ordered name -> declaration map with no forward references.  It
    stores structures, instances and opaque constants, and answers the
    names of each structure's derived constructor, projections and rebuilt
    instances too:
    every name, stored or derived, is one key of one table, and a derived
    name's entry is the structure it comes from.

    An environment and its copies share one interning table in which a
    declaration object stands for its content: ``add`` replaces each
    declaration by the first one taken before that has its name, names the
    same declarations (a derived name by its structure) and is equal by
    ``==``."""

    def __init__(self) -> None:
        self._names: dict[str, Declaration] = {}
        # The interned declarations, keyed by name and the ids of the
        # declarations they name, which are interned and kept alive here.
        self._interned: dict[tuple[str, frozenset[int]], list[Declaration]] = {}

    def copy(self) -> "Environment":
        """An environment with the same declarations and interning table
        that grows separately."""
        env = Environment()
        env._names = dict(self._names)
        env._interned = self._interned
        return env

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __iter__(self) -> Iterator[Declaration]:
        """The declarations in order, each structure followed by its
        constructor, projections and rebuilt instances."""
        for name, decl in self._names.items():
            yield decl if decl.name == name else decl.derive(name, self)

    def __len__(self) -> int:
        return len(self._names)

    def stored(self) -> Iterator[Declaration]:
        """The stored declarations in order, without the derived ones."""
        return (decl for name, decl in self._names.items() if decl.name == name)

    def get(self, name: str) -> Declaration | None:
        decl = self._names.get(name)
        return decl if decl is None or decl.name == name else decl.derive(name, self)

    def __getitem__(self, name: str) -> Declaration:
        decl = self.get(name)
        if decl is None:
            raise EnvironmentError_(f"unknown declaration {name!r}")
        return decl

    def struct(self, name: str) -> StructDecl:
        decl = self._names.get(name)
        if type(decl) is not StructDecl or decl.name != name:
            raise EnvironmentError_(f"{name!r} is not a structure" if name in self
                                    else f"unknown declaration {name!r}")
        return decl

    def add(self, decl: Declaration) -> None:
        """Add a declaration after one walk over its terms finds only names
        declared before it, or its own, and finds that neither its name nor
        a derived one is declared or taken twice.  The same walk keys the
        declaration's interned twin, which it takes instead.

        The error is the first of: the declaration's own name declared; the
        alphabetically first name of the first offending term that is
        neither declared nor the declaration itself; the first derived name
        that is declared or repeats an earlier one."""
        names = self._names
        if decl.name in names:
            raise EnvironmentError_(f"duplicate declaration {decl.name!r}")
        terms = _terms(decl)
        refs = consts_in(*terms)
        refs.discard(decl.name)
        if refs.difference(names):
            for term in terms:
                missing = consts_in(term).difference(names, [decl.name])
                if missing:
                    raise EnvironmentError_(f"declaration {decl.name!r} references "
                                            f"{min(missing)!r} before its declaration")
        derived = decl.derived_names() if type(decl) is StructDecl else []
        if len(set(derived)) < len(derived) or not names.keys().isdisjoint(derived):
            name = next(n for i, n in enumerate(derived) if n in names or n in derived[:i])
            raise EnvironmentError_(f"duplicate declaration {name!r}")
        decl = self._twin(decl, refs)
        names[decl.name] = decl
        names.update(dict.fromkeys(derived, decl))

    def _twin(self, decl: Declaration, refs: set[str]) -> Declaration:
        """The interned declaration equal to ``decl``, which names ``refs``
        besides itself; ``decl`` becomes it when there is none.  The
        declarations it names are interned already.

        A structure is not keyed by the parents it rebuilds: only its
        instances for them read their structures, and those are kept per
        parent structure.  Nor does it differ from a twin that rebuilds the
        same parents in another order: the table lists its derived names in
        the order of the structure added here."""
        struct = type(decl) is StructDecl
        if struct and decl.rebuilt:
            refs = refs.difference([head for head, _, _ in decl.rebuilt_parents.values()])
        twins = self._interned.setdefault(
            (decl.name, frozenset([id(self._names[n]) for n in refs])), [])
        for twin in twins:
            if _alike(twin, decl) if struct else twin == decl:
                return twin
        twins.append(decl)
        return decl

    def unfolding(self, name: str) -> Term | None:
        """The lambda-closed value of a definition."""
        decl = self.get(name)
        return decl.closure if type(decl) is DefDecl else None


def _alike(a: StructDecl, b: StructDecl) -> bool:
    """Equal structures of one name, but for the order of their rebuilt
    parents, which name no parent twice."""
    return ((a.params, a.fields, a.substructures) == (b.params, b.fields, b.substructures)
            and set(a.rebuilt) == set(b.rebuilt))


def _terms(decl: Declaration) -> list[Term]:
    """A declaration's binder types, a structure's fields included, then its
    other terms in order, a structure's rebuilt parents being its only
    others.  A binder type that is a bare variable names no declaration and
    is left out."""
    if isinstance(decl, StructDecl):
        binders, others = decl.params + decl.fields, decl.rebuilt
    elif isinstance(decl, DefDecl):
        binders, others = decl.binders, (decl.result_type, decl.body)
    else:
        binders, others = decl.binders, (decl.result_type,)
    return [b.ty for b in binders if type(b.ty) is not FreeVar] + list(others)
