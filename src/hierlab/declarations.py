"""Global declarations and the environment that stores them.

Three declaration kinds exist: single-constructor structures, unfoldable
definitions, and opaque constants.  The environment is an ordered map from
names to declarations; later declarations may only mention earlier ones.
A structure's constructor and projections are derived: the environment
stores the structure alone and builds them when one is first read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .terms import (
    SORT, Binder, Const, FreeVar, Mk, Proj, Telescope, Term, apps, consts_in, fresh_name,
    lam_closure, pi_type, subst_frees,
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
    constructor ``<name>.mk`` and a projection ``<name>.<field>`` per field
    are derived definitions, built from its binder records on first read
    and kept on it, so that an interned structure carries interned ones."""

    name: str
    params: Telescope
    fields: Telescope

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each field's position in the constructor, by name, in field order."""
        return {b.name: i for i, b in enumerate(self.fields)}

    @cached_property
    def type(self) -> Term:
        return pi_type(self.params, SORT)

    def derived_names(self) -> list[str]:
        """The constructor's name, then each projection's, in field order."""
        return [f"{self.name}.mk", *[f"{self.name}.{b.name}" for b in self.fields]]

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
    names of each structure's derived constructor and projections too.

    An interning environment and its copies share one table in which a
    declaration object stands for its content: ``add`` replaces each
    declaration by the first one taken before that has its name, names the
    same declaration objects and is equal by ``==``."""

    def __init__(self) -> None:
        self._decls: dict[str, Declaration] = {}
        # The derived declarations read so far, by name.
        self._derived: dict[str, DefDecl] = {}
        # The binder records of added declarations, by id: the entry keeps
        # its record alive, so an id cannot stand for another one.
        self._checked: dict[int, Binder] = {}
        # The interned declarations, keyed by name and the ids of the
        # declarations they name, which are interned and kept alive here;
        # None when this environment does not intern.
        self._interned: dict[tuple[str, frozenset[int]], list[Declaration]] | None = None

    def copy(self) -> "Environment":
        """An environment with the same declarations and interning table
        that grows separately."""
        env = Environment()
        env._decls = dict(self._decls)
        env._derived = dict(self._derived)
        env._checked = dict(self._checked)
        env._interned = self._interned
        return env

    def intern(self) -> None:
        """Intern the declarations here, and every one added from now on."""
        self._interned = {}
        for decl in self._decls.values():  # each the first of its name
            self._twin(decl)

    def _twin(self, decl: Declaration) -> Declaration:
        """The interned declaration equal to ``decl``, which it becomes when
        there is none.  The declarations it names are interned already."""
        binders, terms = _split(decl)
        names = consts_in(*(b.ty for b in binders), *terms)
        names.discard(decl.name)
        twins = self._interned.setdefault(
            (decl.name, frozenset([id(self[n]) for n in names])), [])
        for twin in twins:
            if twin == decl:
                return twin
        twins.append(decl)
        return decl

    def _owner(self, name: str) -> StructDecl | None:
        """The stored structure whose constructor or projection ``name`` is."""
        dot = name.find(".")
        while dot >= 0:
            struct = self._decls.get(name[:dot])
            if type(struct) is StructDecl:
                rest = name[dot + 1:]
                if rest == "mk" or rest in struct.positions:
                    return struct
            dot = name.find(".", dot + 1)
        return None

    def __contains__(self, name: str) -> bool:
        return name in self._decls or name in self._derived or self._owner(name) is not None

    def __iter__(self) -> Iterator[Declaration]:
        """The stored declarations in order, each structure followed by its
        constructor and projections."""
        for decl in self._decls.values():
            yield decl
            if type(decl) is StructDecl:
                yield from decl.derived.values()

    def __len__(self) -> int:
        return sum(2 + len(d.fields) if type(d) is StructDecl else 1
                   for d in self._decls.values())

    def stored(self) -> Iterator[Declaration]:
        """The stored declarations in order, without the derived ones."""
        return iter(self._decls.values())

    def _derive(self, name: str) -> DefDecl | None:
        """The derived declaration ``name``, kept in the memo, or None."""
        owner = self._owner(name)
        if owner is None:
            return None
        decl = self._derived[name] = owner.derived[name]
        return decl

    def get(self, name: str) -> Declaration | None:
        return self._decls.get(name) or self._derived.get(name) or self._derive(name)

    def __getitem__(self, name: str) -> Declaration:
        decl = self.get(name)
        if decl is None:
            raise EnvironmentError_(f"unknown declaration {name!r}")
        return decl

    def struct(self, name: str) -> StructDecl:
        decl = self._decls.get(name)
        if type(decl) is not StructDecl:
            raise EnvironmentError_(f"{name!r} is not a structure" if name in self
                                    else f"unknown declaration {name!r}")
        return decl

    def add(self, *decls: Declaration) -> None:
        """Add declarations in order, as one batch, after one walk over all
        their terms finds only names declared before the batch, and no name,
        derived ones included, declared twice.  A binder record is walked
        once: not when a declaration added before brought it in, the same
        object, here or in the environment this one was copied from (a leaf
        a class shares with its parent), nor again within the batch.

        Otherwise, such as for a declaration that names itself or another
        of the batch, the declarations are added one by one, each checked
        term by term: the error is the first duplicate name, the
        declaration's own before its derived ones, or the alphabetically
        first name of the first offending term that is neither declared nor
        the declaration itself, and the declarations before it stay added.
        An interning environment takes each one's interned twin instead."""
        new: dict[int, Binder] = {}
        terms: list[Term] = []
        names: list[str] = []
        derived: list[str] = []
        for decl in decls:
            binders, rest = _split(decl)
            for b in binders:
                if id(b) not in self._checked and id(b) not in new:
                    new[id(b)] = b
                    terms.append(b.ty)
            terms += rest
            names.append(decl.name)
            if type(decl) is StructDecl:
                derived += decl.derived_names()
        # A derived name of a new structure is another structure's only
        # when it has a second dot.
        every = names + derived
        if (len(set(every)) == len(every) and not any(map(self.__contains__, names))
                and self._decls.keys().isdisjoint(derived)
                and not any(self._owner(n) for n in derived if n.count(".") > 1)
                and all(map(self.__contains__, consts_in(*terms).difference(self._decls)))):
            for decl in decls:
                self._decls[decl.name] = decl if self._interned is None else self._twin(decl)
            self._checked.update(new)
            return
        for decl in decls:
            if decl.name in self:
                raise EnvironmentError_(f"duplicate declaration {decl.name!r}")
            binders, rest = _split(decl)
            new = {id(b): b for b in binders if id(b) not in self._checked}
            for term in [b.ty for b in new.values()] + rest:
                self._validate_refs(decl.name, term)
            taken = {decl.name}
            for name in decl.derived_names() if type(decl) is StructDecl else ():
                if name in taken or name in self:
                    raise EnvironmentError_(f"duplicate declaration {name!r}")
                taken.add(name)
            self._decls[decl.name] = decl if self._interned is None else self._twin(decl)
            self._checked.update(new)

    def _validate_refs(self, owner: str, term: Term) -> None:
        """Raise on the alphabetically first name the term uses, as a
        constant or a structure, that is neither declared nor ``owner``."""
        missing = {n for n in consts_in(term).difference(self._decls) if n not in self}
        missing.discard(owner)
        if missing:
            raise EnvironmentError_(f"declaration {owner!r} references "
                                    f"{min(missing)!r} before its declaration")

    def decl_type(self, name: str) -> Term:
        """The Pi-closed type of a declaration's constant."""
        return self[name].type

    def unfolding(self, name: str) -> Term | None:
        """The lambda-closed value of a definition."""
        decl = self.get(name)
        return decl.closure if type(decl) is DefDecl else None


def _split(decl: Declaration) -> tuple[Telescope, list[Term]]:
    """A declaration's binders, a structure's fields too, and its other terms in order."""
    if isinstance(decl, StructDecl):
        return decl.params + decl.fields, []
    if isinstance(decl, DefDecl):
        return decl.binders, [decl.result_type, decl.body]
    return decl.binders, [decl.result_type]
