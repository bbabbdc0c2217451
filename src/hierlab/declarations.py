"""Global declarations and the environment that stores them.

Three declaration kinds exist: single-constructor structures, unfoldable
definitions, and opaque constants.  The environment is an ordered map from
names to declarations; later declarations may only mention earlier ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .terms import SORT, Binder, Telescope, Term, consts_in, lam_closure, pi_type


class EnvironmentError_(Exception):
    """Raised on malformed environment updates (duplicate or forward names)."""


@dataclass(frozen=True)
class StructDecl:
    """A single-constructor structure (also serving as a typeclass), whose
    constructor is named ``<name>.mk``."""

    name: str
    params: Telescope
    fields: Telescope

    @cached_property
    def positions(self) -> dict[str, int]:
        """Each field's position in the constructor, by name, in field order."""
        return {b.name: i for i, b in enumerate(self.fields)}


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


@dataclass(frozen=True)
class OpaqueDecl:
    """A constant with a type but no body; never unfolds."""

    name: str
    binders: Telescope
    result_type: Term


Declaration = StructDecl | DefDecl | OpaqueDecl


class Environment:
    """Ordered name -> declaration map with no forward references.

    An interning environment and its copies share one table in which a
    declaration object stands for its content: ``add`` replaces each
    declaration by the first one taken before that has its name, names the
    same declaration objects and is equal by ``==``."""

    def __init__(self) -> None:
        self._decls: dict[str, Declaration] = {}
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
            (decl.name, frozenset([id(self._decls[n]) for n in names])), [])
        for twin in twins:
            if twin == decl:
                return twin
        twins.append(decl)
        return decl

    def __contains__(self, name: str) -> bool:
        return name in self._decls

    def __iter__(self) -> Iterator[Declaration]:
        return iter(self._decls.values())

    def __len__(self) -> int:
        return len(self._decls)

    def get(self, name: str) -> Declaration | None:
        return self._decls.get(name)

    def __getitem__(self, name: str) -> Declaration:
        try:
            return self._decls[name]
        except KeyError:
            raise EnvironmentError_(f"unknown declaration {name!r}") from None

    def struct(self, name: str) -> StructDecl:
        decl = self[name]
        if not isinstance(decl, StructDecl):
            raise EnvironmentError_(f"{name!r} is not a structure")
        return decl

    def add(self, *decls: Declaration) -> None:
        """Add declarations in order, as one batch, after one walk over all
        their terms finds only names declared before the batch, and no
        duplicate name.  A binder record is walked once: not when a
        declaration added before brought it in, the same object, here or in
        the environment this one was copied from (a constructor's binders,
        a leaf a class shares with its parent), nor again within the batch
        (the telescope a class's projections share).

        Otherwise, such as for a declaration that names itself or another
        of the batch, the declarations are added one by one, each checked
        term by term: the error is a duplicate name or the alphabetically
        first name of the first offending term that is neither declared nor
        the declaration itself, and the declarations before it stay added.
        An interning environment takes each one's interned twin instead."""
        batch = {decl.name: decl for decl in decls}
        new: dict[int, Binder] = {}
        terms: list[Term] = []
        for decl in decls:
            binders, rest = _split(decl)
            for b in binders:
                if id(b) not in self._checked and id(b) not in new:
                    new[id(b)] = b
                    terms.append(b.ty)
            terms += rest
        if (len(batch) == len(decls) and self._decls.keys().isdisjoint(batch)
                and not consts_in(*terms).difference(self._decls)):
            if self._interned is not None:
                batch = {name: self._twin(decl) for name, decl in batch.items()}
            self._decls.update(batch)
            self._checked.update(new)
            return
        for decl in decls:
            if decl.name in self._decls:
                raise EnvironmentError_(f"duplicate declaration {decl.name!r}")
            binders, rest = _split(decl)
            new = {id(b): b for b in binders if id(b) not in self._checked}
            for term in [b.ty for b in new.values()] + rest:
                self._validate_refs(decl.name, term)
            self._decls[decl.name] = decl if self._interned is None else self._twin(decl)
            self._checked.update(new)

    def _validate_refs(self, owner: str, term: Term) -> None:
        """Raise on the alphabetically first name the term uses, as a
        constant or a structure, that is neither declared nor ``owner``."""
        missing = consts_in(term).difference(self._decls)
        missing.discard(owner)
        if missing:
            raise EnvironmentError_(f"declaration {owner!r} references "
                                    f"{min(missing)!r} before its declaration")

    def decl_type(self, name: str) -> Term:
        """The Pi-closed type of a declaration's constant."""
        decl = self[name]
        if isinstance(decl, StructDecl):
            return pi_type(decl.params, SORT)
        return pi_type(decl.binders, decl.result_type)

    def unfolding(self, name: str) -> Term | None:
        """The lambda-closed value of a definition."""
        decl = self._decls.get(name)
        return decl.closure if isinstance(decl, DefDecl) else None


def _split(decl: Declaration) -> tuple[Telescope, list[Term]]:
    """A declaration's binders, a structure's fields too, and its other terms in order."""
    if isinstance(decl, StructDecl):
        return decl.params + decl.fields, []
    if isinstance(decl, DefDecl):
        return decl.binders, [decl.result_type, decl.body]
    return decl.binders, [decl.result_type]
