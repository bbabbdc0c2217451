"""Global declarations and the environment that stores them.

Three declaration kinds exist: single-constructor structures, unfoldable
definitions, and opaque constants.  The environment is an ordered map from
names to declarations; later declarations may only mention earlier ones.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .terms import Binder, Telescope, Term, consts_in, lam_closure, pi_type


class EnvironmentError_(Exception):
    """Raised on malformed environment updates (duplicate or forward names)."""


@dataclass(frozen=True)
class StructDecl:
    """A single-constructor structure (also serving as a typeclass)."""

    name: str
    params: Telescope
    fields: Telescope
    ctor_name: str

    def field_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.fields)

    def field_index(self, field: str) -> int:
        for i, b in enumerate(self.fields):
            if b.name == field:
                return i
        raise KeyError(f"{self.name} has no field {field!r}")


@dataclass(frozen=True)
class DefDecl:
    """A definition; always unfolded by delta-reduction."""

    name: str
    binders: Telescope
    result_type: Term
    body: Term


@dataclass(frozen=True)
class OpaqueDecl:
    """A constant with a type but no body; never unfolds."""

    name: str
    binders: Telescope
    result_type: Term


Declaration = StructDecl | DefDecl | OpaqueDecl


class Environment:
    """Ordered name -> declaration map with no forward references."""

    def __init__(self) -> None:
        self._decls: dict[str, Declaration] = {}
        self._closures: dict[str, Term] = {}

    def copy(self) -> "Environment":
        """An environment with the same declarations that grows separately.
        The unfolding memo is copied, never shared: a name declared after
        the copy may unfold to different bodies in the two environments."""
        env = Environment()
        env._decls = dict(self._decls)
        env._closures = dict(self._closures)
        return env

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

    def add(self, decl: Declaration) -> None:
        if decl.name in self._decls:
            raise EnvironmentError_(f"duplicate declaration {decl.name!r}")
        for term in _decl_terms(decl):
            self._validate_refs(decl.name, term)
        self._decls[decl.name] = decl

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
            from .terms import SORT
            return pi_type(decl.params, SORT)
        return pi_type(decl.binders, decl.result_type)

    def unfolding(self, name: str) -> Term | None:
        """The lambda-closed value of a definition, memoized."""
        decl = self._decls.get(name)
        if not isinstance(decl, DefDecl):
            return None
        cached = self._closures.get(name)
        if cached is None:
            cached = lam_closure(decl.binders, decl.body)
            self._closures[name] = cached
        return cached


def _decl_terms(decl: Declaration) -> Iterator[Term]:
    if isinstance(decl, StructDecl):
        binders: tuple[Binder, ...] = decl.params + decl.fields
    else:
        binders = decl.binders
    for b in binders:
        yield b.ty
    if isinstance(decl, (DefDecl, OpaqueDecl)):
        yield decl.result_type
    if isinstance(decl, DefDecl):
        yield decl.body
