"""Core term language: a lambda-Pi calculus with single-constructor structures.

Binding is locally nameless: bound variables are de Bruijn indices
(``BoundVar``), binders keep a display name that is ignored by equality, and
open terms refer to context variables through ``FreeVar``.  Alpha-equivalence
is therefore plain structural equality.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Iterator


class Term:
    """Base class of every term node.  Instances are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Sort(Term):
    """The single universe, written ``Type``."""


SORT = Sort()


@dataclass(frozen=True)
class Const(Term):
    """A reference to a global declaration."""

    name: str


@dataclass(frozen=True)
class FreeVar(Term):
    """A named context variable."""

    name: str


@dataclass(frozen=True)
class BoundVar(Term):
    """A de Bruijn index pointing at an enclosing binder."""

    index: int


@dataclass(frozen=True)
class Meta(Term):
    """A unification hole.  Metas only ever occur as bare nodes."""

    mid: int


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term


@dataclass(frozen=True)
class Lam(Term):
    binder: str = dc_field(compare=False)
    ty: Term = dc_field()
    body: Term = dc_field()


@dataclass(frozen=True)
class Pi(Term):
    binder: str = dc_field(compare=False)
    ty: Term = dc_field()
    body: Term = dc_field()
    implicit: bool = dc_field(default=False, compare=False)


@dataclass(frozen=True)
class Mk(Term):
    """A fully applied structure constructor."""

    struct: str
    params: tuple[Term, ...]
    fields: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "fields", tuple(self.fields))


@dataclass(frozen=True)
class Proj(Term):
    """Projection of one named field out of a structure value."""

    struct: str
    field: str
    target: Term


@dataclass(frozen=True)
class Binder:
    """One telescope entry: a name, its type, and the binder kind."""

    name: str
    ty: Term
    instance_implicit: bool = False


Telescope = tuple[Binder, ...]


def apps(fn: Term, *args: Term) -> Term:
    """Left-fold a spine of applications."""
    for a in args:
        fn = App(fn, a)
    return fn


def unfold_apps(t: Term) -> tuple[Term, list[Term]]:
    """Split a term into its head and argument spine."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fn
    args.reverse()
    return t, args


def lift(t: Term, amount: int, cutoff: int = 0) -> Term:
    """Shift dangling de Bruijn indices >= cutoff by amount."""
    if amount == 0:
        return t
    if isinstance(t, BoundVar):
        return BoundVar(t.index + amount) if t.index >= cutoff else t
    if isinstance(t, App):
        return App(lift(t.fn, amount, cutoff), lift(t.arg, amount, cutoff))
    if isinstance(t, Lam):
        return Lam(t.binder, lift(t.ty, amount, cutoff), lift(t.body, amount, cutoff + 1))
    if isinstance(t, Pi):
        return Pi(t.binder, lift(t.ty, amount, cutoff), lift(t.body, amount, cutoff + 1), t.implicit)
    if isinstance(t, Mk):
        return Mk(t.struct, tuple(lift(p, amount, cutoff) for p in t.params),
                  tuple(lift(f, amount, cutoff) for f in t.fields))
    if isinstance(t, Proj):
        return Proj(t.struct, t.field, lift(t.target, amount, cutoff))
    return t


def instantiate(body: Term, value: Term, depth: int = 0) -> Term:
    """Replace BoundVar(depth) in body with value (entering one binder)."""
    if isinstance(body, BoundVar):
        if body.index == depth:
            return lift(value, depth)
        if body.index > depth:
            return BoundVar(body.index - 1)
        return body
    if isinstance(body, App):
        return App(instantiate(body.fn, value, depth), instantiate(body.arg, value, depth))
    if isinstance(body, Lam):
        return Lam(body.binder, instantiate(body.ty, value, depth), instantiate(body.body, value, depth + 1))
    if isinstance(body, Pi):
        return Pi(body.binder, instantiate(body.ty, value, depth), instantiate(body.body, value, depth + 1),
                  body.implicit)
    if isinstance(body, Mk):
        return Mk(body.struct, tuple(instantiate(p, value, depth) for p in body.params),
                  tuple(instantiate(f, value, depth) for f in body.fields))
    if isinstance(body, Proj):
        return Proj(body.struct, body.field, instantiate(body.target, value, depth))
    return body


def abstract1(t: Term, name: str, depth: int = 0) -> Term:
    """Turn FreeVar(name) into BoundVar(depth): the inverse of instantiate."""
    if isinstance(t, FreeVar):
        return BoundVar(depth) if t.name == name else t
    if isinstance(t, BoundVar):
        return BoundVar(t.index + 1) if t.index >= depth else t
    if isinstance(t, App):
        return App(abstract1(t.fn, name, depth), abstract1(t.arg, name, depth))
    if isinstance(t, Lam):
        return Lam(t.binder, abstract1(t.ty, name, depth), abstract1(t.body, name, depth + 1))
    if isinstance(t, Pi):
        return Pi(t.binder, abstract1(t.ty, name, depth), abstract1(t.body, name, depth + 1), t.implicit)
    if isinstance(t, Mk):
        return Mk(t.struct, tuple(abstract1(p, name, depth) for p in t.params),
                  tuple(abstract1(f, name, depth) for f in t.fields))
    if isinstance(t, Proj):
        return Proj(t.struct, t.field, abstract1(t.target, name, depth))
    return t


def subst_frees(t: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    The substituted values never contain dangling bound variables, and inner
    binders are de Bruijn, so no renaming is needed.
    """
    if not mapping:
        return t
    if isinstance(t, FreeVar):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(subst_frees(t.fn, mapping), subst_frees(t.arg, mapping))
    if isinstance(t, Lam):
        return Lam(t.binder, subst_frees(t.ty, mapping), subst_frees(t.body, mapping))
    if isinstance(t, Pi):
        return Pi(t.binder, subst_frees(t.ty, mapping), subst_frees(t.body, mapping), t.implicit)
    if isinstance(t, Mk):
        return Mk(t.struct, tuple(subst_frees(p, mapping) for p in t.params),
                  tuple(subst_frees(f, mapping) for f in t.fields))
    if isinstance(t, Proj):
        return Proj(t.struct, t.field, subst_frees(t.target, mapping))
    return t


def zonk(t: Term, subst: dict[int, Term]) -> Term:
    """Replace assigned metas by their values, transitively.

    Terminates because assignments pass the occurs check.
    """
    if not subst:
        return t
    if isinstance(t, Meta):
        v = subst.get(t.mid)
        return t if v is None else zonk(v, subst)
    if isinstance(t, App):
        return App(zonk(t.fn, subst), zonk(t.arg, subst))
    if isinstance(t, Lam):
        return Lam(t.binder, zonk(t.ty, subst), zonk(t.body, subst))
    if isinstance(t, Pi):
        return Pi(t.binder, zonk(t.ty, subst), zonk(t.body, subst), t.implicit)
    if isinstance(t, Mk):
        return Mk(t.struct, tuple(zonk(p, subst) for p in t.params),
                  tuple(zonk(f, subst) for f in t.fields))
    if isinstance(t, Proj):
        return Proj(t.struct, t.field, zonk(t.target, subst))
    return t


def subterms(t: Term) -> Iterator[Term]:
    """Yield t and every subterm, preorder."""
    yield t
    if isinstance(t, App):
        yield from subterms(t.fn)
        yield from subterms(t.arg)
    elif isinstance(t, (Lam, Pi)):
        yield from subterms(t.ty)
        yield from subterms(t.body)
    elif isinstance(t, Mk):
        for p in t.params:
            yield from subterms(p)
        for f in t.fields:
            yield from subterms(f)
    elif isinstance(t, Proj):
        yield from subterms(t.target)


def metas_in(t: Term) -> set[int]:
    return {s.mid for s in subterms(t) if isinstance(s, Meta)}


def free_names(t: Term) -> set[str]:
    return {s.name for s in subterms(t) if isinstance(s, FreeVar)}


def consts_in(*roots: Term) -> set[str]:
    """The names the terms use as constants or as structures.  The walk keeps
    its own stack: it runs once on every declaration added to an environment."""
    names: set[str] = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        kind = type(s)
        if kind is App:
            stack.append(s.fn)
            stack.append(s.arg)
        elif kind is Const:
            names.add(s.name)
        elif kind is Lam or kind is Pi:
            stack.append(s.ty)
            stack.append(s.body)
        elif kind is Proj:
            names.add(s.struct)
            stack.append(s.target)
        elif kind is Mk:
            names.add(s.struct)
            stack.extend(s.params)
            stack.extend(s.fields)
    return names


def pi_type(binders: Iterable[Binder], result: Term) -> Term:
    """Close a name-based telescope into an iterated Pi type."""
    t = result
    for b in reversed(tuple(binders)):
        t = Pi(b.name, b.ty, abstract1(t, b.name), implicit=b.instance_implicit)
    return t


def lam_closure(binders: Iterable[Binder], body: Term) -> Term:
    """Close a name-based telescope into an iterated lambda."""
    t = body
    for b in reversed(tuple(binders)):
        t = Lam(b.name, b.ty, abstract1(t, b.name))
    return t


def fresh_name(hint: str, taken: set[str]) -> str:
    """Pick a display name based on hint that avoids taken names."""
    if hint not in taken:
        return hint
    i = 1
    while f"{hint}_{i}" in taken:
        i += 1
    return f"{hint}_{i}"


# Pretty printing.  The output is the CLI term grammar: `@name args` for
# applications of globals, dot chains for projections, `T → U` arrows,
# `Pi (x : T), B` and `fun (x : T), b` binders.

_ATOM, _APP, _ARROW = 0, 1, 2


def pp_term(t: Term, env: "object | None" = None) -> str:
    return _pp(t, env, [], _ARROW)


def _ctor_name(struct: str, env: object | None) -> str:
    if env is not None:
        decl = getattr(env, "get", lambda _n: None)(struct)
        name = getattr(decl, "ctor_name", None)
        if name:
            return name
    return f"{struct}.mk"


def _pp(t: Term, env: object | None, names: list[str], prec: int) -> str:
    if isinstance(t, Sort):
        return "Type"
    if isinstance(t, Const):
        return t.name
    if isinstance(t, FreeVar):
        return t.name
    if isinstance(t, Meta):
        return f"?{t.mid}"
    if isinstance(t, BoundVar):
        if t.index < len(names):
            return names[-1 - t.index]
        return f"#{t.index}"
    if isinstance(t, Proj):
        return f"{_pp(t.target, env, names, _ATOM)}.{t.field}"
    if isinstance(t, Mk):
        head = "@" + _ctor_name(t.struct, env)
        parts = [head] + [_pp(a, env, names, _ATOM) for a in (*t.params, *t.fields)]
        s = " ".join(parts)
        return f"({s})" if prec < _APP else s
    if isinstance(t, App):
        head, args = unfold_apps(t)
        if isinstance(head, Const):
            h = "@" + head.name
        else:
            h = _pp(head, env, names, _ATOM)
        s = " ".join([h] + [_pp(a, env, names, _ATOM) for a in args])
        return f"({s})" if prec < _APP else s
    if isinstance(t, Pi):
        if not t.implicit and not _mentions_bound0(t.body):
            lhs = _pp(t.ty, env, names, _APP)
            rhs = _pp(instantiate(t.body, FreeVar("_")), env, names, _ARROW)
            s = f"{lhs} → {rhs}"
            return f"({s})" if prec < _ARROW else s
        name = fresh_name(t.binder or "x", set(names) | free_names(t.body))
        open_, close = ("[", "]") if t.implicit else ("(", ")")
        body = _pp(instantiate(t.body, FreeVar(name)), env, names + [name], _ARROW)
        s = f"Pi {open_}{name} : {_pp(t.ty, env, names, _ARROW)}{close}, {body}"
        return f"({s})" if prec < _ARROW else s
    if isinstance(t, Lam):
        name = fresh_name(t.binder or "x", set(names) | free_names(t.body))
        body = _pp(instantiate(t.body, FreeVar(name)), env, names + [name], _ARROW)
        s = f"fun ({name} : {_pp(t.ty, env, names, _ARROW)}), {body}"
        return f"({s})" if prec < _ARROW else s
    raise TypeError(f"unknown term node: {t!r}")


def _mentions_bound0(t: Term, depth: int = 0) -> bool:
    if isinstance(t, BoundVar):
        return t.index == depth
    if isinstance(t, App):
        return _mentions_bound0(t.fn, depth) or _mentions_bound0(t.arg, depth)
    if isinstance(t, (Lam, Pi)):
        return _mentions_bound0(t.ty, depth) or _mentions_bound0(t.body, depth + 1)
    if isinstance(t, Mk):
        return any(_mentions_bound0(p, depth) for p in t.params) or \
            any(_mentions_bound0(f, depth) for f in t.fields)
    if isinstance(t, Proj):
        return _mentions_bound0(t.target, depth)
    return False


def pp_binder(b: Binder, env: object | None = None) -> str:
    open_, close = ("[", "]") if b.instance_implicit else ("(", ")")
    return f"{open_}{b.name} : {pp_term(b.ty, env)}{close}"


def pp_telescope(tele: Iterable[Binder], env: object | None = None) -> str:
    return " ".join(pp_binder(b, env) for b in tele)
