"""Core term language: a lambda-Pi calculus with single-constructor structures.

Term nodes, binders and the surface syntax nodes share one recipe,
``node``: slotted dataclasses built by plain attribute stores, compared
and hashed by their fields.  Nothing mutates a node once it is built.

Binding is locally nameless: bound variables are de Bruijn indices
(``BoundVar``), binders keep a display name that is ignored by equality, and
open terms refer to context variables through ``FreeVar``.  Alpha-equivalence
is therefore plain structural equality.

Every substitution (``lift``, ``instantiate``, ``abstract``, ``subst_frees``,
``zonk``) and every variable reader (``metas_in``, ``free_names``) is one
walker, ``_map_vars``, given a different function for the variable and meta
leaves.  The walker shares unchanged subterms: a substitution that changes
nothing returns its input object.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import is_
from typing import Callable, Container, Iterable, Sequence


# Substitution, reduction and the resolver build term nodes in bulk, where a
# frozen dataclass pays one ``object.__setattr__`` per field.
node = dataclass(slots=True, unsafe_hash=True)


class Term:
    """Base class of every term node.  Instances are never mutated."""

    __slots__ = ()


@node
class Sort(Term):
    """The single universe, written ``Type``."""


SORT = Sort()


@node
class Const(Term):
    """A reference to a global declaration."""

    name: str


@node
class FreeVar(Term):
    """A named context variable."""

    name: str


@node
class BoundVar(Term):
    """A de Bruijn index pointing at an enclosing binder."""

    index: int


@node
class Meta(Term):
    """A unification hole.  Metas only ever occur as bare nodes."""

    mid: int


@node
class App(Term):
    fn: Term
    arg: Term


@node
class Lam(Term):
    binder: str = dc_field(compare=False)
    ty: Term = dc_field()
    body: Term = dc_field()


@node
class Pi(Term):
    binder: str = dc_field(compare=False)
    ty: Term = dc_field()
    body: Term = dc_field()
    implicit: bool = dc_field(default=False, compare=False)


@node
class Mk(Term):
    """A fully applied structure constructor."""

    struct: str
    params: tuple[Term, ...]
    fields: tuple[Term, ...]


@node
class Proj(Term):
    """Projection of one named field out of a structure value."""

    struct: str
    field: str
    target: Term


@node
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


def _map_vars(t: Term, leaf: Callable[[Term, int], Term], depth: int) -> Term:
    """Rebuild t with each BoundVar, FreeVar and Meta node replaced by
    ``leaf(node, depth + binders above it)``.  A subterm in which nothing
    changed comes back as the same object, so unchanged subterms are shared."""
    kind = type(t)
    if kind is App:
        fn = _map_vars(t.fn, leaf, depth)
        arg = _map_vars(t.arg, leaf, depth)
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if kind is BoundVar or kind is FreeVar or kind is Meta:
        return leaf(t, depth)
    if kind is Lam or kind is Pi:
        ty = _map_vars(t.ty, leaf, depth)
        body = _map_vars(t.body, leaf, depth + 1)
        if ty is t.ty and body is t.body:
            return t
        return Lam(t.binder, ty, body) if kind is Lam else Pi(t.binder, ty, body, t.implicit)
    if kind is Mk:
        params = tuple([_map_vars(p, leaf, depth) for p in t.params])
        fields = tuple([_map_vars(f, leaf, depth) for f in t.fields])
        if all(map(is_, params, t.params)) and all(map(is_, fields, t.fields)):
            return t
        return Mk(t.struct, params, fields)
    if kind is Proj:
        target = _map_vars(t.target, leaf, depth)
        return t if target is t.target else Proj(t.struct, t.field, target)
    return t


def lift(t: Term, amount: int, cutoff: int = 0) -> Term:
    """Shift dangling de Bruijn indices >= cutoff by amount."""
    if amount == 0:
        return t

    def leaf(v: Term, depth: int) -> Term:
        if type(v) is BoundVar and v.index >= depth:
            return BoundVar(v.index + amount)
        return v
    return _map_vars(t, leaf, cutoff)


def instantiate(body: Term, value: Term, depth: int = 0) -> Term:
    """Replace BoundVar(depth) in body with value (entering one binder)."""
    return instantiate_many(body, (value,), depth)


def instantiate_many(body: Term, values: Sequence[Term], depth: int = 0) -> Term:
    """Instantiate the len(values) binders that body sits under, outermost
    first, with values in one walk; equal to instantiating one binder at a
    time."""
    count = len(values)
    by_index = values[::-1]  # the innermost binder is BoundVar(depth)

    def leaf(v: Term, d: int) -> Term:
        if type(v) is BoundVar:
            i = v.index - d
            if i >= count:
                return BoundVar(v.index - count)
            if i >= 0:
                return lift(by_index[i], d)
        return v
    return _map_vars(body, leaf, depth)


def abstract(t: Term, names: Sequence[str], depth: int = 0) -> Term:
    """Close t under one binder per name, outermost first: the inverse of
    instantiating those binders.  FreeVar(names[i]) becomes the BoundVar of
    its binder, and a name that repeats binds at its last binder."""
    count = len(names)
    if count == 0:
        return t
    # Later entries overwrite earlier ones: the innermost binder of a name wins.
    inner = {name: count - 1 - i for i, name in enumerate(names)}

    def leaf(v: Term, d: int) -> Term:
        kind = type(v)
        if kind is FreeVar:
            i = inner.get(v.name)
            return v if i is None else BoundVar(d + i)
        if kind is BoundVar and v.index >= d:
            return BoundVar(v.index + count)
        return v
    return _map_vars(t, leaf, depth)


def subst_frees(t: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneous capture-avoiding substitution of free variables.

    The substituted values never contain dangling bound variables, and inner
    binders are de Bruijn, so no renaming is needed.
    """
    if not mapping:
        return t
    if type(t) is FreeVar:
        return mapping.get(t.name, t)

    def leaf(v: Term, _depth: int) -> Term:
        return mapping.get(v.name, v) if type(v) is FreeVar else v
    return _map_vars(t, leaf, 0)


def zonk(t: Term, subst: dict[int, Term]) -> Term:
    """Replace assigned metas by their values, transitively.

    Terminates because assignments pass the occurs check.
    """
    if not subst:
        return t

    def leaf(v: Term, depth: int) -> Term:
        value = subst.get(v.mid) if type(v) is Meta else None
        return v if value is None else _map_vars(value, leaf, depth)
    return _map_vars(t, leaf, 0)


def _var_nodes(t: Term) -> list[tuple[Term, int]]:
    """Each BoundVar, FreeVar and Meta node of t, with the binders above it."""
    found: list[tuple[Term, int]] = []

    def leaf(v: Term, depth: int) -> Term:
        found.append((v, depth))
        return v
    _map_vars(t, leaf, 0)
    return found


def metas_in(t: Term) -> set[int]:
    return {v.mid for v, _ in _var_nodes(t) if type(v) is Meta}


def free_names(t: Term) -> set[str]:
    return {v.name for v, _ in _var_nodes(t) if type(v) is FreeVar}


def _mentions_bound0(t: Term) -> bool:
    """Whether t uses the variable of the binder just outside it."""
    return any(type(v) is BoundVar and v.index == depth for v, depth in _var_nodes(t))


def consts_in(*roots: Term) -> set[str]:
    """The names the terms use as constants or as structures.  The walk keeps
    its own stack: it runs once on every declaration added to an
    environment."""
    names: set[str] = set()
    stack = list(roots)
    while stack:
        s = stack.pop()
        kind = type(s)
        # A chain of projections is followed in place, and a free variable,
        # the commonest leaf, is dropped before the other kinds are tried.
        while kind is Proj:
            names.add(s.struct)
            s = s.target
            kind = type(s)
        if kind is FreeVar:
            continue
        if kind is App:
            stack.append(s.fn)
            stack.append(s.arg)
        elif kind is Const:
            names.add(s.name)
        elif kind is Lam or kind is Pi:
            stack.append(s.ty)
            stack.append(s.body)
        elif kind is Mk:
            names.add(s.struct)
            stack.extend(s.params)
            stack.extend(s.fields)
    return names


def pi_type(binders: Iterable[Binder], result: Term) -> Term:
    """Close a name-based telescope into an iterated Pi type."""
    bs = tuple(binders)
    names = [b.name for b in bs]
    t = abstract(result, names)
    for i in reversed(range(len(bs))):
        t = Pi(bs[i].name, abstract(bs[i].ty, names[:i]), t, implicit=bs[i].instance_implicit)
    return t


def lam_closure(binders: Iterable[Binder], body: Term) -> Term:
    """Close a name-based telescope into an iterated lambda."""
    bs = tuple(binders)
    names = [b.name for b in bs]
    t = abstract(body, names)
    for i in reversed(range(len(bs))):
        t = Lam(bs[i].name, abstract(bs[i].ty, names[:i]), t)
    return t


def fresh_name(hint: str, taken: Container[str]) -> str:
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


def pp_term(t: Term) -> str:
    return _pp(t, [], _ARROW)


def _pp(t: Term, names: list[str], prec: int) -> str:
    # Arguments are printed by plain loops: on Python 3.11 a comprehension
    # takes a frame of its own, and an answer of instance search, which
    # takes one frame per level, must print within the same depth.
    if isinstance(t, Sort):
        return "Type"
    if isinstance(t, Const):
        return t.name
    if isinstance(t, FreeVar):
        return t.name
    if isinstance(t, Meta):
        return f"?{t.mid}"
    if isinstance(t, BoundVar):
        return f"#{t.index}"
    if isinstance(t, Proj):
        return f"{_pp(t.target, names, _ATOM)}.{t.field}"
    if isinstance(t, Mk):
        parts = [f"@{t.struct}.mk"]
        for a in (*t.params, *t.fields):
            parts.append(_pp(a, names, _ATOM))
        s = " ".join(parts)
        return f"({s})" if prec < _APP else s
    if isinstance(t, App):
        head, args = unfold_apps(t)
        if isinstance(head, Const):
            h = "@" + head.name
        else:
            h = _pp(head, names, _ATOM)
        parts = [h]
        for a in args:
            parts.append(_pp(a, names, _ATOM))
        s = " ".join(parts)
        return f"({s})" if prec < _APP else s
    if isinstance(t, (Pi, Lam)):
        implicit = isinstance(t, Pi) and t.implicit
        if isinstance(t, Pi) and not implicit and not _mentions_bound0(t.body):
            rhs = _pp(instantiate(t.body, FreeVar("_")), names, _ARROW)
            s = f"{_pp(t.ty, names, _APP)} → {rhs}"
        else:
            name = fresh_name(t.binder or "x", set(names) | free_names(t.body))
            open_, close = ("[", "]") if implicit else ("(", ")")
            body = _pp(instantiate(t.body, FreeVar(name)), names + [name], _ARROW)
            word = "Pi" if isinstance(t, Pi) else "fun"
            s = f"{word} {open_}{name} : {_pp(t.ty, names, _ARROW)}{close}, {body}"
        return f"({s})" if prec < _ARROW else s
    raise TypeError(f"unknown term node: {t!r}")


def pp_binder(b: Binder) -> str:
    open_, close = ("[", "]") if b.instance_implicit else ("(", ")")
    return f"{open_}{b.name} : {pp_term(b.ty)}{close}"
