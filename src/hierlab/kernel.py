"""Reduction, typing, definitional equality, and first-order unification.

Reduction is weak-head only: beta (lambda application), delta (unfolding
definitions, fuel-limited), and iota (projection of a constructor field;
projecting another structure's constructor is IllTyped).  Eta for
structures is not a reduction; it lives inside the equality check as a
comparison rule, tried only after both sides are in weak head normal form
and exactly one of them is a constructor.  Two independent flags control
it: ``eta_kernel`` for definitional equality and ``eta_unifier`` for
unification during instance search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .declarations import Environment
from .terms import (
    App, BoundVar, Const, FreeVar, Lam, Meta, Mk, Pi, Proj, Sort,
    SORT, Telescope, Term, abstract, apps, fresh_name, instantiate,
    instantiate_many, metas_in, pp_term, subst_frees, unfold_apps, zonk,
)

DEFAULT_UNFOLD_DEPTH = 256


@dataclass(frozen=True)
class DefEqConfig:
    """Switches for the equality checker and the unifier."""

    eta_kernel: bool = True
    eta_unifier: bool = False
    unfold_depth: int = DEFAULT_UNFOLD_DEPTH

    def __post_init__(self) -> None:
        if self.unfold_depth <= 0:
            raise ValueError("unfold_depth must be positive")


DEFAULT_CONFIG = DefEqConfig()


class KernelError(Exception):
    pass


class FuelExhausted(KernelError):
    """Raised when delta-unfolding exceeds the configured depth."""


class IllTyped(KernelError):
    """Raised when a term does not typecheck."""


class OccursCheck(KernelError):
    """Raised when a meta would be assigned a term containing itself."""

    def __init__(self, mid: int, term: Term) -> None:
        super().__init__(f"occurs check failed: ?{mid} in {pp_term(term)}")
        self.mid = mid
        self.term = term


class Mismatch(KernelError):
    """Raised when two rigid head-normal terms cannot be unified."""

    def __init__(self, lhs: Term, rhs: Term) -> None:
        super().__init__(f"cannot unify {pp_term(lhs)} with {pp_term(rhs)}")
        self.lhs = lhs
        self.rhs = rhs


class _NotDefEq(Exception):
    """Internal signal: the compared terms are not definitionally equal."""

    def __init__(self, lhs: Term, rhs: Term) -> None:
        self.lhs = lhs
        self.rhs = rhs


class Trace:
    """An indented step log shared by whnf, defeq, unify, and resolution."""

    def __init__(self) -> None:
        self._steps: list[tuple[str, str | Callable[[], str]]] = []
        self._depth = 0

    def step(self, message: str | Callable[[], str]) -> None:
        """Log a line, or a function that makes it when ``lines`` is read."""
        self._steps.append(("  " * self._depth, message))

    @property
    def lines(self) -> list[str]:
        """The steps so far, indented; each function is called once."""
        self._steps = [(indent, m if isinstance(m, str) else m()) for indent, m in self._steps]
        return [indent + m for indent, m in self._steps]

    def push(self) -> None:
        self._depth += 1

    def pop(self) -> None:
        self._depth -= 1

    def render(self) -> str:
        return "\n".join(self.lines)


class _Fuel:
    def __init__(self, amount: int) -> None:
        self.remaining = amount

    def spend(self, name: str) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise FuelExhausted(f"unfold depth exhausted while unfolding {name!r}")


def _reduce(env: Environment, head: Term, args: list[Term], fuel: _Fuel,
            trace: Trace | None) -> tuple[Term, list[Term], tuple | None]:
    """Weak-head reduce the spine ``head args`` by beta, delta and iota.

    Returns the head and arguments it stops at and, for a stuck projection
    head, what reducing its target returned: ``_normalize`` goes on from
    there, so a chain of k projections costs k reductions.  The head keeps
    its declared target, which meta assignments and traces rely on."""
    while True:
        kind = type(head)
        if kind is App:
            head, spine = unfold_apps(head)
            args = spine + args
        elif kind is Lam:
            if not args:
                return head, args, None
            # One beta step: the lambdas at the head take the arguments in
            # order, the binders of nested lambdas instantiated in one walk.
            taken = 0
            while type(head) is Lam and taken < len(args):
                first = taken
                while type(head) is Lam and taken < len(args):
                    head = head.body
                    taken += 1
                head = instantiate_many(head, args[first:taken])
            args = args[taken:]
            if trace is not None:
                trace.step("beta")
        elif kind is Const:
            value = env.unfolding(head.name)
            if value is None:
                return head, args, None
            fuel.spend(head.name)
            if trace is not None:
                trace.step(f"delta {head.name}")
            head = value
        elif kind is Proj:
            target = _reduce(env, head.target, [], fuel, trace)
            value, value_args, _ = target
            if type(value) is not Mk or value_args:
                return head, args, target
            if value.struct != head.struct:
                raise IllTyped(f"projection {head.struct}.{head.field} applied to a "
                               f"constructor of {value.struct}")
            if trace is not None:
                trace.step(f"iota {head.struct}.{head.field}")
            head = value.fields[env.struct(head.struct).positions[head.field]]
        else:
            return head, args, None


def _whnf(env: Environment, t: Term, fuel: _Fuel, trace: Trace | None) -> Term:
    head, args = unfold_apps(t)
    reduced, rest, _ = _reduce(env, head, args, fuel, trace)
    # A head reduces to itself only as a lambda that took arguments, as
    # `I I` reduces to `I`; otherwise the same head means t was stuck.
    if reduced is head and len(rest) == len(args):
        return t
    return apps(reduced, *rest)


def whnf(env: Environment, config: DefEqConfig, t: Term) -> Term:
    """Reduce to weak head normal form by beta, delta, and iota only."""
    return _whnf(env, t, _Fuel(config.unfold_depth), None)


def normalize(env: Environment, config: DefEqConfig, t: Term,
              trace: Trace | None = None) -> Term:
    """Reduce to full beta/delta/iota normal form, under binders too.

    One fuel budget of config.unfold_depth covers the whole term, as in
    ``defeq``.  Without eta, two terms are definitionally equal exactly when
    their normal forms are equal; raises FuelExhausted like ``whnf``.
    """
    return _normalize(env, t, _Fuel(config.unfold_depth), trace)


def _normalize(env: Environment, t: Term, fuel: _Fuel, trace: Trace | None) -> Term:
    return _normal(env, *_reduce(env, t, [], fuel, trace), fuel, trace)


def _normal(env: Environment, head: Term, args: list[Term], target: tuple | None,
            fuel: _Fuel, trace: Trace | None) -> Term:
    """The normal form of a spine that ``_reduce`` returned."""
    # Bound variables stay loose below binders: instantiate shifts indices,
    # so reducing an open body needs no fresh names.
    kind = type(head)
    if kind is Lam:
        head = Lam(head.binder, _normalize(env, head.ty, fuel, trace),
                   _normalize(env, head.body, fuel, trace))
    elif kind is Pi:
        head = Pi(head.binder, _normalize(env, head.ty, fuel, trace),
                  _normalize(env, head.body, fuel, trace), head.implicit)
    elif kind is Mk:
        head = Mk(head.struct, tuple([_normalize(env, p, fuel, trace) for p in head.params]),
                  tuple([_normalize(env, f, fuel, trace) for f in head.fields]))
    elif target is not None:
        value = _normal(env, *target, fuel, trace)
        # A normal chain comes back as itself: a path's normal form shares
        # its prefix's nodes.
        if value is not head.target:
            head = Proj(head.struct, head.field, value)
    for a in args:
        head = App(head, _normalize(env, a, fuel, trace))
    return head


def infer_type(env: Environment, ctx: Telescope, t: Term,
               meta_types: dict[int, Term] | None = None) -> Term:
    """Synthesize the type of t, taking the types of metas from meta_types.

    Arguments, binder types and constructor components are not checked
    against the types they should have; ``check_type`` checks them too.
    Raises IllTyped on structural impossibilities such as applying a
    non-function or projecting a non-structure.
    """
    return _infer(env, None, {c.name: c.ty for c in ctx}, t,
                  _Fuel(DEFAULT_UNFOLD_DEPTH), meta_types)


def check_type(env: Environment, config: DefEqConfig, ctx: Telescope, t: Term,
               expected: Term | None = None) -> Term:
    """Synthesize the type of t as ``infer_type`` does, and check with
    ``defeq`` under config that every argument and constructor component
    fits, that every binder type and Pi body is a type and, when given, that
    the type is expected.  One fuel budget of config.unfold_depth covers the
    whole term."""
    context = {c.name: c.ty for c in ctx}
    ty = _infer(env, config, context, t, _Fuel(config.unfold_depth), None)
    if expected is not None and not _defeq(env, config, context, ty, expected, None):
        raise IllTyped(
            f"type mismatch: inferred {pp_term(ty)}, expected {pp_term(expected)}")
    return ty


def _infer(env: Environment, config: DefEqConfig | None, ctx: dict[str, Term], t: Term,
           fuel: _Fuel, meta_types: dict[int, Term] | None) -> Term:
    """The type of t in ctx; with a config, also check every argument and
    constructor component against its expected type, and that every binder
    type and Pi body is a type."""
    if isinstance(t, Sort):
        return SORT
    if isinstance(t, Const):
        decl = env.get(t.name)
        if decl is None:
            raise IllTyped(f"unknown constant {t.name!r}")
        return decl.type
    if isinstance(t, FreeVar):
        ty = ctx.get(t.name)
        if ty is None:
            raise IllTyped(f"unknown free variable {t.name!r}")
        return ty
    if isinstance(t, Meta):
        ty = (meta_types or {}).get(t.mid)
        if ty is None:
            raise IllTyped(f"cannot infer the type of metavariable ?{t.mid}")
        return ty
    if isinstance(t, BoundVar):
        raise IllTyped("loose bound variable")
    if isinstance(t, App):
        fn_ty = _whnf(env, _infer(env, config, ctx, t.fn, fuel, meta_types), fuel, None)
        if not isinstance(fn_ty, Pi):
            raise IllTyped(f"applied non-function of type {pp_term(fn_ty)}")
        if config is not None:
            arg_ty = _infer(env, config, ctx, t.arg, fuel, meta_types)
            if not _defeq(env, config, ctx, arg_ty, fn_ty.ty, None):
                raise IllTyped(
                    f"argument type {pp_term(arg_ty)} does not match {pp_term(fn_ty.ty)}")
        return instantiate(fn_ty.body, t.arg)
    if isinstance(t, (Lam, Pi)):
        if config is not None:
            _expect_type(env, t.ty, _infer(env, config, ctx, t.ty, fuel, meta_types), fuel)
        name = fresh_name(t.binder or "x", ctx)
        body = instantiate(t.body, FreeVar(name))
        body_ty = _infer(env, config, {**ctx, name: t.ty}, body, fuel, meta_types)
        if isinstance(t, Lam):
            return Pi(t.binder, t.ty, abstract(body_ty, (name,)))
        if config is not None:
            _expect_type(env, body, body_ty, fuel)
        return SORT
    if isinstance(t, Mk):
        decl = env.struct(t.struct)
        if len(t.params) != len(decl.params) or len(t.fields) != len(decl.fields):
            raise IllTyped(f"constructor of {t.struct!r} applied to the wrong arity")
        if config is not None:
            mapping: dict[str, Term] = {}
            for binder, value in zip(decl.params + decl.fields, t.params + t.fields):
                expected = subst_frees(binder.ty, mapping)
                got = _infer(env, config, ctx, value, fuel, meta_types)
                if not _defeq(env, config, ctx, got, expected, None):
                    raise IllTyped(
                        f"constructor component {binder.name!r} has type {pp_term(got)}, "
                        f"expected {pp_term(expected)}")
                mapping[binder.name] = value
        return apps(Const(t.struct), *t.params)
    if isinstance(t, Proj):
        target_ty = _whnf(env, _infer(env, config, ctx, t.target, fuel, meta_types), fuel, None)
        head, args = unfold_apps(target_ty)
        if not (isinstance(head, Const) and head.name == t.struct):
            raise IllTyped(
                f"projection {t.struct}.{t.field} applied to a value of type {pp_term(target_ty)}")
        decl = env.struct(t.struct)
        if len(args) != len(decl.params):
            raise IllTyped(f"structure type {t.struct!r} not fully applied")
        mapping = {b.name: a for b, a in zip(decl.params, args)}
        for fb in decl.fields:
            if fb.name == t.field:
                return subst_frees(fb.ty, mapping)
            mapping[fb.name] = Proj(t.struct, fb.name, t.target)
        raise IllTyped(f"structure {t.struct!r} has no field {t.field!r}")
    raise IllTyped(f"cannot infer type of {t!r}")


def _expect_type(env: Environment, t: Term, ty: Term, fuel: _Fuel) -> None:
    """Raise IllTyped unless ``t``, of type ``ty``, is a type."""
    if not isinstance(_whnf(env, ty, fuel, None), Sort):
        raise IllTyped(f"{pp_term(t)} is not a type: it has type {pp_term(ty)}")


class _Comparator:
    """Shared engine behind defeq (rigid) and unify (meta-solving)."""

    def __init__(self, env: Environment, config: DefEqConfig, ctx: dict[str, Term],
                 eta: bool, subst: dict[int, Term] | None,
                 meta_types: dict[int, Term] | None, trace: Trace | None) -> None:
        self.env = env
        self.ctx = ctx
        self.eta = eta
        self.subst = subst
        self.meta_types = meta_types
        self.fuel = _Fuel(config.unfold_depth)
        self.trace = trace

    def whnf(self, t: Term) -> Term:
        return _whnf(self.env, t, self.fuel, self.trace)

    def compare(self, a: Term, b: Term) -> None:
        if self.subst is not None:
            a = zonk(a, self.subst)
            b = zonk(b, self.subst)
        if a == b:
            return
        if self.subst is not None and (isinstance(a, Meta) or isinstance(b, Meta)):
            # Assign before reducing so solutions keep their declared form.
            self._solve_meta(a, b)
            return
        aw = self.whnf(a)
        bw = self.whnf(b)
        if aw == bw:
            return
        if self.subst is not None and (isinstance(aw, Meta) or isinstance(bw, Meta)):
            self._solve_meta(aw, bw)
            return
        if type(aw) is type(bw) and isinstance(aw, (Lam, Pi)):
            self.compare(aw.ty, bw.ty)
            self._compare_open(aw.binder, aw.ty, aw.body, bw.body)
            return
        if isinstance(aw, Mk) and isinstance(bw, Mk):
            if aw.struct != bw.struct or len(aw.fields) != len(bw.fields):
                raise _NotDefEq(aw, bw)
            for x, y in zip(aw.params, bw.params):
                self.compare(x, y)
            for x, y in zip(aw.fields, bw.fields):
                self.compare(x, y)
            return
        if isinstance(aw, Mk) or isinstance(bw, Mk):
            if self.eta:
                mk, other = (aw, bw) if isinstance(aw, Mk) else (bw, aw)
                self._compare_eta(mk, other)
                return
            raise _NotDefEq(aw, bw)
        self._compare_neutral(aw, bw)

    def _compare_open(self, hint: str, ty: Term, body_a: Term, body_b: Term) -> None:
        name = fresh_name(hint or "x", self.ctx)
        self.ctx[name] = ty
        try:
            self.compare(instantiate(body_a, FreeVar(name)),
                         instantiate(body_b, FreeVar(name)))
        finally:
            del self.ctx[name]

    def _compare_neutral(self, aw: Term, bw: Term) -> None:
        head_a, args_a = unfold_apps(aw)
        head_b, args_b = unfold_apps(bw)
        if len(args_a) != len(args_b):
            raise _NotDefEq(aw, bw)
        if isinstance(head_a, Proj) and isinstance(head_b, Proj):
            if head_a.struct != head_b.struct or head_a.field != head_b.field:
                raise _NotDefEq(aw, bw)
            self.compare(head_a.target, head_b.target)
        elif not (isinstance(head_a, (FreeVar, Const, BoundVar, Meta)) and head_a == head_b):
            raise _NotDefEq(aw, bw)
        for x, y in zip(args_a, args_b):
            self.compare(x, y)

    def _compare_eta(self, mk: Mk, other: Term) -> None:
        """Structural eta: compare a constructor against field projections."""
        try:
            other_ty = _infer(self.env, None, self.ctx, other, _Fuel(DEFAULT_UNFOLD_DEPTH),
                              self.meta_types)
        except IllTyped:
            raise _NotDefEq(mk, other) from None
        ty_w = self.whnf(other_ty)
        head, args = unfold_apps(ty_w)
        if not (isinstance(head, Const) and head.name == mk.struct):
            raise _NotDefEq(mk, other)
        decl = self.env.struct(mk.struct)
        if len(args) != len(mk.params) or len(decl.fields) != len(mk.fields):
            raise _NotDefEq(mk, other)
        if self.trace is not None:
            self.trace.step(f"eta {mk.struct}")
            self.trace.push()
        try:
            for x, y in zip(mk.params, args):
                self.compare(x, y)
            for name, value in zip(decl.positions, mk.fields):
                self.compare(value, Proj(mk.struct, name, other))
        finally:
            if self.trace is not None:
                self.trace.pop()

    def _solve_meta(self, a: Term, b: Term) -> None:
        """Assign the other side to a meta side, a when both are metas;
        ``compare`` has returned already when they are the same meta."""
        assert self.subst is not None
        meta, value = (a, b) if isinstance(a, Meta) else (b, a)
        assert isinstance(meta, Meta)
        if meta.mid in metas_in(value):
            raise OccursCheck(meta.mid, value)
        self.subst[meta.mid] = value


def defeq(env: Environment, config: DefEqConfig, ctx: Telescope, a: Term, b: Term,
          trace: Trace | None = None) -> bool:
    """Definitional equality with structural eta gated by config.eta_kernel."""
    return _defeq(env, config, {c.name: c.ty for c in ctx}, a, b, trace)


def _defeq(env: Environment, config: DefEqConfig, ctx: dict[str, Term], a: Term, b: Term,
           trace: Trace | None) -> bool:
    cmp = _Comparator(env, config, ctx, eta=config.eta_kernel,
                      subst=None, meta_types=None, trace=trace)
    try:
        cmp.compare(a, b)
        return True
    except _NotDefEq as e:
        if trace is not None:
            trace.step(f"stuck: {pp_term(e.lhs)} vs {pp_term(e.rhs)}")
        return False


def unify(env: Environment, config: DefEqConfig, ctx: Telescope, a: Term, b: Term,
          subst: dict[int, Term] | None = None,
          meta_types: dict[int, Term] | None = None) -> dict[int, Term]:
    """First-order unification; metas are holes, free variables are rigid.

    Returns the extended substitution on success.  Raises Mismatch or
    OccursCheck on failure, leaving the input substitution untouched.
    Structural eta participates only when config.eta_unifier is set.
    """
    work = dict(subst) if subst else {}
    cmp = _Comparator(env, config, {c.name: c.ty for c in ctx}, eta=config.eta_unifier,
                      subst=work, meta_types=meta_types, trace=None)
    try:
        cmp.compare(a, b)
    except _NotDefEq as e:
        raise Mismatch(e.lhs, e.rhs) from None
    return work
