"""The .hier surface language: lexer, parser, printer, and name resolution.

A module is an ordered list of items: class declarations (with ``extends``
lists and ``where`` field blocks), instance declarations (field assignments,
where a value may be the keyword ``opaque``), ``variables`` blocks that set
the ambient context, and labeled ``goal`` / ``defeq`` scenarios.  Term syntax
is fully explicit: ``@name arg ...`` application, ``→`` (or ``->``) arrows,
``Pi``/``fun`` binders, and dotted projections resolved against the
environment.  ``--`` starts a line comment.

The lexer matches one compiled alternation at each offset: a newline, a
run of other blanks, a comment, a name, a number or a symbol, in that
order.  A token's column is its offset from the start of its line, plus
one.  A comment does not move the column, so the end-of-input position
after a trailing comment is where the comment began.

Parsing is total: any input yields a SurfaceModule or a positioned
ParseError, never a crash.  Names are resolved later, item by item, by
``resolve_expr`` against the environment the earlier items built.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from .declarations import Environment, StructDecl, projections
from .kernel import DEFAULT_CONFIG, IllTyped, infer_type, whnf
from .terms import (
    App, Binder, Const, FreeVar, Lam, Pi, Proj, SORT, Telescope, Term,
    abstract, unfold_apps,
)


class SurfaceError(Exception):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class ParseError(SurfaceError):
    def __init__(self, line: int, col: int, expected: tuple[str, ...], found: str) -> None:
        self.expected = expected
        self.found = found
        wanted = " or ".join(expected)
        super().__init__(f"expected {wanted}, found {found}", line, col)


class ScopeError(SurfaceError):
    def __init__(self, name: str, line: int, col: int) -> None:
        self.name = name
        super().__init__(f"name {name!r} is not declared at this point", line, col)


# ---------------------------------------------------------------------------
# Surface syntax trees

@dataclass(frozen=True)
class Pos:
    line: int
    col: int


class SExpr:
    __slots__ = ()


@dataclass(frozen=True)
class SName(SExpr):
    name: str
    pos: Pos
    at: bool = False


@dataclass(frozen=True)
class SSort(SExpr):
    pos: Pos


@dataclass(frozen=True)
class SOpaque(SExpr):
    pos: Pos


@dataclass(frozen=True)
class SApp(SExpr):
    fn: SExpr
    arg: SExpr


@dataclass(frozen=True)
class SArrow(SExpr):
    lhs: SExpr
    rhs: SExpr


@dataclass(frozen=True)
class SPi(SExpr):
    binder: str
    implicit: bool
    ty: SExpr
    body: SExpr
    pos: Pos


@dataclass(frozen=True)
class SFun(SExpr):
    binder: str
    ty: SExpr
    body: SExpr
    pos: Pos


@dataclass(frozen=True)
class SProj(SExpr):
    target: SExpr
    field: str
    pos: Pos


@dataclass(frozen=True)
class SurfaceBinder:
    name: str
    ty: SExpr
    instance_implicit: bool
    pos: Pos
    anonymous: bool = dc_field(default=False, compare=False)


@dataclass(frozen=True)
class SurfaceAssign:
    name: str
    value: SExpr
    pos: Pos


@dataclass(frozen=True)
class ClassItem:
    name: str
    binders: tuple[SurfaceBinder, ...]
    parents: tuple[SExpr, ...]
    fields: tuple[SurfaceBinder, ...]  # explicit binders
    pos: Pos


@dataclass(frozen=True)
class InstanceItem:
    name: str
    binders: tuple[SurfaceBinder, ...]
    target: SExpr
    priority: int | None
    assignments: tuple[SurfaceAssign, ...]
    pos: Pos


@dataclass(frozen=True)
class VariablesItem:
    binders: tuple[SurfaceBinder, ...]
    pos: Pos


@dataclass(frozen=True)
class GoalItem:
    label: str
    target: SExpr
    pos: Pos


@dataclass(frozen=True)
class DefeqItem:
    label: str
    lhs: SExpr
    rhs: SExpr
    pos: Pos


Item = ClassItem | InstanceItem | VariablesItem | GoalItem | DefeqItem


@dataclass(frozen=True)
class SurfaceModule:
    items: tuple[Item, ...]


KEYWORDS = {"class", "extends", "where", "instance", "variables", "goal",
            "defeq", "opaque", "Type", "fun", "λ", "Pi", "Π"}
_STOP_KEYWORDS = KEYWORDS - {"Type"}


# ---------------------------------------------------------------------------
# Lexer

class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: str, line: int, col: int) -> None:
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


_IDENT_RE = re.compile(r"[^\W\d][\w']*(?:\.[^\W\d][\w']*)*")
_SYMBOLS = ((":=", "ASSIGN"), ("->", "ARROW"), ("→", "ARROW"), ("(", "LPAREN"),
            (")", "RPAREN"), ("[", "LBRACK"), ("]", "RBRACK"), (",", "COMMA"),
            (":", "COLON"), ("=", "EQ"), ("@", "AT"), (".", "DOT"))
# One alternative per lexeme, tried in this order at each offset; the last
# one takes any other character, which no token starts with.
_LEXEME_RE = re.compile("|".join(
    ["(\n)", r"([^\S\n]+)", "(--[^\n]*)", f"({_IDENT_RE.pattern})", r"(\d+)"]
    + [f"({re.escape(sym)})" for sym, _ in _SYMBOLS] + ["(.)"]), re.DOTALL)
_NEWLINE, _BLANKS, _COMMENT = 1, 2, 3
_GROUP_KINDS = (None, None, None, None, "IDENT", "NUM") + tuple(k for _, k in _SYMBOLS)
_STRAY = len(_GROUP_KINDS)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start, end = 1, 0, 0
    for m in _LEXEME_RE.finditer(text):
        group = m.lastindex
        if group == _BLANKS:
            end = m.end()
        elif group == _NEWLINE:
            line += 1
            line_start = end = m.end()
        elif group == _COMMENT:
            pass  # a comment leaves the column where it began
        elif group == _STRAY:
            raise ParseError(line, m.start() - line_start + 1, ("a token",),
                             repr(m.group()))
        else:
            start = m.start()
            toks.append(_Token(_GROUP_KINDS[group], m.group(), line, start - line_start + 1))
            end = m.end()
    toks.append(_Token("EOF", "", line, end - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTS = {"IDENT", "AT", "LPAREN"}


class _Parser:
    def __init__(self, toks: list[_Token]) -> None:
        self.toks = toks
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        if ahead:
            return self.toks[min(self.i + ahead, len(self.toks) - 1)]
        return self.toks[self.i]  # never past EOF: advance stops there

    def at(self, kind: str, value: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (value is None or tok.value == value)

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value in words

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        if tok.kind != "EOF":
            self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.advance()
        expected = what or value or kind.lower()
        found = tok.value or "end of input"
        raise ParseError(tok.line, tok.col, (expected,), repr(found))

    def pos(self) -> Pos:
        tok = self.peek()
        return Pos(tok.line, tok.col)

    # Items -----------------------------------------------------------------

    def parse_module(self) -> SurfaceModule:
        items: list[Item] = []
        while not self.at("EOF"):
            items.append(self.parse_item())
        return SurfaceModule(tuple(items))

    def parse_item(self) -> Item:
        tok = self.peek()
        # ``@[priority n]`` starts an instance; every other item starts with
        # its keyword.
        parse_item = _ITEM_PARSERS.get("instance" if tok.kind == "AT" else tok.value)
        if parse_item is None:
            raise ParseError(tok.line, tok.col, tuple(_ITEM_PARSERS),
                             repr(tok.value or "end of input"))
        return parse_item(self)

    def parse_name(self, what: str) -> str:
        tok = self.expect("IDENT", what=what)
        if tok.value in KEYWORDS:
            raise ParseError(tok.line, tok.col, (what,), repr(tok.value))
        return tok.value

    def parse_class(self) -> ClassItem:
        pos = self.pos()
        self.expect("IDENT", "class")
        name = self.parse_name("class name")
        binders = self.parse_binders()
        parents: list[SExpr] = []
        if self.at_keyword("extends"):
            self.advance()
            parents.append(self.parse_app())
            while self.at("COMMA"):
                self.advance()
                parents.append(self.parse_app())
        fields: list[SurfaceBinder] = []
        if self.at_keyword("where"):
            self.advance()
            while self.at("LPAREN"):
                fields.extend(self.parse_field_group())
        return ClassItem(name, binders, tuple(parents), tuple(fields), pos)

    def parse_field_group(self) -> list[SurfaceBinder]:
        self.expect("LPAREN")
        names: list[tuple[str, Pos]] = []
        while self.at("IDENT") and not self.at("COLON"):
            p = self.pos()
            names.append((self.parse_name("field name"), p))
        if not names:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, ("field name",), repr(tok.value))
        self.expect("COLON")
        ty = self.parse_expr()
        self.expect("RPAREN")
        return [SurfaceBinder(n, ty, False, p) for n, p in names]

    def parse_binders(self) -> tuple[SurfaceBinder, ...]:
        binders: list[SurfaceBinder] = []
        anon = 0
        while True:
            if self.at("LPAREN"):
                start = self.i
                self.advance()
                names: list[tuple[str, Pos]] = []
                while self.at("IDENT") and self.peek().value not in KEYWORDS:
                    p = self.pos()
                    names.append((self.advance().value, p))
                if not names or not self.at("COLON"):
                    # not a binder group (for instance a parenthesized type)
                    self.i = start
                    break
                self.advance()
                ty = self.parse_expr()
                self.expect("RPAREN")
                binders.extend(SurfaceBinder(n, ty, False, p) for n, p in names)
            elif self.at("LBRACK"):
                pos = self.pos()
                self.advance()
                if self.at("IDENT") and self.peek(1).kind == "COLON":
                    name = self.parse_name("binder name")
                    self.expect("COLON")
                    ty = self.parse_expr()
                    self.expect("RBRACK")
                    binders.append(SurfaceBinder(name, ty, True, pos))
                else:
                    ty = self.parse_expr()
                    self.expect("RBRACK")
                    anon += 1
                    binders.append(SurfaceBinder(f"_inst_{anon}", ty, True, pos, anonymous=True))
            else:
                break
        return tuple(binders)

    def parse_instance(self) -> InstanceItem:
        pos = self.pos()
        priority: int | None = None
        if self.at("AT"):
            self.advance()
            self.expect("LBRACK")
            self.expect("IDENT", "priority")
            priority = int(self.expect("NUM").value)
            self.expect("RBRACK")
        self.expect("IDENT", "instance")
        name = self.parse_name("instance name")
        binders = self.parse_binders()
        self.expect("COLON")
        target = self.parse_expr()
        assignments: list[SurfaceAssign] = []
        if self.at_keyword("where"):
            self.advance()
            while self.at("LPAREN"):
                self.advance()
                p = self.pos()
                fname = self.parse_name("field name")
                self.expect("ASSIGN")
                if self.at_keyword("opaque"):
                    tok = self.advance()
                    value: SExpr = SOpaque(Pos(tok.line, tok.col))
                else:
                    value = self.parse_expr()
                self.expect("RPAREN")
                assignments.append(SurfaceAssign(fname, value, p))
        return InstanceItem(name, binders, target, priority, tuple(assignments), pos)

    def parse_variables(self) -> VariablesItem:
        pos = self.pos()
        self.expect("IDENT", "variables")
        binders = self.parse_binders()
        if not binders:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, ("binder",), repr(tok.value))
        return VariablesItem(binders, pos)

    def parse_goal(self) -> GoalItem:
        pos = self.pos()
        self.expect("IDENT", "goal")
        label = self.parse_name("goal label")
        self.expect("COLON")
        return GoalItem(label, self.parse_expr(), pos)

    def parse_defeq(self) -> DefeqItem:
        pos = self.pos()
        self.expect("IDENT", "defeq")
        label = self.parse_name("defeq label")
        self.expect("COLON")
        lhs = self.parse_expr()
        self.expect("EQ")
        rhs = self.parse_expr()
        return DefeqItem(label, lhs, rhs, pos)

    # Expressions -----------------------------------------------------------

    def parse_expr(self) -> SExpr:
        if self.at_keyword("fun", "λ", "Pi", "Π"):
            pos = self.pos()
            is_pi = self.advance().value in ("Pi", "Π")
            implicit = is_pi and self.at("LBRACK")  # only Pi takes [x : T]
            self.expect("LBRACK" if implicit else "LPAREN")
            name = self.parse_name("binder name")
            self.expect("COLON")
            ty = self.parse_expr()
            self.expect("RBRACK" if implicit else "RPAREN")
            self.expect("COMMA")
            body = self.parse_expr()
            return SPi(name, implicit, ty, body, pos) if is_pi else SFun(name, ty, body, pos)
        lhs = self.parse_app()
        if self.at("ARROW"):
            self.advance()
            return SArrow(lhs, self.parse_expr())
        return lhs

    def parse_app(self) -> SExpr:
        expr = self.parse_atom()
        while (self.peek().kind in _ATOM_STARTS and not self.at_keyword(*_STOP_KEYWORDS)
               and not (self.at("AT") and self.peek(1).kind == "LBRACK")):
            # ``@[`` opens the attribute of the next item, not an argument.
            expr = SApp(expr, self.parse_atom())
        return expr

    def parse_atom(self) -> SExpr:
        tok = self.peek()
        if tok.kind == "AT":
            self.advance()
            name = self.expect("IDENT", what="name after @")
            expr: SExpr = SName(name.value, Pos(name.line, name.col), at=True)
            return self.parse_postfix(expr)
        if tok.kind == "IDENT":
            if tok.value == "Type":
                self.advance()
                return SSort(Pos(tok.line, tok.col))
            if tok.value in KEYWORDS:
                raise ParseError(tok.line, tok.col, ("a term",), repr(tok.value))
            self.advance()
            return self.parse_postfix(SName(tok.value, Pos(tok.line, tok.col)))
        if tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN")
            return self.parse_postfix(inner)
        raise ParseError(tok.line, tok.col, ("a term",), repr(tok.value or "end of input"))

    def parse_postfix(self, expr: SExpr) -> SExpr:
        while self.at("DOT"):
            dot = self.advance()
            name = self.expect("IDENT", what="field name")
            for segment in name.value.split("."):
                expr = SProj(expr, segment, Pos(dot.line, dot.col))
        return expr


_ITEM_PARSERS = {"class": _Parser.parse_class, "instance": _Parser.parse_instance,
                 "variables": _Parser.parse_variables, "goal": _Parser.parse_goal,
                 "defeq": _Parser.parse_defeq}


def parse(text: str) -> SurfaceModule:
    """Parse a .hier module.  Names are not looked up here: ``resolve_expr``
    does that when the module is elaborated."""
    return _Parser(_tokenize(text)).parse_module()


def parse_expr_text(text: str) -> SExpr:
    parser = _Parser(_tokenize(text))
    expr = parser.parse_expr()
    parser.expect("EOF", what="end of input")
    return expr


# ---------------------------------------------------------------------------
# Printing (canonical form; parse . print is a fixpoint)

def print_module(module: SurfaceModule) -> str:
    out: list[str] = []
    for item in module.items:
        out.append(_print_item(item))
    return "\n".join(out) + ("\n" if out else "")


def _print_item(item: Item) -> str:
    if isinstance(item, ClassItem):
        head = f"class {item.name}"
        if item.binders:
            head += " " + _print_binders(item.binders)
        if item.parents:
            head += " extends " + ", ".join(_print_sexpr(p, 1) for p in item.parents)
        if item.fields:
            head += " where\n" + "\n".join(
                f"  ({f.name} : {_print_sexpr(f.ty, 2)})" for f in item.fields)
        return head
    if isinstance(item, InstanceItem):
        head = ""
        if item.priority is not None:
            head += f"@[priority {item.priority}] "
        head += f"instance {item.name}"
        if item.binders:
            head += " " + _print_binders(item.binders)
        head += f" : {_print_sexpr(item.target, 2)}"
        if item.assignments:
            head += " where\n" + "\n".join(
                f"  ({a.name} := {_print_sexpr(a.value, 2)})" for a in item.assignments)
        return head
    if isinstance(item, VariablesItem):
        return "variables " + _print_binders(item.binders)
    if isinstance(item, GoalItem):
        return f"goal {item.label} : {_print_sexpr(item.target, 2)}"
    if isinstance(item, DefeqItem):
        return (f"defeq {item.label} : {_print_sexpr(item.lhs, 1)}"
                f" = {_print_sexpr(item.rhs, 1)}")
    raise TypeError(f"unknown item {item!r}")


def _print_binders(binders: tuple[SurfaceBinder, ...]) -> str:
    parts = []
    for b in binders:
        if b.instance_implicit:
            if b.anonymous:
                parts.append(f"[{_print_sexpr(b.ty, 2)}]")
            else:
                parts.append(f"[{b.name} : {_print_sexpr(b.ty, 2)}]")
        else:
            parts.append(f"({b.name} : {_print_sexpr(b.ty, 2)})")
    return " ".join(parts)


def _print_sexpr(e: SExpr, prec: int) -> str:
    # prec: 0 atom, 1 application, 2 arrow
    if isinstance(e, SName):
        return ("@" if e.at else "") + e.name
    if isinstance(e, SSort):
        return "Type"
    if isinstance(e, SOpaque):
        return "opaque"
    if isinstance(e, SProj):
        return f"{_print_sexpr(e.target, 0)}.{e.field}"
    if isinstance(e, SApp):
        parts = []
        cur: SExpr = e
        while isinstance(cur, SApp):
            parts.append(_print_sexpr(cur.arg, 0))
            cur = cur.fn
        parts.append(_print_sexpr(cur, 0))
        s = " ".join(reversed(parts))
        return f"({s})" if prec < 1 else s
    if isinstance(e, SArrow):
        s = f"{_print_sexpr(e.lhs, 1)} → {_print_sexpr(e.rhs, 2)}"
        return f"({s})" if prec < 2 else s
    if isinstance(e, (SPi, SFun)):
        word = "Pi" if isinstance(e, SPi) else "fun"
        open_, close = ("[", "]") if word == "Pi" and e.implicit else ("(", ")")
        s = (f"{word} {open_}{e.binder} : {_print_sexpr(e.ty, 2)}{close}, "
             f"{_print_sexpr(e.body, 2)}")
        return f"({s})" if prec < 2 else s
    raise TypeError(f"unknown expression {e!r}")


# ---------------------------------------------------------------------------
# Resolving surface expressions against an environment and context

def resolve_expr(e: SExpr, ctx: Telescope, env: Environment) -> Term:
    """Turn a surface expression into a kernel term.

    Plain names resolve to context variables or global constants; dotted
    names resolve type-directedly, taking the longest declared prefix and
    treating the remaining segments as field projections; a segment that
    names no field of the value's structure names a leaf field, or a
    stored ``to_<parent>``, of a substructure it stores at any depth,
    reached through the substructures that hold it.  A name must be
    declared before it is used: when no prefix of it is in ``env`` (and,
    for a plain name, it is no variable of ``ctx``), a ScopeError is raised
    at its position.  This is the only place the rule is checked.
    """
    scope = list(ctx)

    def resolve(e: SExpr) -> Term:
        if isinstance(e, SSort):
            return SORT
        if isinstance(e, SOpaque):
            raise ParseError(e.pos.line, e.pos.col, ("a term",), "'opaque'")
        if isinstance(e, SName):
            return resolve_name(e)
        if isinstance(e, SProj):
            return project(resolve(e.target), e.field, e.pos)
        if isinstance(e, SApp):
            return App(resolve(e.fn), resolve(e.arg))
        if isinstance(e, SArrow):
            lhs = resolve(e.lhs)
            rhs = resolve(e.rhs)
            return Pi("_", lhs, rhs)
        if isinstance(e, (SPi, SFun)):
            ty = resolve(e.ty)
            scope.append(Binder(e.binder, ty, isinstance(e, SPi) and e.implicit))
            try:
                body = resolve(e.body)
            finally:
                scope.pop()
            body = abstract(body, (e.binder,))
            if isinstance(e, SPi):
                return Pi(e.binder, ty, body, implicit=e.implicit)
            return Lam(e.binder, ty, body)
        raise TypeError(f"unknown expression {e!r}")

    def resolve_name(e: SName) -> Term:
        parts = e.name.split(".")
        local_names = {b.name for b in scope}
        for k in range(len(parts), 0, -1):
            prefix = ".".join(parts[:k])
            base: Term | None = None
            if k == 1 and prefix in local_names:
                base = FreeVar(prefix)
            elif prefix in env:
                base = Const(prefix)
            if base is not None:
                for segment in parts[k:]:
                    base = project(base, segment, e.pos)
                return base
        raise ScopeError(e.name, e.pos.line, e.pos.col)

    def project(base: Term, segment: str, pos: Pos) -> Term:
        try:
            ty = whnf(env, DEFAULT_CONFIG, infer_type(env, tuple(scope), base))
        except IllTyped as exc:
            raise ParseError(pos.line, pos.col, ("a projectable value",), str(exc)) from None
        head, _args = unfold_apps(ty)
        if isinstance(head, Const):
            decl = env.get(head.name)
            if isinstance(decl, StructDecl):
                if segment in decl.positions:
                    return Proj(head.name, segment, base)
                # A leaf or a stored parent held by a substructure.
                leaves, stored = projections(env, decl, base)
                found = leaves.get(segment)
                if found is None and segment.startswith("to_"):
                    found = stored.get(segment[3:])
                if found is not None:
                    return found
        raise ParseError(pos.line, pos.col,
                         (f"a field of a structure value (no field {segment!r})",),
                         "projection")

    return resolve(e)


def parse_term(text: str, ctx: Telescope, env: Environment) -> Term:
    """Parse a standalone term in the given context and environment."""
    return resolve_expr(parse_expr_text(text), ctx, env)
