"""The .hier surface language: lexer, parser and name resolution.

A module is an ordered list of items: class declarations (with ``extends``
lists and ``where`` field blocks), instance declarations (field assignments,
where a value may be the keyword ``opaque``), ``variables`` blocks that set
the ambient context, and labeled ``goal`` / ``defeq`` scenarios.  Term syntax
is fully explicit: ``@name arg ...`` application, ``→`` (or ``->``) arrows,
``Pi``/``fun`` binders, and dotted projections resolved against the
environment.  ``--`` starts a line comment.

The lexer splits the text into lines and runs one compiled pattern's
``finditer`` over each line: a match is a name, a number, a symbol, a
comment or any other character, and the search skips the blanks between
them.  A token's line is its line's number and its column is its match's
offset plus one; a comment does not move the column, so the end-of-input
position after a trailing comment is where the comment began.  A lexeme's
kind comes from the symbol table or its first character.  The tokens are
four parallel arrays (kinds, values, lines, columns), which the parser
indexes; no object is built per token.

Parsing is total: any input yields a SurfaceModule or a positioned
ParseError, never a crash.  Names are resolved later, item by item, by
``resolve_expr`` against the environment the earlier items built.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .declarations import Environment, StructDecl, projections
from .kernel import DEFAULT_CONFIG, IllTyped, infer_type, whnf
from .terms import (
    App, Binder, Const, FreeVar, Lam, Pi, Proj, SORT, Telescope, Term,
    abstract, node, unfold_apps,
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
#
# The parser builds one node or more per token, so the nodes follow the term
# nodes' recipe, ``terms.node``.

@node
class Pos:
    """A 1-based line and column.  Never mutated once built."""
    line: int
    col: int


class SExpr:
    __slots__ = ()


@node
class SName(SExpr):
    """A name, dotted or not, written ``@name`` when ``at``.  Never mutated
    once built."""
    name: str
    pos: Pos
    at: bool = False


@node
class SSort(SExpr):
    """``Type``.  Never mutated once built."""
    pos: Pos


@node
class SOpaque(SExpr):
    """The ``opaque`` value of an instance field.  Never mutated once built."""
    pos: Pos


@node
class SApp(SExpr):
    """``fn arg``.  Never mutated once built."""
    fn: SExpr
    arg: SExpr


@node
class SArrow(SExpr):
    """``lhs → rhs``.  Never mutated once built."""
    lhs: SExpr
    rhs: SExpr


@node
class SPi(SExpr):
    """``Pi (x : ty), body``, or ``Pi [x : ty], body`` when ``implicit``.
    Never mutated once built."""
    binder: str
    implicit: bool
    ty: SExpr
    body: SExpr
    pos: Pos


@node
class SFun(SExpr):
    """``fun (x : ty), body``.  Never mutated once built."""
    binder: str
    ty: SExpr
    body: SExpr
    pos: Pos


@node
class SProj(SExpr):
    """``target.field``, one node per dotted segment.  Never mutated once
    built."""
    target: SExpr
    field: str
    pos: Pos


@node
class SurfaceBinder:
    """``(name : ty)``, or ``[name : ty]`` when ``instance_implicit``; the
    k-th ``[ty]`` of a telescope is named ``_inst_k``.  Never mutated once
    built."""
    name: str
    ty: SExpr
    instance_implicit: bool
    pos: Pos


@node
class SurfaceAssign:
    """``(name := value)`` in an instance.  Never mutated once built."""
    name: str
    value: SExpr
    pos: Pos


@node
class ClassItem:
    """A class declaration.  Never mutated once built."""
    name: str
    binders: tuple[SurfaceBinder, ...]
    parents: tuple[SExpr, ...]
    fields: tuple[SurfaceBinder, ...]  # explicit binders
    pos: Pos


@node
class InstanceItem:
    """An instance declaration.  Never mutated once built."""
    name: str
    binders: tuple[SurfaceBinder, ...]
    target: SExpr
    priority: int | None
    assignments: tuple[SurfaceAssign, ...]
    pos: Pos


@node
class VariablesItem:
    """A ``variables`` block.  Never mutated once built."""
    binders: tuple[SurfaceBinder, ...]
    pos: Pos


@node
class GoalItem:
    """A labeled instance-search goal.  Never mutated once built."""
    label: str
    target: SExpr
    pos: Pos


@node
class DefeqItem:
    """A labeled definitional-equality probe.  Never mutated once built."""
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
_BINDER_WORDS = {"fun", "λ", "Pi", "Π"}


# ---------------------------------------------------------------------------
# Lexer

_IDENT_RE = re.compile(r"[^\W\d][\w']*(?:\.[^\W\d][\w']*)*")
_SYMBOLS = ((":=", "ASSIGN"), ("->", "ARROW"), ("→", "ARROW"), ("(", "LPAREN"),
            (")", "RPAREN"), ("[", "LBRACK"), ("]", "RBRACK"), (",", "COMMA"),
            (":", "COLON"), ("=", "EQ"), ("@", "AT"), (".", "DOT"))
# One match per lexeme, and none in a run of blanks, which the search skips
# (its lookahead fails at once on a blank): a name, a number, a
# two-character symbol, a comment, or any other single character, which is
# a one-character symbol or starts no token.
_LEXEME_RE = re.compile(r"(?=\S)(?:%s)" % "|".join(
    [_IDENT_RE.pattern, r"\d+", *(re.escape(sym) for sym, _ in _SYMBOLS if len(sym) > 1),
     r"--[^\n]*", r"\S"]))
_COMMENT, _STRAY = "COMMENT", "STRAY"


class _Kinds(dict):
    """Each lexeme's kind: a symbol's from the symbol table, any other's
    from its first character, found once per text and kept."""

    def __missing__(self, lexeme: str) -> str:
        first = lexeme[0]
        if first.isdecimal():  # what ``\d`` matches
            kind = "NUM"
        elif first.isalnum() or first == "_":  # the rest of ``\w``
            kind = "IDENT"
        else:
            kind = _COMMENT if lexeme.startswith("--") else _STRAY
        self[lexeme] = kind
        return kind


_SYMBOL_KINDS = dict(_SYMBOLS)


_TokenArrays = tuple[list[str], list[str], list[int], list[int]]


def _tokenize(text: str) -> _TokenArrays:
    """The tokens of ``text`` as four arrays, of kinds, values, lines and
    columns, each ending with an EOF token; a character that starts no
    token is a ParseError."""
    values: list[str] = []
    lines: list[int] = []
    cols: list[int] = []
    add_value, add_line, add_col = values.append, lines.append, cols.append
    for line_no, line in enumerate(text.split("\n"), 1):
        for m in _LEXEME_RE.finditer(line):
            add_value(m.group())
            add_line(line_no)
            add_col(m.start() + 1)
    table = _Kinds(_SYMBOL_KINDS)
    kinds = list(map(table.__getitem__, values))
    seen = set(table.values())  # the kinds of the distinct lexemes
    if _STRAY in seen:
        k = kinds.index(_STRAY)
        raise ParseError(lines[k], cols[k], ("a token",), repr(values[k]))
    eof_col = len(line) + 1
    if _COMMENT in seen:
        # A comment leaves the column where it began.
        if kinds[-1] == _COMMENT and lines[-1] == line_no:
            eof_col = cols[-1]
        keep = [k for k, kind in enumerate(kinds) if kind != _COMMENT]
        kinds, values = [kinds[k] for k in keep], [values[k] for k in keep]
        lines, cols = [lines[k] for k in keep], [cols[k] for k in keep]
    kinds.append("EOF")
    values.append("")
    lines.append(line_no)
    cols.append(eof_col)
    return kinds, values, lines, cols


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    """Recursive descent over the token arrays.  ``i`` is the next token's
    index; it never moves past the EOF token at the end, and the hot loops
    index the arrays themselves."""

    def __init__(self, toks: _TokenArrays) -> None:
        self.kinds, self.values, self.lines, self.cols = toks
        self.i = 0

    def at(self, kind: str) -> bool:
        return self.kinds[self.i] == kind

    def at_keyword(self, word: str) -> bool:
        return self.values[self.i] == word  # only a name is spelled like a keyword

    def pos(self, i: int | None = None) -> Pos:
        if i is None:
            i = self.i
        return Pos(self.lines[i], self.cols[i])

    def error(self, i: int, expected: tuple[str, ...], found: str) -> ParseError:
        return ParseError(self.lines[i], self.cols[i], expected, repr(found))

    def expect(self, kind: str, value: str | None = None, what: str | None = None) -> int:
        """Take the next token if it has this kind (and value), and return
        its index."""
        i = self.i
        if self.kinds[i] == kind and (value is None or self.values[i] == value):
            if kind != "EOF":
                self.i = i + 1
            return i
        raise self.error(i, (what or value or kind.lower(),), self.values[i] or "end of input")

    # Items -----------------------------------------------------------------

    def parse_module(self) -> SurfaceModule:
        items: list[Item] = []
        kinds = self.kinds
        while kinds[self.i] != "EOF":
            items.append(self.parse_item())
        return SurfaceModule(tuple(items))

    def parse_item(self) -> Item:
        i = self.i
        # ``@[priority n]`` starts an instance; every other item starts with
        # its keyword.
        parse_item = _ITEM_PARSERS.get("instance" if self.kinds[i] == "AT" else self.values[i])
        if parse_item is None:
            raise self.error(i, tuple(_ITEM_PARSERS), self.values[i] or "end of input")
        return parse_item(self)

    def parse_name(self, what: str) -> str:
        i = self.expect("IDENT", what=what)
        value = self.values[i]
        if value in KEYWORDS:
            raise self.error(i, (what,), value)
        return value

    def parse_class(self) -> ClassItem:
        pos = self.pos()
        self.i += 1  # ``class``, which chose this parser
        name = self.parse_name("class name")
        binders = self.parse_binders()
        parents: list[SExpr] = []
        if self.at_keyword("extends"):
            self.i += 1
            parents.append(self.parse_app())
            while self.at("COMMA"):
                self.i += 1
                parents.append(self.parse_app())
        fields: list[SurfaceBinder] = []
        if self.at_keyword("where"):
            self.i += 1
            while self.at("LPAREN"):
                fields.extend(self.parse_field_group())
        return ClassItem(name, binders, tuple(parents), tuple(fields), pos)

    def parse_field_group(self) -> list[SurfaceBinder]:
        kinds, values = self.kinds, self.values
        self.expect("LPAREN")
        start = j = self.i
        while kinds[j] == "IDENT":
            if values[j] in KEYWORDS:
                raise self.error(j, ("field name",), values[j])
            j += 1
        if j == start:
            raise self.error(j, ("field name",), values[j])
        self.i = j
        self.expect("COLON")
        ty = self.parse_expr()
        self.expect("RPAREN")
        return [SurfaceBinder(values[k], ty, False, self.pos(k)) for k in range(start, j)]

    def parse_binders(self) -> tuple[SurfaceBinder, ...]:
        kinds, values, lines, cols = self.kinds, self.values, self.lines, self.cols
        binders: list[SurfaceBinder] = []
        anon = 0
        while True:
            i = self.i
            kind = kinds[i]
            if kind == "LPAREN":
                j = i + 1
                while kinds[j] == "IDENT" and values[j] not in KEYWORDS:
                    j += 1
                if j == i + 1 or kinds[j] != "COLON":
                    break  # not a binder group (for instance a parenthesized type)
                self.i = j + 1
                ty = self.parse_expr()
                self.expect("RPAREN")
                binders.extend(SurfaceBinder(values[k], ty, False, Pos(lines[k], cols[k]))
                               for k in range(i + 1, j))
            elif kind == "LBRACK":
                pos = Pos(lines[i], cols[i])
                self.i = i + 1
                if kinds[i + 1] == "IDENT" and kinds[i + 2] == "COLON":
                    name = self.parse_name("binder name")
                    self.i += 1
                    ty = self.parse_expr()
                    self.expect("RBRACK")
                    binders.append(SurfaceBinder(name, ty, True, pos))
                else:
                    ty = self.parse_expr()
                    self.expect("RBRACK")
                    anon += 1
                    binders.append(SurfaceBinder(f"_inst_{anon}", ty, True, pos))
            else:
                break
        return tuple(binders)

    def parse_instance(self) -> InstanceItem:
        pos = self.pos()
        priority: int | None = None
        if self.at("AT"):
            self.i += 1
            self.expect("LBRACK")
            self.expect("IDENT", "priority")
            priority = int(self.values[self.expect("NUM")])
            self.expect("RBRACK")
        self.expect("IDENT", "instance")
        name = self.parse_name("instance name")
        binders = self.parse_binders()
        self.expect("COLON")
        target = self.parse_expr()
        assignments: list[SurfaceAssign] = []
        if self.at_keyword("where"):
            self.i += 1
            while self.at("LPAREN"):
                self.i += 1
                p = self.pos()
                fname = self.parse_name("field name")
                self.expect("ASSIGN")
                if self.at_keyword("opaque"):
                    value: SExpr = SOpaque(self.pos())
                    self.i += 1
                else:
                    value = self.parse_expr()
                self.expect("RPAREN")
                assignments.append(SurfaceAssign(fname, value, p))
        return InstanceItem(name, binders, target, priority, tuple(assignments), pos)

    def parse_variables(self) -> VariablesItem:
        pos = self.pos()
        self.i += 1  # ``variables``, which chose this parser
        binders = self.parse_binders()
        if not binders:
            raise self.error(self.i, ("binder",), self.values[self.i])
        return VariablesItem(binders, pos)

    def parse_goal(self) -> GoalItem:
        pos = self.pos()
        self.i += 1  # ``goal``, which chose this parser
        label = self.parse_name("goal label")
        self.expect("COLON")
        return GoalItem(label, self.parse_expr(), pos)

    def parse_defeq(self) -> DefeqItem:
        pos = self.pos()
        self.i += 1  # ``defeq``, which chose this parser
        label = self.parse_name("defeq label")
        self.expect("COLON")
        lhs = self.parse_expr()
        self.expect("EQ")
        rhs = self.parse_expr()
        return DefeqItem(label, lhs, rhs, pos)

    # Expressions -----------------------------------------------------------

    def parse_expr(self) -> SExpr:
        i = self.i
        word = self.values[i]
        if word in _BINDER_WORDS:
            pos = self.pos()
            self.i = i + 1
            is_pi = word in ("Pi", "Π")
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
            self.i += 1
            return SArrow(lhs, self.parse_expr())
        return lhs

    def parse_app(self) -> SExpr:
        """An atom applied to the atoms after it.  An atom is ``Type``, or a
        name, ``@name`` or a parenthesized expression with any projections
        after it."""
        kinds, values, lines, cols = self.kinds, self.values, self.lines, self.cols
        expr: SExpr | None = None
        while True:
            i = self.i
            kind, value = kinds[i], values[i]
            if kind == "IDENT" and value not in KEYWORDS:
                self.i = i + 1
                atom: SExpr = SName(value, Pos(lines[i], cols[i]))
            elif kind == "LPAREN":
                self.i = i + 1
                atom = self.parse_expr()
                self.expect("RPAREN")
            elif kind == "AT" and (expr is None or kinds[i + 1] != "LBRACK"):
                # After a term, ``@[`` opens the attribute of the next item.
                self.i = i + 1
                j = self.expect("IDENT", what="name after @")
                atom = SName(values[j], Pos(lines[j], cols[j]), True)
            elif value == "Type":
                self.i = i + 1
                atom = SSort(Pos(lines[i], cols[i]))
                expr = atom if expr is None else SApp(expr, atom)
                continue  # a sort has no projections
            elif expr is None:
                raise self.error(i, ("a term",), value or "end of input")
            else:
                return expr
            while kinds[self.i] == "DOT":
                dot = self.pos()
                self.i += 1
                name = values[self.expect("IDENT", what="field name")]
                for segment in name.split("."):
                    atom = SProj(atom, segment, dot)
            expr = atom if expr is None else SApp(expr, atom)


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
    # The names of ``scope``, kept as binders are pushed and popped.
    local_names = {b.name for b in scope}

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
            shadowing = e.binder in local_names
            local_names.add(e.binder)
            try:
                body = resolve(e.body)
            finally:
                scope.pop()
                if not shadowing:
                    local_names.discard(e.binder)
            body = abstract(body, (e.binder,))
            if isinstance(e, SPi):
                return Pi(e.binder, ty, body, implicit=e.implicit)
            return Lam(e.binder, ty, body)
        raise TypeError(f"unknown expression {e!r}")

    def resolve_name(e: SName) -> Term:
        parts = e.name.split(".")
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
