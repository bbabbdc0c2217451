"""Slow, obviously-correct versions of fast paths, kept as test oracles.

- ``tokenize``: the lexer as a loop over characters, one column per
  character and none for a comment.  ``hierlab.surface`` runs one compiled
  pattern's ``finditer`` over each line, letting the search skip blanks and
  taking each lexeme's kind from the symbol table or its first character,
  into four token arrays, which zipped must equal these tokens, errors
  included.
- ``parse``: the parser as recursive descent over one token object per
  token, read through ``peek``/``at``/``advance``.  ``hierlab.surface.parse``
  indexes the token arrays in its loops and must give an equal module, or
  a ParseError with the same text.
- ``print_module``: a module printed in canonical form, which parses back
  to an equal module.  Only tests print surface syntax.
- ``flatten_fields``: the leaf-field view of a class, recomputed by recursion
  through every ancestor path.  The elaborator stores this view once per
  class in ``ClassInfo.leaves``.
- ``preferred_path``: the path of substructure projections from one class
  to another, by breadth-first search over the class layouts.  The
  elaborator's ``projections`` walks a class's layout once, through its
  substructures, and must reach each class stored at any depth by the
  chain of projections along this path.
- ``flat_forgetful_body``: the body of a flat class's instance for a direct
  parent, the parent's constructor applied to the class's projections onto
  each parent leaf.  The elaborator derives it from the nested rebuilding
  rule, since under flat no parent is stored as a substructure.
- ``class_declarations``: a class's constructor and projections, built
  eagerly from its ``ClassInfo``, one substitution per projection.  The
  environment derives them from the stored structure on first read and
  must give equal declarations.
- ``rebuilt_declarations``: a class's instances for the parents it does not
  store, under every encoding, built eagerly from the class records: each
  leaf and each stored class found by ``preferred_path``, each parent that
  is not stored packed field by field.  The environment derives them from
  the stored structure on first read, through one ``projections`` walk,
  and must give equal declarations.
- ``Environment``: declarations added one at a time to a map that holds
  every name, a structure's derived constructor, projection and rebuilt
  instance names built as it is added, each term of a declaration, every
  binder type and rebuilt parent included, checked on its own.
  ``hierlab.declarations.Environment.add`` walks a declaration's terms
  once, leaving out bare-variable binder types, and derives nothing;
  single adds must leave the same names and error.
- ``resolve``: instance search as a plain depth-first search with no answer
  table; every subgoal is searched again on every path that reaches it.
  ``hierlab.resolution.resolve`` tables ground answers and must agree with
  it on every goal.
- ``enumerate_diamonds``, ``predict_diamond``, ``analyze``: every diamond
  as a pair of paths, listed one by one, and decided pair by pair: the
  oracle by ``check_diamond``, the predictor from the two last edges.
  ``hierlab.analyzer.analyze`` decides each path group from one normal form
  and one edge kind per path; ``diamond_rows`` of its reports must equal
  these rows, ``(source, target, pathA, pathB, oracle, predictor)``.
- ``spanning_search``: every parent order of every placement elaborated and
  analysed pairwise as a whole module, orders compared by their rows'
  verdicts.  ``hierlab.analyzer.spanning_search`` forks the elaboration at
  each class with several parents, enumerates the paths once and reuses
  the reports of sources whose choices did not change; its placements,
  expanded to rows by ``placement_rows``, and its errors must equal these.
- ``report_dict``, ``report_summary``, ``report_lines``: the diamonds
  report as a JSON-ready dict built from the rows of the library's reports,
  and as the text lines without ``--trace``; ``spanning_dict`` and
  ``spanning_lines``: the spanning-search reports built from placement
  rows.  ``hier diamonds`` and ``hier spanning-search`` write their reports
  as a stream over the analyzer's path groups and must give the same bytes
  as ``json.dumps(..., indent=2, sort_keys=True)`` of these dicts and
  these lines.
- ``lift``, ``instantiate``, ``abstract1``, ``subst_frees``, ``zonk``: each
  substitution as its own recursive rebuild of every node, and ``abstract``,
  ``pi_type`` and ``lam_closure`` as one ``abstract1`` per name, innermost
  binder first.  ``hierlab.terms`` runs them all through one walker that
  shares unchanged subterms, and must give the same terms.
- ``consts_in``: the names a term uses as constants or structures, by
  recursion over every node.  ``hierlab.terms.consts_in`` walks its own
  stack, follows projection chains in place and drops free variables first.
- ``normalize``: full normal forms by a weak-head reducer on terms that
  instantiates one binder at a time and returns a stuck projection with
  its target unreduced, so a chain of k projections costs about k²/2
  reductions.  ``hierlab.kernel.normalize`` reduces spines, instantiates
  every binder a beta step takes in one walk, and goes on from the target
  it already reduced; it must give the same normal forms, and never run
  out of fuel where this returns.
- ``preferred_edges``: the (from, to) pairs of the preferred-projection
  instances, which form at most one path between any two classes.
"""
from __future__ import annotations

import itertools
import re
from typing import Mapping, NamedTuple

from hierlab.analyzer import (
    MAX_PATH_LEN, Diamond, _check_path_limit, _path_key, build_graph, check_diamond,
    commutes_under, config_dict, diamond_rows,
)
from hierlab.declarations import DefDecl, EnvironmentError_, StructDecl
from hierlab.elaborator import (
    FLAT_HACK_CLASS, PREFERRED, ClassInfo, EncodingStrategy, FieldTypeClash, elaborate,
)
from hierlab.kernel import DEFAULT_CONFIG, IllTyped, Mismatch, OccursCheck, Trace, _Fuel, unify
from hierlab.resolution import MAX_DEPTH, DepthExceeded, NotFound
from hierlab.surface import (
    _IDENT_RE, _SYMBOLS, KEYWORDS, ClassItem, DefeqItem, GoalItem, InstanceItem, Item,
    ParseError, Pos, SApp, SArrow, SExpr, SFun, SName, SOpaque, SPi, SProj, SSort,
    SurfaceAssign, SurfaceBinder, SurfaceModule, VariablesItem,
)
from hierlab.terms import (
    App, Binder, BoundVar, Const, FreeVar, Lam, Meta, Mk, Pi, Proj, Term, apps, metas_in,
    unfold_apps,
)


_NUM_RE = re.compile(r"\d+")


def tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, value, line, col)`` per token, then an EOF token."""
    toks: list[tuple[str, str, int, int]] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(("IDENT", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NUM_RE.match(text, i)
        if m:
            toks.append(("NUM", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        for sym, kind in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append((kind, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(line, col, ("a token",), repr(ch))
    toks.append(("EOF", "", line, col))
    return toks


class _Token(NamedTuple):
    kind: str
    value: str
    line: int
    col: int


_ATOM_STARTS = {"IDENT", "AT", "LPAREN"}
_STOP_KEYWORDS = KEYWORDS - {"Type"}


def parse(text: str) -> SurfaceModule:
    """A .hier module parsed by recursive descent over ``tokenize``'s
    tokens, one token object each, read through ``peek``/``at``/``advance``."""
    return _Parser([_Token(*tok) for tok in tokenize(text)]).parse_module()


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
                    binders.append(SurfaceBinder(f"_inst_{anon}", ty, True, pos))
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
    # A binder prints as ``[ty]`` when its name is the one the parser would
    # give it there: ``_inst_k`` for the k-th ``[ty]`` of the telescope.  So
    # a user's ``[_inst_2 : T]`` before any ``[ty]`` keeps its name.
    parts = []
    anon = 0
    for b in binders:
        if b.instance_implicit:
            if b.name == f"_inst_{anon + 1}":
                anon += 1
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


def flatten_fields(classes: Mapping[str, ClassInfo], name: str) -> list[tuple[str, Term]]:
    """Parents first (duplicates merged at first occurrence, alpha-equal
    types required), then own fields."""
    info = classes[name]
    merged: dict[str, Term] = {}
    sources: dict[str, str] = {}
    for parent, args in info.parents:
        mapping = {b.name: a for b, a in zip(classes[parent].params, args)}
        for leaf, ty in flatten_fields(classes, parent):
            ty = subst_frees(ty, mapping)
            if leaf in merged:
                if merged[leaf] != ty:
                    raise FieldTypeClash(leaf, sources[leaf], parent)
            else:
                merged[leaf] = ty
                sources[leaf] = parent
    for leaf, ty in info.own_fields:
        if leaf in merged:
            if merged[leaf] != ty:
                raise FieldTypeClash(leaf, sources[leaf], name)
        else:
            merged[leaf] = ty
            sources[leaf] = name
    return list(merged.items())


def preferred_path(elab, source: str, target: str) -> tuple[tuple[str, str], ...] | None:
    """Breadth-first search over substructure fields, in layout order: the
    first ``(struct, field)`` path from ``source`` to a distinct ``target``,
    or None when no chain of substructures reaches it."""
    queue: list[tuple[str, tuple[tuple[str, str], ...]]] = [(source, ())]
    seen = {source}
    while queue:
        cls, path = queue.pop(0)
        info = elab.classes[cls]
        for f in info.layout:
            parent = info.substructures.get(f.name)
            if parent is None or parent in seen:
                continue
            step = path + ((cls, f.name),)
            if parent == target:
                return step
            seen.add(parent)
            queue.append((parent, step))
    return None


def flat_forgetful_body(classes: Mapping[str, ClassInfo], name: str, parent: str,
                        args: tuple[Term, ...], self_var: Term) -> Term:
    """``Mk(parent, args, Proj(name, leaf, self_var) for each parent leaf)``."""
    return Mk(parent, args, tuple(Proj(name, leaf, self_var)
                                  for leaf, _ in flatten_fields(classes, parent)))


def class_declarations(info: ClassInfo) -> list[DefDecl]:
    """A class's constructor and then its projections, built eagerly from
    its ``ClassInfo`` as the elaborator once stored them.  The value binder
    is ``self``, or ``self_<k>`` for the least k no parameter takes, and
    the k-th projection's result type is its field's type with each
    earlier field replaced by that field's projection, one substitution
    per projection."""
    param_names = {b.name for b in info.params}
    name = "self" if "self" not in param_names else next(
        f"self_{k}" for k in itertools.count(1) if f"self_{k}" not in param_names)
    value = FreeVar(name)
    self_type = apps(Const(info.name), *(FreeVar(b.name) for b in info.params))
    binders = info.params + (Binder(name, self_type, instance_implicit=True),)
    mk = Mk(info.name, tuple(FreeVar(b.name) for b in info.params),
            tuple(FreeVar(f.name) for f in info.layout))
    decls = [DefDecl(f"{info.name}.mk", info.params + info.layout, self_type, mk)]
    for k, f in enumerate(info.layout):
        earlier = {g.name: Proj(info.name, g.name, value) for g in info.layout[:k]}
        decls.append(DefDecl(f"{info.name}.{f.name}", binders, subst_frees(f.ty, earlier),
                             Proj(info.name, f.name, value)))
    return decls


def rebuilt_declarations(elab, info: ClassInfo) -> list[DefDecl]:
    """A class's instances for the parents it does not store as a
    substructure, in parent order, built eagerly as the elaborator once
    stored them.  The instance binder is ``i``, or ``i_<k>`` for the least
    k no parameter takes.  A packed parent's leaf is the projection out of
    the class that holds it as a leaf field, reached by its
    ``preferred_path``; a substructure of it is the path's chain of
    projections when the class stores that parent at any depth, and is
    packed the same way when it does not.  Under flat every leaf is the
    class's own, as in ``flat_forgetful_body``."""
    classes = elab.classes
    param_names = {b.name for b in info.params}
    name = "i" if "i" not in param_names else next(
        f"i_{k}" for k in itertools.count(1) if f"i_{k}" not in param_names)
    value = FreeVar(name)
    self_type = apps(Const(info.name), *(FreeVar(b.name) for b in info.params))
    binders = info.params + (Binder(name, self_type, instance_implicit=True),)

    # The instance seen as each class it stores at any depth, and as itself.
    reached = {info.name: value}
    for target in classes:
        path = preferred_path(elab, info.name, target)
        if path is not None:
            term = value
            for struct, field in path:
                term = Proj(struct, field, term)
            reached[target] = term

    def leaf(field: str) -> Term:
        for cls, base in reached.items():
            holder = classes[cls]
            if field in {f.name for f in holder.layout} - holder.substructures.keys():
                return Proj(cls, field, base)
        raise KeyError(field)

    def pack(cls: str, args: tuple[Term, ...]) -> Term:
        pinfo = classes[cls]
        mapping = {b.name: a for b, a in zip(pinfo.params, args)}
        fields = []
        for f in pinfo.layout:
            parent = pinfo.substructures.get(f.name)
            if parent is None:
                fields.append(leaf(f.name))
                continue
            stored = reached.get(parent)
            if stored is None:
                _, sub_args = unfold_apps(subst_frees(f.ty, mapping))
                stored = pack(parent, tuple(sub_args))
            fields.append(stored)
        return Mk(cls, args, tuple(fields))

    direct = set(info.substructures.values())
    return [DefDecl(f"{info.name}.to_{parent}", binders, apps(Const(parent), *args),
                    pack(parent, args))
            for parent, args in info.parents if parent not in direct]


class Environment:
    """The names added so far, derived ones included, each to the
    declaration it comes from."""

    def __init__(self) -> None:
        self.names: dict[str, object] = {}

    def add(self, decl) -> None:
        """Raise on the declaration's name if it is taken, then on the
        alphabetically first missing name of its first term that names one
        (binder types, then result type and body), then on the first
        derived name that is taken or repeats an earlier one; else add it.
        A structure's terms are its binder types, then its rebuilt parents."""
        if isinstance(decl, StructDecl):
            binders, terms = decl.params + decl.fields, list(decl.rebuilt)
            derived = [f"{decl.name}.mk", *[f"{decl.name}.{f.name}" for f in decl.fields],
                       *[f"{decl.name}.to_{unfold_apps(p)[0].name}" for p in decl.rebuilt]]
        else:
            binders, derived = decl.binders, []
            terms = [decl.result_type, decl.body] if isinstance(decl, DefDecl) \
                else [decl.result_type]
        if decl.name in self.names:
            raise EnvironmentError_(f"duplicate declaration {decl.name!r}")
        for term in [b.ty for b in binders] + terms:
            missing = consts_in(term) - set(self.names) - {decl.name}
            if missing:
                raise EnvironmentError_(f"declaration {decl.name!r} references "
                                        f"{min(missing)!r} before its declaration")
        taken = [decl.name]
        for name in derived:
            if name in self.names or name in taken:
                raise EnvironmentError_(f"duplicate declaration {name!r}")
            taken.append(name)
        for name in taken:
            self.names[name] = decl


def resolve(env, instances, ctx, target: Term, *, config=DEFAULT_CONFIG,
            max_depth: int = MAX_DEPTH) -> Term:
    """Untabled depth-first instance search: the same candidate order, path
    guard and depth cap as the library, without the answer table."""
    meta_types: dict[int, Term] = {}
    target = _saturate(env, meta_types, target)

    def candidates(goal: Term) -> list[tuple[str, object]]:
        head, _ = unfold_apps(goal)
        cls = head.name if isinstance(head, Const) else None
        out: list[tuple[str, object]] = [("local", b) for b in reversed(ctx)
                                         if b.instance_implicit]
        ranked = [(inst.priority, idx, inst) for idx, inst in enumerate(instances)
                  if cls is None or inst.to_class == cls]
        ranked.sort(key=lambda t: (-t[0], -t[1]))
        return out + [("global", inst) for _, _, inst in ranked]

    def solve(goal, subst, depth, path):
        if depth > max_depth:
            raise DepthExceeded(max_depth)
        goal = zonk(goal, subst)
        if any(seen == goal for seen in path):
            return None
        path = path + (goal,)
        for kind, cand in candidates(goal):
            if kind == "local":
                try:
                    return FreeVar(cand.name), unify(env, config, ctx, cand.ty, goal,
                                                     subst=subst, meta_types=meta_types)
                except (Mismatch, OccursCheck):
                    continue
            result = try_global(cand, goal, subst, depth, path)
            if result is not None:
                return result
        return None

    def try_global(inst, goal, subst, depth, path):
        decl = env.get(inst.decl_name)
        if not isinstance(decl, DefDecl):
            return None
        mapping: dict[str, Term] = {}
        arg_metas: list[Meta] = []
        for binder in decl.binders:
            m = _fresh(meta_types, subst_frees(binder.ty, mapping))
            mapping[binder.name] = m
            arg_metas.append(m)
        try:
            new = unify(env, config, ctx, subst_frees(decl.result_type, mapping), goal,
                        subst=subst, meta_types=meta_types)
        except (Mismatch, OccursCheck):
            return None
        for binder, m in zip(decl.binders, arg_metas):
            current = zonk(m, new)
            if not binder.instance_implicit or not isinstance(current, Meta):
                continue
            sub = solve(zonk(meta_types[m.mid], new), new, depth + 1, path)
            if sub is None:
                return None
            sub_term, new = sub
            new = dict(new)
            new[current.mid] = zonk(sub_term, new)
        value = zonk(apps(Const(decl.name), *arg_metas), new)
        return None if metas_in(value) else (value, new)

    result = solve(target, {}, 0, ())
    if result is None:
        raise NotFound(target)
    term = zonk(*result)
    if metas_in(term):
        raise NotFound(target)
    return term


def _fresh(meta_types: dict[int, Term], ty: Term) -> Meta:
    """A new meta of type ``ty``; its id is the number of metas made before."""
    m = Meta(len(meta_types))
    meta_types[m.mid] = ty
    return m


def _saturate(env, meta_types: dict[int, Term], target: Term) -> Term:
    head, args = unfold_apps(target)
    decl = env.get(head.name) if isinstance(head, Const) else None
    if not isinstance(decl, StructDecl) or len(args) >= len(decl.params):
        return target
    mapping: dict[str, Term] = {b.name: a for b, a in zip(decl.params, args)}
    extra = []
    for binder in decl.params[len(args):]:
        m = _fresh(meta_types, subst_frees(binder.ty, mapping))
        mapping[binder.name] = m
        extra.append(m)
    return apps(head, *args, *extra)


def enumerate_diamonds(graph, max_path_len: int = MAX_PATH_LEN) -> list[Diamond]:
    """All unordered pairs of distinct paths sharing both endpoints,
    ordered lexicographically by source, target, then path decl names."""
    diamonds: list[Diamond] = []
    for source in sorted(graph.nodes):
        by_target: dict[str, list] = {}

        def walk(node: str, path: tuple) -> None:
            if path:
                by_target.setdefault(node, []).append(path)
            if len(path) >= max_path_len:
                return
            for e in graph.outgoing.get(node, ()):
                walk(e.to_class, path + (e,))

        walk(source, ())
        for target in sorted(by_target):
            paths = sorted(by_target[target], key=_path_key)
            for a, b in itertools.combinations(paths, 2):
                diamonds.append(Diamond(source, target, a, b))
    return diamonds


def predict_diamond(diamond: Diamond) -> bool:
    """The last-segment rule: the paths stay interchangeable when their
    final edges are both preferred projections or both constructor-built."""
    return (diamond.path_a[-1].kind == PREFERRED) == (diamond.path_b[-1].kind == PREFERRED)


Row = tuple[str, str, tuple[str, ...], tuple[str, ...], bool, bool]


def analyze(elab, config=DEFAULT_CONFIG, max_path_len: int = MAX_PATH_LEN) -> list[Row]:
    """Every diamond's row, ``check_diamond`` deciding each oracle; the
    path limit raises as in the library."""
    graph = build_graph(elab.env, elab.instances)
    _check_path_limit(graph, max_path_len)
    return [(d.source, d.target, _path_key(d.path_a), _path_key(d.path_b),
             check_diamond(elab.env, d, config), predict_diamond(d))
            for d in enumerate_diamonds(graph, max_path_len)]


def spanning_search(module, strategy: EncodingStrategy, config=DEFAULT_CONFIG,
                    max_path_len: int = MAX_PATH_LEN, max_depth: int = MAX_DEPTH) -> list:
    """Each order of each placement elaborated from scratch and analysed
    whole; the declared order is placement 0's first order.  One
    ``(index, first_parents, rows, coherent, order_invariant)`` per
    placement."""
    base = elaborate(module, EncodingStrategy(strategy.kind), config, max_depth)
    chooseable: list[tuple[str, list[str]]] = []
    hack = strategy.kind == "flat_hack"
    for name, info in base.classes.items():
        parents = [p for p, _ in info.parents if not (hack and p == FLAT_HACK_CLASS)]
        if len(parents) >= 2:
            chooseable.append((name, parents))
    names = [name for name, _ in chooseable]
    declared = tuple(tuple(parents) for _, parents in chooseable)

    def analyzed(order):
        elab = base if order == declared else elaborate(
            module, EncodingStrategy(strategy.kind, dict(zip(names, order))),
            config, max_depth)
        return tuple(analyze(elab, config, max_path_len))

    def verdicts(rows):
        return {row[:4]: row[4:] for row in rows}

    placements = []
    combos = itertools.product(*(parents for _, parents in chooseable))
    for index, combo in enumerate(combos):
        orders = itertools.product(*(
            [(first,) + rest for rest in itertools.permutations(
                [p for p in parents if p != first])]
            for (_, parents), first in zip(chooseable, combo)))
        checked = analyzed(next(orders))
        reference = verdicts(checked)
        invariant = all(verdicts(analyzed(order)) == reference for order in orders)
        coherent = all(commutes_under(oracle, predictor, config)
                       for *_, oracle, predictor in checked)
        placements.append((index, tuple(sorted(zip(names, combo))), checked, coherent,
                           invariant))
    return placements


def placement_rows(placements) -> list:
    """The library's placement reports in the form of ``spanning_search``'s."""
    return [(p.index, p.first_parents, tuple(diamond_rows(p.groups)), p.coherent,
             p.nonfirst_order_invariant) for p in placements]


def diamond_dict(row: Row) -> dict:
    """One diamond's JSON record."""
    source, target, path_a, path_b, oracle, predictor = row
    return {"source": source, "target": target, "pathA": list(path_a),
            "pathB": list(path_b), "oracle": oracle, "predictor": predictor}


def report_dict(encoding: str, config, reports) -> dict:
    """The JSON-ready diamonds report of the library's group reports;
    `commuting` uses the scoring rule of commutes_under and `mismatches`
    counts oracle/predictor disagreements."""
    rows = list(diamond_rows(reports))
    return {
        "config": config_dict(encoding, config),
        "diamonds": [diamond_dict(row) for row in rows],
        "summary": _summary(config, rows),
    }


def report_summary(config, reports) -> dict[str, int]:
    """The diamond count, how many commute under commutes_under, and how
    many oracle/predictor disagreements there are."""
    return _summary(config, list(diamond_rows(reports)))


def _summary(config, rows: list[Row]) -> dict[str, int]:
    return {
        "total": len(rows),
        "commuting": sum(1 for *_, o, p in rows if commutes_under(o, p, config)),
        "mismatches": sum(1 for *_, o, p in rows if o != p),
    }


def report_lines(config, reports) -> list[str]:
    """The text report: one line per diamond, then the summary line."""
    rows = list(diamond_rows(reports))
    lines = []
    for source, target, path_a, path_b, oracle, predictor in rows:
        verdict = "commutes" if commutes_under(oracle, predictor, config) \
            else "DOES NOT COMMUTE"
        lines.append(f"{source} -> {target}: "
                     f"[{', '.join(path_a)}] vs [{', '.join(path_b)}]: "
                     f"oracle={'equal' if oracle else 'not-equal'} "
                     f"predictor={'commutes' if predictor else 'fails'} "
                     f"-> {verdict}")
    summary = _summary(config, rows)
    lines.append(f"{summary['commuting']} / {summary['total']} commuting, "
                 f"{summary['mismatches']} oracle/predictor mismatches")
    return lines


def spanning_dict(encoding: str, config, placements) -> dict:
    """The JSON-ready spanning-search report of ``spanning_search``'s
    placements."""
    return {
        "config": config_dict(encoding, config),
        "placements": [
            {
                "index": index,
                "first_parents": dict(first_parents),
                "coherent": coherent,
                "order_invariant": invariant,
                "diamonds": [{**diamond_dict(row),
                              "commutes": commutes_under(row[4], row[5], config)}
                             for row in rows],
            }
            for index, first_parents, rows, coherent, invariant in placements
        ],
        "summary": {"total": len(placements),
                    "coherent": sum(1 for p in placements if p[3])},
    }


def spanning_lines(config, placements) -> list[str]:
    """The spanning-search text report: one line per placement, then the
    summary line."""
    lines = []
    for index, first_parents, rows, coherent, invariant in placements:
        line = f"placement {index}:"
        if first_parents:
            line += " " + " ".join(f"{cls}={parent}" for cls, parent in first_parents) + " |"
        line += " coherent" if coherent else " incoherent"
        failing = sorted({f"{source}->{target}" for source, target, _, _, o, p in rows
                          if not commutes_under(o, p, config)})
        if failing:
            line += " | failing: " + ", ".join(failing)
        if not invariant:
            line += " | order-sensitive"
        lines.append(line)
    lines.append(f"{sum(1 for p in placements if p[3])} / {len(placements)} coherent")
    return lines


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
        return Pi(t.binder, lift(t.ty, amount, cutoff), lift(t.body, amount, cutoff + 1),
                  t.implicit)
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
        return Lam(body.binder, instantiate(body.ty, value, depth),
                   instantiate(body.body, value, depth + 1))
    if isinstance(body, Pi):
        return Pi(body.binder, instantiate(body.ty, value, depth),
                  instantiate(body.body, value, depth + 1), body.implicit)
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
        return Pi(t.binder, abstract1(t.ty, name, depth), abstract1(t.body, name, depth + 1),
                  t.implicit)
    if isinstance(t, Mk):
        return Mk(t.struct, tuple(abstract1(p, name, depth) for p in t.params),
                  tuple(abstract1(f, name, depth) for f in t.fields))
    if isinstance(t, Proj):
        return Proj(t.struct, t.field, abstract1(t.target, name, depth))
    return t


def abstract(t: Term, names: list[str], depth: int = 0) -> Term:
    """Close t under one binder per name, outermost first: the innermost
    name first, each next name one binder further out."""
    for i, name in enumerate(reversed(names)):
        t = abstract1(t, name, depth + i)
    return t


def subst_frees(t: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneous substitution of free variables."""
    if not mapping:
        return t
    if isinstance(t, FreeVar):
        return mapping.get(t.name, t)
    if isinstance(t, App):
        return App(subst_frees(t.fn, mapping), subst_frees(t.arg, mapping))
    if isinstance(t, Lam):
        return Lam(t.binder, subst_frees(t.ty, mapping), subst_frees(t.body, mapping))
    if isinstance(t, Pi):
        return Pi(t.binder, subst_frees(t.ty, mapping), subst_frees(t.body, mapping),
                  t.implicit)
    if isinstance(t, Mk):
        return Mk(t.struct, tuple(subst_frees(p, mapping) for p in t.params),
                  tuple(subst_frees(f, mapping) for f in t.fields))
    if isinstance(t, Proj):
        return Proj(t.struct, t.field, subst_frees(t.target, mapping))
    return t


def zonk(t: Term, subst: dict[int, Term]) -> Term:
    """Replace assigned metas by their values, transitively."""
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


def pi_type(binders: list[Binder], result: Term) -> Term:
    """Close a name-based telescope into an iterated Pi type."""
    t = result
    for b in reversed(binders):
        t = Pi(b.name, b.ty, abstract1(t, b.name), implicit=b.instance_implicit)
    return t


def lam_closure(binders: list[Binder], body: Term) -> Term:
    """Close a name-based telescope into an iterated lambda."""
    t = body
    for b in reversed(binders):
        t = Lam(b.name, b.ty, abstract1(t, b.name))
    return t


def consts_in(t: Term) -> set[str]:
    """The names t uses as constants or as structures."""
    if isinstance(t, Const):
        return {t.name}
    if isinstance(t, App):
        return consts_in(t.fn) | consts_in(t.arg)
    if isinstance(t, (Lam, Pi)):
        return consts_in(t.ty) | consts_in(t.body)
    if isinstance(t, Proj):
        return {t.struct} | consts_in(t.target)
    if isinstance(t, Mk):
        return {t.struct}.union(*map(consts_in, t.params + t.fields))
    return set()


def normalize(env, config, t: Term) -> Term:
    """Full beta/delta/iota normal form under one fuel budget of
    config.unfold_depth, as the kernel computed it before it reduced
    spines."""
    return _normalize(env, t, _Fuel(config.unfold_depth), None)


def _whnf(env: Environment, t: Term, fuel: _Fuel, trace: Trace | None) -> Term:
    while True:
        head, args = unfold_apps(t)
        if isinstance(head, Lam) and args:
            while isinstance(head, Lam) and args:
                head = instantiate(head.body, args.pop(0))
            if trace is not None:
                trace.step("beta")
            t = apps(head, *args)
            continue
        if isinstance(head, Const):
            value = env.unfolding(head.name)
            if value is None:
                return t
            fuel.spend(head.name)
            if trace is not None:
                trace.step(f"delta {head.name}")
            t = apps(value, *args)
            continue
        if isinstance(head, Proj):
            target = _whnf(env, head.target, fuel, trace)
            if isinstance(target, Mk):
                if target.struct != head.struct:
                    raise IllTyped(f"projection {head.struct}.{head.field} applied to a "
                                   f"constructor of {target.struct}")
                if trace is not None:
                    trace.step(f"iota {head.struct}.{head.field}")
                t = apps(target.fields[env.struct(head.struct).positions[head.field]], *args)
                continue
            # Stuck projection: return the original form, not the reduced
            # target, so callers (and meta assignments) keep declared names.
            return t
        return t


def _normalize(env: Environment, t: Term, fuel: _Fuel, trace: Trace | None) -> Term:
    head, args = unfold_apps(_whnf(env, t, fuel, trace))
    # Bound variables stay loose below binders: instantiate shifts indices,
    # so reducing an open body needs no fresh names.
    if isinstance(head, Lam):
        head = Lam(head.binder, _normalize(env, head.ty, fuel, trace),
                   _normalize(env, head.body, fuel, trace))
    elif isinstance(head, Pi):
        head = Pi(head.binder, _normalize(env, head.ty, fuel, trace),
                  _normalize(env, head.body, fuel, trace), head.implicit)
    elif isinstance(head, Mk):
        head = Mk(head.struct, tuple(_normalize(env, p, fuel, trace) for p in head.params),
                  tuple(_normalize(env, f, fuel, trace) for f in head.fields))
    elif isinstance(head, Proj):
        head = Proj(head.struct, head.field, _normalize(env, head.target, fuel, trace))
    return apps(head, *(_normalize(env, a, fuel, trace) for a in args))


def preferred_edges(elab) -> frozenset[tuple[str, str]]:
    """The (from, to) pairs of all preferred-projection instances."""
    return frozenset((i.from_class, i.to_class) for i in elab.instances
                     if i.kind == PREFERRED and i.from_class is not None)
