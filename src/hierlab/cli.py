"""Command-line front end.

Subcommands:

  elaborate        dump the elaborated environment of a module
  defeq            check stored (or ad-hoc) definitional equalities
  resolve          run instance search on stored (or ad-hoc) goals
  diamonds         enumerate and check every instance diamond
  spanning-search  score every choice of first parent for coherence

The input path ``@random`` generates a module from ``--seed`` instead of
reading a file.  All output is deterministic for a fixed command line.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .analyzer import (
    Diamond, GroupReport, PathLimitExceeded, analyze, check_diamond, commutes_under,
    config_dict, random_hierarchy, spanning_search,
)
from .declarations import DefDecl, OpaqueDecl, StructDecl
from .elaborator import ClassInfo, ElabError, Elaboration, EncodingStrategy, elaborate
from .kernel import DefEqConfig, KernelError, Trace, check_type, defeq
from .resolution import MAX_DEPTH, AnswerTable, DepthExceeded, NotFound, resolve
from .surface import SurfaceError, SurfaceModule, parse, parse_term
from .terms import Binder, Telescope, Term, pp_binder, pp_term

ENCODINGS = {"flat": "flat", "nested": "nested", "flat-hack": "flat_hack"}


class CliError(Exception):
    """A diagnostic already formatted for the error stream."""


# ---------------------------------------------------------------------------
# Argument parsing

class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which also takes positionals after options
    (``hier resolve FILE --trace GOAL``).  The top-level parser cannot parse
    intermixed arguments, since it has subparsers, so the subcommand's
    parser does; what it leaves over, the top-level parser reports."""

    def parse_known_args(self, args=None, namespace=None):
        # The top-level parser passes no namespace; the intermixed parse
        # calls back here with the one it builds.
        if namespace is None:
            return self.parse_known_intermixed_args(args, argparse.Namespace())
        return super().parse_known_args(args, namespace)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hier",
        description="Elaborate class hierarchies and probe their instance diamonds.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)

    def depth(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be 0 or more, got {value}")
        return value

    def add_common(p: argparse.ArgumentParser, parent_order: bool = True,
                   trace: bool = True) -> None:
        p.add_argument("path",
                       help="input module, or @random to generate one from --seed")
        p.add_argument("--encoding", choices=sorted(ENCODINGS), default="nested",
                       help="how extends-clauses are compiled (default: nested)")
        p.add_argument("--eta-kernel", choices=("on", "off"), default="on",
                       help="structural eta in the equality checker (default: on)")
        p.add_argument("--eta-unifier", choices=("on", "off"), default="off",
                       help="structural eta in the unifier (default: off)")
        p.add_argument("--emit", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for @random input (default: 0)")
        p.add_argument("--max-depth", type=depth, default=MAX_DEPTH,
                       help=f"instance search depth limit (default: {MAX_DEPTH})")
        if trace:  # elaborate and spanning-search have no steps to log
            p.add_argument("--trace", action="store_true",
                           help="log reduction and search steps")
        if parent_order:  # spanning-search chooses the parent orders itself
            p.add_argument("--parent-order", action="append", default=[],
                           metavar="CLASS:PARENT",
                           help="move PARENT first in CLASS's extends list; repeated "
                                "entries for one class form a prefix, in the order "
                                "given")

    add_common(sub.add_parser("elaborate", help="dump the elaborated environment"),
               trace=False)

    p = sub.add_parser("defeq", help="check definitional equalities")
    add_common(p)
    p.add_argument("terms", nargs="*", metavar="LABEL | LHS RHS",
                   help="a stored defeq label, or two terms; default: all stored")

    p = sub.add_parser("resolve", help="run instance search")
    add_common(p)
    p.add_argument("goal", nargs="?",
                   help="a stored goal label or a goal term; default: all stored")

    add_common(sub.add_parser("diamonds", help="check every instance diamond"))
    add_common(sub.add_parser("spanning-search",
                              help="score every first-parent placement"),
               parent_order=False, trace=False)
    # The intermixed parse formats a subcommand's usage on every call unless
    # it is set; set it once, to the text that parse would format, wrapped at
    # the terminal width of this first build.  argparse applies ``%`` to a
    # set usage, so a ``%`` in the text is doubled.
    for p in sub.choices.values():
        p.usage = p.format_usage()[len("usage: "):].replace("%", "%%")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing

def _load_module(args: argparse.Namespace) -> SurfaceModule:
    if args.path == "@random":
        return parse(random_hierarchy(args.seed))
    try:
        data = Path(args.path).read_bytes()
    except OSError as exc:
        raise CliError(f"{args.path}: {exc.strerror or exc}") from exc
    # A leading byte-order mark is not text: columns count from after it.
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, line_start) + 1
        col = len(data[line_start:exc.start].decode("utf-8")) + 1
        raise CliError(f"{args.path}:{line}:{col}: byte 0x{data[exc.start]:02x} is not "
                       f"valid UTF-8") from exc
    # Newlines as text-mode reading translates them.
    return parse(text.replace("\r\n", "\n").replace("\r", "\n"))


def _strategy(args: argparse.Namespace) -> EncodingStrategy:
    overrides: dict[str, tuple[str, ...]] = {}
    for entry in args.parent_order:
        cls, sep, parent = entry.partition(":")
        if not sep or not cls or not parent:
            raise CliError(f"--parent-order expects CLASS:PARENT, got {entry!r}")
        overrides[cls] = overrides.get(cls, ()) + (parent,)
    return EncodingStrategy(ENCODINGS[args.encoding], overrides)


def _config(args: argparse.Namespace) -> DefEqConfig:
    return DefEqConfig(eta_kernel=args.eta_kernel == "on",
                       eta_unifier=args.eta_unifier == "on")


def _elaborated(args: argparse.Namespace) -> Elaboration:
    return elaborate(_load_module(args), _strategy(args), _config(args), args.max_depth)


def _json_text(value: object) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for values whose dict
    keys are strings.  CPython's C encoder only runs without ``indent``, so
    this writer makes one recursive pass instead, renders a dict that comes
    up again at the same depth once, and joins the pieces once."""
    chunks: list[str] = []
    append = chunks.append
    # Each dict rendered so far, by id and indent: the span of ``chunks``
    # it took, joined into its text when it comes up again.  ``value``
    # lives for the whole write, so an id stands for one object.
    rendered: dict[tuple[int, str], tuple[int, int] | str] = {}

    def write(v: object, indent: str) -> None:
        if isinstance(v, str):
            append(encode_basestring_ascii(v))
        elif v is None or v is True or v is False:
            append("null" if v is None else "true" if v else "false")
        elif isinstance(v, int):
            append(int.__repr__(v))
        elif isinstance(v, (list, tuple)) and v:
            inner = indent + "  "
            separator = ",\n" + inner
            append("[\n" + inner)
            for i, item in enumerate(v):
                if i:
                    append(separator)
                write(item, inner)
            append("\n" + indent + "]")
        elif isinstance(v, dict) and v:
            at = (id(v), indent)
            text = rendered.get(at)
            if text is not None:
                if type(text) is tuple:
                    text = rendered[at] = "".join(chunks[text[0]:text[1]])
                append(text)
                return
            start = len(chunks)
            inner = indent + "  "
            separator = ",\n" + inner
            append("{\n" + inner)
            for i, (key, item) in enumerate(sorted(v.items())):
                if i:
                    append(separator)
                append(encode_basestring_ascii(key) + ": ")
                write(item, inner)
            append("\n" + indent + "}")
            rendered[at] = (start, len(chunks))
        else:  # empty containers and floats; raises TypeError like json.dumps
            append(json.dumps(v))

    write(value, "")
    return "".join(chunks)


def _parse_in_ctx(text: str, elab: Elaboration, path: str, config: DefEqConfig) -> Term:
    try:
        term = parse_term(text, elab.variables, elab.env)
        check_type(elab.env, config, elab.variables, term)
    except (SurfaceError, KernelError) as exc:
        raise CliError(f"{path}: in {text!r}: {exc}") from exc
    return term


def _check_stored(elab: Elaboration, config: DefEqConfig, path: str, kind: str,
                  label: str, ctx: Telescope, *terms: Term) -> None:
    """Type-check a stored goal's target, which may be an under-applied
    class, or a stored defeq's sides: a diagnostic at the item's position."""
    try:
        for term in terms:
            check_type(elab.env, config, ctx, term)
    except KernelError as exc:
        pos = elab.labels[(kind, label)]
        raise CliError(f"{path}:{pos.line}:{pos.col}: {kind} {label}: {exc}") from exc


# ---------------------------------------------------------------------------
# elaborate

def _dump_text(elab: Elaboration) -> str:
    instances = {i.decl_name: i for i in elab.instances}
    # Each binder record printed once: a class shares each leaf it inherits
    # unchanged with its parent, and its constructor's telescope holds its
    # field records.  A field is explicit, so its line is its binder's.
    printed: dict[int, str] = {}

    def binder(b: Binder) -> str:
        return printed.get(id(b)) or printed.setdefault(id(b), pp_binder(b))

    def signature(tele: Telescope) -> str:
        return "".join(" " + binder(b) for b in tele)

    lines: list[str] = []
    for decl in elab.env:
        if isinstance(decl, StructDecl):
            head = f"structure {decl.name}{signature(decl.params)}"
            if decl.fields:
                lines.append(head + " where")
                lines.extend("  " + binder(b) for b in decl.fields)
            else:
                lines.append(head)
        elif isinstance(decl, DefDecl):
            sig = signature(decl.binders)
            info = instances.get(decl.name)
            if info is not None:
                lines.append(f"@[priority {info.priority}] instance {decl.name}{sig} "
                             f": {pp_term(decl.result_type)} := "
                             f"{pp_term(decl.body)}  -- {info.kind}")
            else:
                lines.append(f"def {decl.name}{sig} : {pp_term(decl.result_type)} := "
                             f"{pp_term(decl.body)}")
        elif isinstance(decl, OpaqueDecl):
            lines.append(f"opaque {decl.name}{signature(decl.binders)} "
                         f": {pp_term(decl.result_type)}")
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _dump_json(elab: Elaboration, config: DefEqConfig) -> dict:
    """The dump as one value, with one field entry per binder record that
    every class holding the record shares, so that ``_json_text`` renders
    it once.  An entry's ``parent`` is read in the first class that holds
    its record: only a leaf record is shared, and a leaf has none."""
    entries: dict[int, dict] = {}

    def entry(info: ClassInfo, f: Binder) -> dict:
        made = entries.get(id(f))
        if made is None:
            made = entries[id(f)] = {"name": f.name, "type": pp_term(f.ty),
                                     "parent": info.substructures.get(f.name)}
        return made

    classes = {
        info.name: {
            "params": [pp_binder(b) for b in info.params],
            "fields": [entry(info, f) for f in info.layout],
        }
        for info in elab.classes.values()
    }
    return {
        "config": config_dict(elab.strategy.kind, config),
        "classes": classes,
        "instances": [
            {"name": i.decl_name, "from": i.from_class, "to": i.to_class,
             "priority": i.priority, "kind": i.kind}
            for i in elab.instances
        ],
        "goals": [label for label, _, _ in elab.goals],
        "defeqs": [label for label, _, _, _ in elab.defeqs],
    }


def cmd_elaborate(args: argparse.Namespace) -> int:
    elab = _elaborated(args)
    if args.emit == "json":
        print(_json_text(_dump_json(elab, _config(args))))
    else:
        dump = _dump_text(elab)
        if dump:
            print(dump)
    return 0


# ---------------------------------------------------------------------------
# defeq

def cmd_defeq(args: argparse.Namespace) -> int:
    elab = _elaborated(args)
    config = _config(args)
    stored = {item[0]: item for item in elab.defeqs}

    if len(args.terms) == 0:
        if not stored:
            raise CliError(f"{args.path}: no defeq items to check")
        checks = list(stored.values())
    elif len(args.terms) == 1:
        label = args.terms[0]
        if label not in stored:
            raise CliError(f"{args.path}: no defeq item named {label!r}")
        checks = [stored[label]]
    elif len(args.terms) == 2:
        lhs = _parse_in_ctx(args.terms[0], elab, args.path, config)
        rhs = _parse_in_ctx(args.terms[1], elab, args.path, config)
        checks = [("defeq", elab.variables, lhs, rhs)]
    else:
        raise CliError(f"{args.path}: defeq takes a label, two terms, or nothing")
    if len(args.terms) < 2:
        for label, ctx, lhs, rhs in checks:
            _check_stored(elab, config, args.path, "defeq", label, ctx, lhs, rhs)

    results = []
    all_equal = True
    for label, ctx, lhs, rhs in checks:
        trace = Trace() if args.trace else None
        equal = defeq(elab.env, config, ctx, lhs, rhs, trace=trace)
        all_equal = all_equal and equal
        results.append((label, lhs, rhs, equal))
        if args.emit == "text":
            print(f"{label}: {'equal' if equal else 'not equal'}")
            if args.trace and trace.lines:
                print(trace.render())
    if args.emit == "json":
        print(_json_text({
            "config": config_dict(ENCODINGS[args.encoding], config),
            "defeqs": [
                {"label": label, "lhs": pp_term(lhs), "rhs": pp_term(rhs),
                 "equal": equal}
                for label, lhs, rhs, equal in results
            ],
        }))
    return 0 if all_equal else 1


# ---------------------------------------------------------------------------
# resolve

def cmd_resolve(args: argparse.Namespace) -> int:
    elab = _elaborated(args)
    config = _config(args)
    stored = {item[0]: item for item in elab.goals}

    if args.goal is not None and args.goal not in stored:
        todo = [("goal", elab.variables, _parse_in_ctx(args.goal, elab, args.path, config))]
    else:
        if not stored:
            raise CliError(f"{args.path}: no goals to resolve")
        todo = list(stored.values()) if args.goal is None else [stored[args.goal]]
        for label, ctx, goal in todo:
            _check_stored(elab, config, args.path, "goal", label, ctx, goal)

    # Goals of one context share an answer table, so a class an earlier goal
    # settled is not searched again.
    tables: dict[Telescope, AnswerTable] = {}
    results = []
    all_found = True
    for label, ctx, goal in todo:
        trace = Trace()
        status, term = "found", None
        try:
            term, _ = resolve(elab.env, elab.instances, ctx, goal,
                              config=config, max_depth=args.max_depth, trace=trace,
                              table=tables.setdefault(ctx, AnswerTable()))
        except NotFound:
            status = "not-found"
        except DepthExceeded:
            status = "depth-exceeded"
        all_found = all_found and status == "found"
        results.append((label, goal, status, term))
        if args.emit == "text":
            print(f"goal {label} : {pp_term(goal)}")
            if status == "found":
                print(f"  found: {pp_term(term)}")
            else:
                print(f"  {status}")
            if args.trace and trace.lines:
                print(trace.render())
    if args.emit == "json":
        print(_json_text({
            "config": config_dict(ENCODINGS[args.encoding], config),
            "goals": [
                {"label": label, "goal": pp_term(goal), "status": status,
                 "term": pp_term(term) if term is not None else None}
                for label, goal, status, term in results
            ],
        }))
    return 0 if all_found else 1


# ---------------------------------------------------------------------------
# diamonds

# Records per write: few enough that the report never sits in memory whole.
_BATCH = 1024


def _framed(value: dict, key: str, indent: str = "") -> tuple[str, str]:
    """``_json_text(value)`` with ``key`` as an empty list, each line after
    the first indented by ``indent``, cut where that list's items go: the
    text up to its ``[`` and the text after its ``]``.  The generic writer
    lays out the small records; a stream of items goes in between."""
    text = _json_text({**value, key: []}).replace("\n", "\n" + indent)
    head, tail = text.split(f'"{key}": []')
    return head + f'"{key}": [', tail


def _close_list(count: int, pad: str) -> str:
    """The end of a list of ``count`` items at indent ``pad``."""
    return f"\n{pad[2:]}]" if count else "]"


def _write_diamonds(out: TextIO, reports: Iterable[GroupReport], config: DefEqConfig,
                    as_json: bool, pad: str, commutes_field: bool = False,
                    explain: Callable[[Diamond], str] | None = None) -> tuple[int, int, int]:
    """Write each diamond of ``reports`` in batches of records: a text line,
    with ``explain``'s text after each whose oracle fails, or a JSON record
    at indent ``pad`` in ``ANALYZER_REPORT_SCHEMA``'s layout, with a
    ``commutes`` field when asked, after a comma from the second on.  Each
    path is rendered once.  Returns the number of diamonds, of those that
    commute and of oracle/predictor mismatches."""
    chunks: list[str] = []
    append = chunks.append
    inner = pad + "  "
    separator = "\n"
    total = commuting = mismatches = 0
    for report in reports:
        group = report.group
        if as_json:
            paths = [f"[\n{inner}  " + f",\n{inner}  ".join(
                encode_basestring_ascii(e.decl_name) for e in path) + f"\n{inner}]"
                for path in group.paths]
            ends = (f'{inner}"source": {encode_basestring_ascii(group.source)},\n'
                    f'{inner}"target": {encode_basestring_ascii(group.target)}\n{pad}}}')
        else:
            paths = [", ".join(e.decl_name for e in path) for path in group.paths]
            head = f"{group.source} -> {group.target}: "
        for i, j, oracle, predictor in report.pairs():
            commutes = commutes_under(oracle, predictor, config)
            commuting += commutes
            mismatches += oracle != predictor
            if as_json:
                append(f'{separator}{pad}{{\n'
                       + (f'{inner}"commutes": {"true" if commutes else "false"},\n'
                          if commutes_field else "")
                       + f'{inner}"oracle": {"true" if oracle else "false"},\n'
                       f'{inner}"pathA": {paths[i]},\n{inner}"pathB": {paths[j]},\n'
                       f'{inner}"predictor": {"true" if predictor else "false"},\n{ends}')
                separator = ",\n"
            else:
                append(f"{head}[{paths[i]}] vs [{paths[j]}]: "
                       f"oracle={'equal' if oracle else 'not-equal'} "
                       f"predictor={'commutes' if predictor else 'fails'} "
                       f"-> {'commutes' if commutes else 'DOES NOT COMMUTE'}\n")
                if explain is not None and not oracle:
                    append(explain(Diamond(group.source, group.target,
                                           group.paths[i], group.paths[j])))
            total += 1
            if len(chunks) >= _BATCH:
                out.write("".join(chunks))
                chunks.clear()
    out.write("".join(chunks))
    return total, commuting, mismatches


def cmd_diamonds(args: argparse.Namespace) -> int:
    """Write the report in one pass over the analyzer's path groups, every
    verdict decided before the first byte: the JSON layout is
    ``ANALYZER_REPORT_SCHEMA``'s, as ``_json_text`` writes it."""
    elab = _elaborated(args)
    config = _config(args)
    reports = analyze(elab, config)
    as_json = args.emit == "json"
    out = sys.stdout
    config_record = config_dict(ENCODINGS[args.encoding], config)

    def explain(diamond: Diamond) -> str:
        trace = Trace()
        check_diamond(elab.env, diamond, config, trace)
        return "".join(f"  {line}\n" for line in trace.lines) or "\n"

    if as_json:
        out.write(_framed({"config": config_record, "summary": {}}, "diamonds")[0])
    total, commuting, mismatches = _write_diamonds(
        out, reports, config, as_json, "    ", explain=explain if args.trace else None)
    if as_json:
        summary = {"commuting": commuting, "mismatches": mismatches, "total": total}
        out.write(_close_list(total, "    ")
                  + _framed({"config": config_record, "summary": summary}, "diamonds")[1]
                  + "\n")
    else:
        out.write(f"{commuting} / {total} commuting, "
                  f"{mismatches} oracle/predictor mismatches\n")
    return 0 if commuting == total else 1


# ---------------------------------------------------------------------------
# spanning-search

def cmd_spanning_search(args: argparse.Namespace) -> int:
    module = _load_module(args)
    config = _config(args)
    placements = spanning_search(module, EncodingStrategy(ENCODINGS[args.encoding]),
                                 config, max_depth=args.max_depth)
    coherent = sum(1 for p in placements if p.coherent)
    out = sys.stdout

    if args.emit == "json":
        head, tail = _framed({"config": config_dict(ENCODINGS[args.encoding], config),
                              "summary": {"total": len(placements), "coherent": coherent}},
                             "placements")
        out.write(head)
        for k, p in enumerate(placements):
            before, after = _framed({"index": p.index,
                                     "first_parents": dict(p.first_parents),
                                     "coherent": p.coherent,
                                     "order_invariant": p.nonfirst_order_invariant},
                                    "diamonds", "    ")
            out.write(("," if k else "") + "\n    " + before)
            total, _, _ = _write_diamonds(out, p.groups, config, True, "        ",
                                          commutes_field=True)
            out.write(_close_list(total, "        ") + after)
        out.write(_close_list(len(placements), "    ") + tail + "\n")
    else:
        for p in placements:
            choice = " ".join(f"{cls}={parent}" for cls, parent in p.first_parents)
            failing = sorted({f"{r.group.source}->{r.group.target}"
                              for r in p.groups if not r.commutes(config)})
            line = f"placement {p.index}:"
            if choice:
                line += f" {choice} |"
            line += " coherent" if p.coherent else " incoherent"
            if failing:
                line += " | failing: " + ", ".join(failing)
            if not p.nonfirst_order_invariant:
                line += " | order-sensitive"
            print(line)
        print(f"{coherent} / {len(placements)} coherent")
    return 0


# ---------------------------------------------------------------------------

COMMANDS = {
    "elaborate": cmd_elaborate,
    "defeq": cmd_defeq,
    "resolve": cmd_resolve,
    "diamonds": cmd_diamonds,
    "spanning-search": cmd_spanning_search,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        # Flush here so that a reader closing the pipe early is reported
        # below rather than at interpreter exit.
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (SurfaceError, ElabError, KernelError, PathLimitExceeded) as exc:
        # Surface errors and positioned elaboration errors read "line:col: ...".
        positioned = isinstance(exc, SurfaceError) or (
            isinstance(exc, ElabError) and exc.pos is not None)
        print(f"{args.path}:{exc}" if positioned else f"{args.path}: {exc}",
              file=sys.stderr)
        return 2
    except RecursionError:
        # Deep hierarchies recurse once per level in the elaborator, the
        # kernel and instance search.
        print(f"{args.path}: nested too deeply for the interpreter's recursion "
              f"limit ({sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except UnicodeEncodeError as exc:
        print(f"hier: the output cannot be encoded as {exc.encoding}; run under a "
              f"UTF-8 locale or set PYTHONIOENCODING=utf-8", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The unwritten output stays buffered; send it to devnull so that
        # the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("hier: output closed before it was fully written", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
