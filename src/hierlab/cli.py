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
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .analyzer import (
    PathLimitExceeded, analyze, check_diamond, commutes_under, random_hierarchy,
    report_dict, report_summary, spanning_search,
)
from .declarations import DefDecl, OpaqueDecl, StructDecl
from .elaborator import ElabError, Elaboration, EncodingStrategy, elaborate
from .kernel import DefEqConfig, KernelError, Trace, defeq
from .resolution import AnswerTable, DepthExceeded, NotFound, resolve
from .surface import SurfaceError, parse, parse_term
from .terms import Telescope, pp_binder, pp_term

ENCODINGS = {"flat": "flat", "nested": "nested", "flat-hack": "flat_hack"}


class CliError(Exception):
    """A diagnostic already formatted for the error stream."""


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hier",
        description="Elaborate class hierarchies and probe their instance diamonds.")
    sub = parser.add_subparsers(dest="command", required=True)

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
        p.add_argument("--max-depth", type=depth, default=32,
                       help="instance search depth limit (default: 32)")
        if trace:  # elaborate and spanning-search have no steps to log
            p.add_argument("--trace", action="store_true",
                           help="log reduction and search steps")
        if parent_order:  # spanning-search chooses the parent orders itself
            p.add_argument("--parent-order", action="append", default=[],
                           metavar="CLASS:PARENT",
                           help="move PARENT first in CLASS's extends list (repeatable)")

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
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing

def _load_module(args: argparse.Namespace):
    if args.path == "@random":
        return parse(random_hierarchy(args.seed)), "@random"
    path = Path(args.path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CliError(f"{args.path}: {exc.strerror or exc}") from exc
    try:
        return parse(text), args.path
    except SurfaceError as exc:
        raise CliError(f"{args.path}:{exc}") from exc


def _strategy(args: argparse.Namespace) -> EncodingStrategy:
    strategy = EncodingStrategy(ENCODINGS[args.encoding])
    overrides: dict[str, str] = {}
    for entry in args.parent_order:
        cls, sep, parent = entry.partition(":")
        if not sep or not cls or not parent:
            raise CliError(f"--parent-order expects CLASS:PARENT, got {entry!r}")
        overrides[cls] = parent
    if overrides:
        strategy = strategy.with_first_parent(overrides)
    return strategy


def _config(args: argparse.Namespace) -> DefEqConfig:
    return DefEqConfig(eta_kernel=args.eta_kernel == "on",
                       eta_unifier=args.eta_unifier == "on")


def _elaborated(args: argparse.Namespace) -> tuple[Elaboration, str]:
    module, path = _load_module(args)
    try:
        return elaborate(module, _strategy(args), _config(args), args.max_depth), path
    except (ElabError, KernelError) as exc:
        raise CliError(f"{path}:{exc}") from exc


def _emit_json(payload: dict) -> None:
    print(_json_text(payload))


def _json_text(value: object) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for values whose dict
    keys are strings.  CPython's C encoder only runs without ``indent``, so
    this writer makes one recursive pass instead, encodes each distinct
    string (and each distinct key) once, and joins the pieces once."""
    chunks: list[str] = []
    append = chunks.append
    encoded: dict[str, str] = {}
    keys: dict[str, str] = {}

    def write(v: object, indent: str) -> None:
        if isinstance(v, str):
            quoted = encoded.get(v)
            if quoted is None:
                quoted = encoded[v] = encode_basestring_ascii(v)
            append(quoted)
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
            inner = indent + "  "
            separator = ",\n" + inner
            append("{\n" + inner)
            for i, (key, item) in enumerate(sorted(v.items())):
                if i:
                    append(separator)
                prefix = keys.get(key)
                if prefix is None:
                    prefix = keys[key] = encode_basestring_ascii(key) + ": "
                append(prefix)
                write(item, inner)
            append("\n" + indent + "}")
        else:  # empty containers and floats; raises TypeError like json.dumps
            append(json.dumps(v))

    write(value, "")
    return "".join(chunks)


def _config_dict(args: argparse.Namespace) -> dict:
    return {
        "encoding": ENCODINGS[args.encoding],
        "eta_kernel": args.eta_kernel == "on",
        "eta_unifier": args.eta_unifier == "on",
    }


def _parse_in_ctx(text: str, elab: Elaboration, path: str):
    try:
        return parse_term(text, elab.variables, elab.env)
    except SurfaceError as exc:
        raise CliError(f"{path}: in {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# elaborate

def _dump_text(elab: Elaboration) -> str:
    instances = {i.decl_name: i for i in elab.instances}
    lines: list[str] = []
    for decl in elab.env:
        if isinstance(decl, StructDecl):
            sig = " ".join(pp_binder(b) for b in decl.params)
            head = f"structure {decl.name}" + (f" {sig}" if sig else "")
            if decl.fields:
                lines.append(head + " where")
                lines.extend(f"  ({b.name} : {pp_term(b.ty)})" for b in decl.fields)
            else:
                lines.append(head)
        elif isinstance(decl, DefDecl):
            sig = " ".join(pp_binder(b) for b in decl.binders)
            sig = f" {sig}" if sig else ""
            info = instances.get(decl.name)
            if info is not None:
                lines.append(f"@[priority {info.priority}] instance {decl.name}{sig} "
                             f": {pp_term(decl.result_type)} := "
                             f"{pp_term(decl.body, elab.env)}  -- {info.kind}")
            else:
                lines.append(f"def {decl.name}{sig} : {pp_term(decl.result_type)} := "
                             f"{pp_term(decl.body, elab.env)}")
        elif isinstance(decl, OpaqueDecl):
            sig = " ".join(pp_binder(b) for b in decl.binders)
            sig = f" {sig}" if sig else ""
            lines.append(f"opaque {decl.name}{sig} : {pp_term(decl.result_type)}")
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _dump_json(elab: Elaboration, args: argparse.Namespace) -> dict:
    classes = {
        info.name: {
            "params": [pp_binder(b) for b in info.params],
            "fields": [
                {"name": f.name, "type": pp_term(f.ty), "parent": f.parent}
                for f in info.layout
            ],
        }
        for info in elab.classes.values()
    }
    return {
        "config": _config_dict(args),
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
    elab, _ = _elaborated(args)
    if args.emit == "json":
        _emit_json(_dump_json(elab, args))
    else:
        dump = _dump_text(elab)
        if dump:
            print(dump)
    return 0


# ---------------------------------------------------------------------------
# defeq

def cmd_defeq(args: argparse.Namespace) -> int:
    elab, path = _elaborated(args)
    config = _config(args)
    stored = {label: (ctx, lhs, rhs) for label, ctx, lhs, rhs in elab.defeqs}

    checks: list[tuple[str, object, object, object]] = []
    if len(args.terms) == 0:
        if not stored:
            raise CliError(f"{path}: no defeq items to check")
        checks = [(label, ctx, lhs, rhs) for label, (ctx, lhs, rhs) in stored.items()]
    elif len(args.terms) == 1:
        label = args.terms[0]
        if label not in stored:
            raise CliError(f"{path}: no defeq item named {label!r}")
        ctx, lhs, rhs = stored[label]
        checks = [(label, ctx, lhs, rhs)]
    elif len(args.terms) == 2:
        lhs = _parse_in_ctx(args.terms[0], elab, path)
        rhs = _parse_in_ctx(args.terms[1], elab, path)
        checks = [("defeq", elab.variables, lhs, rhs)]
    else:
        raise CliError("defeq takes a label, two terms, or nothing")

    results = []
    all_equal = True
    for label, ctx, lhs, rhs in checks:
        trace = Trace() if args.trace else None
        equal = defeq(elab.env, config, ctx, lhs, rhs, trace=trace)
        all_equal = all_equal and equal
        results.append((label, lhs, rhs, equal))
        if args.emit == "text":
            print(f"{label}: {'equal' if equal else 'not equal'}")
            if args.trace and trace is not None and trace.lines:
                print(trace.render())
    if args.emit == "json":
        _emit_json({
            "config": _config_dict(args),
            "defeqs": [
                {"label": label, "lhs": pp_term(lhs), "rhs": pp_term(rhs),
                 "equal": equal}
                for label, lhs, rhs, equal in results
            ],
        })
    return 0 if all_equal else 1


# ---------------------------------------------------------------------------
# resolve

def cmd_resolve(args: argparse.Namespace) -> int:
    elab, path = _elaborated(args)
    config = _config(args)
    stored = {label: (ctx, goal) for label, ctx, goal in elab.goals}

    if args.goal is None:
        if not stored:
            raise CliError(f"{path}: no goals to resolve")
        todo = [(label, ctx, goal) for label, (ctx, goal) in stored.items()]
    elif args.goal in stored:
        ctx, goal = stored[args.goal]
        todo = [(args.goal, ctx, goal)]
    else:
        todo = [("goal", elab.variables, _parse_in_ctx(args.goal, elab, path))]

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
        _emit_json({
            "config": _config_dict(args),
            "goals": [
                {"label": label, "goal": pp_term(goal), "status": status,
                 "term": pp_term(term) if term is not None else None}
                for label, goal, status, term in results
            ],
        })
    return 0 if all_found else 1


# ---------------------------------------------------------------------------
# diamonds

def cmd_diamonds(args: argparse.Namespace) -> int:
    elab, path = _elaborated(args)
    config = _config(args)
    try:
        reports = analyze(elab, config)
    except PathLimitExceeded as exc:
        raise CliError(f"{path}: {exc}") from exc
    if args.emit == "json":
        payload = report_dict(ENCODINGS[args.encoding], config, reports)
        _emit_json(payload)
        summary = payload["summary"]
    else:
        for report in reports:
            d = report.diamond
            verdict = "commutes" if commutes_under(report, config) else "DOES NOT COMMUTE"
            print(f"{d.source} -> {d.target}: "
                  f"[{', '.join(e.decl_name for e in d.path_a)}] vs "
                  f"[{', '.join(e.decl_name for e in d.path_b)}]: "
                  f"oracle={'equal' if report.oracle else 'not-equal'} "
                  f"predictor={'commutes' if report.predictor else 'fails'} "
                  f"-> {verdict}")
            if args.trace and not report.oracle:
                trace = Trace()
                check_diamond(elab.env, d, config, trace)
                print("\n".join("  " + line for line in trace.lines))
        summary = report_summary(config, reports)
        print(f"{summary['commuting']} / {summary['total']} commuting, "
              f"{summary['mismatches']} oracle/predictor mismatches")
    return 0 if summary["commuting"] == summary["total"] else 1


# ---------------------------------------------------------------------------
# spanning-search

def cmd_spanning_search(args: argparse.Namespace) -> int:
    module, path = _load_module(args)
    config = _config(args)
    try:
        placements = spanning_search(module, EncodingStrategy(ENCODINGS[args.encoding]),
                                     config, max_depth=args.max_depth)
    except (ElabError, KernelError) as exc:
        raise CliError(f"{path}:{exc}") from exc
    except PathLimitExceeded as exc:
        raise CliError(f"{path}: {exc}") from exc
    coherent = sum(1 for p in placements if p.coherent)

    if args.emit == "json":
        _emit_json({
            "config": _config_dict(args),
            "placements": [
                {
                    "index": p.index,
                    "first_parents": dict(p.first_parents),
                    "coherent": p.coherent,
                    "order_invariant": p.nonfirst_order_invariant,
                    "diamonds": [
                        {"source": r.diamond.source, "target": r.diamond.target,
                         "pathA": [e.decl_name for e in r.diamond.path_a],
                         "pathB": [e.decl_name for e in r.diamond.path_b],
                         "oracle": r.oracle, "predictor": r.predictor,
                         "commutes": commutes_under(r, config)}
                        for r in p.diamonds
                    ],
                }
                for p in placements
            ],
            "summary": {"total": len(placements), "coherent": coherent},
        })
    else:
        for p in placements:
            choice = " ".join(f"{cls}={parent}" for cls, parent in p.first_parents)
            failing = sorted({f"{r.diamond.source}->{r.diamond.target}"
                              for r in p.diamonds if not commutes_under(r, config)})
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
    except RecursionError:
        # Deep hierarchies recurse once per level in the elaborator, the
        # kernel and instance search.
        print(f"{args.path}: nested too deeply for the interpreter's recursion "
              f"limit ({sys.getrecursionlimit()})", file=sys.stderr)
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
