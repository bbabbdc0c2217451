"""Layer tracing from outside the program.

The tracer replaces the public functions of each `hierlab` module with
wrappers, at every module that calls them.  Modules bind `elaborate`,
`defeq`, `unify` and the term helpers by name at import, so each binding
is patched where it is looked up; patching only the defining module would
miss those calls.

It runs in two modes, one round each.  Counting wrappers count calls,
input bytes, term sizes, diamonds, kernel reduction steps (through a
`Trace` passed to `defeq`) and resolution trace lines, and count every call
of the hot term helpers.  Span wrappers only record a span (name, start,
end, parent, job) in memory; self time is a span's duration minus the spans
directly under it.  Times are taken from span rounds only, so they carry
none of the counting's cost.
"""
from __future__ import annotations

import gzip
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import hierlab.analyzer
import hierlab.cli
import hierlab.kernel
import hierlab.resolution
import hierlab.terms
from hierlab.kernel import Mismatch, OccursCheck, Trace
from hierlab.terms import App, Lam, Mk, Pi, Proj


class _StepCounter(Trace):
    """A kernel trace that counts reduction steps by their first word
    (beta, delta, iota, eta, stuck) instead of keeping the lines."""

    def __init__(self, counts: Counter) -> None:
        super().__init__()
        self._counts = counts

    def step(self, message: str) -> None:
        self._counts["kernel." + message.split(" ", 1)[0].rstrip(":")] += 1


def term_nodes(env) -> int:
    """Tree size of every term stored in an environment's declarations."""
    sizes: dict[int, int] = {}

    def size(t) -> int:
        n = sizes.get(id(t))
        if n is None:
            if isinstance(t, App):
                n = 1 + size(t.fn) + size(t.arg)
            elif isinstance(t, (Lam, Pi)):
                n = 1 + size(t.ty) + size(t.body)
            elif isinstance(t, Mk):
                n = 1 + sum(size(x) for x in t.params + t.fields)
            elif isinstance(t, Proj):
                n = 1 + size(t.target)
            else:
                n = 1
            sizes[id(t)] = n
        return n

    total = 0
    for decl in env:
        for attr in ("params", "fields", "binders"):
            total += sum(size(b.ty) for b in getattr(decl, attr, ()))
        for attr in ("result_type", "body"):
            if hasattr(decl, attr):
                total += size(getattr(decl, attr))
    return total


class Tracer:
    """Installs either counting wrappers or span wrappers, never both, so
    that the timed spans carry none of the counting's cost."""

    def __init__(self) -> None:
        # [name, start, end, parent index, job id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        # Trace lines of the first goal each job resolved, by job id.
        self.first_goal_lines: dict[int, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def timed(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
        return wrapper

    # -- counting wrappers --------------------------------------------------

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, fn, count):
        """Call `count(result, args)` once fn returns."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(result, args)
            return result
        return wrapper

    def _count_parse(self, result, args) -> None:
        self.counts["surface.bytes"] += len(args[0].encode())

    def _count_elaborate(self, result, args) -> None:
        self.counts["elaborator.calls"] += 1
        self.counts["elaborator.term_nodes"] += term_nodes(result.env)

    def _count_enumerate(self, result, args) -> None:
        self.counts["analyzer.diamonds"] += len(result)
        self.counts["analyzer.paths"] += len({p for d in result for p in (d.path_a, d.path_b)})

    def _spanning(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["elaborator.calls"]
            result = fn(*args, **kwargs)
            counts["analyzer.placements"] += len(result)
            counts["analyzer.spanning_elaborations"] += counts["elaborator.calls"] - before
            return result
        return wrapper

    def _defeq(self, fn):
        counts = self.counts

        def wrapper(env, config, ctx, a, b, trace=None):
            counts["kernel.defeq_calls"] += 1
            injected = trace is None
            result = fn(env, config, ctx, a, b, _StepCounter(counts) if injected else trace)
            if injected and not result:
                # The "stuck: lhs vs rhs" line printed two terms only
                # because a trace was passed.
                counts["terms.pp_term"] -= 2
            return result
        return wrapper

    def _unify(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["kernel.unify_calls"] += 1
            try:
                return fn(*args, **kwargs)
            except (Mismatch, OccursCheck):
                counts["kernel.unify_fails"] += 1
                raise
        return wrapper

    def _resolve(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            # resolve builds its trace whether or not one is passed.
            trace = kwargs.setdefault("trace", Trace())
            try:
                return fn(*args, **kwargs)
            finally:
                lines = [line.lstrip() for line in trace.lines]
                counts["resolution.trace_lines"] += len(lines)
                self.first_goal_lines.setdefault(self.job, len(lines))
                counts["resolution.goal_nodes"] += sum(1 for x in lines
                                                       if x.startswith("goal:"))
                counts["resolution.candidates_tried"] += sum(1 for x in lines
                                                             if x.startswith("try "))
        return wrapper

    # -- installation -------------------------------------------------------

    def install_counters(self) -> None:
        """Count calls, sizes and kernel steps, for one round."""
        cli, analyzer = hierlab.cli, hierlab.analyzer
        kernel, resolution, terms = hierlab.kernel, hierlab.resolution, hierlab.terms
        elaborate = self._after(cli.elaborate, self._count_elaborate)
        defeq = self._defeq(kernel.defeq)
        resolve = self._resolve(resolution.resolve)
        patches = [
            (cli, "parse", self._after(cli.parse, self._count_parse)),
            (cli, "elaborate", elaborate),
            (analyzer, "elaborate", elaborate),
            (cli, "spanning_search", self._spanning(cli.spanning_search)),
            (analyzer, "enumerate_diamonds",
             self._after(analyzer.enumerate_diamonds, self._count_enumerate)),
            (analyzer, "defeq", defeq),
            (cli, "defeq", defeq),
            (kernel, "defeq", defeq),
            (resolution, "unify", self._unify(resolution.unify)),
            (cli, "resolve", resolve),
            # The elaborator imports resolve inside a function, at call time.
            (resolution, "resolve", resolve),
        ]
        for name, modules in (("instantiate", (terms, kernel)),
                              ("zonk", (terms, kernel, resolution)),
                              ("pp_term", (terms, kernel, resolution, cli))):
            counted = self._counted(f"terms.{name}", getattr(terms, name))
            patches += [(m, name, counted) for m in modules]
        self._patch(patches)

    def install_spans(self) -> None:
        """Record a span around each layer's entry points and nothing else."""
        cli, analyzer = hierlab.cli, hierlab.analyzer
        kernel, resolution = hierlab.kernel, hierlab.resolution
        elaborate = self.timed("elaborator.elaborate", cli.elaborate)
        defeq = self.timed("kernel.defeq", kernel.defeq)
        resolve = self.timed("resolution.resolve", resolution.resolve)
        self._patch([
            (cli, "main", self.timed("cli.main", cli.main)),
            (cli, "parse", self.timed("surface.parse", cli.parse)),
            (cli, "elaborate", elaborate),
            (analyzer, "elaborate", elaborate),
            (cli, "analyze", self.timed("analyzer.analyze", cli.analyze)),
            (cli, "spanning_search", self.timed("analyzer.spanning_search",
                                                cli.spanning_search)),
            (analyzer, "build_graph", self.timed("analyzer.build_graph", analyzer.build_graph)),
            (analyzer, "enumerate_diamonds", self.timed("analyzer.enumerate_diamonds",
                                                        analyzer.enumerate_diamonds)),
            (analyzer, "check_diamond", self.timed("analyzer.check_diamond",
                                                   analyzer.check_diamond)),
            (analyzer, "defeq", defeq),
            (cli, "defeq", defeq),
            (kernel, "defeq", defeq),
            (resolution, "unify", self.timed("kernel.unify", resolution.unify)),
            (cli, "resolve", resolve),
            (resolution, "resolve", resolve),
        ])

    def _patch(self, patches: list[tuple[object, str, object]]) -> None:
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self, jobs_per_round: int,
                   speed: dict[int, float]) -> dict[int, dict[str, float]]:
        """Self time summed by span name, per round of jobs, each span's
        scaled by its job's `speed` (reference seconds per second)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for (name, start, end, parent, job), inner in zip(self.spans, child):
            out[job // jobs_per_round][name] += (end - start - inner) * speed[job]
        return out

    def write(self, path: Path, job_names: list[str]) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                 "jobs": job_names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, jobs_per_round: int, rounds: list[int],
                  speed: dict[int, float], c: Counter) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one round: times are the median over the span
    rounds `rounds`, at the reference speed, counts `c` those of the
    counting round.

    The end-to-end metric each should move, and where:
      surface.*                       classes_per_s on elaborate
      elaborator.elaborate_s          classes_per_s on elaborate, verdicts_per_s on spanning
      elaborator.elaborate_calls      verdicts_per_s (placements) on spanning
      elaborator.term_nodes           peak_rss_mb and classes_per_s on elaborate,
                                      verdicts_per_s on spanning
      analyzer.* but placements       verdicts_per_s (diamonds) on diamonds
      analyzer.placements_per_elab.   verdicts_per_s (placements) on spanning
      kernel.defeq_*, kernel.*_steps  verdicts_per_s on diamonds and spanning
      kernel.unify_*, resolution.*    verdicts_per_s and job_p50_s/job_tail_s on resolve
                                      (found goals set the median, not-found the tail)
      terms.instantiate_calls         verdicts_per_s on diamonds
      terms.zonk_calls                verdicts_per_s on resolve
      terms.pp_term_calls, cli.self_s job_p50_s on resolve and elaborate
    """
    by_round = tracer.self_times(jobs_per_round, speed)

    def busy(*names: str) -> float:
        return statistics.median(sum(by_round[r][n] for n in names) for r in rounds)

    parse_s = busy("surface.parse")
    return {
        "surface.parse_s": (parse_s, "s"),
        "surface.bytes_per_s": (_ratio(c["surface.bytes"], parse_s), "B/s"),
        "elaborator.elaborate_s": (busy("elaborator.elaborate"), "s"),
        "elaborator.elaborate_calls": (c["elaborator.calls"], "count"),
        "elaborator.term_nodes": (c["elaborator.term_nodes"], "count"),
        "analyzer.enumerate_s": (busy("analyzer.build_graph", "analyzer.enumerate_diamonds"),
                                 "s"),
        "analyzer.diamonds": (c["analyzer.diamonds"], "count"),
        "analyzer.paths": (c["analyzer.paths"], "count"),
        "analyzer.pairs_per_path": (_ratio(c["analyzer.diamonds"], c["analyzer.paths"]),
                                    "ratio"),
        "analyzer.check_s": (busy("analyzer.check_diamond"), "s"),
        "analyzer.placements_per_elaboration": (
            _ratio(c["analyzer.placements"], c["analyzer.spanning_elaborations"]), "ratio"),
        "kernel.defeq_calls": (c["kernel.defeq_calls"], "count"),
        "kernel.defeq_s": (busy("kernel.defeq"), "s"),
        "kernel.beta_steps": (c["kernel.beta"], "count"),
        "kernel.delta_steps": (c["kernel.delta"], "count"),
        "kernel.iota_steps": (c["kernel.iota"], "count"),
        "kernel.eta_steps": (c["kernel.eta"], "count"),
        "kernel.unify_calls": (c["kernel.unify_calls"], "count"),
        "kernel.unify_s": (busy("kernel.unify"), "s"),
        "kernel.unify_fail_ratio": (_ratio(c["kernel.unify_fails"], c["kernel.unify_calls"]),
                                    "ratio"),
        "resolution.resolve_s": (busy("resolution.resolve"), "s"),
        "resolution.goal_nodes": (c["resolution.goal_nodes"], "count"),
        "resolution.candidates_tried": (c["resolution.candidates_tried"], "count"),
        "resolution.trace_lines": (c["resolution.trace_lines"], "count"),
        "terms.instantiate_calls": (c["terms.instantiate"], "count"),
        "terms.zonk_calls": (c["terms.zonk"], "count"),
        "terms.pp_term_calls": (c["terms.pp_term"], "count"),
        "cli.self_s": (busy("cli.main"), "s"),
    }
