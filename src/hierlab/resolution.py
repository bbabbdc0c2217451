"""Instance resolution: depth-first search over registered instances, tabled.

A goal is a class application in some context.  Candidates are, in order:

1. context binders marked instance-implicit, most recent first;
2. registered global instances targeting the goal's class, highest priority
   first, most recently declared first within a priority.

The candidate list of each class is built once per answer table, and both
kinds of candidate take one form: a context binder is a candidate with no
binders whose answer is the variable itself.

Applying a candidate means allocating a fresh metavariable per binder,
unifying the candidate's result type against the goal, and then solving
each still-open instance-implicit argument as a subgoal in binder order.
The first candidate whose subgoals all succeed gives the answer; a failing
subgoal fails its candidate, and the search never re-enters an earlier
subgoal for a second answer.  A candidate whose value keeps a metavariable
fails, so answers and table entries are ground.  The search is one
recursive function, one Python frame per level.  A branch is pruned when
its goal is alpha-equal to a goal already on the path (after
substitution), which keeps cyclic instance graphs from looping.  The
search depth is capped; exceeding the cap aborts the whole search rather
than backtracking, since a too-deep branch usually means a runaway loop
the guard cannot see.

Answers are tabled, so a class reached along many paths is searched once
rather than once per path.  An ``AnswerTable`` spans every goal it is passed
to: goals asked one after another in the same context share what earlier
goals settled, and ``resolve`` without a table makes a fresh one that lives
for that call only.  A table belongs to the environment, instances,
context, config and depth cap of its first search; reusing it with any
other raises ``ValueError``.  The table holds ground goals only (no
metavariables); other goals are searched every time.  An entry
holds the goal's first answer, or a failure, together with every goal its
search visited and how many levels below the goal it went.  It is written
only when the loop guard cut nowhere below the goal, and reused only when
none of its visited goals is on the current path and the levels it needs
still fit under the depth cap.  Under these rules a reused entry is exactly
what searching again would produce, so answers, failures and
``DepthExceeded`` are those of the untabled search; only the trace is
shorter, with a ``cached:`` line where a subtree was skipped.  Every goal
passed to ``resolve`` starts with an empty path at depth 0, so the rules
hold across goals as they do within one.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .declarations import DefDecl, Environment, StructDecl
from .kernel import (
    DefEqConfig, DEFAULT_CONFIG, Mismatch, OccursCheck, Trace, unify,
)
from .terms import (
    Const, FreeVar, Meta, Telescope, Term, apps, metas_in, pp_term,
    subst_frees, unfold_apps, zonk,
)

MAX_DEPTH = 32


class ResolutionError(Exception):
    pass


class NotFound(ResolutionError):
    def __init__(self, goal: Term) -> None:
        super().__init__(f"no instance found for {pp_term(goal)}")
        self.goal = goal


class DepthExceeded(ResolutionError):
    def __init__(self, depth: int) -> None:
        super().__init__(f"instance search exceeded depth {depth}")
        self.depth = depth


class InstanceLike(Protocol):
    """What the search needs to know about a registered instance."""

    decl_name: str
    to_class: str
    priority: int


@dataclass(frozen=True)
class _Entry:
    """A ground goal's first answer (None for a failure), the goals its
    search visited, and how many levels below the goal that search went."""

    answer: Term | None
    visited: frozenset[Term]
    reached: int


@dataclass(frozen=True)
class _Candidate:
    """One way to answer a goal: the ``try`` line's label, binders that
    become fresh metavariables, the result type over them, and the head
    the answer applies to them.  A context binder has no binders and a
    ``FreeVar`` head."""

    label: str
    binders: Telescope
    result_type: Term
    head: Term


class AnswerTable:
    """Each class's candidates in search order and the ground-goal entries,
    shared by the goals of one context."""

    def __init__(self) -> None:
        self._owner: tuple | None = None
        self.local: list[_Candidate] = []
        self.by_class: dict[str | None, list[_Candidate]] = {}
        self.entries: dict[Term, _Entry] = {}

    def _bind(self, env: Environment, instances: Sequence[InstanceLike],
              ctx: Telescope, config: DefEqConfig, max_depth: int) -> None:
        """Belong to the first search's inputs; refuse any other."""
        if self._owner is None:
            self._owner = (env, tuple(instances), ctx, config, max_depth)
            self.local = [_Candidate(f"{b.name} : {pp_term(b.ty)}", (), b.ty,
                                     FreeVar(b.name))
                          for b in reversed(ctx) if b.instance_implicit]
            self.by_class = _rank_by_class(env, self.local, instances)
        elif (env is not self._owner[0]
              or (tuple(instances), ctx, config, max_depth) != self._owner[1:]):
            raise ValueError("an answer table is reused with another environment, "
                             "instance list, context, config or depth cap")


@dataclass
class _State:
    env: Environment
    ctx: Telescope
    config: DefEqConfig
    max_depth: int
    trace: Trace
    table: AnswerTable
    # The type of each meta made so far, by id; the next id is their number.
    meta_types: dict[int, Term] = field(default_factory=dict)
    # What the innermost open goal's search has done so far: the goals it
    # visited, the deepest level it entered, and whether the guard cut.
    visited: set[Term] = field(default_factory=set)
    reached: int = 0
    cut: bool = False


def resolve(env: Environment, instances: Sequence[InstanceLike], ctx: Telescope,
            target: Term, *, config: DefEqConfig = DEFAULT_CONFIG,
            max_depth: int = MAX_DEPTH, trace: Trace | None = None,
            table: AnswerTable | None = None) -> tuple[Term, Trace]:
    """Find a term of the goal type, or raise NotFound / DepthExceeded.

    An under-applied class goal gets fresh metas for its missing parameters.
    ``table`` carries answers over from earlier goals of the same context;
    without one the search starts from an empty table."""
    trace = trace if trace is not None else Trace()
    table = table if table is not None else AnswerTable()
    table._bind(env, instances, ctx, config, max_depth)
    state = _State(env, ctx, config, max_depth, trace, table)
    head, args = unfold_apps(target)
    decl = env.get(head.name) if isinstance(head, Const) else None
    if isinstance(decl, StructDecl) and len(args) < len(decl.params):
        mapping = {b.name: a for b, a in zip(decl.params, args)}
        target = apps(target, *_open(state, decl.params[len(args):], mapping))
    result = _solve(state, target, {}, 0, ())
    if result is None:
        raise NotFound(target)
    return result[0], trace


def _open(state: _State, binders: Telescope, mapping: dict[str, Term]) -> list[Meta]:
    """A fresh meta per binder, typed over the binders before it via ``mapping``."""
    metas = []
    for binder in binders:
        m = Meta(len(state.meta_types))
        state.meta_types[m.mid] = subst_frees(binder.ty, mapping)
        mapping[binder.name] = m
        metas.append(m)
    return metas


def _rank_by_class(env: Environment, local: list[_Candidate],
                   instances: Sequence[InstanceLike]) -> dict[str | None, list[_Candidate]]:
    """Each class's candidates in search order, and under None those of a
    goal whose head is not a class: every instance.  An instance whose
    declaration is not a definition is no candidate."""
    ranked = sorted(enumerate(instances), key=lambda t: (-t[1].priority, -t[0]))
    by_class: dict[str | None, list[_Candidate]] = {None: list(local)}
    for _, inst in ranked:
        decl = env.get(inst.decl_name)
        if isinstance(decl, DefDecl):
            cand = _Candidate(f"{inst.decl_name} (priority {inst.priority})",
                              decl.binders, decl.result_type, Const(decl.name))
            by_class[None].append(cand)
            by_class.setdefault(inst.to_class, list(local)).append(cand)
    return by_class


def _solve(state: _State, target: Term, subst: dict[int, Term], depth: int,
           path: tuple[Term, ...]) -> tuple[Term, dict[int, Term]] | None:
    """The goal's first answer, which is ground, and its substitution; or None."""
    if depth > state.max_depth:
        raise DepthExceeded(state.max_depth)
    target = zonk(target, subst)
    trace = state.trace
    trace.step(lambda target=target: f"goal: {pp_term(target)}")
    if target in path:
        trace.step("failed: goal already on path")
        state.cut = True
        return None
    ground = not metas_in(target)
    entry = state.table.entries.get(target) if ground else None
    if (entry is not None and depth + entry.reached <= state.max_depth
            and entry.visited.isdisjoint(path)):
        trace.push()
        if entry.answer is None:
            trace.step(lambda target=target: f"cached: failed {pp_term(target)}")
        else:
            trace.step(lambda target=target, answer=entry.answer:
                       f"cached: solved {pp_term(target)} := {pp_term(answer)}")
        trace.pop()
        state.visited |= entry.visited
        state.reached = max(state.reached, depth + entry.reached)
        return None if entry.answer is None else (entry.answer, subst)

    outer_visited, outer_reached, outer_cut = state.visited, state.reached, state.cut
    state.visited, state.reached, state.cut = {target}, depth, False
    path += (target,)
    head, _ = unfold_apps(target)
    result = None
    trace.push()
    try:
        for cand in state.table.by_class.get(head.name if isinstance(head, Const) else None,
                                             state.table.local):
            trace.step(f"try {cand.label}")
            mapping: dict[str, Term] = {}
            arg_metas = _open(state, cand.binders, mapping)
            try:
                new = unify(state.env, state.config, state.ctx,
                            subst_frees(cand.result_type, mapping), target,
                            subst=subst, meta_types=state.meta_types)
            except (Mismatch, OccursCheck):
                continue
            # Each ``new`` is held by this candidate alone, so answers go into it in place.
            for binder, m in zip(cand.binders, arg_metas):
                if not binder.instance_implicit:
                    continue
                current = zonk(m, new)
                if not isinstance(current, Meta):
                    continue  # determined by unification with the goal
                sub_result = _solve(state, state.meta_types[m.mid], new, depth + 1, path)
                if sub_result is None:
                    break
                sub_term, new = sub_result
                new[current.mid] = sub_term
            else:
                value = zonk(apps(cand.head, *arg_metas), new)
                if metas_in(value):
                    trace.step("failed: unsolved arguments remain")
                    continue
                trace.step(lambda target=target, value=value:
                           f"solved {pp_term(target)} := {pp_term(value)}")
                result = value, new
                break
        else:
            trace.step(lambda target=target: f"failed: {pp_term(target)}")
    finally:
        trace.pop()
    if ground and not state.cut:
        state.table.entries[target] = _Entry(None if result is None else result[0],
                                             frozenset(state.visited),
                                             state.reached - depth)
    outer_visited |= state.visited
    state.visited = outer_visited
    state.reached = max(outer_reached, state.reached)
    state.cut = outer_cut or state.cut
    return result
