"""Slow, obviously-correct versions of fast paths, kept as test oracles.

- ``flatten_fields``: the leaf-field view of a class, recomputed by recursion
  through every ancestor path.  The elaborator stores this view once per
  class in ``ClassInfo.leaf_types``.
- ``flat_forgetful_body``: the body of a flat class's instance for a direct
  parent, the parent's constructor applied to the class's projections onto
  each parent leaf.  The elaborator derives it from the nested rebuilding
  rule, since under flat no parent is stored as a substructure.
- ``resolve``: instance search as a plain depth-first search with no answer
  table; every subgoal is searched again on every path that reaches it.
  ``hierlab.resolution.resolve`` tables ground answers and must agree with
  it on every goal.
- ``spanning_search``: every parent order of every placement elaborated and
  analysed as a whole module.  ``hierlab.analyzer.spanning_search`` forks
  the elaboration at each class with several parents and reuses the
  reports of sources whose choices did not change; its placement reports
  and errors must equal these.
"""
from __future__ import annotations

import itertools
from typing import Mapping

from hierlab.analyzer import MAX_PATH_LEN, PlacementReport, analyze, commutes_under
from hierlab.declarations import DefDecl, StructDecl
from hierlab.elaborator import (
    FLAT_HACK_CLASS, ClassInfo, EncodingStrategy, FieldTypeClash, elaborate,
)
from hierlab.kernel import DEFAULT_CONFIG, MetaCtx, Mismatch, OccursCheck, unify
from hierlab.resolution import MAX_DEPTH, DepthExceeded, NotFound
from hierlab.terms import (
    Const, FreeVar, Meta, Mk, Proj, Term, apps, metas_in, subst_frees, unfold_apps,
    zonk,
)


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


def flat_forgetful_body(classes: Mapping[str, ClassInfo], name: str, parent: str,
                        args: tuple[Term, ...], self_var: Term) -> Term:
    """``Mk(parent, args, Proj(name, leaf, self_var) for each parent leaf)``."""
    return Mk(parent, args, tuple(Proj(name, leaf, self_var)
                                  for leaf, _ in flatten_fields(classes, parent)))


def resolve(env, instances, ctx, target: Term, *, config=DEFAULT_CONFIG,
            max_depth: int = MAX_DEPTH) -> Term:
    """Untabled depth-first instance search: the same candidate order, path
    guard and depth cap as the library, without the answer table."""
    metas = MetaCtx()
    target = _saturate(env, metas, target)

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
                                                     subst=subst, meta_types=metas.types)
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
            m = metas.fresh(subst_frees(binder.ty, mapping))
            mapping[binder.name] = m
            arg_metas.append(m)
        try:
            new = unify(env, config, ctx, subst_frees(decl.result_type, mapping), goal,
                        subst=subst, meta_types=metas.types)
        except (Mismatch, OccursCheck):
            return None
        for binder, m in zip(decl.binders, arg_metas):
            current = zonk(m, new)
            if not binder.instance_implicit or not isinstance(current, Meta):
                continue
            sub = solve(zonk(metas.types[m.mid], new), new, depth + 1, path)
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


def _saturate(env, metas: MetaCtx, target: Term) -> Term:
    head, args = unfold_apps(target)
    decl = env.get(head.name) if isinstance(head, Const) else None
    if not isinstance(decl, StructDecl) or len(args) >= len(decl.params):
        return target
    mapping: dict[str, Term] = {b.name: a for b, a in zip(decl.params, args)}
    extra = []
    for binder in decl.params[len(args):]:
        m = metas.fresh(subst_frees(binder.ty, mapping))
        mapping[binder.name] = m
        extra.append(m)
    return apps(head, *args, *extra)


def spanning_search(module, strategy: EncodingStrategy, config=DEFAULT_CONFIG,
                    max_path_len: int = MAX_PATH_LEN,
                    max_depth: int = MAX_DEPTH) -> list[PlacementReport]:
    """Each order of each placement elaborated from scratch and analysed
    whole; the declared order is placement 0's first order."""
    base = elaborate(module, EncodingStrategy(strategy.kind), config, max_depth)
    chooseable: list[tuple[str, list[str]]] = []
    for name, info in base.classes.items():
        parents = [p for p, _ in info.parents if p != FLAT_HACK_CLASS]
        if len(parents) >= 2:
            chooseable.append((name, parents))
    names = [name for name, _ in chooseable]
    declared = tuple(tuple(parents) for _, parents in chooseable)

    def analyzed(order):
        elab = base if order == declared else elaborate(
            module, EncodingStrategy(strategy.kind, dict(zip(names, order))),
            config, max_depth)
        return tuple(analyze(elab, config, max_path_len))

    def verdicts(reports):
        return {(r.diamond.source, r.diamond.target,
                 tuple(e.decl_name for e in r.diamond.path_a),
                 tuple(e.decl_name for e in r.diamond.path_b)): (r.oracle, r.predictor)
                for r in reports}

    reports = []
    combos = itertools.product(*(parents for _, parents in chooseable))
    for index, combo in enumerate(combos):
        orders = itertools.product(*(
            [(first,) + rest for rest in itertools.permutations(
                [p for p in parents if p != first])]
            for (_, parents), first in zip(chooseable, combo)))
        checked = analyzed(next(orders))
        reference = verdicts(checked)
        invariant = all(verdicts(analyzed(order)) == reference for order in orders)
        coherent = all(commutes_under(r, config) for r in checked)
        reports.append(PlacementReport(index, tuple(sorted(zip(names, combo))),
                                       checked, coherent, invariant))
    return reports
