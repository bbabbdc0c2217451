"""Seeded `.hier` generators owned by the benchmark.

Every generator returns source text plus the class graph it encodes, so the
benchmark can derive known answers (diamond totals, instance edges, field
sets) without asking the program under test.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# Field names are tied to one type each, so parents that share a field never
# clash on its type.
_FIELD_TYPES = ("α", "α → α", "α → α → α", "α → α → α → α")
MAX_PATH_LEN = 8  # the analyzer's default path-length cap


@dataclass(frozen=True)
class Hierarchy:
    """A generated module: its text and, per class, the declared parents
    (in extends order) and own field names."""

    text: str
    parents: dict[str, tuple[str, ...]]
    fields: dict[str, tuple[str, ...]]


def _render(parents: dict[str, tuple[str, ...]], fields: dict[str, tuple[str, ...]],
            field_type: dict[str, str]) -> Hierarchy:
    lines: list[str] = []
    for name, ps in parents.items():
        head = f"class {name} (α : Type)"
        if ps:
            head += " extends " + ", ".join(f"{p} α" for p in ps)
        if fields[name]:
            lines.append(head + " where")
            lines.extend(f"  ({f} : {field_type[f]})" for f in fields[name])
        else:
            lines.append(head)
        lines.append("")
    return Hierarchy("\n".join(lines), parents, fields)


def cube_name(subset: tuple[int, ...]) -> str:
    return "base" if not subset else "c" + "".join(map(str, subset))


def cube(n: int, rng: random.Random | None = None) -> Hierarchy:
    """The n-dimensional mixin hypercube, shaped like corpus/cube.hier: a
    base with three fields, one class per singleton adding one field, and
    one field-less class per larger subset extending each subset one
    element smaller, in lexicographic order, or shuffled by `rng`."""
    parents: dict[str, tuple[str, ...]] = {}
    fields: dict[str, tuple[str, ...]] = {}
    field_type = {"zero": "α", "add": "α → α → α", "mul": "α → α → α"}
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            name = cube_name(subset)
            ps = [cube_name(s) for s in itertools.combinations(subset, k - 1)] if k else []
            if rng is not None:
                rng.shuffle(ps)
            parents[name] = tuple(ps)
            if k == 0:
                fields[name] = ("zero", "add", "mul")
            elif k == 1:
                f = f"op{subset[0]}"
                field_type[f] = _FIELD_TYPES[(subset[0] + 1) % len(_FIELD_TYPES)]
                fields[name] = (f,)
            else:
                fields[name] = ()
    return _render(parents, fields, field_type)


def cube_diamonds_closed_form(n: int) -> int:
    """Σₖ Σⱼ C(n,k)·C(k,j)·C((k−j)!, 2): a source of k dimensions reaches a
    target of j of them along (k−j)! paths, and every pair is a diamond."""
    return sum(math.comb(n, k) * math.comb(k, j) * math.comb(math.factorial(k - j), 2)
               for k in range(n + 1) for j in range(k + 1))


def cube_resolve(n: int, found: bool) -> Hierarchy:
    """An n-cube plus one goal per class over a carrier T.  With `found`
    the context holds an instance of the top class, so every goal is
    solvable; without it no goal is."""
    h = cube(n)
    top = cube_name(tuple(range(n)))
    ctx = f"variables (T : Type) [iT : {top} T]" if found else "variables (T : Type)"
    goals = "\n".join(f"goal g_{c} : {c} T" for c in h.parents)
    return Hierarchy(f"{h.text}{ctx}\n\n{goals}\n", h.parents, h.fields)


def chain(n: int) -> Hierarchy:
    """n single-parent classes, each adding one field of type α."""
    parents = {f"k{i}": (f"k{i - 1}",) if i else () for i in range(n)}
    fields = {f"k{i}": (f"f{i}",) for i in range(n)}
    return _render(parents, fields, {f"f{i}": "α" for i in range(n)})


def random_hierarchy(rng: random.Random, classes: int, max_parents: int = 3,
                     max_fields: int = 3, pool: int = 8) -> Hierarchy:
    """A random single-parameter hierarchy.  Field names come from a small
    pool so overlaps between parents are frequent."""
    parents: dict[str, tuple[str, ...]] = {}
    fields: dict[str, tuple[str, ...]] = {}
    field_type = {f"g{k}": _FIELD_TYPES[k % len(_FIELD_TYPES)] for k in range(pool)}
    for idx in range(classes):
        earlier = list(parents)
        ps = tuple(rng.sample(earlier, rng.randint(0, min(max_parents, idx))))
        parents[f"r{idx}"] = ps
        low = 0 if ps else 1
        fields[f"r{idx}"] = tuple(rng.sample(sorted(field_type), rng.randint(low, max_fields)))
    return _render(parents, fields, field_type)


def leaf_fields(h: Hierarchy) -> dict[str, list[str]]:
    """Each class's leaf field names in flat order: parents first (first
    occurrence wins), then the class's own fields."""
    out: dict[str, list[str]] = {}

    def walk(name: str) -> list[str]:
        if name not in out:
            fields: dict[str, None] = {}
            for p in h.parents[name]:
                fields.update(dict.fromkeys(walk(p)))
            fields.update(dict.fromkeys(h.fields[name]))
            out[name] = list(fields)
        return out[name]

    for name in h.parents:
        walk(name)
    return out


def instance_edges(h: Hierarchy, flat_hack: bool = False) -> dict[str, list[str]]:
    """Forgetful-instance edges by source class: one per declared parent,
    plus, under flat_hack, one to the shared empty class."""
    edges = {c: list(ps) for c, ps in h.parents.items()}
    if flat_hack:
        for ps in edges.values():
            ps.insert(0, "flat_hack")
        edges["flat_hack"] = []
    return edges


def path_groups(edges: dict[str, list[str]],
                max_len: int = MAX_PATH_LEN) -> dict[tuple[str, str], int]:
    """Number of distinct paths (of 1..max_len edges) per (source, target)."""
    groups: dict[tuple[str, str], int] = {}

    def walk(source: str, node: str, depth: int) -> None:
        if depth == max_len:
            return
        for dst in edges[node]:
            groups[source, dst] = groups.get((source, dst), 0) + 1
            walk(source, dst, depth + 1)

    for source in edges:
        walk(source, source, 0)
    return groups


def diamond_total(edges: dict[str, list[str]]) -> int:
    return sum(math.comb(k, 2) for k in path_groups(edges).values())
