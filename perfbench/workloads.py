"""The four workloads: which `hier` jobs each runs and how each job's output
is checked.

A job is one `hier` subcommand with `--emit json`.  Every job is checked
against an answer the benchmark knows without the program: a closed form, a
count taken from the generated class graph, a result stated in the paper's
corpus, or, for inputs that do not depend on the seed, the SHA-256 of the
output recorded at the commit that introduced the benchmark (golden.json).
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
BASELINE = HERE / "baseline.json"
CORPUS = Path("corpus")

# Random hierarchies per run: enough that their share of each metric barely
# moves from one seed to the next (with 20 in `elaborate`, where they set
# job_p50_s, it moved by 0.12 of its median over ten seeds).
DIAMOND_RANDOMS = 60
ELABORATE_RANDOMS = 60
# Seeded shuffled 4-cubes in diamonds.
SHUFFLED_CUBES = 5


@dataclass
class Job:
    name: str
    argv: list[str]
    classes: int
    check: Callable[[int, dict], list[str]]
    # Only jobs whose input does not depend on the seed have a golden digest.
    fixed: bool = True


@dataclass
class Workload:
    name: str
    build: Callable[[int, Path], list[Job]]
    # Units of work a job completed (diamonds, placements, found and
    # not-found goals), read from its checked output; every job also counts
    # the classes of its input.
    units: Callable[[dict], Counter]
    # The units whose rate is the workload's verdicts_per_s.
    verdict_units: tuple[str, ...]
    cross_check: Callable[[dict[str, dict]], list[tuple[str, str]]] = \
        lambda outputs: []


def digest(rc: int, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def _write(dirpath: Path, name: str, text: str) -> str:
    path = dirpath / f"{name}.hier"
    path.write_text(text)
    return str(path)


def _corpus_classes(path: Path) -> int:
    return len(re.findall(r"^class ", path.read_text(), re.M))


def _expect(cond: bool, problem: str, problems: list[str]) -> None:
    if not cond:
        problems.append(problem)


# ---------------------------------------------------------------------------
# diamonds


def _diamond_check(edges: dict[str, list[str]], eta: str,
                   total: int) -> Callable[[int, dict], list[str]]:
    groups = gen.path_groups(edges)

    def check(rc: int, out: dict) -> list[str]:
        problems: list[str] = []
        summary = out["summary"]
        _expect(summary["total"] == total == len(out["diamonds"]),
                f"{summary['total']} diamonds, expected {total}", problems)
        per_pair = Counter((d["source"], d["target"]) for d in out["diamonds"])
        expected = {k: math.comb(n, 2) for k, n in groups.items() if n >= 2}
        _expect(dict(per_pair) == expected, "diamonds per (source, target) differ "
                "from the paths in the class graph", problems)
        if eta == "on":
            _expect(summary["commuting"] == total,
                    "nested diamonds must all commute with eta-kernel on", problems)
        _expect(rc == (0 if summary["commuting"] == total else 1),
                f"exit code {rc} does not match the summary", problems)
        return problems

    return check


def _diamond_units(out: dict) -> Counter:
    return Counter(diamonds=out["summary"]["total"])


def build_diamonds(seed: int, dirpath: Path) -> list[Job]:
    inputs: list[tuple[str, gen.Hierarchy, int, bool]] = []
    for n in (3, 4, 5):
        inputs.append((f"cube{n}", gen.cube(n), gen.cube_diamonds_closed_form(n), True))
    rng = random.Random(seed)
    # 4-cubes with each extends list shuffled: the same diamonds reached
    # through other preferred projections.
    for i in range(SHUFFLED_CUBES):
        inputs.append((f"cube4-shuffled{i}", gen.cube(4, rng=rng),
                       gen.cube_diamonds_closed_form(4), False))
    cubes = len(inputs)
    while len(inputs) < cubes + DIAMOND_RANDOMS:
        h = gen.random_hierarchy(rng, classes=8)
        groups = gen.path_groups(gen.instance_edges(h))
        # The slice with one diamond per (source, target) that has any, and
        # at least one: nothing for path bucketing to share, unlike the cubes.
        if max(groups.values(), default=0) == 2:
            inputs.append((f"rand{len(inputs) - cubes}", h,
                           gen.diamond_total(gen.instance_edges(h)), False))
    jobs = []
    for tag, h, total, fixed in inputs:
        path = _write(dirpath, tag, h.text)
        # The 5-cube takes most of a round under either setting; it runs
        # with eta off only, so that a round takes about 10 seconds.
        for eta in ("off",) if tag == "cube5" else ("off", "on"):
            jobs.append(Job(f"diamonds/{tag}/eta-{eta}",
                            ["diamonds", path, "--emit", "json", "--encoding", "nested",
                             "--eta-kernel", eta],
                            len(h.parents), _diamond_check(gen.instance_edges(h), eta, total),
                            fixed))
    return jobs


def cross_diamonds(outputs: dict[str, dict]) -> list[tuple[str, str]]:
    """The two eta settings see the same diamonds and predictor verdicts, and
    every oracle verdict that holds without eta holds with it."""
    problems = []
    for name, off in outputs.items():
        if not name.endswith("/eta-off"):
            continue
        on_name = name[:-len("off")] + "on"
        on = outputs.get(on_name)
        if on is None:
            continue
        strip = [{k: v for k, v in d.items() if k != "oracle"} for d in off["diamonds"]]
        if strip != [{k: v for k, v in d.items() if k != "oracle"} for d in on["diamonds"]]:
            problems.append((name, f"diamond list differs from {on_name}"))
        elif any(a["oracle"] and not b["oracle"]
                 for a, b in zip(off["diamonds"], on["diamonds"])):
            problems.append((name, f"an oracle verdict is lost in {on_name}"))
    return problems


# ---------------------------------------------------------------------------
# spanning-search

# Coherent placements out of all placements, nested encoding, for the
# corpus files with a class of several parents: cube 0/24 and 24/24 and fig1
# 2/4 and 4/4 as the paper states; module.hier repeats fig1's hierarchy, and
# rootonly.hier's parents never overlap, so all its edges are projections.
# Under flat-hack every diamond commutes, so every placement is coherent.
SPANNING_FILES = ("cube", "fig1", "module", "rootonly")
SPANNING_NESTED = {("cube", "off"): (0, 24), ("cube", "on"): (24, 24),
                   ("fig1", "off"): (2, 4), ("fig1", "on"): (4, 4),
                   ("module", "off"): (2, 4), ("module", "on"): (4, 4),
                   ("rootonly", "off"): (4, 4), ("rootonly", "on"): (4, 4)}


def _spanning_check(tag: str, enc: str, eta: str) -> Callable[[int, dict], list[str]]:
    def check(rc: int, out: dict) -> list[str]:
        problems: list[str] = []
        summary = out["summary"]
        got = (summary["coherent"], summary["total"])
        if enc == "nested":
            want = SPANNING_NESTED[tag, eta]
        else:
            want = (summary["total"], SPANNING_NESTED[tag, "on"][1])
        _expect(got == want, f"{got[0]}/{got[1]} coherent, expected {want[0]}/{want[1]}",
                problems)
        _expect(rc == 0, f"exit code {rc}", problems)
        return problems

    return check


def _spanning_units(out: dict) -> Counter:
    return Counter(placements=out["summary"]["total"],
                   diamonds=sum(len(p["diamonds"]) for p in out["placements"]))


def build_spanning(seed: int, dirpath: Path) -> list[Job]:
    jobs = []
    for tag in SPANNING_FILES:
        path = CORPUS / f"{tag}.hier"
        for enc in ("nested", "flat-hack"):
            # flat-hack on the cube is most of a round under either setting;
            # it runs with eta off only, so that a round takes about 6 seconds.
            for eta in ("off",) if (tag, enc) == ("cube", "flat-hack") else ("off", "on"):
                jobs.append(Job(f"spanning/{tag}/{enc}/eta-{eta}",
                                ["spanning-search", str(path), "--emit", "json",
                                 "--encoding", enc, "--eta-kernel", eta],
                                _corpus_classes(path), _spanning_check(tag, enc, eta)))
    return jobs


# ---------------------------------------------------------------------------
# resolve


def _resolve_check(goals: int | None, found: bool | None) -> Callable[[int, dict], list[str]]:
    def check(rc: int, out: dict) -> list[str]:
        problems: list[str] = []
        statuses = [g["status"] for g in out["goals"]]
        if goals is not None:
            _expect(len(statuses) == goals, f"{len(statuses)} goals, expected {goals}",
                    problems)
            want = "found" if found else "not-found"
            _expect(all(s == want for s in statuses), f"every goal should be {want}",
                    problems)
        all_found = all(s == "found" for s in statuses)
        _expect(rc == (0 if all_found else 1), f"exit code {rc} does not match the goals",
                problems)
        return problems

    return check


def _resolve_units(out: dict) -> Counter:
    statuses = Counter(g["status"] for g in out["goals"])
    return Counter(found=statuses["found"], notfound=statuses["not-found"])


def build_resolve(seed: int, dirpath: Path) -> list[Job]:
    inputs: list[tuple[str, str, int, Callable]] = []
    for n in (3, 4, 5, 6):
        for found in (True, False):
            tag = f"cube{n}-{'found' if found else 'notfound'}"
            h = gen.cube_resolve(n, found)
            inputs.append((tag, _write(dirpath, tag, h.text), len(h.parents),
                           _resolve_check(2 ** n, found)))
    module = CORPUS / "module.hier"
    inputs.append(("module", str(module), _corpus_classes(module), _resolve_check(None, None)))
    return [Job(f"resolve/{tag}/eta-{eta}",
                ["resolve", path, "--emit", "json", "--eta-unifier", eta],
                classes, check)
            for tag, path, classes, check in inputs for eta in ("off", "on")]


# ---------------------------------------------------------------------------
# elaborate

_KIND = {"flat": "flat-constructor", "preferred": "preferred-projection",
         "synthesized": "synthesized-constructor"}


def _elaborate_check(h: gen.Hierarchy, enc: str) -> Callable[[int, dict], list[str]]:
    hack = enc == "flat-hack"
    edges = gen.instance_edges(h, flat_hack=hack)

    def check(rc: int, out: dict) -> list[str]:
        problems: list[str] = []
        _expect(rc == 0, f"exit code {rc}", problems)
        classes = out["classes"]
        _expect(sorted(classes) == sorted(edges), "class set differs from the input",
                problems)
        got_edges = sorted((i["from"], i["to"]) for i in out["instances"])
        want_edges = sorted((c, p) for c, ps in edges.items() for p in ps)
        _expect(got_edges == want_edges, "forgetful instances differ from extends edges",
                problems)
        for inst in out["instances"]:
            first = edges[inst["from"]][0] == inst["to"]
            if enc == "flat":
                want = _KIND["flat"]
            elif first:
                # The first parent never overlaps what was collected before it.
                want = _KIND["preferred"]
            elif hack:
                # Every later parent shares the flat_hack substructure.
                want = _KIND["synthesized"]
            else:
                continue  # nested: overlap with earlier parents decides
            _expect(inst["kind"] == want,
                    f"{inst['name']} is {inst['kind']}, expected {want}", problems)
        if problems:
            return problems

        found: dict[str, set[str]] = {}

        def leaves(c: str) -> set[str]:
            if c not in found:
                found[c] = set().union(*(leaves(f["parent"]) if f["parent"] else {f["name"]}
                                         for f in classes[c]["fields"]))
            return found[c]

        for c, want_leaves in gen.leaf_fields(h).items():
            fields = [f["name"] for f in classes[c]["fields"]]
            if enc == "flat":
                _expect(fields == want_leaves, f"{c} fields {fields}", problems)
            else:
                _expect(leaves(c) == set(want_leaves), f"{c} leaf fields differ", problems)
        return problems

    return check


def build_elaborate(seed: int, dirpath: Path) -> list[Job]:
    inputs = [(f"chain{n}", gen.chain(n), True) for n in (100, 200)]
    rng = random.Random(seed)
    inputs += [(f"rand{i}", gen.random_hierarchy(rng, classes=20), False)
               for i in range(ELABORATE_RANDOMS)]
    jobs = []
    for tag, h, fixed in inputs:
        path = _write(dirpath, tag, h.text)
        for enc in ("flat", "nested", "flat-hack"):
            jobs.append(Job(f"elaborate/{tag}/{enc}",
                            ["elaborate", path, "--emit", "json", "--encoding", enc],
                            len(h.parents), _elaborate_check(h, enc), fixed))
    return jobs


WORKLOADS = {
    "diamonds": Workload("diamonds", build_diamonds, _diamond_units, ("diamonds",),
                         cross_diamonds),
    "spanning": Workload("spanning", build_spanning, _spanning_units, ("placements",)),
    "resolve": Workload("resolve", build_resolve, _resolve_units, ("found", "notfound")),
    "elaborate": Workload("elaborate", build_elaborate, lambda out: Counter(),
                          ("classes",)),
}


# The counts ROADMAP's baseline quotes, with the job that reproduces each.
ROADMAP_COUNTS = {
    ("diamonds/cube5/eta-off", "analyzer.diamonds"): 10580,
    ("spanning/cube/nested/eta-off", "elaborator.calls"): 49,
    ("resolve/cube6-notfound/eta-off", "resolution.first_goal_trace_lines"): 5870,
}


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
