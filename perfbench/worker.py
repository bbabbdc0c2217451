"""One workload in one fresh, single-threaded interpreter.

Started by run.py with `src` on the import path.  It generates the inputs,
then runs the workload's jobs in rounds: each round runs every job once, in
the order the workload lists them (an order drawn from the seed made peak
memory in `elaborate` depend on the seed by 4 MB, by which flat 200-chain
job ran first).  A job is `hierlab.cli.main(argv)` with stdout
captured.  After the last round every job's first output is checked and
every later output must repeat it byte for byte.

Rounds run while the next one fits in `--seconds`, at least MIN_ROUNDS.
A job's time is its median over the rounds, in seconds at a reference
speed (calibrate.py): the machine the benchmark was written on drifts in
speed by a fifth from one ten-second stretch to the next, so each run of a
job is scaled by a fixed reference workload timed on either side of it and,
every 0.1 s, inside it.  The report gives the times as measured too.

With --trace, untraced rounds fill half of `--seconds`; then one round runs
with the tracer's counting wrappers and the rest with its span wrappers
only, each job once, so that layer times and the tracing overhead (span
rounds against untraced ones) carry none of the counting's cost.  Prints
one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import calibrate
import workloads

OUT = Path(".perfbench_out")
# Stop starting rounds after this long, so a much slower program still ends
# within the three minutes one run may take.
CAP_S = 140.0
# Reference probes taken just after set-up, to scale its time.
SETUP_PROBES = 20
# A run has at least this many untraced rounds, so that every job's time is
# a median of runs.
MIN_ROUNDS = 2


def run_job(main, argv: list[str]) -> tuple[int | None, str, float]:
    """Run one job: exit code, stdout and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    if rc != 0 and rc != 1:
        sys.stderr.write(f"hier {' '.join(argv)} -> {rc}\n{err.getvalue()}")
    return rc, out.getvalue(), elapsed


def check_job(job: workloads.Job, rc: int | None, stdout: str,
              golden: dict[str, str]) -> tuple[list[str], dict | None]:
    """Problems with a job's output, and the output parsed."""
    if rc not in (0, 1):
        return [f"exit code {rc}"], None
    try:
        out = json.loads(stdout)
        problems = job.check(rc, out)
    except Exception as exc:  # a malformed output may break any check
        return [f"unreadable output: {exc!r}"], None
    if job.fixed:
        want = golden.get(job.name)
        if want is None:
            problems.append("no recorded output in golden.json")
        elif want != workloads.digest(rc, stdout):
            problems.append("output differs from the recorded output")
    return problems, out


def baseline_notes(job_counts: dict[str, dict]) -> list[str]:
    """Compare per-job counts with those recorded at the benchmark's first
    commit.  A difference is reported, not treated as wrong: changing the
    work a layer does is what optimisations are for."""
    if not workloads.BASELINE.exists():
        return ["no recorded baseline counts"]
    recorded = json.loads(workloads.BASELINE.read_text())
    notes = []
    for (job, key), want in sorted(workloads.ROADMAP_COUNTS.items()):
        if job in job_counts:
            got = job_counts[job].get(key, 0)
            notes.append(f"roadmap baseline {job} {key}: {got} (seed commit {want})")
    differ = sorted(job for job, counts in job_counts.items()
                    if recorded.get(job) not in (None, counts))
    same = sum(1 for job in job_counts if recorded.get(job) == job_counts[job])
    notes.append(f"per-job counts equal to the seed baseline: {same}/{len(job_counts)}"
                 + (f"; differing: {', '.join(differ)}" if differ else ""))
    return notes


def job_medians(times: dict[int, dict[int, float]], rounds: list[int]) -> list[float]:
    """Each job's median time over the given rounds."""
    return [statistics.median(times[r][j] for r in rounds) for j in times[rounds[0]]]


def measure(wl: workloads.Workload, jobs: list[workloads.Job], seed: int, seconds: int,
            traced: bool, golden: dict[str, str]) -> dict:
    import hierlab.cli

    order = range(len(jobs))

    from tracer import Tracer
    tracer = Tracer()
    first: dict[int, tuple[int | None, str]] = {}
    repeats_ok: dict[int, bool] = {j: True for j in order}
    runs = Counter()
    # Each job's time in each plain and each span round, at the reference
    # speed, by round index and job; and as measured.
    times: dict[int, dict[int, float]] = {}
    raw: dict[int, dict[int, float]] = defaultdict(dict)
    # Reference seconds per measured second, by the tracer's job number.
    speed: dict[int, float] = {}
    last_s: dict[int, float] = defaultdict(float)
    plain_rounds: list[int] = []
    span_rounds: list[int] = []
    job_counts: dict[int, Counter] = {}

    meter = calibrate.Meter()

    def run(j: int) -> float:
        """Run job j; its wall time at the reference speed."""
        gc.collect()

        def job():
            # Looked up per job: the tracer replaces hierlab.cli.main in span rounds.
            rc, stdout, elapsed = run_job(hierlab.cli.main, jobs[j].argv)
            return (rc, stdout), elapsed

        (rc, stdout), elapsed, speed[tracer.job] = meter.run(job, last_s[j])
        last_s[j] = elapsed
        runs[j] += 1
        if j not in first:
            first[j] = (rc, stdout)
        elif first[j] != (rc, stdout):
            repeats_ok[j] = False
        raw[tracer.job // len(jobs)][j] = elapsed
        return elapsed * speed[tracer.job]

    def run_round(r: int, phase: str) -> dict[int, float]:
        round_times = {}
        for j in order:
            tracer.job = r * len(jobs) + j
            if phase == "count":
                before = Counter(tracer.counts)
                run(j)
                job_counts[j] = tracer.counts - before
                if tracer.job in tracer.first_goal_lines:
                    job_counts[j]["resolution.first_goal_trace_lines"] = \
                        tracer.first_goal_lines[tracer.job]
                continue
            round_times[j] = run(j)
        return round_times

    started = time.monotonic()
    budget = min(seconds, CAP_S)
    gc.collect()
    gc.freeze()
    rounds = 0
    longest_round_s = 0.0

    def timed_round(phase: str) -> None:
        nonlocal longest_round_s, rounds
        round_started = time.monotonic()
        times[rounds] = run_round(rounds, phase)
        longest_round_s = max(longest_round_s, time.monotonic() - round_started)
        (plain_rounds if phase == "plain" else span_rounds).append(rounds)
        rounds += 1

    def room_until(deadline: float) -> bool:
        return time.monotonic() - started + longest_round_s <= deadline

    for _ in range(MIN_ROUNDS):
        timed_round("plain")
    while room_until(budget / 2 if traced else budget):
        timed_round("plain")
    if traced:
        tracer.install_counters()
        run_round(rounds, "count")
        rounds += 1
        tracer.uninstall()
        tracer.install_spans()
        timed_round("spans")
        while room_until(budget):
            timed_round("spans")
    tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Checks, outside the timed region.
    wrong: set[int] = set()
    parsed: dict[str, dict] = {}
    units = Counter()
    by_input: dict[str, Counter] = {}
    problems: list[str] = []
    for j in order:
        job = jobs[j]
        job_problems, out = check_job(job, *first[j], golden)
        if not repeats_ok[j]:
            job_problems.append("a later round gave a different output")
        job_units = Counter(classes=job.classes)
        if out is not None:
            parsed[job.name] = out
            job_units += wl.units(out)
        units += job_units
        by_input.setdefault(job.name.split("/")[1].rstrip("0123456789"),
                            Counter()).update(job_units)
        if job_problems:
            wrong.add(j)
            problems += [f"{job.name}: {p}" for p in job_problems]
    by_name = {job.name: j for j, job in enumerate(jobs)}
    try:
        crossed = wl.cross_check(parsed)
    except Exception as exc:
        crossed = [(name, f"cross-check failed: {exc!r}") for name in parsed]
    for name, problem in crossed:
        wrong.add(by_name[name])
        problems.append(f"{name}: {problem}")
    del parsed

    attempted = sum(runs.values())
    failed = sum(runs[j] for j in wrong)
    # Each job's median run over the plain rounds, and a round of jobs at
    # those times.
    plain = job_medians(times, plain_rounds)
    round_s = sum(plain)
    verdicts = sum(units[u] for u in wl.verdict_units)
    raw_plain = job_medians(raw, plain_rounds)
    e2e = {
        "job_p50_s": (statistics.median(plain), "s"),
        "job_tail_s": (max(plain), "s"),
        "verdicts_per_s": (verdicts / round_s, "1/s"),
        "classes_per_s": (units["classes"] / round_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = [
        f"rounds of {len(jobs)} jobs: {len(plain_rounds)} untraced"
        + (f", 1 counting, {len(span_rounds)} with spans" if traced else ""),
        f"a job's time is its median over the rounds, in seconds at the reference "
        f"speed; job_tail_s is the slowest of the {len(plain)} jobs",
        f"as measured: job_p50_s {statistics.median(raw_plain):.6g} s, job_tail_s "
        f"{max(raw_plain):.6g} s, a round {sum(raw_plain):.6g} s; the machine ran at "
        f"{sum(raw_plain) and round_s / sum(raw_plain):.3f} of the reference speed",
        f"wrong_ratio: {failed}/{attempted}",
        "per round by input: " + "; ".join(
            f"{name} " + " ".join(f"{u}={n}" for u, n in sorted(c.items()))
            for name, c in sorted(by_input.items())),
    ]
    # Each workload's own throughputs, where their unit occurs.
    for name, unit in (("diamonds_per_s", "diamonds"), ("placements_per_s", "placements"),
                       ("found_goals_per_s", "found"), ("notfound_goals_per_s", "notfound")):
        count = units[unit]
        if count:
            report.append(f"{name}: {count / round_s:.6g} 1/s ({count} per round)")
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "problems": problems, "report": report,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}}
    if traced:
        from tracer import layer_metrics
        traced_times = job_medians(times, span_rounds)
        # Counts grow only in the counting round, so they are that round's.
        layers = layer_metrics(tracer, len(jobs), span_rounds, speed, tracer.counts)
        layers["bench.trace_overhead_s"] = (
            statistics.median(traced_times) - statistics.median(plain), "s")
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["report"] += baseline_notes({jobs[j].name: dict(c)
                                            for j, c in job_counts.items() if jobs[j].fixed})
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{wl.name}-seed{seed}.jsonl.gz"
        tracer.write(spans, [job.name for job in jobs])
        result["report"].append(f"spans: {len(tracer.spans)} written to {spans}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    args = parser.parse_args()

    import hierlab.cli  # noqa: F401  (importing the program is part of set-up)

    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"inputs-{wl.name}-", dir=OUT))
    try:
        jobs = wl.build(args.seed, inputs)
        golden = workloads.load_golden()
        setup_s = time.monotonic() - args.t0
        calibrate.reference()  # its first run warms up
        setup_s = calibrate.scale(setup_s, [calibrate.sample() for _ in range(SETUP_PROBES)])
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            result = measure(wl, jobs, args.seed, args.seconds, args.trace, golden)
            result["setup_s"] = setup_s
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
