"""hierlab benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload diamonds --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Each workload runs in a fresh interpreter
(worker.py) with `src` on the import path.  Set-up time is measured from
process start to the first job being ready, in five set-up-only processes
and the measuring one, and reported as their median.  Every time is in
seconds at the reference speed of calibrate.py, so that the machine's own
drift in speed cancels out; the report also gives job times as measured.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` (jobs whose exit code or output was wrong), and
`metrics` -- the end-to-end metrics with `--trace 0`, the per-layer metrics
of a traced run with `--trace 1`.  The lines before it are a readable report.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("diamonds", "spanning", "resolve", "elaborate")
SETUP_PROBES = 5
# One run must end within three minutes.
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def spawn(argv: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), *argv, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker timed out: {' '.join(argv)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(argv)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    started = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [spawn(common + ["--setup-only"], DEADLINE_S)["setup_s"]
              for _ in range(SETUP_PROBES)]
    argv = common + ["--seconds", str(seconds)] + (["--trace"] if traced else [])
    result = spawn(argv, DEADLINE_S - (time.monotonic() - started))
    setups.append(result.pop("setup_s"))
    if not traced:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def print_report(workload: str, result: dict) -> None:
    print(f"== {workload}: {'correct' if result['correct'] else 'WRONG'}")
    for line in result["report"]:
        print(f"  {line}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")


def summary(result: dict) -> dict:
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not Path("src/hierlab/cli.py").is_file():
        print("run from the root of a hierlab checkout (src/hierlab not found)",
              file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in chosen:
            results[workload] = run_workload(workload, args.seed, args.seconds,
                                             bool(args.trace))
            print_report(workload, results[workload])
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({w: summary(r) for w, r in results.items()}))
    else:
        print(json.dumps(summary(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
