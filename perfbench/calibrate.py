"""A fixed reference workload that tells how fast the machine runs Python
at a given moment, so that job times can be scaled to one speed.

On the shared 2-vCPU x86 VM the benchmark was written on, the speed of
everything drifts from one ten-second stretch to the next.  A flat
200-class chain `elaborate` job, averaged over stretches of five runs
within two and a half minutes, took 1.51 times as long in the slowest
stretch as in the fastest; scaled by this probe, timed around each run,
1.19 times (correlation of job and probe times 0.8).

The probe does the kind of work the program does with none of its code, so
it does not change when the program does: it normalises Church-numeral
arithmetic in a de Bruijn lambda calculus of frozen dataclasses
(substitution, structural equality and hashing, a dict cache).
"""
from __future__ import annotations

import gc
import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

# Seconds `reference()` takes on that VM when it is not slowed down.
REFERENCE_S = 0.0022
# Probes before and after a job take about this share of its time each...
PROBE_SHARE = 0.05
# ...and are at most this many on each side.
MAX_PROBES = 20
# While a job runs, a timer signal takes one probe this often.
TICK_S = 0.1


class Tm:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Tm):
    index: int


@dataclass(frozen=True)
class Ap(Tm):
    fn: Tm
    arg: Tm


@dataclass(frozen=True)
class Lm(Tm):
    body: Tm


def shift(t: Tm, by: int, cutoff: int = 0) -> Tm:
    if isinstance(t, Var):
        return Var(t.index + by) if t.index >= cutoff else t
    if isinstance(t, Ap):
        return Ap(shift(t.fn, by, cutoff), shift(t.arg, by, cutoff))
    return Lm(shift(t.body, by, cutoff + 1))


def subst(t: Tm, value: Tm, depth: int = 0) -> Tm:
    if isinstance(t, Var):
        if t.index == depth:
            return shift(value, depth)
        return Var(t.index - 1) if t.index > depth else t
    if isinstance(t, Ap):
        return Ap(subst(t.fn, value, depth), subst(t.arg, value, depth))
    return Lm(subst(t.body, value, depth + 1))


def normalise(t: Tm, cache: dict) -> Tm:
    hit = cache.get(t)
    if hit is not None:
        return hit
    if isinstance(t, Ap):
        fn = normalise(t.fn, cache)
        out = (normalise(subst(fn.body, t.arg), cache) if isinstance(fn, Lm)
               else Ap(fn, normalise(t.arg, cache)))
    elif isinstance(t, Lm):
        out = Lm(normalise(t.body, cache))
    else:
        out = t
    cache[t] = out
    return out


def church(n: int) -> Tm:
    body: Tm = Var(0)
    for _ in range(n):
        body = Ap(Var(1), body)
    return Lm(Lm(body))


# λm n f x. m f (n f x)  and  λm n f. m (n f)
ADD = Lm(Lm(Lm(Lm(Ap(Ap(Var(3), Var(1)), Ap(Ap(Var(2), Var(1)), Var(0)))))))
MUL = Lm(Lm(Lm(Ap(Var(2), Ap(Var(1), Var(0))))))


def reference() -> None:
    cache: dict = {}
    for a, b in ((3, 4), (5, 2), (2, 7)):
        product = normalise(Ap(Ap(MUL, church(a)), church(b)), cache)
        if normalise(Ap(Ap(ADD, product), church(a)), cache) != church(a * b + a):
            raise AssertionError("the reference workload computed a wrong answer")


def sample() -> float:
    """Seconds one run of the reference workload takes now."""
    start = perf_counter()
    reference()
    return perf_counter() - start


def probes_for(elapsed: float) -> int:
    """How many probes to take on each side of a job that runs `elapsed`
    seconds."""
    return max(1, min(MAX_PROBES, math.ceil(PROBE_SHARE * elapsed / REFERENCE_S)))


def scale(elapsed: float, samples: list[float]) -> float:
    """`elapsed`, measured among the probes `samples`, in seconds at the
    reference speed."""
    return elapsed * REFERENCE_S / statistics.mean(samples)


class Meter:
    """Times a job in seconds at the reference speed, from probes on either
    side of it (the probes between two jobs count for both) and, for a long
    job, from probes inside it: a timer signal interrupts the job every
    TICK_S and its handler takes one probe, with the collector off so that
    the job's garbage is not collected in it.  Time spent in the handler is
    taken off the job's time."""

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.ticking_s = 0.0
        # The probes after the last job, which are also before the next.
        self.after: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.ticks.append(sample())
        finally:
            if collecting:
                gc.enable()
            self.ticking_s += perf_counter() - start

    def run(self, job, expected_s: float):
        """Run `job()`, which returns (result, wall seconds), after probes
        as many as a job of `expected_s` calls for: (result, seconds as
        measured without the handler's time, reference seconds per second
        while it ran)."""
        want = probes_for(expected_s)
        samples = self.after[-want:]
        samples += [sample() for _ in range(want - len(samples))]
        self.ticks, self.ticking_s = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result, elapsed = job()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed -= self.ticking_s
        self.after = [sample() for _ in range(probes_for(elapsed))]
        samples += self.ticks + self.after
        return result, elapsed, REFERENCE_S / statistics.mean(samples)
