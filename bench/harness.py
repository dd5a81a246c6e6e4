"""Timing loop, reference loop and summary statistics.

Host speed on small shared machines drifts within one process (a fixed loop
was seen to slow from 22 ms to 34 ms inside a minute), so the loop:

* runs every job once per round and rotates the start of each round, so a
  slow spell lands on all jobs alike and each job's median skips it;
* calls ``gc.collect()`` before each timed job;
* times the workload's reference (``refloop``) before every job.  Each job
  sample is divided by the mean reference time of its round, which gives
  the normalised times behind ``pass_ref``; the reference spread shows a
  disturbed run.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field

from refloop import reference_loop
from workloads import Job, JobFailure, Workload


def spin(seconds: float) -> None:
    """Run the reference loop for ``seconds`` (CPU warm-up, not timed)."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        reference_loop()


def read_loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unavailable"


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


@dataclass
class Tally:
    """Attempted and failed job executions, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, job: Job, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(f"{job.name}: {reason}")


def execute(job: Job, call, expected, tally: Tally):
    """Run one job through ``call`` (timed) and check its output (untimed).

    Returns the wall time in seconds, or None when the job failed.
    """
    tally.attempted += 1
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = call()
    except Exception:  # a crash in the program under test is a failed job
        tally.fail(job, traceback.format_exc(limit=3).strip().splitlines()[-1])
        return None
    elapsed = time.perf_counter() - t0
    try:
        job.check(out, expected)
    except JobFailure as exc:
        tally.fail(job, str(exc))
        return None
    except (KeyError, TypeError, ValueError) as exc:  # malformed output
        tally.fail(job, f"malformed output: {exc!r}")
        return None
    return elapsed


@dataclass
class Passes:
    """Per-job samples gathered by ``measure``.

    ``samples`` are wall times in seconds.  ``norm`` holds the same samples
    in reference-loop units: each is divided by the mean time of the
    reference loops run in its own round.  A round lasts a few seconds, so
    the divisor follows the host's slow and fast spells, which a median
    over the whole run does not.
    """

    samples: dict[str, list[float]]
    norm: dict[str, list[float]]
    ref: list[float]
    rounds: int
    measured_s: float

    @property
    def pass_s(self) -> float:
        return sum(statistics.median(v) for v in self.samples.values() if v)

    @property
    def pass_ref(self) -> float:
        return sum(statistics.median(v) for v in self.norm.values() if v)

    @property
    def ref_median(self) -> float:
        return statistics.median(self.ref)

    def pooled(self) -> list[float]:
        return [t for v in self.samples.values() for t in v]

    def pooled_norm(self) -> list[float]:
        return [t for v in self.norm.values() for t in v]


def measure(wl: Workload, jobs: list[Job], expected: dict, seconds: float,
            tally: Tally, min_rounds: int = 3, max_rounds: int | None = None,
            round_hook=None) -> Passes:
    """Interleaved rounds of every job until ``seconds`` run out.

    A new round starts only if the last one would still fit, so a run ends
    close to ``seconds`` whatever the host speed; at least ``min_rounds`` are
    made.  ``round_hook(round_index)`` runs after each timed round (the
    traced run puts its extra passes there).
    """
    samples = {job.name: [] for job in jobs}
    norm = {job.name: [] for job in jobs}
    ref: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        t_round = time.perf_counter()
        k = rounds % len(jobs)
        timed = []
        for job in jobs[k:] + jobs[:k]:
            ref.extend(wl.reference() for _ in range(wl.ref_reps))
            elapsed = execute(job, job.run, expected[job.name], tally)
            if elapsed is not None:
                timed.append((job.name, elapsed))
        round_ref = statistics.mean(ref[-wl.ref_reps * len(jobs):])
        for name, elapsed in timed:
            samples[name].append(elapsed)
            norm[name].append(elapsed / round_ref)
        if round_hook is not None:
            round_hook(rounds)
        rounds += 1
        now = time.perf_counter()
        if max_rounds is not None and rounds >= max_rounds:
            break
        if rounds >= min_rounds and now + (now - t_round) > deadline:
            break
    return Passes(samples, norm, ref, rounds, time.perf_counter() - start)
