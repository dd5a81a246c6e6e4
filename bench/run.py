#!/usr/bin/env python3
"""Benchmark of the tworoman exact solvers, library and command line.

Run from the repository root:

    python3 bench/run.py --workload bb_exact --seed 1 --seconds 36 --trace 0

Workloads: ``bb_exact``, ``eccd_auto`` and ``cli_io`` (see bench/README.md).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate run
that records spans around each layer's public entry points and prints the
per-layer metrics.  ``--size smoke`` shrinks every input for the self-test.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it record the input
manifest, the load average and the reference-loop spread of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
CLI_PROBES = 5
# The first second of CPU work after an idle spell runs slow on small VMs.
WARM_SPIN_S = 1.0

END_TO_END = (
    ("setup_s", "s"), ("pass_ref", "ref"), ("job_p50_ref", "ref"),
    ("job_p90_ref", "ref"), ("peak_rss_mb", "MB"), ("ok_rate", "ratio"),
)

PER_LAYER = (
    ("solver.bb.s", "s"), ("solver.bb.nodes", "count"), ("solver.bb.nodes_per_s", "1/s"),
    ("solver.eccd.s", "s"), ("solver.eccd.inner_sets", "count"),
    ("solver.eccd.inner_sets_per_s", "1/s"), ("solver.optimal.s", "s"),
    ("solver.enum.s", "s"), ("solver.enum.labelings", "count"),
    ("solver.extremal.s", "s"), ("solver.finite.s", "s"), ("solver.finite.nodes", "count"),
    ("solver.attack_n.s", "s"),
    ("labeling.validate.s", "s"), ("labeling.validate.calls", "count"),
    ("labeling.validate.vertices", "count"), ("labeling.validate_a3.s", "s"),
    ("graphio.parse.s", "s"), ("graphio.parse.bytes", "bytes"),
    ("graphio.parse.mb_per_s", "MB/s"), ("graphio.write.s", "s"),
    ("graphio.write.bytes", "bytes"), ("graphio.json.s", "s"), ("graphio.dot.s", "s"),
    ("tilings.patch.s", "s"), ("tilings.verify.s", "s"), ("tilings.verify.vertices", "count"),
    ("families.generate.s", "s"), ("families.density.s", "s"),
    ("cli.main.s", "s"), ("cli.import_ms", "ms"), ("cli.startup_ms", "ms"),
    ("cli.nonzero_exit", "count"),
    ("harness.pass_s", "s"), ("harness.job_p50_ms", "ms"), ("harness.job_p90_ms", "ms"),
    ("harness.ref_ms", "ms"), ("harness.ref_spread", "ratio"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
)

# Layers whose self times add up to the traced pass (the job root is the
# harness's own call overhead).
LAYER_SPANS = tuple(name[:-2] for name, unit in PER_LAYER if name.endswith(".s"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("bb_exact", "eccd_auto", "cli_io"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--setup-probe", action="store_true", dest="setup_probe",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def info(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_process(argv, env) -> tuple[float, int]:
    from workloads import wait_process

    t0 = time.perf_counter()
    code, _ = wait_process(argv, ROOT, env, subprocess.DEVNULL, subprocess.DEVNULL)
    return time.perf_counter() - t0, code


def setup_probe(args, env) -> float:
    """Wall time of a fresh process that imports tworoman, builds the inputs
    and warms up."""
    elapsed, code = timed_process(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe", "--workload",
         args.workload, "--seed", str(args.seed), "--size", args.size], env)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed


def run(args) -> dict:
    import harness
    import workloads

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, args.size, str(workdir), str(SRC))
        if args.setup_probe:
            wl.warmup()
            return {}
        return measure_workload(args, wl, harness, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK_ROOT.rmdir()


def measure_workload(args, wl, harness, workloads) -> dict:
    env = workloads.cli_env(str(SRC))
    load_start = harness.read_loadavg()

    manifest = [job.manifest for job in wl.jobs]
    for entry in manifest:
        info("manifest", entry)
    info("manifest_sha256", hashlib.sha256(
        json.dumps(manifest, sort_keys=True).encode()).hexdigest()[:16])

    tally = harness.Tally()
    expected, jobs = {}, []
    t0 = time.perf_counter()
    for job in wl.jobs:
        try:
            expected[job.name] = job.golden()
            jobs.append(job)
        except Exception as exc:  # no golden answer: the job counts as failed
            tally.attempted += 1
            tally.fail(job, f"golden answer: {exc!r}")
    golden_s = time.perf_counter() - t0
    wl.warmup()
    harness.spin(WARM_SPIN_S)

    min_rounds = 1 if args.size == "smoke" else 3
    max_rounds = 1 if args.size == "smoke" else None
    if args.trace:
        metrics, extra = traced_run(args, wl, jobs, expected, tally, env,
                                    harness, min_rounds, max_rounds)
    else:
        # One set-up probe after each round: the CPU is warm, and the probes
        # sample the host across the whole run.
        setup = []
        passes = harness.measure(wl, jobs, expected, args.seconds, tally,
                                 min_rounds, max_rounds,
                                 round_hook=lambda r: setup.append(setup_probe(args, env)))
        metrics = end_to_end(passes, statistics.median(setup), wl, tally, harness)
        extra = {"rounds": passes.rounds, "measured_s": passes.measured_s,
                 "setup_samples_s": setup, "wall_clock": wall_clock(passes, harness),
                 "jobs": {name: statistics.median(v) for name, v in passes.samples.items() if v},
                 "ref_ms": passes.ref_median * 1e3, "ref_spread": harness.spread(passes.ref)}

    info("run", {"workload": args.workload, "seed": args.seed, "size": args.size,
                 "trace": args.trace, "loadavg_start": load_start,
                 "loadavg_end": harness.read_loadavg(),
                 "golden_s": golden_s,
                 "fail_rate": tally.failed / max(tally.attempted, 1),
                 "failures": tally.reasons, **extra})
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def end_to_end(passes, setup_s: float, wl, tally, harness) -> dict:
    norm = passes.pooled_norm() or [0.0]
    values = {
        "setup_s": setup_s,
        "pass_ref": passes.pass_ref,
        "job_p50_ref": statistics.median(norm),
        "job_p90_ref": harness.p90(norm),
        "peak_rss_mb": wl.peak_rss_mb(),
        "ok_rate": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END}


def wall_clock(passes, harness) -> dict:
    """The same pass in seconds.  Printed on the run line, not gated: host
    speed on small shared VMs swings by up to 1.6x between minutes."""
    pooled_ms = [t * 1e3 for t in passes.pooled()] or [0.0]
    return {"pass_s": metric(passes.pass_s, "s"),
            "job_p50_ms": metric(statistics.median(pooled_ms), "ms"),
            "job_p90_ms": metric(harness.p90(pooled_ms), "ms")}


def traced_run(args, wl, jobs, expected, tally, env, harness, min_rounds, max_rounds):
    """Rounds of: the timed pass, an untraced in-process replay (CLI jobs
    only), and a traced pass.  The replay is the baseline of the tracing
    overhead; the timed pass is what ``pass_s`` measures."""
    import spans

    replay = {job.name: [] for job in jobs}
    traced = {job.name: [] for job in jobs}
    tracers = []  # one per round

    def extra_passes(r):
        k = r % len(jobs)
        order = jobs[k:] + jobs[:k]
        for job in order:
            if job.replay is not None:
                elapsed = harness.execute(job, job.replay, expected[job.name], tally)
                if elapsed is not None:
                    replay[job.name].append(elapsed)
        tracer = spans.Tracer()
        tracers.append(tracer)

        def call_traced(job):
            with tracer.job_span(job.name):
                return (job.replay or job.run)()

        with spans.installed(tracer):
            for job in order:
                elapsed = harness.execute(job, lambda job=job: call_traced(job),
                                          expected[job.name], tally)
                if elapsed is not None:
                    traced[job.name].append(elapsed)

    passes = harness.measure(wl, jobs, expected, args.seconds, tally, min_rounds,
                             max_rounds, round_hook=extra_passes)
    counts = tracers[0].counts
    if any(t.counts != counts for t in tracers):
        tally.attempted += 1
        tally.fail(jobs[0], "exact counts differ between traced rounds")
    self_per_round = [t.self_times() for t in tracers]
    self_s = {name: sum(r.get(name, 0.0) for r in self_per_round) / len(tracers)
              for name in LAYER_SPANS}

    def pass_of(samples):
        return sum(statistics.median(v) for v in samples.values() if v)

    traced_pass = pass_of(traced)
    baseline = pass_of(replay) if any(replay.values()) else passes.pass_s
    overhead = traced_pass / baseline

    import_ms, startup_ms, nonzero = cli_probes(env)
    process_start_s = startup_ms / 1e3 * sum(job.replay is not None for job in jobs)
    coverage = (sum(self_s.values()) / overhead + process_start_s) / passes.pass_s

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    values = {f"{name}.s": self_s[name] for name in LAYER_SPANS}
    values.update({name: counts.get(name, 0) for name, unit in PER_LAYER
                   if unit in ("count", "bytes") and name != "cli.nonzero_exit"})
    values.update({
        "solver.bb.nodes_per_s": rate(counts.get("solver.bb.nodes", 0), self_s["solver.bb"]),
        "solver.eccd.inner_sets_per_s": rate(counts.get("solver.eccd.inner_sets", 0),
                                             self_s["solver.eccd"]),
        "graphio.parse.mb_per_s": rate(counts.get("graphio.parse.bytes", 0) / 1e6,
                                       self_s["graphio.parse"]),
        "cli.import_ms": import_ms,
        "cli.startup_ms": startup_ms,
        "cli.nonzero_exit": nonzero + (wl.process_stats or {}).get("nonzero_exit", 0),
        **{f"harness.{k}": v["value"] for k, v in wall_clock(passes, harness).items()},
        "harness.ref_ms": passes.ref_median * 1e3,
        "harness.ref_spread": harness.spread(passes.ref),
        "trace.overhead": overhead,
        "trace.coverage": coverage,
    })
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    extra = {"rounds": passes.rounds, "pass_s": passes.pass_s,
             "traced_pass_s": traced_pass, "baseline_pass_s": baseline,
             "job_self_s": sum(r.get("job", 0.0) for r in self_per_round) / len(tracers)}
    return metrics, extra


def cli_probes(env) -> tuple[float, float, int]:
    """Median wall time of ``import tworoman`` and of ``tworoman --help``."""
    imports, starts, nonzero = [], [], 0
    for _ in range(CLI_PROBES):
        for argv, sink in (([sys.executable, "-c", "import tworoman"], imports),
                           ([sys.executable, "-m", "tworoman", "--help"], starts)):
            elapsed, code = timed_process(argv, env)
            sink.append(elapsed * 1e3)
            nonzero += code != 0
    return statistics.median(imports), statistics.median(starts), nonzero


def pin_to_one_cpu() -> None:
    """Keep the benchmark and the processes it starts on one CPU.

    The two vCPUs of a small VM run at different speeds at the same moment,
    so a job process that lands on the other CPU would not share the speed
    of the reference loop that normalises its time.  Affinity is inherited
    by child processes.
    """
    with contextlib.suppress(AttributeError, OSError):  # not on every OS
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tworoman" / "__init__.py").is_file():
        print(f"error: tworoman sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tworoman

    if Path(tworoman.__file__).resolve().parent != SRC / "tworoman":
        print(f"error: imported tworoman from {tworoman.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    result = run(args)
    if not args.setup_probe:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
