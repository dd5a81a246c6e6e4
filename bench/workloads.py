"""Seeded inputs, timed jobs and correctness checks of the three workloads.

Every input is derived from the workload seed; the program under test only
sees the generated graphs and files.  A job is the unit that is timed: one
batch of calls into the public library (``bb_exact``, ``eccd_auto``) or one
``python -m tworoman`` process (``cli_io``).  Each job carries a golden answer,
computed once before timing by a route other than the timed one, and a check
that every timed output must pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import refloop
from tworoman import cli, families, graphio, solver, tilings
from tworoman.graph import Graph, build_graph, induced_subgraph
from tworoman.labeling import Labeling, validate

CLI_TIMEOUT_S = 60


class JobFailure(Exception):
    """A job's output disagrees with its golden answer."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise JobFailure(what)


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], None]
    golden: Callable[[], Any]
    manifest: dict
    # In-process form of a CLI job; the traced run replays it to record spans.
    replay: Callable[[], Any] | None = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    warmup: Callable[[], Any]
    # Filled by CLI jobs: peak RSS over their processes and nonzero exits.
    process_stats: dict | None = None
    # One reference sample in seconds, and how many to take before each job.
    # Three in-process loops give a round of five jobs fifteen samples,
    # enough for their mean to follow the host's speed.
    reference: Callable[[], float] = refloop.time_reference
    ref_reps: int = 3

    def peak_rss_mb(self) -> float:
        """Own peak RSS for library workloads, the largest job process's for
        the CLI workload."""
        if self.process_stats is not None:
            return self.process_stats["peak_rss_kb"] / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# seeded graphs and the input manifest
# ---------------------------------------------------------------------------


def _rng(seed: int, tag: str) -> random.Random:
    # One stream per input, so adding an input never shifts the others.
    return random.Random(f"tworoman-bench:{seed}:{tag}")


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if rng.random() < p])


def _gnm(n: int, m: int, rng: random.Random) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, rng.sample(pairs, m))


def _cycle(n: int) -> Graph:
    return families.generate(families.FamilySpec("cycle", (n,)))


def _grid(rows: int, cols: int) -> Graph:
    return families.generate(families.FamilySpec("grid", (rows, cols)))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _graph_hash(g: Graph) -> str:
    text = f"{g.order}:" + ",".join(f"{u}-{v}" for u, v in g.edges())
    return _sha(text.encode())


def _graph_manifest(name: str, graphs: list[Graph]) -> dict:
    return {"job": name, "graphs": len(graphs),
            "order": sum(g.order for g in graphs),
            "edges": sum(g.edge_count() for g in graphs),
            "input_sha256": _sha("|".join(_graph_hash(g) for g in graphs).encode())}


def _components(g: Graph) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in g.vertices():
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        out.append(sorted(comp))
    return out


def _gamma_bb_by_component(g: Graph) -> int:
    """B&B gamma summed over connected components (gamma is additive)."""
    return sum(solver.gamma_bruteforce(induced_subgraph(g, comp)).gamma
               for comp in _components(g))


def _cycle_gamma(g: Graph) -> int:
    """Closed form for cycles: n - n//5."""
    return g.order - g.order // 5


# Both exact routes (gamma_bruteforce and gamma_via_eccd) agreed on these when
# the corpus was built.  They are stored because B&B on grid 4x5 alone takes
# about 9 s, too long to repeat in every run.
RECORDED_GAMMA = {"grid4x5": 14, "triball2": 12}


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def _check_witness(g: Graph, result, gamma: int, method: str) -> None:
    _expect(result.stats.method == method,
            f"ran {result.stats.method}, expected {method}")
    _expect(result.gamma == gamma, f"gamma {result.gamma} != golden {gamma}")
    _expect(result.optimal_number == g.order - gamma, "optimal number")
    lab = result.labeling
    _expect(lab.graph == g, "witness is for another graph")
    _expect(lab.weight == gamma, f"witness weight {lab.weight} != {gamma}")
    _expect(validate(lab, 2).valid, "witness is not a valid 2-attack labeling")


def _check_certificate(g: Graph, answer, gamma: int) -> None:
    optimal, cert = answer
    _expect(optimal == (gamma < g.order), "is_optimal verdict")
    if not optimal:
        _expect(cert is None, "certificate for a sub-optimal graph")
        return
    path = cert.path
    _expect(len(set(path)) == 5, "certificate repeats a vertex")
    _expect(all(g.has_edge(a, b) for a, b in zip(path, path[1:])),
            "certificate is not a path")
    _expect(tuple(cert.labeling.labels[v] for v in path) == (0, 2, 0, 2, 0),
            "certificate path is not labeled 0-2-0-2-0")
    _expect(cert.labeling.weight == gamma, "certificate labeling weight")
    _expect(validate(cert.labeling, 2).valid, "certificate labeling invalid")


_BRUTEFORCE = solver.SolveOptions(method="bruteforce")


def _bb_job(name: str, graphs: list[Graph], golden: Callable[[Graph], int]) -> Job:
    def run():
        return [solver.solve(g, _BRUTEFORCE) for g in graphs]

    def check(results, gammas):
        for g, r, gamma in zip(graphs, results, gammas, strict=True):
            _check_witness(g, r, gamma, "bruteforce")

    return Job(name, run, check, lambda: [golden(g) for g in graphs],
               _graph_manifest(name, graphs))


def _memo(fn):
    cache = []

    def wrapped():
        if not cache:
            cache.append(fn())
        return cache[0]
    return wrapped


def _eccd_jobs(name: str, graphs: list[Graph], golden: Callable[[Graph], int]) -> list[Job]:
    """A ``solve`` job and an ``is_optimal`` job over the same graphs.

    Two shorter jobs rather than one: the p90 then rests on twice as many
    samples of the largest graph.
    """
    def solve():
        return [solver.solve(g) for g in graphs]

    def optimal():
        return [solver.is_optimal(g) for g in graphs]

    def check_solve(results, gammas):
        for g, r, gamma in zip(graphs, results, gammas, strict=True):
            _check_witness(g, r, gamma, "eccd")

    def check_optimal(answers, gammas):
        for g, answer, gamma in zip(graphs, answers, gammas, strict=True):
            _check_certificate(g, answer, gamma)

    gammas = _memo(lambda: [golden(g) for g in graphs])
    manifest = _graph_manifest(name, graphs)
    return [Job(f"{name}.solve", solve, check_solve, gammas, manifest),
            Job(f"{name}.optimal", optimal, check_optimal, gammas,
                {**manifest, "job": f"{name}.optimal"})]


def _eccd_gamma(g: Graph) -> int:
    return solver.gamma_via_eccd(g).gamma


def build_bb_exact(seed: int, size: str) -> Workload:
    """B&B optimum pass plus lex-first witness pass; ECCD never runs timed."""
    if size == "smoke":
        jobs = [_bb_job("C10", [_cycle(10)], _cycle_gamma),
                _bb_job("grid3x3", [_grid(3, 3)], _eccd_gamma),
                _bb_job("gnp10_p0.3", [_gnp(10, 0.3, _rng(seed, "gnp10"))], _eccd_gamma)]
    else:
        # C15 solves in ~85 ms, so its job solves it twice.
        jobs = [_bb_job("C15x2", [_cycle(15)] * 2, _cycle_gamma)]
        jobs += [_bb_job(f"C{n}", [_cycle(n)], _cycle_gamma) for n in (16, 17, 18)]
        jobs += [_bb_job(f"grid{r}x{c}", [_grid(r, c)], _eccd_gamma)
                 for r, c in ((3, 5), (4, 4), (3, 6))]
        # The square ball of radius 2 has 13 vertices and solves in ~5 ms, so
        # one job solves it 24 times to stay above the ~100 ms job floor.
        jobs.append(_bb_job("sqball2x24", [tilings.ball_graph("square", 2)] * 24,
                            _eccd_gamma))
        # Seeded G(12, p), p cycling through 0.2, 0.3, 0.5.  The B&B cost of
        # one random graph varies by ~100% (quartile spread) between seeds;
        # 24 small graphs in one job bring that to ~18% and keep the seeded
        # share of the pass near 7%, so the pass does not track the seed.
        graphs = [_gnp(12, (0.2, 0.3, 0.5)[k % 3], _rng(seed, f"gnp12:{k}"))
                  for k in range(24)]
        jobs.append(_bb_job("gnp12x24", graphs, _eccd_gamma))
    warm = _cycle(8)
    return Workload("bb_exact", jobs, lambda: solver.solve(warm, _BRUTEFORCE))


def build_eccd_auto(seed: int, size: str) -> Workload:
    """Default solve (auto picks ECCD) plus is_optimal; B&B never runs timed."""
    if size == "smoke":
        jobs = (_eccd_jobs("C12", [_cycle(12)], _cycle_gamma)
                + _eccd_jobs("gnm12_m12", [_gnm(12, 12, _rng(seed, "gnm12"))],
                             _gamma_bb_by_component))
    else:
        jobs = _eccd_jobs("C20", [_cycle(20)], _cycle_gamma)
        jobs += _eccd_jobs("grid4x5", [_grid(4, 5)], lambda g: RECORDED_GAMMA["grid4x5"])
        # 19 vertices, ~55 ms per call: four calls per job.
        jobs += _eccd_jobs("triball2x4", [tilings.ball_graph("triangular", 2)] * 4,
                           lambda g: RECORDED_GAMMA["triball2"])
        # Seeded sparse G(n, m = n).  Between seeds, the cost of one graph
        # varies by ~60% (quartile spread) at n = 20 and by ~13% at n = 19;
        # eight graphs of order 16 vary by ~11%.  Together they are ~20% of
        # the pass.
        jobs += _eccd_jobs("gnm19_m19", [_gnm(19, 19, _rng(seed, "gnm19"))],
                           _gamma_bb_by_component)
        graphs = [_gnm(16, 16, _rng(seed, f"gnm16:{k}")) for k in range(8)]
        jobs += _eccd_jobs("gnm16_m16x8", graphs, _gamma_bb_by_component)
    warm = _cycle(8)
    return Workload("eccd_auto", jobs, lambda: solver.solve(warm))


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


def cli_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return env


def wait_process(argv: list[str], cwd, env: dict, stdout, stderr):
    """Start a process and block until it exits; returns (code, rusage).

    A blocking wait4 gives the child's own peak RSS and, unlike
    ``Popen.wait(timeout)``, does not poll in steps of up to 50 ms.  A
    watchdog kills a process that hangs.
    """
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=cwd, env=env)
    watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_cli_process(argv: list[str], workdir: str, env: dict) -> CliOutcome:
    """One ``python -m tworoman`` process, outputs captured in files."""
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, usage = wait_process([sys.executable, "-m", "tworoman", *argv],
                                   workdir, env, out, err)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return CliOutcome(code, stdout, stderr, usage.ru_maxrss)


def run_cli_inprocess(argv: list[str]) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_main(list(argv))
    return CliOutcome(code, out.getvalue(), err.getvalue())


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _torus_labeling(kind: str, width: int, height: int, rng: random.Random):
    """The built-in periodic pattern, shifted by a seeded translation.

    A translate of a valid periodic labeling on a compatible torus is the
    image of it under a graph automorphism, so it is valid too.
    """
    patch = tilings.generate_patch(tilings.PatchSpec(kind, width, height, "torus"))
    pattern = tilings.find_pattern(kind)
    dx, dy = rng.randrange(width), rng.randrange(height)
    labels = tuple(pattern.label_at(x + dx, y + dy)
                   for y in range(height) for x in range(width))
    return Labeling(patch.graph, labels)


def _hub_labeling(hubs: int, zeros: int, rng: random.Random) -> Labeling:
    """2-labeled hubs, every 0 joined to three of them: valid at attack 3,
    so validation enumerates every 3-subset of the zeros."""
    edges = [(h, hubs + i) for i in range(zeros) for h in rng.sample(range(hubs), 3)]
    ext = list(range(hubs + zeros))
    rng.shuffle(ext)
    g = build_graph(hubs + zeros, edges, external_ids=ext)
    return Labeling(g, tuple([2] * hubs + [0] * zeros))


def _json_out(outcome: CliOutcome) -> dict:
    _expect(outcome.code == 0, f"exit code {outcome.code}: {outcome.stderr.strip()[:200]}")
    try:
        return json.loads(outcome.stdout)
    except json.JSONDecodeError:
        raise JobFailure(f"stdout is not JSON: {outcome.stdout[:200]!r}") from None


def _labeling_from_doc(g: Graph, doc: dict) -> Labeling:
    labels = [None] * g.order
    for ext, lab in doc["labels"].items():
        labels[g.internal_id(int(ext))] = lab
    return Labeling(g, tuple(labels))


class _CliBuilder:
    def __init__(self, workdir: str, env: dict):
        self.workdir = workdir
        self.env = env
        self.jobs: list[Job] = []
        self.stats = {"peak_rss_kb": 0, "nonzero_exit": 0}

    def run_process(self, argv: list[str]) -> CliOutcome:
        outcome = run_cli_process(argv, self.workdir, self.env)
        self.stats["peak_rss_kb"] = max(self.stats["peak_rss_kb"], outcome.maxrss_kb)
        self.stats["nonzero_exit"] += outcome.code != 0
        return outcome

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def add(self, name: str, argv: list[str], check, golden, inputs=(), meta=None):
        rel = [os.path.relpath(a, self.workdir) if a.startswith(self.workdir) else a
               for a in argv]
        digest = "|".join([" ".join(rel)] + [_file_sha(p) for p in inputs])
        manifest = {"job": name, "argv": rel, **(meta or {}),
                    "input_sha256": _sha(digest.encode())}
        self.jobs.append(Job(
            name,
            lambda: self.run_process(argv),
            check, golden, manifest,
            replay=lambda: run_cli_inprocess(argv)))

    def graph_file(self, name: str, g: Graph, labeling: Labeling | None = None) -> str:
        path = self.path(name)
        _write(path, graphio.write_graph_file(g, labeling))
        return path


def _graph_meta(g: Graph) -> dict:
    return {"order": g.order, "edges": g.edge_count()}


def build_cli_io(seed: int, size: str, workdir: str, src_dir: str) -> Workload:
    """Whole ``tworoman`` processes over files written during set-up."""
    smoke = size == "smoke"
    b = _CliBuilder(workdir, cli_env(src_dir))

    # validate (attack 2) on large labeled tori, with --json and --dot
    tori = ((("square", 14, 14), ("hexagonal", 12, 12), ("triangular", 18, 18))
            if smoke else
            (("square", 140, 140), ("hexagonal", 90, 90), ("triangular", 90, 90)))
    for kind, w, h in tori:
        lab = _torus_labeling(kind, w, h, _rng(seed, f"torus:{kind}"))
        g = lab.graph
        src = b.graph_file(f"{kind}_torus.txt", g, lab)
        dot = b.path(f"{kind}_torus.dot")

        def check(o, gold, dot=dot):
            doc = _json_out(o)
            _expect(doc == {"valid": True, "attack_n": 2, "weight": gold["weight"],
                            "witness": None}, f"validate output {doc}")
            with open(dot, encoding="utf-8") as fh:
                lines = fh.read().count("\n")
            os.remove(dot)  # the next run must write it again
            _expect(lines == 3 + gold["order"] + gold["edges"], "dot line count")

        gold = {"weight": lab.weight, "order": g.order, "edges": g.edge_count()}
        b.add(f"validate_{kind}{w}x{h}", ["validate", src, "--json", "--dot", dot],
              check, lambda gold=gold: gold, [src], _graph_meta(g))

    # validate --attack 3 on a valid labeling: subset enumeration runs to the end
    hub = _hub_labeling(5, 20 if smoke else 120, _rng(seed, "hubs"))
    src = b.graph_file("hubs_a3.txt", hub.graph, hub)

    def check_a3(o, weight):
        doc = _json_out(o)
        _expect(doc == {"valid": True, "attack_n": 3, "weight": weight, "witness": None},
                f"validate --attack 3 output {doc}")

    b.add("validate_a3_hubs", ["validate", src, "--attack", "3", "--json"],
          check_a3, lambda: hub.weight, [src], _graph_meta(hub.graph))

    # solve variants on seeded small graphs
    n_solve = 8 if smoke else 12
    g_solve = _gnp(n_solve, 0.3, _rng(seed, "solve"))
    src = b.graph_file("solve.txt", g_solve)

    def enum_golden():
        labs = solver.enumerate_minimum_labelings(g_solve)
        gamma_eccd = solver.gamma_via_eccd(g_solve).gamma
        _expect(labs[0].weight == gamma_eccd, "B&B and ECCD disagree on solve.txt")
        twos = [lab.labels.count(2) for lab in labs]
        return {"gamma": gamma_eccd, "all": [list(lab.labels) for lab in labs],
                "twos": sorted(set(twos))}

    golden_enum = _memo(enum_golden)

    def check_solved(doc, gamma):
        _expect(doc["gamma"] == gamma, f"gamma {doc['gamma']} != golden {gamma}")
        lab = _labeling_from_doc(g_solve, doc)
        _expect(lab.weight == gamma, "witness weight")
        _expect(validate(lab, 2).valid, "witness invalid at attack 2")
        return lab

    def check_all(o, gold):
        doc = _json_out(o)
        check_solved(doc, gold["gamma"])
        _expect(doc["all_minimum"] == gold["all"], "minimum labelings differ")
        _expect(doc["feasible_two_counts"] == gold["twos"], "feasible 2-counts differ")

    b.add("solve_all", ["solve", src, "--all", "--json"], check_all, golden_enum,
          [src], _graph_meta(g_solve))
    for mode, pick in (("min", min), ("max", max)):
        def check_mode(o, gold, pick=pick):
            doc = _json_out(o)
            lab = check_solved(doc, gold["gamma"])
            _expect(lab.labels.count(2) == pick(gold["twos"]), "extremal 2-count")

        b.add(f"solve_twos_{mode}", ["solve", src, "--two-mode", mode, "--json"],
              check_mode, golden_enum, [src], _graph_meta(g_solve))

    cap = 1

    def check_capped(o, gamma):
        doc = _json_out(o)
        lab = check_solved(doc, gamma)
        _expect(lab.labels.count(2) <= cap, "more 2s than --max-twos")

    b.add("solve_max_twos", ["solve", src, "--max-twos", str(cap), "--json"],
          check_capped, lambda: solver.solve_finite_resources(g_solve, cap).gamma,
          [src], _graph_meta(g_solve))

    g_attack = _gnp(7 if smoke else 12, 0.3, _rng(seed, "attack"))
    src_attack = b.graph_file("attack.txt", g_attack)
    for attack in (1, 3):
        def check_attack(o, gamma, attack=attack):
            doc = _json_out(o)
            _expect(doc["gamma"] == gamma, f"gamma {doc['gamma']} != golden {gamma}")
            lab = _labeling_from_doc(g_attack, doc)
            _expect(lab.weight == gamma, "witness weight")
            _expect(validate(lab, attack).valid, f"witness invalid at attack {attack}")

        opts = solver.SolveOptions(attack_n=attack, method="bruteforce")
        b.add(f"solve_attack{attack}",
              ["solve", src_attack, "--attack", str(attack), "--method", "bruteforce",
               "--json"],
              check_attack, lambda opts=opts: solver.gamma_bruteforce(g_attack, opts).gamma,
              [src_attack], _graph_meta(g_attack))

    # optimal and density on fixed mid-size graphs
    g_opt = _cycle(12) if smoke else _grid(4, 5)
    src = b.graph_file("optimal.txt", g_opt)

    def check_optimal(o, gamma):
        doc = _json_out(o)
        _expect(doc["optimal"] == (gamma < g_opt.order), "optimal verdict")
        _expect(doc["optimal_number"] == g_opt.order - gamma, "optimal number")
        path = [g_opt.internal_id(v) for v in doc["certificate"]]
        _expect(len(set(path)) == 5 and all(
            g_opt.has_edge(a, b) for a, b in zip(path, path[1:])), "certificate path")

    b.add("optimal", ["optimal", src, "--json"], check_optimal,
          (lambda: _cycle_gamma(g_opt)) if smoke else (lambda: RECORDED_GAMMA["grid4x5"]),
          [src], _graph_meta(g_opt))

    g_den = _cycle(10) if smoke else tilings.ball_graph("triangular", 2)
    src = b.graph_file("density.txt", g_den)

    def check_density(o, gamma):
        doc = _json_out(o)
        frac = Fraction(gamma, g_den.order)
        _expect((doc["numerator"], doc["denominator"]) == (frac.numerator, frac.denominator),
                f"density {doc}")

    b.add("density", ["density", src, "--json"], check_density,
          (lambda: _cycle_gamma(g_den)) if smoke else (lambda: RECORDED_GAMMA["triball2"]),
          [src], _graph_meta(g_den))

    # generators and tilings at large sizes
    side = 10 if smoke else 120
    out = b.path("gen_grid.txt")

    def check_file(o, digest, out_path):
        _expect(o.code == 0, f"exit code {o.code}: {o.stderr.strip()[:200]}")
        digest_out = _file_sha(out_path)
        os.remove(out_path)  # the next run must write it again
        _expect(digest_out == digest, f"{os.path.basename(out_path)} differs")

    b.add("gen_grid", ["gen", "grid", str(side), str(side), "-o", out],
          lambda o, d, out=out: check_file(o, d, out),
          lambda: _sha(graphio.write_graph_file(_grid(side, side)).encode()))

    w = 18 if smoke else 90

    def check_verify(o, order):
        doc = _json_out(o)
        _expect(doc["valid"] is True and doc["density"] == "4/9" and doc["order"] == order,
                f"tiling --verify-pattern output {doc}")

    b.add(f"tiling_verify_triangular{w}x{w}",
          ["tiling", "triangular", "--size", f"{w}x{w}", "--verify-pattern", "--json"],
          check_verify, lambda w=w: w * w)

    w = 14 if smoke else 140
    out = b.path("square_patch.txt")
    spec = tilings.PatchSpec("square", w, w, "torus")
    b.add(f"tiling_torus_square{w}x{w}",
          ["tiling", "square", "--size", f"{w}x{w}", "--wrap", "torus", "-o", out],
          lambda o, d, out=out: check_file(o, d, out),
          lambda: _sha(graphio.write_graph_file(tilings.generate_patch(spec).graph).encode()))

    # CLI jobs are processes, so their reference is the loop run as a process:
    # process start and import slow down differently from pure Python work.
    ref_argv = [sys.executable, refloop.__file__]

    def reference():
        t0 = time.perf_counter()
        wait_process(ref_argv, workdir, b.env, subprocess.DEVNULL, subprocess.DEVNULL)
        return time.perf_counter() - t0

    return Workload("cli_io", b.jobs,
                    lambda: run_cli_process(["--help"], workdir, b.env), b.stats,
                    reference, ref_reps=1)


def build(name: str, seed: int, size: str, workdir: str, src_dir: str) -> Workload:
    if name == "bb_exact":
        return build_bb_exact(seed, size)
    if name == "eccd_auto":
        return build_eccd_auto(seed, size)
    if name == "cli_io":
        return build_cli_io(seed, size, workdir, src_dir)
    raise ValueError(f"unknown workload {name!r}")

