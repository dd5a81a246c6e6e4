"""Command-line interface.

Exit codes: 0 success (or valid labeling), 1 invalid labeling, 2 usage or
parse errors.

Each command imports the solver, family and tiling modules it runs inside its
own function, so ``validate`` and ``gen`` never load the solver.  A command
runs with the cyclic collector paused: its graph stays live to the end, and
the searches leave no reference cycles, so each pass frees its state on return.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import graphio, limits
from .errors import BadSpecError, TwoRomanError
from .labeling import validate

_TWO_MODE = {"any": "any", "min": "minimize_twos", "max": "maximize_twos"}


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(path: str) -> graphio.ParseResult:
    with open(path, "r", encoding="utf-8") as fh:
        parsed = graphio.parse_graph_file(fh.read())
    for warning in parsed.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return parsed


def _ext_ids(graph, vertices):
    return [graph.external_id(v) for v in vertices]


def _cmd_validate(args) -> int:
    parsed = _load(args.file)
    if parsed.labeling is None:
        raise ValueError("file has no labels to validate")
    report = validate(parsed.labeling, args.attack)
    witness = None if report.witness is None else _ext_ids(parsed.graph, report.witness)
    if args.json:
        print(json.dumps({
            "valid": report.valid,
            "attack_n": args.attack,
            "weight": parsed.labeling.weight,
            "witness": witness,
        }, sort_keys=True))
    elif report.valid:
        print(f"valid (attack {args.attack}, weight {parsed.labeling.weight})")
    else:
        print(f"invalid (attack {args.attack}); witness: {witness}")
    if args.dot:
        _emit(graphio.to_dot(parsed.graph, parsed.labeling), args.dot)
    return 0 if report.valid else 1


def _cmd_solve(args) -> int:
    from . import solver

    parsed = _load(args.file)
    opts = solver.SolveOptions(
        attack_n=args.attack,
        max_twos=args.max_twos,
        two_mode=_TWO_MODE[args.two_mode],
        method=args.method,
        enumerate_all=args.all,
    )
    result = solver.solve(parsed.graph, opts)
    by_id = sorted(range(parsed.graph.order), key=parsed.graph.external_ids.__getitem__)
    vectors = None if result.all_minimum is None else [
        [lab.labels[v] for v in by_id] for lab in result.all_minimum]
    if args.json:
        extra = {
            "gamma": result.gamma,
            "optimal_number": result.optimal_number,
            "stats": {name: getattr(result.stats, name)
                      for name in result.stats.__match_args__},
        }
        if result.feasible_two_counts is not None:
            extra["feasible_two_counts"] = list(result.feasible_two_counts)
        if vectors is not None:
            extra["all_minimum"] = vectors
        doc = graphio.structured_document(parsed.graph, result.labeling)
        doc.update(extra)
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"gamma: {result.gamma}")
        print(f"optimal number: {result.optimal_number}")
        print("labeling:")
        sys.stdout.write(graphio.write_graph_file(parsed.graph, result.labeling))
        if result.feasible_two_counts is not None:
            print(f"feasible counts of 2-labels: {list(result.feasible_two_counts)}")
        if vectors is not None:
            print(f"minimum labelings: {len(vectors)}")
            for vector in vectors:
                print("  " + ",".join(str(x) for x in vector))
    if args.dot:
        _emit(graphio.to_dot(parsed.graph, result.labeling), args.dot)
    return 0


def _cmd_optimal(args) -> int:
    from . import solver

    parsed = _load(args.file)
    graph = parsed.graph
    verdict, cert = solver.is_optimal(graph)
    number = graph.order - cert.labeling.weight if verdict else 0
    path = _ext_ids(graph, cert.path) if verdict else None
    if args.json:
        print(json.dumps({"optimal": verdict, "optimal_number": number,
                          "certificate": path}, sort_keys=True))
    elif verdict:
        print(f"optimal (optimal number {number})")
        print(f"certificate 0-2-0-2-0 path: {'-'.join(str(x) for x in path)}")
    else:
        print("sub-optimal (optimal number 0)")
    if args.dot:
        _emit(graphio.to_dot(graph, cert.labeling if verdict else None), args.dot)
    return 0


def _cmd_density(args) -> int:
    from . import families

    parsed = _load(args.file)
    dens = families.density(parsed.graph)
    if args.json:
        print(json.dumps({"density": str(dens), "numerator": dens.numerator,
                          "denominator": dens.denominator}, sort_keys=True))
    else:
        print(f"density: {dens}")
    return 0


def _cmd_gen(args) -> int:
    from . import families

    spec = families.FamilySpec(args.family, tuple(args.params))
    graph = families.generate(spec)
    _emit(graphio.write_graph_file(graph), args.output)
    return 0


def _parse_size(text: str) -> tuple[int, int]:
    try:  # a part that is no int and a count other than two both raise ValueError
        width, height = map(int, text.lower().split("x"))
    except ValueError:
        raise BadSpecError(f"size must look like WxH, got {text!r}") from None
    return width, height


def _cmd_tiling(args) -> int:
    from . import tilings

    if args.dump_pattern:
        sys.stdout.write(tilings.pattern_table(tilings.find_pattern(args.kind)))
        return 0
    if args.size is None:
        raise BadSpecError("--size is required")
    width, height = _parse_size(args.size)
    if args.verify_pattern:
        pattern = tilings.find_pattern(args.kind)
        report = tilings.verify_pattern(pattern, [(width, height)])[0]
        if args.json:
            print(json.dumps({
                "kind": args.kind, "width": width, "height": height,
                "valid": report.valid, "density": str(report.density),
                "weight": report.weight, "order": report.order,
            }, sort_keys=True))
        else:
            verdict = "valid" if report.valid else "invalid"
            print(f"{verdict}, density {report.density}")
        return 0 if report.valid else 1
    patch = tilings.generate_patch(tilings.PatchSpec(args.kind, width, height, args.wrap))
    _emit(graphio.write_graph_file(patch.graph), args.output)
    if args.dot:
        _emit(graphio.to_dot(patch.graph), args.dot)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tworoman",
        description="Exact n-attack Roman domination solver (focus n=2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a labeled graph file")
    p.add_argument("file")
    p.add_argument("--attack", type=int, default=2)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="compute a minimum labeling")
    p.add_argument("file")
    p.add_argument("--attack", type=int, default=2)
    p.add_argument("--max-twos", type=int, default=None, dest="max_twos")
    p.add_argument("--two-mode", choices=sorted(_TWO_MODE), default="any",
                   dest="two_mode")
    p.add_argument("--method", choices=limits.METHODS, default="auto")
    p.add_argument("--all", action="store_true",
                   help="enumerate every minimum labeling")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("optimal", help="optimality verdict and certificate")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="FILE")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("density", help="exact density gamma/order")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("gen", help="generate a family graph file")
    p.add_argument("family", choices=limits.FAMILY_KINDS)
    p.add_argument("params", type=int, nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("tiling", help="lattice patches and periodic patterns")
    p.add_argument("kind", choices=limits.LATTICE_KINDS)
    p.add_argument("--size", default=None, metavar="WxH")
    p.add_argument("--wrap", choices=("open", "torus"), default="open")
    p.add_argument("--verify-pattern", action="store_true", dest="verify_pattern")
    p.add_argument("--dump-pattern", action="store_true", dest="dump_pattern")
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", metavar="FILE")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_tiling)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        limits.enumeration_max_order()  # a bad override is a usage error everywhere
        return args.func(args)
    except (TwoRomanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if was_enabled:
            gc.enable()


def main():
    raise SystemExit(cli_main())
