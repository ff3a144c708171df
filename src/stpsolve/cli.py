"""Command-line front end.

Solutions go to stdout (``VALUE <cost>`` plus edge lines with
``--print-tree``); everything else (stats, logs, errors) goes to stderr so
the output can be harnessed.  Exit codes: 0 solved, 2 input or parse error,
3 unsupported instance, 4 timeout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .graph import InputError, StpError, validate_tree
from .instance_io import parse_instance, write_instance, write_solution
from .solver import SolveConfig, TooManyTerminals, solve

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_TIMEOUT = 4


def seconds(text: str) -> float:
    """Argument type: seconds in [0, inf); NaN fails the comparison."""
    value = float(text)
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite time >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stpsolve",
        description="Exact minimum Steiner tree solver for .stp/.gr instances.",
    )
    p.add_argument("input", nargs="?", help="instance file (.stp or .gr)")
    p.add_argument(
        "--bench",
        metavar="DIR",
        help="solve every .stp/.gr file in DIR and emit a CSV summary",
    )
    p.add_argument("--format", choices=("auto", "stp", "gr"), default="auto")
    p.add_argument(
        "--heuristic", choices=("auto", "da", "onetree", "zero"), default="auto"
    )
    p.add_argument("--no-preprocess", action="store_true", help="skip reductions")
    p.add_argument("--no-pruning", action="store_true", help="disable search pruning")
    p.add_argument(
        "--time-limit",
        type=seconds,
        default=None,
        help="seconds per instance, also per file with --bench",
    )
    p.add_argument(
        "--root", type=int, default=None, help="root terminal (original label)"
    )
    p.add_argument("--print-tree", action="store_true", help="print solution edges")
    p.add_argument(
        "--validate", action="store_true", help="recheck the tree independently"
    )
    p.add_argument("--stats", action="store_true", help="emit stats on stderr")
    p.add_argument(
        "--dump-reduced",
        metavar="PATH",
        help="write the preprocessed instance to PATH in .gr format",
    )
    return p


def _make_config(args) -> SolveConfig:
    return SolveConfig(
        preprocess=not args.no_preprocess,
        pruning=not args.no_pruning,
        heuristic=args.heuristic,
        time_limit=args.time_limit,
    )


def _emit_solution(args, parsed, result) -> None:
    if args.print_tree:
        sys.stdout.write(
            write_solution(result.tree, parsed.instance.network, parsed.labels)
        )
    else:
        sys.stdout.write(f"VALUE {result.cost}\n")


def _run_single(args) -> int:
    try:
        text = Path(args.input).read_bytes()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        parsed = parse_instance(text, args.format)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    config = _make_config(args)
    if args.root is not None:
        vid = parsed.label_to_id.get(args.root)
        if vid is None or vid not in parsed.instance.terminals:
            print(f"error: --root {args.root} is not a terminal", file=sys.stderr)
            return EXIT_INPUT
        config.root = vid

    try:
        result = solve(parsed.instance, config)
    except TooManyTerminals as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except StpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    if args.dump_reduced and result.preprocess is None:
        print(
            "--dump-reduced: nothing written, time ran out before preprocessing",
            file=sys.stderr,
        )
    elif args.dump_reduced:
        pre = result.preprocess
        reduced = pre.reduced
        text = write_instance(reduced)
        try:
            Path(args.dump_reduced).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: --dump-reduced: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(
            f"reduction log: {pre.changed} changes, offset {pre.offset}, "
            f"{reduced.network.vertex_count} vertices and "
            f"{reduced.network.edge_count} edges remain",
            file=sys.stderr,
        )

    if args.stats:
        print(json.dumps(result.stats, sort_keys=True), file=sys.stderr)

    if result.status == "timeout":
        print("TIMEOUT", file=sys.stderr)
        if result.tree is not None:
            _emit_solution(args, parsed, result)
        return EXIT_TIMEOUT

    if args.validate:
        recomputed = validate_tree(parsed.instance, result.tree)
        if recomputed != result.cost:
            print("error: validation mismatch", file=sys.stderr)
            return EXIT_INPUT
    _emit_solution(args, parsed, result)
    return EXIT_OK


def _run_bench(args) -> int:
    base = Path(args.bench)
    try:
        files = sorted(
            p for p in base.iterdir() if p.suffix.lower() in (".stp", ".gr")
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    print("file,status,cost,wall_time,expansions,heuristic")
    for path in files:
        started = time.perf_counter()
        try:
            parsed = parse_instance(path.read_bytes(), args.format)
            result = solve(parsed.instance, _make_config(args))
            elapsed = time.perf_counter() - started
            cost = "" if result.cost is None else result.cost
            expansions = result.search.expansions if result.search else ""
            heuristic = result.stats["heuristic"] or ""
            print(
                f"{path.name},{result.status},{cost},{elapsed:.3f},"
                f"{expansions},{heuristic}"
            )
        except TooManyTerminals:
            elapsed = time.perf_counter() - started
            print(f"{path.name},unsupported,,{elapsed:.3f},,")
        except (StpError, OSError) as exc:
            elapsed = time.perf_counter() - started
            print(f"error: {path.name}: {exc}", file=sys.stderr)
            print(f"{path.name},error,,{elapsed:.3f},,")
    return EXIT_OK


def _single_file_flags(args) -> list[str]:
    """The single-file options given in ``args``; ``--bench`` takes none."""
    given = {
        "an instance path": args.input is not None,
        "--root": args.root is not None,
        "--dump-reduced": args.dump_reduced is not None,
        "--print-tree": args.print_tree,
        "--validate": args.validate,
        "--stats": args.stats,
    }
    return [flag for flag, present in given.items() if present]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.bench:
        rejected = _single_file_flags(args)
        if rejected:
            joined = ", ".join(rejected)
            print(f"error: --bench does not take {joined}", file=sys.stderr)
            return EXIT_INPUT
        return _run_bench(args)
    if args.input:
        return _run_single(args)
    parser.print_usage(sys.stderr)
    print("error: an instance file or --bench DIR is required", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
