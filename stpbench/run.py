"""Seeded solve benchmark for stpsolve.

    python3 stpbench/run.py --workload unit-grid --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the solver from
``src/``.  One process, one instance at a time, no extra threads: a closed
loop with a single client.  Each instance is generated from the seed,
serialised to ``.stp`` text, and timed as ``parse_instance(text)`` plus
``solve(instance)`` with the default ``SolveConfig``.  Every answer passes
the independent gate in ``gate.py``; a wrong tree aborts the run.

``--trace 0`` times passes over the workload's instances until ``--seconds``
is used up (at least one pass) and prints the end-to-end metrics.  Their
times are scaled to a reference machine speed measured next to every timed
step (see ``calibrate.py``); the wall totals go to standard error.
``--trace 1`` solves each instance once untraced and once traced, one
right after the other, and prints the per-layer metrics.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from calibrate import SpeedMeter, timed

CHECKOUT = Path(__file__).resolve().parent.parent
SOURCES = CHECKOUT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
IMPORT_REPEATS = 15


def log(message: str):
    print(f"stpbench: {message}", file=sys.stderr, flush=True)


def load_solver():
    """Import stpsolve from the checkout's sources."""
    if not (SOURCES / "stpsolve" / "__init__.py").is_file():
        raise SystemExit(f"stpbench: no solver sources under {SOURCES}")
    sys.path.insert(0, str(SOURCES))
    import stpsolve  # noqa: F401


def _solver_modules() -> list[str]:
    return [name for name in sys.modules if name.partition(".")[0] == "stpsolve"]


def import_seconds(meter: SpeedMeter) -> float:
    """Median scaled time of importing ``stpsolve`` afresh.

    Each repeat drops the package's modules from ``sys.modules`` and imports
    it again (the standard library stays loaded).  The modules loaded before
    are put back afterwards, so objects made from them stay valid.
    """
    loaded = {name: sys.modules[name] for name in _solver_modules()}

    def fresh_import() -> float:
        for name in _solver_modules():
            del sys.modules[name]
        return timed(lambda: importlib.import_module("stpsolve"))

    try:
        return statistics.median(meter.scaled(fresh_import for _ in range(IMPORT_REPEATS)))
    finally:
        for name in _solver_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


def generate(shapes, seed: int):
    """The workload's instances at ``seed`` and their ``.stp`` texts."""
    from families import instances
    from stpsolve import write_instance

    generated = instances(shapes, seed)
    return generated, [write_instance(inst, fmt="stp") for inst in generated]


def setup_seconds(shapes, seed: int, meter: SpeedMeter) -> float:
    """``setup_s``: median scaled import time plus median scaled time of
    generating and serialising the instances."""
    rounds = meter.scaled(
        (lambda: timed(lambda: generate(shapes, seed))) for _ in range(SETUP_REPEATS)
    )
    return import_seconds(meter) + statistics.median(rounds)


class Bench:
    """One workload's instances at one seed, their optima, and timed passes."""

    def __init__(self, shapes, seed: int):
        self.instances, self.texts = generate(shapes, seed)
        self.optima: list[int] = []
        self.attempted = 0
        self.failed = 0

    def load_optima(self):
        """Known optima where the digests match, the second path elsewhere.

        The second path runs in ``optima.py``, a child process that this one
        waits for, so that its memory does not count towards the run's
        ``peak_rss_mb``.
        """
        from gate import digest, known_optima

        digests = [digest(text) for text in self.texts]
        known = known_optima()
        missing = [i for i, d in enumerate(digests) if d not in known]
        if missing:
            start = time.perf_counter()
            child = subprocess.run(
                [sys.executable, str(Path(__file__).with_name("optima.py"))],
                input=json.dumps([
                    (inst.network.vertex_count, inst.network.edges, sorted(inst.terminals))
                    for inst in (self.instances[i] for i in missing)
                ]),
                capture_output=True, text=True, check=True,
            )
            log(f"{len(missing)} reference optima in {time.perf_counter() - start:.1f} s")
            known.update(zip((digests[i] for i in missing), json.loads(child.stdout)))
        self.optima = [known[d] for d in digests]

    def solve_one(self, i: int, tracer=None):
        """Time parse + solve of instance ``i``, gate the answer.

        Returns (seconds, SolveResult or None if the solve failed).
        """
        from gate import check_answer
        from stpsolve import parse_instance, solve

        self.attempted += 1
        if tracer is None:
            span = lambda name: nullcontext()  # noqa: E731
        else:
            tracer.request = i
            span = tracer.span
        start = time.perf_counter()
        try:
            with span("bench.parse"):
                parsed = parse_instance(self.texts[i])
            with span("bench.solve"):
                result = solve(parsed.instance)
        except Exception:  # a failed solve is counted, not fatal
            elapsed = time.perf_counter() - start
            log(f"instance {i} raised:\n{traceback.format_exc()}")
            self.failed += 1
            return elapsed, None
        elapsed = time.perf_counter() - start
        if result.status != "optimal":
            log(f"instance {i} ended with status {result.status}")
            self.failed += 1
            return elapsed, None
        check_answer(self.instances[i], parsed, result.tree, self.optima[i])
        return elapsed, result

    def timed_pass(self):
        return [self.solve_one(i) for i in range(len(self.texts))]


def end_to_end(bench: Bench, setup_s: float, seconds: float, meter: SpeedMeter) -> dict:
    """Untraced passes until ``seconds`` is used up; the end-to-end metrics.

    Every solve is scaled by the kernel samples on its two sides (see
    ``calibrate.py``); ``setup_s`` comes already scaled.
    """
    n = len(bench.texts)
    passes: list[list[float]] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        # Keep only the time of each solve; its result is dropped at once.
        passes.append(meter.scaled((lambda i=i: bench.solve_one(i)[0]) for i in range(n)))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    per_instance = [statistics.median(times) for times in zip(*passes)]
    log(f"{len(passes)} passes over {n} instances in {now - start:.1f} s of wall time")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "total_s": (sum(per_instance), "s"),
        "solve_s.p50": (statistics.median(per_instance), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "solved_frac": (1 - bench.failed / bench.attempted, "frac"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(bench: Bench) -> dict:
    """Each instance untraced and traced in turn; the per-layer metrics.

    The two solves of an instance run back to back, in alternating order,
    so that drift in the machine's speed and the order itself cancel out of
    the per-instance ratios behind ``trace.overhead_frac``.
    """
    from layers import layer_metrics
    from tracing import Tracer, installed

    tracer = Tracer()
    results, ratios = [], []
    for i, inst in enumerate(bench.instances):
        traced_first = i % 2 == 1
        if not traced_first:
            untraced, _ = bench.solve_one(i)
        with installed(tracer):
            traced, result = bench.solve_one(i, tracer)
        if traced_first:
            untraced, _ = bench.solve_one(i)
        results.append((inst.network.edge_count, result))
        ratios.append(traced / untraced)
    return layer_metrics(tracer, results, statistics.median(ratios) - 1.0)


def main(argv=None) -> int:
    # A SIGTERM unwinds like an exception, so that ``subprocess.run`` kills
    # and reaps the child it is waiting for before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_solver()
    from families import WORKLOADS
    from gate import GateFailure

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    shapes = WORKLOADS[args.workload]
    if not args.trace:
        meter = SpeedMeter()
        setup_s = setup_seconds(shapes, args.seed, meter)
    bench = Bench(shapes, args.seed)
    bench.load_optima()
    try:
        if args.trace:
            metrics = per_layer(bench)
        else:
            metrics = end_to_end(bench, setup_s, args.seconds, meter)
    except GateFailure as exc:
        log(f"correctness gate failed: {exc}")
        print(json.dumps({"correct": False, "attempted": bench.attempted,
                          "failed": bench.failed, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
