"""Parse+solve time of each workload with and without the reductions.

    python3 stpbench/preprocess_split.py [--seed 1] [workload ...]

``unit-grid`` and ``wide-cost`` are meant to sit on opposite sides of the
choice to skip the reductions: on ``unit-grid`` they should cost more than
they save, on ``wide-cost`` they should pay off.  This script checks that
after a change to a generator or a workload's shapes.  Each instance is
solved with the default ``SolveConfig`` and with ``preprocess=False`` back
to back, in alternating order; the two costs must agree.  Prints one JSON
object: per workload, the summed seconds of each setting.
"""

from __future__ import annotations

import argparse
import json
import time

import run

run.load_solver()

from families import WORKLOADS, instances  # noqa: E402
from stpsolve import SolveConfig, parse_instance, solve, write_instance  # noqa: E402

SETTINGS = {"reductions_on": SolveConfig(), "reductions_off": SolveConfig(preprocess=False)}


def split(workload: str, seed: int) -> dict[str, float]:
    totals = dict.fromkeys(SETTINGS, 0.0)
    for i, inst in enumerate(instances(WORKLOADS[workload], seed)):
        text = write_instance(inst, fmt="stp")
        order = list(SETTINGS) if i % 2 == 0 else list(reversed(SETTINGS))
        costs = set()
        for name in order:
            start = time.perf_counter()
            costs.add(solve(parse_instance(text).instance, SETTINGS[name]).cost)
            totals[name] += time.perf_counter() - start
        if len(costs) != 1:
            raise SystemExit(f"{workload} instance {i}: costs {sorted(costs)} differ")
    return totals


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    print(json.dumps({w: split(w, args.seed) for w in args.workloads}))


if __name__ == "__main__":
    main()
