"""Print SHA-256 digests over the answers of every seed-1-3 benchmark solve.

    python3 tools/solve_digest.py

Runs from anywhere in a source checkout and imports the solver from
``src/`` and the instance families from ``stpbench/families.py``.  For each
workload and each seed 1 to 3, every instance is written as ``.stp`` text,
parsed and solved with the default ``SolveConfig``, as ``stpbench/run.py``
does.  The first line covers each solve's status, cost, tree edges and
``stats`` without their ``wall_time`` keys, so two checkouts that print the
same first line gave byte-identical answers on all 288 solves.  The second
line covers only status and cost: two checkouts that print the same second
line found the same optima, whatever trees and counters they report.  One
more line per workload covers what the first line does for that workload's
solves alone, so two checkouts that differ in the first line show which
workloads' answers moved.  A last line per workload counts how its solves
ended, read from ``stats["search"]``: searches that expanded a state,
searches that ended at their first start state (0 expansions), and solves
proven without a search.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def without_wall_times(value):
    if isinstance(value, dict):
        return {k: without_wall_times(v) for k, v in value.items() if k != "wall_time"}
    return value


def main() -> int:
    sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "stpbench")]
    from families import WORKLOADS, instances
    from stpsolve import parse_instance, solve, write_instance

    digest, costs = hashlib.sha256(), hashlib.sha256()
    solves = 0
    per_workload, endings = [], []
    for name, shapes in sorted(WORKLOADS.items()):
        own, count = hashlib.sha256(), 0
        expanded = start_state = unsearched = 0
        for seed in SEEDS:
            for inst in instances(shapes, seed):
                result = solve(parse_instance(write_instance(inst, fmt="stp")).instance)
                answer = {
                    "status": result.status,
                    "cost": result.cost,
                    "tree": sorted(result.tree.edges),
                    "stats": without_wall_times(result.stats),
                }
                line = json.dumps(answer, sort_keys=True).encode() + b"\n"
                digest.update(line)
                own.update(line)
                costs.update(f"{result.status} {result.cost}\n".encode())
                count += 1
                search = result.stats["search"]
                if search is None:
                    unsearched += 1
                elif search["expansions"]:
                    expanded += 1
                else:
                    start_state += 1
        solves += count
        per_workload.append(f"{own.hexdigest()}  {count} solves {name}")
        endings.append(
            f"{name}: {expanded} expanded a state, {start_state} ended at their"
            f" first start state, {unsearched} proven without a search"
        )
    print(f"{digest.hexdigest()}  {solves} solves")
    print(f"{costs.hexdigest()}  {solves} costs")
    print(*per_workload, *endings, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
