"""Rewrite reference_optima.json for the committed seeds of every workload.

    python3 stpbench/make_references.py

Run it after changing a generator or a workload's shapes.  Optima are keyed
by instance digest, so stale entries are never used: the benchmark computes
the optima of unknown instances itself before timing.  Writing all seeds
takes about 12 minutes on a 2-core x86-64 machine at 2.1 GHz.
"""

from __future__ import annotations

import json

import run

run.load_solver()

from families import WORKLOADS, instances  # noqa: E402
from gate import REFERENCE_FILE, digest, reference_optimum  # noqa: E402
from stpsolve import write_instance  # noqa: E402

# The default seed, the seeds of the steadiness runs behind baseline.json,
# and a second block of ten.
REFERENCE_SEEDS = (*range(1, 11), *range(41, 51))


def main():
    optima = {}
    for name, shapes in WORKLOADS.items():
        for seed in REFERENCE_SEEDS:
            for inst in instances(shapes, seed):
                optima[digest(write_instance(inst, fmt="stp"))] = reference_optimum(inst)
            run.log(f"{name} seed {seed}: {len(optima)} optima so far")
    REFERENCE_FILE.write_text(json.dumps(optima, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
