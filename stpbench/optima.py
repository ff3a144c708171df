"""Reference optima of generated instances, in a child process.

    python3 stpbench/optima.py < instances.json

``run.py`` starts this script, and waits for it, for the instances whose
optima are not committed, so that the reference computation's memory does
not count towards the run's ``peak_rss_mb``.  Reads on standard input a JSON
list of instances, each ``[vertex_count, edges, terminals]`` as generated
(not as parsed back from text), and prints the JSON list of their optima.
"""

from __future__ import annotations

import json
import sys

import run

run.load_solver()

from gate import reference_optimum  # noqa: E402
from stpsolve import Instance, Network  # noqa: E402


def main():
    optima = [
        reference_optimum(Instance(Network(n, [tuple(e) for e in edges]), frozenset(terminals)))
        for n, edges, terminals in json.load(sys.stdin)
    ]
    print(json.dumps(optima))


if __name__ == "__main__":
    main()
