"""Smoke test and negative control for the benchmark; it has no timing gate.

    python3 -m pytest -q stpbench/test_smoke.py

Runs the benchmark's passes on two tiny instances, checks that every metric
BENCHMARK.json names is emitted with its unit, checks that the correctness
gate rejects a wrong reference optimum and a broken tree, and checks the
gate's second solving path against ``dreyfus_wagner``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_solver()

from families import Shape, instances  # noqa: E402
from gate import DW_MAX_TERMINALS, GateFailure, check_answer, reference_optimum  # noqa: E402
from stpsolve import SteinerTree, dreyfus_wagner, parse_instance, solve  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = (
    Shape("grid", (5, 4, 1, 3, 0)),
    Shape("hypercube", (4, 4, 1, 3, 2)),
)


def tiny_bench() -> run.Bench:
    bench = run.Bench(TINY, seed=7)
    bench.load_optima()
    return bench


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_every_end_to_end_metric_is_emitted():
    meter = run.SpeedMeter()
    metrics = run.end_to_end(tiny_bench(), run.setup_seconds(TINY, 7, meter), 0.0, meter)
    assert {n: m["unit"] for n, m in metrics.items()} == declared("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


def test_every_per_layer_metric_is_emitted():
    bench = tiny_bench()
    metrics = run.per_layer(bench)
    assert {n: m["unit"] for n, m in metrics.items()} == declared("per_layer")
    assert all(m["value"] is not None for m in metrics.values())
    assert bench.failed == 0


def test_gate_rejects_a_wrong_reference():
    bench = tiny_bench()
    bench.optima[1] += 1
    with pytest.raises(GateFailure, match="reference optimum"):
        bench.timed_pass()


def test_gate_rejects_a_broken_tree():
    bench = tiny_bench()
    parsed = parse_instance(bench.texts[0])
    tree = solve(parsed.instance).tree
    check_answer(bench.instances[0], parsed, tree, bench.optima[0])
    cut = SteinerTree(tree.edges - {min(tree.edges)}, tree.root, 0)
    with pytest.raises(GateFailure):
        check_answer(bench.instances[0], parsed, cut, bench.optima[0])


@pytest.mark.parametrize(
    "shape",
    [
        Shape("grid", (7, 7, 3, 3, 1)),
        Shape("hypercube", (5, 9, 100, 110, 2)),
        Shape("incidence", (40, 120, 9)),
    ],
)
def test_second_path_matches_dreyfus_wagner(shape):
    (instance,) = instances((shape,), seed=3)
    assert len(instance.terminals) > DW_MAX_TERMINALS
    expected, _ = dreyfus_wagner(instance, min(instance.terminals))
    assert reference_optimum(instance) == expected


def test_fails_without_result_when_the_solver_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
