"""Per-layer metrics computed from a traced pass.

Each metric names the spans it needs; when one of them is missing from the
solver (``Tracer.absent``) the metric is reported with value ``None``
rather than zero.  Ratios whose base is zero read 0.0.

The five time slices ``reduce.s``, ``root.s``, ``heur.s``,
``search.self_s`` and ``unreduce.s`` do not overlap, and together with the
unattributed share they make up the traced solve time.
"""

from __future__ import annotations

from stpsolve import solve

from tracing import HEURISTIC_SPAN, count_under, self_times, totals

REDUCTION_OPS = (
    "simple",
    "long_edges",
    "steiner_distance",
    "ntdk",
    "dual_ascent_bounds",
    "short_links",
    "nearest_vertex",
)
SEARCH_COUNTERS = (
    "expansions",
    "re_expansions",
    "insertions",
    "prune_hits",
    "queue_peak",
    "stale_pops",
)
PARSE_SPAN = "bench.parse"
SOLVE_SPAN = "bench.solve"
PIPELINE = "solver.run_pipeline"
DUAL_ASCENT = "bounds.dual_ascent"
UPPER_BOUNDS = ("solver.upper_bound_pipeline", "bounds.upper_bound_pipeline")

# name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "parse.s": "s",
    "reduce.s": "s",
    "reduce.self_s": "s",
    "reduce.removed_frac": "frac",
    **{f"reduce.ops.{op}.changed": "count" for op in REDUCTION_OPS},
    "reduce.da_runs": "count",
    "root.s": "s",
    "root.da_runs": "count",
    "ub.s": "s",
    "ub.gap": "frac",
    "heur.s": "s",
    "heur.evals": "count",
    "heur.subsets": "count",
    "heur.hit_frac": "frac",
    "da.runs": "count",
    "da.s": "s",
    "search.s": "s",
    "search.self_s": "s",
    **{f"search.{name}": "count" for name in SEARCH_COUNTERS},
    "search.reexp_frac": "frac",
    "unreduce.s": "s",
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
}

# name -> spans it is measured from (beyond the benchmark's own).
NEEDS = {
    "reduce.s": (PIPELINE,),
    "reduce.self_s": (PIPELINE,),
    "reduce.da_runs": (PIPELINE, DUAL_ASCENT),
    "root.s": ("solver.select_root",),
    "root.da_runs": ("solver.select_root", DUAL_ASCENT),
    "ub.s": UPPER_BOUNDS,
    "ub.gap": UPPER_BOUNDS,
    "heur.s": (HEURISTIC_SPAN,),
    "heur.evals": (HEURISTIC_SPAN,),
    "heur.subsets": (HEURISTIC_SPAN,),
    "heur.hit_frac": (HEURISTIC_SPAN,),
    "da.runs": (DUAL_ASCENT,),
    "da.s": (DUAL_ASCENT,),
    "search.s": ("solver.ds_star",),
    "search.self_s": ("solver.ds_star", HEURISTIC_SPAN),
    "unreduce.s": ("solver.unreduce", "solver.validate_tree"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, results, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced pass.

    ``results`` holds, per instance, (input edge count, ``SolveResult`` or
    None when the solve raised); ``overhead_frac`` is the median over
    instances of traced / untraced parse+solve time, minus 1.
    """
    spans = tracer.spans
    span_totals = totals(spans)
    count = {name: c for name, (c, _) in span_totals.items()}
    busy = {name: t for name, (_, t) in span_totals.items()}
    own = self_times(spans)
    solved = [r for _, r in results if r is not None]
    values: dict[str, float] = {
        "parse.s": busy.get(PARSE_SPAN, 0.0),
        "reduce.s": busy.get(PIPELINE, 0.0) + busy.get("solver.identity_preprocess", 0.0),
        "reduce.self_s": own.get(PIPELINE, 0.0) + own.get("solver.identity_preprocess", 0.0),
        "reduce.da_runs": count_under(spans, DUAL_ASCENT, PIPELINE),
        "root.s": busy.get("solver.select_root", 0.0),
        "root.da_runs": count_under(spans, DUAL_ASCENT, "solver.select_root"),
        "ub.s": sum(busy.get(name, 0.0) for name in UPPER_BOUNDS),
        "heur.s": busy.get(HEURISTIC_SPAN, 0.0),
        "heur.evals": count.get(HEURISTIC_SPAN, 0),
        "heur.subsets": tracer.heuristic_subsets,
        "da.runs": count.get(DUAL_ASCENT, 0),
        "da.s": busy.get(DUAL_ASCENT, 0.0),
        "search.s": busy.get("solver.ds_star", 0.0),
        "unreduce.s": busy.get("solver.unreduce", 0.0) + busy.get("solver.validate_tree", 0.0),
        "trace.overhead_frac": overhead_frac,
        "trace.unattributed_frac": _ratio(own.get(SOLVE_SPAN, 0.0), busy.get(SOLVE_SPAN, 0.0)),
    }
    evals = values["heur.evals"]
    values["heur.hit_frac"] = 1.0 - values["heur.subsets"] / evals if evals else 0.0
    values["search.self_s"] = values["search.s"] - values["heur.s"]

    edges_in = sum(e for e, r in results if r is not None)
    edges_out = sum(r.preprocess.reduced.network.edge_count for r in solved)
    values["reduce.removed_frac"] = 1.0 - _ratio(edges_out, edges_in)
    for op in REDUCTION_OPS:
        seen = [r.preprocess.stats[op]["changed"] for r in solved if op in r.preprocess.stats]
        values[f"reduce.ops.{op}.changed"] = sum(seen) if seen else None

    searches = [r.search for r in solved if r.search is not None]
    for name in SEARCH_COUNTERS:
        field = [getattr(s, name, None) for s in searches]
        if None in field:
            values[f"search.{name}"] = None
        else:
            values[f"search.{name}"] = max(field, default=0) if name == "queue_peak" else sum(field)
    expanded, again = values["search.expansions"], values["search.re_expansions"]
    values["search.reexp_frac"] = None if None in (expanded, again) else _ratio(again, expanded)

    # The optimum of each instance an upper bound was computed on.  Called
    # after the traced pass, with the tracer removed, so it is not timed.
    gaps = []
    for instance, cost in tracer.upper_bounds:
        optimum = solve(instance).cost
        if optimum:
            gaps.append((cost - optimum) / optimum)
    values["ub.gap"] = sum(gaps) / len(gaps) if gaps else 0.0

    for name, needs in NEEDS.items():
        if any(span in tracer.absent for span in needs):
            values[name] = None
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def layer_profile(metrics: dict) -> dict[str, float]:
    """Disjoint time slices of the traced solve time, in seconds."""
    names = ("parse.s", "reduce.s", "root.s", "heur.s", "search.self_s", "unreduce.s")
    return {name: metrics[name]["value"] for name in names}

