"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy search corpus (500 instances x 3 heuristics x pruning on/off) is
computed once and shared by the criteria that read costs, re-expansion
counters and expansion medians.
"""

import collections
import itertools
import random
import statistics
import time

from stpsolve import (
    Instance,
    da_heuristic,
    dreyfus_wagner,
    ds_star,
    one_tree_heuristic,
    run_pipeline,
    select_root,
    shortest_path_distances,
    solve,
    combine_split_cost,
    spread_rsph,
    upper_bound_pipeline,
    validate_tree,
    zero_heuristic,
)
from stpsolve.bounds import ExactSubsetHeuristic, SteinerHeuristic, TerminalIndex
from stpsolve import SteinerTree, unreduce
from conftest import (
    NEGATIVE_CONTROL_SEED,
    eliminate_at,
    make_k4,
    make_ntdk,
    random_instance,
    simplified,
)

HEURISTIC_MAKERS = (
    ("zero", zero_heuristic),
    ("onetree", one_tree_heuristic),
    ("da", da_heuristic),
)

_SEARCH_CACHE = {}


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _search_runs(main_corpus, main_corpus_optima):
    """All search configurations over the main corpus, computed once."""
    if "runs" not in _SEARCH_CACHE:
        runs = []
        for inst, optimum in zip(main_corpus, main_corpus_optima):
            root = min(inst.terminals)
            per_instance = {"optimum": optimum, "instance": inst}
            for name, make in HEURISTIC_MAKERS:
                for pruning in (False, True):
                    cost, tree, stats = ds_star(
                        inst, root, make(inst, root), pruning
                    )
                    checked = validate_tree(inst, tree)
                    per_instance[(name, pruning)] = (cost, checked, stats)
            runs.append(per_instance)
        _SEARCH_CACHE["runs"] = runs
    return _SEARCH_CACHE["runs"]


def test_criterion_01_worked_example_identities(fix_k4):
    started = time.perf_counter()
    # Singleton sub-tree values at the reference vertex come straight from
    # the pairwise distances of the four-terminal fixture.
    dist_c = shortest_path_distances(fix_k4.network, 2)
    row = {0b001: dist_c[0], 0b010: dist_c[1], 0b100: dist_c[3]}
    first_merge = combine_split_cost(row, 0b101)
    # Frozen two-subset sub-tree costs of the worked example at that vertex.
    row.update({0b011: 17, 0b101: 22, 0b110: 26})
    full_merge = combine_split_cost(row, 0b111)
    final = dreyfus_wagner(fix_k4, 2)[0]
    elapsed = time.perf_counter() - started
    ok = first_merge == 28 and full_merge == 33 and final == 27 and elapsed < 1.0
    _report(
        1,
        ok,
        f"merge values {first_merge}/{full_merge} (want 28/33), "
        f"four-terminal optimum {final} (want 27), {elapsed:.3f}s < 1s",
    )


def test_criterion_02_oracle_equivalence(main_corpus, main_corpus_optima):
    started = time.perf_counter()
    runs = _search_runs(main_corpus, main_corpus_optima)
    mismatches = 0
    for per_instance in runs:
        optimum = per_instance["optimum"]
        for name, _ in HEURISTIC_MAKERS:
            for pruning in (False, True):
                cost, checked, _ = per_instance[(name, pruning)]
                if cost != optimum or checked != cost:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        2,
        ok,
        f"{len(runs)} instances x 6 configurations, {mismatches} mismatches, "
        f"{elapsed:.1f}s < 60s",
    )


def test_criterion_03_end_to_end_safety(main_corpus, main_corpus_optima):
    started = time.perf_counter()
    bad = 0
    for inst, optimum in zip(main_corpus, main_corpus_optima):
        result = solve(inst)
        if (
            result.status != "optimal"
            or result.cost != optimum
            or validate_tree(inst, result.tree) != optimum
        ):
            bad += 1
    elapsed = time.perf_counter() - started
    ok = bad == 0 and elapsed < 120.0
    _report(
        3,
        ok,
        f"{len(main_corpus)} full solves match the reference optimum, "
        f"{bad} failures, {elapsed:.1f}s < 120s",
    )


def _sub_optimum(instance, terminals, cache):
    key = frozenset(terminals)
    value = cache.get(key)
    if value is None:
        value = dreyfus_wagner(Instance(instance.network, key), min(key))[0]
        cache[key] = value
    return value


def _root_subsets(instance, root):
    others = sorted(instance.terminals - {root})
    for size in range(len(others) + 1):
        for combo in itertools.combinations(others, size):
            yield frozenset(combo) | {root}


def test_criterion_04_admissibility(small_corpus):
    started = time.perf_counter()
    violations = 0
    for inst in small_corpus:
        root = min(inst.terminals)
        cache = {}
        heuristics = (
            da_heuristic(inst, root),
            one_tree_heuristic(inst, root),
            ExactSubsetHeuristic(inst, root),
        )
        for subset in _root_subsets(inst, root):
            for u in range(inst.network.vertex_count):
                bound = _sub_optimum(inst, subset | {u}, cache)
                for h in heuristics:
                    if h.eval(u, subset) > bound:
                        violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 120.0
    _report(
        4,
        ok,
        f"{len(small_corpus)} instances, every queried state within its "
        f"sub-instance optimum, {violations} violations, {elapsed:.1f}s < 120s",
    )


def test_criterion_05_non_consistency_witness(small_corpus):
    started = time.perf_counter()
    witness = None
    for idx, inst in enumerate(small_corpus):
        root = min(inst.terminals)
        cache = {}
        h = da_heuristic(inst, root)
        subsets = list(_root_subsets(inst, root))
        n = inst.network.vertex_count
        values = {
            (u, subset): h.eval(u, subset) for subset in subsets for u in range(n)
        }
        for big in subsets:
            for small in subsets:
                if not small <= big:
                    continue
                for u in range(n):
                    for v in range(n):
                        connector = _sub_optimum(
                            inst, (big - small) | {u, v}, cache
                        )
                        if values[(u, big)] > values[(v, small)] + connector:
                            witness = (idx, u, v, sorted(big), sorted(small))
                            break
                    if witness:
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    elapsed = time.perf_counter() - started
    _report(
        5,
        witness is not None,
        f"dual-ascent heuristic consistency violation found at {witness}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_consistent_heuristic_never_re_expands(
    main_corpus, main_corpus_optima
):
    runs = _search_runs(main_corpus, main_corpus_optima)
    re_expansions = sum(
        per_instance[("onetree", pruning)][2].re_expansions
        for per_instance in runs
        for pruning in (False, True)
    )
    _report(
        6,
        re_expansions == 0,
        f"one-tree guided search re-expanded {re_expansions} states over "
        f"{len(runs)} instances (want 0)",
    )


def test_criterion_07_reduction_safety_gates(
    reduction_corpus, reduction_grids, fix_ntdk
):
    # Each operation maps (instance, optimum) to a PreprocessResult;
    # elimination at the optimum uses the tightest bound a solve can have.
    started = time.perf_counter()
    operations = [
        ("simple", lambda inst, optimum: simplified(inst)),
        ("dual_ascent_bounds", eliminate_at),
        ("pipeline", lambda inst, optimum: run_pipeline(inst)),
    ]
    failures = []
    changed = collections.Counter()  # (corpus, operation): instances changed

    def check(corpus, tag, inst, optimum):
        for name, op in operations:
            pre = op(inst, optimum)
            changed[corpus, name] += pre.changed > 0
            if name == "pipeline":
                rounds = pre.stats["dual_ascent_bounds"]["changed"]
                changed[corpus, "pipeline elimination"] += rounds > 0
            reduced = pre.reduced
            if len(reduced.terminals) <= 1:
                after = 0
                reduced_tree = SteinerTree(frozenset(), min(reduced.terminals), 0)
            else:
                after, reduced_tree = dreyfus_wagner(reduced, min(reduced.terminals))
            if after + pre.offset != optimum:
                failures.append((tag, name, after, pre.offset, optimum))
                continue
            expanded = unreduce(reduced_tree, pre.log)
            if validate_tree(inst, expanded) != optimum:
                failures.append((tag, name, "unreduce"))

    # the mandatory degree-k gate: replacing the cheap center must keep 8
    check("fixture", "ntdk-fixture", fix_ntdk, dreyfus_wagner(fix_ntdk, 0)[0])
    corpora = {"random": reduction_corpus, "grids": reduction_grids}
    for corpus, instances in corpora.items():
        for idx, inst in enumerate(instances):
            optimum = dreyfus_wagner(inst, min(inst.terminals))[0]
            check(corpus, (corpus, idx), inst, optimum)
    elapsed = time.perf_counter() - started
    # Elimination at the optimum changes 187 of the 200 random instances.
    # The pipeline's own rounds delete on 14 of the 100 grids and on none
    # of the random instances, which the simple reductions or the first
    # round's bounds settle.
    _report(
        7,
        not failures
        and changed["random", "dual_ascent_bounds"] >= 180
        and changed["grids", "pipeline elimination"] >= 10,
        f"{len(reduction_corpus)} instances and {len(reduction_grids)} grids x "
        f"{len(operations)} operations plus the degree-k fixture gate, "
        f"failures: {failures[:3]}, instances changed: {dict(changed)}, "
        f"{elapsed:.1f}s",
    )


class _InadmissibleConstant(SteinerHeuristic):
    """Large constant everywhere except the goal state.

    A truly uniform constant shifts every queue key equally and provably
    cannot change the expansion order, so the control zeroes the goal state
    to actually distort the search.
    """

    name = "inadmissible"

    def __init__(self, instance, root):
        self.root = root
        self.index = TerminalIndex(instance.terminals, root)

    def eval_mask(self, u, mask):
        if mask == 0 and u == self.root:
            return 0
        return 10**6


def test_criterion_08_negative_control():
    started = time.perf_counter()
    rng = random.Random(NEGATIVE_CONTROL_SEED)
    wrong = 0
    total = 200
    for _ in range(total):
        inst = random_instance(rng)
        root = min(inst.terminals)
        optimum = dreyfus_wagner(inst, root)[0]
        cost, _, _ = ds_star(inst, root, _InadmissibleConstant(inst, root), True)
        if cost != optimum:
            wrong += 1
    elapsed = time.perf_counter() - started
    _report(
        8,
        wrong > 0,
        f"inadmissible control produced {wrong} wrong costs over {total} "
        f"instances (want > 0), {elapsed:.1f}s",
    )


def test_criterion_09_heuristic_benefit(main_corpus, main_corpus_optima):
    runs = _search_runs(main_corpus, main_corpus_optima)
    guided, blind = [], []
    violated = 0
    considered = 0
    for per_instance in runs:
        if len(per_instance["instance"].terminals) < 4:
            continue
        considered += 1
        e_da = per_instance[("da", True)][2].expansions
        e_zero = per_instance[("zero", True)][2].expansions
        guided.append(e_da)
        blind.append(e_zero)
        if e_da > e_zero:
            violated += 1
    median_da = statistics.median(guided)
    median_zero = statistics.median(blind)
    rate = violated / considered
    ok = median_da <= median_zero or rate < 0.05
    _report(
        9,
        ok,
        f"median expansions guided {median_da} vs blind {median_zero} over "
        f"{considered} instances with >= 4 terminals; per-instance "
        f"violations {violated} ({rate:.1%})",
    )


def test_criterion_10_lower_upper_sandwich(main_corpus, main_corpus_optima):
    started = time.perf_counter()
    bad = 0
    for inst, optimum in zip(main_corpus, main_corpus_optima):
        run = select_root(inst)
        upper = upper_bound_pipeline(inst, run.root, run, (spread_rsph(inst),)).cost
        if not run.lower_bound <= optimum <= upper:
            bad += 1
    elapsed = time.perf_counter() - started
    _report(
        10,
        bad == 0,
        f"dual-ascent bound <= optimum <= constructed tree on "
        f"{len(main_corpus)} instances, {bad} violations, {elapsed:.1f}s",
    )


def test_ntdk_fixture_enumeration(fix_ntdk):
    # anchor for the degree-k gate: exhaustive optimum of the small fixture
    from conftest import brute_force_smt

    assert brute_force_smt(fix_ntdk) == 8
    assert brute_force_smt(make_ntdk()) == dreyfus_wagner(fix_ntdk, 0)[0]


def test_k4_fixture_enumeration(fix_k4):
    from conftest import brute_force_smt

    assert brute_force_smt(fix_k4) == 27
    assert brute_force_smt(make_k4()) == dreyfus_wagner(fix_k4, 2)[0]
