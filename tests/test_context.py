"""The solve context: the root is chosen once, the incumbent is carried
across reduction rounds, matching bounds end the solve, and a timeout
returns the incumbent with both bounds."""

import random
import time

import pytest

import stpsolve.bounds
import stpsolve.reductions
import stpsolve.solver
from stpsolve import (
    Instance,
    InternalError,
    Network,
    SolveConfig,
    SolveContext,
    dreyfus_wagner,
    dual_ascent,
    solve,
    validate_tree,
)
from stpsolve.bounds import best_root_run
from stpsolve.graph import SolveTimeout
from stpsolve.reductions import REDUCTION_OPS as OPS, _Working
from conftest import random_grid, random_instance, unit_grid_8x8


def unit_grid(width, height, terminals, max_cost, seed):
    """Grid with costs ``rng.randint(1, max_cost)``, edges added right then
    down in row-major order, then ``rng.sample`` terminals."""
    rng = random.Random(seed)
    n = width * height
    edges = []
    for v in range(n):
        if v % width + 1 < width:
            edges.append((v, v + 1, rng.randint(1, max_cost)))
        if v + width < n:
            edges.append((v, v + width, rng.randint(1, max_cost)))
    return Instance(Network(n, edges), frozenset(rng.sample(range(n), terminals)))


def proof_corpus(seed, count):
    rng = random.Random(seed)
    half = count // 2
    corpus = [random_instance(rng, 6, 24, 3, 7) for _ in range(half)]
    return corpus + [random_grid(rng, max_t=7) for _ in range(count - half)]


def optimum(inst):
    return dreyfus_wagner(inst, min(inst.terminals))[0]


def is_proof(result):
    """Optimal without a search on a reduced graph with terminals to join."""
    return (
        result.status == "optimal"
        and result.search is None
        and len(result.preprocess.reduced.terminals) > 1
    )


class TestProofPath:
    def test_costs_match_the_oracle(self):
        proofs = 0
        for inst in proof_corpus(301, 320):
            expected = optimum(inst)
            result = solve(inst)
            assert result.status == "optimal"
            assert validate_tree(inst, result.tree) == result.cost == expected
            assert result.stats["lower_bound"] == expected
            assert result.stats["upper_bound"] == expected
            ops = result.preprocess.stats
            assert set(ops) == set(OPS)
            assert all(ops[op]["changed"] >= 0 for op in OPS)
            if is_proof(result):
                proofs += 1
                assert result.stats["heuristic"] is None
                assert result.stats["root"] in result.preprocess.reduced.terminals
        assert proofs >= 130

    def test_proof_with_a_wrong_bound_raises(self, monkeypatch):
        proven = next(
            inst for inst in proof_corpus(303, 40) if is_proof(solve(inst))
        )
        real = stpsolve.solver.run_pipeline

        def lying(instance, config, context):
            pre = real(instance, config, context)
            context.lower_bound = context.upper_bound = context.upper_bound - 1
            return pre

        monkeypatch.setattr(stpsolve.solver, "run_pipeline", lying)
        with pytest.raises(InternalError, match="proven tree"):
            solve(proven)

    def test_offer_keeps_a_tree_inside_a_cyclic_expansion(self):
        # Two expanded edges that share provenance can close a cycle; the
        # context keeps their minimum spanning tree, leaf-pruned.
        net = Network(4, [(0, 1, 2), (0, 2, 5), (1, 2, 2), (2, 3, 1)])
        inst = Instance(net, frozenset({0, 2}))
        ctx = SolveContext()
        ctx.offer(inst, range(4))
        assert ctx.incumbent == {0, 2}
        assert validate_tree(inst, ctx.tree(inst)) == ctx.upper_bound == 4
        ctx.offer(inst, [1])
        assert ctx.upper_bound == 4  # not cheaper: the incumbent stays


class TestCarriedIncumbent:
    def test_later_rounds_see_the_incumbent_on_their_snapshot(self):
        carried = 0
        for seed in range(40):
            inst = unit_grid(12, 12, 10, 1, seed)
            ctx = SolveContext()
            w = _Working(inst, ctx)
            w.simple_fixpoint()
            w.dual_ascent_elimination()
            if ctx.proven or len(w.terminals) <= 1:
                continue
            w.simple_fixpoint()
            w.restrict_to_terminal_component()
            snapshot, order = w.snapshot()
            tree = w.incumbent_on(snapshot, order)
            if tree is None:
                continue
            carried += 1
            assert validate_tree(snapshot, tree) == tree.cost
            assert tree.edges  # the snapshot still has terminals to join
        assert carried >= 15


class TestFirstRound:
    """The first elimination round runs dual ascent from the first root,
    improves the incumbent with that run, and tries the other roots only
    while the bounds are apart."""

    def test_costs_and_bounds_match_the_oracle(self):
        for inst in proof_corpus(311, 300):
            expected = optimum(inst)
            result = solve(inst)
            assert result.status == "optimal"
            assert validate_tree(inst, result.tree) == result.cost == expected
            assert result.stats["lower_bound"] == expected
            assert result.stats["upper_bound"] == expected

    def test_other_roots_run_only_while_the_bounds_are_apart(self, monkeypatch):
        runs = 0
        real = stpsolve.bounds.dual_ascent

        def counted(instance, root, terminal_subset=None):
            nonlocal runs
            runs += terminal_subset is None
            return real(instance, root, terminal_subset)

        rng = random.Random(313)
        corpus = [random_instance(rng, 6, 24, 3, 7) for _ in range(150)]
        corpus += [  # unit costs and more terminals leave more bounds apart
            random_grid(rng, 6, 10, costs=(1,), min_t=5, max_t=10)
            for _ in range(150)
        ]
        at_first = hunted = apart = 0
        for inst in corpus:
            ctx = SolveContext()
            w = _Working(inst, ctx)
            w.simple_fixpoint()
            if len(w.terminals) <= 1:
                continue
            w.restrict_to_terminal_component()
            snapshot, order = w.snapshot()
            monkeypatch.setattr(stpsolve.bounds, "dual_ascent", counted)
            runs = 0
            best = best_root_run(snapshot)
            every_root, runs = runs, 0
            w.dual_ascent_elimination()
            monkeypatch.undo()
            first = dual_ascent(snapshot, min(snapshot.terminals))
            # Whatever ends the round, its root run is the full loop's.
            assert ctx.root == order[best.root]
            assert ctx.run == best
            assert ctx.lower_bound == best.lower_bound + w.offset
            if first.lower_bound + w.offset == ctx.upper_bound:
                at_first += 1
                assert runs == 1
                assert ctx.proven
            else:
                hunted += 1
                assert runs > 1  # a single run must have proven the round
                assert runs == every_root or ctx.proven
                apart += not ctx.proven
        assert at_first >= 150
        assert hunted >= 40
        assert apart >= 25


class TestTimeouts:
    def test_grid_timeout_returns_an_incumbent_within_the_limit(self):
        inst = unit_grid(40, 40, 20, 1, 9)
        limit = 0.2
        start = time.perf_counter()
        result = solve(inst, SolveConfig(time_limit=limit))
        elapsed = time.perf_counter() - start
        assert result.status == "timeout"
        assert validate_tree(inst, result.tree) == result.cost
        assert result.stats["lower_bound"] <= result.stats["upper_bound"]
        assert result.stats["upper_bound"] == result.cost
        assert elapsed <= limit + max(0.25, 0.1 * limit)

    def test_search_honours_the_limit(self):
        # Without preprocessing the limit falls in root selection or in the
        # search, whose expansions may each build heuristic tables.
        inst = unit_grid(40, 40, 20, 1, 9)
        limit = 0.2
        start = time.perf_counter()
        result = solve(inst, SolveConfig(preprocess=False, time_limit=limit))
        elapsed = time.perf_counter() - start
        assert validate_tree(inst, result.tree) == result.cost
        assert elapsed <= limit + max(0.25, 0.1 * limit)

    @pytest.mark.parametrize("heuristic", ["auto", "da", "onetree"])
    def test_a_search_timeout_without_preprocessing_reports_a_bound(
        self, monkeypatch, heuristic
    ):
        # Without preprocessing no reduction round proves a bound, so the
        # solve takes the heuristic's value at the root for all terminals.
        def search(*args, **kwargs):
            raise SolveTimeout()

        monkeypatch.setattr(stpsolve.solver, "ds_star", search)
        inst = unit_grid_8x8()
        config = SolveConfig(preprocess=False, heuristic=heuristic, time_limit=60.0)
        result = solve(inst, config)
        assert result.status == "timeout"
        assert 0 < result.stats["lower_bound"] <= optimum(inst)
        assert result.stats["upper_bound"] == result.cost >= optimum(inst)

    def test_search_counters_survive_a_timeout(self):
        inst = unit_grid(15, 15, 10, 1, 9)
        result = solve(
            inst,
            SolveConfig(
                preprocess=False, pruning=False, heuristic="zero", time_limit=0.3
            ),
        )
        assert result.status == "timeout"
        assert result.search.expansions > 0
        assert result.stats["search"] == result.search.as_dict()
        assert validate_tree(inst, result.tree) == result.cost

    def test_bounds_bracket_the_optimum_wherever_time_runs_out(self, monkeypatch):
        timeouts = bounded = 0
        for inst, expected, result, _ in every_timeout(monkeypatch, TIMEOUT_CORPUS):
            timeouts += 1
            stats = result.stats
            assert stats["lower_bound"] <= expected <= stats["upper_bound"]
            assert stats["upper_bound"] == result.cost
            assert validate_tree(inst, result.tree) == result.cost
            bounded += stats["lower_bound"] > 0
        assert timeouts >= 300
        assert bounded >= 30

    def test_a_timeout_after_a_root_run_keeps_its_bound(self, monkeypatch):
        # Root selection in the first elimination round raises the bound
        # with every better run, so no finished run's bound is lost.
        after_a_run = 0
        for _, expected, result, root_runs in every_timeout(
            monkeypatch, TIMEOUT_CORPUS
        ):
            if root_runs:
                after_a_run += 1
                assert 0 < result.stats["lower_bound"] <= expected
        assert after_a_run >= 60

    def test_a_deadline_at_the_first_search_check_builds_no_table(self, monkeypatch):
        # The deadline passes at the first check inside the search, which
        # comes before the first queue fill builds a heuristic table.
        searching = False
        tables = 0
        real_search, real_run = stpsolve.solver.ds_star, stpsolve.bounds.dual_ascent

        def search(*args, **kwargs):
            nonlocal searching
            searching = True
            return real_search(*args, **kwargs)

        def run(*args, **kwargs):
            nonlocal tables
            tables += searching
            return real_run(*args, **kwargs)

        def check(deadline):
            if searching:
                raise SolveTimeout()

        for module in (stpsolve.solver, stpsolve.reductions, stpsolve.bounds):
            monkeypatch.setattr(module, "check_deadline", check)
        monkeypatch.setattr(stpsolve.solver, "ds_star", search)
        monkeypatch.setattr(stpsolve.bounds, "dual_ascent", run)
        inst = unit_grid(15, 15, 10, 1, 9)
        result = solve(inst, SolveConfig(preprocess=False, time_limit=60.0))
        assert searching
        assert result.status == "timeout"
        assert tables == 0
        assert result.search is not None and result.search.expansions == 0
        assert validate_tree(inst, result.tree) == result.cost


# The first 40 instances are the original corpus; the last 10 keep the
# number of timeouts above the floor now that a solve makes fewer checks.
TIMEOUT_CORPUS = proof_corpus(307, 40) + proof_corpus(308, 10)


def every_timeout(monkeypatch, corpus):
    """Solve each instance with time running out at the k-th deadline
    check, for every k up to the number of checks the solve makes, and
    yield ``(instance, optimum, result, root_runs)`` for every timeout;
    ``root_runs`` counts the dual-ascent runs over all terminals that
    finished before it.  The solve without a timeout must be optimal."""
    calls = []
    root_runs = 0
    real_run = stpsolve.bounds.dual_ascent

    def check(deadline):
        calls.append(deadline)
        if len(calls) == stop_at:
            raise SolveTimeout()

    def run(instance, root, terminal_subset=None):
        nonlocal root_runs
        result = real_run(instance, root, terminal_subset)
        root_runs += terminal_subset is None
        return result

    for module in (stpsolve.solver, stpsolve.reductions, stpsolve.bounds):
        monkeypatch.setattr(module, "check_deadline", check)
    monkeypatch.setattr(stpsolve.bounds, "dual_ascent", run)
    for inst in corpus:
        expected = optimum(inst)
        stop_at = 1
        while True:
            calls.clear()
            root_runs = 0
            result = solve(inst, SolveConfig(time_limit=60.0))
            if result.status == "optimal":
                assert result.cost == expected
                break
            yield inst, expected, result, root_runs
            stop_at += 1
