"""The solve context: the root is chosen once, the incumbent is kept
across reduction rounds, matching bounds end the solve, a timeout returns
the incumbent with both bounds within the stated tolerance, every kind of
solve reports the same stats keys, and ``auto`` guides with dual ascent on
graphs of every size."""

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
    zero_heuristic,
)
from stpsolve.bounds import DP_BUDGET, _spread, fits_dp_budget, select_root
from stpsolve.graph import SolveTimeout
from stpsolve.reductions import REDUCTION_OPS as OPS, _Working
from conftest import (
    SHAPES,
    family_corpus,
    hypercube,
    make_diamond,
    random_grid,
    random_instance,
    unit_grid_8x8,
)


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

        def lying(instance, context, deadline):
            pre = real(instance, context, deadline)
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


def shape(inst):
    net = inst.network
    return net.vertex_count, net.edges, inst.terminals


class TestFirstRound:
    """The first elimination round runs dual ascent from the first root,
    improves the incumbent with that run and the RSPH tree in its root
    component, and eliminates with it; the next round, the hunting round,
    runs the spread RSPH starts and picks the root on the graph the first
    one shrank, trying the other roots only while the bounds are apart.  A
    first round that deletes nothing goes on as the hunting round on its
    own snapshot."""

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
        starts = []  # (instance shape, start) of every full-graph RSPH start
        real, real_rsph = stpsolve.bounds.dual_ascent, stpsolve.bounds.rsph

        def counted(instance, root, terminal_subset=None, deadline=None):
            nonlocal runs
            runs += terminal_subset is None
            return real(instance, root, terminal_subset, deadline)

        def counted_rsph(instance, within=None, start=None, stop_at=None, **kw):
            if within is None:
                starts.append((shape(instance), start))
            return real_rsph(instance, within, start, stop_at, **kw)

        def hunt_on(w):
            """The snapshot the next round runs on, the working ids of its
            vertices, its ``select_root`` run and that run's root runs."""
            nonlocal runs
            snapshot, order, _ = w.snapshot()
            runs = 0
            best = select_root(snapshot)
            return snapshot, order, best, runs

        rng = random.Random(313)
        corpus = [random_instance(rng, 6, 24, 3, 7) for _ in range(150)]
        corpus += [  # unit costs and more terminals leave more bounds apart
            random_grid(rng, 6, 10, costs=(1,), min_t=5, max_t=10)
            for _ in range(250)
        ]
        corpus += [  # spread terminals on near-unit costs resist elimination
            hypercube(rng, 6, 8, 100, 110, 3) for _ in range(40)
        ]
        monkeypatch.setattr(stpsolve.bounds, "dual_ascent", counted)
        monkeypatch.setattr(stpsolve.bounds, "rsph", counted_rsph)
        at_first = hunted = apart = reused = 0
        for inst in corpus:
            ctx = SolveContext()
            w = _Working(inst, ctx)
            w.simple_fixpoint()
            if len(w.terminals) <= 1:
                continue
            snapshot, order, best, every_root = hunt_on(w)
            first = real(snapshot, min(snapshot.terminals))
            bound, runs = ctx.lower_bound, 0
            starts.clear()
            w.dual_ascent_elimination()
            if starts:  # it deleted nothing and went on to hunt
                reused += 1
            else:  # one root run and no full-graph RSPH start
                assert runs == 1
                assert w.run == first
                if ctx.proven:
                    at_first += 1
                    assert ctx.root == order[first.root]
                    continue
                assert ctx.root is None  # eliminated with the first root's run
                w.simple_fixpoint()
                if len(w.terminals) <= 1:
                    continue
                snapshot, order, best, every_root = hunt_on(w)
                bound, runs = ctx.lower_bound, 0
                w.dual_ascent_elimination()
            # The hunting round spreads its RSPH starts over its own
            # snapshot, and whatever ends the hunt, its root run is the
            # full loop's on that graph.
            spread = _spread(sorted(snapshot.terminals), 16)
            assert starts == [(shape(snapshot), s) for s in spread]
            assert ctx.root == order[best.root]
            assert w.run == best
            assert ctx.lower_bound == max(bound, best.lower_bound + w.offset)
            if runs > 1:
                hunted += 1
                assert runs == every_root or ctx.proven
            else:  # the first root's run and the pipeline proved the round
                assert ctx.proven
            apart += not ctx.proven
            if ctx.proven:
                continue
            root = ctx.root
            w.simple_fixpoint()
            if len(w.terminals) <= 1:
                continue
            runs = 0
            starts.clear()
            w.dual_ascent_elimination()
            assert (runs, starts, ctx.root) == (1, [], root)  # later rounds keep it
        assert at_first >= 150
        assert hunted >= 40
        assert apart >= 25
        assert reused >= 10


def hunt_census(monkeypatch, inst, heuristic):
    """Solve ``inst`` under ``heuristic`` and return the result, what the
    first elimination round deleted (None when no round eliminated) and the
    calls of ``spread_rsph`` and ``improving_root_runs``, counted by
    wrapping the ``bounds`` names."""
    deleted, calls = [], {"spread_rsph": 0, "improving_root_runs": 0}
    real_eliminate = _Working._eliminate

    def eliminate(self, *args):
        deleted.append(real_eliminate(self, *args))
        return deleted[-1]

    def counted(name):
        real = getattr(stpsolve.bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        patch.setattr(_Working, "_eliminate", eliminate)
        for name in calls:
            patch.setattr(stpsolve.bounds, name, counted(name))
        result = solve(inst, SolveConfig(heuristic=heuristic))
    return result, deleted[0] if deleted else None, calls


def whole_dp_cubes():
    """The 6-cubes of the family corpus and weighted 6-cubes of the
    many-terminals family: 8 terminals on 64 vertices fit ``DP_BUDGET``."""
    cubes = [
        inst
        for inst, (build, args) in zip(family_corpus(3), 3 * SHAPES)
        if build is hypercube and args[0] == 6
    ]
    return cubes + [
        hypercube(random.Random(f"{s}:six"), 6, 8, 100, 110, 3) for s in range(20)
    ]


class TestWholeDpSchedule:
    """Under ``auto`` a search whose graph fits ``DP_BUDGET`` is the whole
    DP, which ends at its first start state whatever the bounds: a first
    round that deletes nothing on such a graph picks its first root and
    ends the reductions, with no hunting round."""

    def test_a_first_round_that_deletes_nothing_ends_the_reductions(
        self, monkeypatch
    ):
        quiet = 0
        for inst in whole_dp_cubes():
            assert fits_dp_budget(inst)
            result, deleted, calls = hunt_census(monkeypatch, inst, "auto")
            assert result.cost == optimum(inst)
            if deleted != 0:
                continue
            quiet += 1
            assert calls == {"spread_rsph": 0, "improving_root_runs": 0}
            assert result.stats["heuristic"] == "da+dw"
            assert result.search.expansions == 0
        assert quiet >= 10

    def test_the_dual_ascent_guide_still_hunts(self, monkeypatch):
        quiet = 0
        for inst in whole_dp_cubes():
            result, deleted, calls = hunt_census(monkeypatch, inst, "da")
            assert result.cost == optimum(inst)
            if deleted == 0:
                quiet += 1
                assert calls == {"spread_rsph": 1, "improving_root_runs": 1}
        assert quiet >= 10

    def test_a_seven_cube_past_the_budget_still_hunts(self, monkeypatch):
        # 11 terminals: 3^11 * 128 is past even an untouched graph's budget.
        inst = hypercube(random.Random("4:w"), 7, 11, 100, 110, 3)
        assert not fits_dp_budget(inst, untouched=True)
        result, deleted, calls = hunt_census(monkeypatch, inst, "auto")
        assert deleted == 0
        assert calls == {"spread_rsph": 1, "improving_root_runs": 1}
        assert result.cost == 2178  # dreyfus_wagner's optimum

    def test_an_untouched_graph_gets_the_whole_dp_up_to_eight_budgets(
        self, monkeypatch
    ):
        # Unit 6-cubes and 7-cubes with 10 terminals lie past DP_BUDGET but
        # within 8 times it.  On those the reductions leave untouched, the
        # first round ends the reductions and the search is the whole DP.
        cubes = [
            hypercube(random.Random(f"{s}:unit"), 6, 10, 1, 1, 2) for s in range(6)
        ]
        cubes += [
            hypercube(random.Random(f"{s}:unit"), 7, 10, 1, 1, 3) for s in range(3)
        ]
        untouched = 0
        for inst in cubes:
            assert not fits_dp_budget(inst) and fits_dp_budget(inst, untouched=True)
            result, deleted, calls = hunt_census(monkeypatch, inst, "auto")
            assert result.cost == optimum(inst)
            if result.preprocess.changed:
                continue
            untouched += 1
            assert deleted == 0
            assert calls == {"spread_rsph": 0, "improving_root_runs": 0}
            assert result.search.expansions == 0
        assert untouched >= 8

    def test_a_graph_the_reductions_changed_keeps_the_smaller_budget(self):
        # Reduced unit grids and a unit 6-cube between the two budgets: the
        # reductions deleted something, so the search is not the whole DP.
        corpus = [unit_grid(12, 12, 10, 1, s) for s in range(8)]
        corpus.append(hypercube(random.Random("6:unit"), 6, 10, 1, 1, 2))
        searched = 0
        for inst in corpus:
            result = solve(inst)
            reduced = result.preprocess.reduced
            if result.search is None:
                continue
            assert result.preprocess.changed
            size = 3 ** len(reduced.terminals) * reduced.network.vertex_count
            assert DP_BUDGET < size <= 8 * DP_BUDGET
            assert result.search.expansions > 0
            assert result.cost == optimum(inst)
            searched += 1
        assert searched >= 4

    def test_the_round_takes_its_first_root(self):
        for inst in whole_dp_cubes():
            ctx = SolveContext(whole_dp=True)
            w = _Working(inst, ctx)
            w.simple_fixpoint()
            snapshot, order, _ = w.snapshot()
            first = dual_ascent(snapshot, min(snapshot.terminals))
            if w.dual_ascent_elimination() == 0 and not ctx.proven:
                assert ctx.root == order[first.root]
                assert w.run == first


class TestStatsSchema:
    def test_every_kind_of_solve_reports_the_same_keys(self):
        grid = unit_grid(12, 12, 10, 1, 1)  # searched: the reductions prove seed 0
        trivial = solve(make_diamond())
        proven = solve(unit_grid_8x8())
        searched = solve(grid)
        plain = solve(grid, SolveConfig(preprocess=False))
        timed_out = solve(grid, SolveConfig(time_limit=0.0))
        assert len(trivial.preprocess.reduced.terminals) == 1
        assert is_proof(proven)
        assert searched.search is not None and searched.preprocess.changed
        assert plain.search is not None and not plain.preprocess.changed
        assert timed_out.status == "timeout" and timed_out.preprocess is None
        kinds = (trivial, proven, searched, plain, timed_out)
        assert {frozenset(r.stats) for r in kinds} == {frozenset(searched.stats)}
        # An absent value reads None.
        assert trivial.stats["root"] is trivial.stats["search"] is None
        assert proven.stats["search"] is None
        assert timed_out.stats["root"] is timed_out.stats["search"] is None
        assert searched.stats["search"] == searched.search.as_dict()


class TestAutoOnLargeGraphs:
    @pytest.mark.parametrize("seed, expected", [(1, 215), (2, 170)])
    def test_dual_ascent_guides_above_ten_thousand_edges(self, seed, expected):
        # Without preprocessing the search runs on all 19,800 edges.
        inst = unit_grid(100, 100, 6, 1, seed)
        assert inst.network.edge_count > 10_000
        config = SolveConfig(preprocess=False)
        result = solve(inst, config)
        assert result.stats["heuristic"] == "da+dw"
        assert result.status == "optimal"
        assert validate_tree(inst, result.tree) == result.cost == expected
        config.heuristic = "onetree"
        assert solve(inst, config).cost == expected


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

    def test_dual_ascent_runs_on_a_large_grid_honour_the_limit(self, monkeypatch):
        # One dual-ascent run on this 44,700-edge grid takes longer than the
        # tolerance.  With preprocessing the limits land in the first
        # snapshot build (0.25 s and 0.5 s, on a slower machine), the first
        # elimination round's dual ascent and its upper bound's local
        # search; without, in root selection's dual-ascent runs.  A timed
        # solve first builds one RSPH tree of the input, so the solve may
        # take as long as that tree when it takes longer than the limit.
        inst = unit_grid(150, 150, 30, 100, 9)
        rsph_seconds = []
        real_rsph = stpsolve.solver.rsph

        def timed_rsph(instance):
            start = time.perf_counter()
            tree = real_rsph(instance)
            rsph_seconds.append(time.perf_counter() - start)
            return tree

        monkeypatch.setattr(stpsolve.solver, "rsph", timed_rsph)
        sweep = [(True, limit) for limit in (0.25, 0.5, 1.2, 2.4)]
        sweep += [(False, limit) for limit in (0.6, 0.9, 1.2, 1.5)]
        for preprocess, limit in sweep:
            rsph_seconds.clear()
            start = time.perf_counter()
            result = solve(inst, SolveConfig(preprocess=preprocess, time_limit=limit))
            elapsed = time.perf_counter() - start
            assert result.status == "timeout"
            assert validate_tree(inst, result.tree) == result.cost
            assert result.stats["upper_bound"] == result.cost
            assert result.stats["lower_bound"] <= result.stats["upper_bound"]
            floor = max(limit, rsph_seconds[0])
            assert elapsed <= floor + max(0.25, 0.1 * limit), (preprocess, limit)

    @pytest.mark.parametrize("heuristic", ["auto", "da", "onetree", "zero"])
    def test_a_search_timeout_without_preprocessing_reports_a_bound(
        self, monkeypatch, heuristic
    ):
        # Without preprocessing no reduction round proves a bound, so the
        # solve takes the dual-ascent bound of its root, whichever heuristic
        # guides the search and whether it picks the root or is given one.
        def search(*args, **kwargs):
            raise SolveTimeout()

        monkeypatch.setattr(stpsolve.solver, "ds_star", search)
        inst = unit_grid_8x8()
        for root in (None, min(inst.terminals), max(inst.terminals)):
            config = SolveConfig(
                preprocess=False, heuristic=heuristic, root=root, time_limit=60.0
            )
            result = solve(inst, config)
            assert result.status == "timeout"
            assert 0 < result.stats["lower_bound"] <= optimum(inst)
            bound = dual_ascent(inst, result.stats["root"]).lower_bound
            assert result.stats["lower_bound"] == bound
            assert result.stats["upper_bound"] == result.cost >= optimum(inst)

    def test_a_timeout_among_the_root_runs_keeps_their_bound(self, monkeypatch):
        # Without preprocessing the solve picks its root by the improving
        # dual-ascent runs over all terminals, and raises its bound with
        # each: time running out among them keeps the best finished run's.
        calls, finished = [], []
        real_run = stpsolve.bounds.dual_ascent

        def check(deadline):
            calls.append(deadline)
            if len(calls) == stop_at:
                raise SolveTimeout()

        def run(instance, root, terminal_subset=None, deadline=None):
            result = real_run(instance, root, terminal_subset, deadline)
            if terminal_subset is None:
                finished.append(result.lower_bound)
            return result

        for module in (stpsolve.solver, stpsolve.reductions, stpsolve.bounds):
            monkeypatch.setattr(module, "check_deadline", check)
        monkeypatch.setattr(stpsolve.bounds, "dual_ascent", run)
        among_runs = 0
        for inst in TIMEOUT_CORPUS[:20]:
            expected = optimum(inst)
            stop_at = 1
            while True:
                calls.clear()
                finished.clear()
                config = SolveConfig(preprocess=False, time_limit=60.0)
                result = solve(inst, config)
                if result.status == "optimal":
                    assert result.cost == expected
                    break
                if finished:
                    assert max(finished) <= result.stats["lower_bound"] <= expected
                    among_runs += result.stats["root"] is None
                stop_at += 1
        assert among_runs >= 20

    def test_search_timeouts_report_the_open_queue_bound(self, monkeypatch):
        # A weighted 7-cube of the many-terminals family, past the DP
        # budget, whose reductions delete something, so that it searches.  The
        # search closes the gap between the bound the reductions prove
        # (1976) and the optimum (2074).  Time limits sweep the solve: every
        # timeout brackets the optimum and returns a valid tree, and
        # timeouts late in the search report the open queue's bound, above
        # the bound the search started from.
        inst = hypercube(random.Random("3:w"), 7, 10, 100, 110, 3)
        expected = optimum(inst)
        start = time.perf_counter()
        assert solve(inst).cost == expected
        elapsed = time.perf_counter() - start

        def search(*args, **kwargs):
            raise SolveTimeout()

        with monkeypatch.context() as patch:
            patch.setattr(stpsolve.solver, "ds_star", search)
            before = solve(inst, SolveConfig(time_limit=60.0)).stats["lower_bound"]
        assert before < expected
        searched = raised = 0
        for step in range(1, 20):
            result = solve(inst, SolveConfig(time_limit=elapsed * step / 20))
            stats = result.stats
            assert validate_tree(inst, result.tree) == result.cost
            assert stats["lower_bound"] <= expected <= stats["upper_bound"]
            assert stats["upper_bound"] == result.cost
            if result.status == "timeout" and result.search is not None:
                searched += 1
                raised += stats["lower_bound"] > before
        assert searched >= 5
        assert raised >= 1

    def test_a_search_timeout_returns_the_tree_it_banked(self, monkeypatch):
        # Two weighted 7-cubes past the DP budget, each with something the
        # reductions delete, whose searches bank a tree
        # cheaper than the reductions' incumbent and go on: time runs out
        # right after the first bank, and the timeout returns that tree.
        banked = []
        real_mst, real_clock = stpsolve.solver.pruned_mst, time.monotonic

        def bank(network, edges, keep):
            tree = real_mst(network, edges, keep)
            banked.append(sum(network.cost_of(e) for e in tree))
            return tree

        def clock():  # the deadline passes once a tree is banked
            return real_clock() + 1e6 * bool(banked)

        monkeypatch.setattr(stpsolve.solver, "pruned_mst", bank)
        monkeypatch.setattr(time, "monotonic", clock)
        for tag in ("4:w", "1:w"):
            inst = hypercube(random.Random(tag), 7, 10, 100, 110, 3)
            banked.clear()
            result = solve(inst, SolveConfig(time_limit=60.0))
            assert result.status == "timeout"
            assert len(banked) == 1
            assert result.cost == banked[0] + result.preprocess.offset
            assert validate_tree(inst, result.tree) == result.cost
            assert result.stats["upper_bound"] == result.cost
            assert result.stats["lower_bound"] <= result.cost

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

    def test_timeouts_inside_exact_table_builds(self, monkeypatch):
        # The search on a weighted 6-cube builds exact subset tables, which
        # make most of the solve's deadline checks.  Time runs out at every
        # third check (a superset of every ninth, 1 + 9j = 1 + 3 * 3j), most
        # often inside a subset table build: the whole DP fits the budget,
        # and the search builds the tables of its first start state only.
        inst = hypercube(random.Random(2), 6, 8, 100, 110, 3)
        expected = optimum(inst)
        calls = []
        building = 0
        real_subset = stpsolve.bounds.ExactSubsetHeuristic._subset

        def subset(self, key):
            nonlocal building
            building += 1
            try:
                return real_subset(self, key)
            finally:
                building -= 1

        def check(deadline):
            calls.append(building)
            if len(calls) == stop_at:
                raise SolveTimeout()

        for module in (stpsolve.solver, stpsolve.reductions, stpsolve.bounds):
            monkeypatch.setattr(module, "check_deadline", check)
        monkeypatch.setattr(stpsolve.bounds.ExactSubsetHeuristic, "_subset", subset)
        in_tables = 0
        stop_at = 1
        while True:
            calls.clear()
            result = solve(inst, SolveConfig(time_limit=60.0))
            if result.status == "optimal":
                assert result.cost == expected
                break
            stats = result.stats
            assert validate_tree(inst, result.tree) == result.cost
            assert result.cost == stats["upper_bound"]
            assert stats["lower_bound"] <= expected <= stats["upper_bound"]
            in_tables += calls[-1] > 0
            stop_at += 3
        assert in_tables >= 20

    def test_a_past_deadline_stops_the_prune_table(self, monkeypatch):
        # The prune table's rows are one Dijkstra per terminal; with the
        # deadline already past, the search stops before the second row and
        # reports its (zero) counters.
        rows = 0
        real = stpsolve.solver.shortest_path_distances

        def row(network, source):
            nonlocal rows
            rows += 1
            return real(network, source)

        monkeypatch.setattr(stpsolve.solver, "shortest_path_distances", row)
        inst = unit_grid(20, 20, 10, 1, 9)
        root = min(inst.terminals)
        with pytest.raises(SolveTimeout) as info:
            stpsolve.solver.ds_star(
                inst, root, zero_heuristic(inst, root), True, time.monotonic() - 1
            )
        assert rows <= 1
        search = info.value.search
        assert search is not None
        assert search.expansions == search.insertions == 0

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


# The first 40 instances are the original corpus; the other 40, from two
# more seeds of the same generator, keep the number of timeouts above the
# floor as a solve makes fewer deadline checks.
TIMEOUT_CORPUS = proof_corpus(307, 40) + proof_corpus(308, 10) + proof_corpus(309, 30)


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

    def run(instance, root, terminal_subset=None, deadline=None):
        nonlocal root_runs
        result = real_run(instance, root, terminal_subset, deadline)
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
