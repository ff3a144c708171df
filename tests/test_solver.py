import json
import random

import pytest

import stpsolve.solver
from stpsolve import (
    HeuristicNegative,
    InputError,
    Instance,
    InternalError,
    Network,
    SolveConfig,
    SolveContext,
    TooManyTerminals,
    combine_split_cost,
    compute_smt,
    da_heuristic,
    dreyfus_wagner,
    ds_star,
    make_prune_state,
    one_tree_heuristic,
    prune,
    prune_combine,
    run_pipeline,
    SteinerTree,
    shortest_path_distances,
    solve,
    validate_tree,
    zero_heuristic,
)
from stpsolve.bounds import SteinerHeuristic, TerminalIndex, auto_heuristic
from stpsolve.graph import SolveTimeout
from conftest import brute_force_smt, random_grid, random_instance, unit_grid_8x8


class ErraticExact(SteinerHeuristic):
    """Admissible stress heuristic: the exact sub-instance optimum on half
    the states and zero on the rest, which breaks any consistency."""

    name = "erratic"

    def __init__(self, instance, root):
        self.instance = instance
        self.root = root
        self.index = TerminalIndex(instance.terminals, root)
        self._cache = {}

    def eval_mask(self, u, mask):
        if (u + mask.bit_count()) % 2 == 0:
            return 0
        key = (u, mask)
        value = self._cache.get(key)
        if value is None:
            terms = frozenset(self.index.members(mask)) | {self.root, u}
            sub = Instance(self.instance.network, terms)
            value = dreyfus_wagner(sub, self.root)[0]
            self._cache[key] = value
        return value


def long_path_instance(n):
    net = Network(n, [(i, i + 1, 1) for i in range(n - 1)])
    return Instance(net, frozenset(range(n)))


class TestDreyfusWagner:
    def test_path(self, fix_path):
        cost, tree = dreyfus_wagner(fix_path, 0)
        assert cost == 5 and len(tree.edges) == 2

    def test_star_tree_uses_all_edges(self, fix_star):
        cost, tree = dreyfus_wagner(fix_star, 1)
        assert cost == 9 and len(tree.edges) == 3

    def test_k4_rooted_at_c(self, fix_k4):
        cost, tree = dreyfus_wagner(fix_k4, 2)
        assert cost == 27
        assert validate_tree(fix_k4, tree) == 27

    def test_k4_first_combine_identity(self, fix_k4):
        # the {a, d} merge value at c is the sum of the two singleton values
        dist_c = shortest_path_distances(fix_k4.network, 2)
        singles = {0b001: dist_c[0], 0b010: dist_c[1], 0b100: dist_c[3]}
        assert combine_split_cost(singles, 0b101) == 28

    def test_matches_brute_force(self):
        rng = random.Random(89)
        for _ in range(40):
            inst = random_instance(rng, min_n=3, max_n=7, max_t=4, max_cost=9)
            cost, tree = dreyfus_wagner(inst, min(inst.terminals))
            assert cost == brute_force_smt(inst)
            assert validate_tree(inst, tree) == cost

    def test_terminal_cap(self):
        with pytest.raises(TooManyTerminals):
            dreyfus_wagner(long_path_instance(27), 0)


class TestDsStar:
    def test_zero_heuristic_equals_dw_on_fixtures(
        self, fix_path, fix_star, fix_diamond, fix_k4, fix_ntdk
    ):
        for inst in (fix_path, fix_star, fix_diamond, fix_k4, fix_ntdk):
            root = min(inst.terminals)
            expected = dreyfus_wagner(inst, root)[0]
            cost, tree, _ = ds_star(inst, root, zero_heuristic(inst, root), False)
            assert cost == expected
            assert validate_tree(inst, tree) == cost

    def test_k4_one_tree_needs_fewer_expansions(self, fix_k4):
        c1, _, guided = ds_star(fix_k4, 2, one_tree_heuristic(fix_k4, 2), True)
        c2, _, blind = ds_star(fix_k4, 2, zero_heuristic(fix_k4, 2), True)
        assert c1 == c2 == 27
        assert guided.expansions < blind.expansions

    def test_star_da_heuristic(self, fix_star):
        cost, _, stats = ds_star(fix_star, 3, da_heuristic(fix_star, 3), True)
        assert cost == 9
        assert stats.expansions >= 1

    def test_heuristic_for_another_root_is_rejected(self, fix_star):
        with pytest.raises(InputError):
            ds_star(fix_star, 1, zero_heuristic(fix_star, 2), True)

    def test_every_heuristic_value_is_checked(self):
        # Negative only when a state is asked for again: the search keeps
        # no copy of the values, so the repeat query is checked too.
        class NegativeOnRepeat(SteinerHeuristic):
            name = "negative-on-repeat"

            def __init__(self, instance, root):
                super().__init__(instance, root)
                self.asked = set()

            def eval_mask(self, u, mask):
                if (u, mask) in self.asked:
                    return -1
                self.asked.add((u, mask))
                return 0

        inst = unit_grid_8x8()
        root = min(inst.terminals)
        with pytest.raises(HeuristicNegative):
            ds_star(inst, root, NegativeOnRepeat(inst, root), False)

    def test_terminal_cap(self):
        inst = long_path_instance(130)
        with pytest.raises(TooManyTerminals):
            ds_star(inst, 0, zero_heuristic(inst, 0), True)

    def test_erratic_admissible_heuristic_forces_re_expansions(self):
        rng = random.Random(31415)
        total_re = 0
        for _ in range(60):
            inst = random_instance(rng)
            root = min(inst.terminals)
            expected = dreyfus_wagner(inst, root)[0]
            for pruning in (False, True):
                cost, tree, stats = ds_star(
                    inst, root, ErraticExact(inst, root), pruning
                )
                assert cost == expected
                assert validate_tree(inst, tree) == cost
                total_re += stats.re_expansions
        assert total_re > 0

    def test_expansions_within_theoretical_budget(self):
        rng = random.Random(97)
        for _ in range(15):
            inst = random_instance(rng, max_n=10, max_t=4)
            root = min(inst.terminals)
            _, _, stats = ds_star(inst, root, zero_heuristic(inst, root), False)
            budget = (
                (1 << (len(inst.terminals) - 1))
                * inst.network.vertex_count
                * inst.network.total_cost
            )
            assert stats.expansions <= budget

    def test_stats_line_is_json(self, fix_k4):
        _, _, stats = ds_star(fix_k4, 2, zero_heuristic(fix_k4, 2), True)
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["expansions"] == stats.expansions


def searching_auto(instance, root):
    """``auto`` without the whole subset DP, which on the small oracle
    instances always fits the budget and ends the search at its start
    states: the search then meets rows of at most one terminal from the
    start and dual-ascent tables before the switch."""
    h = auto_heuristic(instance, root)
    h._whole_dp = False
    return h


HEURISTICS = {
    "auto": auto_heuristic,
    "auto-searching": searching_auto,
    "da": da_heuristic,
    "onetree": one_tree_heuristic,
    "zero": zero_heuristic,
}


def oracle_corpus(main_corpus, main_corpus_optima, small_corpus):
    """(instance, root, optimum) over the first 200 instances of the main
    corpus and the whole small corpus."""
    for inst, optimum in zip(main_corpus[:200], main_corpus_optima):
        yield inst, min(inst.terminals), optimum
    for inst in small_corpus:
        root = min(inst.terminals)
        yield inst, root, dreyfus_wagner(inst, root)[0]


@pytest.mark.parametrize("name", sorted(HEURISTICS))
class TestIncumbent:
    def test_costs_equal_dreyfus_wagner(
        self, name, main_corpus, main_corpus_optima, small_corpus
    ):
        for inst, root, optimum in oracle_corpus(
            main_corpus, main_corpus_optima, small_corpus
        ):
            cost, tree, _ = ds_star(inst, root, HEURISTICS[name](inst, root))
            assert cost == optimum
            assert validate_tree(inst, tree) == optimum

    def test_a_cutoff_at_the_optimum_proves_it(
        self, name, main_corpus, main_corpus_optima, small_corpus
    ):
        # No tree is cheaper than the optimum: the queue empties and the
        # search returns no tree.
        for inst, root, optimum in oracle_corpus(
            main_corpus, main_corpus_optima, small_corpus
        ):
            h = HEURISTICS[name](inst, root)
            assert ds_star(inst, root, h, cutoff=optimum)[:2] == (None, None)

    def test_a_cutoff_above_the_optimum_finds_it(
        self, name, main_corpus, main_corpus_optima, small_corpus
    ):
        for inst, root, optimum in oracle_corpus(
            main_corpus, main_corpus_optima, small_corpus
        ):
            h = HEURISTICS[name](inst, root)
            cost, tree, _ = ds_star(inst, root, h, cutoff=optimum + 1)
            assert cost == optimum
            assert validate_tree(inst, tree) == optimum

    def test_banked_trees_are_valid_and_cost_at_most_their_keys(
        self, name, monkeypatch, main_corpus, main_corpus_optima, small_corpus
    ):
        # Every incumbent the search banks is recorded; each must be a tree
        # that spans every terminal and costs at least the optimum.  The
        # search itself raises InternalError when a banked tree costs more
        # than its key (see test_a_completion_dearer_than_its_key_is_caught).
        banked = []
        real = stpsolve.solver.pruned_mst

        def recording(network, edges, keep):
            tree = real(network, edges, keep)
            banked.append(tree)
            return tree

        monkeypatch.setattr(stpsolve.solver, "pruned_mst", recording)
        completed = 0
        for inst, root, optimum in oracle_corpus(
            main_corpus, main_corpus_optima, small_corpus
        ):
            banked.clear()
            cost, tree, _ = ds_star(inst, root, HEURISTICS[name](inst, root))
            assert banked and set(banked[-1]) == tree.edges
            for edges in banked:
                as_tree = SteinerTree.from_edges(inst.network, edges, root)
                assert validate_tree(inst, as_tree) >= optimum
            completed += len(banked)
        assert completed >= 300

    def test_timeouts_carry_a_bound_below_the_optimum(self, name):
        # Time runs out at the j-th guide query, for every j up to the
        # number a search makes; the bound of each timeout raised after the
        # start states are queued lies between 0 and the optimum.  Plain
        # ``auto`` times out only at its start states here, with no bound.
        class Expiring(SteinerHeuristic):
            def __init__(self, inner, calls):
                self.inner, self.calls = inner, calls
                self.root, self.index = inner.root, inner.index
                self.made = 0

            def eval_mask(self, u, mask):
                self.made += 1
                if self.made == self.calls:
                    raise SolveTimeout()
                return self.inner.eval_mask(u, mask)

            def exact(self, mask):
                return self.inner.exact(mask)

            def completion(self, u, mask):
                return self.inner.completion(u, mask)

        rng = random.Random(71)
        bounded = 0
        for _ in range(6):
            inst = random_grid(rng, max_side=7, min_t=5, max_t=8)
            root = min(inst.terminals)
            optimum = dreyfus_wagner(inst, root)[0]
            calls = 1
            while True:
                h = Expiring(HEURISTICS[name](inst, root), calls)
                try:
                    cost, _, _ = ds_star(inst, root, h)
                except SolveTimeout as exc:
                    bound = exc.lower_bound
                    assert bound is None or 0 <= bound <= optimum
                    bounded += bound is not None and bound > 0
                    calls += 1
                    continue
                assert cost == optimum
                break
        assert bounded >= (0 if name == "auto" else 100)


def test_a_completion_dearer_than_its_key_is_caught(fix_k4):
    class Lying(SteinerHeuristic):
        """Claims exact zero values, completing with every edge."""

        def eval_mask(self, u, mask):
            return 0

        def exact(self, mask):
            return True

        def completion(self, u, mask):
            return range(self.instance.network.edge_count)

    with pytest.raises(InternalError):
        ds_star(fix_k4, 2, Lying(fix_k4, 2))


def uncached_prune(state, v, mask, tentative):
    """Reference ``prune``: the minimum over the mask's members is taken
    afresh for every outside terminal on every call."""
    members = state.index.members(mask)
    inside = set(members)
    best = None
    best_z = None
    for z in state.terminals:
        if z in inside:
            continue
        row = state.rows[z]
        jump = min(min(row[x] for x in members), row[v])
        if best is None or jump < best:
            best, best_z = jump, z
    cand = tentative + best
    cur = state.upper.get(mask)
    if cur is None or cand < cur:
        state.upper[mask] = cand
        state.witness[mask] = frozenset((best_z,))
        cur = cand
    return tentative > cur


class TestPruning:
    def test_fresh_state_never_prunes(self, fix_k4):
        state = make_prune_state(fix_k4, 2)
        mask_a = state.index.mask_of({0})
        assert prune(state, 1, mask_a, 1) is False

    def test_recorded_bound_prunes_later_state(self, fix_k4):
        state = make_prune_state(fix_k4, 2)
        mask_a = state.index.mask_of({0})
        prune(state, 1, mask_a, 1)  # b joins a cheaply, bound becomes tight
        assert prune(state, 2, mask_a, 12) is True

    def test_goal_state_never_pruned(self, fix_k4):
        state = make_prune_state(fix_k4, 2)
        full = state.index.full_mask
        optimum = dreyfus_wagner(fix_k4, 2)[0]
        assert prune(state, 2, full, optimum) is False

    def test_matches_uncached_formula(self):
        rng = random.Random(103)
        for _ in range(60):
            inst = random_instance(rng, min_n=6, min_t=3, max_t=7)
            root = rng.choice(sorted(inst.terminals))
            cached = make_prune_state(inst, root)
            reference = make_prune_state(inst, root)
            full = cached.index.full_mask
            masks = [rng.randint(1, full) for _ in range(4)]
            for _ in range(80):
                v = rng.randrange(inst.network.vertex_count)
                mask = rng.choice(masks)
                tentative = rng.randint(0, 2 * inst.network.total_cost)
                assert prune(cached, v, mask, tentative) == uncached_prune(
                    reference, v, mask, tentative
                )
                assert cached.upper == reference.upper
                assert cached.witness == reference.witness

    def test_combine_installs_sum_bound(self, fix_k4):
        state = make_prune_state(fix_k4, 2)
        mask_a = state.index.mask_of({0})
        mask_d = state.index.mask_of({3})
        prune(state, 1, mask_a, 1)
        prune(state, 1, mask_d, 15)
        bound_a = state.upper[mask_a]
        bound_d = state.upper[mask_d]
        prune_combine(state, 1, mask_a, mask_d, bound_a + bound_d)
        assert state.upper[mask_a | mask_d] <= bound_a + bound_d

    def test_combine_without_bounds_is_plain_prune(self, fix_k4):
        state = make_prune_state(fix_k4, 2)
        mask_a = state.index.mask_of({0})
        mask_d = state.index.mask_of({3})
        assert prune_combine(state, 1, mask_a, mask_d, 1) is False

    def test_overlapping_witnesses_skip_combination(self, fix_k4):
        state = make_prune_state(fix_k4, 2)
        mask_a = state.index.mask_of({0})
        mask_d = state.index.mask_of({3})
        state.upper[mask_a] = 5
        state.witness[mask_a] = frozenset({3})
        state.upper[mask_d] = 5
        state.witness[mask_d] = frozenset({0})
        prune_combine(state, 1, mask_a, mask_d, 4)
        # both witnesses sit inside the other side, so no sum bound appears;
        # the plain prune update owns whatever entry exists now
        assert state.upper[mask_a | mask_d] != 10

    def test_pruning_never_changes_costs(self):
        rng = random.Random(101)
        for _ in range(40):
            inst = random_instance(rng)
            root = min(inst.terminals)
            off = ds_star(inst, root, zero_heuristic(inst, root), False)[0]
            on = ds_star(inst, root, zero_heuristic(inst, root), True)[0]
            assert off == on


class TestComputeSmt:
    def test_base_state_has_no_edges(self, fix_star):
        index = TerminalIndex(fix_star.terminals, 3)
        assert compute_smt({}, fix_star.network, index, 1, index.bit[1]) == set()

    def test_a_missing_state_raises(self, fix_path):
        # (0, {2}) was reached along arc 1->0 (edge 0), but (1, {2}) is
        # neither recorded nor a base state.
        index = TerminalIndex(fix_path.terminals, 0)
        mask = index.bit[2]
        with pytest.raises(InternalError):
            compute_smt({(0, mask): 1}, fix_path.network, index, 0, mask)

    def test_one_arc_gives_its_edge(self, fix_path):
        # Arc 3 is 2->1, the reverse of edge 1 = (1, 2).
        net = fix_path.network
        index = TerminalIndex(fix_path.terminals, 0)
        mask = index.bit[2]
        assert net.tail[3] == 2
        assert compute_smt({(1, mask): 3}, net, index, 1, mask) == {1}

    def test_a_merge_follows_both_halves(self, fix_star):
        # Terminals 1 and 2 meet at the centre 0 along arcs 1->0 and 2->0.
        index = TerminalIndex(fix_star.terminals, 3)
        one, two = index.bit[1], index.bit[2]
        retrace = {(0, one | two): (one, two), (0, one): 1, (0, two): 3}
        got = compute_smt(retrace, fix_star.network, index, 0, one | two)
        assert got == {0, 1}

    def test_path_goal_retrace(self, fix_path):
        _, tree, _ = ds_star(fix_path, 0, zero_heuristic(fix_path, 0), False)
        assert tree.edges == frozenset({0, 1})

    def test_star_goal_retrace(self, fix_star):
        _, tree, _ = ds_star(fix_star, 1, zero_heuristic(fix_star, 1), False)
        assert len(tree.edges) == 3


class TestSolve:
    def test_diamond_solved_by_preprocessing(self, fix_diamond):
        result = solve(fix_diamond)
        assert result.status == "optimal" and result.cost == 2
        assert result.search is None  # never reached the search

    def test_k4_defaults(self, fix_k4):
        result = solve(fix_k4)
        assert result.cost == 27
        assert validate_tree(fix_k4, result.tree) == 27

    def test_root_override(self, fix_k4):
        result = solve(fix_k4, SolveConfig(root=3))
        assert result.cost == 27

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time_limit", float("nan")),
            ("time_limit", float("inf")),
            ("time_limit", -1.0),
        ],
    )
    def test_bad_limits_are_input_errors(self, field, value):
        inst = unit_grid_8x8()
        with pytest.raises(InputError):
            solve(inst, SolveConfig(**{field: value}))

    def test_no_preprocess_no_pruning(self, fix_k4):
        result = solve(fix_k4, SolveConfig(preprocess=False, pruning=False))
        assert result.cost == 27

    def test_heuristic_choices_agree(self, fix_ntdk):
        costs = {
            solve(fix_ntdk, SolveConfig(heuristic=h)).cost
            for h in ("auto", "da", "onetree", "zero")
        }
        assert costs == {8}

    def test_preprocessing_root_run_is_reused(self):
        # The search root is the solve context's root (chosen once, in the
        # first dual-ascent elimination round) mapped to reduced ids.
        rng = random.Random(127)
        searched = 0
        for _ in range(80):
            width = rng.randint(7, 9)
            n = width * width
            edges = [(v, v + 1, 1) for v in range(n) if v % width + 1 < width]
            edges += [(v, v + width, 1) for v in range(n - width)]
            terminals = frozenset(rng.sample(range(n), rng.randint(3, 6)))
            inst = Instance(Network(n, edges), terminals)
            result = solve(inst)
            ctx = SolveContext()
            pre = run_pipeline(inst, ctx)
            reduced = result.preprocess.reduced
            assert pre.reduced.network.edges == reduced.network.edges
            assert pre.reduced.terminals == reduced.terminals
            assert ctx.lower_bound <= result.cost <= ctx.upper_bound
            if len(pre.reduced.terminals) <= 1:
                continue
            root = pre.vertex_image[ctx.root]
            assert root in pre.reduced.terminals
            assert result.stats["root"] == root
            searched += result.search is not None
            limited = solve(inst, SolveConfig(time_limit=60.0))
            assert limited.cost == result.cost
            assert limited.stats["root"] == result.stats["root"]
        assert searched >= 3

    def test_zero_time_limit_times_out(self, fix_k4):
        result = solve(fix_k4, SolveConfig(time_limit=0.0))
        assert result.status == "timeout"

    def test_timeout_incumbent_is_feasible_when_present(self, fix_k4):
        result = solve(fix_k4, SolveConfig(time_limit=0.0))
        if result.tree is not None:
            assert validate_tree(fix_k4, result.tree) == result.cost

    def test_matches_dw_on_random_instances(self):
        rng = random.Random(103)
        for _ in range(40):
            inst = random_instance(rng)
            expected = dreyfus_wagner(inst, min(inst.terminals))[0]
            result = solve(inst)
            assert result.status == "optimal"
            assert result.cost == expected
            assert validate_tree(inst, result.tree) == expected
