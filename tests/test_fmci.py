import numpy as np
import pytest

import hmmposterior as hp
from oracles import (
    enumerate_posterior,
    oracle_distribution,
    random_instance,
    reference_propagate,
    statistic_value,
    total_variation,
)

ALL_BUILDERS = [
    ("jumps", lambda ell: hp.build_jump_chain(ell, "jumps")),
    ("runs", lambda ell: hp.build_jump_chain(ell, "runs")),
    ("positions", hp.build_positions_chain),
    ("longest_run", hp.build_longest_run_chain),
    ("exact_run_1", lambda ell: hp.build_exact_run_chain(1, ell)),
    ("exact_run_2", lambda ell: hp.build_exact_run_chain(2, ell)),
    ("exact_run_3", lambda ell: hp.build_exact_run_chain(3, ell)),
]


def manual_chain(init, stay1, stay2):
    """A two-state posterior chain with prescribed staying probabilities."""
    stay1 = np.asarray(stay1, dtype=float)
    stay2 = np.asarray(stay2, dtype=float)
    trans = np.empty((stay1.size, 2, 2))
    trans[:, 0, 0] = stay1
    trans[:, 0, 1] = 1.0 - stay1
    trans[:, 1, 1] = stay2
    trans[:, 1, 0] = 1.0 - stay2
    return hp.PosteriorChain(init=np.asarray(init, dtype=float), trans=trans)


def fmci_distribution(chain, statistic, ell, run_length=None):
    spec = hp.build_spec(statistic, ell, run_length)
    return hp.aggregate(spec, hp.propagate(spec, chain))


class TestSpecConstruction:
    def test_sizes(self):
        assert hp.build_jump_chain(7).size == 2 * 7 + 3
        assert hp.build_positions_chain(7).size == 2 * 7 + 2
        assert hp.build_exact_run_chain(3, 7).size == (7 + 1) * (3 + 2) + 1
        # blocks of sizes 1, 2, ..., ell+1 plus the absorbing overflow state
        assert hp.build_longest_run_chain(7).size == (7 + 1) * (7 + 2) // 2 + 1

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_rows_stochastic_on_grid(self, name, builder):
        spec = builder(4)
        grid = np.linspace(0.0, 1.0, 10)
        for a in grid:
            for b in grid:
                coef = np.array([a, 1.0 - a, b, 1.0 - b, 1.0])
                mat = np.zeros((spec.size, spec.size))
                np.add.at(mat, (spec.rows, spec.cols), coef[spec.kinds])
                assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_initial_vector_normalized(self, name, builder):
        spec = builder(3)
        v = spec.initial_vector(0.25, 0.75)
        assert abs(v.sum() - 1.0) < 1e-12
        assert (v >= 0).all()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hp.build_jump_chain(0)
        with pytest.raises(ValueError):
            hp.build_jump_chain(3, mode="visits")
        with pytest.raises(ValueError):
            hp.build_exact_run_chain(0, 3)
        with pytest.raises(ValueError):
            hp.build_spec("visits", 3)
        with pytest.raises(ValueError):
            hp.build_spec("exact_run", 3)


class TestClosedForms:
    def test_no_jumps_when_stay_certain(self):
        chain = manual_chain([1.0, 0.0], stay1=np.ones(6), stay2=np.full(6, 0.5))
        dist = fmci_distribution(chain, "jumps", 3)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_step_jump_probability(self):
        eta1, a2 = 0.6, 0.3
        chain = manual_chain([eta1, 1 - eta1], stay1=[a2], stay2=[0.8])
        dist = fmci_distribution(chain, "jumps", 2)
        assert dist.probs[1] == pytest.approx(eta1 * (1 - a2), abs=1e-12)

    def test_never_enter_positions(self):
        rng = np.random.default_rng(0)
        stay1 = rng.uniform(0.3, 1.0, size=7)
        eta1 = 0.85
        chain = manual_chain([eta1, 1 - eta1], stay1, rng.uniform(0.0, 1.0, size=7))
        dist = fmci_distribution(chain, "positions", 8)
        assert dist.probs[0] == pytest.approx(eta1 * np.prod(stay1), abs=1e-12)

    def test_never_enter_longest_run(self):
        rng = np.random.default_rng(1)
        stay1 = rng.uniform(0.3, 1.0, size=5)
        eta1 = 0.7
        chain = manual_chain([eta1, 1 - eta1], stay1, rng.uniform(0.0, 1.0, size=5))
        dist = fmci_distribution(chain, "longest_run", 6)
        assert dist.probs[0] == pytest.approx(eta1 * np.prod(stay1), abs=1e-12)

    def test_two_step_longest_run(self):
        eta2, b2 = 0.4, 0.65
        chain = manual_chain([1 - eta2, eta2], stay1=[0.9], stay2=[b2])
        dist = fmci_distribution(chain, "longest_run", 2)
        assert dist.probs[2] == pytest.approx(eta2 * b2, abs=1e-12)

    def test_run_longer_than_sequence_impossible(self):
        chain = manual_chain([0.5, 0.5], stay1=[0.5, 0.5], stay2=[0.5, 0.5])  # n = 3
        dist = fmci_distribution(chain, "exact_run", 3, run_length=5)
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_position_run_counts_open_run(self):
        chain = hp.PosteriorChain(init=np.array([0.3, 0.7]), trans=np.empty((0, 2, 2)))
        dist = fmci_distribution(chain, "exact_run", 2, run_length=1)
        assert dist.probs[1] == pytest.approx(0.7, abs=1e-12)
        assert dist.probs[0] == pytest.approx(0.3, abs=1e-12)


class TestOracleEquivalence:
    def test_random_models_match_enumeration(self):
        rng = np.random.default_rng(101)
        for _ in range(40):
            model, x = random_instance(rng, n_low=2, n_high=12)
            n = len(x)
            chain = hp.build_posterior_chain(model, hp.forward_backward(model, x))
            paths, _, w, _ = enumerate_posterior(model, x)
            for statistic, run_length in [
                ("jumps", None), ("runs", None), ("positions", None),
                ("longest_run", None), ("exact_run", 1), ("exact_run", 2), ("exact_run", 3),
            ]:
                dist = fmci_distribution(chain, statistic, n, run_length)
                mine = np.concatenate([dist.probs, [dist.overflow]])
                oracle = oracle_distribution(paths, w, statistic, n, run_length)
                assert total_variation(mine, oracle) < 1e-9

    def test_truncation_overflow_matches_enumeration(self):
        rng = np.random.default_rng(202)
        model, x = random_instance(rng, n_low=10, n_high=12)
        chain = hp.build_posterior_chain(model, hp.forward_backward(model, x))
        paths, _, w, _ = enumerate_posterior(model, x)
        dist = fmci_distribution(chain, "positions", 2)
        oracle = oracle_distribution(paths, w, "positions", 2)
        assert total_variation(np.concatenate([dist.probs, [dist.overflow]]), oracle) < 1e-9
        assert dist.overflow > 0


class TestPropagateAggregate:
    def test_length_one_returns_initial_vector(self):
        chain = hp.PosteriorChain(init=np.array([0.2, 0.8]), trans=np.empty((0, 2, 2)))
        spec = hp.build_jump_chain(3, "runs")
        final = hp.propagate(spec, chain)
        assert final == pytest.approx(spec.initial_vector(0.2, 0.8))

    def test_final_vector_sums_to_one(self, lamb_chain):
        for _, builder in ALL_BUILDERS:
            spec = builder(9)
            final = hp.propagate(spec, lamb_chain)
            assert final.sum() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_three_state_chain(self):
        m = hp.model_grid([0.8], [5])[0]
        _, x = hp.simulate(m, 6, seed=0)
        chain = hp.build_posterior_chain(m, hp.forward_backward(m, x))
        with pytest.raises(hp.TwoStateRequiredError):
            hp.propagate(hp.build_jump_chain(3), chain)

    def test_aggregate_grouping_matches_block_layout(self):
        spec = hp.build_jump_chain(2, "jumps")
        final = np.zeros(spec.size)
        final[0], final[1] = 0.1, 0.2   # zero jumps, both current states
        final[2], final[3] = 0.3, 0.25  # one jump
        final[-1] = 0.15                # overflow
        dist = hp.aggregate(spec, final)
        assert dist.probs[0] == pytest.approx(0.3)
        assert dist.probs[1] == pytest.approx(0.55)
        assert dist.overflow == pytest.approx(0.15)

    def test_aggregate_positions_layout(self):
        spec = hp.build_positions_chain(2)
        final = np.zeros(spec.size)
        final[0] = 0.4          # zero positions
        final[1], final[2] = 0.35, 0.25  # one position
        dist = hp.aggregate(spec, final)
        assert dist.probs[0] == pytest.approx(0.4)
        assert dist.probs[1] == pytest.approx(0.6)

    def test_aggregate_point_mass(self):
        spec = hp.build_positions_chain(3)
        final = np.zeros(spec.size)
        final[0] = 1.0
        dist = hp.aggregate(spec, final)
        assert dist.probs[0] == pytest.approx(1.0)
        assert dist.overflow == 0.0

    def test_aggregate_rejects_unnormalized(self):
        spec = hp.build_positions_chain(2)
        with pytest.raises(ValueError):
            hp.aggregate(spec, np.full(spec.size, 0.5))

    def test_consistency_between_statistics(self, lamb_chain):
        ell = 30
        d_runs = fmci_distribution(lamb_chain, "runs", ell)
        d_pos = fmci_distribution(lamb_chain, "positions", ell)
        d_long = fmci_distribution(lamb_chain, "longest_run", ell)
        enter = 1.0 - d_runs.probs[0]
        assert d_pos.tail_prob(1) == pytest.approx(enter, abs=1e-9)
        assert d_long.tail_prob(1) == pytest.approx(enter, abs=1e-9)


def random_stay_chain(seed, n):
    """A random two-state chain whose stay probabilities include exact 0 and 1.

    Some are tiny powers of ten, so that products of them fall into the
    subnormal range or underflow to exact zeros.
    """
    rng = np.random.default_rng(seed)
    stay = rng.uniform(size=(2, n - 1))
    stay[rng.random(stay.shape) < 0.2] = 0.0
    stay[rng.random(stay.shape) < 0.2] = 1.0
    tiny = rng.random(stay.shape) < 0.15
    stay[tiny] = 10.0 ** -rng.integers(100, 320, size=tiny.sum())
    init = rng.choice([0.0, 1.0, rng.uniform()])
    return manual_chain([init, 1.0 - init], stay[0], stay[1])


def prefix(chain, n):
    return hp.PosteriorChain(init=chain.init, trans=chain.trans[: n - 1])


class TestWindowedPropagation:
    """The windowed kernel against the product over every entry, bit for bit."""

    @pytest.fixture(scope="class")
    def chains(self, lamb_chain, earthquake_model, earthquake_counts):
        quake = hp.build_posterior_chain(
            earthquake_model, hp.forward_backward(earthquake_model, earthquake_counts)
        )
        fixtures = [lamb_chain, hp.swap_states(lamb_chain), quake]
        randoms = [random_stay_chain(seed, 30) for seed in range(4)]
        return fixtures, randoms

    @staticmethod
    def assert_bit_identical(spec, chain):
        final = hp.propagate(spec, chain)
        assert np.array_equal(final, reference_propagate(spec, chain))
        return final

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_tight_truncation_reaches_overflow(self, chains, name, builder):
        fixtures, randoms = chains
        spec = builder(2)
        for chain in fixtures:
            assert self.assert_bit_identical(spec, chain)[-1] > 0.0
        for chain in randoms:
            self.assert_bit_identical(spec, chain)

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_moderate_truncation(self, chains, name, builder):
        fixtures, randoms = chains
        spec = builder(12)
        for chain in fixtures + randoms:
            self.assert_bit_identical(spec, chain)

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_truncation_far_above_support(self, chains, name, builder):
        # no statistic of an n-step path exceeds n, so ell = 4n leaves most
        # imbedded states without mass for the whole sequence
        fixtures, randoms = chains
        n = 30
        spec = builder(4 * n)
        for chain in [prefix(c, n) for c in fixtures] + randoms:
            assert self.assert_bit_identical(spec, chain)[-1] == 0.0

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_one_and_two_positions(self, name, builder):
        spec = builder(3)
        for init in ([0.3, 0.7], [1.0, 0.0], [0.0, 1.0]):
            self.assert_bit_identical(spec, manual_chain(init, [], []))
            for stay1, stay2 in ((0.25, 0.6), (0.0, 1.0), (1.0, 0.0)):
                self.assert_bit_identical(spec, manual_chain(init, [stay1], [stay2]))


class TestExpectedRunCounts:
    def test_zero_for_chain_that_never_enters(self):
        chain = manual_chain([1.0, 0.0], stay1=np.ones(5), stay2=np.full(5, 0.5))
        counts = hp.expected_exact_run_counts(chain, k_max=3, truncation=4)
        assert np.allclose(counts.expected, 0.0)
        assert not counts.lower_bound.any()

    def test_matches_enumeration_expectation(self):
        rng = np.random.default_rng(301)
        model, x = random_instance(rng, n_low=8, n_high=10)
        n = len(x)
        chain = hp.build_posterior_chain(model, hp.forward_backward(model, x))
        paths, _, w, _ = enumerate_posterior(model, x)
        counts = hp.expected_exact_run_counts(chain, k_max=3, truncation=n)
        for k in (1, 2, 3):
            expected = sum(
                wp * statistic_value(p, "exact_run", k) for p, wp in zip(paths, w)
            )
            assert counts.expected[k - 1] == pytest.approx(expected, abs=1e-8)

    def test_lamb_run_counts_match_sampling(self, lamb_chain):
        counts = hp.expected_exact_run_counts(lamb_chain, k_max=7, truncation=20)
        samples = hp.sample_posterior_paths(lamb_chain, 1000, seed=9)
        for k in range(1, 8):
            empirical = np.array([statistic_value(p, "exact_run", k) for p in samples], float)
            se = empirical.std(ddof=1) / np.sqrt(len(empirical))
            assert abs(counts.expected[k - 1] - empirical.mean()) <= 4 * se + 0.01


COUNTING = [("jumps", None), ("runs", None), ("positions", None),
            ("exact_run", 1), ("exact_run", 2), ("exact_run", 3)]


def union_bound(chain, ell):
    """sum_t s_t * prod_{j=1..ell} b_{t+j}, s_1 = P(y_1 = 2 | x), s_t = 1 - a_t."""
    a, b = hp.stay_probabilities(chain)
    s = [chain.init[1]] + list(1.0 - a)
    # b_t is b[t - 2]; a run starting at t can exceed ell only if t + ell <= n
    return sum(s[t - 1] * np.prod(b[t - 1 : t - 1 + ell]) for t in range(1, chain.n - ell + 1))


class TestAutoTruncation:
    def test_counting_levels_are_exact_on_enumerable_instances(self):
        rng = np.random.default_rng(606)
        instances = [random_instance(rng, n_low=n, n_high=n) for n in (1, 2)]
        instances += [random_instance(rng, n_low=3, n_high=10) for _ in range(12)]
        for model, x in instances:
            chain = hp.build_posterior_chain(model, hp.forward_backward(model, x))
            paths, _, w, _ = enumerate_posterior(model, x)
            for statistic, run_length in COUNTING:
                ell = hp.auto_truncation(chain, statistic, run_length)
                # the largest value over every path, possible or not
                top = max(statistic_value(p, statistic, run_length) for p in paths)
                assert ell == max(top, 1)
                dist = fmci_distribution(chain, statistic, ell, run_length)
                assert dist.overflow == 0.0
                oracle = oracle_distribution(paths, w, statistic, ell, run_length)
                mine = np.concatenate([dist.probs, [dist.overflow]])
                assert total_variation(mine, oracle) < 1e-9

    def test_counting_levels_are_exact_on_lamb(self, lamb_chain):
        for chain in (lamb_chain, hp.swap_states(lamb_chain)):
            for statistic, run_length in COUNTING:
                ell = hp.auto_truncation(chain, statistic, run_length)
                dist = fmci_distribution(chain, statistic, ell, run_length)
                assert dist.overflow == 0.0
                wider = fmci_distribution(chain, statistic, ell + 5, run_length)
                assert np.allclose(dist.probs, wider.probs[: ell + 1], rtol=0.0, atol=1e-15)
                assert wider.probs[ell + 1 :].sum() == 0.0

    def test_longest_run_level_is_smallest_within_tolerance(
        self, lamb_chain, earthquake_model, earthquake_counts
    ):
        quake = hp.build_posterior_chain(
            earthquake_model, hp.forward_backward(earthquake_model, earthquake_counts)
        )
        assert hp.fmci.OVERFLOW_TOL == 1e-12
        for chain in (lamb_chain, hp.swap_states(lamb_chain), quake):
            ell = hp.auto_truncation(chain, "longest_run")
            overflow = fmci_distribution(chain, "longest_run", ell).overflow
            assert overflow <= union_bound(chain, ell) <= 1e-12
            assert ell > 1 and union_bound(chain, ell - 1) > 1e-12

    def test_longest_run_level_on_enumerable_instances(self):
        rng = np.random.default_rng(707)
        for n in (1, 2, 3, 6, 10):
            model, x = random_instance(rng, n_low=n, n_high=n)
            chain = hp.build_posterior_chain(model, hp.forward_backward(model, x))
            paths, _, w, _ = enumerate_posterior(model, x)
            ell = hp.auto_truncation(chain, "longest_run")
            assert 1 <= ell <= n and union_bound(chain, ell) <= 1e-12
            if ell > 1:
                assert union_bound(chain, ell - 1) > 1e-12
            oracle = oracle_distribution(paths, w, "longest_run", ell)
            dist = fmci_distribution(chain, "longest_run", ell)
            assert dist.overflow <= 1e-12 and oracle[-1] <= 1e-12
            assert total_variation(np.concatenate([dist.probs, [dist.overflow]]), oracle) < 1e-9

    def test_expected_run_counts_at_auto_levels(self):
        rng = np.random.default_rng(808)
        model, x = random_instance(rng, n_low=8, n_high=10)
        chain = hp.build_posterior_chain(model, hp.forward_backward(model, x))
        paths, _, w, _ = enumerate_posterior(model, x)
        counts = hp.expected_exact_run_counts(chain, k_max=4, truncation=None)
        assert not counts.lower_bound.any()
        for k in range(1, 5):
            expected = sum(wp * statistic_value(p, "exact_run", k) for p, wp in zip(paths, w))
            assert counts.expected[k - 1] == pytest.approx(expected, abs=1e-12)

    def test_rejects_bad_arguments(self, lamb_chain):
        with pytest.raises(ValueError):
            hp.auto_truncation(lamb_chain, "visits")
        with pytest.raises(ValueError):
            hp.auto_truncation(lamb_chain, "exact_run")


class TestFetalLambPublishedValues:
    def test_jump_overflow_below_one_percent_at_ell_7(self, lamb_chain):
        dist = fmci_distribution(lamb_chain, "jumps", 7)
        assert dist.overflow < 0.01

    def test_positions_tail_above_15_percent(self, lamb_chain):
        dist = fmci_distribution(lamb_chain, "positions", 40)
        assert dist.tail_prob(11) > 0.15

    def test_two_runs_near_half_mass(self, lamb_chain):
        dist = fmci_distribution(lamb_chain, "runs", 40)
        assert dist.probs[2] == pytest.approx(0.5, abs=0.1)

    def test_distributions_match_sampled_frequencies(self, lamb_chain):
        samples = hp.sample_posterior_paths(lamb_chain, 1000, seed=31)
        m = samples.shape[0]
        for statistic, run_length, ell in [
            ("jumps", None, 12), ("positions", None, 30), ("longest_run", None, 20),
            ("exact_run", 2, 12),
        ]:
            dist = fmci_distribution(lamb_chain, statistic, ell, run_length)
            values = np.array([statistic_value(p, statistic, run_length) for p in samples])
            for v in range(ell + 1):
                p = dist.probs[v]
                freq = (values == v).mean()
                se = np.sqrt(max(p * (1 - p), 1e-12) / m)
                assert abs(freq - p) <= 3.5 * se + 5e-3
