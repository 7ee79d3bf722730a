import numpy as np
import pytest

import hmmposterior as hp
from oracles import (
    enumerate_posterior,
    oracle_distribution,
    random_instance,
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
            empirical = hp.path_statistic(samples, "exact_run", k).astype(float)
            se = empirical.std(ddof=1) / np.sqrt(len(empirical))
            assert abs(counts.expected[k - 1] - empirical.mean()) <= 4 * se + 0.01


class TestPathStatisticAndTruncation:
    def test_path_statistic_agrees_with_oracle(self):
        rng = np.random.default_rng(52)
        paths = rng.integers(1, 3, size=(200, 9))
        for statistic, k in [("jumps", None), ("runs", None), ("positions", None),
                             ("longest_run", None), ("exact_run", 2)]:
            mine = hp.path_statistic(paths, statistic, k)
            expected = [statistic_value(p, statistic, k) for p in paths]
            assert np.array_equal(mine, expected)

    def test_margin_floor(self):
        paths = np.ones((150, 12), dtype=np.int64)
        assert hp.auto_truncation(paths, "jumps") == 5

    def test_margin_grows_with_observations(self, lamb_chain):
        samples = hp.sample_posterior_paths(lamb_chain, 1000, seed=0)
        observed = int(hp.path_statistic(samples, "jumps").max())
        ell = hp.auto_truncation(samples, "jumps")
        assert ell == observed + max(5, observed)

    def test_explicit_margin_override(self):
        paths = np.ones((150, 12), dtype=np.int64)
        paths[:, 3] = 2
        assert hp.auto_truncation(paths, "positions", margin=3) == 4

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError, match="100"):
            hp.auto_truncation(np.ones((99, 5), dtype=np.int64), "jumps")


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
            values = hp.path_statistic(samples, statistic, run_length)
            for v in range(ell + 1):
                p = dist.probs[v]
                freq = (values == v).mean()
                se = np.sqrt(max(p * (1 - p), 1e-12) / m)
                assert abs(freq - p) <= 3.5 * se + 5e-3
