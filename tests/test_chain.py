import numpy as np
import pytest

import hmmposterior as hp
from oracles import enumerate_posterior, oracle_marginals, random_instance


def two_state(pi, gamma, rates):
    return hp.validate_model(hp.HmmModel(pi=pi, gamma=gamma, rates=rates))


def enumeration_transition(paths, weights, t, i, j):
    """P(y_t = j | y_{t-1} = i, x) by enumeration; t is 1-based, t >= 2."""
    at_i = paths[:, t - 2] == i
    mass = weights[at_i].sum()
    if mass == 0:
        return None
    return weights[at_i & (paths[:, t - 1] == j)].sum() / mass


class TestConditionalInitial:
    def test_single_state(self):
        m = hp.validate_model(hp.HmmModel(pi=[1.0], gamma=[[1.0]], rates=[1.0]))
        ch = hp.build_posterior_chain(m, hp.forward_backward(m, [0, 2]))
        assert ch.init == pytest.approx([1.0])

    def test_uninformative_emissions_give_pi(self):
        m = two_state([0.3, 0.7], [[0.6, 0.4], [0.4, 0.6]], [2.0, 2.0])
        _, x = hp.simulate(m, 10, seed=1)
        ch = hp.build_posterior_chain(m, hp.forward_backward(m, x))
        assert ch.init == pytest.approx([0.3, 0.7], abs=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model, x = random_instance(rng, n_low=3, n_high=3)
            ch = hp.build_posterior_chain(model, hp.forward_backward(model, x))
            paths, _, w, _ = enumerate_posterior(model, x)
            expected = oracle_marginals(paths, w, 2)[0]
            assert ch.init == pytest.approx(expected, abs=1e-10)


class TestConditionalTransition:
    def test_identity_chain_stays_identity(self):
        m = two_state([1, 0], np.eye(2), [1.0, 6.0])
        _, x = hp.simulate(m, 8, seed=2)
        ch = hp.build_posterior_chain(m, hp.forward_backward(m, x))
        for step in range(2, 9):
            assert ch.trans[step - 2, 0] == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_rows_stochastic_on_earthquakes(self, earthquake_model, earthquake_counts):
        t = hp.forward_backward(earthquake_model, earthquake_counts)
        ch = hp.build_posterior_chain(earthquake_model, t)
        assert ch.trans.shape == (len(earthquake_counts) - 1, 2, 2)
        for mat in ch.trans:
            assert mat.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(12):
            model, x = random_instance(rng, n_low=2, n_high=6)
            ch = hp.build_posterior_chain(model, hp.forward_backward(model, x))
            paths, _, w, _ = enumerate_posterior(model, x)
            for step in range(2, len(x) + 1):
                mat = ch.trans[step - 2]
                for i in (1, 2):
                    for j in (1, 2):
                        expected = enumeration_transition(paths, w, step, i, j)
                        if expected is not None:
                            assert mat[i - 1, j - 1] == pytest.approx(expected, abs=1e-10)


class TestBuildPosteriorChain:
    def test_marginal_consistency_on_lamb(self, lamb_tables, lamb_chain):
        marg = hp.posterior_marginals(lamb_tables)
        propagated = [lamb_chain.init]
        for mat in lamb_chain.trans:
            propagated.append(propagated[-1] @ mat)
        assert np.abs(np.array(propagated) - marg).max() < 1e-8

    def test_single_state(self):
        m = hp.validate_model(hp.HmmModel(pi=[1.0], gamma=[[1.0]], rates=[1.0]))
        t = hp.forward_backward(m, [0, 1, 2])
        ch = hp.build_posterior_chain(m, t)
        assert ch.init == pytest.approx([1.0])
        assert np.allclose(ch.trans, 1.0)

    def test_uninformative_posterior_equals_prior_chain(self):
        m = two_state([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]], [3.0, 3.0])
        _, x = hp.simulate(m, 12, seed=3)
        ch = hp.build_posterior_chain(m, hp.forward_backward(m, x))
        assert np.abs(ch.trans - m.gamma[None, :, :]).max() < 1e-12

    def test_unreachable_row_marked_uniform(self, lamb_model, lamb_counts):
        t = hp.forward_backward(lamb_model, lamb_counts)
        doctored = np.array(t.bwd_scaled)
        doctored[4, 1] = 0.0  # make state 2 unreachable at position 5
        tables = hp.FBTables(
            fwd_scaled=t.fwd_scaled,
            bwd_scaled=doctored,
            scale=t.scale,
            loglik=t.loglik,
            log_emissions=t.log_emissions,
            log_scale=t.log_scale,
        )
        ch = hp.build_posterior_chain(lamb_model, tables)
        assert (6, 2) in ch.uniform_rows
        assert ch.trans[4, 1] == pytest.approx([0.5, 0.5])
        rowsums = ch.trans.sum(axis=2)
        assert np.abs(rowsums - 1.0).max() < 1e-9


class TestStayProbabilities:
    def test_identity_chain(self):
        m = two_state([1, 0], np.eye(2), [1.0, 6.0])
        _, x = hp.simulate(m, 6, seed=2)
        a, _ = hp.stay_probabilities(hp.build_posterior_chain(m, hp.forward_backward(m, x)))
        assert np.allclose(a, 1.0)

    def test_symmetric_uninformative(self):
        m = two_state([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], [2.0, 2.0])
        _, x = hp.simulate(m, 9, seed=4)
        a, b = hp.stay_probabilities(hp.build_posterior_chain(m, hp.forward_backward(m, x)))
        assert np.allclose(a, 0.9, atol=1e-12)
        assert np.allclose(b, 0.9, atol=1e-12)

    def test_rejects_three_states(self):
        m = hp.model_grid([0.8], [5])[0]
        _, x = hp.simulate(m, 5, seed=0)
        ch = hp.build_posterior_chain(m, hp.forward_backward(m, x))
        with pytest.raises(hp.TwoStateRequiredError):
            hp.stay_probabilities(ch)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(29)
        model, x = random_instance(rng, n_low=3, n_high=3)
        ch = hp.build_posterior_chain(model, hp.forward_backward(model, x))
        a, b = hp.stay_probabilities(ch)
        paths, _, w, _ = enumerate_posterior(model, x)
        for step in (2, 3):
            expected_a = enumeration_transition(paths, w, step, 1, 1)
            expected_b = enumeration_transition(paths, w, step, 2, 2)
            assert a[step - 2] == pytest.approx(expected_a, abs=1e-10)
            assert b[step - 2] == pytest.approx(expected_b, abs=1e-10)


class TestSwapStates:
    def test_swap_is_involution(self, lamb_chain):
        back = hp.swap_states(hp.swap_states(lamb_chain))
        assert np.array_equal(back.init, lamb_chain.init)
        assert np.array_equal(back.trans, lamb_chain.trans)

    def test_swapped_stay_probs_exchange(self, lamb_chain):
        a, b = hp.stay_probabilities(lamb_chain)
        swapped_a, swapped_b = hp.stay_probabilities(hp.swap_states(lamb_chain))
        assert np.array_equal(a, swapped_b)
        assert np.array_equal(b, swapped_a)


class TestSamplePosteriorPaths:
    def test_identity_chain_all_ones(self):
        m = two_state([1, 0], np.eye(2), [1.0, 6.0])
        _, x = hp.simulate(m, 7, seed=2)
        ch = hp.build_posterior_chain(m, hp.forward_backward(m, x))
        paths = hp.sample_posterior_paths(ch, 25, seed=11)
        assert (paths == 1).all()

    def test_seed_determinism(self, lamb_chain):
        a = hp.sample_posterior_paths(lamb_chain, 40, seed=5)
        b = hp.sample_posterior_paths(lamb_chain, 40, seed=5)
        assert np.array_equal(a, b)

    def test_path_substreams_stable_under_batch_size(self, lamb_chain):
        few = hp.sample_posterior_paths(lamb_chain, 3, seed=5)
        many = hp.sample_posterior_paths(lamb_chain, 10, seed=5)
        assert np.array_equal(few, many[:3])

    def test_rejects_zero_paths(self, lamb_chain):
        with pytest.raises(ValueError):
            hp.sample_posterior_paths(lamb_chain, 0, seed=1)

    def test_lamb_frequencies_track_marginals(self, lamb_tables, lamb_chain):
        paths = hp.sample_posterior_paths(lamb_chain, 1000, seed=2024)
        marg2 = hp.posterior_marginals(lamb_tables)[:, 1]
        freq2 = (paths == 2).mean(axis=0)
        se = np.sqrt(marg2 * (1 - marg2) / 1000)
        ok = np.abs(freq2 - marg2) <= 3.5 * se + 1e-12
        assert ok.mean() >= 0.99

    def test_unbiased_path_frequencies(self):
        rng = np.random.default_rng(37)
        model, x = random_instance(rng, n_low=4, n_high=4)
        ch = hp.build_posterior_chain(model, hp.forward_backward(model, x))
        m = 100_000
        samples = hp.sample_posterior_paths(ch, m, seed=77)
        paths, _, w, _ = enumerate_posterior(model, x)
        keys = samples @ (3 ** np.arange(4))
        path_keys = paths @ (3 ** np.arange(4))
        counts = dict(zip(*np.unique(keys, return_counts=True)))
        for key, p in zip(path_keys, w):
            if p <= 1e-3:
                continue
            freq = counts.get(key, 0) / m
            se = np.sqrt(p * (1 - p) / m)
            assert abs(freq - p) <= 4 * se
