import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import poisson

import hmmposterior as hp
from hmmposterior.model import _follow_maps
from oracles import (
    enumerate_posterior,
    model_grid,
    oracle_marginals,
    random_instance,
    random_model,
    reference_forward_backward,
    reference_simulate,
)


def two_state(pi, gamma, rates):
    return hp.validate_model(hp.HmmModel(pi=pi, gamma=gamma, rates=rates))


class TestValidateModel:
    def test_exact_rows_accepted_unchanged(self):
        m = hp.HmmModel(pi=[0.5, 0.5], gamma=[[0.5, 0.5], [0.25, 0.75]], rates=[1, 2])
        assert hp.validate_model(m) is m

    def test_published_lamb_row_renormalizes(self):
        m = hp.HmmModel(pi=[1, 0], gamma=[[0.989, 0.011], [0.287, 0.703]], rates=[0.278, 3.217])
        with pytest.warns(hp.RenormalizationWarning):
            fixed = hp.validate_model(m, tolerance=1e-2, renormalize=True)
        assert fixed.gamma[1].sum() == pytest.approx(1.0, abs=1e-15)
        assert fixed.gamma[1, 0] == pytest.approx(0.287 / 0.990, rel=1e-12)
        assert fixed.gamma[1, 1] == pytest.approx(0.703 / 0.990, rel=1e-12)

    def test_published_lamb_row_rejected_when_strict(self):
        m = hp.HmmModel(pi=[1, 0], gamma=[[0.989, 0.011], [0.287, 0.703]], rates=[0.278, 3.217])
        with pytest.raises(hp.ModelValidationError, match="row 2"):
            hp.validate_model(m)

    def test_bad_pi_sum_rejected(self):
        m = hp.HmmModel(pi=[0.6, 0.6], gamma=np.eye(2), rates=[1, 2])
        with pytest.raises(hp.ModelValidationError, match="pi sums to 1.2"):
            hp.validate_model(m, tolerance=1e-2, renormalize=True)

    def test_negative_entry_names_position(self):
        m = hp.HmmModel(pi=[1, 0], gamma=[[1.2, -0.2], [0.5, 0.5]], rates=[1, 2])
        with pytest.raises(hp.ModelValidationError, match=r"gamma\[1\]\[2\]"):
            hp.validate_model(m)

    def test_nonpositive_rate_rejected(self):
        m = hp.HmmModel(pi=[1, 0], gamma=np.eye(2), rates=[1, 0])
        with pytest.raises(hp.ModelValidationError, match="state 2"):
            hp.validate_model(m)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(hp.ModelValidationError):
            hp.HmmModel(pi=[1, 0], gamma=np.eye(3), rates=[1, 2])

    def test_model_arrays_immutable(self):
        m = two_state([1, 0], [[0.9, 0.1], [0.2, 0.8]], [1, 2])
        with pytest.raises(ValueError):
            m.gamma[0, 0] = 0.5


class TestSimulate:
    def test_absorbing_start(self):
        m = two_state([1, 0], np.eye(2), [1, 5])
        y, x = hp.simulate(m, 50, seed=3)
        assert (y == 1).all()
        assert (x >= 0).all()

    def test_seed_determinism(self):
        m = two_state([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [1, 5])
        a = hp.simulate(m, 200, seed=42)
        b = hp.simulate(m, 200, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = hp.simulate(m, 200, seed=43)
        assert not np.array_equal(a[1], c[1])

    def test_transition_frequencies_match_gamma(self, earthquake_model):
        y, _ = hp.simulate(earthquake_model, 100_000, seed=9)
        gamma = earthquake_model.gamma
        for i in (1, 2):
            at_i = y[:-1] == i
            count = at_i.sum()
            for j in (1, 2):
                freq = (at_i & (y[1:] == j)).sum() / count
                p = gamma[i - 1, j - 1]
                se = np.sqrt(p * (1 - p) / count)
                assert abs(freq - p) <= 3 * se

    def test_rejects_empty(self):
        m = two_state([1, 0], np.eye(2), [1, 5])
        with pytest.raises(ValueError):
            hp.simulate(m, 0, seed=1)

    def test_matches_the_step_by_step_reference(self):
        rng = np.random.default_rng(41)
        # zero entries repeat a cumulative sum; a zero-probability state is never drawn
        zeros = hp.validate_model(hp.HmmModel(
            pi=[0.5, 0.0, 0.5], gamma=[[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.25, 0.0, 0.75]],
            rates=[1.0, 4.0, 9.0]))
        models = [random_model(rng, k) for k in (1, 2, 3, 4)] + [zeros]
        for model in models:
            for n in (1, 2, 777):
                seed = int(rng.integers(1 << 63))
                got, want = hp.simulate(model, n, seed), reference_simulate(model, n, seed)
                assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def walk_stepwise(maps, start):
    """out[t] = maps[t][out[t - 1]], one step per row."""
    out = np.empty((maps.shape[0], maps.shape[2]), dtype=maps.dtype)
    cols = np.arange(maps.shape[2])
    state = start
    for t, row in enumerate(maps):
        state = row[state, cols]
        out[t] = state
    return out


# block counts of isqrt(steps) that end evenly or with a short last block
SQUARE_STEPS = sorted({s * s + d for s in (1, 2, 3, 10, 31, 33) for d in (-1, 0, 1)})


class TestFollowMaps:
    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(1, 6),
        width=st.integers(1, 300),
        steps=st.one_of(st.integers(0, 1100), st.sampled_from(SQUARE_STEPS)),
        dtype=st.sampled_from([np.int8, np.int16, np.int64]),
        alias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(k=127, width=7, steps=1025, dtype=np.int8, alias=True, seed=127)
    @example(k=127, width=2, steps=960, dtype=np.int8, alias=False, seed=128)
    def test_matches_the_stepwise_walk(self, k, width, steps, dtype, alias, seed):
        # out either separate or a view over maps[:, 0], which the walk overwrites
        rng = np.random.default_rng(seed)
        maps = rng.integers(0, k, size=(steps, k, width)).astype(dtype)
        start = rng.integers(0, k, size=width)
        want = walk_stepwise(maps, start)
        out = maps[:, 0] if alias else np.empty((steps, width), dtype=dtype)
        _follow_maps(maps, start, out)
        assert np.array_equal(out, want)


class TestLogEmissions:
    def test_matches_the_scipy_poisson_logpmf(self):
        rates = np.array([0.278, 26.0, 1e6])
        m = hp.HmmModel(pi=[1, 0, 0], gamma=np.eye(3), rates=rates)
        boundary = [170, 171, 10**6, 2**53 + 1, np.iinfo(np.int64).max]
        x = np.concatenate([np.arange(10**4 + 1), boundary]).astype(np.int64)
        xf = x.astype(float)  # scipy's integer path gives -inf at the int64 maximum
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mine = m.log_emissions(x)
            reference = poisson.logpmf(xf[:, None], rates[None, :])
        # each entry is a sum of three terms; allow a few ulps of the largest
        scale = np.maximum.reduce([
            np.abs(xf[:, None] * np.log(rates)[None, :]),
            np.broadcast_to(rates, mine.shape),
            np.broadcast_to(gammaln(xf + 1.0)[:, None], mine.shape),
        ])
        assert mine.shape == (x.size, 3)
        assert (np.abs(mine - reference) <= 8 * np.finfo(float).eps * scale).all()


class TestForwardBackward:
    def test_single_state_closed_form(self):
        m = hp.validate_model(hp.HmmModel(pi=[1.0], gamma=[[1.0]], rates=[2.5]))
        x = np.array([0, 3, 1, 7])
        t = hp.forward_backward(m, x)
        marg = hp.posterior_marginals(t)
        assert np.allclose(marg, 1.0)
        assert t.loglik == pytest.approx(poisson.logpmf(x, 2.5).sum(), abs=1e-12)

    def test_symmetric_model_marginals_half(self):
        m = two_state([0.5, 0.5], [[0.7, 0.3], [0.3, 0.7]], [4.0, 4.0])
        _, x = hp.simulate(m, 25, seed=0)
        marg = hp.posterior_marginals(hp.forward_backward(m, x))
        assert np.allclose(marg, 0.5, atol=1e-12)

    def test_loglik_matches_enumeration(self):
        rng = np.random.default_rng(100)
        for _ in range(20):
            model, x = random_instance(rng, n_low=3, n_high=3)
            t = hp.forward_backward(model, x)
            _, _, _, loglik = enumerate_posterior(model, x)
            assert t.loglik == pytest.approx(loglik, abs=1e-10)

    def test_forward_rows_normalized(self, earthquake_model, earthquake_counts):
        t = hp.forward_backward(earthquake_model, earthquake_counts)
        assert np.abs(t.fwd_scaled.sum(axis=1) - 1.0).max() < 1e-10

    def test_unscaled_identities(self):
        rng = np.random.default_rng(4)
        model, x = random_instance(rng, n_low=6, n_high=6)
        t = hp.forward_backward(model, x)
        lem = poisson.logpmf(np.asarray(x)[:, None], model.rates[None, :])
        em = np.exp(lem)
        n = len(x)
        fwd = np.empty((n, 2))
        fwd[0] = model.pi * em[0]
        for u in range(1, n):
            fwd[u] = (fwd[u - 1] @ model.gamma) * em[u]
        bwd = np.empty((n, 2))
        bwd[n - 1] = 1.0
        for u in range(n - 2, -1, -1):
            bwd[u] = model.gamma @ (em[u + 1] * bwd[u + 1])
        prefix = np.cumprod(np.exp(t.log_scale))
        suffix = prefix[-1] / prefix  # prod of scales strictly after t
        assert np.allclose(t.fwd_scaled * prefix[:, None], fwd, rtol=1e-10)
        assert np.allclose(t.bwd_scaled * suffix[:, None], bwd, rtol=1e-10)

    def test_long_sequence_finite(self, earthquake_model):
        _, x = hp.simulate(earthquake_model, 100_000, seed=5)
        t = hp.forward_backward(earthquake_model, x)
        assert np.isfinite(t.loglik)
        assert np.isfinite(t.fwd_scaled).all() and np.isfinite(t.bwd_scaled).all()

    def test_rejects_negative_counts(self, earthquake_model):
        with pytest.raises(ValueError, match="negative"):
            hp.forward_backward(earthquake_model, [1, -2, 3])

    def test_first_position_names_the_allowed_states(self):
        # pi allows only state 1, whose emission of a 2 at rate 1e-320 underflows
        # (a 1 does not: its probability stays subnormal, not zero)
        m = two_state([1.0, 0.0], [[0.9, 0.1], [0.2, 0.8]], [1e-320, 5.0])
        with pytest.raises(hp.ImpossibleObservationError) as exc:
            hp.forward_backward(m, [2, 1, 3])
        message = str(exc.value)
        assert "no state the initial distribution allows can emit count 2" in message
        assert "position 1" in message and "every state" not in message

    @pytest.mark.parametrize("pi,gamma,rates", [
        ([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1.0, 50.0]),
        ([0.0, 1.0], [[0.9, 0.1], [0.0, 1.0]], [20.0, 5.0]),  # left to right
    ])
    def test_backward_overflow_is_an_error_without_warning(
        self, earthquake_counts, pi, gamma, rates
    ):
        # the counts favour a state the chain cannot reach for most of the
        # series, so its backward value grows past the floating-point range
        m = two_state(pi, gamma, rates)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hp.BackwardOverflowError, match="overflows at position"):
                hp.forward_backward(m, earthquake_counts)

    def test_unnormalized_marginals_are_an_error(self):
        # the blocked scan's start of the second block keeps mass on a path
        # that its in-block pass rounds to zero, so every marginal row of
        # this extreme model sums to 1.0151 and loglik is off by its log
        m = hp.validate_model(hp.HmmModel(
            pi=[0.826762, 0.0, 0.173238],
            gamma=[[0.0, 1.0, 0.0], [0.0, 0.589786, 0.410214], [0.100414, 0.044936, 0.85465]],
            rates=[2.051065, 0.001458799, 0.002578432],
        ))
        with pytest.raises(hp.NumericalError, match="at position 1 sum to 1.01509915932, not 1"):
            hp.forward_backward(m, [79, 82, 75, 65])
        assert issubclass(hp.BackwardOverflowError, hp.NumericalError)

    def test_rejects_non_finite_counts_without_warning(self, earthquake_model):
        for bad in ([1, np.nan, 3], [np.inf, 2.0], [1.0, -np.inf], [2.0, 1e20]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="observation counts must be integers"):
                    hp.forward_backward(earthquake_model, bad)


def assert_matches_the_sequential_recursion(model, x):
    got, ref = hp.forward_backward(model, x), reference_forward_backward(model, x)
    assert got.fwd_scaled.shape == got.bwd_scaled.shape == ref.fwd_scaled.shape
    assert np.array_equal(got.log_emissions, ref.log_emissions)
    assert np.abs(got.fwd_scaled - ref.fwd_scaled).max() <= 1e-12
    marginals = hp.posterior_marginals(got) - hp.posterior_marginals(ref)
    assert np.abs(marginals).max() <= 1e-12
    assert np.abs(got.log_scale - ref.log_scale).max() <= 1e-12
    assert got.loglik == pytest.approx(ref.loglik, rel=1e-12, abs=0.0)


class TestBlockedScan:
    """The blocked forward-backward scan against one step per position."""

    def test_block_boundaries(self):
        # positions 2..n form blocks of L = ceil(sqrt(n - 1)) positions; around
        # n - 1 = L^2 the last block is short or full, and L itself steps up
        rng = np.random.default_rng(61)
        lengths = [1, 2, 3] + [size * size + d for size in (2, 3, 7, 16) for d in (-1, 0, 1, 2)]
        for k in (2, 3, 4):
            model = random_model(rng, k)
            for n in lengths:
                _, x = hp.simulate(model, n, seed=int(rng.integers(1 << 31)))
                assert_matches_the_sequential_recursion(model, x)

    def test_structural_zeros(self):
        # state 2 absorbs and cannot emit a positive count, so the transfer
        # rows that start in it vanish in every block before the jump
        absorbing = two_state([1.0, 0.0], [[0.99, 0.01], [0.0, 1.0]], [5.0, 1e-300])
        three = hp.validate_model(hp.HmmModel(
            pi=[0.5, 0.5, 0.0], gamma=[[0.9, 0.1, 0.0], [0.0, 0.8, 0.2], [0.3, 0.0, 0.7]],
            rates=[1.0, 6.0, 15.0]))
        for model in (absorbing, three):
            for n, seed in ((400, 1), (2000, 2), (2000, 3)):
                _, x = hp.simulate(model, n, seed=seed)
                assert_matches_the_sequential_recursion(model, x)

    def test_emissions_that_underflow_for_hundreds_of_positions(self):
        # a count of 0 under rate 800, or of 800 under rate 1, is exp(-800)
        # against the other state and underflows to an exact zero
        ergodic = two_state([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]], [1.0, 800.0])
        absorbing = two_state([1.0, 0.0], [[0.99, 0.01], [0.0, 1.0]], [1.0, 800.0])
        x = np.concatenate([np.zeros(300, int), np.full(300, 800), [3], np.full(299, 790)])
        assert_matches_the_sequential_recursion(ergodic, x)
        assert_matches_the_sequential_recursion(ergodic, x[::-1])
        # once in state 2 the absorbing chain stays there, so the counts do too
        assert_matches_the_sequential_recursion(absorbing, np.concatenate([x[:600], x[601:]]))

    def test_bundled_fixtures(self, lamb_model, lamb_counts, earthquake_model, earthquake_counts):
        assert_matches_the_sequential_recursion(lamb_model, lamb_counts)
        assert_matches_the_sequential_recursion(earthquake_model, earthquake_counts)

    def test_long_three_state_series(self):
        model = hp.validate_model(hp.HmmModel(
            pi=[0.8, 0.1, 0.1], gamma=[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
            rates=[15.0, 20.0, 25.0]))
        _, x = hp.simulate(model, 100_000, seed=9)
        assert_matches_the_sequential_recursion(model, x)

    @pytest.mark.parametrize("n,positions", [
        # n = 101: ten blocks of ten, the first holding positions 2..11
        (101, (1, 2, 11, 12, 15, 21, 50, 92, 100, 101)),
        # n = 95: nine blocks of ten, then 92..95
        (95, (1, 2, 11, 12, 91, 92, 93, 95)),
    ])
    def test_impossible_observation_is_named_as_by_the_recursion(self, n, positions):
        # pi and gamma keep the chain in state 1, which cannot emit a 5
        stay = two_state([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [1e-300, 5.0])
        # either state may be kept, but state 1 cannot emit an 800 and state 2
        # cannot emit a 0, so the positions around the 800 are impossible and
        # every transfer row of their block vanishes
        split = two_state([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]], [1.0, 800.0])
        for model, count in ((stay, 5), (split, 800)):
            for position in positions:
                for later in (None, n):
                    x = np.zeros(n, dtype=np.int64)
                    if later is not None and later > position:
                        x[later - 1] = count
                    x[position - 1] = count
                    with pytest.raises(hp.ImpossibleObservationError) as ref:
                        reference_forward_backward(model, x)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        with pytest.raises(hp.ImpossibleObservationError) as got:
                            hp.forward_backward(model, x)
                    assert str(got.value) == str(ref.value)
                    if model is stay:
                        assert re.search(rf"position {position}\b", str(got.value))


class TestPosteriorMarginals:
    def test_rows_sum_to_one(self, lamb_tables):
        marg = hp.posterior_marginals(lamb_tables)
        assert np.abs(marg.sum(axis=1) - 1.0).max() < 1e-9

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            model, x = random_instance(rng, n_low=3, n_high=3)
            marg = hp.posterior_marginals(hp.forward_backward(model, x))
            paths, _, w, _ = enumerate_posterior(model, x)
            assert np.allclose(marg, oracle_marginals(paths, w, 2), atol=1e-12)


class TestLogJoint:
    def test_forbidden_transition_is_minus_inf(self):
        m = two_state([1, 0], [[1.0, 0.0], [0.5, 0.5]], [1, 5])
        assert hp.log_joint(m, [1, 2, 2], [0, 1, 2]) == -np.inf

    def test_single_state_closed_form(self):
        m = hp.validate_model(hp.HmmModel(pi=[1.0], gamma=[[1.0]], rates=[0.7]))
        x = [2, 0]
        expected = poisson.logpmf(2, 0.7) + poisson.logpmf(0, 0.7)
        assert hp.log_joint(m, [1, 1], x) == pytest.approx(expected, abs=1e-12)

    def test_conditional_path_probability_vs_enumeration(self):
        rng = np.random.default_rng(21)
        model, x = random_instance(rng, n_low=3, n_high=3)
        t = hp.forward_backward(model, x)
        paths, logj, w, _ = enumerate_posterior(model, x)
        for p, wp in zip(paths[::2], w[::2]):
            mine = np.exp(hp.log_joint(model, p, x) - t.loglik)
            assert mine == pytest.approx(wp, abs=1e-10)

    def test_non_integer_labels_rejected(self):
        model = model_grid([0.8], [5])[0]
        x = [20, 20]
        assert hp.log_joint(model, [1, 2.0], x) == hp.log_joint(model, [1, 2], x)
        batch = np.array([[1, 2], [3, 3]])
        assert np.array_equal(hp.log_joint(model, batch.astype(float), x), hp.log_joint(model, batch, x))
        for bad in ([1.9, 2.5], [[1, 2], [1.9, 2.5]], [1, np.nan], [np.inf, 1], [[1, 2], [2, -np.inf]]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="state labels must be integers"):
                    hp.log_joint(model, bad, x)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_int8_batch_scores_as_int64(self, monkeypatch, k):
        # small blocks, so that a batch spans several of them
        monkeypatch.setattr(hp.model, "_LOG_JOINT_BLOCK", 1000)
        rng = np.random.default_rng(400 + k)
        for _ in range(6):
            model, x = random_instance(rng, num_states=k, n_low=1, n_high=300)
            batch = rng.integers(1, k + 1, size=(9, x.size))
            batch[0] = k
            narrow = batch.astype(np.int8)
            assert np.array_equal(hp.log_joint(model, narrow, x), hp.log_joint(model, batch, x))
            # unsigned labels index the tables alike
            for unsigned in (np.uint8, np.uint64):
                assert np.array_equal(hp.log_joint(model, batch.astype(unsigned), x),
                                      hp.log_joint(model, batch, x))
            for row in (0, 5):
                assert hp.log_joint(model, narrow[row], x) == hp.log_joint(model, batch[row], x)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_int8_labels_out_of_range(self, k):
        model = random_model(np.random.default_rng(k), num_states=k)
        x = [1, 2, 3, 4]
        for bad in (0, k + 1, -1):
            batch = np.ones((3, 4), dtype=np.int64)
            batch[2, 1] = bad
            for s in (batch, batch[2]):
                with pytest.raises(ValueError) as wide:
                    hp.log_joint(model, s, x)
                with pytest.raises(ValueError) as narrow:
                    hp.log_joint(model, s.astype(np.int8), x)
                assert str(narrow.value) == str(wide.value) == f"state labels must lie in 1..{k}"

    def test_bool_and_float_labels(self):
        model = model_grid([0.8], [5])[0]
        x = [20, 20]
        ones = np.ones((2, 2), dtype=np.int64)
        assert np.array_equal(hp.log_joint(model, ones.astype(bool), x), hp.log_joint(model, ones, x))
        for bad in ([True, False], [[True, True], [False, True]], [1.0, 0.0], [[1.0, 4.0]]):
            with pytest.raises(ValueError, match=re.escape("state labels must lie in 1..3")):
                hp.log_joint(model, bad, x)

    def test_path_sum_equals_likelihood(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            model, x = random_instance(rng, n_low=2, n_high=10)
            t = hp.forward_backward(model, x)
            paths, logj, _, _ = enumerate_posterior(model, x)
            mine = np.array([hp.log_joint(model, p, x) for p in paths])
            assert np.allclose(mine, logj, atol=1e-10)
            total = np.exp(mine - t.loglik).sum()
            assert total == pytest.approx(1.0, rel=1e-9)


def test_random_models_round_trip_validation():
    rng = np.random.default_rng(55)
    for _ in range(25):
        model = random_model(rng, num_states=int(rng.integers(1, 4)))
        assert hp.validate_model(model) is model
