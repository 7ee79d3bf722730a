import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmposterior as hp
from hmmposterior.decoding import _chunk_length, _decode_paths, _pointwise_log_sum
from oracles import (
    best_hybrid_objective,
    enumerate_posterior,
    hybrid_score_components,
    model_grid,
    random_instance,
    reference_decode,
)


class TestPosteriorDecode:
    def test_tie_breaks_to_state_one(self):
        marg = np.array([[0.5, 0.5], [0.2, 0.8]])
        assert hp.posterior_decode(marg).tolist() == [1, 2]

    def test_single_state(self):
        assert hp.posterior_decode(np.ones((4, 1))).tolist() == [1, 1, 1, 1]


class TestViterbi:
    def test_identity_transitions_absorb(self):
        m = hp.validate_model(hp.HmmModel(pi=[1, 0], gamma=np.eye(2), rates=[1.0, 9.0]))
        x = [9, 8, 10, 7]  # counts scream state 2, transitions forbid it
        assert hp.viterbi(m, x).tolist() == [1, 1, 1, 1]

    def test_matches_enumeration_maximum(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            model, x = random_instance(rng, n_low=2, n_high=10)
            path = hp.viterbi(model, x)
            _, logj, _, _ = enumerate_posterior(model, x)
            assert hp.log_joint(model, path, x) == pytest.approx(logj.max(), abs=1e-10)


class TestHybridDecode:
    def test_objective_matches_enumeration(self):
        rng = np.random.default_rng(71)
        grid = np.linspace(0.0, 1.0, 21)
        for _ in range(12):
            k = int(rng.integers(2, 4))
            model, x = random_instance(rng, num_states=k, n_low=2, n_high=8)
            tables = hp.forward_backward(model, x)
            paths, logj, _, _ = enumerate_posterior(model, x)
            pw, cond = hybrid_score_components(tables, paths, logj)
            for alpha in grid:
                res = hp.hybrid_decode(model, tables, x, float(alpha))
                assert res.objective == pytest.approx(
                    best_hybrid_objective(pw, cond, alpha), abs=1e-10
                )

    def test_endpoints_equal_posterior_and_viterbi(self):
        rng = np.random.default_rng(81)
        for _ in range(25):
            k = int(rng.integers(2, 4))
            model, x = random_instance(rng, num_states=k, n_low=2, n_high=60)
            tables = hp.forward_backward(model, x)
            post = hp.posterior_decode(hp.posterior_marginals(tables))
            vit = hp.viterbi(model, x)
            assert np.array_equal(hp.hybrid_decode(model, tables, x, 0.0).path, post)
            assert np.array_equal(hp.hybrid_decode(model, tables, x, 1.0).path, vit)

    def test_objective_decomposition_invariant(self):
        rng = np.random.default_rng(91)
        model, x = random_instance(rng, n_low=30, n_high=30)
        tables = hp.forward_backward(model, x)
        for alpha in (0.0, 0.3, 0.8, 1.0):
            res = hp.hybrid_decode(model, tables, x, alpha)
            recon = (1 - alpha) * res.pointwise_log_sum + alpha * (res.log_joint - tables.loglik)
            assert res.objective == pytest.approx(recon, abs=1e-9)

    def test_admissible_for_positive_alpha(self):
        rng = np.random.default_rng(111)
        for _ in range(10):
            model, x = random_instance(rng, n_low=5, n_high=40)
            tables = hp.forward_backward(model, x)
            for alpha in (0.01, 0.2, 1.0):
                res = hp.hybrid_decode(model, tables, x, alpha)
                assert np.isfinite(res.log_joint - tables.loglik)

    def test_monotone_component_trade_off(self):
        rng = np.random.default_rng(121)
        grid = np.linspace(0.0, 1.0, 21)
        for _ in range(8):
            model, x = random_instance(rng, n_low=20, n_high=60)
            tables = hp.forward_backward(model, x)
            results = [hp.hybrid_decode(model, tables, x, float(a)) for a in grid]
            lj = np.array([r.log_joint for r in results])
            pw = np.array([r.pointwise_log_sum for r in results])
            assert (np.diff(lj) >= -1e-9).all()
            assert (np.diff(pw) <= 1e-9).all()

    def test_batch_agrees_with_single_calls(self):
        rng = np.random.default_rng(131)
        model, x = random_instance(rng, n_low=40, n_high=40)
        tables = hp.forward_backward(model, x)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        batch = hp.hybrid_paths(model, tables, grid)
        for alpha, row in zip(grid, batch):
            assert np.array_equal(row, hp.hybrid_decode(model, tables, x, float(alpha)).path)

    def test_alpha_out_of_range(self, lamb_model, lamb_tables, lamb_counts):
        for alpha in (1.5, -0.1, np.nan):
            with pytest.raises(ValueError):
                hp.hybrid_decode(lamb_model, lamb_tables, lamb_counts, alpha)
            with pytest.raises(ValueError, match="alpha"):
                hp.hybrid_paths(lamb_model, lamb_tables, [0.5, alpha])

    def test_impossible_sequence_error(self):
        neg_inf = np.full((2, 2), -np.inf)
        with pytest.raises(hp.ImpossibleSequenceError):
            _decode_paths(
                np.full(2, -np.inf), neg_inf, np.zeros((3, 2)), np.zeros((3, 2)),
                np.array([1.0]),
            )

    def test_impossible_column_raises_without_warning(self):
        # position 700 is impossible in every state for alpha > 0, so those
        # alphas have no path; at K = 2 and three alphas a chunk holds 512
        # positions, so it lies in the second chunk
        assert _chunk_length(2, 3) == 512
        log_em = np.zeros((900, 2))
        log_em[700] = -np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(hp.ImpossibleSequenceError):
                _decode_paths(
                    np.log([0.5, 0.5]), np.log(np.full((2, 2), 0.5)), log_em,
                    np.zeros((900, 2)), np.array([0.0, 0.5, 1.0]),
                )


def half_integer_table(rng, shape, live_rows=False):
    # scores on a half-integer lattice tie often; about 15% are -inf.  With
    # live_rows, one entry per row stays finite, so that long sequences are
    # not all impossible
    table = rng.integers(-6, 1, size=shape) / 2.0
    dead = rng.random(shape) < 0.15
    if live_rows:
        dead[np.arange(shape[0]), rng.integers(shape[1], size=shape[0])] = False
    table[dead] = -np.inf
    return table


class TestDecodeKernel:
    def test_matches_reference_decoder(self):
        rng = np.random.default_rng(2021)
        outcomes = []
        for k in (1, 2, 3, 5):
            for trial in range(30):
                # every fifth sequence spans more than one chunk, of 374
                # to 512 positions at these K and seven alphas
                n = int(rng.integers(600, 1200)) if trial % 5 == 0 else int(rng.integers(1, 40))
                alphas = np.concatenate(([0.0, 1.0], rng.integers(1, 8, size=3) / 8.0, rng.random(2)))
                rng.shuffle(alphas)
                live = trial % 2 == 0
                tables = [half_integer_table(rng, shape) for shape in (k, (k, k))]
                tables += [half_integer_table(rng, (n, k), live) for _ in range(2)]
                try:
                    expected = reference_decode(*tables, alphas)
                except hp.ImpossibleSequenceError:
                    with pytest.raises(hp.ImpossibleSequenceError):
                        _decode_paths(*tables, alphas)
                    outcomes.append((k, n > 512, "impossible"))
                    continue
                assert np.array_equal(_decode_paths(*tables, alphas), expected)
                outcomes.append((k, n > 512, "decoded"))
        # both outcomes occur for every K, and some long sequences decode
        for k in (1, 2, 3, 5):
            assert {o for kk, _, o in outcomes if kk == k} == {"decoded", "impossible"}
        assert sum(long and o == "decoded" for _, long, o in outcomes) >= 4

    def test_back_tracking_block_edges(self):
        # n - 1 runs over 0..2, perfect squares, squares + 1 and primes, so
        # the blocks of isqrt(n - 1) slots end evenly or with a short last
        # block.  The start and transition scores stay finite and both local
        # tables share one finite state per position, so every sequence decodes
        rng = np.random.default_rng(2027)
        cases = [(n, k, num_alpha)
                 for n in (1, 2, 3, 5, 17, 101, 6, 18, 102, 4, 8, 24, 38, 1010)
                 for k in (1, 2, 3, 5)
                 for num_alpha in (1, 2, 9)]
        cases.append((300, 127, 2))
        for n, k, num_alpha in cases:
            alphas = np.concatenate(([1.0, 0.0], rng.integers(1, 8, size=7) / 8.0))[:num_alpha]
            rng.shuffle(alphas)
            tables = [rng.integers(-6, 1, size=shape) / 2.0 for shape in (k, (k, k))]
            log_em = half_integer_table(rng, (n, k), live_rows=True)
            log_marg = np.where(np.isneginf(log_em), -np.inf, rng.integers(-6, 1, size=(n, k)) / 2.0)
            tables += [log_em, log_marg]
            assert np.array_equal(_decode_paths(*tables, alphas), reference_decode(*tables, alphas)), \
                (n, k, num_alpha)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 127])
    @pytest.mark.parametrize("num_alpha", [1, 2, 257])
    def test_chunk_edges(self, k, num_alpha):
        # n - 1 steps end one or two short of a chunk, fill one or two
        # chunks exactly, or spill one step into the next.  Wide batches
        # repeat a few alphas, each checked once against the reference
        c = _chunk_length(k, num_alpha)
        rng = np.random.default_rng(1000 * k + num_alpha)
        distinct = np.array([1.0, 0.0, 0.25, 0.5, 0.875, rng.random()])
        alphas = distinct[np.arange(num_alpha) % distinct.size]
        rng.shuffle(alphas)
        for n in sorted({c - 1, c, c + 1, c + 2, 2 * c + 1} - {0}):
            tables = [rng.integers(-6, 1, size=shape) / 2.0 for shape in (k, (k, k))]
            log_em = half_integer_table(rng, (n, k), live_rows=True)
            log_marg = np.where(np.isneginf(log_em), -np.inf, rng.integers(-6, 1, size=(n, k)) / 2.0)
            tables += [log_em, log_marg]
            unique, where = np.unique(alphas, return_inverse=True)
            expected = reference_decode(*tables, unique)[where]
            assert np.array_equal(_decode_paths(*tables, alphas), expected), (n, k, num_alpha)

    @pytest.mark.parametrize("k, num_alpha", [(2, 3), (3, 257), (5, 2)])
    def test_impossible_column_at_chunk_ends(self, k, num_alpha):
        # the first and the last step of each chunk, and the last position
        c = _chunk_length(k, num_alpha)
        n = 2 * c + 5
        alphas = np.linspace(0.0, 1.0, num_alpha) if num_alpha > 1 else np.array([0.5])
        log_pi, log_gamma = np.log(np.full(k, 1.0 / k)), np.log(np.full((k, k), 1.0 / k))
        for t in (1, c, c + 1, 2 * c, 2 * c + 1, n - 1):
            log_em = np.zeros((n, k))
            log_em[t] = -np.inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(hp.ImpossibleSequenceError):
                    _decode_paths(log_pi, log_gamma, log_em, np.zeros((n, k)), alphas)
            # the alpha = 0 column alone never reads the emissions
            assert np.array_equal(
                _decode_paths(log_pi, log_gamma, log_em, np.zeros((n, k)), np.array([0.0])),
                np.zeros((1, n), dtype=np.int8),
            )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 1200),
        k=st.integers(1, 5),
        alphas=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, 0.25, 0.5]), st.floats(0.0, 1.0)),
            min_size=1, max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
        live=st.booleans(),
    )
    def test_matches_reference_decoder_anywhere(self, n, k, alphas, seed, live):
        rng = np.random.default_rng(seed)
        alphas = np.array(alphas)
        tables = [half_integer_table(rng, shape) for shape in (k, (k, k))]
        tables += [half_integer_table(rng, (n, k), live) for _ in range(2)]
        try:
            expected = reference_decode(*tables, alphas)
        except hp.ImpossibleSequenceError:
            with pytest.raises(hp.ImpossibleSequenceError):
                _decode_paths(*tables, alphas)
        else:
            assert np.array_equal(_decode_paths(*tables, alphas), expected)

    @pytest.mark.parametrize("k, num_alpha", [(2, 1), (3, 4), (3, 257), (5, 9)])
    def test_back_pointers_once_per_chunk(self, monkeypatch, k, num_alpha):
        # the back-pointer comparisons run K - 1 times per chunk, never once
        # per position
        counting = CountingNumpy()
        monkeypatch.setattr(hp.decoding, "np", counting)
        n = 3000
        rng = np.random.default_rng(k * num_alpha)
        log_em, log_marg = (np.log(rng.random((n, k))) for _ in range(2))
        log_pi, log_gamma = np.log(np.full(k, 1.0 / k)), np.log(np.full((k, k), 1.0 / k))
        alphas = np.resize([1.0, 0.0, 0.5, 0.3], num_alpha)
        paths = _decode_paths(log_pi, log_gamma, log_em, log_marg, alphas)
        monkeypatch.undo()
        unique, where = np.unique(alphas, return_inverse=True)
        expected = reference_decode(log_pi, log_gamma, log_em, log_marg, unique)[where]
        assert np.array_equal(paths, expected)
        chunks = -(-(n - 1) // _chunk_length(k, num_alpha))
        assert counting.comparisons == (k - 1) * chunks < n

    def test_back_tracking_stays_in_place(self):
        # the back-pointers (n, K, A) and the paths (A, n) take n*A*(K + 1)
        # bytes; a copy of the back-pointers or an (n, A) intp index of the
        # back-tracking would not fit beside them in the 0.5 MB
        n, k = 100_000, 3
        alphas = np.array([0.0, 0.3, 0.7, 1.0])
        rng = np.random.default_rng(17)
        log_em, log_marg = (np.log(rng.random((n, k))) for _ in range(2))
        log_pi, log_gamma = np.log(np.full(k, 1.0 / k)), np.log(np.full((k, k), 1.0 / k))
        paths, peak_mb = traced_peak_mb(
            lambda: _decode_paths(log_pi, log_gamma, log_em, log_marg, alphas)
        )
        assert paths.shape == (alphas.size, n)
        assert peak_mb * 1e6 < n * alphas.size * (k + 1) + 0.5e6

    def test_alpha_columns_do_not_mix(self):
        model = model_grid([0.8], [5])[0]
        _, x = hp.simulate(model, 20_000, seed=3)
        tables = hp.forward_backward(model, x)
        grid = hp.default_alpha_grid()
        batch = hp.hybrid_paths(model, tables, grid)
        assert batch.dtype == np.int8 and batch.shape == (257, 20_000)
        for alpha, row in zip(grid, batch):
            assert np.array_equal(row, hp.hybrid_paths(model, tables, [alpha])[0])


class CountingNumpy:
    """numpy for the decoding module, counting its np.not_equal calls."""

    def __init__(self):
        self.comparisons = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def not_equal(self, *args, **kwargs):
        self.comparisons += 1
        return np.not_equal(*args, **kwargs)


def traced_peak_mb(call):
    """call() and the peak of the memory it allocated, in MB."""
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


class TestInt8Paths:
    def test_decoders_return_int8(self, earthquake_model, earthquake_counts):
        tables = hp.forward_backward(earthquake_model, earthquake_counts)
        assert hp.viterbi(earthquake_model, earthquake_counts).dtype == np.int8
        assert hp.hybrid_paths(earthquake_model, tables, [0.0, 0.3, 1.0]).dtype == np.int8
        result = hp.hybrid_decode(earthquake_model, tables, earthquake_counts, 0.3)
        assert result.path.dtype == np.int8

    def test_sweep_batch_memory(self):
        # 257 int8 paths of 2*10^4 positions take 5.1 MB and the kernel's
        # back-pointers 15.4 MB; an int64 batch alone would take 41 MB.  The
        # decode peaked at 23.1 MB and the scoring, whose blocks of 2^19
        # terms hold an intp index and a float64 each, at 9.1 MB
        model = model_grid([0.8], [5])[0]
        _, x = hp.simulate(model, 20_000, seed=3)
        tables = hp.forward_backward(model, x)
        paths, decode_mb = traced_peak_mb(
            lambda: hp.hybrid_paths(model, tables, hp.default_alpha_grid())
        )
        assert paths.dtype == np.int8 and paths.shape == (257, 20_000)
        assert decode_mb < 26
        _, score_mb = traced_peak_mb(
            lambda: hp.log_joint(model, paths, x, log_emissions=tables.log_emissions)
        )
        assert score_mb < 10


class TestRisks:
    def test_posterior_path_minimizes_pointwise_risk(self):
        rng = np.random.default_rng(141)
        for _ in range(8):
            model, x = random_instance(rng, n_low=2, n_high=9)
            tables = hp.forward_backward(model, x)
            paths, logj, _, _ = enumerate_posterior(model, x)
            pw, _ = hybrid_score_components(tables, paths, logj)
            assert np.allclose(_pointwise_log_sum(tables, paths), pw, atol=1e-10)
            res = hp.hybrid_decode(model, tables, x, 0.0)
            assert np.array_equal(res.path, hp.posterior_decode(hp.posterior_marginals(tables)))
            assert res.pointwise_log_sum == pytest.approx(pw.max(), abs=1e-10)

    def test_viterbi_path_minimizes_path_risk(self):
        rng = np.random.default_rng(151)
        for _ in range(8):
            model, x = random_instance(rng, n_low=2, n_high=9)
            paths, logj, _, _ = enumerate_posterior(model, x)
            scores = hp.log_joint(model, paths, x)
            assert np.allclose(scores, logj, atol=1e-10)
            assert hp.log_joint(model, hp.viterbi(model, x), x) == pytest.approx(
                scores.max(), abs=1e-10
            )

    def test_risk_objective_identity(self):
        rng = np.random.default_rng(161)
        model, x = random_instance(rng, n_low=12, n_high=12)
        tables = hp.forward_backward(model, x)
        for alpha in (0.0, 0.35, 1.0):
            res = hp.hybrid_decode(model, tables, x, alpha)
            paths = res.path[None, :]
            pw, cond = hybrid_score_components(tables, paths, hp.log_joint(model, paths, x))
            assert res.objective == pytest.approx(
                best_hybrid_objective(pw, cond, alpha), abs=1e-9
            )

    def test_inadmissible_path_scores(self):
        m = hp.validate_model(
            hp.HmmModel(pi=[0.5, 0.5], gamma=[[0.5, 0.5], [0.0, 1.0]], rates=[1, 5])
        )
        x = [0, 1, 0]
        tables = hp.forward_backward(m, x)
        paths = np.array([[2, 1, 1], [1, 1, 1]])  # the first uses the forbidden 2 -> 1
        scores = hp.log_joint(m, paths, x)
        assert scores[0] == -np.inf
        assert np.isfinite(scores[1])
        # every visited state has positive marginal, so the pointwise sum stays
        # finite even though the path itself is impossible
        assert np.isfinite(_pointwise_log_sum(tables, paths)).all()


class TestGeometricMeans:
    def test_values_match_enumeration(self):
        rng = np.random.default_rng(191)
        model, x = random_instance(rng, n_low=3, n_high=3)
        tables = hp.forward_backward(model, x)
        paths, _, w, _ = enumerate_posterior(model, x)
        marg_oracle = np.zeros((3, 2))
        for p, wp in zip(paths, w):
            for t in range(3):
                marg_oracle[t, p[t] - 1] += wp
        log_g = np.log(marg_oracle[np.arange(3), paths - 1]).sum(axis=1)
        assert np.allclose(_pointwise_log_sum(tables, paths), log_g, atol=1e-10)
        assert np.allclose(hp.log_joint(model, paths, x) - tables.loglik, np.log(w), atol=1e-10)


class TestBatchedLogJoint:
    def test_artemis_batch_equals_row_by_row(self):
        model = model_grid([0.8], [5])[0]
        _, x = hp.simulate(model, 20_000, seed=0)
        tables = hp.forward_backward(model, x)
        paths = hp.hybrid_paths(model, tables, hp.default_alpha_grid())
        batch = hp.log_joint(model, paths, x, log_emissions=tables.log_emissions)
        rows = [hp.log_joint(model, p, x, log_emissions=tables.log_emissions) for p in paths]
        assert batch.shape == (257,)
        assert np.array_equal(batch, rows)


class TestPublishedDecodes:
    def test_earthquake_decodes_differ_in_1918_and_1973(
        self, earthquake_model, earthquake_counts
    ):
        tables = hp.forward_backward(earthquake_model, earthquake_counts)
        post = hp.posterior_decode(hp.posterior_marginals(tables))
        vit = hp.viterbi(earthquake_model, earthquake_counts)
        years = 1900 + np.flatnonzero(post != vit)
        assert years.tolist() == [1918, 1973]

    def test_lamb_posterior_equals_viterbi(self, lamb_model, lamb_counts, lamb_tables):
        post = hp.posterior_decode(hp.posterior_marginals(lamb_tables))
        vit = hp.viterbi(lamb_model, lamb_counts)
        assert np.array_equal(post, vit)

    def test_earthquake_intermediate_path_shape(self, earthquake_model, earthquake_counts):
        tables = hp.forward_backward(earthquake_model, earthquake_counts)
        post = hp.posterior_decode(hp.posterior_marginals(tables))
        vit = hp.viterbi(earthquake_model, earthquake_counts)
        res = hp.hybrid_decode(earthquake_model, tables, earthquake_counts, 0.3)
        assert res.path[18] == post[18] == 1   # 1918 decided like Posterior decoding
        assert res.path[73] == vit[73] == 2    # 1973 decided like Viterbi
