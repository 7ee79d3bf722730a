import numpy as np
import pytest

import hmmposterior as hp
from hmmposterior.decoding import _decode_paths, _pointwise_log_sum
from oracles import (
    best_hybrid_objective,
    enumerate_posterior,
    hybrid_score_components,
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
                # every fifth sequence spans several 512-position blocks
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

    def test_alpha_columns_do_not_mix(self):
        model = hp.model_grid([0.8], [5])[0]
        _, x = hp.simulate(model, 20_000, seed=3)
        tables = hp.forward_backward(model, x)
        grid = hp.default_alpha_grid()
        batch = hp.hybrid_paths(model, tables, grid)
        assert batch.dtype == np.int64 and batch.shape == (257, 20_000)
        for alpha, row in zip(grid, batch):
            assert np.array_equal(row, hp.hybrid_paths(model, tables, [alpha])[0])


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
        model = hp.model_grid([0.8], [5])[0]
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
