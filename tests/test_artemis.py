import numpy as np
import pytest

import hmmposterior as hp
from hmmposterior.artemis import ArtemisCurve


def small_model():
    return hp.validate_model(
        hp.HmmModel(pi=[1, 0], gamma=[[0.92, 0.08], [0.12, 0.88]], rates=[10, 15])
    )


class TestAccuracies:
    def test_pointwise_trivials(self):
        s = np.array([1, 2, 2, 1])
        assert hp.pointwise_accuracy(s, s) == 1.0
        assert hp.pointwise_accuracy(s, 3 - s) == 0.0
        assert hp.pointwise_accuracy([1, 2, 2, 1], [1, 2, 2, 2]) == 0.75

    def test_pointwise_length_mismatch(self):
        with pytest.raises(ValueError):
            hp.pointwise_accuracy([1, 2], [1, 2, 1])

    def test_blockwise_size_one_is_pointwise(self):
        rng = np.random.default_rng(0)
        s = rng.integers(1, 3, 50)
        y = rng.integers(1, 3, 50)
        assert hp.blockwise_accuracy(s, y, 1) == hp.pointwise_accuracy(s, y)

    def test_blockwise_full_window(self):
        s = np.array([1, 2, 1])
        assert hp.blockwise_accuracy(s, s, 3) == 1.0
        assert hp.blockwise_accuracy(s, np.array([1, 2, 2]), 3) == 0.0

    def test_blockwise_perfect_for_every_size(self):
        s = np.array([1, 1, 2, 2, 1])
        for b in range(1, 6):
            assert hp.blockwise_accuracy(s, s, b) == 1.0

    def test_blockwise_window_count(self):
        s = np.array([1, 1, 2, 1])
        y = np.array([1, 1, 1, 1])
        # windows of size 2: (1,2) ok, (2,3) bad, (3,4) bad -> 1/3
        assert hp.blockwise_accuracy(s, y, 2) == pytest.approx(1 / 3)

    def test_blockwise_bounds(self):
        with pytest.raises(ValueError):
            hp.blockwise_accuracy([1, 2], [1, 2], 0)
        with pytest.raises(ValueError):
            hp.blockwise_accuracy([1, 2], [1, 2], 3)


class TestOptimalAlpha:
    def make_curve(self, alphas, sa, sj):
        return ArtemisCurve(
            alphas=np.asarray(alphas, dtype=float),
            accuracy=np.asarray(sa, dtype=float),
            log_joint=np.asarray(sj, dtype=float),
            scaled_accuracy=np.asarray(sa, dtype=float),
            scaled_log_joint=np.asarray(sj, dtype=float),
            optimal_alpha=None,
            degenerate_axes=(),
        )

    def test_exact_crossing_at_grid_point(self):
        curve = self.make_curve([0.0, 0.5, 1.0], [1.0, 0.9, 0.0], [0.0, 0.9, 1.0])
        assert hp.optimal_alpha(curve) == 0.5

    def test_analytic_crossing_on_fine_grid(self):
        grid = np.arange(257) / 256
        curve = self.make_curve(grid, 1 - grid, grid)
        assert hp.optimal_alpha(curve) == 0.5

    def test_tie_breaks_toward_smaller_alpha(self):
        curve = self.make_curve([0.0, 0.25, 0.75, 1.0], [1, 0.6, 0.4, 0], [0, 0.4, 0.6, 1])
        assert hp.optimal_alpha(curve) == 0.25

    def test_degenerate_curve_raises(self):
        curve = ArtemisCurve(
            alphas=np.array([0.0, 1.0]),
            accuracy=np.array([1.0, 1.0]),
            log_joint=np.array([0.0, 1.0]),
            scaled_accuracy=np.zeros(2),
            scaled_log_joint=np.array([0.0, 1.0]),
            optimal_alpha=None,
            degenerate_axes=("accuracy",),
        )
        with pytest.raises(hp.DegenerateScalingError):
            hp.optimal_alpha(curve)


class TestSweep:
    def test_endpoints_match_reference_decoders(self):
        model = small_model()
        y, x = hp.simulate(model, 400, seed=8)
        curve = hp.sweep(model, x, y, hp.default_alpha_grid(32))
        tables = hp.forward_backward(model, x)
        post = hp.posterior_decode(hp.posterior_marginals(tables))
        vit = hp.viterbi(model, x)
        assert curve.alphas[0] == 0.0 and curve.alphas[-1] == 1.0
        assert curve.accuracy[0] == hp.pointwise_accuracy(post, y)
        assert curve.accuracy[-1] == hp.pointwise_accuracy(vit, y)
        assert curve.log_joint[0] == pytest.approx(
            hp.log_joint(model, post, x), abs=1e-12
        )
        assert curve.log_joint[-1] == pytest.approx(
            hp.log_joint(model, vit, x), abs=1e-12
        )

    def test_non_integer_true_path_rejected(self):
        model = small_model()
        y, x = hp.simulate(model, 60, seed=4)
        grid = hp.default_alpha_grid(4)
        as_float = hp.sweep(model, x, y.astype(float), grid)
        assert np.array_equal(as_float.accuracy, hp.sweep(model, x, y, grid).accuracy)
        with pytest.raises(ValueError, match="state labels must be integers"):
            hp.sweep(model, x, y - 0.5, grid)

    def test_log_joint_nondecreasing_and_scaling(self):
        model = small_model()
        y, x = hp.simulate(model, 600, seed=12)
        curve = hp.sweep(model, x, y, hp.default_alpha_grid(64))
        assert (np.diff(curve.log_joint) >= -1e-9).all()
        if not curve.degenerate_axes:
            for scaled in (curve.scaled_accuracy, curve.scaled_log_joint):
                assert scaled.min() == 0.0 and scaled.max() == 1.0

    def test_degenerate_when_decoders_agree(self):
        model = hp.validate_model(
            hp.HmmModel(pi=[1, 0], gamma=np.eye(2), rates=[1.0, 9.0])
        )
        y, x = hp.simulate(model, 50, seed=3)
        curve = hp.sweep(model, x, y, hp.default_alpha_grid(8))
        assert curve.degenerate_axes
        assert curve.optimal_alpha is None

    def test_determinism(self):
        model = small_model()
        y, x = hp.simulate(model, 300, seed=5)
        a = hp.sweep(model, x, y, hp.default_alpha_grid(16))
        b = hp.sweep(model, x, y, hp.default_alpha_grid(16))
        assert np.array_equal(a.accuracy, b.accuracy)
        assert np.array_equal(a.log_joint, b.log_joint)

    def test_nan_alpha_rejected(self):
        model = small_model()
        y, x = hp.simulate(model, 50, seed=5)
        with pytest.raises(ValueError, match="alpha"):
            hp.sweep(model, x, y, [0.5, np.nan])


class TestArtemisStudy:
    def test_single_replicate_stats(self):
        model = small_model()
        report = hp.artemis_study(model, n=500, replicates=1, alphas=hp.default_alpha_grid(32), seed=4)
        assert len(report.optimal_alphas) == 1
        if report.optimal_alphas[0] is not None:
            assert report.average == report.optimal_alphas[0]
            assert report.std == 0.0

    def test_seed_reproducibility(self):
        model = small_model()
        kw = dict(n=400, replicates=3, alphas=hp.default_alpha_grid(16), seed=99)
        a = hp.artemis_study(model, **kw)
        b = hp.artemis_study(model, **kw)
        assert a == b

    def test_average_is_mean_of_values(self):
        model = small_model()
        report = hp.artemis_study(model, n=400, replicates=4, alphas=hp.default_alpha_grid(16), seed=7)
        valid = [v for v in report.optimal_alphas if v is not None]
        assert report.average == pytest.approx(np.mean(valid), abs=1e-12)
        assert len(report.labels) == 4

    def test_replicate_callback_sees_curves(self):
        model = small_model()
        seen = []
        hp.artemis_study(
            model, n=200, replicates=2, alphas=hp.default_alpha_grid(8), seed=1,
            on_replicate=lambda r, c: seen.append((r, c.alphas.size)),
        )
        assert seen == [(0, 9), (1, 9)]


class TestBlockwiseStudy:
    def test_perfectly_decodable_model(self):
        model = hp.validate_model(
            hp.HmmModel(pi=[1, 0], gamma=np.eye(2), rates=[1.0, 9.0])
        )
        rows = hp.blockwise_study(model, n=200, replicates=2, alphas=[0.4],
                                  block_sizes=[1, 5, 200], seed=2)
        assert all(row.mean_accuracy == 1.0 for row in rows)
        assert all(row.mean_accuracy_minus_posterior == 0.0 for row in rows)

    def test_row_structure(self):
        model = small_model()
        rows = hp.blockwise_study(model, n=150, replicates=2, alphas=[0.3, 0.7],
                                  block_sizes=[1, 10], seed=6)
        methods = {row.method for row in rows}
        assert methods == {"posterior", "hybrid(alpha=0.3)", "hybrid(alpha=0.7)", "viterbi"}
        assert len(rows) == 2 * 4
        posterior_rows = {r.block_size: r for r in rows if r.method == "posterior"}
        for row in rows:
            base = posterior_rows[row.block_size]
            assert row.mean_accuracy_minus_posterior == pytest.approx(
                row.mean_accuracy - base.mean_accuracy, abs=1e-15
            )

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            hp.blockwise_study(small_model(), n=50, replicates=1, alphas=[0.5],
                               block_sizes=[0], seed=0)


class TestModelGrid:
    def test_nine_models_validate(self):
        models = hp.model_grid([0.8, 0.5, 0.1], [10, 5, 2])
        assert len(models) == 9
        for m in models:
            assert hp.validate_model(m) is m
            assert m.pi.tolist() == [0.8, 0.1, 0.1]

    def test_easy_case_rates(self):
        m = hp.model_grid([0.8], [10])[0]
        assert m.rates.tolist() == [10.0, 20.0, 30.0]
        assert m.gamma[0] == pytest.approx([0.8, 0.1, 0.1], abs=1e-15)

    def test_identity_when_q_is_one(self):
        m = hp.model_grid([1.0], [5])[0]
        assert np.array_equal(m.gamma, np.eye(3))

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            hp.model_grid([0.0], [5])
        with pytest.raises(ValueError):
            hp.model_grid([0.5], [25])
