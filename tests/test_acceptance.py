"""End-to-end acceptance gates.

Each test is one criterion, checked at its stated tolerance, and prints a
one-line PASS verdict when it holds (run with ``pytest -s`` to see them).
The heavy simulation criteria take a few minutes combined.
"""

import numpy as np
import pytest

import hmmposterior as hp
from oracles import (
    best_hybrid_objective,
    enumerate_posterior,
    hybrid_score_components,
    model_grid,
    oracle_distribution,
    random_instance,
    random_model,
    total_variation,
)


def report(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


def fmci_distribution(chain, statistic, ell, run_length=None):
    return hp.propagate(hp.build_spec(statistic, ell, run_length), chain)


def test_criterion_1_fmci_oracle_equivalence():
    rng = np.random.default_rng(20_2401)
    cases = [("jumps", None), ("positions", None), ("longest_run", None),
             ("exact_run", 1), ("exact_run", 2), ("exact_run", 3)]
    worst = 0.0
    for _ in range(200):
        model, x = random_instance(rng, n_low=2, n_high=12)
        n = len(x)
        chain = hp.build_posterior_chain(model, hp.forward_backward(model, x))
        paths, _, w, _ = enumerate_posterior(model, x)
        for statistic, run_length in cases:
            dist = fmci_distribution(chain, statistic, n, run_length)
            mine = np.concatenate([dist.probs, [dist.overflow]])
            oracle = oracle_distribution(paths, w, statistic, n, run_length)
            tv = total_variation(mine, oracle)
            worst = max(worst, tv)
            assert tv < 1e-9
    report(1, f"FMCI oracle equivalence, worst TV {worst:.2e}")


def test_criterion_2_decoding_oracle_equivalence():
    rng = np.random.default_rng(20_2402)
    grid = np.linspace(0.0, 1.0, 21)
    for _ in range(100):
        k = int(rng.integers(2, 4))
        model, x = random_instance(rng, num_states=k, n_low=2, n_high=10)
        tables = hp.forward_backward(model, x)
        paths, logj, _, _ = enumerate_posterior(model, x)
        pw, cond = hybrid_score_components(tables, paths, logj)
        for alpha in grid:
            res = hp.hybrid_decode(model, tables, x, float(alpha))
            assert res.objective == pytest.approx(
                best_hybrid_objective(pw, cond, float(alpha)), abs=1e-10
            )
        vit = hp.viterbi(model, x)
        assert hp.log_joint(model, vit, x) == pytest.approx(logj.max(), abs=1e-10)
        marg = hp.posterior_marginals(tables)
        assert np.array_equal(hp.posterior_decode(marg), np.argmax(marg, axis=1) + 1)
    report(2, "decoding oracle equivalence on 100 instances x 21 alphas")


def test_criterion_3_endpoint_identities_long_sequences():
    rng = np.random.default_rng(20_2403)
    n = 10_000
    for i in range(100):
        k = int(rng.integers(2, 4))
        model = random_model(rng, num_states=k)
        _, x = hp.simulate(model, n, seed=int(rng.integers(1 << 31)))
        tables = hp.forward_backward(model, x)
        ends = hp.hybrid_paths(model, tables, [0.0, 1.0])
        assert np.array_equal(ends[0], hp.posterior_decode(hp.posterior_marginals(tables)))
        assert np.array_equal(ends[1], hp.viterbi(model, x))
    report(3, "hybrid endpoints equal Posterior/Viterbi paths at n=10^4, 100 instances")


def test_criterion_4_earthquake_reproduction(earthquake_model, earthquake_counts):
    rounded = np.round(earthquake_model.gamma, 3)
    assert rounded.tolist() == [[0.928, 0.072], [0.119, 0.881]]
    assert np.round(earthquake_model.rates, 1).tolist() == [15.4, 26.0]

    tables = hp.forward_backward(earthquake_model, earthquake_counts)
    post = hp.posterior_decode(hp.posterior_marginals(tables))
    vit = hp.viterbi(earthquake_model, earthquake_counts)
    years = (1900 + np.flatnonzero(post != vit)).tolist()
    assert years == [1918, 1973]

    grid = np.arange(0, 4001) / 4000.0
    paths = hp.hybrid_paths(earthquake_model, tables, grid)
    is_post = (paths == post[None, :]).all(axis=1)
    is_vit = (paths == vit[None, :]).all(axis=1)
    leave_posterior = grid[int(np.argmin(is_post))]
    reach_viterbi = grid[int(np.argmax(is_vit))]
    assert abs(leave_posterior - 0.11) <= 0.01
    assert abs(reach_viterbi - 0.52) <= 0.01
    report(4, f"earthquake decode split 1918/1973, thresholds "
              f"{leave_posterior:.4f} and {reach_viterbi:.4f}")


def test_criterion_5_fetal_lamb_reproduction(lamb_model, lamb_counts, lamb_tables, lamb_chain):
    post = hp.posterior_decode(hp.posterior_marginals(lamb_tables))
    vit = hp.viterbi(lamb_model, lamb_counts)
    assert np.array_equal(post, vit)

    in2 = np.flatnonzero(vit == 2) + 1
    assert in2.size == 7
    runs = np.split(in2, np.flatnonzero(np.diff(in2) != 1) + 1)
    assert len(runs) == 2

    positions = fmci_distribution(lamb_chain, "positions", 60)
    above_10 = positions.probs[11:].sum() + positions.overflow
    assert above_10 > 0.15

    runs_dist = fmci_distribution(lamb_chain, "runs", 60)
    assert runs_dist.probs[2] == pytest.approx(0.5, abs=0.1)
    report(5, f"fetal lamb: decode 7 positions in {len(runs)} runs, "
              f"P(N>10)={above_10:.3f}, P(runs=2)={runs_dist.probs[2]:.3f}")


def test_criterion_6_artemis_table_reproduction():
    targets = {10: 0.358, 5: 0.422, 2: 0.450}
    averages = {}
    hard_first = None
    for spread, target in targets.items():
        model = model_grid([0.8], [spread])[0]
        study = hp.artemis_study(model, n=100_000, replicates=10,
                                 alphas=hp.default_alpha_grid(256), seed=1_2026)
        assert all(v is not None for v in study.optimal_alphas)
        averages[spread] = study.average
        if spread == 2:
            hard_first = study.optimal_alphas[0]
        assert study.average == pytest.approx(target, abs=0.05)
    assert hard_first == pytest.approx(0.461, abs=0.05)
    report(6, "artemis averages easy/medium/hard = "
              f"{averages[10]:.3f}/{averages[5]:.3f}/{averages[2]:.3f} "
              f"(targets 0.358/0.422/0.450), single hard run {hard_first:.3f}")


def test_criterion_7_sampling_consistency(lamb_tables, lamb_chain):
    samples = hp.sample_posterior_paths(lamb_chain, 1000, seed=7_2026)
    marg2 = hp.posterior_marginals(lamb_tables)[:, 1]
    freq2 = (samples == 2).mean(axis=0)
    se = np.sqrt(marg2 * (1.0 - marg2) / samples.shape[0])
    within = np.abs(freq2 - marg2) <= 3.5 * se + 1e-12
    assert within.mean() >= 0.99
    report(7, f"sampling consistency at {within.mean():.1%} of positions")


def test_criterion_8_blockwise_claims():
    model = model_grid([0.8], [5])[0]  # the medium difficulty case
    block_sizes = list(range(1, 21)) + [500, 1000]
    rows = hp.blockwise_study(model, n=100_000, replicates=10, alphas=[0.422],
                              block_sizes=block_sizes, seed=8_2026)
    acc = {(r.method, r.block_size): r.mean_accuracy for r in rows}
    hybrid = "hybrid(alpha=0.422)"
    assert acc[("posterior", 1)] >= acc[(hybrid, 1)]
    assert acc[("posterior", 1)] >= acc[("viterbi", 1)]
    for b in range(2, 21):
        assert acc[(hybrid, b)] >= acc[("posterior", b)]
    for b in (500, 1000):
        assert acc[("viterbi", b)] >= acc[(hybrid, b)]
    report(8, "block-wise ordering: posterior at b=1, hybrid for b=2..20, "
              "viterbi for b>=500")


def test_criterion_9_long_sequence_robustness(earthquake_model):
    n = 100_000
    _, x = hp.simulate(earthquake_model, n, seed=9_2026)
    tables = hp.forward_backward(earthquake_model, x)
    assert np.isfinite(tables.loglik)
    marg = hp.posterior_marginals(tables)
    assert np.abs(marg.sum(axis=1) - 1.0).max() < 1e-9

    chain = hp.build_posterior_chain(earthquake_model, tables)
    assert np.isfinite(chain.trans).all()

    dist = hp.propagate(hp.build_spec("jumps", 60), chain)
    assert np.isfinite(dist.probs).all() and np.isfinite(dist.overflow)
    assert dist.probs.sum() + dist.overflow == pytest.approx(1.0, abs=1e-9)

    result = hp.hybrid_decode(earthquake_model, tables, x, 0.5)
    assert np.isfinite(result.objective)
    assert np.isfinite(result.log_joint)
    report(9, f"n=10^5 pipeline finite, loglik={tables.loglik:.1f}")
