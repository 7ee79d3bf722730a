import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmposterior as hp
from oracles import (
    _ONE,
    enumerate_posterior,
    model_grid,
    oracle_distribution,
    random_instance,
    reference_build_spec,
    reference_carry,
    reference_longest_run,
    reference_propagate,
    statistic_value,
    total_variation,
)


def build_positions_chain(ell):
    return hp.build_spec("positions", ell)


def build_longest_run_chain(ell):
    return hp.build_spec("longest_run", ell)


ALL_BUILDERS = [
    ("jumps", lambda ell: hp.build_spec("jumps", ell)),
    ("runs", lambda ell: hp.build_spec("runs", ell)),
    ("positions", build_positions_chain),
    ("longest_run", build_longest_run_chain),
    ("exact_run_1", lambda ell: hp.build_spec("exact_run", ell, 1)),
    ("exact_run_2", lambda ell: hp.build_spec("exact_run", ell, 2)),
    ("exact_run_3", lambda ell: hp.build_spec("exact_run", ell, 3)),
]
BUILDER_NAMES = [name for name, _ in ALL_BUILDERS]


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
    return hp.propagate(hp.build_spec(statistic, ell, run_length), chain)


def with_overflow(dist):
    """The probabilities of the values 0..ell, then the overflow."""
    return np.append(dist.probs, dist.overflow)


def tiled_entries(spec):
    """The step matrix of a counting statistic from the block template propagate carries.

    The template is tiled over the spec's ell + 1 blocks in its (count x
    situation) layout, block by block and each block's entries by row; an
    entry that advances past block ell goes to the overflow, which keeps its
    mass.  Returns rows, cols and kinds as the loop builders list them.
    """
    ell, overflow = spec.truncation, spec.size - 1
    situations = np.arange(overflow // (ell + 1))
    pairs = []
    for src, dst, kind, advance in hp.fmci._counting_rule(spec.statistic, spec.run_length)[0]:
        srcs, dsts = np.broadcast_arrays(situations[src], situations[dst])
        pairs += [(s, d, kind, advance) for s, d in zip(srcs.ravel(), dsts.ravel())]
    entries = []
    for c in range(ell + 1):
        for s, d, kind, advance in sorted(pairs):
            col = (c + advance) * situations.size + d if c + advance <= ell else overflow
            entries.append((c * situations.size + s, col, kind))
    entries.append((overflow, overflow, _ONE))
    return np.array(entries, dtype=np.int64).T


def reference_values(spec, chain):
    """reference_propagate on the loop-built imbedding of spec's statistic, grouped by value.

    The probabilities of the values 0..ell, then the overflow.
    """
    ref = reference_build_spec(spec.statistic, spec.truncation, spec.run_length)
    final = reference_propagate(ref, chain)
    return np.bincount(ref.values, weights=final, minlength=spec.truncation + 2)


class TestSpecConstruction:
    def test_sizes(self):
        assert hp.build_spec("jumps", 7).size == 2 * 7 + 3
        assert hp.build_spec("positions", 7).size == 2 * 7 + 3
        assert hp.build_spec("exact_run", 7, 3).size == (7 + 1) * (3 + 2) + 1
        # one state per value 0..ell plus the overflow
        assert hp.build_spec("longest_run", 7).size == 7 + 2

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_rows_stochastic_on_grid(self, name, builder):
        mine = builder(4)
        spec = reference_build_spec(mine.statistic, mine.truncation, mine.run_length)
        grid = np.linspace(0.0, 1.0, 10)
        for a in grid:
            for b in grid:
                coef = np.array([a, 1.0 - a, b, 1.0 - b, 1.0])
                mat = np.zeros((spec.size, spec.size))
                np.add.at(mat, (spec.rows, spec.cols), coef[spec.kinds])
                assert np.abs(mat.sum(axis=1) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_initial_vector_normalized(self, name, builder):
        # the seed propagate starts from, read off a length-one chain
        chain = hp.PosteriorChain(init=np.array([0.25, 0.75]), trans=np.empty((0, 2, 2)))
        v = with_overflow(hp.propagate(builder(3), chain))
        assert abs(v.sum() - 1.0) < 1e-12
        assert (v >= 0).all()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hp.build_spec("jumps", 0)
        with pytest.raises(ValueError):
            hp.build_spec("exact_run", 3, 0)
        with pytest.raises(ValueError):
            hp.build_spec("visits", 3)
        with pytest.raises(ValueError):
            hp.build_spec("exact_run", 3)

    def test_build_spec_matches_the_reference_builders(
        self, lamb_chain, earthquake_model, earthquake_counts
    ):
        quake = hp.build_posterior_chain(
            earthquake_model, hp.forward_backward(earthquake_model, earthquake_counts)
        )
        chains = [lamb_chain, quake, hp.swap_states(quake)]
        for init in ([0.3, 0.7], [1.0, 0.0], [0.0, 1.0]):
            chains.append(manual_chain(init, [], []))
            chains += [manual_chain(init, [s1], [s2]) for s1, s2 in ((0.25, 0.6), (0.0, 1.0))]
        statistics = [("jumps", None), ("runs", None)]
        statistics += [("exact_run", k) for k in (1, 2, 3, 7)]
        for ell in (1, 2, 7, 37, 60, 300):
            for statistic, run_length in statistics:
                mine = hp.build_spec(statistic, ell, run_length)
                ref = reference_build_spec(statistic, ell, run_length)
                for name in ("statistic", "truncation", "size", "run_length"):
                    assert getattr(mine, name) == getattr(ref, name)
                for chain in chains:
                    assert_matches_reference(mine, chain)
            # longest_run has one state per value, the loop builder a block of
            # run lengths per value: their distributions must agree
            for chain in chains:
                assert_matches_reference(hp.build_spec("longest_run", ell), chain)
        # positions gains a state that never holds mass, so its size differs
        # from the reference's; its distributions must not
        for chain in chains:
            for ell in (chain.n, 3):
                assert_matches_reference(hp.build_spec("positions", ell), chain)

    @pytest.mark.parametrize("ell", [1, 2, 12, 120])
    @pytest.mark.parametrize("statistic,run_length", [
        ("jumps", None), ("runs", None), ("positions", None),
        ("exact_run", 1), ("exact_run", 2), ("exact_run", 3),
    ])
    def test_entries_run_by_row(self, statistic, run_length, ell):
        # the block template, tiled row by row over the spec's blocks, is the
        # loop-built step matrix: propagate's (count x situation) window
        # carries the same product
        spec = hp.build_spec(statistic, ell, run_length)
        rows, cols, kinds = tiled_entries(spec)
        assert (np.diff(rows) >= 0).all()
        overflow = spec.size - 1
        assert (rows[-1], cols[-1], kinds[-1]) == (overflow, overflow, _ONE)
        assert (rows[:-1] < overflow).all()
        if statistic == "positions":
            # nothing enters the state no path reaches; the loop builder
            # leaves it out, so every other state sits one lower there
            assert not (cols == 0).any()
            keep = rows > 0
            rows, cols, kinds = rows[keep] - 1, cols[keep] - 1, kinds[keep]
        ref = reference_build_spec(statistic, ell, run_length)
        assert sorted(zip(rows.tolist(), cols.tolist(), kinds.tolist())) == sorted(
            zip(ref.rows.tolist(), ref.cols.tolist(), ref.kinds.tolist())
        )

    def test_longest_run_build_stays_small(self):
        # the CLI's largest level: 1414 states, one per value plus the overflow
        tracemalloc.start()
        try:
            hp.build_spec("longest_run", 1412)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30e6


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
        # one position: jumps count none, runs, positions and the longest run
        # count a start in state 2, and exact_run:k counts its open run for k = 1
        chain = hp.PosteriorChain(init=np.array([0.2, 0.8]), trans=np.empty((0, 2, 2)))
        for name, builder in ALL_BUILDERS:
            dist = hp.propagate(builder(3), chain)
            expected = [1.0, 0.0] if name in ("jumps", "exact_run_2", "exact_run_3") else [0.2, 0.8]
            assert np.array_equal(with_overflow(dist), expected + [0.0, 0.0, 0.0]), name

    def test_final_vector_sums_to_one(self, lamb_chain):
        for _, builder in ALL_BUILDERS:
            dist = hp.propagate(builder(9), lamb_chain)
            assert dist.probs.sum() + dist.overflow == pytest.approx(1.0, abs=1e-9)

    def test_rejects_three_state_chain(self):
        m = model_grid([0.8], [5])[0]
        _, x = hp.simulate(m, 6, seed=0)
        chain = hp.build_posterior_chain(m, hp.forward_backward(m, x))
        with pytest.raises(hp.TwoStateRequiredError):
            hp.propagate(hp.build_spec("jumps", 3), chain)

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS, ids=BUILDER_NAMES)
    def test_rejects_an_unnormalized_init(self, name, builder):
        rng = np.random.default_rng(5)
        chain = manual_chain([0.5, 1.0], rng.uniform(size=6), rng.uniform(size=6))
        with pytest.raises(ValueError, match="expected 1 within 1e-9"):
            hp.propagate(builder(4), chain)

    def test_every_count_overflows(self, earthquake_model, earthquake_counts):
        # the earthquake posterior spends more than one position in state 2
        # on every path, so positions at level 1 is all overflow
        chain = hp.build_posterior_chain(
            earthquake_model, hp.forward_backward(earthquake_model, earthquake_counts)
        )
        dist = fmci_distribution(chain, "positions", 1)
        assert dist.probs.dtype == np.float64 and np.array_equal(dist.probs, [0.0, 0.0])
        assert not np.signbit(dist.probs).any()
        assert dist.overflow == 1.0000000000000013

    def test_consistency_between_statistics(self, lamb_chain):
        ell = 30
        d_runs = fmci_distribution(lamb_chain, "runs", ell)
        d_pos = fmci_distribution(lamb_chain, "positions", ell)
        d_long = fmci_distribution(lamb_chain, "longest_run", ell)
        enter = 1.0 - d_runs.probs[0]
        assert d_pos.probs[1:].sum() + d_pos.overflow == pytest.approx(enter, abs=1e-9)
        assert d_long.probs[1:].sum() + d_long.overflow == pytest.approx(enter, abs=1e-9)


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


class CountingNumpy:
    """numpy for the fmci module, counting the np.matmul calls that carry a block."""

    def __init__(self):
        self.carries = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x, y, out=None):
        self.carries += 1
        return np.matmul(x, y, out=out)


class NanNumpy:
    """numpy for the fmci module, whose np.empty fills with NaN."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape):
        return np.full(shape, np.nan)


def assert_matches_reference(spec, chain):
    dist = hp.propagate(spec, chain)
    expected = reference_values(spec, chain)
    np.testing.assert_allclose(with_overflow(dist), expected, rtol=0, atol=1e-12)
    assert dist.probs.min() >= 0.0 and dist.overflow >= 0.0
    return dist


class TestWindowedPropagation:
    """propagate, carried on the live count window, against the loop-built product within 1e-12."""

    @pytest.fixture(scope="class")
    def chains(self, lamb_chain, earthquake_model, earthquake_counts):
        quake = hp.build_posterior_chain(
            earthquake_model, hp.forward_backward(earthquake_model, earthquake_counts)
        )
        fixtures = [lamb_chain, hp.swap_states(lamb_chain), quake]
        randoms = [random_stay_chain(seed, 30) for seed in range(4)]
        return fixtures, randoms

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_tight_truncation_reaches_overflow(self, chains, name, builder):
        fixtures, randoms = chains
        spec = builder(2)
        for chain in fixtures:
            assert assert_matches_reference(spec, chain).overflow > 0.0
        for chain in randoms:
            assert_matches_reference(spec, chain)

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_moderate_truncation(self, chains, name, builder):
        fixtures, randoms = chains
        spec = builder(12)
        for chain in fixtures + randoms:
            assert_matches_reference(spec, chain)

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_truncation_far_above_support(self, chains, name, builder):
        # no statistic of an n-step path exceeds n, so ell = 4n leaves most
        # imbedded states without mass for the whole sequence
        fixtures, randoms = chains
        n = 30
        spec = builder(4 * n)
        for chain in [prefix(c, n) for c in fixtures] + randoms:
            assert assert_matches_reference(spec, chain).overflow == 0.0

    # template lengths: four entries for jumps and positions, 2k + 4 for exact_run:k
    @pytest.mark.parametrize("name,run_length,template", [
        ("jumps", None, 4), ("positions", None, 4), ("exact_run", 3, 10),
    ])
    def test_the_window_reads_only_the_reachable_blocks(
        self, chains, monkeypatch, name, run_length, template
    ):
        # a path counts at most one more per step, so the block transfer that
        # starts after t steps reads at most counts 0..t + 1 of the window;
        # the whole imbedding has 4n + 1 blocks of the template's entries
        fixtures, randoms = chains
        n = 30
        spec = hp.build_spec(name, 4 * n, run_length)
        assert tiled_entries(spec).shape[1] == template * (4 * n + 1) + 1
        length = math.isqrt(n - 1)
        carry = hp.fmci._carry_dense
        for chain in [prefix(c, n) for c in fixtures] + randoms:
            windows = []

            def counting_carry(source, target, lo, rows, transfer, ell):
                windows.append(rows)
                return carry(source, target, lo, rows, transfer, ell)

            monkeypatch.setattr(hp.fmci, "_carry_dense", counting_carry)
            assert_matches_reference(spec, chain)
            monkeypatch.undo()
            assert len(windows) == -(-(n - 1) // length)
            for block, rows in enumerate(windows):
                assert 1 <= rows <= block * length + 2

    @pytest.mark.parametrize("name,builder", ALL_BUILDERS)
    def test_one_and_two_positions(self, name, builder):
        spec = builder(3)
        for init in ([0.3, 0.7], [1.0, 0.0], [0.0, 1.0]):
            assert_matches_reference(spec, manual_chain(init, [], []))
            for stay1, stay2 in ((0.25, 0.6), (0.0, 1.0), (1.0, 0.0)):
                assert_matches_reference(spec, manual_chain(init, [stay1], [stay2]))


def degenerate_chains(n):
    """Random chains with exact 0 and 1 stays, and chains whose rows all stay, all leave or are uniform."""
    chains = [prefix(random_stay_chain(seed, 120), n) for seed in range(3)]
    for stay1, stay2 in ((1.0, 1.0), (0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (0.0, 1.0)):
        chains.append(manual_chain([0.3, 0.7], np.full(n - 1, stay1), np.full(n - 1, stay2)))
    return chains


class TestBlockedScan:
    """The blocked scan at the edges of its blocks and of its two exact_run forms."""

    # n - 1 steps: none, one, two, perfect squares, squares + 1 and primes,
    # so that the last block is as long as the others or ragged
    @pytest.mark.parametrize("n", [1, 2, 3, 26, 27, 30, 98, 101, 102])
    @pytest.mark.parametrize("statistic,run_length", [
        ("jumps", None), ("runs", None), ("positions", None), ("exact_run", 1), ("exact_run", 3),
    ])
    def test_series_lengths(self, n, statistic, run_length):
        overflowed = False
        for chain in degenerate_chains(n):
            exact = hp.auto_truncation(chain, statistic, run_length)
            spec = hp.build_spec(statistic, exact, run_length)
            assert assert_matches_reference(spec, chain).overflow == 0.0
            for ell in (1, 2):
                dist = assert_matches_reference(hp.build_spec(statistic, ell, run_length), chain)
                overflowed |= dist.overflow > 0.0
        assert overflowed or n < 4

    @pytest.mark.parametrize("n", [30, 107, 402])
    def test_exact_run_around_the_form_switch_and_the_block_length(self, n):
        # a run of length L or L + 1 fills or passes one block of L steps
        length = math.isqrt(n - 1)
        switch = hp.fmci._DENSE_WIDTH_MAX - 1  # the least k whose k + 2 is wider
        assert 1 < switch < n - 1
        for k in sorted({1, 3, switch - 1, switch, length, length + 1, n - 1, n}):
            for chain in degenerate_chains(n):
                exact = hp.auto_truncation(chain, "exact_run", k)
                for ell in sorted({1, exact}):
                    dist = assert_matches_reference(hp.build_spec("exact_run", ell, k), chain)
                    if ell == exact:
                        assert dist.overflow == 0.0

    def test_exact_run_in_count_free_blocks_shorter_than_the_root(self, monkeypatch):
        # blocks are at most _BLOCK_STEPS long, shorter than isqrt(n - 1)
        # from n = 33^2 + 1 on; shorten them here instead, so that the
        # count-free blocks are shorter than both the root and k
        monkeypatch.setattr(hp.fmci, "_BLOCK_STEPS", 4)
        n = 107
        for k in (hp.fmci._DENSE_WIDTH_MAX - 1, 12, 40):
            for chain in degenerate_chains(n):
                exact = hp.auto_truncation(chain, "exact_run", k)
                for ell in sorted({1, exact}):
                    dist = assert_matches_reference(hp.build_spec("exact_run", ell, k), chain)
                    if ell == exact:
                        assert dist.overflow == 0.0

    # n - 1 steps that fill the blocks of each longest-run tier (6, 24 and
    # 96 steps) or leave a ragged last block, at the levels around the tier
    # edges d, 4d and 16d
    @pytest.mark.parametrize("n", [1, 2, 7, 25, 97, 98, 103])
    def test_longest_run_around_the_tier_edges(self, n):
        d = hp.fmci._LONGEST_RUN_BLOCK
        edges = {d - 1, d, d + 1, 4 * d - 1, 4 * d, 16 * d - 1, 16 * d, 16 * d + 1}
        for chain in degenerate_chains(n):
            for ell in sorted(({1, n - 1, n, n + 1} | edges) - {0}):
                assert_matches_reference(hp.build_spec("longest_run", ell), chain)

    def test_longest_run_in_blocks_shorter_than_the_tier(self, monkeypatch):
        # the tiers from 128 on take blocks of _COUNT_FREE_STEPS, shorter
        # than their lowest level; shorten them here instead
        monkeypatch.setattr(hp.fmci, "_COUNT_FREE_STEPS", 10)
        for n in (25, 103):
            for chain in degenerate_chains(n):
                for ell in (23, 24, 60, 97, n):
                    assert_matches_reference(hp.build_spec("longest_run", ell), chain)

    @pytest.mark.parametrize("n", [5000, 10_000])
    def test_blocks_of_at_most_32_steps(self, monkeypatch, n):
        # isqrt(n - 1) is 70 and 99 here, above the cap
        chain = manual_chain([0.3, 0.7], np.full(n - 1, 0.9), np.full(n - 1, 0.8))
        for statistic, run_length, form in [("jumps", None, "_carry_dense"),
                                            ("positions", None, "_carry_dense"),
                                            ("exact_run", 3, "_carry_dense"),
                                            ("exact_run", 100, "_carry_count_free")]:
            carry, carries = getattr(hp.fmci, form), []

            def counting_carry(*args):
                carries.append(args)
                return carry(*args)

            monkeypatch.setattr(hp.fmci, form, counting_carry)
            exact = hp.auto_truncation(chain, statistic, run_length)
            dist = hp.propagate(hp.build_spec(statistic, exact, run_length), chain)
            monkeypatch.undo()
            assert len(carries) == -(-(n - 1) // 32)
            assert dist.overflow == 0.0 and dist.probs.min() >= 0.0
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [120, 4300])
    def test_stays_of_1e_300(self, n):
        # most carried rows fall below _NEGLIGIBLE and leave the window; at
        # n = 4300 the blocks are capped at 32 steps, below isqrt(n - 1)
        count_free = hp.fmci._DENSE_WIDTH_MAX - 1  # the least k whose k + 2 is wider
        statistics = [("jumps", None), ("positions", None), ("exact_run", 3),
                      ("exact_run", count_free)]
        for seed in range(2):
            chain = random_stay_chain(seed, n)
            a, b = hp.stay_probabilities(chain)
            a[(a > 0.0) & (a < 1e-99)] = 1e-300
            b[(b > 0.0) & (b < 1e-99)] = 1e-300
            chain = manual_chain(chain.init, a, b)
            for statistic, run_length in statistics:
                exact = hp.auto_truncation(chain, statistic, run_length)
                for ell in sorted({2, exact}):
                    assert_matches_reference(hp.build_spec(statistic, ell, run_length), chain)

    def test_buffers_that_start_as_nan(self, monkeypatch):
        # every buffer propagate takes from np.empty is written before it is
        # read: the scan's margins and the transfers of each group
        monkeypatch.setattr(hp.fmci, "np", NanNumpy())
        count_free = hp.fmci._DENSE_WIDTH_MAX - 1
        for n in (27, 102):
            for statistic, run_length in [("jumps", None), ("runs", None), ("positions", None),
                                          ("exact_run", 3), ("exact_run", count_free),
                                          ("longest_run", None)]:
                for chain in degenerate_chains(n)[:4]:
                    for ell in (2, hp.auto_truncation(chain, statistic, run_length)):
                        assert_matches_reference(hp.build_spec(statistic, ell, run_length), chain)

    def test_one_block_per_group(self, monkeypatch):
        # every group of blocks reuses the first group's buffers, the ragged
        # last block a part of them
        monkeypatch.setattr(hp.fmci, "_GROUP_BYTES", 0)
        count_free = hp.fmci._DENSE_WIDTH_MAX - 1  # the least k whose k + 2 is wider
        for n in (27, 30):
            for statistic, run_length in [("jumps", None), ("positions", None),
                                          ("exact_run", 2), ("exact_run", count_free),
                                          ("longest_run", None)]:
                for chain in degenerate_chains(n)[:3]:
                    for ell in (2, hp.auto_truncation(chain, statistic, run_length)):
                        assert_matches_reference(hp.build_spec(statistic, ell, run_length), chain)


def reference_block(v, lo, m, ell):
    """(lo, window, overflow) after one dense block: reference_carry, then the scan's trim."""
    v = reference_carry(v, m)
    overflow = v[ell + 1 - lo :].sum() if v.shape[0] > ell + 1 - lo else 0.0
    v = v[: ell + 1 - lo]
    live = np.flatnonzero(v.max(axis=1) > hp.fmci._NEGLIGIBLE)
    if live.size == 0:
        return lo, v[:0], overflow
    return lo + live[0], v[live[0] : live[-1] + 1], overflow


class TestDenseCarry:
    """_carry_dense through two buffers that start as NaN, against reference_carry bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.integers(1, 400),
        width=st.integers(2, 10),
        p=st.integers(2, 70),
        lo=st.sampled_from([0, 1, 57]),
        headroom=st.sampled_from([0, 1, 69, 500]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_reference_carry(self, rows, width, p, lo, headroom, seed):
        # headroom 0: the window ends at count ell; lo 0: it starts at count 0
        rng = np.random.default_rng(seed)
        ell = lo + rows - 1 + headroom
        v = rng.random((rows, width))
        v[rng.random(rows) < 0.2] = 0.0
        v[: rng.integers(0, 3)] *= 1e-40  # negligible rows at either end
        v[rows - rng.integers(0, 3) :] *= 1e-40
        v[rows // 2, 0] = 0.5  # a live row, so that the first trim leaves one
        buffers = np.full((2, ell + 1 - lo + 3 * (p - 1), width), np.nan)
        buffers[:, : p - 1] = 0.0
        source, target = buffers
        source[p - 1 : p - 1 + rows] = v
        source[p - 1 + rows : hp.fmci._read_end(rows, p)] = 0.0
        for _ in range(3):  # the later carries read the margins the trims zeroed
            m = rng.random((width, width, p))
            m[:, :, rng.random(p) < 0.2] = 0.0
            transfer = np.ascontiguousarray(m[:, :, ::-1].transpose(2, 0, 1)).reshape(-1, width)
            expected_lo, expected, expected_overflow = reference_block(v, lo, m, ell)
            lo, rows, overflow = hp.fmci._carry_dense(source, target, lo, rows, transfer, ell)
            v = target[p - 1 : p - 1 + rows]
            assert (lo, rows) == (expected_lo, expected.shape[0])
            assert np.array_equal(v, expected) and overflow == expected_overflow
            if rows == 0:
                break
            source, target = target, source


class TestScanMemory:
    """propagate at n = 10^5 builds its block transfers a group of blocks at a time."""

    @pytest.fixture(scope="class")
    def long_chain(self, earthquake_model):
        _, x = hp.simulate(earthquake_model, 100_000, seed=9_2026)
        return hp.build_posterior_chain(earthquake_model, hp.forward_backward(earthquake_model, x))

    # the count-free response rows of all 316 blocks of exact_run:400 would
    # take 254 MB; its blocks are at most 32 steps, and one group of
    # transfers takes 1 MB.  The carried windows hold only the counts with
    # mass, in two buffers of at most ell + 1 counts each, and the peaks
    # measured 1.9-5.2 MB
    @pytest.mark.parametrize("statistic,truncation,run_length", [
        ("jumps", None, None), ("jumps", 60, None), ("positions", None, None),
        ("exact_run", None, 3), ("exact_run", None, 400),
    ])
    def test_peak(self, long_chain, statistic, truncation, run_length):
        ell = truncation or hp.auto_truncation(long_chain, statistic, run_length)
        spec = hp.build_spec(statistic, ell, run_length)
        tracemalloc.start()
        try:
            dist = hp.propagate(spec, long_chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6
        final = with_overflow(dist)
        assert final.sum() == pytest.approx(1.0, abs=1e-9) and final.min() >= 0.0
        assert (dist.overflow == 0.0) == (truncation is None)

    @pytest.mark.parametrize("statistic,run_length", [
        ("jumps", None), ("runs", None), ("positions", None), ("exact_run", 3), ("exact_run", 40),
    ])
    def test_trimmed_against_the_untrimmed_scan(
        self, long_chain, monkeypatch, statistic, run_length
    ):
        # the rows whose entries are all at most _NEGLIGIBLE leave the window;
        # with a threshold of 0 only the rows without mass do
        spec = hp.build_spec(
            statistic, hp.auto_truncation(long_chain, statistic, run_length), run_length
        )
        trimmed = with_overflow(hp.propagate(spec, long_chain))
        monkeypatch.setattr(hp.fmci, "_NEGLIGIBLE", 0.0)
        untrimmed = with_overflow(hp.propagate(spec, long_chain))
        assert np.abs(trimmed - untrimmed).max() <= 1e-14
        assert trimmed.min() >= 0.0
        assert untrimmed[trimmed == 0.0].max() < 1e-25

    @staticmethod
    def longest_run_peak(chain, ell):
        spec = hp.build_spec("longest_run", ell)
        tracemalloc.start()
        try:
            final = with_overflow(hp.propagate(spec, chain))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert final.sum() == pytest.approx(1.0, abs=1e-9) and final.min() >= 0.0
        return final, peak

    def test_longest_run_peak(self, long_chain):
        # each tier of levels carries its run-length array, one value per
        # level and run length, through transfers built a group of blocks at
        # a time.  The peak measured 2.6 MB at the auto level, 115
        ell = hp.auto_truncation(long_chain, "longest_run")
        final, peak = self.longest_run_peak(long_chain, ell)
        assert peak < 8e6
        assert 0.0 < final[-1] <= hp.fmci.OVERFLOW_TOL

    def test_longest_run_peak_at_the_state_limit(self, earthquake_model):
        # 1413 counts of 30 keep the chain in state 2, so every level up to
        # the CLI's largest, 1412, holds mass; the run-length arrays take
        # 13 MB, and the peak measured 15.9 MB
        x = np.full(1413, 30)
        chain = hp.build_posterior_chain(earthquake_model, hp.forward_backward(earthquake_model, x))
        final, peak = self.longest_run_peak(chain, 1412)
        assert peak < 24e6
        assert final[-2] > 0.5 and final[-1] == 0.0


class TestDenseLongestRun:
    """The longest-run scan against the loop-built product over every entry, within 1e-12."""

    def test_block_zero_emptied_at_the_first_step(self):
        rng = np.random.default_rng(7)
        stay1, stay2 = rng.uniform(size=(2, 11))
        stay1[0] = 0.0  # every path in state 1 opens a run
        dist = assert_matches_reference(
            hp.build_spec("longest_run", 6), manual_chain([0.6, 0.4], stay1, stay2)
        )
        assert dist.probs[0] == 0.0 and dist.probs[1:].sum() + dist.overflow > 0.0

    def test_low_blocks_emptied_by_a_climbing_run(self):
        # every path is in state 2 at position 2 and stays to position 10, so
        # blocks 0..8 empty one by one; random stays follow
        rng = np.random.default_rng(11)
        stay1, stay2 = rng.uniform(size=(2, 24))
        stay1[0], stay2[:9] = 0.0, 1.0
        spec = hp.build_spec("longest_run", 20)
        dist = assert_matches_reference(spec, manual_chain([0.5, 0.5], stay1, stay2))
        assert not dist.probs[:9].any() and dist.probs[9] > 0.0

    def test_one_carry_per_block_and_tier(self, monkeypatch):
        # one run climbs through every level.  The levels below the shortest
        # tier block d are counting statistics on blocks of isqrt(n - 1) = 14
        # steps, each carried until its count-0 window empties: level 0
        # counts the run at once and carries nothing, and the run passes
        # levels 1..d-1 in the first block.  The tiers carry the levels
        # [d, 4d) in blocks of d, [4d, 16d) in blocks of 4d, and so on up to
        # n, above which no run reaches
        counting = CountingNumpy()
        monkeypatch.setattr(hp.fmci, "np", counting)
        ell, n = 300, 200
        spec = hp.build_spec("longest_run", ell)
        dist = hp.propagate(spec, manual_chain([0.0, 1.0], np.ones(n - 1), np.ones(n - 1)))
        monkeypatch.undo()
        assert dist.probs[n] == 1.0 and dist.probs.sum() + dist.overflow == 1.0
        length, lengths = hp.fmci._LONGEST_RUN_BLOCK, []
        while length <= n:
            lengths.append(length)
            length *= 4
        low = hp.fmci._LONGEST_RUN_BLOCK - 1
        assert counting.carries == low + sum(-(-(n - 1) // length) for length in lengths)

    def test_low_levels_over_many_blocks(self):
        # 999 steps make 33 blocks of 31 steps, the last ragged.  P(L <= m)
        # runs from about 1e-307 at level 0 to 0.25 at level 5, so the low
        # levels trim their count-0 window away or keep it to the end
        rng = np.random.default_rng(0)
        n = 1000
        chain = manual_chain([0.5, 0.5], rng.uniform(0.3, 0.7, n - 1), rng.uniform(0.2, 0.5, n - 1))
        ell = hp.fmci._LONGEST_RUN_BLOCK - 1
        final = with_overflow(hp.propagate(hp.build_spec("longest_run", ell), chain))
        exact = reference_longest_run(chain, ell)
        cumulative = np.cumsum(exact[:-1])
        assert cumulative[1] < hp.fmci._NEGLIGIBLE < cumulative[2] and cumulative[-1] > 0.1
        assert np.abs(final - exact).max() < 1e-14
        large = exact > 1e-6
        assert (np.abs(final - exact)[large] / exact[large]).max() < 1e-10

    def test_level_zero_in_closed_form(self):
        # no run at all: state 1 at the start and at every step after
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 200))
            init = rng.uniform()
            stay1 = rng.uniform(0.8, 1.0, n - 1)
            chain = manual_chain([init, 1.0 - init], stay1, rng.uniform(size=n - 1))
            expected = float(init * np.prod(stay1.astype(np.longdouble)))
            assert expected > 1e-20
            for ell in (1, hp.auto_truncation(chain, "longest_run")):
                dist = hp.propagate(hp.build_spec("longest_run", ell), chain)
                assert dist.probs[0] == pytest.approx(expected, rel=1e-14, abs=0)

    def test_propagation_memory_at_the_state_limit(self):
        # the CLI's largest level; no level above n = 3 holds a run, so the
        # scan carries levels 0..3 only
        spec = hp.build_spec("longest_run", 1412)
        chain = manual_chain([0.4, 0.6], [0.3, 0.8], [0.7, 0.9])
        tracemalloc.start()
        try:
            dist = hp.propagate(spec, chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dist.probs.sum() + dist.overflow == pytest.approx(1.0)
        assert peak < 56e6

    def test_all_mass_in_the_last_block(self):
        # a run of length ell puts every path in block ell; the state-1 sums
        # of its many rows must still add in the spec's order
        rng = np.random.default_rng(3)
        ell = 12
        stay1, stay2 = rng.uniform(0.2, 0.9, size=(2, ell + 40))
        stay2[: ell - 1] = 1.0
        spec = hp.build_spec("longest_run", ell)
        dist = assert_matches_reference(spec, manual_chain([0.0, 1.0], stay1, stay2))
        assert not dist.probs[:ell].any()

    @pytest.mark.parametrize("ell", [1, 2, 5])
    def test_record_into_the_overflow_on_the_last_step(self, ell):
        # a run longer than ell needs ell + 1 positions, so the overflow
        # fills at the last step only
        rng = np.random.default_rng(ell)
        stay1 = rng.uniform(size=ell)
        chain = manual_chain([0.3, 0.7], stay1, np.full(ell, 0.9))
        spec = hp.build_spec("longest_run", ell)
        assert assert_matches_reference(spec, prefix(chain, ell)).overflow == 0.0
        assert assert_matches_reference(spec, chain).overflow == pytest.approx(0.7 * 0.9**ell)

    @pytest.mark.parametrize("n", [1, 2, 3, 30])
    def test_levels_from_one_to_above_the_series_length(self, n):
        chains = [random_stay_chain(seed, 30) for seed in range(4)]
        for ell in sorted({1, 2, max(n - 1, 1), n, n + 5}):
            spec = hp.build_spec("longest_run", ell)
            for chain in chains:
                assert_matches_reference(spec, prefix(chain, n))

    def test_rounding_against_extended_precision(self, earthquake_model):
        # the recurrence stepped in np.longdouble.  The error measured
        # 2.1e-15 here, and 4.0e-15 / 1.4e-14 at n = 3*10^4 / 10^5.  On the
        # probabilities above 1e-6 the relative error measured 1.4e-12;
        # differences of P(L <= m) alone, without K above 1/2, gave 1.9e-9
        _, x = hp.simulate(earthquake_model, 3000, seed=2)
        chain = hp.build_posterior_chain(earthquake_model, hp.forward_backward(earthquake_model, x))
        ell = hp.auto_truncation(chain, "longest_run")
        assert ell >= 16 * hp.fmci._LONGEST_RUN_BLOCK  # every tier of the scan holds levels
        final = with_overflow(hp.propagate(hp.build_spec("longest_run", ell), chain))
        exact = reference_longest_run(chain, ell)
        assert final.min() >= 0.0
        assert np.abs(final - exact).max() < 1e-14
        large = exact > 1e-6
        assert (np.abs(final - exact)[large] / exact[large]).max() < 1e-10

    def test_earthquake_series_at_its_auto_level(self, earthquake_model):
        _, x = hp.simulate(earthquake_model, 2000, seed=5)
        chain = hp.build_posterior_chain(earthquake_model, hp.forward_backward(earthquake_model, x))
        ell = hp.auto_truncation(chain, "longest_run")
        dist = assert_matches_reference(hp.build_spec("longest_run", ell), chain)
        assert 0.0 < dist.overflow <= hp.fmci.OVERFLOW_TOL


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
        assert dist.probs[11:].sum() + dist.overflow > 0.15

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
