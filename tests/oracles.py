"""Brute-force oracles for small instances.

Everything here is computed by exhaustive enumeration of the K^n state paths
with emission probabilities from scipy.stats, independently of the package's
scaled recursions, so the tests compare two genuinely distinct computations.
The exceptions are plain loops that pin a fast kernel:
`reference_forward_backward`, the scaled recursions one position at a time,
which pins the blocked scan to within 1e-12; and, bit for bit,
`reference_decode`, the decoding recursion one alpha and one step at a time,
which pins the batched kernel's tie-breaking; the `reference_build_*`
functions, one Python loop per FMCI imbedding, which list every entry of
its step matrix and pin the state space of `build_spec` for the counting
statistics, and
`reference_propagate`, the FMCI product over all those entries, which
together pin the blocked scans of every statistic; `reference_carry`, one
dense block of the counting scan as a product of a zero-padded copy of the
window, which pins the in-place carry bit for bit; `reference_longest_run`,
the longest-run recurrence one step at a time in extended precision, which
bounds the rounding error of the longest-run scan;
`reference_simulate` and
`reference_sample_posterior_paths`, one step per position, which pin the
simulated and sampled paths; and the `reference_write_*` functions,
`csv.writer` loops that pin the bytes of every output file.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np
from scipy.stats import poisson

import hmmposterior as hp
from hmmposterior.fmci import _A, _B, _NA, _NB
from hmmposterior.model import as_counts
from hmmposterior.seeding import substream_seed

_ONE = 4  # the overflow's self-loop


def random_model(rng, num_states=2, rate_low=0.2, rate_high=8.0):
    pi = rng.dirichlet(np.ones(num_states))
    gamma = np.stack([rng.dirichlet(np.ones(num_states)) for _ in range(num_states)])
    rates = rng.uniform(rate_low, rate_high, size=num_states)
    return hp.validate_model(hp.HmmModel(pi=pi, gamma=gamma, rates=rates))


def random_instance(rng, num_states=2, n_low=2, n_high=12):
    n = int(rng.integers(n_low, n_high + 1))
    model = random_model(rng, num_states)
    _, x = hp.simulate(model, n, seed=int(rng.integers(1 << 31)))
    return model, x


def all_paths(num_states: int, n: int) -> np.ndarray:
    return np.array(
        list(itertools.product(range(1, num_states + 1), repeat=n)), dtype=np.int64
    )


def enumerate_posterior(model, x):
    """(paths, log_joint per path, posterior weight per path, loglik)."""
    x = np.asarray(x)
    n = x.size
    lem = poisson.logpmf(x[:, None], model.rates[None, :])
    with np.errstate(divide="ignore"):
        lpi = np.log(model.pi)
        lg = np.log(model.gamma)
    paths = all_paths(model.num_states, n)
    idx = paths - 1
    logj = lpi[idx[:, 0]] + lem[0, idx[:, 0]]
    for t in range(1, n):
        logj = logj + lg[idx[:, t - 1], idx[:, t]] + lem[t, idx[:, t]]
    top = logj.max()
    w = np.exp(logj - top)
    total = w.sum()
    return paths, logj, w / total, float(np.log(total) + top)


def oracle_marginals(paths, weights, num_states):
    n = paths.shape[1]
    out = np.zeros((n, num_states))
    for j in range(1, num_states + 1):
        out[:, j - 1] = ((paths == j) * weights[:, None]).sum(axis=0)
    return out


def run_lengths(path) -> list[int]:
    out, cur = [], 0
    for v in path:
        if v == 2:
            cur += 1
        elif cur:
            out.append(cur)
            cur = 0
    if cur:
        out.append(cur)
    return out


def statistic_value(path, statistic, run_length=None) -> int:
    if statistic == "jumps":
        return sum(1 for a, b in zip(path[:-1], path[1:]) if a == 1 and b == 2)
    if statistic == "runs":
        return len(run_lengths(path))
    if statistic == "positions":
        return int((np.asarray(path) == 2).sum())
    if statistic == "longest_run":
        return max(run_lengths(path), default=0)
    if statistic == "exact_run":
        return sum(1 for r in run_lengths(path) if r == run_length)
    raise ValueError(statistic)


def oracle_distribution(paths, weights, statistic, truncation, run_length=None):
    """probs[v] for v = 0..truncation plus overflow in the last slot."""
    probs = np.zeros(truncation + 2)
    for p, w in zip(paths, weights):
        v = statistic_value(p, statistic, run_length)
        probs[min(v, truncation + 1)] += w
    return probs


def total_variation(a, b) -> float:
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def hybrid_score_components(tables, paths, logj):
    """Pointwise log sums and conditional log probs of every enumerated path."""
    marg = hp.posterior_marginals(tables)
    with np.errstate(divide="ignore"):
        lm = np.log(marg)
    idx = paths - 1
    pw = lm[np.arange(paths.shape[1])[None, :], idx].sum(axis=1)
    return pw, logj - tables.loglik


def best_hybrid_objective(pw, cond, alpha) -> float:
    """max over paths of the hybrid criterion, zero coefficients dropped."""
    if alpha == 0.0:
        h = pw
    elif alpha == 1.0:
        h = cond
    else:
        h = (1 - alpha) * pw + alpha * cond
    return float(np.max(h))


def reference_decode(log_pi, log_gamma, log_em, log_marg, alphas) -> np.ndarray:
    """(len(alphas), n) 0-based decoding paths, one alpha and one step at a time.

    The decoding recursion written plainly with `np.argmax`: zero-coefficient
    terms dropped, scores shifted by their maximum each step, and
    hp.ImpossibleSequenceError once every score of some alpha is -inf.
    """
    n, k = log_em.shape
    paths = np.empty((len(alphas), n), dtype=np.int64)
    for r, alpha in enumerate(alphas):
        if alpha == 0.0:
            start, trans, local = np.zeros(k), np.zeros((k, k)), log_marg
        elif alpha == 1.0:
            start, trans, local = log_pi, log_gamma, log_em
        else:
            start, trans = alpha * log_pi, alpha * log_gamma
            local = alpha * log_em + (1.0 - alpha) * log_marg
        delta = start + local[0]
        back = np.zeros((n, k), dtype=np.int64)
        for t in range(n):
            if t > 0:
                cand = delta[:, None] + trans
                back[t] = np.argmax(cand, axis=0)
                delta = cand.max(axis=0) + local[t]
            top = delta.max()
            if top == -np.inf:
                raise hp.ImpossibleSequenceError("every state path has probability zero")
            delta = delta - top
        s = int(np.argmax(delta))
        for t in range(n - 1, -1, -1):
            paths[r, t] = s
            s = back[t, s]
    return paths


def reference_forward_backward(model, x) -> hp.FBTables:
    """The scaled forward-backward recursions, one step per position.

    Emission probabilities are max-shifted per position before
    exponentiation, so the recursion never over- or underflows as long as
    the per-step likelihood is representable; the log normalizers absorb
    the shift exactly.
    """
    x = as_counts(x)
    n = x.size
    k = model.num_states
    log_em = model.log_emissions(x)
    shift = log_em.max(axis=1)
    if not np.isfinite(shift).all():
        t = int(np.argmax(~np.isfinite(shift)))
        raise hp.ImpossibleObservationError(
            f"count {x[t]} at position {t + 1} has zero emission probability in every state"
        )
    em = np.exp(log_em - shift[:, None])  # entries in (0, 1]

    fwd = np.empty((n, k))
    bwd = np.empty((n, k))
    log_scale = np.empty(n)
    gamma = model.gamma

    f = model.pi * em[0]
    c = f.sum()
    if c <= 0.0:
        raise hp.ImpossibleObservationError(
            f"no state the initial distribution allows can emit count {x[0]} at position 1"
        )
    fwd[0] = f / c
    log_scale[0] = np.log(c) + shift[0]
    for t in range(1, n):
        f = (fwd[t - 1] @ gamma) * em[t]
        c = f.sum()
        if c <= 0.0:
            raise hp.ImpossibleObservationError(
                f"count {x[t]} at position {t + 1} has zero emission probability "
                "under every reachable state"
            )
        fwd[t] = f / c
        log_scale[t] = np.log(c) + shift[t]

    # backward pass against the same shifted emissions: the shift cancels in
    # the division by the shifted normalizer
    bwd[n - 1] = 1.0
    for t in range(n - 2, -1, -1):
        c_next = np.exp(log_scale[t + 1] - shift[t + 1])
        bwd[t] = (gamma @ (em[t + 1] * bwd[t + 1])) / c_next

    for a in (fwd, bwd, log_scale, log_em):
        a.flags.writeable = False
    return hp.FBTables(
        fwd_scaled=fwd,
        bwd_scaled=bwd,
        loglik=float(log_scale.sum()),
        log_emissions=log_em,
        log_scale=log_scale,
    )


def reference_simulate(model, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(states, counts) with one searchsorted per position."""
    rng = np.random.default_rng(seed)
    k = model.num_states
    cum_pi = np.cumsum(model.pi)
    cum_gamma = np.cumsum(model.gamma, axis=1)
    u = rng.random(n)
    states = np.empty(n, dtype=np.int64)
    s = min(int(np.searchsorted(cum_pi, u[0], side="right")), k - 1)
    states[0] = s
    for t in range(1, n):
        s = min(int(np.searchsorted(cum_gamma[s], u[t], side="right")), k - 1)
        states[t] = s
    counts = rng.poisson(model.rates[states])
    return states + 1, counts.astype(np.int64)


def reference_sample_posterior_paths(chain, m: int, seed: int) -> np.ndarray:
    """(m, n) int64 paths, every path's n uniforms drawn first, one step per position."""
    n, k = chain.n, chain.num_states
    u = np.empty((m, n))
    for i in range(m):
        u[i] = np.random.default_rng(substream_seed(seed, i)).random(n)

    cum_init = np.cumsum(chain.init)
    paths = np.empty((m, n), dtype=np.int64)
    s = np.minimum(np.searchsorted(cum_init, u[:, 0], side="right"), k - 1)
    paths[:, 0] = s
    if n > 1:
        cum_trans = np.cumsum(chain.trans, axis=2)
        for t in range(1, n):
            rows = cum_trans[t - 1][s]  # (m, K)
            s = np.minimum((u[:, t][:, None] > rows).sum(axis=1), k - 1)
            paths[:, t] = s
    return paths + 1


def reference_propagate(spec, chain) -> np.ndarray:
    """Final imbedded vector of a ReferenceSpec, one product over all its entries per step."""
    a, b = hp.stay_probabilities(chain)
    v = spec.initial_vector(chain.init[0], chain.init[1])
    rows, cols, kinds = spec.rows, spec.cols, spec.kinds
    size = spec.size
    coef = np.empty(5)
    coef[_ONE] = 1.0
    for t in range(a.size):
        coef[_A] = a[t]
        coef[_NA] = 1.0 - a[t]
        coef[_B] = b[t]
        coef[_NB] = 1.0 - b[t]
        v = np.bincount(cols, weights=v[rows] * coef[kinds], minlength=size)
    return v


def reference_carry(v, m) -> np.ndarray:
    """v'[c, j] = sum_i sum_d v[c - d, i] M[i, j, d] for the counts c of v and the P - 1 above.

    m is M[i, j, d], d < P.  Row c is the window of the P counts that reach
    count c, v[c - P + 1 .. c] of a zero-padded copy of v, which is one run
    of P * W values of the flat padded array, times M with its degrees
    reversed.  Grouped by c mod P, the windows of a group start P * W values
    apart, so each group is a strided matrix that the product reads in place.
    """
    width, p = m.shape[1], m.shape[2]
    rows = v.shape[0] + p - 1
    groups = -(-rows // p)
    padded = np.zeros((groups * p + p - 1) * width)
    padded[(p - 1) * width : (p - 1) * width + v.size] = v.ravel()
    windows = np.lib.stride_tricks.sliding_window_view(padded, p * width)[::width]
    windows = windows.reshape(groups, p, p * width).transpose(1, 0, 2)
    carried = windows @ m[:, :, ::-1].transpose(2, 0, 1).reshape(p * width, width)
    return carried.transpose(1, 0, 2).reshape(-1, width)[:rows]


def reference_longest_run(chain, truncation: int) -> np.ndarray:
    """P(L = m) for m = 0..truncation, then P(L > truncation), one step at a time in np.longdouble.

    Every level m carries the mass whose runs never passed m: state1[m] in
    state 1 and runs[m, r] in a run of length r, while removed[m] sums the
    mass of the runs that reach m + 1.  P(L <= m) is state1[m] plus the row
    sum of runs, and the distribution is its differences, taken in extended
    precision.
    """
    a, b = hp.stay_probabilities(chain)
    ell, ld = truncation, np.longdouble
    state1 = np.full(ell + 1, chain.init[0], dtype=ld)
    runs = np.zeros((ell + 1, ell + 2), dtype=ld)
    removed = np.zeros(ell + 1, dtype=ld)
    passed = np.arange(ell + 1), np.arange(1, ell + 2)  # level m's run of length m + 1
    runs[1:, 1] = chain.init[1]
    removed[0] = chain.init[1]  # a run of length 1 passes level 0
    for t in range(a.size):
        at, bt = ld(a[t]), ld(b[t])
        ends = runs.sum(axis=1) * (1 - bt)
        runs[:, 2:] = runs[:, 1:-1] * bt
        runs[:, 1] = state1 * (1 - at)
        state1 = state1 * at + ends
        removed += runs[passed]
        runs[passed] = 0.0
    cumulative = state1 + runs.sum(axis=1)
    return np.append(np.diff(cumulative, prepend=ld(0.0)), removed[-1])


@dataclass(frozen=True)
class ReferenceSpec:
    """A loop-built FMCI imbedding: the fields of ImbeddingSpec plus its step matrix.

    rows/cols/kinds list the entries of the step matrix: entry
    (rows[e], cols[e]) holds a, 1-a, b, 1-b or 1 according to kinds[e].
    """

    statistic: str
    truncation: int
    size: int
    run_length: int | None
    eta_slots: tuple[int, int]
    values: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    kinds: np.ndarray

    def initial_vector(self, eta1: float, eta2: float) -> np.ndarray:
        v = np.zeros(self.size)
        v[self.eta_slots[0]] += eta1
        v[self.eta_slots[1]] += eta2
        return v


def _reference_spec(statistic, truncation, size, run_length, eta_slots, values, entries):
    rows, cols, kinds = np.array(entries, dtype=np.int64).T
    values = np.asarray(values, dtype=np.int64)
    assert values.size == size
    return ReferenceSpec(statistic, truncation, size, run_length, eta_slots, values,
                         rows, cols, kinds)


def reference_build_spec(statistic: str, truncation: int, run_length: int | None = None):
    """The loop-built imbedding for a statistic, named as in build_spec."""
    if statistic in ("jumps", "runs"):
        return reference_build_jump_chain(truncation, statistic)
    if statistic == "positions":
        return reference_build_positions_chain(truncation)
    if statistic == "exact_run":
        return reference_build_exact_run_chain(run_length, truncation)
    if statistic == "longest_run":
        return reference_build_longest_run_chain(truncation)
    raise ValueError(f"unknown statistic {statistic!r}")


def reference_build_jump_chain(truncation: int, mode: str = "jumps") -> ReferenceSpec:
    """Imbedding for the number of 1 -> 2 jumps, or of state-2 runs.

    States come in (count, current-state) pairs: index 2c is (c, in state 2),
    index 2c+1 is (c, in state 1), for c = 0..truncation, plus an absorbing
    overflow state; 2*truncation + 3 states in total.  In "jumps" mode a
    start in state 2 counts zero, in "runs" mode it opens a run and counts
    one.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    if mode not in ("jumps", "runs"):
        raise ValueError(f"mode must be 'jumps' or 'runs', got {mode!r}")
    ell = truncation
    size = 2 * ell + 3
    overflow = size - 1
    entries = []
    values = np.empty(size, dtype=np.int64)
    for c in range(ell + 1):
        in2, in1 = 2 * c, 2 * c + 1
        values[in2] = values[in1] = c
        entries.append((in2, in2, _B))
        entries.append((in2, in1, _NB))
        entries.append((in1, in1, _A))
        entries.append((in1, 2 * (c + 1) if c < ell else overflow, _NA))
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    eta_slots = (1, 0) if mode == "jumps" else (1, 2)
    return _reference_spec(mode, ell, size, None, eta_slots, values, entries)


def reference_build_positions_chain(truncation: int) -> ReferenceSpec:
    """Imbedding for the total number of positions in state 2.

    Index 0 is (0 positions, in state 1); for c = 1..truncation index 2c-1 is
    (c, in state 2) and index 2c is (c, in state 1); the last of the
    2*truncation + 2 states absorbs counts beyond the truncation.  Entering
    or remaining in state 2 increments the count.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    ell = truncation
    size = 2 * ell + 2
    overflow = size - 1
    entries = [(0, 0, _A), (0, 1, _NA)]
    values = np.empty(size, dtype=np.int64)
    values[0] = 0
    for c in range(1, ell + 1):
        in2, in1 = 2 * c - 1, 2 * c
        values[in2] = values[in1] = c
        entries.append((in2, 2 * c + 1 if c < ell else overflow, _B))
        entries.append((in2, in1, _NB))
        entries.append((in1, in1, _A))
        entries.append((in1, 2 * c + 1 if c < ell else overflow, _NA))
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    return _reference_spec("positions", ell, size, None, (0, 1), values, entries)


def reference_build_exact_run_chain(run_length: int, truncation: int) -> ReferenceSpec:
    """Imbedding for the count of state-2 runs of exactly `run_length`.

    Block m tracks "m completed runs of the target length" with run_length+2
    situations: an overshoot state (current run already longer than the
    target), the in-state-1 state, and one state per in-progress run length
    1..run_length.  Finishing a run at exactly the target length moves to the
    next block; extending it past the target moves to the overshoot state.
    The final vector is read with the open run at the sequence end included:
    ending in the "run length == target" state counts one more run.
    """
    if run_length < 1:
        raise ValueError("run length must be at least 1")
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    k, ell = run_length, truncation
    width = k + 2
    size = (ell + 1) * width + 1
    overflow = size - 1
    entries = []
    values = np.empty(size, dtype=np.int64)
    for m in range(ell + 1):
        base = m * width
        values[base : base + width] = m
        values[base + k + 1] = min(m + 1, ell + 1)  # open run of exactly k at the end
        entries.append((base, base, _B))  # overshoot keeps running
        entries.append((base, base + 1, _NB))  # overlong run ends, not counted
        entries.append((base + 1, base + 1, _A))
        entries.append((base + 1, base + 2, _NA))  # a new run starts
        for j in range(2, k + 1):  # run of length j-1 < k
            entries.append((base + j, base + j + 1, _B))
            entries.append((base + j, base + 1, _NB))  # ends short, not counted
        done = base + width + 1 if m < ell else overflow
        entries.append((base + k + 1, base, _B))  # grows past k: overshoot
        entries.append((base + k + 1, done, _NB))  # completed at exactly k
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    return _reference_spec("exact_run", ell, size, k, (1, 2), values, entries)


def reference_build_longest_run_chain(truncation: int) -> ReferenceSpec:
    """Imbedding for the longest state-2 run.

    Block m means "longest run so far is m".  Block 0 is the single state
    "never entered state 2"; block m >= 1 holds the in-progress run lengths
    1..m followed by an in-state-1 state.  A run reaching length m+1 enters
    block m+1 (or the overflow state beyond the truncation); shorter runs
    move within their block.
    """
    if truncation < 1:
        raise ValueError("truncation must be at least 1")
    ell = truncation
    bases = np.empty(ell + 1, dtype=np.int64)
    bases[0] = 0
    off = 1
    for m in range(1, ell + 1):
        bases[m] = off
        off += m + 1
    size = off + 1
    overflow = size - 1
    entries = [(0, 0, _A), (0, bases[1], _NA)]
    values = np.empty(size, dtype=np.int64)
    values[0] = 0
    for m in range(1, ell + 1):
        base = bases[m]
        state1 = base + m
        values[base : base + m + 1] = m
        entries.append((state1, state1, _A))
        entries.append((state1, base, _NA))  # new run of length 1
        for r in range(1, m):
            entries.append((base + r - 1, base + r, _B))
            entries.append((base + r - 1, state1, _NB))
        longer = bases[m + 1] + m if m < ell else overflow
        entries.append((base + m - 1, longer, _B))  # record length m+1
        entries.append((base + m - 1, state1, _NB))
    values[overflow] = ell + 1
    entries.append((overflow, overflow, _ONE))
    return _reference_spec("longest_run", ell, size, None, (0, 1), values, entries)


def _fmt(v) -> str:
    return f"{float(v):.12g}"


def _open_writer(path):
    return open(path, "w", newline="")


def reference_write_counts(path, counts) -> None:
    with _open_writer(path) as fh:
        fh.write("count\n")
        fh.writelines(f"{int(v)}\n" for v in counts)


def reference_write_states(path, states) -> None:
    with _open_writer(path) as fh:
        fh.write("state\n")
        fh.writelines(f"{int(v)}\n" for v in states)


def reference_write_decode_csv(path, x, posterior, viterbi_path, hybrid, hybrid_marginal) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t", "observation", "posterior_state", "viterbi_state", "hybrid_state",
             "marginal_prob_of_hybrid_state"]
        )
        for t in range(len(x)):
            w.writerow(
                [t + 1, int(x[t]), int(posterior[t]), int(viterbi_path[t]),
                 int(hybrid[t]), _fmt(hybrid_marginal[t])]
            )


def reference_write_distribution_csv(path, dist) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["value", "probability"])
        for v, p in zip(dist.support, dist.probs):
            w.writerow([int(v), _fmt(p)])
        w.writerow([f">={dist.truncation + 1}", _fmt(dist.overflow)])


def reference_write_samples_csv(path, paths) -> None:
    paths = np.asarray(paths)
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow([f"t_{t + 1}" for t in range(paths.shape[1])])
        for row in paths:
            w.writerow([int(v) for v in row])


def reference_write_frequency_csv(path, frequencies, marginals) -> None:
    frequencies = np.asarray(frequencies)
    marginals = np.asarray(marginals)
    k = frequencies.shape[1]
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(
            ["t"]
            + [f"frequency_state_{j + 1}" for j in range(k)]
            + [f"marginal_state_{j + 1}" for j in range(k)]
        )
        for t in range(frequencies.shape[0]):
            w.writerow(
                [t + 1]
                + [_fmt(v) for v in frequencies[t]]
                + [_fmt(v) for v in marginals[t]]
            )


def reference_write_stay_csv(path, stays: tuple[np.ndarray, np.ndarray]) -> None:
    a, b = stays
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["t", "a", "b"])
        for i in range(a.size):
            w.writerow([i + 2, _fmt(a[i]), _fmt(b[i])])


def reference_write_curve_csv(path, curve) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "accuracy", "log_joint", "scaled_accuracy", "scaled_log_joint"])
        for i in range(curve.alphas.size):
            w.writerow(
                [_fmt(curve.alphas[i]), _fmt(curve.accuracy[i]), _fmt(curve.log_joint[i]),
                 _fmt(curve.scaled_accuracy[i]), _fmt(curve.scaled_log_joint[i])]
            )


def reference_write_study_csv(path, report) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["replicate", "optimal_alpha", "status"])
        for r, (value, label) in enumerate(zip(report.optimal_alphas, report.labels)):
            w.writerow([r + 1, "" if value is None else _fmt(value), label])
        w.writerow(["average", _fmt(report.average), ""])
        w.writerow(["std", _fmt(report.std), ""])


def reference_write_blockwise_csv(path, rows) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["block_size", "method", "mean_accuracy", "mean_accuracy_minus_posterior"])
        for row in rows:
            w.writerow(
                [row.block_size, row.method, _fmt(row.mean_accuracy),
                 _fmt(row.mean_accuracy_minus_posterior)]
            )


def reference_write_run_counts_csv(path, counts) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["k", "expected_count", "lower_bound_flag"])
        for i in range(counts.run_lengths.size):
            w.writerow(
                [int(counts.run_lengths[i]), _fmt(counts.expected[i]),
                 int(counts.lower_bound[i])]
            )
