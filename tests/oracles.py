"""Brute-force oracles for small instances.

Everything here is computed by exhaustive enumeration of the K^n state paths
with emission probabilities from scipy.stats, independently of the package's
scaled recursions, so the tests compare two genuinely distinct computations.
The one exception is `reference_decode`, a plain per-alpha, per-step loop of
the decoding recursion that pins the batched kernel's tie-breaking bit for
bit.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.stats import poisson

import hmmposterior as hp


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
