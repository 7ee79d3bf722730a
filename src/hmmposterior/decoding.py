"""Posterior, Viterbi, and hybrid decoding of the hidden state sequence.

Hybrid decoding maximizes

    h(u) = (1 - alpha) * sum_t log P(y_t = u_t | x) + alpha * log P(y = u | x)

over state paths u, interpolating between Posterior decoding (alpha = 0)
and Viterbi (alpha = 1).  A single dynamic program handles every alpha; the
score table is filled with

    d_1(j) = alpha * log(phi(x_1|j) pi_j) + (1 - alpha) * log P(y_1 = j | x)
    d_t(j) = max_i { d_{t-1}(i) + alpha * log(phi(x_t|j) gamma[i, j]) }
             + (1 - alpha) * log P(y_t = j | x)

and the path recovered by back-tracking.  Terms whose coefficient is exactly
zero are dropped before evaluation, so 0 * log 0 never arises and the
endpoint cases reproduce Posterior decoding and Viterbi exactly, including
tie handling (ties always break toward the lowest state index).  Viterbi is
implemented as the alpha = 1 instance of the same kernel, which makes
endpoint path equality bit-exact rather than merely numerical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FBTables, HmmModel, as_counts, log_joint, posterior_marginals

__all__ = [
    "DecodeResult",
    "ImpossibleSequenceError",
    "posterior_decode",
    "viterbi",
    "hybrid_paths",
    "hybrid_decode",
]


class ImpossibleSequenceError(ValueError):
    """Every state path has probability zero for the observed sequence."""


@dataclass(frozen=True)
class DecodeResult:
    """A decoded path with its score decomposition.

    objective = (1 - alpha) * pointwise_log_sum + alpha * (log_joint - loglik),
    the hybrid criterion h evaluated at the returned path.
    """

    path: np.ndarray
    alpha: float
    objective: float
    log_joint: float
    pointwise_log_sum: float


def posterior_decode(marginals: np.ndarray) -> np.ndarray:
    """Per-position argmax of the posterior marginals, 1-based."""
    marginals = np.asarray(marginals)
    if marginals.ndim != 2:
        raise ValueError("marginals must be an n x K matrix")
    return np.argmax(marginals, axis=1) + 1


def _renormalize(delta: np.ndarray) -> None:
    top = delta.max(axis=1)
    if np.isneginf(top).any():
        raise ImpossibleSequenceError("every state path has probability zero")
    delta -= top[:, None]


def _decode_paths(
    log_pi: np.ndarray,
    log_gamma: np.ndarray,
    log_em: np.ndarray,
    log_marg: np.ndarray,
    alphas: np.ndarray,
) -> np.ndarray:
    """Run the decoding recursion for a batch of alpha values at once.

    Returns (len(alphas), n) 0-based paths.  The score rows are shifted by
    their running maximum each step; the shift cancels in every comparison
    and keeps the table well-scaled for arbitrarily long sequences.
    """
    alphas = np.asarray(alphas, dtype=float)
    n, k = log_em.shape
    if k > 127:
        raise ValueError("decoding supports at most 127 states")
    num_alpha = alphas.size
    a_col = alphas[:, None]
    one_minus_a = 1.0 - a_col
    is_zero = alphas == 0.0
    is_one = alphas == 1.0
    has_zero = bool(is_zero.any())
    has_one = bool(is_one.any())

    def local_terms(lo: int, hi: int) -> np.ndarray:
        # (hi-lo, A, K) array of alpha*log_em + (1-alpha)*log_marg; the
        # exact-endpoint rows are overwritten so 0 * (-inf) never survives
        with np.errstate(invalid="ignore"):
            block = alphas[None, :, None] * log_em[lo:hi, None, :]
            block += one_minus_a[None, :, :] * log_marg[lo:hi, None, :]
            if has_zero:
                block[:, is_zero, :] = log_marg[lo:hi, None, :]
            if has_one:
                block[:, is_one, :] = log_em[lo:hi, None, :]
        return block

    with np.errstate(invalid="ignore"):
        w_trans = alphas[:, None, None] * log_gamma[None, :, :]
        if has_zero:
            w_trans[is_zero] = 0.0
        delta = a_col * log_pi[None, :]
        if has_zero:
            delta[is_zero] = 0.0
    delta = delta + local_terms(0, 1)[0]
    _renormalize(delta)

    back = np.empty((n, num_alpha, k), dtype=np.int8)
    cand = np.empty((num_alpha, k, k))
    arg = np.empty((num_alpha, k), dtype=np.intp)
    top = np.empty(num_alpha)
    chunk = 4096
    for lo in range(1, n, chunk):
        hi = min(lo + chunk, n)
        extra = local_terms(lo, hi)
        for t in range(lo, hi):
            np.add(delta[:, :, None], w_trans, out=cand)
            np.argmax(cand, axis=1, out=arg)
            back[t] = arg
            np.maximum.reduce(cand, axis=1, out=delta)
            delta += extra[t - lo]
            np.maximum.reduce(delta, axis=1, out=top)
            delta -= top[:, None]
        # an all-impossible row turns NaN under the shift; catch per chunk
        if np.isnan(delta).any():
            raise ImpossibleSequenceError("every state path has probability zero")

    paths = np.empty((num_alpha, n), dtype=np.int64)
    s = np.argmax(delta, axis=1)
    paths[:, n - 1] = s
    rows = np.arange(num_alpha)
    for t in range(n - 1, 0, -1):
        s = back[t, rows, s].astype(np.int64)
        paths[:, t - 1] = s
    return paths


def _log_model_terms(model: HmmModel) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore"):
        return np.log(model.pi), np.log(model.gamma)


def viterbi(model: HmmModel, x) -> np.ndarray:
    """The 1-based path maximizing P(y, x), computed in log space."""
    x = as_counts(x)
    log_em = model.log_emissions(x)
    log_pi, log_gamma = _log_model_terms(model)
    paths = _decode_paths(log_pi, log_gamma, log_em, np.zeros_like(log_em), np.array([1.0]))
    return paths[0] + 1


def hybrid_paths(model: HmmModel, tables: FBTables, alphas) -> np.ndarray:
    """Hybrid paths for a whole batch of alpha values, one kernel pass.

    Returns (len(alphas), n) 1-based paths; tables are shared across the
    batch, so a 257-point sweep costs one recursion, not 257.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if not ((alphas >= 0.0) & (alphas <= 1.0)).all():
        raise ValueError("alpha values must lie in [0, 1]")
    log_pi, log_gamma = _log_model_terms(model)
    with np.errstate(divide="ignore"):
        log_marg = np.log(posterior_marginals(tables))
    return _decode_paths(log_pi, log_gamma, tables.log_emissions, log_marg, alphas) + 1


def _combine(alpha: float, pointwise: float, conditional: float) -> float:
    # zero-coefficient terms are dropped so 0 * (-inf) never evaluates
    total = 0.0
    if alpha < 1.0:
        total += (1.0 - alpha) * pointwise
    if alpha > 0.0:
        total += alpha * conditional
    return float(total)


def _pointwise_log_sum(tables: FBTables, paths: np.ndarray) -> np.ndarray:
    # sum_t log P(y_t = s_t | x) for each row of an (m, n) array of 1-based paths
    marg = posterior_marginals(tables)
    with np.errstate(divide="ignore"):
        picked = np.log(marg[np.arange(paths.shape[1]), paths - 1])
    return picked.sum(axis=1)


def hybrid_decode(model: HmmModel, tables: FBTables, x, alpha: float) -> DecodeResult:
    """Decode with the hybrid criterion at one alpha.

    x must be the observation sequence the tables were computed from.
    """
    x = as_counts(x)
    if x.size != tables.n:
        raise ValueError("observation sequence does not match the tables")
    paths = hybrid_paths(model, tables, [alpha])
    pointwise = float(_pointwise_log_sum(tables, paths)[0])
    lj = float(log_joint(model, paths, x, log_emissions=tables.log_emissions)[0])
    return DecodeResult(
        path=paths[0],
        alpha=float(alpha),
        objective=_combine(alpha, pointwise, lj - tables.loglik),
        log_joint=lj,
        pointwise_log_sum=pointwise,
    )
