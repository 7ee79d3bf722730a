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

The kernel advances every alpha of a batch together in a state-major layout
(states first, alpha last), so each maximum over source states is an
elementwise maximum of K contiguous rows of alpha values.  The loop over
positions runs only the max-plus recursion, five numpy calls per position:
it keeps each step's candidates and reduced maxima in chunk buffers, and
the back-pointers of a whole chunk are then taken in one vectorized pass
over those very candidates.  A back-pointer is the lowest source index
whose candidate equals the maximum, which is the first-maximum rule of
`argmax`.  Every score is the same sum of the same two operands at any
batch size and chunk length, so a batch decodes each alpha exactly as a
single-alpha call does.

Back-tracking follows the stored back-pointers, which are integer maps from
a state at t to the best state at t - 1; they are stored last slot first,
so the path is read backwards by the walker `model._follow_maps`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FBTables, HmmModel, _follow_maps, as_counts, log_joint, posterior_marginals

__all__ = [
    "DecodeResult",
    "ImpossibleSequenceError",
    "posterior_decode",
    "viterbi",
    "hybrid_paths",
    "hybrid_decode",
]


# candidates (positions x source states x states x alphas) that one chunk of
# the decoding recursion keeps for its back-pointer pass
_CHUNK_ENTRIES = 2**16


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


def _decode_paths(
    log_pi: np.ndarray,
    log_gamma: np.ndarray,
    log_em: np.ndarray,
    log_marg: np.ndarray,
    alphas: np.ndarray,
) -> np.ndarray:
    """Run the decoding recursion for a batch of alpha values at once.

    Returns (len(alphas), n) 0-based paths as int8, one byte per position
    and alpha; int8 holds every label of the at most 127 states the kernel
    accepts.  The score rows are shifted by their running maximum each
    step; the shift cancels in every comparison and keeps the table
    well-scaled for arbitrarily long sequences.

    Every array is state-major with alpha last: scores (K, A), weighted
    transitions (K_src, K_dst, A), the chunk's candidates (chunk, K_src,
    K_dst, A), maxima and local terms (chunk, K, A), and back-pointers
    (n - 1, K, A) int8.  A reduction over states is then an elementwise
    operation on K contiguous rows of A values rather than A short inner
    loops over K.  The back-pointers are stored in walk order, row r for
    slot n - 1 - r, each chunk writing its slots through a reversed view.

    The positions run in chunks of c = max(1, min(512, 2^16 // (K^2 * A)))
    (`_CHUNK_ENTRIES`), so the candidate buffer holds at most 2^16 entries
    (512 KB) unless one step's K^2 * A candidates exceed that.  Per position
    the loop issues the recursion alone: add the weighted transitions to the
    score row into the step's slot of the candidates, reduce the maximum
    over sources into its slot of the maxima, add the local term, reduce
    the maximum over states, and subtract it.  An all-impossible column
    turns NaN under that shift, and is caught once per chunk.  After the
    chunk, `_back_pointers` takes every step's back-pointer: the number of
    leading source rows whose candidate differs from the stored maximum.
    The maximum is exactly one of the very candidates it was reduced from
    (max rounds nothing), so that count is the lowest source index
    attaining it, which is what `argmax` returns: ties break toward the
    lowest state index, bit for bit.

    The paths are read back in O(sqrt(n)) vectorized calls by
    `_follow_maps`, whose maps and states are stored over the
    back-pointers, and one copy moves those states into the paths.
    """
    alphas = np.asarray(alphas, dtype=float)
    n, k = log_em.shape
    if k > 127:
        raise ValueError("decoding supports at most 127 states")
    num_alpha = alphas.size
    one_minus_a = 1.0 - alphas
    is_zero = alphas == 0.0
    is_one = alphas == 1.0
    has_zero = bool(is_zero.any())
    has_one = bool(is_one.any())

    def local_terms(lo: int, hi: int) -> np.ndarray:
        # (hi-lo, K, A) array of alpha*log_em + (1-alpha)*log_marg; the
        # exact-endpoint columns are overwritten so 0 * (-inf) never survives
        with np.errstate(invalid="ignore"):
            block = alphas * log_em[lo:hi, :, None]
            block += one_minus_a * log_marg[lo:hi, :, None]
            if has_zero:
                block[:, :, is_zero] = log_marg[lo:hi, :, None]
            if has_one:
                block[:, :, is_one] = log_em[lo:hi, :, None]
        return block

    with np.errstate(invalid="ignore"):
        w_trans = alphas * log_gamma[:, :, None]
        if has_zero:
            w_trans[:, :, is_zero] = 0.0
        delta = alphas * log_pi[:, None]
        if has_zero:
            delta[:, is_zero] = 0.0
    delta += local_terms(0, 1)[0]
    top = delta.max(axis=0)
    if np.isneginf(top).any():
        raise ImpossibleSequenceError("every state path has probability zero")
    delta -= top

    back = np.empty((n - 1, k, num_alpha), dtype=np.int8)
    chunk = _chunk_length(k, num_alpha)
    cands = np.empty((chunk, k, k, num_alpha))
    maxima = np.empty((chunk, k, num_alpha))
    differs, below = (np.empty((chunk, k, num_alpha), dtype=bool) for _ in range(2))
    spread = delta[:, None, :]
    for lo in range(1, n, chunk):
        hi = min(lo + chunk, n)
        steps = hi - lo
        # an all-impossible column turns NaN under the shift (-inf - -inf),
        # quietly; it is caught once per chunk
        with np.errstate(invalid="ignore"):
            for cand, best, extra in zip(cands, maxima, local_terms(lo, hi)):
                np.add(spread, w_trans, out=cand)
                np.maximum.reduce(cand, axis=0, out=best)
                np.add(best, extra, out=delta)
                np.maximum.reduce(delta, axis=0, out=top)
                delta -= top
        if np.isnan(delta).any():
            raise ImpossibleSequenceError("every state path has probability zero")
        _back_pointers(cands[:steps], maxima[:steps], back[n - hi:n - lo][::-1],
                       differs[:steps], below[:steps])
    del cands, maxima, differs, below  # not held through the back-tracking

    return _back_track(back, np.argmax(delta, axis=0))


def _chunk_length(k: int, num_alpha: int) -> int:
    """Positions per chunk of the decoding recursion for K states and A alphas."""
    return max(1, min(512, _CHUNK_ENTRIES // (k * k * num_alpha)))


def _back_pointers(cands, maxima, back, differs, below) -> None:
    """Back-pointers of one chunk, from the candidates its maxima reduced.

    cands[s] (K_src, K_dst, A) holds step s's candidates and maxima[s]
    (K_dst, A) their maximum over sources; back[s, j, a] becomes the number
    of leading source rows i whose candidate cands[s, i, j, a] differs from
    maxima[s, j, a], one source row at a time over the whole chunk.  The
    last row needs no test, as some row attains the maximum.
    """
    back[...] = 0
    for i in range(cands.shape[1] - 1):
        if i == 0:
            np.not_equal(cands[:, 0], maxima, out=below)
        else:
            np.not_equal(cands[:, i], maxima, out=differs)
            below &= differs
        back += below


def _back_track(back: np.ndarray, last: np.ndarray) -> np.ndarray:
    """(A, n) int8 paths from (n - 1, K, A) back-pointers and the (A,) last states.

    back[r, j, a] is the state at n - 2 - r before state j at n - 1 - r, the
    walk order of `_follow_maps`; back is overwritten.
    """
    steps, _, num_alpha = back.shape
    paths = np.empty((num_alpha, steps + 1), dtype=np.int8)
    paths[:, steps] = last
    states = back[:, 0]
    _follow_maps(back, last, states)
    paths[:, :steps] = states[::-1].T
    return paths


def _check_alphas(alphas) -> np.ndarray:
    """alphas as a 1-d float array; ValueError unless each lies in [0, 1]."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if not ((alphas >= 0.0) & (alphas <= 1.0)).all():
        raise ValueError("alpha values must lie in [0, 1]")
    return alphas


def _log_model_terms(model: HmmModel) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(divide="ignore"):
        return np.log(model.pi), np.log(model.gamma)


def viterbi(model: HmmModel, x) -> np.ndarray:
    """The 1-based path maximizing P(y, x), computed in log space.

    Labels are int8, like those of `hybrid_paths`.
    """
    x = as_counts(x)
    log_em = model.log_emissions(x)
    log_pi, log_gamma = _log_model_terms(model)
    paths = _decode_paths(log_pi, log_gamma, log_em, np.zeros_like(log_em), np.array([1.0]))
    return paths[0] + 1


def hybrid_paths(model: HmmModel, tables: FBTables, alphas) -> np.ndarray:
    """Hybrid paths for a whole batch of alpha values, one kernel pass.

    Returns (len(alphas), n) 1-based int8 labels, n bytes per alpha; tables
    are shared across the batch, so a 257-point sweep costs one recursion,
    not 257.  int8 arithmetic wraps: widen a path before scaling it.
    """
    alphas = _check_alphas(alphas)
    log_pi, log_gamma = _log_model_terms(model)
    with np.errstate(divide="ignore"):
        log_marg = np.log(posterior_marginals(tables))
    paths = _decode_paths(log_pi, log_gamma, tables.log_emissions, log_marg, alphas)
    paths += 1
    return paths


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
