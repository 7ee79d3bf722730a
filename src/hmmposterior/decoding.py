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
elementwise maximum of K contiguous rows of alpha values.  Its back-pointer
is the lowest source index whose candidate equals that maximum, which is the
first-maximum rule of `argmax`; every score is the same sum of the same two
operands at any batch size, so a batch decodes each alpha exactly as a
single-alpha call does.

Back-tracking follows the stored back-pointers, which are integer maps from
a state at t to the best state at t - 1.  Rather than one step per position,
the slots are cut into blocks of L = isqrt(n - 1), each block's maps are
composed in place toward its end state, the block-end states are chained
from the last block down, and each position is then read off its block in
one gather.  Composing integer maps is exact, and the scores are untouched:
the max-plus recursion still runs one position at a time and sums exactly
as before, so the paths are bit-identical to stepwise back-tracking.
"""

from __future__ import annotations

import math
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
    transitions (K_src, K_dst, A), local terms (chunk, K, A) and
    back-pointers (n, K, A) int8.  A reduction over states is then an
    elementwise operation on K contiguous rows of A values rather than A
    short inner loops over K.  The back-pointer is the number of leading
    source rows whose candidate differs from the reduced maximum.  The
    maximum is exactly one of the candidates (max rounds nothing), so that
    count is the lowest source index attaining it, which is what `argmax`
    returns: ties break toward the lowest state index, bit for bit.
    Local terms are built 512 positions at a time, which bounds the working
    set beside the back-pointers and the result.

    The paths are read back in O(sqrt(n)) vectorized calls (see the module
    docstring), with L = isqrt(n - 1): L - 1 gathers compose each block's
    maps, one per in-block step across all blocks; n / L small gathers
    chain the block ends; L gathers fill in every position's state; and one
    copy moves those states into the paths.  Both the maps and the states
    are stored over the back-pointers, so beside them and the paths the
    back-tracking holds only an (n / L, K, A) index while composing and the
    (n / L, A) block ends while filling.
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

    back = np.empty((n, k, num_alpha), dtype=np.int8)
    cand = np.empty((k, k, num_alpha))
    spread = delta[:, None, :]
    # below[i] becomes 1 where rows 0..i all differ from the maximum, and
    # back[t] is its sum; the last row needs no test, as some row attains it
    head = cand[: k - 1]
    below = np.empty((k - 1, k, num_alpha), dtype=np.int8)
    chain = [(below[i], below[i - 1]) for i in range(1, k - 1)]
    chunk = 512
    for lo in range(1, n, chunk):
        hi = min(lo + chunk, n)
        # an all-impossible column turns NaN under the shift (-inf - -inf),
        # quietly; it is caught once per chunk
        with np.errstate(invalid="ignore"):
            for bt, extra in zip(back[lo:hi], local_terms(lo, hi)):
                np.add(spread, w_trans, out=cand)
                np.maximum.reduce(cand, axis=0, out=delta)
                np.not_equal(head, delta, out=below)
                for row, prev in chain:
                    row &= prev
                np.add.reduce(below, axis=0, out=bt)
                delta += extra
                np.maximum.reduce(delta, axis=0, out=top)
                delta -= top
        if np.isnan(delta).any():
            raise ImpossibleSequenceError("every state path has probability zero")

    return _back_track(back, np.argmax(delta, axis=0))


def _back_track(back: np.ndarray, last: np.ndarray) -> np.ndarray:
    """(A, n) int8 paths from (n, K, A) back-pointers and the (A,) last states.

    back[t, j, a] is the state at t - 1 before state j at t; back[0] is
    unused, and back is overwritten.  Slots 1..n-1 fall into blocks of L;
    block b holds slots 1 + b*L .. (b+1)*L, and the last block may be short.
    """
    n, k, num_alpha = back.shape
    paths = np.empty((num_alpha, n), dtype=np.int8)
    paths[:, n - 1] = last
    if n == 1:
        return paths
    length = math.isqrt(n - 1)
    kxa = k * num_alpha
    flat = back.reshape(-1)
    # flat[base[b, a] + i*K*A + j*A] is back[1 + b*L + i, j, a]
    base = (1 + length * np.arange(-(-(n - 1) // length)))[:, None] * kxa + np.arange(num_alpha)
    _compose_blocks(back, base, length)
    # Stitch: the end state of each block, from the last block back
    ends = np.empty(base.shape, dtype=np.intp)
    ends[-1] = last
    cols = np.arange(num_alpha)
    for b in range(base.shape[0] - 1, 0, -1):
        ends[b - 1] = back[1 + b * length][ends[b], cols]
    # Fill: the state before each slot at in-block offset i, one gather
    # across the blocks, stored over the slot's first row; the rows are then
    # copied out time-major, which writes the paths far faster than strided
    # gathers straight into them
    ends *= num_alpha
    ends += base
    for i in range(length):
        states = back[1 + i::length, 0]
        np.take(flat[i * kxa:], ends[:states.shape[0]], out=states)
    paths[:, :n - 1] = back[1:, 0].T
    return paths


def _compose_blocks(back: np.ndarray, base: np.ndarray, length: int) -> None:
    """Compose each block's back-pointer maps toward the block's end, in place.

    Afterwards slot 1 + b*L + i of back maps the state at the end of block b
    to the state before that slot.  One gather per in-block step serves every
    block; its index buffer is gone before the caller fills the paths.
    """
    num_alpha = back.shape[2]
    kxa = back.shape[1] * num_alpha
    flat = back.reshape(-1)
    index = np.empty((base.shape[0],) + back.shape[1:], dtype=np.intp)
    for i in range(length - 2, -1, -1):
        later = back[i + 2::length]
        here = index[:later.shape[0]]
        np.multiply(later, num_alpha, out=here, dtype=np.intp)
        here += base[:later.shape[0], None, :]
        np.take(flat[i * kxa:], here, out=back[i + 1::length][:later.shape[0]])


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
