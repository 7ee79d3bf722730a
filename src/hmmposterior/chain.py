"""The hidden chain conditional on the data, and posterior path sampling.

Conditional on the observed sequence, the hidden chain is an inhomogeneous
first-order Markov chain: its initial distribution is the first posterior
marginal and its step-t transition matrix is

    P(y_t = j | y_{t-1} = i, x)
        = beta_t(j) * gamma[i, j] * phi(x_t | j) / beta_{t-1}(i).

Everything here is computed from the scaled tables, where the identity reads
``bwd_scaled[t, j] * gamma[i, j] * phi(x_t | j) / (bwd_scaled[t-1, i] * c_t)``
so the scale factors cancel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import FBTables, HmmModel, _follow_maps, _label_dtype
from .seeding import substream_seed

__all__ = [
    "PosteriorChain",
    "TwoStateRequiredError",
    "build_posterior_chain",
    "stay_probabilities",
    "swap_states",
    "sample_posterior_paths",
]


class TwoStateRequiredError(ValueError):
    """An operation defined only for two hidden states got K != 2."""


@dataclass(frozen=True)
class PosteriorChain:
    """Inhomogeneous Markov chain of the hidden states given the data.

    init      : length-K vector, init[i] = P(y_1 = i+1 | x).
    trans     : (n-1, K, K) array, trans[t-2, i, j] = P(y_t = j+1 | y_{t-1} = i+1, x)
                for t = 2..n.
    uniform_rows : (t, state) pairs (1-based) whose conditional row was
                undefined because the state is unreachable under the
                posterior; those rows were filled uniformly and carry no
                posterior mass.
    """

    init: np.ndarray
    trans: np.ndarray
    uniform_rows: tuple[tuple[int, int], ...] = field(default=())

    @property
    def n(self) -> int:
        return self.trans.shape[0] + 1

    @property
    def num_states(self) -> int:
        return self.init.size


def _transition_tensor(
    model: HmmModel, tables: FBTables
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    k = tables.num_states
    log_em = tables.log_emissions
    shift = log_em[1:].max(axis=1)
    em = np.exp(log_em[1:] - shift[:, None])  # (n-1, K)
    c_shifted = np.exp(tables.log_scale[1:] - shift)  # (n-1,)

    weighted = em * tables.bwd_scaled[1:]  # (n-1, K): beta_t(j) phi(x_t|j), shifted
    num = model.gamma[None, :, :] * weighted[:, None, :]
    denom = tables.bwd_scaled[:-1] * c_shifted[:, None]  # (n-1, K)

    marked: list[tuple[int, int]] = []
    dead = denom <= 0.0
    if dead.any():
        for t_idx, i in np.argwhere(dead):
            marked.append((int(t_idx) + 2, int(i) + 1))
        denom = np.where(dead, 1.0, denom)
    trans = num / denom[:, :, None]
    if marked:
        for t, i in marked:
            trans[t - 2, i - 1, :] = 1.0 / k
    # absorb rounding so each row is exactly stochastic
    trans /= trans.sum(axis=2, keepdims=True)
    return trans, marked


def build_posterior_chain(model: HmmModel, tables: FBTables) -> PosteriorChain:
    """Assemble the conditional initial vector and all transition matrices.

    The initial vector is the first posterior marginal.  The full
    (n-1, K, K) tensor is materialized; at two or three states this stays
    modest even for sequences of length 10^6.
    """
    init = tables.fwd_scaled[0] * tables.bwd_scaled[0]
    if tables.n == 1:
        trans = np.empty((0, tables.num_states, tables.num_states))
        marked: list[tuple[int, int]] = []
    else:
        trans, marked = _transition_tensor(model, tables)
    init.flags.writeable = False
    trans.flags.writeable = False
    return PosteriorChain(init=init, trans=trans, uniform_rows=tuple(marked))


def stay_probabilities(chain: PosteriorChain) -> tuple[np.ndarray, np.ndarray]:
    """The staying-probability series (a, b) of a two-state chain.

    a[t-2] = P(y_t = 1 | y_{t-1} = 1, x) and b[t-2] = P(y_t = 2 | y_{t-1} = 2, x)
    for t = 2..n; both are views of the chain's transition tensor.
    """
    if chain.num_states != 2:
        raise TwoStateRequiredError(
            "stay probabilities and pattern imbeddings are derived for exactly "
            f"2 hidden states; the chain has {chain.num_states}.  Collapsing a larger "
            "model to two labels is not supported because the collapsed process "
            "need not be Markov."
        )
    return chain.trans[:, 0, 0], chain.trans[:, 1, 1]


def swap_states(chain: PosteriorChain) -> PosteriorChain:
    """Relabel the two states of a chain (state 1 <-> state 2).

    Lets pattern statistics target either state without rebuilding anything.
    """
    if chain.num_states != 2:
        raise TwoStateRequiredError("state swapping is defined for 2 hidden states")
    marked = tuple((t, 3 - i) for t, i in chain.uniform_rows)
    return PosteriorChain(
        init=chain.init[::-1].copy(),
        trans=chain.trans[:, ::-1, ::-1].copy(),
        uniform_rows=marked,
    )


_SAMPLE_UNIFORMS = 2**16  # per chunk of positions: bounds its uniforms and next-state tables
_SAMPLE_PATHS = 256  # paths drawn together: a chunk draws 256 or more uniforms per path


def sample_posterior_paths(chain: PosteriorChain, m: int, seed: int) -> np.ndarray:
    """Draw m hidden paths from the posterior chain.

    Returns an (m, n) array of 1-based state labels in the smallest signed
    integer type that holds K (int8 for K <= 127).  Path i uses its own
    generator seeded with ``substream_seed(seed, i)``, so path i is identical
    no matter how many paths are requested, and paths can be generated in
    parallel.

    The paths are drawn a chunk of positions at a time, so the call needs
    about m*n bytes for the result plus one chunk: at most 2^16 float64
    uniforms and a next-state table of K entries per uniform.
    """
    if m < 1:
        raise ValueError("number of paths must be at least 1")
    n, k = chain.n, chain.num_states
    paths = np.empty((m, n), dtype=_label_dtype(k))
    cum_init = np.cumsum(chain.init)
    for first in range(0, m, _SAMPLE_PATHS):
        block = paths[first:first + _SAMPLE_PATHS]
        width = block.shape[0]
        gens = [np.random.default_rng(substream_seed(seed, first + i)) for i in range(width)]
        span = min(n, _SAMPLE_UNIFORMS // width)
        u = np.empty((width, span))
        for lo in range(0, n, span):
            hi = min(lo + span, n)
            # consecutive draws continue each path's stream, so the chunks
            # see the same uniforms as one draw of n per path
            for g, row in zip(gens, u[:, :hi - lo]):
                g.random(out=row)
            skip = 0
            if lo == 0:  # position 0 is drawn from init, not by a step
                first_states = np.searchsorted(cum_init, u[:, 0], side="right")
                np.minimum(first_states, k - 1, out=first_states)
                block[:, 0] = first_states + 1
                skip = 1
            # maps[t, i, p]: the state path p moves to from state i at
            # lo + skip + t.  The cumulative rows never decrease, so the
            # count of their first K-1 entries below u equals the count of
            # all K capped at K-1.
            rows = np.cumsum(chain.trans[lo + skip - 1:hi - 1], axis=2)
            draws = u[:, skip:hi - lo].T.copy()  # time-major, as the maps
            maps = np.zeros((hi - lo - skip, k, width), dtype=paths.dtype)
            for j in range(k - 1):
                maps += draws[:, None, :] > rows[:, :, j, None]
            _follow_maps(maps, block[:, lo + skip - 1] - 1, maps[:, 0])
            np.add(maps[:, 0].T, 1, out=block[:, lo + skip:hi])
    return paths
