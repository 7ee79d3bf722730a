"""Poisson hidden Markov model and the scaled forward-backward tables.

A model is the triple (initial distribution, transition matrix, per-state
Poisson rates).  Hidden states are labelled 1..K in every public interface;
internal array storage is 0-based.  All posterior quantities in the rest of
the package are derived from the :class:`FBTables` produced here, which hold
the per-step normalized forward and backward tables together with the
normalizing constants, so that posterior ratios can be formed without any
exp/log round trips in inner loops.

:func:`forward_backward` computes the tables by a blocked scan (Hassan,
Sarkka & Garcia-Fernandez, "Temporal parallelization of inference in hidden
Markov models", IEEE TSP 2021) rather than one Python step per position.
Positions 2..n are cut into blocks of L = ceil(sqrt(n - 1)) positions, and
three passes cover them:

1. every block's K x K transfer matrix, in L batched steps, with each row
   rescaled at every step and its log scale kept, so nothing underflows;
2. the forward vector at the start of each block, from the previous block's
   start and transfer, in one small log-space step per block;
3. all blocks again from those starts, in L batched steps of the scaled
   recursion itself, which write the forward table and its normalizers.

The backward table repeats passes 2 and 3 from the end of the sequence with
the same transfers and the forward normalizers.  L depends on n alone.
Inside a block each table row is the sequential recursion's own step; only
the start vectors come from the stitch.  Against one step per position the
marginals and the log normalizers agree within 1e-12 absolute and the
log-likelihood within 1e-12 relative; most of the difference is the
sequential loop's own rounding drift in the backward scale, which the
stitch accumulates over sqrt(n) steps rather than n.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HmmModel",
    "FBTables",
    "ModelValidationError",
    "ImpossibleObservationError",
    "BackwardOverflowError",
    "RenormalizationWarning",
    "as_counts",
    "as_states",
    "validate_model",
    "simulate",
    "forward_backward",
    "posterior_marginals",
    "log_joint",
]


class ModelValidationError(ValueError):
    """Model parameters violate a probability invariant."""


class ImpossibleObservationError(ValueError):
    """An observation has zero emission probability under every state."""


class BackwardOverflowError(ValueError):
    """The scaled backward table left the floating-point range.

    It happens when a state the chain cannot reach for a long stretch is the
    one the counts favour, so that its backward value grows past 1e308.
    """


class RenormalizationWarning(UserWarning):
    """A probability vector was rescaled to sum to one during validation."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class HmmModel:
    """A K-state hidden Markov chain with Poisson emissions.

    pi     : initial state distribution, length K.
    gamma  : K x K row-stochastic transition matrix.
    rates  : Poisson emission rate of each hidden state, length K.

    Instances are immutable and safe to share across threads.  Construction
    only checks shapes; :func:`validate_model` enforces the probability
    invariants.
    """

    pi: np.ndarray
    gamma: np.ndarray
    rates: np.ndarray

    def __post_init__(self) -> None:
        pi = _frozen(self.pi)
        gamma = _frozen(self.gamma)
        rates = _frozen(self.rates)
        if pi.ndim != 1 or pi.size < 1:
            raise ModelValidationError("pi must be a non-empty vector")
        k = pi.size
        if gamma.shape != (k, k):
            raise ModelValidationError(
                f"gamma must be {k}x{k} to match pi, got {gamma.shape}"
            )
        if rates.shape != (k,):
            raise ModelValidationError(
                f"rates must have length {k} to match pi, got {rates.shape}"
            )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "rates", rates)

    @property
    def num_states(self) -> int:
        return self.pi.size

    def log_emissions(self, counts: np.ndarray) -> np.ndarray:
        """n x K matrix of log Poisson pmf values; column j is state j+1.

        log x! is computed once for each distinct count.
        """
        x = as_counts(counts).astype(float)
        values, inverse = np.unique(x, return_inverse=True)
        log_factorial = np.array([math.lgamma(v + 1.0) for v in values.tolist()])[inverse]
        lam = self.rates
        return x[:, None] * np.log(lam)[None, :] - lam[None, :] - log_factorial[:, None]


def _as_int64(arr: np.ndarray, what: str) -> np.ndarray:
    # NaN, infinities and floats beyond the int64 range are rejected before
    # the cast, which would turn them into garbage with a RuntimeWarning
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64, copy=False)
    if arr.dtype.kind in "fc" and not (np.abs(arr) < 2.0**63).all():
        raise ValueError(f"{what} must be integers")
    cast = arr.astype(np.int64)
    if not np.array_equal(cast, arr):
        raise ValueError(f"{what} must be integers")
    return cast


def as_counts(x) -> np.ndarray:
    """Coerce an observation sequence to a 1-d array of non-negative ints."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("observation sequence must be a non-empty 1-d array")
    arr = _as_int64(arr, "observation counts")
    if (arr < 0).any():
        bad = int(np.argmax(arr < 0))
        raise ValueError(f"negative count {arr[bad]} at position {bad + 1}")
    return arr.astype(np.int64)


def as_states(s, num_states: int) -> np.ndarray:
    """Coerce a state sequence to a 1-d array of labels in 1..num_states.

    Integer labels keep their dtype, so an int8 path is neither widened nor
    copied; any other input is cast to int64 after the checks of
    `as_counts`.
    """
    arr = np.asarray(s)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("state sequence must be a non-empty 1-d array")
    if arr.dtype.kind not in "iu":
        arr = _as_int64(arr, "state labels")
    if arr.min() < 1 or arr.max() > num_states:
        raise ValueError(f"state labels must lie in 1..{num_states}")
    return arr


def validate_model(
    model: HmmModel, tolerance: float = 1e-9, renormalize: bool = False
) -> HmmModel:
    """Check the probability invariants of a model.

    Returns the model unchanged when pi and every gamma row sum to one
    within `tolerance` and all entries are finite and admissible.  With
    `renormalize`, vectors whose sums deviate by at most `tolerance` are
    rescaled to sum to exactly one (a :class:`RenormalizationWarning`
    reports which ones); deviations beyond `tolerance` are always an error.
    """
    pi, gamma, rates = model.pi, model.gamma, model.rates
    for name, values in (("pi", pi), ("gamma", gamma), ("rates", rates)):
        if not np.isfinite(values).all():
            raise ModelValidationError(f"{name} has a non-finite entry: {values.tolist()}")
    if (pi < 0).any():
        i = int(np.argmax(pi < 0))
        raise ModelValidationError(f"pi[{i + 1}] = {pi[i]} is negative")
    if (gamma < 0).any():
        i, j = np.argwhere(gamma < 0)[0]
        raise ModelValidationError(f"gamma[{i + 1}][{j + 1}] = {gamma[i, j]} is negative")
    if (rates <= 0).any():
        i = int(np.argmax(rates <= 0))
        raise ModelValidationError(f"rate for state {i + 1} is {rates[i]}, must be > 0")

    pi_sum = pi.sum()
    row_sums = gamma.sum(axis=1)
    # the 1e-12 slack keeps sums sitting exactly on the tolerance boundary
    # (up to float rounding) on the accepted side
    if abs(pi_sum - 1.0) > tolerance + 1e-12:
        raise ModelValidationError(
            f"pi sums to {pi_sum}, deviating from 1 by more than {tolerance}"
        )
    for i, s in enumerate(row_sums):
        if abs(s - 1.0) > tolerance + 1e-12:
            raise ModelValidationError(
                f"gamma row {i + 1} sums to {s}, deviating from 1 by more than {tolerance}"
            )

    if not renormalize:
        return model

    changed = []
    if abs(pi_sum - 1.0) > 1e-12:
        changed.append(f"pi (sum {pi_sum:.6g})")
    for i, s in enumerate(row_sums):
        if abs(s - 1.0) > 1e-12:
            changed.append(f"gamma row {i + 1} (sum {s:.6g})")
    if not changed:
        return model
    warnings.warn(
        "renormalized to sum to 1: " + ", ".join(changed),
        RenormalizationWarning,
        stacklevel=2,
    )
    return HmmModel(pi=pi / pi_sum, gamma=gamma / row_sums[:, None], rates=rates)


def simulate(model: HmmModel, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a hidden path and observation sequence of length n.

    Returns (states, counts) with states labelled 1..K.  The first hidden
    state follows pi, subsequent ones the gamma row of their predecessor,
    and each count is Poisson with the rate of its hidden state.  Equal
    (model, n, seed) give bit-identical output.
    """
    if n < 1:
        raise ValueError("sequence length must be at least 1")
    rng = np.random.default_rng(seed)
    k = model.num_states
    cum_pi = np.cumsum(model.pi)
    cum_gamma = np.cumsum(model.gamma, axis=1)
    u = rng.random(n)
    # nxt[i][t]: the state a step from state i moves to on the uniform u[t]
    nxt = [np.minimum(np.searchsorted(row, u, side="right"), k - 1).tolist()
           for row in cum_gamma]
    s = min(int(np.searchsorted(cum_pi, u[0], side="right")), k - 1)
    path = [s]
    for t in range(1, n):
        s = nxt[s][t]
        path.append(s)
    states = np.array(path, dtype=np.int64)
    counts = rng.poisson(model.rates[states])
    return states + 1, counts.astype(np.int64)


@dataclass(frozen=True)
class FBTables:
    """Scaled forward and backward tables for one observation sequence.

    fwd_scaled[t] sums to one; the normalizers satisfy
    ``alpha_t(j) = fwd_scaled[t, j] * exp(sum(log_scale[:t+1]))`` and
    ``beta_t(j) = bwd_scaled[t, j] * exp(sum(log_scale[t+1:]))`` for the
    unscaled forward/backward probabilities.  ``loglik`` is log P(x) =
    sum(log_scale).

    log_emissions and log_scale are carried along so downstream posterior
    algebra (conditional transition matrices, decoding scores) can be formed
    exactly without recomputing emission terms.
    """

    fwd_scaled: np.ndarray
    bwd_scaled: np.ndarray
    loglik: float
    log_emissions: np.ndarray
    log_scale: np.ndarray

    @property
    def n(self) -> int:
        return self.fwd_scaled.shape[0]

    @property
    def num_states(self) -> int:
        return self.fwd_scaled.shape[1]


def _rescale(v: np.ndarray) -> np.ndarray:
    """Divide each row of v (its last axis) by its sum in place; return log sums.

    A zero row stays zero and gets log sum -inf, without a warning.
    """
    s = v.sum(axis=-1)
    live = s > 0.0
    v /= np.where(live, s, 1.0)[..., None]
    return np.log(s, out=np.full_like(s, -np.inf), where=live)


def _transfers(gamma: np.ndarray, em_blocks: np.ndarray, last: int):
    """Every block's product of step matrices gamma * diag(em_t), row-scaled.

    Returns (P, top, scale): the rows of P[b] sum to one (or are zero), each
    rescaled at every step; top[j, b] is the largest log row scale of step
    j of block b (0 where every row is zero), and scale[b, i] sums row i's
    log scales less top over the steps, so the product is
    diag(exp(scale[b] + top[:, b].sum())) @ P[b].  Only the first `last`
    steps of the last block are positions; its padding steps are skipped
    and add 0.
    """
    nblocks, length, k = em_blocks.shape
    P = np.tile(np.eye(k), (nblocks, 1, 1))
    top = np.zeros((length, nblocks))
    scale = np.zeros((nblocks, k))
    for j in range(length):
        live = nblocks - (j >= last)
        step = (P[:live].reshape(-1, k) @ gamma).reshape(live, k, k)
        step *= em_blocks[:live, j, None, :]
        log_r = _rescale(step)
        peak = log_r.max(axis=1)
        top[j, :live] = np.where(peak == -np.inf, 0.0, peak)
        scale[:live] += log_r - top[j, :live, None]
        P[:live] = step
    return P, top, scale


def forward_backward(model: HmmModel, x) -> FBTables:
    """Scaled forward and backward tables for counts x, by a blocked scan.

    Emission probabilities are max-shifted per position before
    exponentiation, so the tables never over- or underflow as long as the
    per-step likelihood is representable; the log normalizers absorb the
    shift exactly.

    The recursions are those of one step per position,
    f_t = (f_{t-1} gamma) * em_t / c_t and b_{t-1} = gamma (em_t * b_t) / c_t,
    run block by block as the module docstring describes: positions 2..n in
    blocks of L = ceil(sqrt(n - 1)), three batched passes of L steps (the
    transfers, the forward table, the backward table) and two stitches of
    one small step per block.  The results agree with the sequential
    recursion within 1e-12 (absolute for the marginals and log_scale,
    relative for loglik), and an impossible count is reported at the same
    position with the same message.
    """
    x = as_counts(x)
    n = x.size
    k = model.num_states
    log_em = model.log_emissions(x)
    shift = log_em.max(axis=1)
    if not np.isfinite(shift).all():
        t = int(np.argmax(~np.isfinite(shift)))
        raise ImpossibleObservationError(
            f"count {x[t]} at position {t + 1} has zero emission probability in every state"
        )
    gamma = model.gamma
    length = math.isqrt(n - 2) + 1 if n > 1 else 1  # ceil(sqrt(n - 1))
    nblocks = -(-(n - 1) // length)
    last = n - 1 - (nblocks - 1) * length  # positions in the last block
    # position 1 + b * length + j (0-based) is step j of block b; the rows
    # past n pad the last block and are never read
    padded = 1 + nblocks * length
    em = np.ones((padded, k))
    np.exp(np.subtract(log_em, shift[:, None], out=em[:n]), out=em[:n])  # in [0, 1]
    em_blocks = em[1:].reshape(nblocks, length, k)

    # the arrays the result keeps are made before the scratch arrays, so
    # that freeing those on return leaves no holes below them in the heap
    fwd = np.empty((padded, k))
    bwd = np.empty((padded, k))
    log_scale = np.empty(n)
    log_c = np.zeros(padded)
    fwd[0] = model.pi * em[0]
    log_c[0] = _rescale(fwd[0])
    if log_c[0] == -np.inf:
        raise ImpossibleObservationError(
            f"no state the initial distribution allows can emit count {x[0]} at position 1"
        )
    P, top, scale = _transfers(gamma, em_blocks, last)  # pass 1

    # pass 2, forward: the start of block b is the start of block b - 1 times
    # its transfer, normalized, which cancels top
    starts = np.empty((nblocks, k))
    starts[:1] = fwd[0]
    with np.errstate(divide="ignore"):
        for b in range(1, nblocks):
            w = np.log(starts[b - 1]) + scale[b - 1]
            peak = w.max()
            # -inf: block b - 1 is impossible, and pass 3 reports where
            starts[b] = 0.0 if peak == -np.inf else np.exp(w - peak) @ P[b - 1]
            _rescale(starts[b])

    # pass 3, forward: every block from its start, one position at a time
    fwd_blocks = fwd[1:].reshape(nblocks, length, k)
    log_c_blocks = log_c[1:].reshape(nblocks, length)
    for j in range(length):
        live = nblocks - (j >= last)
        prev = starts if j == 0 else fwd_blocks[:, j - 1]
        f = (prev[:live] @ gamma) * em_blocks[:live, j]
        log_c_blocks[:live, j] = _rescale(f)
        fwd_blocks[:live, j] = f
    impossible = log_c[:n] == -np.inf
    if impossible.any():
        t = int(np.argmax(impossible))
        raise ImpossibleObservationError(
            f"count {x[t]} at position {t + 1} has zero emission probability "
            "under every reachable state"
        )
    np.add(log_c[:n], shift, out=log_scale)

    # pass 2, backward: the end of block b - 1 is block b's transfer times
    # the end of block b, divided by block b's forward normalizers; top and
    # the normalizers enter step by step, as their ratio
    scale += (top - log_c_blocks.T).sum(axis=0)[:, None]
    ends = np.empty((nblocks, k))
    ends[-1:] = 1.0
    # an overflow is reported below, once, by the first position it reaches
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for b in range(nblocks - 1, 0, -1):
            ends[b - 1] = np.exp(scale[b] + np.log(P[b] @ ends[b]))

        # pass 3, backward: the normalizers c_t of the shifted emissions, in
        # place of their logs (1 on the padding)
        c_next_blocks = np.exp(log_c_blocks, out=log_c_blocks)[:, :, None]
        bwd[n - 1] = 1.0
        bwd_blocks = bwd[: nblocks * length].reshape(nblocks, length, k)
        for j in range(length - 1, -1, -1):
            live = nblocks - (j >= last)
            nxt = ends if j == length - 1 else bwd_blocks[:, j + 1]
            v = (em_blocks[:live, j] * nxt[:live]) @ gamma.T
            bwd_blocks[:live, j] = v / c_next_blocks[:live, j]

    fwd, bwd = fwd[:n], bwd[:n]
    if not np.isfinite(bwd.max()):  # max passes on a NaN or an inf, with no temporary array
        t = n - 1 - int(np.argmin(np.isfinite(bwd).all(axis=1)[::-1]))
        raise BackwardOverflowError(
            f"the scaled backward table overflows at position {t + 1}, as it does when "
            "the counts favour a state the chain cannot reach; the posterior cannot be "
            "computed in double precision"
        )
    for a in (fwd, bwd, log_scale, log_em):
        a.flags.writeable = False
    return FBTables(
        fwd_scaled=fwd,
        bwd_scaled=bwd,
        loglik=float(log_scale.sum()),
        log_emissions=log_em,
        log_scale=log_scale,
    )


def posterior_marginals(tables: FBTables) -> np.ndarray:
    """n x K matrix with entry (t, j) = P(y_{t+1} = j+1 | x)."""
    return tables.fwd_scaled * tables.bwd_scaled


# terms per block of paths in log_joint; each holds an intp index and the
# float64 it gathers
_LOG_JOINT_BLOCK = 1 << 19


def log_joint(model: HmmModel, s, x, *, log_emissions: np.ndarray | None = None):
    """log P(y = s, x) for a 1-based state path s; -inf if any factor is zero.

    s may also be an (m, n) array of m paths, which gives an (m,) array of
    scores; a single path gives a float.  Integer paths are range-checked
    by their minimum and maximum and scored in their own dtype, so an int8
    batch from the decoders is never widened whole.  Passing precomputed
    `log_emissions` avoids repeating emission work when scoring paths
    against the same observations.
    """
    s = np.asarray(s)
    if s.ndim not in (1, 2):
        raise ValueError("paths must be a state sequence or an (m, n) array of them")
    paths = np.atleast_2d(as_states(s.ravel(), model.num_states).reshape(s.shape))
    if log_emissions is None:
        log_emissions = model.log_emissions(x)
    if paths.shape[1] != log_emissions.shape[0]:
        raise ValueError("state and observation sequences must have equal length")
    # a leading unused state lets the 1-based labels index the log tables
    # directly, so a batch of paths needs no (m, n) array of 0-based indices
    with np.errstate(divide="ignore"):
        log_pi = np.log(np.pad(model.pi, (1, 0)))
        log_gamma = np.log(np.pad(model.gamma, (1, 0)))
    log_em = np.pad(log_emissions, ((0, 0), (1, 0)))
    total = log_pi[paths[:, 0]] + log_em[0, paths[:, 0]]
    # the gathered terms are summed a block of whole paths at a time, which
    # bounds the working set and leaves each path's reduction unchanged.
    # Each table is raveled and gathered at one flat intp index per term:
    # prev * (K + 1) + cur for the transitions, t * (K + 1) + cur for the
    # emissions
    width = model.num_states + 1
    flat_gamma, flat_em = log_gamma.ravel(), log_em.ravel()
    em_rows = np.arange(width, log_em.size, width)
    block = max(1, _LOG_JOINT_BLOCK // paths.shape[1])
    index = np.empty((min(block, paths.shape[0]), paths.shape[1] - 1), dtype=np.intp)
    for lo in range(0, paths.shape[0], block):
        rows = paths[lo : lo + block]
        here = index[: rows.shape[0]]
        np.multiply(rows[:, :-1], width, out=here, dtype=np.intp)
        np.add(here, rows[:, 1:], out=here, dtype=np.intp)
        total[lo : lo + block] += flat_gamma.take(here).sum(axis=1)
        np.add(rows[:, 1:], em_rows, out=here, dtype=np.intp)
        total[lo : lo + block] += flat_em.take(here).sum(axis=1)
    return float(total[0]) if s.ndim == 1 else total
