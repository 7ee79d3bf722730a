"""Poisson hidden Markov model and the scaled forward-backward recursions.

A model is the triple (initial distribution, transition matrix, per-state
Poisson rates).  Hidden states are labelled 1..K in every public interface;
internal array storage is 0-based.  All posterior quantities in the rest of
the package are derived from the :class:`FBTables` produced here, which hold
the per-step normalized forward and backward tables together with the
normalizing constants, so that posterior ratios can be formed without any
exp/log round trips in inner loops.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

__all__ = [
    "HmmModel",
    "FBTables",
    "ModelValidationError",
    "ImpossibleObservationError",
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
        """n x K matrix of log Poisson pmf values; column j is state j+1."""
        x = as_counts(counts).astype(float)
        lam = self.rates
        return x[:, None] * np.log(lam)[None, :] - lam[None, :] - gammaln(x + 1.0)[:, None]


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
    """Coerce a state sequence to a 1-d array of labels in 1..num_states."""
    arr = np.asarray(s)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("state sequence must be a non-empty 1-d array")
    arr = _as_int64(arr, "state labels")
    if (arr < 1).any() or (arr > num_states).any():
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
    states = np.empty(n, dtype=np.int64)
    s = min(int(np.searchsorted(cum_pi, u[0], side="right")), k - 1)
    states[0] = s
    for t in range(1, n):
        s = min(int(np.searchsorted(cum_gamma[s], u[t], side="right")), k - 1)
        states[t] = s
    counts = rng.poisson(model.rates[states])
    return states + 1, counts.astype(np.int64)


@dataclass(frozen=True)
class FBTables:
    """Scaled forward and backward tables for one observation sequence.

    fwd_scaled[t] sums to one; the normalizers satisfy
    ``alpha_t(j) = fwd_scaled[t, j] * prod(scale[:t+1])`` and
    ``beta_t(j) = bwd_scaled[t, j] * prod(scale[t+1:])`` for the unscaled
    forward/backward probabilities.  ``loglik`` is log P(x) = sum(log scale).

    log_emissions and log_scale are carried along so downstream posterior
    algebra (conditional transition matrices, decoding scores) can be formed
    exactly without recomputing emission terms.
    """

    fwd_scaled: np.ndarray
    bwd_scaled: np.ndarray
    scale: np.ndarray
    loglik: float
    log_emissions: np.ndarray
    log_scale: np.ndarray

    @property
    def n(self) -> int:
        return self.fwd_scaled.shape[0]

    @property
    def num_states(self) -> int:
        return self.fwd_scaled.shape[1]


def forward_backward(model: HmmModel, x) -> FBTables:
    """Run the scaled forward-backward recursions for counts x.

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
        raise ImpossibleObservationError(
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
        raise ImpossibleObservationError(
            f"no state the initial distribution allows can emit count {x[0]} at position 1"
        )
    fwd[0] = f / c
    log_scale[0] = np.log(c) + shift[0]
    for t in range(1, n):
        f = (fwd[t - 1] @ gamma) * em[t]
        c = f.sum()
        if c <= 0.0:
            raise ImpossibleObservationError(
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
    return FBTables(
        fwd_scaled=fwd,
        bwd_scaled=bwd,
        scale=_frozen(np.exp(log_scale)),
        loglik=float(log_scale.sum()),
        log_emissions=log_em,
        log_scale=log_scale,
    )


def posterior_marginals(tables: FBTables) -> np.ndarray:
    """n x K matrix with entry (t, j) = P(y_{t+1} = j+1 | x)."""
    return tables.fwd_scaled * tables.bwd_scaled


_LOG_JOINT_BLOCK = 1 << 20  # gathered terms per block of paths in log_joint


def log_joint(model: HmmModel, s, x, *, log_emissions: np.ndarray | None = None):
    """log P(y = s, x) for a 1-based state path s; -inf if any factor is zero.

    s may also be an (m, n) array of m paths, which gives an (m,) array of
    scores; a single path gives a float.  Passing precomputed
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
    # bounds the working set and leaves each path's reduction unchanged
    steps = np.arange(1, paths.shape[1])
    block = max(1, _LOG_JOINT_BLOCK // paths.shape[1])
    for lo in range(0, paths.shape[0], block):
        rows = paths[lo : lo + block]
        total[lo : lo + block] += log_gamma[rows[:, :-1], rows[:, 1:]].sum(axis=1)
        total[lo : lo + block] += log_em[steps, rows[:, 1:]].sum(axis=1)
    return float(total[0]) if s.ndim == 1 else total
