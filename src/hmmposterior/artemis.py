"""Simulation harness for choosing the hybrid decoding weight.

The tuning weight is selected from simulated data where the true hidden path
is known: decode at every alpha on a grid, record pointwise accuracy against
the truth and the log-joint probability of the decoded path, min-max scale
both series over the sweep, and pick the grid alpha where the two scaled
series cross (the point of the bow-shaped accuracy/probability curve at a
45-degree angle from the scaled origin).  Replicated studies average the
per-replicate choice.

Accuracy requires the true hidden sequence, so studies simulate from the
fitted model.  Short simulated sequences give coarse, unstable curves; the
chosen alpha stabilizes as the simulated sequence length grows, so prefer
lengths of 10^4 or more.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decoding import hybrid_paths, posterior_decode
from .model import HmmModel, as_states, forward_backward, log_joint, posterior_marginals, simulate, validate_model
from .seeding import substream_seed

__all__ = [
    "ArtemisCurve",
    "StudyReport",
    "BlockwiseRow",
    "DegenerateScalingError",
    "default_alpha_grid",
    "pointwise_accuracy",
    "blockwise_accuracy",
    "sweep",
    "optimal_alpha",
    "artemis_study",
    "blockwise_study",
    "model_grid",
]


class DegenerateScalingError(ValueError):
    """An axis of the sweep is constant, so min-max scaling is undefined."""


def default_alpha_grid(denominator: int = 256) -> np.ndarray:
    """The grid k/denominator for k = 0..denominator (257 points by default)."""
    if denominator < 1:
        raise ValueError("denominator must be at least 1")
    return np.arange(denominator + 1) / denominator


def pointwise_accuracy(s, y) -> float:
    """Fraction of positions where the decoded and true sequences agree."""
    s = np.asarray(s)
    y = np.asarray(y)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("sequences must be 1-d and of equal length")
    return float(np.mean(s == y))


def blockwise_accuracy(s, y, block_size: int) -> float:
    """Fraction of sliding windows of `block_size` decoded entirely correctly."""
    s = np.asarray(s)
    y = np.asarray(y)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("sequences must be 1-d and of equal length")
    n = s.size
    if not 1 <= block_size <= n:
        raise ValueError(f"block size must lie in 1..{n}, got {block_size}")
    wrong = np.concatenate(([0], np.cumsum(s != y)))
    window_errors = wrong[block_size:] - wrong[:-block_size]
    return float(np.mean(window_errors == 0))


@dataclass(frozen=True)
class ArtemisCurve:
    """Per-alpha sweep records plus their min-max scaled images.

    A constant axis cannot be scaled; it is listed in degenerate_axes, the
    scaled values fall back to zeros, and optimal_alpha is None.
    """

    alphas: np.ndarray
    accuracy: np.ndarray
    log_joint: np.ndarray
    scaled_accuracy: np.ndarray
    scaled_log_joint: np.ndarray
    optimal_alpha: float | None
    degenerate_axes: tuple[str, ...] = ()


def _minmax(v: np.ndarray) -> tuple[np.ndarray, bool]:
    lo, hi = v.min(), v.max()
    if hi - lo <= 0.0:
        return np.zeros_like(v), True
    return (v - lo) / (hi - lo), False


def sweep(model: HmmModel, x, y, alphas=None) -> ArtemisCurve:
    """Decode x at every grid alpha and score against the true path y."""
    if alphas is None:
        alphas = default_alpha_grid()
    alphas = np.sort(np.atleast_1d(np.asarray(alphas, dtype=float)))
    y = as_states(y, model.num_states)
    tables = forward_backward(model, x)
    paths = hybrid_paths(model, tables, alphas)
    accuracy = (paths == y[None, :]).mean(axis=1)
    joint = log_joint(model, paths, x, log_emissions=tables.log_emissions)
    scaled_acc, acc_flat = _minmax(accuracy)
    scaled_joint, joint_flat = _minmax(joint)
    degenerate = tuple(
        name for name, flat in (("accuracy", acc_flat), ("log_joint", joint_flat)) if flat
    )
    curve = ArtemisCurve(
        alphas=alphas,
        accuracy=accuracy,
        log_joint=joint,
        scaled_accuracy=scaled_acc,
        scaled_log_joint=scaled_joint,
        optimal_alpha=None,
        degenerate_axes=degenerate,
    )
    if degenerate:
        return curve
    return replace(curve, optimal_alpha=optimal_alpha(curve))


def optimal_alpha(curve: ArtemisCurve) -> float:
    """The grid alpha where the scaled axes cross, ties toward smaller alpha."""
    if curve.degenerate_axes:
        raise DegenerateScalingError(
            f"constant axes {curve.degenerate_axes}: scaling, and hence the "
            "crossing point, is undefined"
        )
    return float(curve.alphas[int(np.argmin(np.abs(curve.scaled_accuracy - curve.scaled_log_joint)))])


@dataclass(frozen=True)
class StudyReport:
    """Per-replicate optimal alphas with their average and spread.

    Replicates with a degenerate sweep carry None and are excluded from the
    average and standard deviation; labels record which ones.
    """

    optimal_alphas: tuple[float | None, ...]
    labels: tuple[str, ...]
    average: float
    std: float


def artemis_study(
    model: HmmModel,
    n: int,
    replicates: int,
    alphas=None,
    seed: int = 0,
    on_replicate=None,
) -> StudyReport:
    """Replicated sweep on simulated data; replicate r uses sub-stream (seed, r).

    `on_replicate(r, curve)`, when given, observes each finished sweep (the
    CLI uses it to write per-replicate curve files).
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    values: list[float | None] = []
    labels: list[str] = []
    for r in range(replicates):
        y, x = simulate(model, n, substream_seed(seed, r))
        curve = sweep(model, x, y, alphas)
        if on_replicate is not None:
            on_replicate(r, curve)
        values.append(curve.optimal_alpha)
        labels.append("ok" if curve.optimal_alpha is not None else "degenerate-scaling")
    valid = [v for v in values if v is not None]
    if valid:
        average = float(np.mean(valid))
        std = float(np.std(valid))
    else:
        average = std = float("nan")
    return StudyReport(
        optimal_alphas=tuple(values), labels=tuple(labels), average=average, std=std
    )


@dataclass(frozen=True)
class BlockwiseRow:
    block_size: int
    method: str
    mean_accuracy: float
    mean_accuracy_minus_posterior: float


def blockwise_study(
    model: HmmModel,
    n: int,
    replicates: int,
    alphas,
    block_sizes,
    seed: int = 0,
) -> list[BlockwiseRow]:
    """Average block-wise accuracy of Posterior, hybrid, and Viterbi decoding.

    Each replicate simulates a fresh (y, x) pair, decodes it with every
    method, and scores all requested block sizes; rows report the mean over
    replicates and the difference from Posterior decoding.
    """
    if replicates < 1:
        raise ValueError("need at least one replicate")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    block_sizes = [int(b) for b in np.atleast_1d(block_sizes)]
    for b in block_sizes:
        if not 1 <= b <= n:
            raise ValueError(f"block size must lie in 1..{n}, got {b}")
    methods = ["posterior"] + [f"hybrid(alpha={a:g})" for a in alphas] + ["viterbi"]
    totals = np.zeros((len(methods), len(block_sizes)))
    for r in range(replicates):
        y, x = simulate(model, n, substream_seed(seed, r))
        tables = forward_backward(model, x)
        decoded = [posterior_decode(posterior_marginals(tables))]
        batch = hybrid_paths(model, tables, np.concatenate([alphas, [1.0]]))
        decoded.extend(batch)
        for mi, path in enumerate(decoded):
            for bi, b in enumerate(block_sizes):
                totals[mi, bi] += blockwise_accuracy(path, y, b)
    means = totals / replicates
    rows = []
    for bi, b in enumerate(block_sizes):
        for mi, method in enumerate(methods):
            rows.append(
                BlockwiseRow(
                    block_size=b,
                    method=method,
                    mean_accuracy=float(means[mi, bi]),
                    mean_accuracy_minus_posterior=float(means[mi, bi] - means[0, bi]),
                )
            )
    return rows


def model_grid(q_values, a_values) -> list[HmmModel]:
    """Three-state Poisson models with staying probability q and rate spread a.

    Each model has initial distribution (0.8, 0.1, 0.1), transition matrix
    with q on the diagonal and (1-q)/2 off it, and rates (20-a, 20, 20+a).
    Models are returned row-major: q varies slowest.
    """
    models = []
    for q in np.atleast_1d(q_values):
        if not 0.0 < q <= 1.0:
            raise ValueError(f"staying probability must lie in (0, 1], got {q}")
        for a in np.atleast_1d(a_values):
            if not -20.0 < a < 20.0:
                raise ValueError(f"rate spread must lie in (-20, 20), got {a}")
            off = (1.0 - q) / 2.0
            gamma = np.full((3, 3), off)
            np.fill_diagonal(gamma, q)
            models.append(
                validate_model(
                    HmmModel(pi=np.array([0.8, 0.1, 0.1]), gamma=gamma, rates=np.array([20.0 - a, 20.0, 20.0 + a]))
                )
            )
    return models
