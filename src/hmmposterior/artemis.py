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
from .model import (
    HmmModel,
    as_counts,
    as_states,
    forward_backward,
    log_joint,
    posterior_marginals,
    simulate,
)
from .seeding import substream_seed

__all__ = [
    "ArtemisCurve",
    "StudyReport",
    "BlockwiseRow",
    "DegenerateScalingError",
    "default_alpha_grid",
    "blockwise_accuracy",
    "sweep",
    "optimal_alpha",
    "artemis_study",
    "blockwise_study",
]


class DegenerateScalingError(ValueError):
    """An axis of the sweep is constant, so min-max scaling is undefined."""


def default_alpha_grid(denominator: int = 256) -> np.ndarray:
    """The grid k/denominator for k = 0..denominator (257 points by default)."""
    if denominator < 1:
        raise ValueError("denominator must be at least 1")
    return np.arange(denominator + 1) / denominator


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
    x = as_counts(x)
    y = as_states(y, model.num_states)
    if y.size != x.size:
        raise ValueError(
            f"the true path has {y.size} states but there are {x.size} observations"
        )
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

