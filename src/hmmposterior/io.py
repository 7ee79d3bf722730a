"""File formats: model files, count series, and plot-ready CSV output.

Model files are plain text, one `key values...` pair per line with optional
`#` comments:

    states 2
    pi 1 0
    gamma 0.989 0.011
    gamma 0.287 0.703
    lambda 0.278 3.217

Observation files are CSV with one non-negative integer per line and an
optional single `count` header.  All probabilities are printed with 12
significant digits so emitted files round-trip to the precision tests rely
on.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .artemis import ArtemisCurve, BlockwiseRow, StudyReport
from .fmci import Distribution, ExpectedRunCounts
from .model import HmmModel

__all__ = [
    "ParseError",
    "read_model",
    "read_counts",
    "write_counts",
    "write_states",
    "write_decode_csv",
    "write_distribution_csv",
    "write_samples_csv",
    "write_frequency_csv",
    "write_stay_csv",
    "write_curve_csv",
    "write_study_csv",
    "write_blockwise_csv",
    "write_run_counts_csv",
]

_INT64_MAX = int(np.iinfo(np.int64).max)


class ParseError(ValueError):
    """An input file could not be parsed; the message names file and line."""


def _fmt(v) -> str:
    return f"{float(v):.12g}"


def read_model(path) -> HmmModel:
    """Read a model file.  The result is unvalidated; run validate_model."""
    path = Path(path)
    states: int | None = None
    pi = None
    rates = None
    gamma_rows: list[tuple[int, list[float]]] = []
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read model file: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *rest = line.split()
        try:
            if key == "states":
                if len(rest) != 1:
                    raise ValueError("expected exactly one value")
                states = int(rest[0])
            elif key == "pi":
                pi = [float(v) for v in rest]
            elif key == "gamma":
                gamma_rows.append((lineno, [float(v) for v in rest]))
            elif key == "lambda":
                rates = [float(v) for v in rest]
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if states is None or states < 1:
        raise ParseError(f"{path}: missing or invalid 'states' line")
    if pi is None or len(pi) != states:
        raise ParseError(f"{path}: 'pi' must list {states} values")
    if rates is None or len(rates) != states:
        raise ParseError(f"{path}: 'lambda' must list {states} values")
    if len(gamma_rows) != states:
        raise ParseError(f"{path}: expected {states} 'gamma' rows, found {len(gamma_rows)}")
    for lineno, row in gamma_rows:
        if len(row) != states:
            raise ParseError(f"{path}:{lineno}: gamma row must list {states} values")
    return HmmModel(
        pi=np.array(pi),
        gamma=np.array([row for _, row in gamma_rows]),
        rates=np.array(rates),
    )


def read_counts(path) -> np.ndarray:
    """Read an observation series: one non-negative integer per line."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read observations: {exc}") from exc
    values: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        token = raw.strip()
        if not token:
            continue
        if lineno == 1 and token.lower() == "count":
            continue
        try:
            v = int(token)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: not an integer: {token!r}") from exc
        if v < 0:
            raise ParseError(f"{path}:{lineno}: negative count {v}")
        if v > _INT64_MAX:
            raise ParseError(f"{path}:{lineno}: count {v} exceeds the int64 range")
        values.append(v)
    if not values:
        raise ParseError(f"{path}: no observations found")
    return np.array(values, dtype=np.int64)


def _open_writer(path):
    return open(path, "w", newline="")


def write_counts(path, counts) -> None:
    with _open_writer(path) as fh:
        fh.write("count\n")
        fh.writelines(f"{int(v)}\n" for v in counts)


def write_states(path, states) -> None:
    with _open_writer(path) as fh:
        fh.write("state\n")
        fh.writelines(f"{int(v)}\n" for v in states)


def write_decode_csv(path, x, posterior, viterbi_path, hybrid, hybrid_marginal) -> None:
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


def write_distribution_csv(path, dist: Distribution) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["value", "probability"])
        for v, p in zip(dist.support, dist.probs):
            w.writerow([int(v), _fmt(p)])
        w.writerow([f">={dist.truncation + 1}", _fmt(dist.overflow)])


def write_samples_csv(path, paths) -> None:
    paths = np.asarray(paths)
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow([f"t_{t + 1}" for t in range(paths.shape[1])])
        for row in paths:
            w.writerow([int(v) for v in row])


def write_frequency_csv(path, frequencies, marginals) -> None:
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


def write_stay_csv(path, stays: tuple[np.ndarray, np.ndarray]) -> None:
    a, b = stays
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["t", "a", "b"])
        for i in range(a.size):
            w.writerow([i + 2, _fmt(a[i]), _fmt(b[i])])


def write_curve_csv(path, curve: ArtemisCurve) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["alpha", "accuracy", "log_joint", "scaled_accuracy", "scaled_log_joint"])
        for i in range(curve.alphas.size):
            w.writerow(
                [_fmt(curve.alphas[i]), _fmt(curve.accuracy[i]), _fmt(curve.log_joint[i]),
                 _fmt(curve.scaled_accuracy[i]), _fmt(curve.scaled_log_joint[i])]
            )


def write_study_csv(path, report: StudyReport) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["replicate", "optimal_alpha", "status"])
        for r, (value, label) in enumerate(zip(report.optimal_alphas, report.labels)):
            w.writerow([r + 1, "" if value is None else _fmt(value), label])
        w.writerow(["average", _fmt(report.average), ""])
        w.writerow(["std", _fmt(report.std), ""])


def write_blockwise_csv(path, rows: list[BlockwiseRow]) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["block_size", "method", "mean_accuracy", "mean_accuracy_minus_posterior"])
        for row in rows:
            w.writerow(
                [row.block_size, row.method, _fmt(row.mean_accuracy),
                 _fmt(row.mean_accuracy_minus_posterior)]
            )


def write_run_counts_csv(path, counts: ExpectedRunCounts) -> None:
    with _open_writer(path) as fh:
        w = csv.writer(fh)
        w.writerow(["k", "expected_count", "lower_bound_flag"])
        for i in range(counts.run_lengths.size):
            w.writerow(
                [int(counts.run_lengths[i]), _fmt(counts.expected[i]),
                 int(counts.lower_bound[i])]
            )
