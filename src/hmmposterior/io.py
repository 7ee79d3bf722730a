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

from pathlib import Path

import numpy as np

from .artemis import ArtemisCurve, BlockwiseRow, StudyReport
from .fmci import Distribution, ExpectedRunCounts
from .model import HmmModel

__all__ = [
    "ParseError",
    "read_model",
    "read_counts",
    "write_column",
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
_ROW_BLOCK = 256  # rows formatted per block by _write_table


class ParseError(ValueError):
    """An input file could not be parsed; the message names file and line."""


def read_model(path) -> HmmModel:
    """Read a model file.  The result is unvalidated; run validate_model."""
    path = Path(path)
    states: int | None = None
    pi = None
    rates = None
    gamma_rows: list[tuple[int, list[float]]] = []
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    except (OSError, UnicodeDecodeError) as exc:
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


def _cells(column) -> list[str]:
    """Format a column by the one cell rule of every table file.

    Integers and bools print as decimals, floats with 12 significant digits,
    strings as given and None as an empty cell.  A numpy column takes the
    rule once for all its cells; any other sequence takes it cell by cell.
    """
    kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
    if kind == "f":
        return [f"{v:.12g}" for v in column.tolist()]
    if kind in "biu":
        return list(map(str, map(int, column.tolist())))
    return [
        v if isinstance(v, str)
        else "" if v is None
        else str(int(v)) if isinstance(v, (int, np.integer, np.bool_))
        else f"{float(v):.12g}"
        for v in column
    ]


def _write_table(path, columns: dict, footer=(), end="\r\n") -> None:
    """Write named columns under a header row, then the footer rows.

    Lines end in CRLF, the line ending of Python's csv module.  Cells are
    never quoted, so none may hold a comma, a quote or a line break.  Rows
    are formatted a block at a time, so the cell strings of a long table are
    never all alive at once.
    """
    n = len(next(iter(columns.values())))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + end)
        for lo in range(0, n, _ROW_BLOCK):
            rows = zip(*(_cells(column[lo:lo + _ROW_BLOCK]) for column in columns.values()))
            fh.writelines(",".join(row) + end for row in rows)
        fh.writelines(",".join(_cells(row)) + end for row in footer)


def write_column(path, name, values) -> None:
    """Write one column under its header with LF line ends; read_counts reads it back."""
    _write_table(path, {name: values}, end="\n")


def write_decode_csv(path, x, posterior, viterbi_path, hybrid, hybrid_marginal) -> None:
    _write_table(path, {
        "t": np.arange(1, len(x) + 1),
        "observation": x,
        "posterior_state": posterior,
        "viterbi_state": viterbi_path,
        "hybrid_state": hybrid,
        "marginal_prob_of_hybrid_state": hybrid_marginal,
    })


def write_distribution_csv(path, dist: Distribution) -> None:
    _write_table(path, {"value": dist.support, "probability": dist.probs},
                 footer=[(f">={dist.truncation + 1}", dist.overflow)])


def write_samples_csv(path, paths) -> None:
    """One row per sampled path, streamed through a table of label strings."""
    paths = np.asarray(paths)
    labels = np.array([str(k) for k in range(int(paths.max(initial=0)) + 1)], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"t_{t + 1}" for t in range(paths.shape[1])) + "\r\n")
        for row in paths:
            fh.write(",".join(labels[row]) + "\r\n")


def write_frequency_csv(path, frequencies, marginals) -> None:
    frequencies = np.asarray(frequencies)
    marginals = np.asarray(marginals)
    k = frequencies.shape[1]
    _write_table(path, {
        "t": np.arange(1, frequencies.shape[0] + 1),
        **{f"frequency_state_{j + 1}": frequencies[:, j] for j in range(k)},
        **{f"marginal_state_{j + 1}": marginals[:, j] for j in range(k)},
    })


def write_stay_csv(path, stays: tuple[np.ndarray, np.ndarray]) -> None:
    a, b = stays
    _write_table(path, {"t": np.arange(2, a.size + 2), "a": a, "b": b})


def write_curve_csv(path, curve: ArtemisCurve) -> None:
    _write_table(path, {
        "alpha": curve.alphas,
        "accuracy": curve.accuracy,
        "log_joint": curve.log_joint,
        "scaled_accuracy": curve.scaled_accuracy,
        "scaled_log_joint": curve.scaled_log_joint,
    })


def write_study_csv(path, report: StudyReport) -> None:
    _write_table(path, {
        "replicate": np.arange(1, len(report.labels) + 1),
        "optimal_alpha": report.optimal_alphas,
        "status": report.labels,
    }, footer=[("average", report.average, ""), ("std", report.std, "")])


def write_blockwise_csv(path, rows: list[BlockwiseRow]) -> None:
    _write_table(path, {
        "block_size": [row.block_size for row in rows],
        "method": [row.method for row in rows],
        "mean_accuracy": [row.mean_accuracy for row in rows],
        "mean_accuracy_minus_posterior": [row.mean_accuracy_minus_posterior for row in rows],
    })


def write_run_counts_csv(path, counts: ExpectedRunCounts) -> None:
    _write_table(path, {
        "k": counts.run_lengths,
        "expected_count": counts.expected,
        "lower_bound_flag": counts.lower_bound,
    })
