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

Tables are written a block of rows at a time: each block is one printf-style
format over its cells (`%d` for integers and bools, `%.12g` for floats, `%s`
for any other cell, formatted by `_cells`) rather than one join per row.
The sampled-path CSV holds only integer labels and skips text formatting
altogether: a block of rows becomes a byte image gathered from a table of
each label's digits, and the image is written as it is.
"""

from __future__ import annotations

import itertools
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
_IMAGE_BYTES = 1 << 19  # bytes per block of the write_samples_csv image


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
    """Read a series of non-negative integers, one per line.

    A first line `count` or `state` is a header and is skipped, so the
    observations and the states that `simulate` writes both read back.
    """
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
        if lineno == 1 and token.lower() in ("count", "state"):
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
    are formatted a block at a time with one printf-style string, `%d` for
    integer and bool columns, `%.12g` for float columns and `%s` over
    `_cells` for any other; `"%.12g" % v == f"{v:.12g}"` for every float,
    nan, infinities, -0.0 and subnormals included, so each cell follows the
    rule of `_cells`.
    """
    n = len(next(iter(columns.values())))
    kinds = [column.dtype.kind if isinstance(column, np.ndarray) else "O"
             for column in columns.values()]
    line = ",".join("%.12g" if kind == "f" else "%d" if kind in "biu" else "%s"
                    for kind in kinds) + end
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + end)
        for lo in range(0, n, _ROW_BLOCK):
            cells = [column[lo:lo + _ROW_BLOCK].tolist() if kind in "fbiu"
                     else _cells(column[lo:lo + _ROW_BLOCK])
                     for kind, column in zip(kinds, columns.values())]
            fh.write(line * len(cells[0]) % tuple(itertools.chain.from_iterable(zip(*cells))))
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


def _label_table(lo: int, hi: int) -> np.ndarray:
    """Cell bytes of every label lo..hi: its digits right-aligned in NULs, then a comma.

    Row v - lo is the cell of label v, as a (hi - lo + 1, width + 1) uint8 array.
    """
    texts = [str(v).encode() for v in range(lo, hi + 1)]
    width = max(map(len, texts))
    table = np.zeros((len(texts), width + 1), dtype=np.uint8)
    for row, text in zip(table, texts):
        row[width - len(text):width] = np.frombuffer(text, dtype=np.uint8)
    table[:, width] = ord(",")
    return table


def write_samples_csv(path, paths) -> None:
    """One row per sampled path, written as a byte image a block of rows at a time.

    A block's image holds each row's cells from `_label_table`, then CRLF in
    place of the last comma.  When some label has more than one digit the
    NUL padding is dropped by a mask of the nonzero bytes.  Labels are
    integers of any sign; the table holds one cell per value from the
    smallest label to the largest.
    """
    paths = np.ascontiguousarray(paths)
    m, n = paths.shape
    lo, hi = (int(paths.min()), int(paths.max())) if paths.size else (0, 0)
    table = _label_table(lo, hi)
    cell = table.shape[1]
    cells = table.view(f"V{cell}").ravel()
    # label - lo in the unsigned type of the labels' width: it wraps into
    # 0..hi-lo for any range the label type can hold
    unsigned = np.dtype(f"u{paths.dtype.itemsize}")
    shift = np.array(lo, dtype=paths.dtype).view(unsigned)
    line = n * cell + 1
    rows = max(1, _IMAGE_BYTES // line)
    with open(path, "wb") as fh:
        fh.write((",".join(f"t_{t + 1}" for t in range(n)) + "\r\n").encode())
        for first in range(0, m, rows):
            block = paths[first:first + rows]
            image = np.empty((block.shape[0], line), dtype=np.uint8)
            image[:, :-1].view(cells.dtype)[...] = cells[block.view(unsigned) - shift]
            image[:, -2] = ord("\r")
            image[:, -1] = ord("\n")
            fh.write(image[image != 0] if cell > 2 else image)


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
