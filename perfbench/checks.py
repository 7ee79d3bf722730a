"""Output checks for the benchmark workloads.

``inspect_outputs`` reads a workload's output directory and the CLI's
printed lines into a compact record (exact values, digests, and a sample of
float columns) and runs the invariant checks, which need no reference.
``compare`` checks a record against the reference recorded for the same
seed at the baseline commit.  Checks are ``{"name", "ok", "detail"}``.

Tolerances:
  * states, sampled paths, alphas and accuracies: exact (digests or equality);
  * floats printed with 12 significant digits: 1e-10 relative;
  * FMCI probabilities: 1e-12 absolute on the support both runs share, so a
    change in how the truncation level is chosen does not fail the check.
    Records keep the window of probabilities above 1e-16; values outside it
    compare as 0, which moves the 1e-12 bound by at most 1e-16;
  * FMCI overflow: 1e-12 absolute against the reference's mass beyond the
    same level.  The size of the overflow is not checked: the program reports
    the mass beyond its truncation level rather than promising a bound on
    it, and ``--ell auto`` (sample maximum plus a margin) can leave more than
    1e-12 there.  Records keep the overflow, so it can be reported;
  * expected exact-run counts: 1e-9 relative.
Long float columns are compared on every 200th row plus the column sum,
which keeps a reference a few kilobytes per seed.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path

import numpy as np

FLOAT_RTOL = 1e-10
PROB_ATOL = 1e-12
PROB_KEEP = 1e-16
RUN_COUNT_RTOL = 1e-9
ROW_STRIDE = 200
FMCI_STATISTICS = ("jumps", "runs", "positions", "longest_run", "exact_run_3")
DECODE_STATES = ("posterior_state", "viterbi_state", "hybrid_state")
DECODE_PRINTED = (
    "loglik", "posterior_log_joint", "viterbi_log_joint", "hybrid_log_joint", "hybrid_objective",
)


def _check(name: str, ok, detail="") -> dict:
    return {"name": name, "ok": bool(ok), "detail": str(detail)}


def _digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<i8").tobytes()).hexdigest()


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= rtol * np.maximum(np.abs(a), np.abs(b)))
    )


def _table(path: Path, dtype=float) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return header, np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=2)


def _float_sample(column: np.ndarray) -> dict:
    rows = np.unique(np.r_[np.arange(0, column.size, ROW_STRIDE), column.size - 1])
    return {"rows": column[rows].tolist(), "sum": float(column.sum())}


# --- artemis-replicate ------------------------------------------------------

def _artemis(out: Path, stdouts: list[str]):
    header, rows = _table(out / "artemis_curve_1.csv")
    col = {name: rows[:, i] for i, name in enumerate(header)}
    with open(out / "artemis_study.csv", newline="") as fh:
        study = {row["replicate"]: row["optimal_alpha"] for row in csv.DictReader(fh)}
    chosen = study.get("1", "")
    record = {
        "alpha": col["alpha"].tolist(),
        "accuracy": col["accuracy"].tolist(),
        "log_joint": col["log_joint"].tolist(),
        "optimal_alpha": float(chosen) if chosen else None,
    }
    viterbi = col["log_joint"][col["alpha"] == 1.0]
    checks = [
        _check(
            "artemis: the alpha = 1 (Viterbi) row has the largest log_joint",
            viterbi.size == 1 and viterbi[0] >= col["log_joint"].max(),
            f"viterbi={viterbi.tolist()} max={col['log_joint'].max()}",
        )
    ]
    return record, checks


def _compare_artemis(rec: dict, ref: dict) -> list[dict]:
    return [
        _check("artemis: alphas equal", rec["alpha"] == ref["alpha"]),
        _check("artemis: accuracies equal", rec["accuracy"] == ref["accuracy"]),
        _check("artemis: log_joint within 1e-10 relative",
               _close(rec["log_joint"], ref["log_joint"], FLOAT_RTOL)),
        _check("artemis: chosen alpha equal", rec["optimal_alpha"] == ref["optimal_alpha"],
               f"{rec['optimal_alpha']} vs {ref['optimal_alpha']}"),
    ]


# --- fmci-auto --------------------------------------------------------------

def _distribution(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    probs = np.array([float(p) for _, p in rows[:-1]])
    return probs, float(rows[-1][1])


def _fmci(out: Path, stdouts: list[str]):
    record = {"ell": {}, "distributions": {}}
    checks = []
    for name in FMCI_STATISTICS:
        path = out / f"fmci_{name}.csv"
        if not path.exists():
            checks.append(_check(f"fmci {name}: output written", False, path.name))
            continue
        probs, overflow = _distribution(path)
        total = probs.sum() + overflow
        checks.append(_check(f"fmci {name}: sums to 1 within 1e-9", abs(total - 1.0) <= 1e-9, total))
        checks.append(_check(f"fmci {name}: overflow >= 0", overflow >= 0.0, overflow))
        kept = np.flatnonzero(probs > PROB_KEEP)
        lo, hi = (int(kept[0]), int(kept[-1]) + 1) if kept.size else (0, 0)
        record["distributions"][name] = {
            "ell": probs.size - 1, "start": lo, "probs": probs[lo:hi].tolist(), "overflow": overflow,
        }
    counts = out / "expected_run_counts.csv"
    checks.append(_check("fmci: expected run counts written", counts.exists()))
    if counts.exists():
        header, rows = _table(counts)
        record["expected_runs"] = rows[:, header.index("expected_count")].tolist()
    for statistic, ell in re.findall(r"auto truncation for (\w+): (\d+)", "".join(stdouts)):
        record["ell"][statistic] = int(ell)
    return record, checks


def _dense(dist: dict, length: int) -> np.ndarray:
    v = np.zeros(length)
    window = np.asarray(dist["probs"])[: max(length - dist["start"], 0)]
    v[dist["start"] : dist["start"] + window.size] = window
    return v


def _tail(dist: dict, level: int) -> float:
    """Mass of the values above ``level``: kept probabilities plus the overflow."""
    skip = max(level + 1 - dist["start"], 0)
    return float(np.sum(dist["probs"][skip:])) + dist["overflow"]


def _compare_fmci(rec: dict, ref: dict) -> list[dict]:
    checks = []
    for name, want in ref["distributions"].items():
        got = rec["distributions"].get(name)
        if got is None:
            checks.append(_check(f"fmci {name}: present", False))
            continue
        common = min(got["ell"], want["ell"]) + 1
        worst = float(np.max(np.abs(_dense(got, common) - _dense(want, common))))
        checks.append(_check(f"fmci {name}: probabilities within 1e-12 on the common support",
                             worst <= PROB_ATOL, f"max |diff| = {worst:.3g} over {common} values"))
        got_tail, want_tail = _tail(got, common - 1), _tail(want, common - 1)
        checks.append(_check(f"fmci {name}: overflow equals the reference's mass beyond it",
                             abs(got_tail - want_tail) <= PROB_ATOL,
                             f"{got_tail:.6g} vs {want_tail:.6g} beyond {common - 1}"))
    checks.append(_check("fmci: expected run counts within 1e-9 relative",
                         _close(rec.get("expected_runs", []), ref["expected_runs"], RUN_COUNT_RTOL)))
    return checks


# --- series-k3 ----------------------------------------------------------------

def _series(out: Path, stdouts: list[str]):
    decode_header, decode = _table(out / "decode.csv")
    freq_header, freq = _table(out / "frequencies.csv")
    _, samples = _table(out / "samples.csv", dtype=np.int64)
    printed = {
        key: float(value)
        for key, value in re.findall(r"(\w+)=(\S+)", "".join(stdouts))
        if key in DECODE_PRINTED
    }
    floats = {"marginal_prob_of_hybrid_state": _float_sample(decode[:, -1])}
    floats.update({name: _float_sample(freq[:, i]) for i, name in enumerate(freq_header) if i})
    record = {
        "n": int(decode.shape[0]),
        "m": int(samples.shape[0]),
        "states": {
            name: _digest(decode[:, decode_header.index(name)].astype(np.int64))
            for name in DECODE_STATES
        },
        "samples": _digest(samples),
        "floats": floats,
        "printed": printed,
    }
    vit = printed.get("viterbi_log_joint", float("nan"))
    checks = [
        _check("series: decode printed every summary value", set(printed) == set(DECODE_PRINTED)),
        _check("series: viterbi_log_joint >= posterior and hybrid log_joint",
               vit >= printed.get("posterior_log_joint", np.inf)
               and vit >= printed.get("hybrid_log_joint", np.inf),
               printed),
        _check("series: one sampled state per position", samples.shape[1] == decode.shape[0]),
    ]
    return record, checks


def _compare_series(rec: dict, ref: dict) -> list[dict]:
    checks = [_check(f"series: decode.csv {name} equal", rec["states"][name] == digest)
              for name, digest in ref["states"].items()]
    checks.append(_check("series: samples.csv equal", rec["samples"] == ref["samples"]))
    for name, want in ref["floats"].items():
        got = rec["floats"].get(name, {"rows": [], "sum": np.nan})
        checks.append(_check(
            f"series: {name} within 1e-10 relative",
            _close(got["rows"], want["rows"], FLOAT_RTOL) and _close(got["sum"], want["sum"], FLOAT_RTOL),
        ))
    checks.append(_check(
        "series: printed summary within 1e-10 relative",
        _close([rec["printed"].get(k, np.nan) for k in DECODE_PRINTED],
               [ref["printed"][k] for k in DECODE_PRINTED], FLOAT_RTOL),
    ))
    return checks


_INSPECT = {"artemis-replicate": _artemis, "fmci-auto": _fmci, "series-k3": _series}
_COMPARE = {"artemis-replicate": _compare_artemis, "fmci-auto": _compare_fmci,
            "series-k3": _compare_series}


def inspect_outputs(workload: str, out: Path, stdouts: list[str]) -> tuple[dict | None, list[dict]]:
    """The compact record of a workload's outputs and its invariant checks."""
    try:
        return _INSPECT[workload](Path(out), stdouts)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return None, [_check(f"{workload}: outputs readable", False, f"{type(exc).__name__}: {exc}")]


def compare(workload: str, record: dict | None, reference: dict) -> list[dict]:
    """Checks of a record against the reference record of the same seed."""
    if record is None:
        return [_check(f"{workload}: matches the reference", False, "no record")]
    return _COMPARE[workload](record, reference)
