"""Tests of the benchmark's own checks and tracer.

    PYTHONPATH=src python -m pytest perfbench

The workloads run here at small sizes; the checks do not depend on size.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from hmmposterior import cli, fmci  # noqa: E402
from hmmposterior import io as hio  # noqa: E402
from hmmposterior.data import fixture_path  # noqa: E402

DEFINITIONS = json.loads((HERE / "workloads.json").read_text())
MODELS = DEFINITIONS["models"]


def _cli(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(argv) == 0
    return stdout.getvalue()


def _inputs(tmp_path: Path, model: str, n: int, seed: int = 3) -> tuple[str, str]:
    model_path, obs_path = tmp_path / "model.txt", tmp_path / "obs.csv"
    run.write_model(model_path, MODELS[model])
    counts = run.simulate_counts(MODELS[model], n, seed)
    obs_path.write_text("count\n" + "\n".join(map(str, counts.tolist())) + "\n")
    return str(model_path), str(obs_path)


def _rewrite_cell(path: Path, row: int, column: int, change) -> None:
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\r\n").split(",")
    cells[column] = change(cells[column])
    lines[row] = ",".join(cells) + "\r\n"
    path.write_text("".join(lines))


def _failed(found: list[dict]) -> list[str]:
    return [c["name"] for c in found if not c["ok"]]


@pytest.fixture(scope="module")
def series_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("series")
    model, obs = _inputs(tmp, "k3", 3000)
    out = tmp / "out"
    stdouts = [
        _cli(["decode", "--model", model, "--obs", obs, "--alpha", "0.5", "--out", str(out)]),
        _cli(["sample", "--model", model, "--obs", obs, "--samples", "20", "--seed", "5",
              "--out", str(out)]),
    ]
    record, found = checks.inspect_outputs("series-k3", out, stdouts)
    assert _failed(found) == []
    assert _failed(checks.compare("series-k3", record, record)) == []
    return out, stdouts, record


def test_series_check_rejects_one_flipped_decoded_state(series_outputs, tmp_path):
    out, stdouts, reference = series_outputs
    corrupt = tmp_path / "out"
    shutil.copytree(out, corrupt)
    # row 101, viterbi_state column: 1 <-> 2
    _rewrite_cell(corrupt / "decode.csv", 101, 3, lambda v: "2" if v == "1" else "1")
    record, found = checks.inspect_outputs("series-k3", corrupt, stdouts)
    assert _failed(checks.compare("series-k3", record, reference)) == [
        "series: decode.csv viterbi_state equal"
    ]


def test_series_check_rejects_one_changed_sampled_state(series_outputs, tmp_path):
    out, stdouts, reference = series_outputs
    corrupt = tmp_path / "out"
    shutil.copytree(out, corrupt)
    _rewrite_cell(corrupt / "samples.csv", 7, 1234, lambda v: "3" if v != "3" else "1")
    record, found = checks.inspect_outputs("series-k3", corrupt, stdouts)
    assert _failed(checks.compare("series-k3", record, reference)) == [
        "series: samples.csv equal"
    ]


def test_series_invariant_rejects_viterbi_below_hybrid(series_outputs):
    out, stdouts, _ = series_outputs
    printed = stdouts[0]
    vit = float(printed.split("viterbi_log_joint=")[1].split()[0])
    lowered = printed.replace(f"viterbi_log_joint={vit:.12g}", f"viterbi_log_joint={vit - 1e3:.12g}")
    _, found = checks.inspect_outputs("series-k3", out, [lowered, stdouts[1]])
    assert _failed(found) == ["series: viterbi_log_joint >= posterior and hybrid log_joint"]


def test_fmci_check_rejects_one_perturbed_probability(tmp_path):
    _, obs = _inputs(tmp_path, "earthquakes", 1000)
    out = tmp_path / "out"
    # ell = n covers every value, so the overflow is exactly 0 and only the
    # corruption below can fail a check
    stdout = _cli(["fmci", "--model", "earthquakes", "--obs", obs, "--ell", "1000",
                   "--statistic", "jumps", "--statistic", "runs", "--statistic", "positions",
                   "--statistic", "longest-run", "--statistic", "exact-run:3",
                   "--expected-runs", "5", "--seed", "2", "--out", str(out)])
    reference, found = checks.inspect_outputs("fmci-auto", out, [stdout])
    assert _failed(found) == []
    assert _failed(checks.compare("fmci-auto", reference, reference)) == []
    dist = reference["distributions"]["jumps"]
    mode = dist["start"] + int(np.argmax(dist["probs"]))
    # small enough that the distribution still sums to 1 within 1e-9
    _rewrite_cell(out / "fmci_jumps.csv", mode + 1, 1, lambda v: repr(float(v) + 5e-10))
    record, found = checks.inspect_outputs("fmci-auto", out, [stdout])
    assert _failed(found) == []
    assert _failed(checks.compare("fmci-auto", record, reference)) == [
        "fmci jumps: probabilities within 1e-12 on the common support"
    ]


def test_fmci_compare_uses_the_common_support():
    ref = {"distributions": {"jumps": {"ell": 9, "start": 2, "probs": [0.25, 0.5, 0.25],
                                       "overflow": 0.0}},
           "expected_runs": [1.0]}
    shorter = {"distributions": {"jumps": {"ell": 4, "start": 2, "probs": [0.25, 0.5, 0.25],
                                           "overflow": 0.0}},
               "expected_runs": [1.0]}
    assert _failed(checks.compare("fmci-auto", shorter, ref)) == []
    shorter["distributions"]["jumps"]["probs"][1] = 0.5 + 1e-11
    assert _failed(checks.compare("fmci-auto", shorter, ref)) != []


def test_fmci_overflow_must_equal_the_reference_tail():
    ref = {"distributions": {"jumps": {"ell": 9, "start": 2, "probs": [0.25, 0.5, 0.2, 0.05],
                                       "overflow": 0.0}},
           "expected_runs": [1.0]}
    # truncated at 4: the reference's mass beyond 4 is 0.05, which must be the overflow
    shorter = {"distributions": {"jumps": {"ell": 4, "start": 2, "probs": [0.25, 0.5, 0.2],
                                           "overflow": 0.05}},
               "expected_runs": [1.0]}
    assert _failed(checks.compare("fmci-auto", shorter, ref)) == []
    shorter["distributions"]["jumps"]["overflow"] = 0.05 + 1e-11
    assert _failed(checks.compare("fmci-auto", shorter, ref)) == [
        "fmci jumps: overflow equals the reference's mass beyond it"
    ]


def test_artemis_check_rejects_one_changed_accuracy(tmp_path):
    model, _ = _inputs(tmp_path, "k3", 1)
    out = tmp_path / "out"
    stdout = _cli(["artemis", "--model", model, "--n", "2000", "--replicates", "1",
                   "--alpha-grid", "16", "--seed", "4", "--out", str(out)])
    reference, found = checks.inspect_outputs("artemis-replicate", out, [stdout])
    assert _failed(found) == []
    assert _failed(checks.compare("artemis-replicate", reference, reference)) == []
    _rewrite_cell(out / "artemis_curve_1.csv", 3, 1, lambda v: repr(float(v) + 0.0005))
    record, _ = checks.inspect_outputs("artemis-replicate", out, [stdout])
    assert _failed(checks.compare("artemis-replicate", record, reference)) == [
        "artemis: accuracies equal"
    ]


def test_every_earlier_pass_must_match_the_checked_last_pass():
    good = {"iteration": 1, "record": {"samples": "a"}, "checks": []}
    assert _failed(run.output_checks("series-k3", [dict(good, iteration=0), good], None)) == []
    bad = {"iteration": 0, "record": {"samples": "b"}, "checks": []}
    assert _failed(run.output_checks("series-k3", [bad, good], None)) == [
        "pass 0 outputs equal the last pass's"
    ]


def _traced(tmp_path, layers=tracer.LAYERS) -> tracer.Tracer:
    t = tracer.Tracer("test", layers)
    t.install()
    try:
        _cli(["decode", "--model", "earthquakes", "--obs", "earthquakes",
              "--out", str(tmp_path / "decode")])
        _cli(["fmci", "--model", "earthquakes", "--obs", "earthquakes", "--ell", "20",
              "--statistic", "jumps", "--expected-runs", "2", "--out", str(tmp_path / "fmci")])
    finally:
        t.uninstall()
    return t


def test_self_times_sum_to_traced_wall_time(tmp_path):
    t = _traced(tmp_path)
    totals = tracer.layer_totals(t.spans)
    wall = tracer.traced_wall(t.spans)
    assert totals["cli.main"]["calls"] == 2
    assert wall == pytest.approx(totals["cli.main"]["total_s"], abs=1e-12)
    assert sum(v["self_s"] for v in totals.values()) == pytest.approx(wall, abs=1e-9)
    top_level = sum(end - start for _, start, end, parent, *_ in t.spans
                    if parent >= 0 and t.spans[parent][0] == "cli.main")
    assert totals["cli.main"]["self_s"] == pytest.approx(wall - top_level, abs=1e-9)
    # calls inside a module and `from .x import f` bindings are both caught
    assert totals["fmci.propagate"]["calls"] == 3
    assert totals["model.forward_backward"]["calls"] == 2
    assert totals["decoding.hybrid_paths"]["alpha_positions"] == 107
    assert totals["fmci.propagate"]["imbedded_steps"] > 0
    assert totals["io.write"]["bytes"] > 0
    assert t.absent == []
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")


def test_missing_layer_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(fmci, "auto_truncation")
    layers = dict(tracer.LAYERS, **{"model.gone": ("hmmposterior.model", ("no_such_function",))})
    t = _traced(tmp_path, layers)
    assert sorted(t.absent) == ["fmci.auto_truncation", "model.gone"]
    values = run.layer_metrics(t.spans)
    assert values["fmci.auto_truncation.self_s"] == 0
    assert values["fmci.propagate.calls"] == 3


def test_every_per_layer_metric_is_produced():
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(run.layer_metrics([])) | {"trace.overhead_s"}
    assert {m["name"] for m in benchmark["per_layer"]} <= produced
    assert [w["name"] for w in benchmark["workloads"]] == list(DEFINITIONS["workloads"])


def test_copied_earthquake_model_matches_the_bundled_one():
    bundled = hio.read_model(fixture_path("earthquakes", "model"))
    copied = MODELS["earthquakes"]
    np.testing.assert_array_equal(bundled.pi, copied["pi"])
    np.testing.assert_array_equal(bundled.gamma, copied["gamma"])
    np.testing.assert_array_equal(bundled.rates, copied["rates"])


def test_benchmark_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((HERE.parent / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fmci-auto", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
