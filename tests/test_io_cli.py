import csv
import inspect
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmposterior as hp
import oracles
from hmmposterior import cli, fmci, io
from hmmposterior.artemis import ArtemisCurve, BlockwiseRow, StudyReport
from hmmposterior.cli import main
from hmmposterior.data import fixture_path
from hmmposterior.fmci import Distribution, ExpectedRunCounts

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


MODEL_TEXT = """# example
states 2
pi 1 0
gamma 0.9 0.1
gamma 0.2 0.8
lambda 1.5 6.0
"""


class TestReadModel:
    def test_round_trip(self, tmp_path):
        p = write(tmp_path, "m.txt", MODEL_TEXT)
        m = io.read_model(p)
        assert m.num_states == 2
        assert m.gamma[1].tolist() == [0.2, 0.8]
        assert m.rates.tolist() == [1.5, 6.0]

    def test_unknown_key_names_line(self, tmp_path):
        p = write(tmp_path, "m.txt", "states 2\nfoo 1\n")
        with pytest.raises(io.ParseError, match=r"m\.txt:2"):
            io.read_model(p)

    def test_wrong_gamma_row_count(self, tmp_path):
        p = write(tmp_path, "m.txt", "states 2\npi 1 0\ngamma 1 0\nlambda 1 2\n")
        with pytest.raises(io.ParseError, match="gamma"):
            io.read_model(p)

    def test_bad_number_names_line(self, tmp_path):
        p = write(tmp_path, "m.txt", "states 2\npi 1 zero\ngamma 1 0\ngamma 0 1\nlambda 1 2\n")
        with pytest.raises(io.ParseError, match=r"m\.txt:2"):
            io.read_model(p)

    def test_fixture_models_parse(self):
        for name in ("fetal-lamb", "earthquakes"):
            m = io.read_model(fixture_path(name, "model"))
            assert m.num_states == 2


class TestReadCounts:
    def test_header_optional(self, tmp_path):
        count_header = io.read_counts(write(tmp_path, "a.csv", "count\n1\n2\n"))
        state_header = io.read_counts(write(tmp_path, "s.csv", "state\n1\n2\n"))
        without = io.read_counts(write(tmp_path, "b.csv", "1\n2\n"))
        assert count_header.tolist() == state_header.tolist() == without.tolist() == [1, 2]

    @settings(max_examples=300, deadline=None)
    @given(text=st.lists(
        st.one_of(
            st.text(alphabet="0123456789-+ \t\r\n", max_size=8),
            st.sampled_from(["count", "state", "Count", "STATE", "\r\n", "\r", "\n",
                             str(2**63 - 1), str(2**63), str(-2**63), str(10**30), "9" * 5000]),
        ),
        max_size=12,
    ).map("".join))
    def test_any_text_gives_counts_or_one_parse_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            path.write_bytes(text.encode())
            try:
                got = io.read_counts(path)
            except io.ParseError:
                return
        tokens = [line.strip() for line in text.splitlines()]
        if tokens and tokens[0].lower() in ("count", "state"):
            tokens = tokens[1:]
        assert got.dtype == np.int64
        assert got.tolist() == [int(token) for token in tokens if token]

    def test_empty_file_names_file(self, tmp_path):
        p = write(tmp_path, "empty.csv", "")
        with pytest.raises(io.ParseError, match="empty.csv"):
            io.read_counts(p)

    def test_negative_count_rejected(self, tmp_path):
        p = write(tmp_path, "n.csv", "1\n-3\n")
        with pytest.raises(io.ParseError, match=r"n\.csv:2"):
            io.read_counts(p)

    def test_non_integer_rejected(self, tmp_path):
        p = write(tmp_path, "x.csv", "1\ntwo\n")
        with pytest.raises(io.ParseError, match="two"):
            io.read_counts(p)

    def test_int64_range_boundary(self, tmp_path):
        top = 2**63 - 1
        assert io.read_counts(write(tmp_path, "top.csv", f"{top}\n")).tolist() == [top]
        with pytest.raises(io.ParseError, match=r"over\.csv:1"):
            io.read_counts(write(tmp_path, "over.csv", f"{top + 1}\n"))

    def test_fixture_lengths(self):
        assert io.read_counts(fixture_path("earthquakes", "obs")).size == 107
        assert io.read_counts(fixture_path("fetal-lamb", "obs")).size == 225


class TestCsvRoundTrip:
    def test_distribution_round_trips_to_12_digits(self, tmp_path, lamb_chain):
        dist = hp.propagate(hp.build_spec("positions", 15), lamb_chain)
        path = tmp_path / "dist.csv"
        io.write_distribution_csv(path, dist)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["value", "probability"]
        values = rows[1:]
        assert values[-1][0] == ">=16"
        for (label, prob), expected in zip(values[:-1], dist.probs):
            assert float(prob) == pytest.approx(expected, rel=1e-11, abs=1e-300)
        assert float(values[-1][1]) == pytest.approx(dist.overflow, rel=1e-11, abs=1e-300)

    def test_curve_round_trip(self, tmp_path):
        model = hp.validate_model(
            hp.HmmModel(pi=[1, 0], gamma=[[0.92, 0.08], [0.12, 0.88]], rates=[10, 15])
        )
        y, x = hp.simulate(model, 120, seed=3)
        curve = hp.sweep(model, x, y, hp.default_alpha_grid(16))
        path = tmp_path / "curve.csv"
        io.write_curve_csv(path, curve)
        rows = list(csv.reader(path.open()))[1:]
        assert len(rows) == 17
        for row, alpha, acc, lj in zip(rows, curve.alphas, curve.accuracy, curve.log_joint):
            assert float(row[0]) == pytest.approx(alpha, abs=1e-12)
            assert float(row[1]) == pytest.approx(acc, rel=1e-11)
            assert float(row[2]) == pytest.approx(lj, rel=1e-11)


def _writer_cases():
    """(name, writer call, reference call) on edge inputs for every writer."""
    edge = np.array([0.0, -0.0, 5e-324, 1e-300, 0.1 + 0.2, float("nan")])
    top = np.iinfo(np.int64).max
    counts = np.array([0, 7, top, 1, 12, 3])
    states = np.array([1, 2, 2, 1, 1, 2])
    stays = (edge, edge[::-1].copy())
    study = StudyReport(optimal_alphas=(0.1 + 0.2, None, 5e-324),
                        labels=("ok", "degenerate-scaling", "ok"),
                        average=float("nan"), std=-0.0)
    lone = StudyReport(optimal_alphas=(None,), labels=("degenerate-scaling",),
                       average=float("nan"), std=float("nan"))
    rows = [BlockwiseRow(1, "posterior", 0.1 + 0.2, 0.0),
            BlockwiseRow(2, "hybrid(alpha=0.42)", 1e-300, -0.0),
            BlockwiseRow(500, "viterbi", 5e-324, float("nan"))]
    curve = ArtemisCurve(alphas=edge, accuracy=edge[::-1].copy(), log_joint=-edge,
                         scaled_accuracy=edge, scaled_log_joint=edge, optimal_alpha=None)
    run_counts = ExpectedRunCounts(run_lengths=np.arange(1, 7), expected=edge,
                                   lower_bound=np.array([True, False] * 3))
    cases = [
        ("counts", (io.write_column, "count", counts), (oracles.reference_write_counts, counts)),
        ("counts n=1", (io.write_column, "count", counts[2:3]),
         (oracles.reference_write_counts, counts[2:3])),
        ("states", (io.write_column, "state", states), (oracles.reference_write_states, states)),
        ("decode", (io.write_decode_csv, counts, states, states[::-1], states, edge),
         (oracles.reference_write_decode_csv, counts, states, states[::-1], states, edge)),
        ("decode n=1", (io.write_decode_csv, [top], [2], [1], [2], [0.1 + 0.2]),
         (oracles.reference_write_decode_csv, [top], [2], [1], [2], [0.1 + 0.2])),
        ("stay", (io.write_stay_csv, stays), (oracles.reference_write_stay_csv, stays)),
        ("stay n=1", (io.write_stay_csv, (edge[:0], edge[:0])),
         (oracles.reference_write_stay_csv, (edge[:0], edge[:0]))),
        ("curve", (io.write_curve_csv, curve), (oracles.reference_write_curve_csv, curve)),
        ("study", (io.write_study_csv, study), (oracles.reference_write_study_csv, study)),
        ("study n=1", (io.write_study_csv, lone), (oracles.reference_write_study_csv, lone)),
        ("blockwise", (io.write_blockwise_csv, rows), (oracles.reference_write_blockwise_csv, rows)),
        ("run counts", (io.write_run_counts_csv, run_counts),
         (oracles.reference_write_run_counts_csv, run_counts)),
    ]
    for n in (6, 1):
        dist = Distribution("jumps", np.arange(n), edge[:n], overflow=edge[-n])
        cases.append((f"distribution n={n}", (io.write_distribution_csv, dist),
                      (oracles.reference_write_distribution_csv, dist)))
        freq, marg = np.stack([edge[:n], edge[::-1][:n]], axis=1), np.stack([edge[:n]] * 2, 1)
        cases.append((f"frequency n={n}", (io.write_frequency_csv, freq, marg),
                      (oracles.reference_write_frequency_csv, freq, marg)))
    rng = np.random.default_rng(11)
    for k in (1, 9, 10, 127):
        for n in (1, 40):
            paths = rng.integers(1, k + 1, size=(3, n))
            paths[0, 0] = k
            cases.append((f"samples K={k} n={n}", (io.write_samples_csv, paths),
                          (oracles.reference_write_samples_csv, paths)))
    for k, n in ((2, 40), (3, 40), (127, 40), (128, 40), (1000, 3)):
        # every path starts in state K, so K is written (127 is the int8
        # maximum; 128 and 1000 come back as int16)
        init = np.eye(k)[-1]
        chain = hp.PosteriorChain(init=init, trans=np.full((n - 1, k, k), 1.0 / k))
        paths = hp.sample_posterior_paths(chain, 3, seed=k)
        cases.append((f"sampled {paths.dtype} K={k}", (io.write_samples_csv, paths),
                      (oracles.reference_write_samples_csv, paths)))
    for name, paths in (("negative", np.array([[1, -1, 2], [2, 0, 1]])),
                        ("int8 extremes", np.array([[-128, 127, 0], [5, -5, 1]], dtype=np.int8)),
                        ("mixed widths", np.array([[1, 9, 10, 99, 100]] * 2))):
        cases.append((f"samples {name}", (io.write_samples_csv, paths),
                      (oracles.reference_write_samples_csv, paths)))
    for k in (3, 100):
        # more rows than one block of the byte image holds, without and
        # with the mask that drops the padding of narrower labels
        n = 500
        m = 2 * io._IMAGE_BYTES // (n * (len(str(k)) + 1) + 1) + 1
        paths = rng.integers(1, k + 1, size=(m, n)).astype(np.int8)
        cases.append((f"samples K={k} over blocks", (io.write_samples_csv, paths),
                      (oracles.reference_write_samples_csv, paths)))
    for n in (io._ROW_BLOCK - 1, io._ROW_BLOCK, io._ROW_BLOCK + 1):
        values = np.resize(edge, n)
        labels = np.resize(states, n)
        cases.append((f"decode n={n}", (io.write_decode_csv, np.arange(n), labels, labels, labels, values),
                      (oracles.reference_write_decode_csv, np.arange(n), labels, labels, labels, values)))
        many = (rows * n)[:n]
        cases.append((f"blockwise n={n}", (io.write_blockwise_csv, many),
                      (oracles.reference_write_blockwise_csv, many)))
    return cases


def test_writers_match_the_csv_writer_reference(tmp_path):
    mismatched = []
    for i, (name, (writer, *args), (reference, *ref_args)) in enumerate(_writer_cases()):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        writer(got, *args)
        reference(want, *ref_args)
        if got.read_bytes() != want.read_bytes():
            mismatched.append(name)
    assert mismatched == []


def test_samples_writer_memory_is_a_block(tmp_path):
    # 200 paths of 2*10^4 int8 labels take 4 MB, their whole byte image
    # 8 MB and an intp index of them 32 MB; the writer holds one block of
    # the image at a time
    paths = np.random.default_rng(3).integers(1, 4, size=(200, 20_000)).astype(np.int8)
    tracemalloc.start()
    try:
        io.write_samples_csv(tmp_path / "samples.csv", paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_readme_library_block_runs(monkeypatch):
    readme = (REPO_ROOT / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    monkeypatch.chdir(REPO_ROOT)
    namespace = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, "README.md", "exec"), namespace)
    # a comment "(rows, n) <dtype> labels" states the shape and dtype of the
    # array its line assigns
    claims = re.findall(r"^(\w+) = .*# \((\d+), n\) (\w+) labels", code, re.MULTILINE)
    assert [name for name, _, _ in claims] == ["paths", "decoded"]
    n = namespace["x"].size
    for name, rows, dtype in claims:
        value = namespace[name]
        assert (value.shape, value.dtype) == ((int(rows), n), np.dtype(dtype)), name


def test_every_exported_function_is_called_in_the_package():
    # a public function that only tests call belongs in the tests
    package = Path(hp.__file__).parent
    sources = "\n".join(path.read_text() for path in package.rglob("*.py"))
    exported = [name for name, value in vars(hp).items() if inspect.isfunction(value)]
    assert len(exported) > 20
    assert [name for name in exported if not re.search(rf"(?<!def )\b{name}\(", sources)] == []


def test_every_private_helper_is_used_in_the_package():
    # a private function or constant that nothing reads is left over
    sources = "\n".join(path.read_text() for path in Path(hp.__file__).parent.rglob("*.py"))
    defined = re.findall(r"^\s*def (_[a-z]\w*)\(|^(_[A-Z][A-Z0-9_]*) = ", sources, re.M)
    names = {function or constant for function, constant in defined}
    assert len(names) > 20
    unused = [name for name in sorted(names)
              if len(re.findall(rf"\b{name}\b", sources)) <= len(re.findall(
                  rf"^\s*def {name}\(|^{name} = ", sources, re.M))]
    assert unused == []


def run_cli(args):
    return main([str(a) for a in args])


class TestCliDecode:
    def test_earthquake_decode_differences(self, tmp_path, capsys):
        rc = run_cli(["decode", "--model", "earthquakes", "--obs", "earthquakes",
                      "--out", tmp_path, "--alpha", "0.3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "loglik=" in out
        rows = list(csv.DictReader((tmp_path / "decode.csv").open()))
        assert len(rows) == 107
        diff_years = [
            1899 + int(r["t"]) for r in rows
            if r["posterior_state"] != r["viterbi_state"]
        ]
        assert diff_years == [1918, 1973]

    def test_lamb_decode_identical_columns(self, tmp_path):
        rc = run_cli(["decode", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path, "--renormalize"])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "decode.csv").open()))
        assert len(rows) == 225
        assert all(r["posterior_state"] == r["viterbi_state"] for r in rows)

    @pytest.mark.parametrize("alpha", ["nan", "1.5", "-0.1"])
    def test_alpha_is_checked_first(self, tmp_path, capsys, alpha):
        # neither input exists, so reading one first would end in a parse error
        out = tmp_path / "out"
        rc = run_cli(["decode", "--model", tmp_path / "missing.txt",
                      "--obs", tmp_path / "missing.csv", "--out", out, "--alpha", alpha])
        assert rc == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: argument-error: alpha values must lie in [0, 1]"]
        assert not out.exists()

    def test_lamb_without_renormalize_fails_validation(self, tmp_path, capsys):
        rc = run_cli(["decode", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path])
        assert rc == 3
        assert "model-validation" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("line", ["pi 1 0", "gamma 0.9 0.1", "lambda 1.5 6.0"])
    def test_non_finite_parameter_fails_validation(self, tmp_path, capsys, line, bad):
        # the last entry of the line becomes non-finite
        text = MODEL_TEXT.replace(line, f"{line.rsplit(' ', 1)[0]} {bad}")
        model = write(tmp_path, "m.txt", text)
        rc = run_cli(["decode", "--model", model, "--obs", "earthquakes", "--out", tmp_path])
        assert rc == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: model-validation: ")

    def test_empty_observations_parse_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = run_cli(["decode", "--model", "earthquakes", "--obs", empty,
                      "--out", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "parse-error" in err and "empty.csv" in err

    def test_count_beyond_int64_parse_error(self, tmp_path, capsys):
        obs = write(tmp_path, "huge.csv", "3\n100000000000000000000000000000\n")
        rc = run_cli(["decode", "--model", "earthquakes", "--obs", obs, "--out", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: parse-error: ")
        assert "huge.csv:2" in err[0]

    @pytest.mark.parametrize("flag", ["--model", "--obs"])
    def test_non_utf8_file_parse_error(self, tmp_path, capsys, flag):
        bad = tmp_path / "latin.bin"
        bad.write_bytes(b"\xff")
        model, obs = (bad, "earthquakes") if flag == "--model" else ("earthquakes", bad)
        rc = run_cli(["decode", "--model", model, "--obs", obs, "--out", tmp_path])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: parse-error: ")
        assert "latin.bin" in err[0]


class TestCliFmci:
    def test_positions_tail_from_published_analysis(self, tmp_path):
        rc = run_cli(["fmci", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path, "--renormalize", "--statistic", "positions",
                      "--ell", "40", "--seed", "1"])
        assert rc == 0
        rows = list(csv.reader((tmp_path / "fmci_positions.csv").open()))[1:]
        tail = sum(float(p) for v, p in rows if v.startswith(">=") or int(v) >= 11)
        assert tail > 0.15
        assert (tmp_path / "stay_probs.csv").exists()

    def test_rejects_three_state_model(self, tmp_path, capsys):
        model = tmp_path / "m3.txt"
        model.write_text(
            "states 3\npi 0.8 0.1 0.1\n"
            "gamma 0.8 0.1 0.1\ngamma 0.1 0.8 0.1\ngamma 0.1 0.1 0.8\n"
            "lambda 15 20 25\n"
        )
        obs = tmp_path / "x.csv"
        obs.write_text("1\n2\n3\n")
        rc = run_cli(["fmci", "--model", model, "--obs", obs, "--out", tmp_path])
        assert rc == 4
        assert "two-state-required" in capsys.readouterr().err

    def test_small_truncation_reports_overflow(self, tmp_path):
        rc = run_cli(["fmci", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path, "--renormalize", "--statistic", "positions",
                      "--ell", "2"])
        assert rc == 0
        rows = list(csv.reader((tmp_path / "fmci_positions.csv").open()))[1:]
        assert rows[-1][0] == ">=3"
        assert float(rows[-1][1]) > 0

    def test_auto_truncation_logged(self, tmp_path, capsys):
        rc = run_cli(["fmci", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path, "--renormalize", "--statistic", "jumps"])
        assert rc == 0
        # n = 225 positions hold at most 112 jumps, so the level is exact
        assert "auto truncation for jumps: 112" in capsys.readouterr().out

    def test_exact_run_statistic_and_expected_counts(self, tmp_path):
        rc = run_cli(["fmci", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path, "--renormalize", "--statistic", "exact-run:2",
                      "--ell", "12", "--expected-runs", "4"])
        assert rc == 0
        assert (tmp_path / "fmci_exact_run_2.csv").exists()
        rows = list(csv.reader((tmp_path / "expected_run_counts.csv").open()))
        assert rows[0] == ["k", "expected_count", "lower_bound_flag"]
        assert len(rows) == 5

    @pytest.mark.parametrize("ell", ["auto", "12"])
    def test_expected_counts_reuse_the_exact_run_distribution(self, tmp_path, monkeypatch, ell):
        calls = []

        def counted(spec, chain, _propagate=fmci.propagate):
            calls.append(spec.statistic)
            return _propagate(spec, chain)

        monkeypatch.setattr(fmci, "propagate", counted)
        monkeypatch.setattr(cli, "propagate", counted)
        for name, statistic in (("reused", "exact-run:3"), ("alone", "jumps")):
            rc = run_cli(["fmci", "--model", "earthquakes", "--obs", "earthquakes",
                          "--out", tmp_path / name, "--ell", ell, "--statistic", statistic,
                          "--expected-runs", "5"])
            assert rc == 0
        # exact_run:3 is propagated once for its distribution and not again
        assert calls == ["exact_run"] * 5 + ["jumps"] + ["exact_run"] * 5
        assert (tmp_path / "reused" / "expected_run_counts.csv").read_bytes() == (
            tmp_path / "alone" / "expected_run_counts.csv").read_bytes()

    def test_target_state_swap_changes_distribution(self, tmp_path):
        rc = run_cli(["fmci", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path / "s2", "--renormalize",
                      "--statistic", "positions", "--ell", "225"])
        assert rc == 0
        rc = run_cli(["fmci", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path / "s1", "--renormalize",
                      "--statistic", "positions", "--ell", "225", "--target-state", "1"])
        assert rc == 0
        p2 = list(csv.reader((tmp_path / "s2" / "fmci_positions.csv").open()))[1:]
        p1 = list(csv.reader((tmp_path / "s1" / "fmci_positions.csv").open()))[1:]
        mean2 = sum(int(v) * float(p) for v, p in p2 if not v.startswith(">="))
        mean1 = sum(int(v) * float(p) for v, p in p1 if not v.startswith(">="))
        assert mean1 + mean2 == pytest.approx(225, abs=1.0)

    @pytest.mark.parametrize("args,named", [
        (["--ell", "abc"], "--ell"),
        (["--ell", "0"], "--ell"),
        (["--statistic", "exact-run:108"], "n = 107"),
        (["--statistic", "jumps", "--expected-runs", "108"], "n = 107"),
    ])
    def test_bad_arguments_fail_before_forward_backward(
        self, tmp_path, capsys, monkeypatch, args, named
    ):
        def refuse(*_):
            raise AssertionError("forward_backward ran before the arguments were checked")

        monkeypatch.setattr(cli, "forward_backward", refuse)
        rc = run_cli(["fmci", "--model", "earthquakes", "--obs", "earthquakes",
                      "--out", tmp_path, *args])
        assert rc == 7
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument-error: ")
        assert named in err[0]

    def test_run_length_equal_to_the_series_length_is_accepted(self, tmp_path):
        rc = run_cli(["fmci", "--model", "earthquakes", "--obs", "earthquakes",
                      "--out", tmp_path, "--statistic", "exact-run:107"])
        assert rc == 0
        assert (tmp_path / "fmci_exact_run_107.csv").exists()

    def test_longest_run_beyond_the_state_budget_is_refused(self, tmp_path, capsys, monkeypatch):
        # 2000 counts of 30 keep the posterior in state 2, so the exact level
        # is 1999, whose run-length arrays would take 8 * 1999^2 bytes
        obs = write(tmp_path, "x.csv", "30\n" * 2000)

        def refuse(*_):
            raise AssertionError("the imbedding was built before its size was checked")

        monkeypatch.setattr(cli, "build_spec", refuse)
        out = tmp_path / "out"
        rc = run_cli(["fmci", "--model", "earthquakes", "--obs", obs, "--out", out,
                      "--statistic", "longest-run"])
        assert rc == 7
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument-error: ")
        assert "level 1999 is above 1412" in err[0] and "about 32 MB" in err[0]
        assert "--ell" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("statistics", [["--statistic", "longest-run"], []])
    def test_fixed_longest_run_level_is_checked_first(
        self, tmp_path, capsys, monkeypatch, statistics
    ):
        # the default statistics include longest-run
        def refuse(*_):
            raise AssertionError("forward_backward ran before the level was checked")

        monkeypatch.setattr(cli, "forward_backward", refuse)
        out = tmp_path / "out"
        rc = run_cli(["fmci", "--model", "earthquakes", "--obs", "earthquakes",
                      "--ell", "2000", *statistics, "--out", out])
        assert rc == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: argument-error: longest-run level 2000 is above 1412, the largest "
            "accepted: its run-length arrays would take about 32 MB (8 * level^2 bytes); "
            "pass a smaller --ell to get a truncated distribution"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("extra,expected_levels", [
        ([], [53]),
        (["--statistic", "exact-run:3", "--expected-runs", "4"], [53, 27, 54, 36, 21]),
    ])
    def test_fixed_level_far_above_the_series_is_lowered(
        self, tmp_path, monkeypatch, extra, expected_levels
    ):
        # n = 107 positions hold at most 53 jumps and (n + 1) // (k + 1) runs
        # of exactly k; imbeddings at a level of 10^8 would take gigabytes
        largest = {("jumps", None): 53, ("exact_run", 1): 54, ("exact_run", 2): 36,
                   ("exact_run", 3): 27, ("exact_run", 4): 21}
        levels = []

        def spy(statistic, truncation, run_length=None, _build=fmci.build_spec):
            assert truncation <= largest[statistic, run_length]
            levels.append(truncation)
            return _build(statistic, truncation, run_length)

        monkeypatch.setattr(cli, "build_spec", spy)
        monkeypatch.setattr(fmci, "build_spec", spy)
        out = tmp_path / "out"
        rc = run_cli(["fmci", "--model", "earthquakes", "--obs", "earthquakes",
                      "--ell", "100000000", "--statistic", "jumps", *extra, "--out", out])
        assert rc == 0
        assert levels == expected_levels
        rows = list(csv.reader((out / "fmci_jumps.csv").open()))
        assert rows[-1] == [">=54", "0"]


    def test_fixed_longest_run_level_above_the_series_is_lowered(self, tmp_path, monkeypatch):
        # no run of n = 107 positions is longer than 107
        levels = []

        def spy(statistic, truncation, run_length=None, _build=fmci.build_spec):
            levels.append(truncation)
            return _build(statistic, truncation, run_length)

        monkeypatch.setattr(cli, "build_spec", spy)
        out = tmp_path / "out"
        rc = run_cli(["fmci", "--model", "earthquakes", "--obs", "earthquakes",
                      "--ell", "1412", "--statistic", "longest-run", "--out", out])
        assert rc == 0
        assert levels == [107]
        rows = list(csv.reader((out / "fmci_longest_run.csv").open()))
        assert len(rows) == 110  # header, the values 0..107, the overflow
        assert rows[-1] == [">=108", "0"]


class TestCliSample:
    def test_samples_and_frequencies(self, tmp_path):
        rc = run_cli(["sample", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path, "--renormalize", "--samples", "50",
                      "--seed", "7"])
        assert rc == 0
        samples = list(csv.reader((tmp_path / "samples.csv").open()))
        assert len(samples) == 51  # header plus 50 paths
        assert len(samples[0]) == 225
        freq = list(csv.DictReader((tmp_path / "frequencies.csv").open()))
        assert len(freq) == 225
        for row in freq[:10]:
            assert 0.0 <= float(row["frequency_state_2"]) <= 1.0

    def test_zero_samples_is_argument_error(self, tmp_path, capsys):
        rc = run_cli(["sample", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                      "--out", tmp_path, "--renormalize", "--samples", "0"])
        assert rc == 7
        assert "argument-error" in capsys.readouterr().err

    def test_outputs_match_the_int64_sampler(self, tmp_path, earthquake_model,
                                             earthquake_counts):
        rc = run_cli(["sample", "--model", "earthquakes", "--obs", "earthquakes",
                      "--out", tmp_path, "--samples", "300", "--seed", "2026"])
        assert rc == 0
        tables = hp.forward_backward(earthquake_model, earthquake_counts)
        chain = hp.build_posterior_chain(earthquake_model, tables)
        paths = oracles.reference_sample_posterior_paths(chain, 300, 2026)
        frequencies = np.stack([(paths == j + 1).mean(axis=0) for j in range(2)], axis=1)
        oracles.reference_write_samples_csv(tmp_path / "want_samples.csv", paths)
        oracles.reference_write_frequency_csv(tmp_path / "want_frequencies.csv", frequencies,
                                              hp.posterior_marginals(tables))
        for name in ("samples", "frequencies"):
            assert (tmp_path / f"{name}.csv").read_bytes() == (
                tmp_path / f"want_{name}.csv").read_bytes()

    def test_reproducible_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            rc = run_cli(["sample", "--model", "fetal-lamb", "--obs", "fetal-lamb",
                          "--out", tmp_path / sub, "--renormalize", "--samples", "5",
                          "--seed", "11"])
            assert rc == 0
        assert (tmp_path / "a" / "samples.csv").read_text() == (
            tmp_path / "b" / "samples.csv").read_text()


class TestCliArtemisAndBlockwise:
    def test_artemis_small_n_warns_and_writes(self, tmp_path, capsys):
        model = tmp_path / "m.txt"
        model.write_text(MODEL_TEXT)
        rc = run_cli(["artemis", "--model", model, "--out", tmp_path,
                      "--n", "100", "--replicates", "2", "--alpha-grid", "16",
                      "--seed", "5"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "stabilize" in err
        assert (tmp_path / "artemis_study.csv").exists()
        assert (tmp_path / "artemis_curve_1.csv").exists()
        assert (tmp_path / "artemis_curve_2.csv").exists()

    def test_artemis_given_data_mode(self, tmp_path):
        model_path = tmp_path / "m.txt"
        model_path.write_text(MODEL_TEXT)
        m = io.read_model(model_path)
        # seed 0 gives an instance where the decoders disagree, so the
        # sweep is non-degenerate and the crossing is defined
        y, x = hp.simulate(hp.validate_model(m), 300, seed=0)
        io.write_column(tmp_path / "x.csv", "count", x)
        (tmp_path / "y.csv").write_text("\n".join(str(v) for v in y) + "\n")
        rc = run_cli(["artemis", "--model", model_path, "--obs", tmp_path / "x.csv",
                      "--states", tmp_path / "y.csv", "--out", tmp_path,
                      "--alpha-grid", "32"])
        assert rc == 0
        assert (tmp_path / "artemis_curve.csv").exists()

    def test_artemis_given_data_degenerate_exit(self, tmp_path, capsys):
        model_path = tmp_path / "m.txt"
        model_path.write_text(MODEL_TEXT)
        m = io.read_model(model_path)
        # seed 2 gives an instance where every hybrid path coincides, so
        # both axes are constant; the curve file is still produced
        y, x = hp.simulate(hp.validate_model(m), 300, seed=2)
        io.write_column(tmp_path / "x.csv", "count", x)
        (tmp_path / "y.csv").write_text("\n".join(str(v) for v in y) + "\n")
        rc = run_cli(["artemis", "--model", model_path, "--obs", tmp_path / "x.csv",
                      "--states", tmp_path / "y.csv", "--out", tmp_path,
                      "--alpha-grid", "32"])
        assert rc == 5
        assert "degenerate-scaling" in capsys.readouterr().err
        assert (tmp_path / "artemis_curve.csv").exists()

    def test_artemis_given_data_length_mismatch(self, tmp_path, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("forward_backward ran before the lengths were checked")

        monkeypatch.setattr(hp.artemis, "forward_backward", refuse)
        obs = write(tmp_path, "x50.csv", "3\n" * 50)
        states = write(tmp_path, "y40.csv", "1\n" * 40)
        rc = run_cli(["artemis", "--model", "earthquakes", "--obs", obs, "--states", states,
                      "--out", tmp_path])
        assert rc == 7
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument-error: ")
        assert "40 states" in err[0] and "50 observations" in err[0]

    def test_artemis_determinism(self, tmp_path):
        model = tmp_path / "m.txt"
        model.write_text(MODEL_TEXT)
        for sub in ("a", "b"):
            rc = run_cli(["artemis", "--model", model, "--out", tmp_path / sub,
                          "--n", "200", "--replicates", "2", "--alpha-grid", "8",
                          "--seed", "13"])
            assert rc == 0
        assert (tmp_path / "a" / "artemis_study.csv").read_text() == (
            tmp_path / "b" / "artemis_study.csv").read_text()

    def test_artemis_all_replicates_degenerate_exit(self, tmp_path, capsys):
        rc = run_cli(["artemis", "--model", "earthquakes", "--out", tmp_path,
                      "--n", "1", "--replicates", "1", "--alpha-grid", "2"])
        assert rc == 5
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: degenerate-scaling:")
        assert "nan" not in captured.out
        assert (tmp_path / "artemis_study.csv").exists()

    @pytest.mark.parametrize("command", [["artemis"], ["blockwise", "--alpha", "0.4"]])
    @pytest.mark.parametrize("option,message", [
        ("--n", "sequence length must be at least 1"),
        ("--replicates", "need at least one replicate"),
    ])
    def test_nonpositive_size_is_one_error_line(self, tmp_path, capsys, command, option, message):
        # checked before the small-n warning and before --out is made
        out = tmp_path / "out"
        rc = run_cli([*command, "--model", "earthquakes", "--out", out, option, "0"])
        assert rc == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: argument-error: {message}"]
        assert not out.exists()

    def test_blockwise_outputs(self, tmp_path):
        model = tmp_path / "m.txt"
        model.write_text(MODEL_TEXT)
        rc = run_cli(["blockwise", "--model", model, "--out", tmp_path,
                      "--alpha", "0.4", "--n", "300", "--replicates", "2",
                      "--block-sizes", "1,2,5", "--seed", "3"])
        assert rc == 0
        rows = list(csv.DictReader((tmp_path / "blockwise.csv").open()))
        assert {r["method"] for r in rows} == {"posterior", "hybrid(alpha=0.4)", "viterbi"}
        assert {int(r["block_size"]) for r in rows} == {1, 2, 5}

    def test_blockwise_nan_alpha_is_argument_error(self, tmp_path, capsys):
        model = write(tmp_path, "m.txt", MODEL_TEXT)
        rc = run_cli(["blockwise", "--model", model, "--out", tmp_path, "--alpha", "nan",
                      "--n", "50", "--replicates", "1", "--block-sizes", "1"])
        assert rc == 7
        assert "argument-error" in capsys.readouterr().err

    def test_blockwise_bad_block_size_names_the_option(self, tmp_path, capsys):
        rc = run_cli(["blockwise", "--model", "earthquakes", "--out", tmp_path,
                      "--alpha", "0.4", "--n", "50", "--replicates", "1",
                      "--block-sizes", "1,x"])
        assert rc == 7
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: argument-error: ")
        assert "--block-sizes" in err[0] and "'1,x'" in err[0]

    @pytest.mark.parametrize("alpha", ["nan", "1.5", "-0.1"])
    def test_blockwise_alpha_is_checked_first(self, tmp_path, capsys, alpha):
        # the model file does not exist, so reading any input first would
        # end in a parse error
        out = tmp_path / "out"
        rc = run_cli(["blockwise", "--model", tmp_path / "missing.txt", "--out", out,
                      "--alpha", alpha, "--n", "50", "--replicates", "1"])
        assert rc == 7
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: argument-error: alpha values must lie in [0, 1]"]
        assert not out.exists()


class TestCliSimulate:
    def test_writes_both_series(self, tmp_path):
        rc = run_cli(["simulate", "--model", "earthquakes", "--out", tmp_path,
                      "--n", "40", "--seed", "15"])
        assert rc == 0
        counts = io.read_counts(tmp_path / "observations.csv")
        assert counts.size == 40
        states = (tmp_path / "states.csv").read_text().splitlines()
        assert states[0] == "state" and len(states) == 41

    def test_artemis_reads_the_simulated_series(self, tmp_path):
        model_path = write(tmp_path, "m.txt", MODEL_TEXT)
        sim = tmp_path / "sim"
        assert run_cli(["simulate", "--model", model_path, "--n", "300", "--seed", "0",
                        "--out", sim]) == 0
        # seed 0 gives an instance where the decoders disagree, as in
        # test_artemis_given_data_mode, so the sweep is non-degenerate
        rc = run_cli(["artemis", "--model", model_path, "--obs", sim / "observations.csv",
                      "--states", sim / "states.csv", "--out", tmp_path / "art",
                      "--alpha-grid", "32"])
        assert rc == 0
        assert (tmp_path / "art" / "artemis_curve.csv").exists()

    def test_missing_obs_for_decode_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["decode", "--model", "earthquakes", "--out", tmp_path])
        assert exc.value.code == 2


@pytest.mark.parametrize("args,message", [
    (["sample", "--obs", "earthquakes", "--samples", "0"], "number of paths must be at least 1"),
    (["sample", "--obs", "earthquakes", "--samples", "-3"], "number of paths must be at least 1"),
    (["simulate", "--n", "0"], "sequence length must be at least 1"),
    (["simulate", "--n", "-5"], "sequence length must be at least 1"),
])
def test_nonpositive_draw_count_is_one_error_line(tmp_path, capsys, monkeypatch, args, message):
    # checked before any input is read and before --out is made
    def refuse(*_):
        raise AssertionError("forward_backward ran before the count was checked")

    monkeypatch.setattr(cli, "forward_backward", refuse)
    out = tmp_path / "out"
    rc = run_cli([*args, "--model", "earthquakes", "--out", out])
    assert rc == 7
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: argument-error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("args,code,message", [
    (["decode", "--obs", "{big}"], 6, "impossible-observation: no state the initial "
     "distribution allows can emit count 100000 at position 1"),
    (["sample", "--obs", "{big}", "--samples", "5"], 6, "impossible-observation: no state "
     "the initial distribution allows can emit count 100000 at position 1"),
    (["artemis", "--obs", "earthquakes"], 7,
     "argument-error: --obs also needs --states (the true hidden sequence)"),
    (["artemis", "--alpha-grid", "0"], 7, "argument-error: denominator must be at least 1"),
    (["artemis", "--obs", "earthquakes", "--states", "{big}"], 7,
     "argument-error: state labels must lie in 1..2"),
    (["blockwise", "--alpha", "0.4", "--block-sizes", "1,x"], 7,
     "argument-error: --block-sizes must be comma-separated integers, got '1,x'"),
    (["blockwise", "--alpha", "0.4", "--n", "100", "--block-sizes", "1,500"], 7,
     "argument-error: block size must lie in 1..100, got 500"),
], ids=["decode-impossible", "sample-impossible", "artemis-no-states", "artemis-grid-0",
        "artemis-bad-label", "blockwise-not-integer", "blockwise-block-beyond-n"])
def test_failed_command_leaves_no_out(tmp_path, capsys, args, code, message):
    # the earthquake model starts in state 1, which cannot emit 100000; as a
    # state label 100000 lies outside 1..2
    big = write(tmp_path, "big.csv", "100000\n3\n")
    out = tmp_path / "out"
    args = [arg.format(big=big) for arg in args]
    rc = run_cli([*args, "--model", "earthquakes", "--out", out])
    assert rc == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("model", [
    "pi 1 0\ngamma 1 0\ngamma 0 1\nlambda 1 50\n",
    "pi 0 1\ngamma 0.9 0.1\ngamma 0 1\nlambda 20 5\n",  # left to right
], ids=["unreachable", "left-to-right"])
@pytest.mark.parametrize("args", [
    ["fmci", "--statistic", "positions"], ["sample", "--samples", "5"], ["decode"],
], ids=lambda args: args[0])
def test_backward_overflow_is_one_error_line(tmp_path, capsys, model, args):
    # the earthquake counts favour a state these chains cannot reach for most
    # of the series: no NaN output and no wrong impossible-sequence error
    path = write(tmp_path, "model.txt", "states 2\n" + model)
    out = tmp_path / "out"
    rc = run_cli([*args, "--model", path, "--obs", "earthquakes", "--out", out])
    assert rc == 10
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: numerical-overflow: the scaled backward table overflows")
    assert not out.exists()


@pytest.mark.parametrize("args", [["decode"], ["sample", "--samples", "5"]],
                         ids=lambda args: args[0])
def test_unnormalized_posterior_is_one_error_line(tmp_path, capsys, args):
    # the scaled tables of this extreme model lose a path's mass, so the
    # marginal rows sum to 1.0151: an error, not a file with them
    model = write(tmp_path, "model.txt", "states 3\npi 0.826762 0 0.173238\n"
                  "gamma 0 1 0\ngamma 0 0.589786 0.410214\ngamma 0.100414 0.044936 0.85465\n"
                  "lambda 2.051065 0.001458799 0.002578432\n")
    obs = write(tmp_path, "x.csv", "79\n82\n75\n65\n")
    out = tmp_path / "out"
    rc = run_cli([*args, "--model", model, "--obs", obs, "--renormalize", "--out", out])
    assert rc == 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: numerical-error: the posterior marginals at position 1 sum to 1.01509915932, "
        "not 1 within 1e-9: the scaled tables lost probability mass to underflow, so the "
        "posterior cannot be computed in double precision"
    ]
    assert not out.exists()


def test_log_joint_above_the_loglik_is_one_error_line(tmp_path, capsys):
    # emissions more than about 708 nats below the best state's underflow,
    # so the loglik misses the likely paths: the Viterbi path's log joint
    # probability is above it, which no path can be
    model = write(tmp_path, "model.txt", "states 3\npi 0.23428 0.76572 0\n"
                  "gamma 0.468382 0 0.531618\ngamma 0.264459 0 0.735541\n"
                  "gamma 0.596424 0.01469 0.388885\nlambda 0.5727204 37.12651 0.02349634\n")
    obs = write(tmp_path, "x.csv", "175\n176\n172\n172\n")
    out = tmp_path / "out"
    rc = run_cli(["decode", "--model", model, "--obs", obs, "--renormalize", "--out", out])
    assert rc == 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: numerical-error: the viterbi path's log joint probability -2473.95091241 "
        "exceeds the log-likelihood -2602.85025229: the scaled tables lost probability mass "
        "to underflow, so the posterior cannot be computed in double precision"
    )
    assert len(captured.err.splitlines()) == 2  # after the renormalization note
    assert not out.exists()


_SEED_COMMANDS = {
    "decode": ["--obs", "earthquakes"],
    "fmci": ["--obs", "earthquakes", "--statistic", "jumps"],
    "sample": ["--obs", "earthquakes", "--samples", "3"],
    "artemis": ["--n", "200", "--replicates", "1", "--alpha-grid", "4"],
    "blockwise": ["--alpha", "0.4", "--n", "60", "--replicates", "1", "--block-sizes", "1,2"],
    "simulate": ["--n", "20"],
}


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 - 1])
@pytest.mark.parametrize("command", sorted(_SEED_COMMANDS))
def test_seed_is_a_64_bit_unsigned_integer(tmp_path, capsys, command, seed):
    # one range for every subcommand, checked before any input is read and --out is made
    out = tmp_path / "out"
    rc = run_cli([command, "--model", "earthquakes", *_SEED_COMMANDS[command],
                  "--seed", seed, "--out", out])
    captured = capsys.readouterr()
    if seed == 2**64 - 1:
        assert rc == 0 and out.is_dir()
        return
    assert rc == 7
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: argument-error: --seed must be an integer in 0..2^64-1, got {seed}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("command, target, args", [
    ("sample", "sample_posterior_paths",
     ["--obs", "earthquakes", "--samples", "1000000000"]),
    ("artemis", "default_alpha_grid", ["--alpha-grid", "100000000000"]),
])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, command, target, args):
    def allocate(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 149. TiB for an array")

    monkeypatch.setattr(cli, target, allocate)
    rc = run_cli([command, "--model", "earthquakes", "--out", tmp_path, *args])
    assert rc == 9
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: out-of-memory: Unable to allocate 149. TiB for an array"]


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from hmmposterior.cli import main

out = sys.argv[1]
eq = ["--model", "earthquakes"]
calls = [
    ["decode", *eq, "--obs", "earthquakes", "--alpha", "0.3"],
    ["fmci", *eq, "--obs", "earthquakes", "--statistic", "jumps", "--statistic", "runs",
     "--statistic", "positions", "--statistic", "longest-run", "--statistic", "exact-run:3",
     "--expected-runs", "3"],
    ["sample", "--model", "fetal-lamb", "--obs", "fetal-lamb", "--renormalize",
     "--samples", "20"],
    ["simulate", *eq, "--n", "100"],
    ["artemis", *eq, "--n", "2000", "--replicates", "1", "--alpha-grid", "16"],
    ["blockwise", *eq, "--alpha", "0.4", "--n", "500", "--replicates", "1",
     "--block-sizes", "1,5"],
]
codes = [main([*args, "--out", f"{out}/{args[0]}"]) for args in calls]
loaded = sorted(name for name, module in sys.modules.items()
                if name.startswith("scipy") and module is not None)
print(codes, loaded)
"""


def test_cli_runs_without_scipy(tmp_path):
    src = str(Path(hp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"
