import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hmmposterior as hp
from hmmposterior import io
from hmmposterior.cli import main
from hmmposterior.data import fixture_path


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
        with_header = io.read_counts(write(tmp_path, "a.csv", "count\n1\n2\n"))
        without = io.read_counts(write(tmp_path, "b.csv", "1\n2\n"))
        assert with_header.tolist() == without.tolist() == [1, 2]

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
        spec = hp.build_positions_chain(15)
        dist = hp.aggregate(spec, hp.propagate(spec, lamb_chain))
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
        io.write_counts(tmp_path / "x.csv", x)
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
        io.write_counts(tmp_path / "x.csv", x)
        (tmp_path / "y.csv").write_text("\n".join(str(v) for v in y) + "\n")
        rc = run_cli(["artemis", "--model", model_path, "--obs", tmp_path / "x.csv",
                      "--states", tmp_path / "y.csv", "--out", tmp_path,
                      "--alpha-grid", "32"])
        assert rc == 5
        assert "degenerate-scaling" in capsys.readouterr().err
        assert (tmp_path / "artemis_curve.csv").exists()

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


class TestCliSimulate:
    def test_writes_both_series(self, tmp_path):
        rc = run_cli(["simulate", "--model", "earthquakes", "--out", tmp_path,
                      "--n", "40", "--seed", "15"])
        assert rc == 0
        counts = io.read_counts(tmp_path / "observations.csv")
        assert counts.size == 40
        states = (tmp_path / "states.csv").read_text().splitlines()
        assert states[0] == "state" and len(states) == 41

    def test_missing_obs_for_decode_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["decode", "--model", "earthquakes", "--out", tmp_path])
        assert exc.value.code == 2


def test_cli_import_leaves_scipy_sparse_unloaded():
    src = str(Path(hp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, hmmposterior.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
