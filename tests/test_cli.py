"""Command-line behavior: forecast tables, exit codes, evaluation runs,
and the selftest matrix (including its negative control)."""

from __future__ import annotations

import csv
import json
from datetime import date

import pytest

from conftest import FEB_538100, MAR_538100, sku_rows, write_jsonl
from stockcast.cli import EXIT_INPUT, EXIT_OK, EXIT_SELFTEST, main


class TestForecast:
    def test_reference_counts_table(self, capsys):
        rc = main(["forecast", "--counts", "17,7,4", "-m", "5", "--horizon", "31"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        data_lines = [line for line in out.splitlines()[2:] if line.strip()]
        assert len(data_lines) == 31
        # normalized CDF ends at certainty
        assert data_lines[-1].split()[-1] == "1.000000"

    def test_deterministic_step(self, capsys):
        rc = main(["forecast", "--model", "deterministic", "--h", "1", "-m", "2", "--horizon", "4"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        p0_column = [line.split()[1] for line in out.splitlines()[2:] if line.strip()]
        assert p0_column == ["0.000000", "1.000000", "1.000000", "1.000000"]

    def test_json_format(self, capsys):
        rc = main(["forecast", "--counts", "17,7,4", "-m", "3", "--horizon", "5", "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 3
        assert len(payload["rows"]) == 5
        assert payload["rows"][-1]["g"] == pytest.approx(1.0)

    def test_invalid_stock_is_usage_error(self, capsys):
        rc = main(["forecast", "--counts", "1,1", "-m", "0"])
        assert rc == EXIT_INPUT

    def test_missing_model_params(self):
        assert main(["forecast", "--model", "poisson", "-m", "2"]) == EXIT_INPUT

    def test_parametric_forecast(self, capsys):
        rc = main(["forecast", "--model", "poisson", "--rate", "1.0", "-m", "2", "--horizon", "3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "poisson" in out

    def test_deterministic_output_is_reproducible(self, capsys):
        argv = ["forecast", "--counts", "17,7,4", "-m", "4", "--horizon", "10"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        assert main(argv) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second


class TestEstimate:
    def test_from_series(self, ref_sales_file, capsys):
        rc = main(
            [
                "estimate",
                "--series",
                str(ref_sales_file),
                "--sku",
                "538100",
                "--train-window",
                "2021-02",
                "--format",
                "json",
            ]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_days"] == 28
        assert payload["mean"] == pytest.approx(15 / 28)
        assert payload["selected"] == "binomial"

    def test_ddof_switch(self, ref_sales_file, capsys):
        rc = main(
            [
                "estimate",
                "--series",
                str(ref_sales_file),
                "--sku",
                "538100",
                "--train-window",
                "2021-02",
                "--ddof",
                "1",
                "--format",
                "json",
            ]
        )
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["selected"] == "negative_binomial"

    def test_from_inline_counts(self, capsys):
        rc = main(["estimate", "--counts", "17,7,4", "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_days"] == 28
        assert payload["mean"] == pytest.approx(15 / 28)
        assert payload["variance"] == pytest.approx(23 / 28 - (15 / 28) ** 2)

    def test_sku_with_leading_zeros(self, tmp_path, capsys):
        # "007" is not the canonical form of 7: two SKUs on one date, not a duplicate
        path = tmp_path / "ids.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["sku", "date", "sold_quantity"])
            writer.writerow(["007", "2021-02-01", 3])
            writer.writerow(["7", "2021-02-01", 5])
        argv = ["estimate", "--series", str(path), "--train-window", "2021-02", "--format", "json"]
        assert main(argv + ["--sku", "007"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mean"] == 3.0
        assert main(argv + ["--sku", "7"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mean"] == 5.0

    def test_unknown_sku(self, ref_sales_file):
        rc = main(
            [
                "estimate",
                "--series",
                str(ref_sales_file),
                "--sku",
                "999",
                "--train-window",
                "2021-02",
            ]
        )
        assert rc == EXIT_INPUT


class TestEvaluate:
    def test_end_to_end(self, ref_sales_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = main(
            [
                "evaluate",
                "--input",
                str(ref_sales_file),
                "--train-window",
                "2021-02",
                "--test-window",
                "2021-03",
                "--model",
                "all",
                "--out",
                str(out_dir),
            ]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "bnbp" in out
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "summary.json").exists()

    def test_filter_flag_defaults_to_half(self, ref_sales_file, capsys):
        rc = main(
            [
                "evaluate",
                "--input",
                str(ref_sales_file),
                "--train-window",
                "2021-02",
                "--test-window",
                "2021-03",
                "--model",
                "nfq",
                "--filter",
            ]
        )
        assert rc == EXIT_OK
        assert "exclusion threshold: 0.5" in capsys.readouterr().out

    def test_report_round_trip(self, ref_sales_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        main(
            [
                "evaluate",
                "--input",
                str(ref_sales_file),
                "--train-window",
                "2021-02",
                "--test-window",
                "2021-03",
                "--model",
                "nfq",
                "--out",
                str(out_dir),
            ]
        )
        capsys.readouterr()
        rc = main(["report", "--records", str(out_dir / "records.csv")])
        assert rc == EXIT_OK
        assert "nfq" in capsys.readouterr().out

    def test_report_reproduces_skip_reasons(self, tmp_path, capsys):
        # one SKU scored, one with no training sales, and one selling a unit
        # a day, whose nfq and deterministic bnbp fits cannot clear 40 units
        # within the horizon
        rows = (
            sku_rows(1, date(2021, 2, 1), FEB_538100)
            + sku_rows(1, date(2021, 3, 1), MAR_538100)
            + sku_rows(3, date(2021, 2, 1), [0] * 28)
            + sku_rows(3, date(2021, 3, 1), [1, 0, 2])
            + sku_rows(4, date(2021, 2, 1), [1] * 28)
            + sku_rows(4, date(2021, 3, 1), [40] + [0] * 30)
        )
        sales = tmp_path / "sales.jsonl"
        write_jsonl(sales, rows)
        out_dir = tmp_path / "report"
        argv = ["evaluate", "--input", str(sales), "--train-window", "2021-02", "--test-window", "2021-03"]
        assert main(argv + ["--out", str(out_dir)]) == EXIT_OK
        rendered = "".join(
            line for line in capsys.readouterr().out.splitlines(True) if not line.startswith("wrote ")
        )
        assert "  skip reasons: normalization_undefined: 2, zero_train_sales: 6\n" in rendered
        assert main(["report", "--records", str(out_dir / "records.csv")]) == EXIT_OK
        assert capsys.readouterr().out == rendered

    def test_seed_is_not_an_evaluate_option(self, ref_sales_file):
        argv = ["evaluate", "--input", str(ref_sales_file), "--train-window", "2021-02"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--test-window", "2021-03", "--seed", "3"])
        assert exit_info.value.code == EXIT_INPUT

    def test_missing_input_file(self, tmp_path):
        rc = main(
            [
                "evaluate",
                "--input",
                str(tmp_path / "absent.jsonl"),
                "--train-window",
                "2021-02",
                "--test-window",
                "2021-03",
            ]
        )
        assert rc == EXIT_INPUT


class TestSelftest:
    def test_passes_on_fresh_build(self, capsys):
        # default seed and trial count: the shipped configuration
        rc = main(["selftest"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_fixed_seed_reproducible(self, capsys):
        argv = ["selftest", "--trials", "20000", "--seed", "5"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_perturbed_closed_form_fails_named_check(self, capsys, monkeypatch):
        # negative control: break one closed form and the matching check
        # must flip to FAIL with a selftest exit code
        from stockcast import closed_form

        original = closed_form.cf_p0k

        def skewed(model, m, k):
            value = original(model, m, k)
            return min(1.0, value + 1e-6)

        monkeypatch.setattr(closed_form, "cf_p0k", skewed)
        rc = main(["selftest", "--trials", "20000"])
        out = capsys.readouterr().out
        assert rc == EXIT_SELFTEST
        line = next(l for l in out.splitlines() if l.startswith("closed-form vs recursion"))
        assert "FAIL" in line
