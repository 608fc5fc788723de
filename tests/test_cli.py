"""Command-line behavior: forecast tables, exit codes, evaluation runs,
and the selftest matrix with one negative control per line."""

from __future__ import annotations

import csv
import dataclasses
import json
from datetime import date

import numpy as np
import pytest
from scipy import special as sps

from conftest import FEB_538100, MAR_538100, sku_rows, write_jsonl
from stockcast import closed_form, engine, metrics
from stockcast.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, EXIT_SELFTEST, main
from stockcast.demand import PoissonDemand
from stockcast.harness import Window, evaluate, ingest, read_records

# one perturbation per selftest line, of the route that line guards
NEGATIVE_CONTROLS = [
    (
        "closed-form vs recursion",
        closed_form,
        "closed_form_curve",
        lambda curve: dataclasses.replace(curve, p0=np.minimum(curve.p0 + 1e-6, 1.0)),
    ),
    (
        "column normalization",
        engine,
        "solve_recursive",
        lambda dist: dataclasses.replace(dist, lattice=dist.lattice * (1.0 + 1e-6)),
    ),
    ("frustrated-sales dual route", engine, "frustrated_sales_via_pfk", lambda pf: pf + 1e-6),
    (
        "monte carlo 3-sigma bands",
        engine,
        "monte_carlo_oracle",
        lambda curve: dataclasses.replace(curve, p0=np.minimum(curve.p0 + 0.05, 1.0)),
    ),
    ("score identities", metrics, "rps_rows", lambda scores: scores + 0.5),
]


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

    @pytest.mark.parametrize(
        ("argv", "option", "value"),
        [
            (["forecast", "--counts", "17,7,4", "-m", "٣"], "-m/--stock", "٣"),
            (["forecast", "--counts", "17,7,4", "-m", "3", "--horizon", "3_1"], "--horizon", "3_1"),
            (["forecast", "--counts", "17,7,4", "-m", "+3"], "-m/--stock", "+3"),
            (["forecast", "--model", "deterministic", "--h", " 2", "-m", "3"], "--h", " 2"),
            (["estimate", "--counts", "17,7,4", "--ddof", "１"], "--ddof", "１"),
            (["evaluate", "--input", "x", "--train-window", "2021-02", "--test-window", "2021-03", "--jobs", "2.0"],
             "--jobs", "2.0"),
            (["report", "--records", "x", "--horizon", "3_1"], "--horizon", "3_1"),
            (["selftest", "--seed", "1_7"], "--seed", "1_7"),
            (["selftest", "--trials", "٣"], "--trials", "٣"),
        ],
        ids=["stock-other-digits", "horizon-underscore", "stock-plus", "h-space", "ddof-fullwidth", "jobs-float",
             "report-horizon", "seed", "trials"],
    )
    def test_integer_options_take_ascii_digits_only(self, capsys, argv, option, value):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f": error: argument {option}: invalid int value: {value!r}\n")

    def test_missing_model_params(self):
        assert main(["forecast", "--model", "poisson", "-m", "2"]) == EXIT_INPUT

    def test_parametric_forecast(self, capsys):
        rc = main(["forecast", "--model", "poisson", "--rate", "1.0", "-m", "2", "--horizon", "3"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "poisson" in out

    def test_signed_binomial_frustration_is_computation_error(self, capsys):
        # real c below m: P_F from the specified P(0, k) tails leaves [0, 1] on days 12-14
        argv = ["forecast", "--model", "binomial", "--c", "0.7908707751973141", "--p", "0.8007394296322615"]
        assert main(argv + ["-m", "9", "--horizon", "31"]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "computation failed: frustrated-sales probability escaped [0, 1]" in captured.err

    def test_real_count_far_below_stock_never_stocks_out(self, capsys):
        # at most 3 * 20.5 units sell in 3 days, so neither curve can move off 0
        argv = ["forecast", "--model", "binomial", "--c", "20.5", "--p", "0.9", "-m", "400", "--horizon", "3"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(row["p0"], row["pf"]) for row in rows] == [(0.0, 0.0)] * 3

    def test_every_customer_buys_with_a_real_count(self, capsys):
        # 3.5 units on day 1 clear a stock of 2 and frustrate a sale
        argv = ["forecast", "--model", "binomial", "--c", "3.5", "--p", "1.0", "-m", "2", "--horizon", "3"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [row["p0"] for row in rows] == [1.0, 1.0, 1.0]
        assert [row["pf"] for row in rows] == [1.0, 0.0, 0.0]

    def test_poisson_frustration_where_the_gamma_series_stopped(self, capsys):
        argv = ["forecast", "--model", "poisson", "--rate", "190", "-m", "4750", "--horizon", "31"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        pf = [row["pf"] for row in json.loads(capsys.readouterr().out)["rows"]]
        expected = engine.solve_recursive(PoissonDemand(lam=190.0), 4750, 31).pf[1:]
        np.testing.assert_allclose(pf, expected, rtol=0, atol=1e-12)

    def test_far_poisson_tail_is_not_zero(self, capsys):
        # 1 - Q(60, 15.5) rounded P(0, 31) = 7.85e-18 to 0 and left G undefined
        argv = ["forecast", "--model", "poisson", "--rate", "0.5", "-m", "60", "--horizon", "31", "--format", "json"]
        assert main(argv) == EXIT_OK
        last = json.loads(capsys.readouterr().out)["rows"][-1]
        assert last["p0"] == pytest.approx(sps.gammainc(60.0, 15.5), rel=1e-9)
        assert last["g"] == 1.0

    @pytest.mark.parametrize(
        "model, kind, first_day",
        [
            # every sale day sells 1 unit: alpha_0 = 0, on the recursion and on the closed form
            (["--counts", "0,3"], "frequentist", "0.000000    0.000000    0.000000"),
            (["--model", "deterministic", "--h", "1"], "deterministic", "0.000000    0.000000    0.000000"),
            # every one of 3.5 customers buys: 3.5 units on day 1
            (["--model", "binomial", "--c", "3.5", "--p", "1.0"], "binomial", "1.000000    1.000000    1.000000"),
        ],
        ids=["counts", "deterministic", "binomial"],
    )
    def test_degenerate_demand_warning_is_one_line(self, capsys, model, kind, first_day):
        assert main(["forecast", *model, "-m", "2", "--horizon", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == (
            f"model={kind} m=2 horizon=3\n"
            "   k      P(0,k)      P_F(k)        G(k)\n"
            f"   1    {first_day}\n"
            "   2    1.000000    0.000000    1.000000\n"
            "   3    1.000000    0.000000    1.000000\n"
        )
        assert captured.err == "stockcast: warning: degenerate zero-sale probability alpha_0=0.0\n"

    def test_series_fit_stops_past_the_stock(self, tmp_path, capsys, monkeypatch):
        # a day of 3e7 units once took a bincount of 3e7 levels; the recursion reads m + 2
        write_jsonl(tmp_path / "big.jsonl", sku_rows(1, date(2021, 2, 1), [30_000_000, 0, 2]))
        fitted, closed_form_curve = [], closed_form.closed_form_curve

        def solve(model, m, horizon):
            fitted.append(model)
            return closed_form_curve(model, m, horizon)

        monkeypatch.setattr(closed_form, "closed_form_curve", solve)
        argv = ["forecast", "--series", str(tmp_path / "big.jsonl"), "--sku", "1", "--train-window", "2021-02"]
        assert main(argv + ["-m", "3", "--horizon", "4", "--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert fitted[0].masses.size <= 5
        # days sell 0, 2 or more than the stock, a third each
        assert [row["p0"] for row in rows] == pytest.approx([1 / 3, 2 / 3, 23 / 27, 76 / 81], rel=1e-12)

    @pytest.mark.parametrize(
        ("source", "m", "named"),
        [("poisson", 10**21, "1e+21"), ("counts", 10**21, "1e+21"), ("counts", 2**53, "9007199254740992"),
         ("series", 10**21, "1e+21")],
    )
    def test_stock_a_float_cannot_hold_is_one_input_error(self, ref_sales_file, capsys, source, m, named):
        sources = {
            "poisson": ["--model", "poisson", "--rate", "1"],
            "counts": ["--counts", "1,1"],
            "series": ["--series", str(ref_sales_file), "--sku", "538100", "--train-window", "2021-02"],
        }
        assert main(["forecast", *sources[source], "-m", str(m), "--horizon", "3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: initial stock m must be an integer >= 1 and below 2^53, got {named}\n"

    def test_memory_error_is_one_computation_line(self, capsys, monkeypatch):
        # the message numpy gives for -m 99999999999; nothing is allocated here
        message = "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type float64"

        def solve(model, m, horizon):
            raise MemoryError(message)

        monkeypatch.setattr(closed_form, "closed_form_curve", solve)
        assert main(["forecast", "--counts", "1,1", "-m", "99999999999"]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: computation failed: {message}\n"

    def test_huge_poisson_mean_is_a_computation_error(self, capsys):
        # the tail ratio rounds to 1 past a mean of about 4e34, as wide a support as at 1e30
        for rate in ("1e30", "1e35"):
            assert main(["forecast", "--model", "poisson", "--rate", rate, "-m", "2"]) == EXIT_COMPUTE
            err = capsys.readouterr().err
            assert err.startswith("stockcast: computation failed: stockout tail needs ")
            assert err.endswith(f" support terms for PoissonDemand(lam={float(rate)!r})\n")

    @pytest.mark.parametrize("horizon", [1, 2, 3, 4])
    def test_huge_negative_binomial_shape_is_served(self, capsys, horizon):
        # past r of about 5e33 the tail ratio rounds to 1 at some horizons, and just below
        # it at others: the incomplete-beta remainder closes the support at every one
        argv = ["forecast", "--model", "negbinomial", "--r", "1e34", "--p", "0.5", "-m", "2"]
        assert main(argv + ["--horizon", str(horizon), "--format", "json"]) == EXIT_OK
        assert [row["p0"] for row in json.loads(capsys.readouterr().out)["rows"]] == [1.0] * horizon

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            (["--model", "negbinomial", "--r", "1e308", "--p", "0.5"], "NegativeBinomialDemand(r=1e+308, p=0.5)"),
            (["--model", "poisson", "--rate", "1e308"], "PoissonDemand(lam=1e+308)"),
        ],
        ids=["negbinomial", "poisson"],
    )
    def test_a_law_past_the_float_range_is_one_computation_line(self, capsys, argv, named):
        # the day-2 shape or mean overflows: the support is unbounded, and no overflow warning escapes
        assert main(["forecast", *argv, "-m", "3", "--horizon", "2"]) == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: computation failed: stockout tail needs more than 1048576 support terms for {named}\n"

    def test_a_mean_past_the_float_range_keeps_its_curve(self, capsys):
        # mean / p overflows in the support's spread; the remainder closes it, with no overflow warning
        argv = ["forecast", "--model", "negbinomial", "--r", "2", "--p", "1e-300", "-m", "2", "--horizon", "2"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == (
            "model=negative_binomial m=2 horizon=2\n"
            "   k      P(0,k)      P_F(k)        G(k)\n"
            "   1    1.000000    1.000000    1.000000\n"
            "   2    1.000000    0.000000    1.000000\n"
        )
        assert captured.err == "stockcast: warning: degenerate zero-sale probability alpha_0=0.0\n"

    @pytest.mark.parametrize(
        ("counts", "message"),
        [
            ("0,99999999999999999999", "count 99999999999999999999 is past int64"),
            ("0,9223372036854775807,1", "counts total 9223372036854775808 is past int64"),
        ],
        ids=["count", "total"],
    )
    def test_counts_past_int64_are_one_input_error(self, capsys, counts, message):
        assert main(["forecast", "--counts", counts, "-m", "2", "--horizon", "3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: {message}\n"
        # estimate sums the same counts as Python ints
        assert main(["estimate", "--counts", counts]) == EXIT_OK
        assert "selected=" in capsys.readouterr().out

    @pytest.mark.parametrize("part", ["\u0663", "1.5", "", " 3", "+3", "3_0"])
    @pytest.mark.parametrize("command", ["forecast", "estimate"])
    def test_a_count_not_written_in_ascii_digits_is_one_input_error(self, capsys, command, part):
        argv = [command, "--counts", f"{part},1"] + (["-m", "2"] if command == "forecast" else [])
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: --counts part {part!r} is not an integer\n"

    def test_a_negative_count_keeps_its_message(self, capsys):
        assert main(["forecast", "--counts", "3,-1", "-m", "2"]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "stockcast: error: counts must be non-negative integers, lowest sales level first\n"
        )

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

    def test_counts_are_summed_not_expanded(self, capsys):
        # a trillion days, one unit each: one list entry per day would not fit in memory
        assert main(["estimate", "--counts", "0,1000000000000", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_days"] == 10**12
        assert (payload["mean"], payload["variance"], payload["selected"]) == (1.0, 0.0, "deterministic")

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

    @pytest.mark.parametrize(
        "values, ddof, message",
        [
            ([0, 0, 0], "0", "training window has no sales; demand model undefined"),
            ([4], "1", "need more than 1 recorded days for ddof=1"),
            ([0], "1", "need more than 1 recorded days for ddof=1"),
        ],
    )
    def test_degenerate_series_fit_is_one_input_error(self, tmp_path, capsys, values, ddof, message):
        path = tmp_path / "one.jsonl"
        write_jsonl(path, sku_rows(5, date(2021, 2, 1), values))
        argv = ["estimate", "--series", str(path), "--sku", "5", "--train-window", "2021-02", "--ddof", ddof]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"stockcast: error: {message}\n")

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


class TestCallersAgree:
    """``estimate`` and ``forecast`` fit one SKU as ``evaluate`` fits it."""

    SERIES = ["--sku", "538100", "--train-window", "2021-02", "--format", "json"]

    @pytest.mark.parametrize("ddof", [0, 1])
    def test_estimate_selects_the_evaluated_branch(self, ref_sales_file, capsys, ddof):
        dataset = ingest(ref_sales_file)
        records = evaluate(dataset, Window.parse("2021-02"), Window.parse("2021-03"), models=("bnbp",), moment_ddof=ddof)
        assert main(["estimate", "--series", str(ref_sales_file), *self.SERIES, "--ddof", str(ddof)]) == EXIT_OK
        assert {r.branch for r in records} == {json.loads(capsys.readouterr().out)["selected"]}

    def test_forecast_reads_the_evaluated_stockout(self, ref_sales_file, capsys):
        records = evaluate(ingest(ref_sales_file), Window.parse("2021-02"), Window.parse("2021-03"), models=("nfq",))
        assert len(records) == 15
        for record in records:
            assert main(["forecast", "--series", str(ref_sales_file), *self.SERIES, "-m", str(record.m)]) == EXIT_OK
            # the recursion and the block sweep add in different orders
            day_31 = json.loads(capsys.readouterr().out)["rows"][-1]["p0"]
            assert day_31 == pytest.approx(record.p0_at_d, rel=1e-12, abs=0)


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

    def test_a_degenerate_fit_prints_no_note(self, tmp_path, capsys):
        # one unit sold every training day: the nfq law has alpha_0 = 0
        rows = sku_rows(1, date(2021, 2, 1), [1] * 28) + sku_rows(1, date(2021, 3, 1), [1, 0, 2])
        write_jsonl(tmp_path / "sales.jsonl", rows)
        argv = ["evaluate", "--input", str(tmp_path / "sales.jsonl"), "--train-window", "2021-02"]
        assert main(argv + ["--test-window", "2021-03", "--model", "nfq"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "nfq" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("window", ["20210201..20210214", "2021-02-01", "feb"])
    def test_a_bad_window_is_one_input_error(self, ref_sales_file, tmp_path, capsys, window):
        argv = ["evaluate", "--input", str(ref_sales_file), "--train-window", window, "--test-window", "2021-03"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_INPUT
        expected = f"bad window {window!r}: expected a month YYYY-MM or a range YYYY-MM-DD..YYYY-MM-DD"
        assert capsys.readouterr().err == f"stockcast: error: {expected}\n"

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

    def test_report_reproduces_filtered_run(self, ref_sales_file, tmp_path, capsys):
        out_dir = tmp_path / "report"
        argv = ["evaluate", "--input", str(ref_sales_file), "--train-window", "2021-02", "--test-window", "2021-03"]
        assert main(argv + ["--filter", "--out", str(out_dir)]) == EXIT_OK
        rendered = "".join(
            line for line in capsys.readouterr().out.splitlines(True) if not line.startswith("wrote ")
        )
        assert "  exclusion threshold: 0.5\n" in rendered
        assert "excluded" in rendered
        records = ["report", "--records", str(out_dir / "records.csv")]
        assert main(records + ["--filter"]) == EXIT_OK
        assert capsys.readouterr().out == rendered
        assert main(records + ["--exclusion-threshold", "0.5"]) == EXIT_OK
        assert capsys.readouterr().out == rendered
        assert main(records) == EXIT_OK
        assert "  exclusion threshold: off\n" in capsys.readouterr().out

    def test_report_refuses_a_horizon_below_a_scored_day(self, ref_sales_file, tmp_path, capsys):
        argv = ["evaluate", "--input", str(ref_sales_file), "--train-window", "2021-02", "--test-window", "2021-03"]
        assert main(argv + ["--model", "nfq", "--out", str(tmp_path / "full")]) == EXIT_OK
        capsys.readouterr()
        records = ["report", "--records", str(tmp_path / "full" / "records.csv"), "--horizon", "5"]
        assert main(records) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stockcast: error: a record with a score has stockout day ")
        assert captured.err.endswith(", past horizon 5; pass the run's --horizon\n")
        # the pairs a 5-day run skips as beyond_horizon are not checked
        assert main(argv + ["--model", "nfq", "--horizon", "5", "--out", str(tmp_path / "short")]) == EXIT_OK
        capsys.readouterr()
        records[2] = str(tmp_path / "short" / "records.csv")
        assert main(records) == EXIT_OK
        assert "beyond_horizon" in capsys.readouterr().out
        # but a horizon they lie within contradicts them
        records[-1] = "31"
        assert main(records) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("stockcast: error: a record skipped as beyond_horizon has stockout day ")
        assert captured.err.endswith(", within horizon 31; pass the run's --horizon\n")

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    @pytest.mark.parametrize("threshold", ["-0.1", "1.5", "nan"])
    def test_exclusion_threshold_out_of_range(self, ref_sales_file, tmp_path, capsys, command, threshold):
        argv = ["evaluate", "--input", str(ref_sales_file), "--train-window", "2021-02", "--test-window", "2021-03"]
        if command == "report":
            assert main(argv + ["--model", "uniform", "--out", str(tmp_path)]) == EXIT_OK
            capsys.readouterr()
            argv = ["report", "--records", str(tmp_path / "records.csv"), "--out", str(tmp_path / "again")]
        assert main(argv + ["--exclusion-threshold", threshold]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: exclusion threshold must lie in [0, 1], got {float(threshold)!r}\n"
        assert not (tmp_path / "again").exists()

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

    def test_report_keeps_awkward_skus(self, tmp_path, capsys):
        # a delimiter, a quote, a leading zero, and the int SKU "007" is not
        rows = []
        for sku in ("a,b", 'x"y', "007", 7):
            rows += sku_rows(sku, date(2021, 2, 1), FEB_538100) + sku_rows(sku, date(2021, 3, 1), MAR_538100)
        sales = tmp_path / "sales.jsonl"
        write_jsonl(sales, rows)
        first, second = tmp_path / "evaluate", tmp_path / "report"
        argv = ["evaluate", "--input", str(sales), "--train-window", "2021-02", "--test-window", "2021-03"]
        assert main(argv + ["--out", str(first)]) == EXIT_OK
        rendered = "".join(
            line for line in capsys.readouterr().out.splitlines(True) if not line.startswith("wrote ")
        )
        assert "bnbp                        4" in rendered
        assert main(["report", "--records", str(first / "records.csv"), "--out", str(second)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed.endswith(rendered)
        for name in ("records.csv", "summary.json"):
            assert (second / name).read_bytes() == (first / name).read_bytes()
        skus = {r.sku for r in read_records(first / "records.csv")}
        assert skus == {"a,b", 'x"y', "007", "7"}

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ("7,2,2,arima,,0.5,3,scored,", "line 4: unknown model 'arima'"),
            ("7,2,2,nfq,,0.5,3,pending,", "line 4: unknown status 'pending'"),
            # the bad label comes before the short row that stops the read
            ("7,2,2,arima,,0.5,3,scored,\n7,4", "line 4: unknown model 'arima'"),
        ],
        ids=["model", "status", "model-before-a-short-row"],
    )
    def test_report_rejects_an_unknown_label(self, tmp_path, capsys, row, message):
        path = tmp_path / "records.csv"
        path.write_text(
            "sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n"
            "7,1,1,nfq,,0.5,3,scored,\n\n" + row + "\n"
        )
        assert main(["report", "--records", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: {message}\n"

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ("7,x,2,nfq,,0.5,3,scored,", "line 4: bad m 'x'"),
            ("7,2,2.5,nfq,,0.5,3,scored,", "line 4: bad u '2.5'"),
            ("7,2,2,nfq,,0.5,three,scored,", "line 4: bad train_days_with_sales 'three'"),
            ("7,2,2,nfq,,abc,3,scored,", "line 4: bad rps 'abc'"),
            ("7," + "9" * 20 + ",2,nfq,,0.5,3,scored,", f"line 4: bad m '{'9' * 20}'"),
            ("7,2,2,nfq,,nan,3,scored,", "line 4: bad rps 'nan'"),
            ("7,2,2,nfq,,inf,3,excluded,", "line 4: bad rps 'inf'"),
            ("7,2,2,nfq,,-4,3,scored,", "line 4: bad rps '-4'"),
            # a score is ASCII decimal text, as evaluate writes it
            ("7,2,2,nfq,,1_0.5,3,scored,", "line 4: bad rps '1_0.5'"),
            ("7,2,2,nfq,, 0.5,3,scored,", "line 4: bad rps ' 0.5'"),
            ("7,2,2,nfq,,٠.٥,3,scored,", "line 4: bad rps '٠.٥'"),
            # evaluate writes stocks and days from 1, and training days from 0
            ("7,-3,2,nfq,,0.5,3,scored,", "line 4: bad m '-3'"),
            ("7,2,0,nfq,,0.5,3,scored,", "line 4: bad u '0'"),
            ("7,2,2,nfq,,0.5,-7,scored,", "line 4: bad train_days_with_sales '-7'"),
            ("7,2,2,nfq,,,3,scored,", "line 4: empty rps for status 'scored'"),
            ("7,2,2,nfq,,,3,excluded,", "line 4: empty rps for status 'excluded'"),
            # a row's own field errors come before its missing score
            ("7,2,2,nfq,,,three,scored,", "line 4: bad train_days_with_sales 'three'"),
            ("7,2,2,nfq,,,3,pending,", "line 4: unknown status 'pending'"),
        ],
        ids=[
            "m",
            "u",
            "train_days_with_sales",
            "rps",
            "m-past-int64",
            "rps-nan",
            "rps-inf",
            "rps-negative",
            "rps-underscore",
            "rps-space",
            "rps-other-digits",
            "m-below-one",
            "u-below-one",
            "train_days_with_sales-negative",
            "rps-empty-scored",
            "rps-empty-excluded",
            "days-before-empty-rps",
            "status-before-empty-rps",
        ],
    )
    def test_report_rejects_a_bad_number(self, tmp_path, capsys, row, message):
        path = tmp_path / "records.csv"
        path.write_text(
            "sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n"
            "7,1,1,nfq,,0.5,3,scored,\n\n" + row + "\n"
        )
        assert main(["report", "--records", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: {message}\n"

    @pytest.mark.parametrize("rps", ["0.5", "1e-05", "2.5E-3", ".5", "1.", "0"])
    def test_report_reads_an_ascii_decimal_score(self, tmp_path, capsys, rps):
        path = tmp_path / "records.csv"
        path.write_text(f"sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n7,1,1,nfq,,{rps},3,scored,\n")
        assert main(["report", "--records", str(path), "--horizon", "1"]) == EXIT_OK
        assert read_records(path).rps.tolist() == [float(rps)]

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ("7,2,2,nfq,,1.5,3,skipped,normalization_undefined", "line 4: rps 1.5 for status 'skipped'"),
            ("7,2,2,nfq,,1.5,3,scored,zero_train_sales", "line 4: reason 'zero_train_sales' for status 'scored'"),
            ("7,2,2,uniform,poisson,1.5,3,scored,", "line 4: branch 'poisson' for model 'uniform'"),
            ("7,2,2,nfq,,,3,skipped,", "line 4: empty reason for status 'skipped'"),
            # a row's rules follow its columns, after its own field errors
            ("7,2,2,uniform,poisson,,3,scored,zero_train_sales", "line 4: branch 'poisson' for model 'uniform'"),
            ("7,2,2,nfq,,1.5,3,skipped,", "line 4: rps 1.5 for status 'skipped'"),
            ("7,2,2,nfq,,1.5,x,skipped,", "line 4: bad train_days_with_sales 'x'"),
        ],
        ids=["skip-with-score", "score-with-reason", "branch-off-bnbp", "skip-without-reason",
             "branch-first", "rps-before-reason", "field-before-rule"],
    )
    def test_report_refuses_a_record_that_no_run_writes(self, tmp_path, capsys, row, message):
        path = tmp_path / "records.csv"
        path.write_text(
            "sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n"
            "7,1,1,bnbp,poisson,0.5,3,scored,\n\n" + row + "\n"
        )
        assert main(["report", "--records", str(path), "--out", str(tmp_path / "out")]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ["\u0663", "1_0", "+2", " 2"])
    @pytest.mark.parametrize("column", ["m", "u", "train_days_with_sales"])
    def test_report_reads_integers_in_ascii_digits_only(self, tmp_path, capsys, column, text):
        fields = dict(sku="7", m="2", u="2", model="nfq", branch="", rps="0.5", train_days_with_sales="3")
        fields[column] = text
        path = tmp_path / "records.csv"
        path.write_text(
            "sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n"
            "7,1,1,nfq,,0.5,3,scored,\n" + ",".join(fields.values()) + ",scored,\n"
        )
        assert main(["report", "--records", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err == f"stockcast: error: line 3: bad {column} {text!r}\n"

    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_a_field_past_the_csv_size_limit_is_one_input_error(self, tmp_path, capsys, command):
        big = "7" * 200_000
        path = tmp_path / f"{command}.csv"
        if command == "evaluate":
            path.write_text(f"sku,date,sold_quantity\n7,2021-02-01,1\n{big},2021-02-02,1\n")
            argv = ["evaluate", "--input", str(path), "--train-window", "2021-02", "--test-window", "2021-03"]
        else:
            path.write_text(
                "sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n"
                f"7,1,1,nfq,,0.5,3,scored,\n{big},1,1,nfq,,0.5,3,scored,\n"
            )
            argv = ["report", "--records", str(path)]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "stockcast: error: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_are_refused(self, ref_sales_file, capsys, jobs):
        argv = ["evaluate", "--input", str(ref_sales_file), "--train-window", "2021-02", "--test-window", "2021-03"]
        assert main(argv + ["--jobs", jobs]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: jobs must be an integer >= 1, got {jobs}\n"

    def test_single_training_day_under_ddof_1(self, tmp_path, capsys):
        # SKU 1 sold on its only February day: its variance is undefined
        # for ddof=1, so bnbp skips it while nfq and poisson still score it
        rows = (
            sku_rows(1, date(2021, 2, 1), [2])
            + sku_rows(1, date(2021, 3, 1), [1, 0, 2])
            + sku_rows(2, date(2021, 2, 1), FEB_538100)
            + sku_rows(2, date(2021, 3, 1), MAR_538100)
        )
        sales = tmp_path / "sales.jsonl"
        write_jsonl(sales, rows)
        out_dir = tmp_path / "report"
        argv = ["evaluate", "--input", str(sales), "--train-window", "2021-02", "--test-window", "2021-03"]
        assert main(argv + ["--ddof", "1", "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        records = [r for r in read_records(out_dir / "records.csv") if r.sku == "1"]
        assert {(r.model, r.status, r.reason) for r in records} == {
            ("nfq", "scored", None),
            ("poisson", "scored", None),
            ("bnbp", "skipped", "estimation_degenerate"),
        }

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    @pytest.mark.parametrize("model", ["uniform", "nfq", "all", "report"])
    def test_horizon_below_one_is_one_input_error(self, ref_sales_file, tmp_path, capsys, model, horizon):
        if model == "report":
            # report checks the horizon itself before any record against it
            path = tmp_path / "records.csv"
            path.write_text("sku,m,u,model,branch,rps,train_days_with_sales,status,reason\n7,1,31,nfq,,0.5,3,scored,\n")
            argv = ["report", "--records", str(path)]
        else:
            argv = ["evaluate", "--input", str(ref_sales_file), "--train-window", "2021-02", "--test-window", "2021-03"]
            argv += ["--model", model]
        assert main(argv + ["--horizon", horizon]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"stockcast: error: horizon must be an integer >= 1, got {horizon}\n"

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

    @pytest.mark.parametrize(
        ("line_name", "module", "route", "perturb"), NEGATIVE_CONTROLS, ids=[c[0] for c in NEGATIVE_CONTROLS]
    )
    def test_perturbed_route_fails_named_check(self, capsys, monkeypatch, line_name, module, route, perturb):
        # negative control: break the route one line guards and that line
        # must flip to FAIL with a selftest exit code
        original = getattr(module, route)
        monkeypatch.setattr(module, route, lambda *args, **kwargs: perturb(original(*args, **kwargs)))
        rc = main(["selftest", "--trials", "20000"])
        out = capsys.readouterr().out
        assert rc == EXIT_SELFTEST
        line = next(l for l in out.splitlines() if l.startswith(line_name))
        assert "FAIL" in line
