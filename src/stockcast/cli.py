"""Command-line entry point tying fitting, forecasting, and evaluation
into reproducible runs.

Exit codes: 0 success, 1 input error, 2 computation error, 3 selftest
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import asdict

from . import closed_form as _closed_form
from . import engine as _engine
from . import verify
from .demand import (
    BinomialDemand,
    DemandModel,
    DeterministicDemand,
    FrequentistDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    fit_columns,
    moments_from_sums,
    select_bnbp,
)
from .harness import (
    _INTEGER,
    MODEL_TAGS,
    Window,
    evaluate,
    export_report,
    ingest,
    parse_sku,
    read_records,
    render_summary,
    summarize,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_SELFTEST = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; keep 2 reserved for
    # computation failures and report bad input as 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _integer(text: str) -> int:
    """An integer option, in ASCII digits as every reader takes one."""
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _training_data(args: argparse.Namespace):
    """The training input: ``(counts, None)`` from inline ``--counts``, or
    ``(None, quantities)``, the daily sales of ``--sku`` in ``--series``."""
    if args.counts is not None:
        parts = args.counts.split(",")
        if bad := [part for part in parts if _INTEGER.fullmatch(part) is None]:
            raise ValueError(f"--counts part {bad[0]!r} is not an integer")
        counts = list(map(int, parts))
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative integers, lowest sales level first")
        return counts, None
    if args.series is None or args.sku is None or args.train_window is None:
        raise ValueError("need either --counts or --series with --sku and --train-window")
    dataset = ingest(args.series, args.input_format)
    window = Window.parse(args.train_window)
    quantities = dataset.quantities(parse_sku(args.sku), window)
    if quantities is None:
        raise ValueError(f"sku {args.sku} has no data in window {window}")
    return None, quantities


def _build_model(args: argparse.Namespace) -> DemandModel:
    tag = args.model
    if tag == "nfq":
        counts, quantities = _training_data(args)
        if quantities is None:
            return FrequentistDemand(counts)
        # the recursion reads alpha(0 .. m) and beta(1 .. m + 1)
        fits, _ = fit_columns(quantities, [quantities.size], ("nfq",), tops=[args.stock + 1])
        return fits["nfq"][0]
    if tag == "deterministic":
        if args.h is None:
            raise ValueError("deterministic demand needs --h (units sold per day)")
        return DeterministicDemand(h=args.h)
    if tag == "poisson":
        if args.rate is None:
            raise ValueError("poisson demand needs --rate")
        return PoissonDemand(lam=args.rate)
    if tag == "binomial":
        if args.c is None or args.p is None:
            raise ValueError("binomial demand needs --c and --p")
        return BinomialDemand(c=args.c, p=args.p)
    if tag == "negbinomial":
        if args.r is None or args.p is None:
            raise ValueError("negative binomial demand needs --r and --p")
        return NegativeBinomialDemand(r=args.r, p=args.p)
    raise ValueError(f"unknown model {tag!r}")


def cmd_forecast(args: argparse.Namespace) -> int:
    """Print the stockout curve P(0,k), frustrated sales P_F(k), and the
    normalized forecast CDF G(k) for one initial stock level."""
    # the kernels' own checks, before a series fit clips its sales at m + 1
    _engine._stock_levels(args.stock)
    _engine._horizon(args.horizon)
    model = _build_model(args)
    curve = _closed_form.closed_form_curve(model, args.stock, args.horizon)
    alpha_0 = model.alpha(0)
    if alpha_0 in (0.0, 1.0):
        # the curve is exact, but its strict monotonicity facts are vacuous
        print(f"stockcast: warning: degenerate zero-sale probability alpha_0={alpha_0}", file=sys.stderr)
    p0 = curve.p0[1:]
    pf = curve.pf[1:]
    tail = p0[-1]
    g = p0 / tail if tail > 0.0 else None

    if args.format == "json":
        rows = [
            {
                "k": k + 1,
                "p0": float(p0[k]),
                "pf": float(pf[k]),
                "g": None if g is None else float(g[k]),
            }
            for k in range(args.horizon)
        ]
        payload = {"model": model.kind, "m": args.stock, "horizon": args.horizon, "rows": rows}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    print(f"model={model.kind} m={args.stock} horizon={args.horizon}")
    print(f"{'k':>4}{'P(0,k)':>12}{'P_F(k)':>12}{'G(k)':>12}")
    for k in range(args.horizon):
        g_cell = f"{g[k]:>12.6f}" if g is not None else f"{'-':>12}"
        print(f"{k + 1:>4}{p0[k]:>12.6f}{pf[k]:>12.6f}{g_cell}")
    if g is None:
        print("note: stockout probability is zero over the horizon; G undefined")
    return EXIT_OK


def cmd_estimate(args: argparse.Namespace) -> int:
    """Print training moments and the demand family they select."""
    counts, quantities = _training_data(args)
    if quantities is None:
        # inline counts: exact sums over the daily quantities they stand for
        sku = "inline"
        total = sum(level * n for level, n in enumerate(counts))
        total_sq = sum(level * level * n for level, n in enumerate(counts))
        moments = moments_from_sums(sum(counts), total, total_sq, ddof=args.ddof)
        selected = select_bnbp(moments)
    else:
        sku = parse_sku(args.sku)
        fits, moments = fit_columns(quantities, [quantities.size], ("bnbp",), args.ddof)
        selected, moments = fits["bnbp"][0], moments[0]
        if selected is None:
            # a degenerate fit: too few days, or no sales; let the library's own checks say which
            select_bnbp(moments if moments is not None else moments_from_sums(quantities.size, 0, 0, args.ddof))
    params = {
        k: v
        for k, v in vars(selected).items()
        if not k.startswith("_")
    }
    if args.format == "json":
        payload = {
            "sku": sku,
            "n_days": moments.n_days,
            "mean": moments.mean,
            "variance": moments.variance,
            "ddof": args.ddof,
            "selected": selected.kind,
            "params": params,
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return EXIT_OK
    print(f"sku={sku} days={moments.n_days}")
    print(f"mean={moments.mean:.6f} variance={moments.variance:.6f} (ddof={args.ddof})")
    print(f"selected={selected.kind} " + " ".join(f"{k}={v:.6f}" for k, v in params.items()))
    return EXIT_OK


def _exclusion_threshold(args: argparse.Namespace) -> float | None:
    """``--exclusion-threshold``, else 0.5 with ``--filter``, else none."""
    if args.exclusion_threshold is not None:
        return args.exclusion_threshold
    return 0.5 if args.filter else None


def cmd_evaluate(args: argparse.Namespace) -> int:
    """Run the full scoring pipeline over a sales file and export reports."""
    tags = MODEL_TAGS[:-1] if args.model == "all" else (args.model,)
    threshold = _exclusion_threshold(args)

    dataset = ingest(args.input_path, args.input_format)
    records = evaluate(
        dataset,
        train_window=Window.parse(args.train_window),
        test_window=Window.parse(args.test_window),
        models=tags,
        horizon=args.horizon,
        exclusion_threshold=threshold,
        moment_ddof=args.ddof,
        jobs=args.jobs,
    )
    if not records:
        raise ValueError("no evaluable (sku, m, u) pairs in the requested windows")
    report = summarize(records, horizon=args.horizon, exclusion_threshold=threshold)
    if args.out_dir is not None:
        paths = export_report(report, records, args.out_dir)
    else:
        paths = []
    if args.format == "json":
        print(json.dumps(asdict(report), indent=2, sort_keys=True))
    else:
        print(render_summary(report), end="")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    """Re-summarize a previously exported records.csv. The records keep
    the statuses they were written with; the threshold only labels them."""
    records = read_records(args.records)
    if not records:
        raise ValueError("records file is empty")
    report = summarize(records, horizon=args.horizon, exclusion_threshold=_exclusion_threshold(args))
    if args.out_dir is not None:
        for path in export_report(report, records, args.out_dir):
            print(f"wrote {path}")
    print(render_summary(report), end="")
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    """Run the verification matrix on a small grid and report pass/fail lines."""
    checks = [
        ("closed-form vs recursion", verify.closed_form_vs_recursion,
         ((DeterministicDemand(h=2), PoissonDemand(lam=1.0), BinomialDemand(c=3.0, p=0.4),
           NegativeBinomialDemand(r=1.5, p=0.5)), range(1, 7), 12, 1e-9)),
        ("column normalization", verify.lattice_normalization,
         ((PoissonDemand(lam=0.7), BinomialDemand(c=4.0, p=0.3)), (1, 3, 6), 15, 1e-10)),
        ("frustrated-sales dual route", verify.frustrated_sales_dual_route,
         ((PoissonDemand(lam=1.3), NegativeBinomialDemand(r=0.8, p=0.45)), (2, 5), 15, 1e-10)),
        ("monte carlo 3-sigma bands", verify.monte_carlo_bands,
         ([(PoissonDemand(lam=1.0), 3)], 8, args.trials, args.seed, 3.0)),
        ("score identities", verify.score_identities, (9, 31, 1e-15)),
    ]
    failures = 0
    for name, check, grid in checks:
        try:
            ok, detail = check(*grid)
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        print(f"{name:<32} {'PASS' if ok else 'FAIL'}  ({detail})")
        if not ok:
            failures += 1
    print(f"selftest: {len(checks) - failures}/{len(checks)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_SELFTEST


def _add_training_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--counts", help="inline day counts per sales level, e.g. 17,7,4")
    parser.add_argument("--series", help="sales file (jsonl or csv)")
    parser.add_argument("--sku", help="sku to pick from --series")
    parser.add_argument("--train-window", dest="train_window", help="e.g. 2021-02")
    parser.add_argument(
        "--input-format", dest="input_format", choices=("jsonl", "csv"), help="force file format"
    )


def _add_exclusion_options(parser: argparse.ArgumentParser, filter_help: str) -> None:
    parser.add_argument("--filter", action="store_true", help=filter_help)
    parser.add_argument(
        "--exclusion-threshold",
        dest="exclusion_threshold",
        type=float,
        default=None,
        help="stockout-by-horizon probability below which records are excluded (0.5 with --filter)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stockcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_forecast = sub.add_parser("forecast", help="stockout curve for one initial stock")
    _add_training_source(p_forecast)
    p_forecast.add_argument("-m", "--stock", type=_integer, required=True, help="initial stock")
    p_forecast.add_argument("--horizon", type=_integer, default=31)
    p_forecast.add_argument(
        "--model",
        choices=("nfq", "deterministic", "poisson", "binomial", "negbinomial"),
        default="nfq",
    )
    p_forecast.add_argument("--h", type=_integer, help="deterministic: units sold per day")
    p_forecast.add_argument("--rate", type=float, help="poisson: mean daily sales")
    p_forecast.add_argument("--c", type=float, help="binomial: daily customers")
    p_forecast.add_argument("--p", type=float, help="binomial/negbinomial probability")
    p_forecast.add_argument("--r", type=float, help="negbinomial shape")
    p_forecast.add_argument("--format", choices=("table", "json"), default="table")
    p_forecast.set_defaults(func=cmd_forecast)

    p_estimate = sub.add_parser("estimate", help="moments and selected demand family")
    _add_training_source(p_estimate)
    p_estimate.add_argument("--ddof", type=_integer, choices=(0, 1), default=0)
    p_estimate.add_argument("--format", choices=("table", "json"), default="table")
    p_estimate.set_defaults(func=cmd_estimate)

    p_eval = sub.add_parser("evaluate", help="batch scoring over a sales file")
    p_eval.add_argument("--input", dest="input_path", required=True)
    p_eval.add_argument(
        "--input-format", dest="input_format", choices=("jsonl", "csv"), default=None
    )
    p_eval.add_argument("--train-window", dest="train_window", required=True)
    p_eval.add_argument("--test-window", dest="test_window", required=True)
    p_eval.add_argument(
        "--model", choices=(*MODEL_TAGS, "all"), default="all"
    )
    p_eval.add_argument("--horizon", type=_integer, default=31)
    _add_exclusion_options(p_eval, "apply the exclusion criterion")
    p_eval.add_argument("--ddof", type=_integer, choices=(0, 1), default=0)
    p_eval.add_argument("--jobs", type=_integer, default=1)
    p_eval.add_argument("--out", dest="out_dir", default=None)
    p_eval.add_argument("--format", choices=("table", "json"), default="table")
    p_eval.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="re-summarize an exported records.csv")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--horizon", type=_integer, default=31)
    _add_exclusion_options(p_report, "the run applied the exclusion criterion")
    p_report.add_argument("--out", dest="out_dir", default=None)
    p_report.set_defaults(func=cmd_report)

    p_self = sub.add_parser("selftest", help="built-in verification matrix")
    p_self.add_argument("--seed", type=_integer, default=17)
    p_self.add_argument("--trials", type=_integer, default=200_000)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every diagnostic is one stockcast line, warnings included
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        except (ValueError, OSError) as exc:
            print(f"stockcast: error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        except (ArithmeticError, MemoryError) as exc:
            print(f"stockcast: computation failed: {exc}", file=sys.stderr)
            return EXIT_COMPUTE
        finally:
            for warning in caught:
                print(f"stockcast: warning: {warning.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
