"""Command-line entry point tying fitting, forecasting, and evaluation
into reproducible runs.

Exit codes: 0 success, 1 input error, 2 computation error, 3 selftest
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import closed_form as _closed_form
from . import engine as _engine
from . import metrics as _metrics
from .demand import (
    BinomialDemand,
    DemandModel,
    DeterministicDemand,
    FrequentistDemand,
    NegativeBinomialDemand,
    PoissonDemand,
    estimate_moments,
    fit_frequentist,
    moments_from_quantities,
    select_bnbp,
)
from .harness import (
    Window,
    evaluate,
    export_report,
    ingest,
    parse_sku,
    read_records,
    render_summary,
    summarize,
)
from .special import ConvergenceError

__all__ = ["main", "RunConfig"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_SELFTEST = 3

_DEFAULT_SEED = 17


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; keep 2 reserved for
    # computation failures and report bad input as 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


@dataclass
class RunConfig:
    """Everything one invocation needs; a fixed config reproduces its
    output byte for byte."""

    command: str
    model: str | None = None
    counts: str | None = None
    series: str | None = None
    sku: str | None = None
    input_path: str | None = None
    input_format: str | None = None
    out_dir: str | None = None
    records: str | None = None
    train_window: str | None = None
    test_window: str | None = None
    stock: int | None = None
    horizon: int = 31
    h: int | None = None
    rate: float | None = None
    c: float | None = None
    p: float | None = None
    r: float | None = None
    ddof: int = 0
    filter: bool = False
    exclusion_threshold: float | None = None
    jobs: int = 1
    seed: int = _DEFAULT_SEED
    trials: int = 200_000
    format: str = "table"

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in vars(args).items() if k in known})


def _training_data(cfg: RunConfig):
    """The training input: ``(counts, None)`` from inline ``--counts``, or
    ``(None, series)`` for ``--sku`` in ``--series``."""
    if cfg.counts is not None:
        counts = [int(part) for part in cfg.counts.split(",")]
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative integers, lowest sales level first")
        return counts, None
    if cfg.series is None or cfg.sku is None or cfg.train_window is None:
        raise ValueError("need either --counts or --series with --sku and --train-window")
    dataset = ingest(cfg.series, cfg.input_format)
    window = Window.parse(cfg.train_window)
    series = dataset.series(parse_sku(cfg.sku), window)
    if series is None:
        raise ValueError(f"sku {cfg.sku} has no data in window {window}")
    return None, series


def _build_model(cfg: RunConfig) -> DemandModel:
    tag = cfg.model or "nfq"
    if tag == "nfq":
        counts, series = _training_data(cfg)
        return FrequentistDemand.from_counts(counts) if series is None else fit_frequentist(series)
    if tag == "deterministic":
        if cfg.h is None:
            raise ValueError("deterministic demand needs --h (units sold per day)")
        return DeterministicDemand(h=cfg.h)
    if tag == "poisson":
        if cfg.rate is None:
            raise ValueError("poisson demand needs --rate")
        return PoissonDemand(lam=cfg.rate)
    if tag == "binomial":
        if cfg.c is None or cfg.p is None:
            raise ValueError("binomial demand needs --c and --p")
        return BinomialDemand(c=cfg.c, p=cfg.p)
    if tag == "negbinomial":
        if cfg.r is None or cfg.p is None:
            raise ValueError("negative binomial demand needs --r and --p")
        return NegativeBinomialDemand(r=cfg.r, p=cfg.p)
    raise ValueError(f"unknown model {tag!r}")


def cmd_forecast(cfg: RunConfig) -> int:
    """Print the stockout curve P(0,k), frustrated sales P_F(k), and the
    normalized forecast CDF G(k) for one initial stock level."""
    if cfg.stock is None or cfg.stock < 1:
        raise ValueError("initial stock -m must be an integer >= 1")
    if cfg.horizon < 1:
        raise ValueError("--horizon must be >= 1")
    model = _build_model(cfg)
    if model.kind == "frequentist":
        curve = _engine.solve_recursive(model, cfg.stock, cfg.horizon)
    else:
        curve = _closed_form.closed_form_curve(model, cfg.stock, cfg.horizon)
    p0 = curve.p0[1:]
    pf = curve.pf[1:]
    tail = p0[-1]
    g = p0 / tail if tail > 0.0 else None

    if cfg.format == "json":
        rows = [
            {
                "k": k + 1,
                "p0": float(p0[k]),
                "pf": float(pf[k]),
                "g": None if g is None else float(g[k]),
            }
            for k in range(cfg.horizon)
        ]
        payload = {"model": model.kind, "m": cfg.stock, "horizon": cfg.horizon, "rows": rows}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK

    print(f"model={model.kind} m={cfg.stock} horizon={cfg.horizon}")
    print(f"{'k':>4}{'P(0,k)':>12}{'P_F(k)':>12}{'G(k)':>12}")
    for k in range(cfg.horizon):
        g_cell = f"{g[k]:>12.6f}" if g is not None else f"{'-':>12}"
        print(f"{k + 1:>4}{p0[k]:>12.6f}{pf[k]:>12.6f}{g_cell}")
    if g is None:
        print("note: stockout probability is zero over the horizon; G undefined")
    return EXIT_OK


def cmd_estimate(cfg: RunConfig) -> int:
    """Print training moments and the demand family they select."""
    counts, series = _training_data(cfg)
    if series is None:
        # inline counts: the daily quantities they stand for, in no order
        sku = "inline"
        quantities = [level for level, n in enumerate(counts) for _ in range(n)]
        moments = moments_from_quantities(quantities, ddof=cfg.ddof)
    else:
        sku = series.sku
        moments = estimate_moments(series, ddof=cfg.ddof)
    selected = select_bnbp(moments)
    params = {
        k: v
        for k, v in vars(selected).items()
        if not k.startswith("_")
    }
    if cfg.format == "json":
        payload = {
            "sku": sku,
            "n_days": moments.n_days,
            "mean": moments.mean,
            "variance": moments.variance,
            "ddof": cfg.ddof,
            "selected": selected.kind,
            "params": params,
        }
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
        return EXIT_OK
    print(f"sku={sku} days={moments.n_days}")
    print(f"mean={moments.mean:.6f} variance={moments.variance:.6f} (ddof={cfg.ddof})")
    print(f"selected={selected.kind} " + " ".join(f"{k}={v:.6f}" for k, v in params.items()))
    return EXIT_OK


def cmd_evaluate(cfg: RunConfig) -> int:
    """Run the full scoring pipeline over a sales file and export reports."""
    if cfg.input_path is None:
        raise ValueError("--input is required")
    if cfg.train_window is None or cfg.test_window is None:
        raise ValueError("--train-window and --test-window are required")
    tags = ("nfq", "poisson", "bnbp") if cfg.model in (None, "all") else (cfg.model,)
    threshold = None
    if cfg.filter:
        threshold = 0.5 if cfg.exclusion_threshold is None else cfg.exclusion_threshold
    elif cfg.exclusion_threshold is not None:
        threshold = cfg.exclusion_threshold

    dataset = ingest(cfg.input_path, cfg.input_format)
    records = evaluate(
        dataset,
        train_window=Window.parse(cfg.train_window),
        test_window=Window.parse(cfg.test_window),
        models=tags,
        horizon=cfg.horizon,
        exclusion_threshold=threshold,
        moment_ddof=cfg.ddof,
        jobs=cfg.jobs,
    )
    if not records:
        raise ValueError("no evaluable (sku, m, u) pairs in the requested windows")
    report = summarize(records, horizon=cfg.horizon, exclusion_threshold=threshold)
    if cfg.out_dir is not None:
        paths = export_report(report, records, cfg.out_dir)
    else:
        paths = []
    if cfg.format == "json":
        from dataclasses import asdict

        print(json.dumps(asdict(report), indent=2, sort_keys=True))
    else:
        print(render_summary(report), end="")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    """Re-summarize a previously exported records.csv."""
    if cfg.records is None:
        raise ValueError("--records is required")
    records = read_records(cfg.records)
    if not records:
        raise ValueError("records file is empty")
    report = summarize(records, horizon=cfg.horizon)
    if cfg.out_dir is not None:
        for path in export_report(report, records, cfg.out_dir):
            print(f"wrote {path}")
    print(render_summary(report), end="")
    return EXIT_OK


def _check_equivalence(tolerance: float = 1e-9) -> tuple[bool, str]:
    worst = 0.0
    for model in (
        DeterministicDemand(h=2),
        PoissonDemand(lam=1.0),
        BinomialDemand(c=3.0, p=0.4),
        NegativeBinomialDemand(r=1.5, p=0.5),
    ):
        for m in range(1, 7):
            dist = _engine.solve_recursive(model, m, 12, keep_lattice=True)
            for k in range(13):
                worst = max(worst, abs(dist.p0[k] - _closed_form.cf_p0k(model, m, k)))
                if k >= 1:
                    worst = max(worst, abs(dist.pf[k] - _closed_form.cf_pf(model, m, k)))
                for n in range(1, m + 1):
                    worst = max(
                        worst, abs(dist.lattice[n, k] - _closed_form.cf_pnk(model, m, n, k))
                    )
    return worst <= tolerance, f"max |closed form - recursion| = {worst:.3e}"


def _check_normalization() -> tuple[bool, str]:
    worst = 0.0
    for model in (PoissonDemand(lam=0.7), BinomialDemand(c=4.0, p=0.3)):
        for m in (1, 3, 6):
            dist = _engine.solve_recursive(model, m, 15, keep_lattice=True)
            sums = dist.lattice.sum(axis=0)
            worst = max(worst, float(np.abs(sums - 1.0).max()))
            if np.any(np.diff(dist.p0) < -1e-12):
                return False, "stockout curve decreased"
    return worst <= 1e-10, f"max |column sum - 1| = {worst:.3e}"


def _check_dual_frustrated() -> tuple[bool, str]:
    worst = 0.0
    for model in (PoissonDemand(lam=1.3), NegativeBinomialDemand(r=0.8, p=0.45)):
        for m in (2, 5):
            dist = _engine.solve_recursive(model, m, 15, keep_lattice=True)
            alt = _engine.frustrated_sales_via_pfk(model, dist)
            worst = max(worst, float(np.abs(alt[1:] - dist.pf[1:]).max()))
    return worst <= 1e-10, f"max dual-route gap = {worst:.3e}"


def _check_monte_carlo(seed: int, trials: int) -> tuple[bool, str]:
    model = PoissonDemand(lam=1.0)
    m, horizon = 3, 8
    empirical = _engine.monte_carlo_oracle(model, m, horizon, trials, seed=seed)
    worst_z = 0.0
    for k in range(1, horizon + 1):
        for emp, ref in (
            (empirical.p0[k], _closed_form.cf_p0k(model, m, k)),
            (empirical.pf[k], _closed_form.cf_pf(model, m, k)),
        ):
            sigma = (ref * (1.0 - ref) / trials) ** 0.5
            if sigma == 0.0:
                if emp != ref:
                    return False, f"day {k}: {emp} != {ref} with zero variance"
                continue
            worst_z = max(worst_z, abs(emp - ref) / sigma)
    return worst_z <= 3.0, f"max |z| = {worst_z:.2f} over 3-sigma bands"


def _check_score_identities() -> tuple[bool, str]:
    d = 9
    for u in range(1, d + 1):
        for u0 in range(1, d + 1):
            step = _metrics.ForecastCdf(horizon=d, g=(np.arange(1, d + 1) >= u0).astype(float))
            got = _metrics.rps_discrete(_metrics.OutcomeStep(horizon=d, u=u), step)
            if got != abs(u - u0):
                return False, f"point forecast mismatch at u={u}, u0={u0}: {got}"
    mean, variance = _metrics.baseline_uniform(31)
    if abs(mean - 31.0 / 6.0) > 1e-15 or abs(variance - 961.0 / 180.0) > 1e-15:
        return False, "uniform baseline constants off"
    return True, "point-forecast and baseline identities hold"


def cmd_selftest(cfg: RunConfig) -> int:
    """Run the built-in verification matrix and report pass/fail lines."""
    import warnings

    from .engine import DegenerateDemandWarning

    checks = [
        ("closed-form vs recursion", _check_equivalence),
        ("column normalization", _check_normalization),
        ("frustrated-sales dual route", _check_dual_frustrated),
        ("monte carlo 3-sigma bands", lambda: _check_monte_carlo(cfg.seed, cfg.trials)),
        ("score identities", _check_score_identities),
    ]
    failures = 0
    with warnings.catch_warnings():
        # the deterministic grid member is degenerate by design
        warnings.simplefilter("ignore", DegenerateDemandWarning)
        for name, check in checks:
            try:
                ok, detail = check()
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stockcast", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_forecast = sub.add_parser("forecast", help="stockout curve for one initial stock")
    _add_training_source(p_forecast)
    p_forecast.add_argument("-m", "--stock", type=int, required=True, help="initial stock")
    p_forecast.add_argument("--horizon", type=int, default=31)
    p_forecast.add_argument(
        "--model",
        choices=("nfq", "deterministic", "poisson", "binomial", "negbinomial"),
        default="nfq",
    )
    p_forecast.add_argument("--h", type=int, help="deterministic: units sold per day")
    p_forecast.add_argument("--rate", type=float, help="poisson: mean daily sales")
    p_forecast.add_argument("--c", type=float, help="binomial: daily customers")
    p_forecast.add_argument("--p", type=float, help="binomial/negbinomial probability")
    p_forecast.add_argument("--r", type=float, help="negbinomial shape")
    p_forecast.add_argument("--format", choices=("table", "json"), default="table")
    p_forecast.set_defaults(func=cmd_forecast)

    p_estimate = sub.add_parser("estimate", help="moments and selected demand family")
    _add_training_source(p_estimate)
    p_estimate.add_argument("--ddof", type=int, choices=(0, 1), default=0)
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
        "--model", choices=("nfq", "poisson", "bnbp", "uniform", "all"), default="all"
    )
    p_eval.add_argument("--horizon", type=int, default=31)
    p_eval.add_argument("--filter", action="store_true", help="apply the exclusion criterion")
    p_eval.add_argument(
        "--exclusion-threshold",
        dest="exclusion_threshold",
        type=float,
        default=None,
        help="stockout-by-horizon probability below which records are excluded (0.5 with --filter)",
    )
    p_eval.add_argument("--ddof", type=int, choices=(0, 1), default=0)
    p_eval.add_argument("--jobs", type=int, default=1)
    p_eval.add_argument("--out", dest="out_dir", default=None)
    p_eval.add_argument("--format", choices=("table", "json"), default="table")
    p_eval.set_defaults(func=cmd_evaluate)

    p_report = sub.add_parser("report", help="re-summarize an exported records.csv")
    p_report.add_argument("--records", required=True)
    p_report.add_argument("--horizon", type=int, default=31)
    p_report.add_argument("--out", dest="out_dir", default=None)
    p_report.set_defaults(func=cmd_report)

    p_self = sub.add_parser("selftest", help="built-in verification matrix")
    p_self.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    p_self.add_argument("--trials", type=int, default=200_000)
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig.from_args(args)
    try:
        return args.func(cfg)
    except (ValueError, OSError) as exc:
        print(f"stockcast: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"stockcast: computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
