"""Stock-depletion distributions and stockout forecasting for a single
sales period without replenishment."""

from .closed_form import closed_form_curve
from .demand import (
    BinomialDemand,
    DemandModel,
    DeterministicDemand,
    FrequentistDemand,
    MomentEstimates,
    NegativeBinomialDemand,
    PoissonDemand,
    ZeroMeanError,
    fit_columns,
    select_bnbp,
)
from .engine import (
    StockoutCurve,
    monte_carlo_oracle,
    solve_recursive,
)
from .harness import (
    BENCHMARK_RPS,
    EvaluationRecord,
    RecordTable,
    SummaryReport,
    Window,
    evaluate,
    export_report,
    ingest,
    read_records,
    render_summary,
    summarize,
)
from .metrics import (
    baseline_uniform,
    baseline_uniform_discrete,
    point_forecast_expected_rps,
    rps_rows,
    uniform_forecast_rps_continuous,
)
from .special import ConvergenceError, reg_inc_beta

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BENCHMARK_RPS",
    "BinomialDemand",
    "ConvergenceError",
    "DemandModel",
    "DeterministicDemand",
    "EvaluationRecord",
    "FrequentistDemand",
    "MomentEstimates",
    "NegativeBinomialDemand",
    "PoissonDemand",
    "RecordTable",
    "StockoutCurve",
    "SummaryReport",
    "Window",
    "ZeroMeanError",
    "baseline_uniform",
    "baseline_uniform_discrete",
    "closed_form_curve",
    "evaluate",
    "export_report",
    "fit_columns",
    "ingest",
    "monte_carlo_oracle",
    "point_forecast_expected_rps",
    "read_records",
    "reg_inc_beta",
    "render_summary",
    "rps_rows",
    "select_bnbp",
    "solve_recursive",
    "summarize",
    "uniform_forecast_rps_continuous",
]
