"""Benchmark of ``stockcast evaluate`` and ``stockcast report`` on seeded
synthetic corpora, checked record by record against an oracle.

    python3 bench/run.py --workload meli-mix --seed 1 --seconds 25 --trace 0

A run generates (or reuses) the workload's corpus in a child process,
sets up (``import stockcast`` plus ``ingest`` of the sales file, three
times), then repeats whole rounds of the evaluate pipeline for
``--seconds`` seconds in this one process with ``jobs=1``. A round is
``evaluate -> summarize -> render_summary -> export_report`` and, on
long-tail-uniform, ``stockcast report`` on the exported records.csv.
Every round must write byte-identical files; the records of the last
round are checked against the oracle.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` rounds alternate untraced and
traced, and it holds the per-layer metrics derived from the spans
(written to ``bench/.work/trace/``). See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"

HORIZON = 31
TRAIN, TEST = "2021-02", "2021-03"
SETUP_REPEATS = 3

# models, exclusion threshold (--filter), and whether `report` re-reads the output
WORKLOADS = {
    "meli-mix": (("nfq", "poisson", "bnbp"), 0.5, False),
    "heavy-sellers": (("nfq", "poisson", "bnbp"), None, False),
    "long-tail-uniform": (("uniform",), None, True),
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    """One workload on one corpus: set-up state plus the round itself."""

    def __init__(self, workload: str, seed: int, corpus: Path) -> None:
        self.models, self.threshold, self.with_report = WORKLOADS[workload]
        self.manifest = json.loads((corpus / "manifest.json").read_text())
        self.sales = corpus / self.manifest["sales"]
        self.out_dir = WORK / "out" / f"{workload}-s{seed}"
        self.dataset = None

    def setup(self) -> tuple[float, list]:
        """Import the package and its CLI, then ingest the sales file
        SETUP_REPEATS times; returns the import time and the ingest times."""
        start = time.perf_counter()
        self.sc = importlib.import_module("stockcast")
        importlib.import_module("stockcast.cli")
        import_s = time.perf_counter() - start
        harness = self.sc.harness
        self.windows = harness.Window.parse(TRAIN), harness.Window.parse(TEST)
        ingest_s = []
        for _ in range(SETUP_REPEATS):
            self.dataset = None
            gc.collect()
            start = time.perf_counter()
            self.dataset = harness.ingest(self.sales)
            ingest_s.append(time.perf_counter() - start)
        return import_s, ingest_s

    def round(self, tracer=None):
        """One pass from the ingested dataset to the last output."""
        harness, cli = self.sc.harness, self.sc.cli

        def span(name):
            return tracer.span(name) if tracer else nullcontext()

        with span("harness.evaluate"):
            records = harness.evaluate(
                self.dataset,
                *self.windows,
                models=self.models,
                horizon=HORIZON,
                exclusion_threshold=self.threshold,
                jobs=1,
            )
        with span("harness.summarize"):
            report = harness.summarize(records, horizon=HORIZON, exclusion_threshold=self.threshold)
        with span("harness.render"):
            text = harness.render_summary(report)
        with span("harness.export"):
            harness.export_report(report, records, self.out_dir)
        report_ok = True
        if self.with_report:
            printed = io.StringIO()
            with span("cli.report"), redirect_stdout(printed):
                code = cli.main(["report", "--records", str(self.out_dir / "records.csv"), "--horizon", str(HORIZON)])
            # the re-read records carry no skip reasons; uniform records are never skipped
            report_ok = code == 0 and printed.getvalue() == text
        return records, report_ok

    def timed_round(self, tracer=None):
        gc.collect()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is None:
            records, report_ok = self.round()
        else:
            with tracer.installed(self.sc):
                records, report_ok = self.round(tracer)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        digest = (_sha256(self.out_dir / "records.csv"), _sha256(self.out_dir / "summary.json"))
        return records, report_ok, wall, cpu, digest


def _layer_metrics(tracer, records) -> dict:
    calls, dur, self_s = tracer.totals()
    counts = tracer.counts
    return {
        "harness.series.calls": counts["harness.series"],
        "harness.evaluate.self_s": self_s["harness.evaluate"],
        "harness.summarize.s": dur["harness.summarize"],
        "harness.export.s": dur["harness.export"],
        "harness.records": len(records),
        "cli.report.s": dur["cli.report"],
        "demand.fit.calls": calls["demand.fit"],
        "demand.fit.s": dur["demand.fit"],
        "demand.mass.calls": counts["demand.mass"],
        "engine.solve.calls": calls["engine.solve"],
        "engine.solve.self_s": self_s["engine.solve"],
        "engine.cells": counts["engine.cells"],
        "closed_form.p0k.calls": calls["closed_form.p0k"],
        "closed_form.p0k.self_s": self_s["closed_form.p0k"],
        "special.gamma.calls": calls["special.gamma"],
        "special.gamma.s": dur["special.gamma"],
        "special.beta.calls": calls["special.beta"],
        "special.beta.s": dur["special.beta"],
        "special.convergence_errors": counts["special.gamma.errors"] + counts["special.beta.errors"],
        "metrics.score.calls": calls["metrics.score"],
        "metrics.score.s": dur["metrics.score"],
    }


COUNTS = {"harness.ingest.rows", "harness.records", "engine.cells", "special.convergence_errors"}


def _unit(name: str) -> str:
    if name.endswith(".calls") or name in COUNTS:
        return "count"
    return "us" if name.endswith("us_per_row") else "s"


def _corpus(workload: str, seed: int) -> Path:
    done = subprocess.run(
        [sys.executable, str(HERE / "synth.py"), "--workload", workload, "--seed", str(seed)],
        check=True,
        capture_output=True,
        text=True,
    )
    return Path(done.stdout.strip().splitlines()[-1])


def _traced_metrics(layers, ingest_s, rows, walls, traced_walls) -> dict:
    """Per-layer metrics: counts from the first traced round, times as
    medians over the traced rounds."""
    metrics = {
        name: value if _unit(name) == "count" else statistics.median(run[name] for run in layers)
        for name, value in layers[0].items()
    }
    ingest = statistics.median(ingest_s)
    metrics.update(
        {
            "harness.ingest.s": ingest,
            "harness.ingest.rows": rows,
            "harness.ingest.us_per_row": ingest / rows * 1e6,
            "trace.overhead_s": statistics.median(traced_walls) - statistics.median(walls),
        }
    )
    return {name: {"value": value, "unit": _unit(name)} for name, value in sorted(metrics.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="stockcast evaluate benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stockcast" / "__init__.py").is_file():
        print(f"bench: no stockcast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed, _corpus(args.workload, args.seed))
    Tracer = None
    if args.trace:
        from spans import Tracer
    import_s, ingest_s = bench.setup()

    # whole rounds until the time is up; when tracing, every other round is traced
    walls, cpus, traced_walls, layers, digests = [], [], [], [], set()
    first_tracer = None
    report_ok = True
    start = time.perf_counter()
    while True:
        tracer = Tracer() if Tracer and len(walls) > len(traced_walls) else None
        records, ok, wall, cpu, digest = bench.timed_round(tracer)
        report_ok &= ok
        digests.add(digest)
        if tracer is None:
            walls.append(wall)
            cpus.append(cpu)
        else:
            traced_walls.append(wall)
            layers.append(_layer_metrics(tracer, records))
            first_tracer = first_tracer or tracer
        if (traced_walls or not Tracer) and time.perf_counter() - start >= args.seconds:
            break
        del records
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rounds = len(walls) + len(traced_walls)

    # checks of the last round: the oracle and scipy load only now, after the peak was read
    import check
    import synth

    arrays = synth.generate(args.workload, args.seed, bench.manifest["scale"])
    expected = check.expected_records(arrays, bench.models, HORIZON, bench.threshold)
    verdict = check.check_round(records, expected, bench.out_dir, bench.threshold)
    problems = list(verdict.problems)
    if len(digests) != 1:
        problems.append(f"rounds wrote {len(digests)} different outputs")
    if not report_ok:
        problems.append("`stockcast report` did not reproduce the evaluate summary")
    if int(arrays["sku"].size) != bench.manifest["rows"]:
        problems.append("the corpus does not match its manifest")

    if Tracer:
        first_tracer.write(WORK / "trace" / f"{args.workload}-s{args.seed}.csv")
        if any(run[name] != layers[0][name] for run in layers for name in run if _unit(name) == "count"):
            problems.append("per-layer counts differ between traced rounds")
        metrics = _traced_metrics(layers, ingest_s, bench.manifest["rows"], walls, traced_walls)
    else:
        wall = statistics.median(walls)
        metrics = {
            "setup_s": {"value": import_s + statistics.median(ingest_s), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "records_per_s": {"value": len(records) / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    records_sha, summary_sha = sorted(digests)[0]
    faults = verdict.faults
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds of {verdict.attempted} records")
    print("round wall s: " + " ".join(f"{w:.3f}" for w in walls))
    if traced_walls:
        print("traced round wall s: " + " ".join(f"{w:.3f}" for w in traced_walls))
    print(f"records.csv sha256 {records_sha}")
    print(f"summary.json sha256 {summary_sha}")
    print(
        f"failed per round: {verdict.failed} (fault a: {faults['a']}, fault b: {faults['b']}, "
        f"unexplained: {faults['?']})"
    )
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": not problems,
        "attempted": verdict.attempted * rounds,
        "failed": verdict.failed * rounds,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
