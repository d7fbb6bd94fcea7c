"""letternet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cooccur-merged --seed 0 --seconds 35 --trace 0

Each workload runs a real ``letternet`` command line on a corpus that
``corpusgen`` builds from the seed.  One closed-loop client runs one job
at a time.  With ``--trace 0`` a run alternates cold CLI child processes
with in-process jobs through ``letternet.cli.main`` for ``--seconds``
seconds and reports the end-to-end metrics:

* ``cli_s``: wall time of one ``letternet`` child, spawn to exit (median);
* ``tokens_per_s``: corpus tokens over the median in-process job time;
* ``setup_s``: a fresh interpreter importing ``letternet.cli`` and
  building ``default_annotator()`` (median of several);
* ``peak_rss_mb``: the CLI child's peak RSS from ``wait4`` (median).

The three timings are taken at the reference speed: ``speed.calibrate``
runs between every two steps, and each sample is scaled by the host's
speed just around it (see ``speed``).  The plain wall times are kept
beside them in the full record.

With ``--trace 1`` it alternates untraced and traced in-process jobs
and reports per-layer self times and counts from spans recorded around
the functions ``letternet.cli`` calls (see ``spans``).

Every job's output files are checked by ``gate``; a failed job counts in
``failed`` and in ``error_rate``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it say the same for a reader, and the full
record (samples, environment, input properties, spans) goes to
``.perfbench_work/results``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import harness
import spans
import speed
from gate import Gate

WORK = harness.ROOT / ".perfbench_work"
MIN_REPS = 2

END_TO_END_UNITS = {"cli_s": "s", "tokens_per_s": "tokens/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Wall-time series that are also kept at the reference speed.
AT_REFERENCE = ("cli_s", "in_process_s", "setup_s")
LAYER_TIMES = {name: f"{name}_s" for name in spans.SPAN_NAMES}
LAYER_TIMES[spans.MAIN_SPAN] = "cli.main_self_s"
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{metric: "s" for metric in LAYER_TIMES.values()},
    "corpus.letters": "count",
    "corpus.bytes": "bytes",
    "pipeline.annotate_calls": "count",
    "pipeline.sentences": "count",
    "pipeline.tokens": "count",
    "pipeline.vertical_files": "count",
    "extraction.records": "count",
    "network.nodes": "count",
    "network.edges": "count",
    "network.edges_kept": "count",
    "network.records_per_edge": "ratio",
    "network.edges_kept_ratio": "ratio",
    "export.files": "count",
    "export.bytes": "bytes",
    "py.gc_s": "s",
    "py.gc_collections": "count",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return math.floor(100 * k / n), sorted(samples)[k - 1]


def median(samples: list[float]) -> float:
    """The median, or 0 when every job of the series failed (the run then
    reports ``correct: false``)."""
    return statistics.median(samples) if samples else 0.0


def describe_samples(samples: list[float]) -> dict:
    tail = tail_percentile(samples)
    return {
        "n": len(samples),
        "median": median(samples),
        "tail_percentile": tail and {"p": tail[0], "value": tail[1]},
        "samples": samples,
    }


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def layer_metrics(tracer: spans.Tracer, jobs: list[int], walls: list[float]) -> tuple[dict[str, float], float]:
    """Per-layer medians over the traced jobs (counts come from the last),
    and the median share of a job's wall time that the self times cover."""
    by_job: dict[int, list[spans.Span]] = {job: [] for job in jobs}
    for span in tracer.spans:
        if span.job in by_job:
            by_job[span.job].append(span)
    self_s = [spans.self_time_by_name(by_job[job]) for job in jobs]
    accounted = statistics.median(sum(s.values()) / wall for s, wall in zip(self_s, walls))
    out = {metric: statistics.median(s.get(name, 0.0) for s in self_s)
           for name, metric in LAYER_TIMES.items()}
    counts: Counter = tracer.counts[jobs[-1]]
    for name in ("corpus.letters", "corpus.bytes", "pipeline.annotate_calls", "pipeline.sentences",
                 "pipeline.tokens", "pipeline.vertical_files", "extraction.records",
                 "export.files", "export.bytes"):
        out[name] = counts[name]
    graph = "merged" if counts["merged.calls"] else "built"
    out["network.nodes"] = counts[f"{graph}.nodes"]
    out["network.edges"] = counts[f"{graph}.edges"]
    out["network.edges_kept"] = counts["pruned.edges"] if counts["pruned.calls"] else out["network.edges"]
    edges = out["network.edges"]
    out["network.records_per_edge"] = out["extraction.records"] / edges if edges else 0.0
    out["network.edges_kept_ratio"] = out["network.edges_kept"] / edges if edges else 0.0
    out["py.gc_s"] = statistics.median(tracer.gc_s[job] for job in jobs)
    out["py.gc_collections"] = statistics.median(tracer.counts[job]["py.gc_collections"] for job in jobs)
    return out, accounted


def layer_shares(per_layer: dict[str, float]) -> dict[str, float]:
    """Self seconds per module (``cli`` includes ``cli.main_self_s``)."""
    shares: Counter = Counter()
    for metric in LAYER_TIMES.values():
        shares[metric.split(".", 1)[0]] += per_layer[metric]
    return dict(shares.most_common())


def check_default_seed(workload: harness.Workload, work: Path, jobs: harness.JobLog) -> None:
    """Run the job once, untimed, on the default seed's inputs against the
    stored digests, so that a run with any seed checks the program's
    outputs byte for byte and not only for self-consistency."""
    seed = harness.DEFAULT_SEED
    inputs, attempted, failures = harness.prepare_inputs(
        workload, seed, work, harness.stored_digests(workload, "inputs", seed))
    jobs.attempted += attempted
    jobs.failures += [f"default seed {f}" for f in failures]
    out = work / "out"
    _, error = harness.run_in_process(workload.argv(inputs, out))
    jobs.record("default-seed job", error, out,
                Gate(harness.stored_digests(workload, "outputs", seed)))
    shutil.rmtree(work)


def run_workload(workload: harness.Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path = WORK) -> dict:
    """One benchmark run; returns the full record."""
    work = work_root / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    harness.use_checkout_src()
    try:
        return _run(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload: harness.Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    inputs, attempted, failures = harness.prepare_inputs(
        workload, seed, work, harness.stored_digests(workload, "inputs", seed))
    jobs = harness.JobLog(Gate(harness.stored_digests(workload, "outputs", seed)))
    jobs.attempted += attempted
    jobs.failures += failures
    if seed != harness.DEFAULT_SEED:
        check_default_seed(workload, work / "default-seed", jobs)

    job_ids = itertools.count()
    tracer = spans.Tracer()
    traced_jobs: list[int] = []

    samples: dict[str, list[float]] = {"setup_s": [], "setup_rss_mb": [], "setup_import_s": []}

    # Each step returns its job's samples.  Only a job that passed the
    # gate adds any: a job that failed early would otherwise make the
    # timings look better.
    def in_process(samples_key: str | None, traced: bool = False) -> dict[str, float]:
        job = next(job_ids)
        out = work / "out" / f"job{job}"
        argv = workload.argv(inputs, out)
        gc.collect()
        if traced:
            with tracer.tracing(job), tracer.span(spans.MAIN_SPAN):
                wall, error = harness.run_in_process(argv)
        else:
            wall, error = harness.run_in_process(argv)
        if not (jobs.record(f"in-process job {job}", error, out) and samples_key):
            return {}
        if traced:
            traced_jobs.append(job)
        return {samples_key: wall}

    def cli_child() -> dict[str, float]:
        out = work / "out" / f"job{next(job_ids)}"
        child = harness.run_child(workload.argv(inputs, out), work)
        if not jobs.record("CLI child", child.error, out):
            return {}
        return {"cli_s": child.wall_s, "peak_rss_mb": child.rss_mb}

    def setup_child() -> dict[str, float]:
        child, import_s = harness.run_setup_child(work)
        jobs.attempted += 1
        if child.error:
            jobs.failures.append(f"setup child: {child.error}")
            return {}
        return {"setup_s": child.wall_s, "setup_rss_mb": child.rss_mb, "setup_import_s": import_s}

    # Untimed warm-up: compiles bytecode for the children and, for a seed
    # without stored digests, makes the reference outputs.
    harness.run_setup_child(work)
    in_process(None)
    if trace:
        samples.update(untraced_s=[], traced_s=[])
        steps = [lambda: in_process("untraced_s"), lambda: in_process("traced_s", traced=True)]
    else:
        samples.update(cli_s=[], peak_rss_mb=[], in_process_s=[])
        # An in-process job costs about half a CLI child, and its samples
        # spread more from run to run, so it runs twice as often.
        steps = [cli_child, lambda: in_process("in_process_s"), lambda: in_process("in_process_s")]
    # Set-up children run between the jobs, so that they sample the
    # machine over the whole run as the jobs do.
    steps.append(setup_child)

    start = time.perf_counter()
    deadline = start + seconds
    reps = 0
    at_reference: dict[str, list[float]] = {key: [] for key in AT_REFERENCE if key in samples}
    calibration = samples["calibration_s"] = [speed.calibrate()]
    while True:
        turn = reps % len(steps)
        for step in steps[turn:] + steps[:turn]:
            taken = step()
            calibration.append(speed.calibrate())
            for key, value in taken.items():
                samples[key].append(value)
                if key in at_reference:
                    at_reference[key].append(speed.at_reference(value, *calibration[-2:]))
        reps += 1
        per_rep = (time.perf_counter() - start) / reps
        if reps >= MIN_REPS and time.perf_counter() + per_rep > deadline:
            break

    if trace:
        if traced_jobs:
            per_layer, accounted = layer_metrics(tracer, traced_jobs, samples["traced_s"])
        else:
            per_layer, accounted = dict.fromkeys(PER_LAYER_UNITS, 0.0), 0.0
        per_layer["cli.import_s"] = median(samples["setup_import_s"])
        per_layer["trace.job_s"] = median(samples["traced_s"])
        per_layer["trace.overhead_s"] = per_layer["trace.job_s"] - median(samples["untraced_s"])
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        extra = {"layer_self_s": layer_shares(per_layer), "layer_accounted": accounted,
                 "spans": tracer.dump()}
    else:
        job_s = median(at_reference["in_process_s"])
        values = {
            "cli_s": median(at_reference["cli_s"]),
            "tokens_per_s": inputs.properties.tokens / job_s if job_s else 0.0,
            "setup_s": median(at_reference["setup_s"]),
            "peak_rss_mb": median(samples["peak_rss_mb"]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        extra = {}
    return {
        "workload": workload.name,
        "seed": seed,
        "copies": harness.COPIES,
        "trace": int(trace),
        "reps": reps,
        "measured_s": time.perf_counter() - start,
        "environment": environment(),
        "inputs": asdict(inputs.properties),
        "samples": {name: describe_samples(values) for name, values in samples.items()},
        "samples_at_reference": {name: describe_samples(values) for name, values in at_reference.items()},
        "reference_s": speed.REFERENCE_S,
        "attempted": jobs.attempted,
        "failed": len(jobs.failures),
        "failures": jobs.failures,
        "metrics": metrics,
        **extra,
    }


def summary_lines(record: dict) -> list[str]:
    props = record["inputs"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  copies {record['copies']}  "
        f"trace {record['trace']}  reps {record['reps']}",
        "inputs: " + ", ".join(f"{k} {v}" for k, v in props.items()),
        "environment: " + ", ".join(f"{k} {v}" for k, v in record["environment"].items()),
    ]
    # metric -> (the samples it is computed from, their unit)
    sample_of = {"cli_s": ("cli_s", "s"), "tokens_per_s": ("in_process_s", "s"),
                 "setup_s": ("setup_s", "s"), "peak_rss_mb": ("peak_rss_mb", "MB"),
                 "trace.job_s": ("traced_s", "s")}
    for name, metric in record["metrics"].items():
        line = f"{name:28s} {metric['value']:14.6g} {metric['unit']}"
        if name in sample_of:
            key, unit = sample_of[name]
            scaled = key in record["samples_at_reference"]
            stats = record["samples_at_reference" if scaled else "samples"][key]
            tail = stats["tail_percentile"]
            tail_text = (f"p{tail['p']} {tail['value']:.6g} {unit}" if tail
                         else "no tail percentile: fewer than 11 samples")
            line += f"  ({key}{' at reference speed' if scaled else ''}: median {stats['median']:.6g} {unit} " \
                    f"of {stats['n']}, {tail_text}"
            if scaled:
                line += f"; wall time median {record['samples'][key]['median']:.6g} {unit}"
            line += ")"
        lines.append(line)
    calibration = record["samples"]["calibration_s"]
    lines.append(f"host speed: calibrate() median {calibration['median']:.4g} s of {calibration['n']}, "
                 f"reference {record['reference_s']:.4g} s")
    setup, cli = record["samples"]["setup_s"]["median"], record["samples"].get("cli_s", {}).get("median")
    setup_rss, rss = record["samples"]["setup_rss_mb"]["median"], record["metrics"].get("peak_rss_mb", {}).get("value")
    if setup and cli and setup_rss and rss:
        lines.append(f"fixed start-up cost: set-up child {setup:.4g} s of a CLI child's {cli:.4g} s ({setup / cli:.0%}), "
                     f"its peak RSS {setup_rss:.4g} MB of peak_rss_mb {rss:.4g} MB ({setup_rss / rss:.0%})")
    attempted, failed = record["attempted"], record["failed"]
    lines.append(f"{'error_rate':28s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} jobs failed)")
    lines += [f"FAILED {f}" for f in record["failures"]]
    job_s = record["metrics"].get("trace.job_s", {}).get("value")
    if "layer_self_s" in record and job_s:
        shares = record["layer_self_s"]
        lines.append("median self time per module: " + ", ".join(
            f"{layer} {secs:.4f} s ({secs / job_s:.1%})" for layer, secs in shares.items()))
        lines.append(f"self times account for {record['layer_accounted']:.1%} of a traced job's wall time")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (harness.SRC / "letternet" / "cli.py").is_file():
        print(f"perfbench: error: no letternet sources under {harness.SRC}", file=sys.stderr)
        return 2
    try:
        record = run_workload(harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except harness.StaleDigestsError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in summary_lines(record):
        print(line)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
