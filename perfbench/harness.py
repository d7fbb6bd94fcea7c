"""Workloads and the jobs the benchmark times.

A job is one ``letternet`` command line, run either as a cold child
process (``python -m letternet.cli`` with the checkout's ``src`` on
``PYTHONPATH``) or in-process through ``letternet.cli.main``.  Every job
writes into a fresh output directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import corpusgen
from gate import Gate, compare, digest_tree, read_digests

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = SRC / "letternet" / "data"
DIGESTS = BENCH_DIR / "digests"
DEFAULT_SEED = 0
# Every corpus is this many copies of the bundled letters.
COPIES = 6


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    command: str
    pretagged: bool
    options: tuple[str, ...]

    def argv(self, inputs: "Inputs", out: Path) -> list[str]:
        source = (
            ["--pretagged-dir", str(inputs.pretagged)]
            if self.pretagged
            else ["--manifest", str(inputs.manifest)]
        )
        return [self.command, *source, "--out", str(out), *self.options]


# Why each workload exists is recorded next to its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cooccur-merged", "replicated", "network", False,
            ("--mode", "cooccur", "--context", "sentence", "--scope", "merged",
             "--prune-nodes", "mean2", "--prune-edges", "mean2", "--format", "gexf,json"),
        ),
        Workload(
            "pairs-pretagged", "open-vocab", "network", True,
            ("--mode", "pairs", "--scope", "per-letter", "--format", "gexf,dot,json,csv"),
        ),
        Workload(
            "run-open-vocab", "open-vocab", "run", False,
            ("--context", "window:3", "--scope", "merged", "--format", "gexf,csv"),
        ),
    )
}


@dataclass
class Inputs:
    manifest: Path
    pretagged: Path | None
    properties: corpusgen.InputProperties


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    error: str | None


def use_checkout_src() -> None:
    """Import ``letternet`` from this checkout, whatever is installed."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    use_checkout_src()
    from letternet.cli import CONFIG_ENV_VAR

    # A config file named there would change every job, so no job sees it.
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Children start from this small launcher, not from the benchmark process:
# Linux counts the RSS of the process a child is forked from in the child's
# ``ru_maxrss``, so a child forked from the benchmark, which holds
# ``letternet`` and the in-process jobs, would report at least the
# benchmark's own RSS.  The launcher writes "wall_s maxrss_kb exit_code".
_LAUNCHER = """\
import os, sys, time
report, cmd = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(cmd[0], cmd, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(report, "w") as fh:
    fh.write(f"{wall} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def _spawn(cmd: list[str], cwd: Path, log_dir: Path) -> tuple[ChildRun, str]:
    """Run one child to completion through the launcher: wall time from
    spawn to exit, peak RSS from ``wait4`` and its standard output."""
    out_path, err_path = log_dir / "child.out", log_dir / "child.err"
    report = log_dir / "child.report"
    report.unlink(missing_ok=True)
    with out_path.open("wb") as out, err_path.open("wb") as err:
        launcher = subprocess.run([sys.executable, "-I", "-S", "-c", _LAUNCHER, str(report), *cmd],
                                  cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                  stdout=out, stderr=err)
    if launcher.returncode != 0 or not report.is_file():
        wall, maxrss_kb, code = 0.0, 0.0, launcher.returncode or -1
    else:
        wall, maxrss_kb, code = (float(x) for x in report.read_text(encoding="utf-8").split())
    error = None
    if code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        error = f"exit code {int(code)}: {' | '.join(tail)}"
    return ChildRun(wall, maxrss_kb / 1024, error), out_path.read_text(encoding="utf-8")


def run_child(argv: list[str], work: Path) -> ChildRun:
    return _spawn([sys.executable, "-m", "letternet.cli", *argv], work, work)[0]


_SETUP_CODE = """\
import time
t0 = time.perf_counter()
import letternet.cli
print(time.perf_counter() - t0)
from letternet.pipeline import default_annotator
default_annotator()
"""


def run_setup_child(work: Path) -> tuple[ChildRun, float]:
    """A fresh interpreter importing ``letternet.cli`` and building the
    default annotator: (child, import seconds)."""
    child, stdout = _spawn([sys.executable, "-c", _SETUP_CODE], work, work)
    return child, 0.0 if child.error else float(stdout)


def run_in_process(argv: list[str]) -> tuple[float, str | None]:
    """(wall seconds, error) of ``letternet.cli.main(argv)``."""
    import letternet.cli

    sink = io.StringIO()
    config = os.environ.pop(letternet.cli.CONFIG_ENV_VAR, None)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = letternet.cli.main(argv)
    except (Exception, SystemExit):
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    finally:
        if config is not None:
            os.environ[letternet.cli.CONFIG_ENV_VAR] = config
    wall = time.perf_counter() - start
    return wall, None if code == 0 else f"exit code {code}"


class StaleDigestsError(RuntimeError):
    """The stored digests do not describe the workload as defined."""


def stored_digests(workload: Workload, kind: str, seed: int) -> dict[str, str] | None:
    """Stored reference digests, or None when none apply to this seed
    (the first job of the run is the reference then)."""
    path = DIGESTS / f"{workload.name}.{kind}.sha256"
    if seed != DEFAULT_SEED:
        return None
    if kind == "inputs" and not workload.pretagged:
        return None
    if not path.is_file():
        raise StaleDigestsError(f"{path} is missing; run perfbench/record_digests.py")
    header, digests = read_digests(path)
    if header != digest_header(workload):
        raise StaleDigestsError(f"{path} was recorded for {header!r}; run perfbench/record_digests.py")
    return digests


def digest_header(workload: Workload) -> str:
    return f"workload={workload.name} seed={DEFAULT_SEED}"


def prepare_inputs(workload: Workload, seed: int, work: Path,
                   expected_inputs: dict[str, str] | None) -> tuple[Inputs, int, list[str]]:
    """Generate the corpus and, for a pretagged workload, its vertical
    files.  Returns (inputs, jobs attempted, failures); untimed."""
    manifest = corpusgen.generate(workload.family, COPIES, seed, work / "corpus", DATA)
    inputs = Inputs(manifest, None, corpusgen.measure(manifest, DATA))
    if not workload.pretagged:
        return inputs, 0, []
    inputs.pretagged = work / "pretagged"
    child = run_child(["preprocess", "--manifest", str(manifest), "--out", str(inputs.pretagged)], work)
    if child.error:
        return inputs, 1, [f"preprocess child: {child.error}"]
    attempted = 1
    if expected_inputs is None:
        # No stored digests for this seed: the in-process preprocess must agree.
        check_dir = work / "pretagged-check"
        _, error = run_in_process(["preprocess", "--manifest", str(manifest), "--out", str(check_dir)])
        attempted += 1
        if error:
            return inputs, attempted, [f"preprocess in-process: {error}"]
        expected_inputs = digest_tree(check_dir)
        shutil.rmtree(check_dir)
    problems = compare(expected_inputs, digest_tree(inputs.pretagged))
    return inputs, attempted, [f"pretagged inputs: {'; '.join(problems[:5])}"] if problems else []


class JobLog:
    """Counts attempted and failed jobs and keeps the failure messages."""

    def __init__(self, gate: Gate) -> None:
        self.gate = gate
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, error: str | None, out: Path, gate: Gate | None = None) -> bool:
        """Check one finished job's output directory, then remove it.
        Returns whether the job passed."""
        self.attempted += 1
        problems = [error] if error else (gate or self.gate).check(out)
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems[:5])}")
        shutil.rmtree(out, ignore_errors=True)
        return not problems
