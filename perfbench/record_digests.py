"""Record the reference output digests of the default seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Every later run of the default seed must reproduce these files byte for
byte, so record them only from a commit whose outputs are known to be
right, and only when a change is meant to alter the outputs.  Each
workload's job runs once as a CLI child and once in-process; the two
must agree before anything is written.
"""

from __future__ import annotations

import shutil
import sys

import harness
from gate import compare, digest_tree, write_digests


def record(workload: harness.Workload) -> list[str]:
    work = harness.ROOT / ".perfbench_work" / f"record-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs, _, failures = harness.prepare_inputs(
            workload, harness.DEFAULT_SEED, work, None)
        if failures:
            return failures
        child = harness.run_child(workload.argv(inputs, work / "cli"), work)
        _, error = harness.run_in_process(workload.argv(inputs, work / "in-process"))
        if child.error or error:
            return [child.error or error]
        outputs = digest_tree(work / "cli")
        problems = compare(outputs, digest_tree(work / "in-process"))
        if problems:
            return problems
        header = harness.digest_header(workload)
        harness.DIGESTS.mkdir(exist_ok=True)
        write_digests(harness.DIGESTS / f"{workload.name}.outputs.sha256", outputs, header)
        if inputs.pretagged is not None:
            write_digests(harness.DIGESTS / f"{workload.name}.inputs.sha256",
                          digest_tree(inputs.pretagged), header)
        return []
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str]) -> int:
    harness.use_checkout_src()
    names = argv or list(harness.WORKLOADS)
    status = 0
    for name in names:
        problems = record(harness.WORKLOADS[name])
        for problem in problems:
            print(f"{name}: {problem}", file=sys.stderr)
        status = status or bool(problems)
        print(f"{name}: {'FAILED' if problems else 'recorded'}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
