"""Correctness gate: every job's output files against reference digests.

For the default seed the reference is the digest list stored under
``perfbench/digests``, taken from the program before any optimisation.
For any other seed the reference is the first job of the run, so every
repetition, CLI and in-process alike, must be byte-identical to it; such
a run also checks one job on the default seed's inputs against the
stored digests.
Every GEXF is also checked with ``letternet.export.validate_gexf``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path


def digest_tree(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    out: dict[str, str] = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = Path(dirpath) / name
            out[path.relative_to(root).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def write_digests(path: Path, digests: dict[str, str], header: str) -> None:
    """Write in ``sha256sum`` format after one ``#`` header line."""
    lines = [f"# {header}"] + [f"{sha}  {name}" for name, sha in sorted(digests.items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_digests(path: Path) -> tuple[str, dict[str, str]]:
    """(header, digests) as written by :func:`write_digests`."""
    header = ""
    digests: dict[str, str] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            header = line[1:].strip()
        elif line.strip():
            sha, name = line.split("  ", 1)
            digests[name] = sha
    return header, digests


def compare(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Human-readable differences; empty when the trees are identical."""
    problems = [f"missing {n}" for n in sorted(expected.keys() - actual.keys())]
    problems += [f"unexpected {n}" for n in sorted(actual.keys() - expected.keys())]
    problems += [
        f"content differs: {n}"
        for n in sorted(expected.keys() & actual.keys())
        if expected[n] != actual[n]
    ]
    return problems


class Gate:
    """Checks output trees against one reference and validates GEXFs.

    A GEXF is parsed once per distinct digest: a file byte-identical to
    one already validated is valid too.
    """

    def __init__(self, expected: dict[str, str] | None) -> None:
        self.expected = expected
        self._valid_gexf: set[str] = set()

    def check(self, root: Path) -> list[str]:
        from letternet.export import GexfValidationError, validate_gexf

        actual = digest_tree(root)
        if self.expected is None:
            self.expected = actual
        problems = compare(self.expected, actual)
        for name, sha in actual.items():
            if not name.endswith(".gexf") or sha in self._valid_gexf:
                continue
            try:
                validate_gexf(root / name)
            except GexfValidationError as exc:
                problems.append(f"invalid GEXF {name}: {exc}")
            else:
                self._valid_gexf.add(sha)
        return problems
