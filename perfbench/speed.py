"""The host's speed, measured beside every timed sample.

On a small shared host the CPU runs in fast and slow states that last
from under a second to minutes, and a job's wall time follows them: the
same pure-Python loop takes from 1x to 2.5x its fastest time.  A run's
median then says more about the host during that run than about the
program.  So the benchmark runs ``calibrate``, a fixed pure-Python task
that does not touch ``letternet``, between every two timed steps, and
reports each timed sample at the reference speed as well: its wall time
times ``REFERENCE_S`` over the mean of the calibrations just before and
just after it.  A step that takes longer because the host is slower
then reads about the same, while one that does more work still reads
longer.

``calibrate`` tokenises, counts and sorts, as the program does, so that
the two slow down alike.  Its text is built here from a fixed seed, so
no change to the program or its data can change the calibration.  It
times the task in short pieces and takes their median, so that one
interruption of the process, which costs a long job a few per cent,
does not double a calibration.
"""

from __future__ import annotations

import random
import re
import statistics
import time

# calibrate()'s wall time in the host's fast state on the machine the
# benchmark was defined on (Intel Xeon, 2 cores, Python 3.11).  Only a
# scale: it makes values at the reference speed read as seconds.
REFERENCE_S = 0.0185

_rng = random.Random(0)
_WORDS = ["".join(_rng.choice("abcdefghilmnoprstuy") for _ in range(_rng.randint(2, 9)))
          for _ in range(600)]
_PIECES = [[" ".join(_rng.choice(_WORDS) for _ in range(12)) + "." for _ in range(140)]
           for _ in range(5)]
_TOKEN_RE = re.compile(r"[a-z]+|\.")


def calibrate() -> float:
    """Wall seconds of one fixed task, taken as the number of pieces times
    the median time of a piece."""
    return len(_PIECES) * statistics.median(_piece(lines) for lines in _PIECES)


def _piece(lines: list[str]) -> float:
    """Wall seconds to count the word pairs and words of ``lines``, rank
    the pairs and format them."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    pairs: dict[tuple[str, str], int] = {}
    for line in lines:
        tokens = _TOKEN_RE.findall(line)
        for a, b in zip(tokens, tokens[1:]):
            key = (a, b) if a < b else (b, a)
            pairs[key] = pairs.get(key, 0) + 1
        for token in tokens:
            counts[token.upper()] = counts.get(token.upper(), 0) + 1
    ranked = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
    "".join(f"{a}\t{b}\t{n}\n" for (a, b), n in ranked)
    return time.perf_counter() - start


def at_reference(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` at the reference speed, given the calibrations just
    before and just after it."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2)
