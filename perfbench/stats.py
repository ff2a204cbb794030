"""Statistics and correctness accounting shared by the benchmark driver.

Pure functions only (no I/O beyond what the caller passes in), so
`selftest.py` can pin every rule the reported numbers depend on:

- `median` / `quartiles`: the same definitions as Python's
  `statistics` module (`quantiles(values, n=4)`, exclusive method).
- `tail_percentile`: a latency tail is reported at the named percentile
  only when at least `min_beyond` samples lie beyond it; otherwise at
  the highest percentile that still has that many.
- `Tally`: failed operations counted against attempted ones.
- `record_digest` / `compare_digests`: a record's digest with its
  host-timing member removed, and the aligned comparison against a
  pinned list in which every differing, missing or extra record counts
  as exactly one failed operation.
"""

import difflib
import hashlib
import math
import re
import statistics

# The only nondeterministic member of a bench_suite run record is its
# host timing; it never nests an object.
_TIMING = re.compile(r',"timing":\{[^{}]*\}')


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list (pct in (0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    rank = math.ceil(pct / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def tail_percentile(values, wanted_pct, min_beyond=10):
    """(value, pct actually used) for a latency tail.

    The tail is reported at @p wanted_pct when at least @p min_beyond
    samples lie strictly beyond that rank; otherwise at the highest
    percentile that leaves @p min_beyond samples beyond it. With fewer
    than min_beyond + 1 samples there is no such percentile and the
    median is returned instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no values")
    rank = math.ceil(wanted_pct / 100.0 * n)
    rank = min(rank, n - min_beyond)
    if rank < 1:
        return percentile(ordered, 50.0), 50.0
    return ordered[rank - 1], 100.0 * rank / n


class Tally:
    """Failed operations against attempted ones (error_rate)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def ok(self, count=1):
        self.attempted += count

    def fail(self, reason, count=1):
        self.attempted += count
        self.failed += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def check(self, condition, reason):
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0


def strip_timing(line):
    return _TIMING.sub("", line.rstrip("\n"))


def record_digest(line):
    """16-hex digest of one JSONL record with its timing removed."""
    return hashlib.sha256(strip_timing(line).encode("utf-8")).hexdigest()[:16]


def compare_digests(expected, actual, tally):
    """One operation per pinned record, plus one per extra record; a
    failed operation per differing, missing or extra record. The two
    sequences are aligned first, so a record dropped from (or added to)
    the middle costs one failure, not one per record after it. Returns
    the number of failures."""
    failures = 0
    matcher = difflib.SequenceMatcher(None, expected, actual, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            tally.ok(i2 - i1)
            continue
        differing = min(i2 - i1, j2 - j1)
        if differing:
            tally.fail("record differs", differing)
        if i2 - i1 > differing:
            tally.fail("missing record", i2 - i1 - differing)
        if j2 - j1 > differing:
            tally.fail("extra record", j2 - j1 - differing)
        failures += max(i2 - i1, j2 - j1)
    return failures
