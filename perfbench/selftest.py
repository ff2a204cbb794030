#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics and correctness accounting.

    python3 perfbench/selftest.py        (or: python3 perfbench/run.py --self-test)

Exit code 0 when every check passes. Needs no build.
"""

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

RUN = ('{"schema_version":1,"record":"run","workload":"gcc","counters":'
       '{"instructions":100},"timing":{"run_seconds":0.015,'
       '"sweep_total_seconds":1.4}}\n')


def main():
    failures = []

    def check(name, condition):
        print(f"  {'ok  ' if condition else 'FAIL'} {name}")
        if not condition:
            failures.append(name)

    print("perfbench self-test:")

    # median / quartiles agree with the statistics module.
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    check("median of odd count", stats.median(values) == 4.0)
    check("median of even count", stats.median([1.0, 2.0, 3.0, 10.0]) == 2.5)
    check("quartiles match statistics.quantiles(n=4)",
          stats.quartiles(values) ==
          tuple(statistics.quantiles(values, n=4)))
    q1, q2, q3 = stats.quartiles(values)
    check("relative spread is IQR over median",
          abs(stats.relative_spread(values) - (q3 - q1) / q2) < 1e-12)
    check("single value has zero spread",
          stats.relative_spread([3.0]) == 0.0)

    # Nearest-rank percentile and the ">= 10 samples beyond" tail rule.
    ordered = [float(i) for i in range(1, 101)]
    check("p50 of 1..100 is 50", stats.percentile(ordered, 50.0) == 50.0)
    check("p90 of 1..100 is 90", stats.percentile(ordered, 90.0) == 90.0)
    tail, used = stats.tail_percentile(ordered, 99.0)
    check("p99 of 100 samples falls back to p90 (10 beyond)",
          tail == 90.0 and used == 90.0)
    many = [float(i) for i in range(1, 2001)]
    tail, used = stats.tail_percentile(many, 99.0)
    check("p99 of 2000 samples is p99 (20 beyond)",
          tail == 1980.0 and used == 99.0)
    beyond = sum(1 for v in many if v > tail)
    check("tail leaves at least 10 samples beyond", beyond >= 10)
    tail, used = stats.tail_percentile([1.0, 2.0, 3.0], 99.0)
    check("tail of too few samples is the median",
          tail == 2.0 and used == 50.0)

    # error_rate accounting.
    tally = stats.Tally()
    tally.ok(8)
    tally.fail("non-ok response")
    tally.check(False, "record differs")
    check("tally counts attempted and failed",
          tally.attempted == 10 and tally.failed == 2)
    check("error_rate is failed / attempted", tally.error_rate == 0.2)
    check("reasons are counted by name",
          tally.reasons == {"non-ok response": 1, "record differs": 1})

    # Digests ignore host timing and nothing else.
    slower = RUN.replace('"run_seconds":0.015', '"run_seconds":0.030')
    check("digest ignores timing",
          stats.record_digest(RUN) == stats.record_digest(slower))
    changed = RUN.replace('"instructions":100', '"instructions":101')
    check("digest sees a counter change",
          stats.record_digest(RUN) != stats.record_digest(changed))
    check("timing member is stripped exactly",
          stats.strip_timing(RUN) ==
          '{"schema_version":1,"record":"run","workload":"gcc",'
          '"counters":{"instructions":100}}')

    # Aligned comparison: a clean output costs nothing.
    lines = [RUN.replace("gcc", name) for name in
             ("gcc", "li", "doduc", "espresso", "fpppp")]
    expected = [stats.record_digest(line) for line in lines]
    clean = stats.Tally()
    stats.compare_digests(expected, list(expected), clean)
    check("identical output: no failures",
          clean.failed == 0 and clean.attempted == 5)

    # Negative control: one corrupted record is exactly one failure.
    corrupted = list(lines)
    corrupted[2] = corrupted[2].replace('"instructions":100',
                                        '"instructions":7')
    one = stats.Tally()
    failed = stats.compare_digests(
        expected, [stats.record_digest(line) for line in corrupted], one)
    check("one corrupted record counts as exactly one failed operation",
          failed == 1 and one.failed == 1 and one.attempted == 5)

    missing = stats.Tally()
    stats.compare_digests(expected, expected[:3], missing)
    check("two missing records are two failures",
          missing.failed == 2 and missing.reasons == {"missing record": 2})
    extra = stats.Tally()
    stats.compare_digests(expected, expected + ["0" * 16], extra)
    check("an extra record is one failure",
          extra.failed == 1 and extra.reasons == {"extra record": 1})

    # A record dropped from (or added to) the middle shifts every later
    # record; it must still cost exactly one failure.
    dropped = stats.Tally()
    failed = stats.compare_digests(expected, expected[:1] + expected[2:],
                                   dropped)
    check("a record dropped from the middle is one failure",
          failed == 1 and dropped.reasons == {"missing record": 1}
          and dropped.attempted == 5)
    inserted = stats.Tally()
    stats.compare_digests(expected,
                          expected[:2] + ["0" * 16] + expected[2:], inserted)
    check("a record added in the middle is one failure",
          inserted.failed == 1 and inserted.reasons == {"extra record": 1})
    swapped = stats.Tally()
    stats.compare_digests(expected, expected[:1] + ["1" * 16] + expected[2:],
                          swapped)
    check("a record replaced in the middle is one failure",
          swapped.failed == 1 and swapped.reasons == {"record differs": 1})

    print(f"perfbench self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
