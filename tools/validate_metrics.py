#!/usr/bin/env python3
"""Validate a telemetry JSONL file written by `sweep_serve --metrics-out`.

The daemon's MetricsFlusher (src/metrics/flusher.*) writes one
"store_open" record when the store is opened, then periodic "metrics"
records built by SweepService::metricsRecord, with a final one (the
"final": true flush) on shutdown. This checker proves the file is
usable by tools/metrics_report.py and that the telemetry invariants
the service promises (DESIGN.md §16) actually held:

  - every line is a schema-v1 record of kind "metrics" or "store_open"
  - "seq" is strictly increasing and "elapsed_seconds" non-decreasing
    across metrics records, and only the last one may carry
    "final": true
  - each record's service stats conserve outcomes:
      accepted == hits + executed + deduped + shed + expired
                  + poisoned + failed + rejected
    and the record's own "conserved" member says so. "requests"
    counts at intake, "accepted" at response delivery, so mid-run
    flushes may show requests > accepted + stats_ops (the difference
    is in-flight work); a "final" flush happens after drain, where
    equality must hold exactly
  - counters and histogram counts never decrease between consecutive
    records (they are cumulative, not deltas)
  - every histogram's "count" equals the sum of its bucket counts and
    its bucket lower bounds are strictly increasing
  - "store.open_us", when present, counts exactly 1: a daemon opens
    its store once, before its first flush
  - with --require-final, at least one metrics record is final: the CI
    chaos job uses this to assert the shutdown flush really ran

Usage:
    tools/validate_metrics.py METRICS.jsonl [--require-final]
    tools/validate_metrics.py --self-test

Exit code 0 when the file is valid, 1 otherwise.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common.jsonl import iter_records  # noqa: E402
from common.selftest import Checker  # noqa: E402

#: Exactly-one-outcome classes on the conservation invariant's right
#: side; every accepted request lands in exactly one of them.
OUTCOMES = ("hits", "executed", "deduped", "shed", "expired",
            "poisoned", "failed", "rejected")

#: The store instrument observed once per ResultStore::open.
OPEN_HISTOGRAM = "store.open_us"


def is_uint(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def check_histogram(name, histogram, where, errors):
    """Validate one serialized histogram's internal consistency."""
    if not isinstance(histogram, dict):
        errors.append(f"{where}: histogram '{name}' is not an object")
        return None
    count = histogram.get("count")
    if not is_uint(count) or not is_uint(histogram.get("sum_us")):
        errors.append(f"{where}: histogram '{name}' needs integer "
                      f"'count' and 'sum_us'")
        return None
    buckets = histogram.get("buckets")
    if not isinstance(buckets, list):
        errors.append(f"{where}: histogram '{name}' needs a 'buckets' "
                      f"array")
        return None
    total = 0
    previous_lower = -1
    for bucket in buckets:
        if not (isinstance(bucket, list) and len(bucket) == 2
                and is_uint(bucket[0]) and is_uint(bucket[1])):
            errors.append(f"{where}: histogram '{name}' bucket must be "
                          f"[lower, count], got {bucket!r}")
            return None
        if bucket[0] <= previous_lower:
            errors.append(f"{where}: histogram '{name}' bucket lower "
                          f"bounds must be strictly increasing")
            return None
        previous_lower = bucket[0]
        total += bucket[1]
    if total != count:
        errors.append(f"{where}: histogram '{name}' count {count} != "
                      f"sum of bucket counts {total}")
    return count


def check_service(service, where, errors, final=False):
    """Conservation invariant on one record's service stats."""
    if not isinstance(service, dict):
        errors.append(f"{where}: 'service' must be an object")
        return
    for key in ("requests", "accepted", "stats_ops") + OUTCOMES:
        if not is_uint(service.get(key)):
            errors.append(f"{where}: service.{key} must be a "
                          f"non-negative integer")
            return
    outcome_sum = sum(service[key] for key in OUTCOMES)
    if service["accepted"] != outcome_sum:
        errors.append(f"{where}: outcome conservation violated: "
                      f"accepted {service['accepted']} != outcome sum "
                      f"{outcome_sum}")
    # "requests" counts at intake, "accepted" at response delivery, so
    # a mid-run flush may legitimately run ahead by its in-flight work;
    # after drain (the final flush) the two must reconcile exactly.
    resolved = service["accepted"] + service["stats_ops"]
    if service["requests"] < resolved or \
            (final and service["requests"] != resolved):
        errors.append(f"{where}: requests {service['requests']} != "
                      f"accepted {service['accepted']} + stats_ops "
                      f"{service['stats_ops']}"
                      + ("" if final else " (mid-run flushes may only "
                         "exceed, never trail)"))
    if service.get("conserved") is not True:
        errors.append(f"{where}: the service did not report "
                      f"'conserved': true")


def check_metrics_record(record, where, state, errors):
    """One "metrics" record: sequencing plus cumulative monotonicity."""
    seq = record.get("seq")
    if not is_uint(seq):
        errors.append(f"{where}: 'seq' must be a non-negative integer")
        seq = None
    elif state["seq"] is not None and seq <= state["seq"]:
        errors.append(f"{where}: seq {seq} not greater than previous "
                      f"{state['seq']}")
    elapsed = record.get("elapsed_seconds")
    if not isinstance(elapsed, (int, float)) or isinstance(elapsed, bool) \
            or elapsed < 0:
        errors.append(f"{where}: 'elapsed_seconds' must be a "
                      f"non-negative number")
    elif state["elapsed"] is not None and elapsed < state["elapsed"]:
        errors.append(f"{where}: elapsed_seconds {elapsed} went "
                      f"backwards from {state['elapsed']}")
    else:
        state["elapsed"] = elapsed
    final = record.get("final")
    if not isinstance(final, bool):
        errors.append(f"{where}: 'final' must be a boolean")
        final = False
    if state["saw_final"]:
        errors.append(f"{where}: metrics record after the final one")

    check_service(record.get("service"), where, errors, final=final)
    if not isinstance(record.get("store"), dict):
        errors.append(f"{where}: 'store' must be an object")

    counts = {}
    counters = record.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{where}: 'counters' must be an object")
    else:
        for name, value in counters.items():
            if not is_uint(value):
                errors.append(f"{where}: counter '{name}' must be a "
                              f"non-negative integer")
            else:
                counts[("counter", name)] = value
    if not isinstance(record.get("gauges"), dict):
        errors.append(f"{where}: 'gauges' must be an object")
    histograms = record.get("histograms")
    if not isinstance(histograms, dict):
        errors.append(f"{where}: 'histograms' must be an object")
    else:
        for name, histogram in histograms.items():
            count = check_histogram(name, histogram, where, errors)
            if count is not None:
                counts[("histogram", name)] = count
        opens = counts.get(("histogram", OPEN_HISTOGRAM))
        if opens is not None and opens != 1:
            errors.append(f"{where}: histogram '{OPEN_HISTOGRAM}' counts "
                          f"{opens} opens; a daemon opens its store once")

    # Counters and histogram counts are cumulative: a decrease means
    # the writer restarted or the file mixes two runs.
    for key, value in counts.items():
        previous = state["counts"].get(key)
        if previous is not None and value < previous:
            kind, name = key
            errors.append(f"{where}: {kind} '{name}' decreased from "
                          f"{previous} to {value}; cumulative values "
                          f"must not go backwards")
    state["counts"] = counts
    if seq is not None:
        state["seq"] = seq
    state["saw_final"] = state["saw_final"] or final
    state["metrics_records"] += 1


def check_store_open(record, where, errors):
    store = record.get("store")
    if not isinstance(store, dict):
        errors.append(f"{where}: store_open needs a 'store' object")
        return
    for key in ("records", "segments_loaded", "corrupt_frames"):
        if not is_uint(store.get(key)):
            errors.append(f"{where}: store_open store.{key} must be a "
                          f"non-negative integer")
    for key in ("torn_tail", "recovered"):
        if not isinstance(store.get(key), bool):
            errors.append(f"{where}: store_open store.{key} must be a "
                          f"boolean")


def validate_records(rows, require_final=False, path="metrics"):
    """Return a list of problems for (lineno, record) pairs."""
    errors = []
    state = {"seq": None, "elapsed": None, "saw_final": False,
             "counts": {}, "metrics_records": 0}
    for lineno, record in rows:
        where = f"{path}:{lineno}"
        if record.get("schema_version") != 1:
            errors.append(f"{where}: schema_version must be 1, got "
                          f"{record.get('schema_version')!r}")
            continue
        kind = record.get("record")
        if kind == "metrics":
            check_metrics_record(record, where, state, errors)
        elif kind == "store_open":
            check_store_open(record, where, errors)
        else:
            errors.append(f"{where}: unknown record kind {kind!r} "
                          f"(expected 'metrics' or 'store_open')")
    if state["metrics_records"] == 0:
        errors.append(f"{path}: no metrics records found")
    elif require_final and not state["saw_final"]:
        errors.append(f"{path}: no final metrics record (the shutdown "
                      f"flush never ran)")
    return errors


def validate_file(path, require_final=False):
    return validate_records(iter_records(path), require_final, path)


def self_test():
    """Exercise acceptance and every rejection path without fixtures."""
    checker = Checker()
    check = checker.check

    def service(accepted=4, stats_ops=1, **overrides):
        stats = {"requests": accepted + stats_ops, "accepted": accepted,
                 "stats_ops": stats_ops, "hits": 1, "executed": 2,
                 "deduped": 1, "shed": 0, "expired": 0, "poisoned": 0,
                 "failed": 0, "rejected": 0, "queue_depth": 0,
                 "inflight": 0, "conserved": True}
        stats.update(overrides)
        return stats

    def store():
        return {"records": 2, "segments_loaded": 1, "corrupt_frames": 0,
                "duplicate_puts": 0, "append_attempts": 2,
                "torn_tail": False, "recovered": False}

    def metrics(seq, elapsed, final=False, **overrides):
        record = {"schema_version": 1, "record": "metrics",
                  "label": "sweep_serve", "seq": seq,
                  "elapsed_seconds": elapsed, "final": final,
                  "service": service(), "store": store(),
                  "counters": {"socket.accepts": seq + 1},
                  "gauges": {"service.workers": 4},
                  "histograms": {
                      "store.open_us": {"count": 1, "sum_us": 5120,
                                        "buckets": [[5120, 1]]},
                      "store.put_us": {"count": 3, "sum_us": 30,
                                       "buckets": [[8, 1], [10, 2]]}}}
        record.update(overrides)
        return record

    open_record = {"schema_version": 1, "record": "store_open",
                   "dir": "/tmp/x", "store": store()}
    good = [(1, open_record), (2, metrics(0, 0.0)),
            (3, metrics(1, 2.0)), (4, metrics(2, 4.0, final=True))]
    check("valid telemetry file passes", validate_records(good) == [])
    check("--require-final passes with a final record",
          validate_records(good, require_final=True) == [])

    errors = validate_records(good[:3], require_final=True)
    check("--require-final rejects a file without one",
          any("final" in e for e in errors))
    check("missing final accepted without the flag",
          validate_records(good[:3]) == [])

    errors = validate_records([(1, open_record)])
    check("file without metrics records rejected",
          any("no metrics records" in e for e in errors))

    errors = validate_records([(1, dict(metrics(0, 0.0),
                                        schema_version=2))])
    check("wrong schema_version rejected",
          any("schema_version" in e for e in errors))

    errors = validate_records([(1, {"schema_version": 1,
                                    "record": "mystery"})])
    check("unknown record kind rejected",
          any("mystery" in e for e in errors))

    errors = validate_records([(1, metrics(1, 0.0)),
                               (2, metrics(1, 1.0))])
    check("non-increasing seq rejected",
          any("seq" in e for e in errors))

    errors = validate_records([(1, metrics(0, 5.0)),
                               (2, metrics(1, 1.0))])
    check("backwards elapsed_seconds rejected",
          any("backwards" in e for e in errors))

    errors = validate_records([(1, metrics(0, 0.0, final=True)),
                               (2, metrics(1, 1.0))])
    check("record after final rejected",
          any("after the final" in e for e in errors))

    bad = metrics(0, 0.0)
    bad["service"] = service(accepted=5)  # outcome sum stays 4
    errors = validate_records([(1, bad)])
    check("outcome conservation violation rejected",
          any("conservation" in e for e in errors))

    live = metrics(0, 0.0)
    live["service"]["requests"] = 9  # 4 in flight beyond accepted+stats
    check("in-flight requests tolerated on a mid-run flush",
          validate_records([(1, live)]) == [])

    bad = metrics(0, 0.0, final=True)
    bad["service"]["requests"] = 9  # final flush must reconcile exactly
    errors = validate_records([(1, bad)])
    check("unreconciled requests rejected on the final flush",
          any("stats_ops" in e for e in errors))

    bad = metrics(0, 0.0)
    bad["service"]["requests"] = 3  # < accepted + stats_ops: impossible
    errors = validate_records([(1, bad)])
    check("requests trailing accepted rejected even mid-run",
          any("never trail" in e for e in errors))

    bad = metrics(0, 0.0)
    bad["service"]["conserved"] = False
    errors = validate_records([(1, bad)])
    check("self-reported conservation failure rejected",
          any("conserved" in e for e in errors))

    bad = metrics(0, 0.0)
    bad["histograms"]["store.put_us"]["count"] = 7
    errors = validate_records([(1, bad)])
    check("histogram count != bucket sum rejected",
          any("bucket counts" in e for e in errors))

    bad = metrics(0, 0.0)
    bad["histograms"]["store.put_us"]["buckets"] = [[10, 2], [8, 1]]
    errors = validate_records([(1, bad)])
    check("unsorted histogram buckets rejected",
          any("strictly increasing" in e for e in errors))

    bad = metrics(0, 0.0)
    bad["histograms"]["store.open_us"] = {"count": 2, "sum_us": 9000,
                                          "buckets": [[4096, 2]]}
    errors = validate_records([(1, bad)])
    check("a second store open rejected",
          any("store.open_us" in e for e in errors))

    errors = validate_records([(1, metrics(0, 0.0)),
                               (2, metrics(1, 1.0, counters={
                                   "socket.accepts": 0}))])
    check("decreasing counter rejected",
          any("decreased" in e for e in errors))

    bad = metrics(0, 0.0)
    bad["counters"]["socket.accepts"] = -3
    errors = validate_records([(1, bad)])
    check("negative counter rejected",
          any("socket.accepts" in e for e in errors))

    bad_open = {"schema_version": 1, "record": "store_open",
                "store": {"records": "two"}}
    errors = validate_records([(1, bad_open), (2, metrics(0, 0.0))])
    check("malformed store_open rejected",
          any("store_open" in e for e in errors))

    return checker.finish()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate a --metrics-out telemetry JSONL file")
    parser.add_argument("metrics", nargs="?", help="metrics JSONL file")
    parser.add_argument("--require-final", action="store_true",
                        help="fail unless a final metrics record exists "
                             "(the shutdown flush ran)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.metrics is None:
        parser.error("METRICS is required (or use --self-test)")

    errors = validate_file(args.metrics, args.require_final)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        print(f"{args.metrics}: INVALID ({len(errors)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"{args.metrics}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
