#!/usr/bin/env python3
"""Render a `sweep_serve --metrics-out` telemetry file for humans.

tools/validate_metrics.py proves a telemetry file is well-formed; this
tool answers the operator's questions about it: what did the daemon do,
where did the time go, and did the books balance. It reads the last
"metrics" record (the shutdown flush when present — counters are
cumulative, so the last record summarizes the whole run) and prints:

  - the run header and the service outcome table (every request class
    on the conservation invariant's right side, with shares);
  - the conservation check itself:
      accepted == hits + executed + deduped + shed + expired
                  + poisoned + failed + rejected
  - a store summary from the "store_open" record, the open's time
    ("store.open_us") and final gauges;
  - the kept streams: how many executions replayed a stream an
    earlier miss kept ("service.stream_replays") and how many recorded
    one ("service.stream_records"), and the bytes kept;
  - a percentile table per latency histogram (count, mean, p50, p90,
    p99, max). Percentiles are bucket lower bounds — the log-linear
    buckets keep them within 12.5% of the true value (DESIGN.md §16);
  - with --chart NAME (repeatable, or --charts for all), an ASCII
    bucket-count bar chart of the named histogram.

Usage:
    tools/metrics_report.py METRICS.jsonl [--chart store.put_us ...]
    tools/metrics_report.py METRICS.jsonl --charts
    tools/metrics_report.py --self-test

Exit code 0 on a readable report, 1 when the file has no metrics
record or the conservation check fails (a report you cannot trust).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common.jsonl import load_records, warn  # noqa: E402
from common.selftest import Checker  # noqa: E402

OUTCOMES = ("hits", "executed", "deduped", "shed", "expired",
            "poisoned", "failed", "rejected")

#: Percentiles shown in the histogram table.
PERCENTILES = (0.50, 0.90, 0.99)


def percentile(buckets, count, q):
    """Lower-bound estimate of the q-quantile from [[lower, n], ...]."""
    if count == 0:
        return None
    rank = max(1, int(q * count + 0.5))
    cumulative = 0
    for lower, n in buckets:
        cumulative += n
        if cumulative >= rank:
            return lower
    return buckets[-1][0] if buckets else None


def format_us(value):
    """Human microseconds: 950us, 1.2ms, 3.4s."""
    if value is None:
        return "-"
    if value < 1000:
        return f"{value:.0f}us"
    if value < 1_000_000:
        return f"{value / 1000:.1f}ms"
    return f"{value / 1_000_000:.2f}s"


def outcome_table(service):
    """The per-class outcome table plus the conservation verdict."""
    lines = []
    accepted = service.get("accepted", 0)
    lines.append(f"{'outcome':<12} {'count':>10} {'share':>7}")
    for key in OUTCOMES:
        value = service.get(key, 0)
        share = value / accepted if accepted else 0.0
        lines.append(f"{key:<12} {value:>10} {share:>6.1%}")
    outcome_sum = sum(service.get(key, 0) for key in OUTCOMES)
    conserved = accepted == outcome_sum
    lines.append(f"{'accepted':<12} {accepted:>10}")
    lines.append(
        f"conservation: accepted {accepted} vs outcome sum "
        f"{outcome_sum} -> {'OK' if conserved else 'VIOLATED'}")
    lines.append(f"requests: {service.get('requests', 0)} "
                 f"(+ {service.get('stats_ops', 0)} stats ops)")
    return lines, conserved


def histogram_table(histograms):
    """Percentile table, one row per histogram, sorted by name."""
    lines = [f"{'histogram':<32} {'count':>8} {'mean':>8} "
             f"{'p50':>8} {'p90':>8} {'p99':>8} {'max':>8}"]
    for name in sorted(histograms):
        histogram = histograms[name]
        count = histogram.get("count", 0)
        buckets = histogram.get("buckets", [])
        mean = histogram.get("sum_us", 0) / count if count else None
        cells = [format_us(percentile(buckets, count, q))
                 for q in PERCENTILES]
        top = buckets[-1][0] if buckets else None
        lines.append(f"{name:<32} {count:>8} {format_us(mean):>8} "
                     f"{cells[0]:>8} {cells[1]:>8} {cells[2]:>8} "
                     f"{format_us(top):>8}")
    return lines


def chart(name, histogram, width=40):
    """ASCII bucket-count bar chart for one histogram."""
    buckets = histogram.get("buckets", [])
    lines = [f"{name} (count {histogram.get('count', 0)})"]
    if not buckets:
        lines.append("  (empty)")
        return lines
    peak = max(n for _, n in buckets)
    for lower, n in buckets:
        bar = "#" * max(1, round(n / peak * width))
        lines.append(f"  >= {format_us(lower):>8} {n:>8} {bar}")
    return lines


def kept_streams_line(counters, gauges):
    """One line on the kept streams, or None when the daemon kept
    none."""
    replays = counters.get("service.stream_replays", 0)
    records = counters.get("service.stream_records", 0)
    if replays + records == 0:
        return None
    return (f"kept streams: {replays} of {replays + records} executions "
            f"replayed one ({replays / (replays + records):.1%}), "
            f"{records} recorded; "
            f"{gauges.get('service.stream_bytes', 0)} bytes kept")


def render(records, charts=(), all_charts=False, out=sys.stdout):
    """Print the report; returns the process exit code."""
    store_open = None
    last = None
    for record in records:
        kind = record.get("record")
        if kind == "store_open" and store_open is None:
            store_open = record
        elif kind == "metrics":
            last = record
    if last is None:
        warn("no metrics record found; nothing to report")
        return 1

    label = last.get("label", "?")
    print(f"telemetry report: {label}, seq {last.get('seq')}, "
          f"{last.get('elapsed_seconds', 0):.1f}s elapsed"
          + (" (final flush)" if last.get("final") else
             " (NOT a final flush; the run may still be live)"),
          file=out)
    histograms = last.get("histograms", {})
    if store_open is not None:
        store = store_open.get("store", {})
        opened = histograms.get("store.open_us")
        took = ""
        if opened and opened.get("count"):
            took = (f", took {format_us(opened.get('sum_us', 0))}"
                    f" over {opened['count']} open(s)")
        print(f"store open: {store.get('records', 0)} record(s), "
              f"recovered={store.get('recovered', False)}, "
              f"torn_tail={store.get('torn_tail', False)}, "
              f"corrupt_frames={store.get('corrupt_frames', 0)}{took}",
              file=out)
    print(file=out)

    lines, conserved = outcome_table(last.get("service", {}))
    for line in lines:
        print(line, file=out)
    print(file=out)

    store = last.get("store", {})
    print(f"store now: {store.get('records', 0)} record(s), "
          f"{store.get('duplicate_puts', 0)} duplicate put(s)", file=out)
    gauges = last.get("gauges", {})
    if gauges:
        print("gauges: " + ", ".join(
            f"{name}={value}" for name, value in sorted(gauges.items())),
            file=out)
    line = kept_streams_line(last.get("counters", {}), gauges)
    if line:
        print(line, file=out)
    print(file=out)

    if histograms:
        for line in histogram_table(histograms):
            print(line, file=out)
    else:
        print("(no histograms; the daemon ran without instruments "
              "firing)", file=out)

    wanted = list(charts)
    if all_charts:
        wanted = sorted(histograms)
    for name in wanted:
        print(file=out)
        if name not in histograms:
            warn(f"no histogram named '{name}' "
                 f"(present: {', '.join(sorted(histograms)) or 'none'})")
            continue
        for line in chart(name, histograms[name]):
            print(line, file=out)

    if not conserved:
        warn("outcome conservation is violated; the counts above "
             "cannot be trusted")
        return 1
    return 0


def self_test():
    """Exercise the math and rendering without external fixtures."""
    import contextlib
    import io

    checker = Checker()
    check = checker.check

    # Percentile math: 10 observations, buckets [8]*4 [16]*5 [32]*1.
    buckets = [[8, 4], [16, 5], [32, 1]]
    check("p50 lands in the middle bucket",
          percentile(buckets, 10, 0.50) == 16)
    check("p10 lands in the first bucket",
          percentile(buckets, 10, 0.10) == 8)
    check("p99 lands in the last bucket",
          percentile(buckets, 10, 0.99) == 32)
    check("empty histogram has no percentile",
          percentile([], 0, 0.50) is None)

    check("microseconds format plain", format_us(950) == "950us")
    check("milliseconds format", format_us(12_500) == "12.5ms")
    check("seconds format", format_us(2_340_000) == "2.34s")

    service = {"requests": 11, "accepted": 10, "stats_ops": 1,
               "hits": 4, "executed": 3, "deduped": 2, "shed": 1,
               "expired": 0, "poisoned": 0, "failed": 0, "rejected": 0}
    lines, conserved = outcome_table(service)
    check("balanced books report OK", conserved
          and any("-> OK" in line for line in lines))
    check("outcome shares rendered",
          any("40.0%" in line for line in lines))
    service["accepted"] = 12
    lines, conserved = outcome_table(service)
    check("imbalanced books report VIOLATED", not conserved
          and any("VIOLATED" in line for line in lines))

    bars = chart("store.put_us", {"count": 10, "buckets": buckets})
    check("chart scales bars to the peak bucket",
          bars[2].count("#") == 40 and bars[1].count("#") == 32)
    check("chart never drops a non-empty bucket to zero width",
          bars[3].count("#") >= 1)
    check("empty chart degrades",
          chart("x", {"count": 0, "buckets": []})[1].strip()
          == "(empty)")

    def metrics(seq, final=False):
        return {"schema_version": 1, "record": "metrics",
                "label": "sweep_serve", "seq": seq,
                "elapsed_seconds": float(seq), "final": final,
                "service": dict(service, accepted=10),
                "store": {"records": 3, "duplicate_puts": 0},
                "counters": {}, "gauges": {"service.workers": 2},
                "histograms": {
                    "store.open_us": {"count": 1, "sum_us": 5120,
                                      "buckets": [[5120, 1]]},
                    "store.put_us": {"count": 10, "sum_us": 140,
                                     "buckets": buckets}}}

    open_record = {"schema_version": 1, "record": "store_open",
                   "store": {"records": 0, "recovered": True,
                             "torn_tail": False, "corrupt_frames": 0}}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = render([open_record, metrics(0), metrics(1, final=True)],
                      all_charts=True, out=out)
    text = out.getvalue()
    check("full report exits 0", code == 0)
    check("report uses the final record", "seq 1" in text
          and "final flush" in text)
    check("store_open surfaced", "recovered=True" in text)
    check("the open's time surfaced",
          "took 5.1ms over 1 open(s)" in text)
    check("histogram table rendered", "p99" in text
          and "store.put_us" in text)
    check("charts rendered with --charts", "####" in text)
    check("gauges rendered", "service.workers=2" in text)
    check("no kept-streams line without the counters",
          "kept streams" not in text)
    check("kept streams share rendered",
          kept_streams_line({"service.stream_replays": 117,
                             "service.stream_records": 13},
                            {"service.stream_bytes": 2450000})
          == "kept streams: 117 of 130 executions replayed one (90.0%), "
             "13 recorded; 2450000 bytes kept")

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = render([metrics(0)], charts=["no.such"], out=out)
    check("non-final report still renders", code == 0
          and "may still be live" in out.getvalue())
    check("unknown chart name warns", "no.such" in err.getvalue())

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = render([open_record], out=out)
    check("no metrics record exits 1", code == 1)

    broken = metrics(0)
    broken["service"] = dict(service, accepted=99)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = render([broken], out=out)
    check("conservation violation exits 1", code == 1
          and "VIOLATED" in out.getvalue())

    return checker.finish()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Render a --metrics-out telemetry file")
    parser.add_argument("metrics", nargs="?", help="metrics JSONL file")
    parser.add_argument("--chart", action="append", default=[],
                        metavar="NAME",
                        help="ASCII bar chart of this histogram "
                             "(repeatable)")
    parser.add_argument("--charts", action="store_true",
                        help="chart every histogram")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.metrics is None:
        parser.error("METRICS is required (or use --self-test)")
    return render(load_records(args.metrics), charts=args.chart,
                  all_charts=args.charts)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `report.py metrics.jsonl | head`
        sys.exit(0)
