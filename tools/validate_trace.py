#!/usr/bin/env python3
"""Validate a Chrome trace-event file written by --trace-out.

The simulator's TraceEventSink (src/obs/trace_event.*) emits the JSON
object form of the trace-event format: {"traceEvents":[...],
"displayTimeUnit":"ms"} where every event is a complete ("ph":"X")
span with microsecond ts/dur, pid 1 and a small stable tid. This
checker proves a file will load in Perfetto / about:tracing and that
the sink's invariants actually held:

  - the document is a JSON object with a "traceEvents" array
  - every event has a non-empty string name/cat, ph "X", integer
    ts >= 0 and dur >= 0, and integer pid/tid
  - within one (pid, tid), spans are properly nested or disjoint —
    a partial overlap means two threads shared a tid, the exact
    attribution bug the sink exists to prevent
  - with --require-span NAME (repeatable), at least one span with
    that name exists: the CI smoke job uses this to assert the
    instrumented stages really fired
  - with --min-coverage F, the union of all spans, over every lane,
    covers at least F of the timeline, from the sink's origin (ts 0)
    to the last span's end: the untraced residual is at most 1 - F

Usage:
    tools/validate_trace.py TRACE.json [--require-span simulate ...]
                            [--min-coverage 0.95]
    tools/validate_trace.py --self-test

Exit code 0 when the file is valid, 1 otherwise.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common.selftest import Checker  # noqa: E402


def fail(errors, message):
    errors.append(message)


def check_event(event, index, errors):
    """Validate one trace event; returns True when usable downstream."""
    where = f"traceEvents[{index}]"
    if not isinstance(event, dict):
        fail(errors, f"{where}: event is not an object")
        return False
    ok = True
    for key in ("name", "cat"):
        value = event.get(key)
        if not isinstance(value, str) or value == "":
            fail(errors, f"{where}: '{key}' must be a non-empty string")
            ok = False
    if event.get("ph") != "X":
        fail(errors, f"{where}: 'ph' must be 'X' (complete event), got "
             f"{event.get('ph')!r}")
        ok = False
    for key in ("ts", "dur", "pid", "tid"):
        value = event.get(key)
        if not isinstance(value, int) or isinstance(value, bool):
            fail(errors, f"{where}: '{key}' must be an integer, got "
                 f"{value!r}")
            ok = False
        elif key in ("ts", "dur") and value < 0:
            fail(errors, f"{where}: '{key}' must be >= 0, got {value}")
            ok = False
    args = event.get("args")
    if args is not None and not isinstance(args, dict):
        fail(errors, f"{where}: 'args' must be an object when present")
        ok = False
    return ok


def check_nesting(events, errors):
    """Spans sharing a (pid, tid) must be disjoint or properly nested."""
    by_thread = {}
    for event in events:
        key = (event["pid"], event["tid"])
        by_thread.setdefault(key, []).append(event)
    for (pid, tid), spans in sorted(by_thread.items()):
        # Sort children after the parents that contain them: by start,
        # longest-first on ties.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for span in spans:
            start, end = span["ts"], span["ts"] + span["dur"]
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack and end > stack[-1][1]:
                fail(errors,
                     f"pid {pid} tid {tid}: span '{span['name']}' "
                     f"[{start}, {end}) partially overlaps "
                     f"'{stack[-1][2]}' [{stack[-1][0]}, {stack[-1][1]})"
                     f" — two threads shared a tid")
                continue
            stack.append((start, end, span["name"]))


def coverage(events):
    """Share of [0, last span end) covered by the union of all spans;
    overlapping spans, on one lane or on several, count once."""
    intervals = sorted((e["ts"], e["ts"] + e["dur"]) for e in events)
    if not intervals:
        return 0.0
    timeline = max(end for _, end in intervals)
    if timeline == 0:
        return 0.0
    covered, reach = 0, 0
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered / timeline


def validate(document, required_spans=(), min_coverage=None):
    """Return a list of problems; empty means the trace is valid."""
    errors = []
    if not isinstance(document, dict):
        fail(errors, "top level must be a JSON object")
        return errors
    events = document.get("traceEvents")
    if not isinstance(events, list):
        fail(errors, "'traceEvents' must be an array")
        return errors
    usable = [e for i, e in enumerate(events)
              if check_event(e, i, errors)]
    check_nesting(usable, errors)
    names = {e["name"] for e in usable}
    for name in required_spans:
        if name not in names:
            fail(errors, f"required span '{name}' not found "
                 f"(present: {', '.join(sorted(names)) or 'none'})")
    if min_coverage is not None:
        covered = coverage(usable)
        if covered < min_coverage:
            fail(errors, f"spans cover {covered:.1%} of the timeline, "
                 f"below the required {min_coverage:.1%}")
    return errors


def validate_file(path, required_spans=(), min_coverage=None):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as err:
        return [f"cannot read {path}: {err}"]
    except json.JSONDecodeError as err:
        return [f"{path}: malformed JSON: {err}"]
    return validate(document, required_spans, min_coverage)


def self_test():
    """Exercise every rejection path without external fixtures."""
    checker = Checker()
    check = checker.check

    def span(name, ts, dur, tid=1, **extra):
        event = {"name": name, "cat": "test", "ph": "X", "ts": ts,
                 "dur": dur, "pid": 1, "tid": tid}
        event.update(extra)
        return event

    good = {"traceEvents": [span("sweep", 0, 100),
                            span("run", 10, 30),
                            span("run", 40, 30),
                            span("other_thread", 5, 200, tid=2)],
            "displayTimeUnit": "ms"}
    check("valid nested trace passes", validate(good) == [])

    check("non-object top level rejected",
          validate([1, 2]) != [])
    check("missing traceEvents rejected",
          validate({"events": []}) != [])

    errors = validate({"traceEvents": [span("", 0, 1)]})
    check("empty name rejected", any("name" in e for e in errors))

    errors = validate({"traceEvents": [span("b", 0, 1, ph="B")]})
    check("non-X phase rejected", any("'ph'" in e for e in errors))

    errors = validate({"traceEvents": [span("neg", -5, 1)]})
    check("negative ts rejected", any("ts" in e for e in errors))

    float_ts = span("f", 0, 1)
    float_ts["ts"] = 1.5
    errors = validate({"traceEvents": [float_ts]})
    check("float ts rejected", any("integer" in e for e in errors))

    # Partial overlap on one tid: [0,50) vs [25,75).
    errors = validate({"traceEvents": [span("a", 0, 50),
                                       span("b", 25, 50)]})
    check("partial overlap rejected",
          any("partially overlaps" in e for e in errors))

    # The same two spans on different tids are fine.
    check("overlap across tids allowed",
          validate({"traceEvents": [span("a", 0, 50),
                                    span("b", 25, 50, tid=2)]}) == [])

    # Touching spans (end == next start) are disjoint, not overlapping.
    check("touching spans allowed",
          validate({"traceEvents": [span("a", 0, 10),
                                    span("b", 10, 10)]}) == [])

    errors = validate(good, required_spans=["simulate"])
    check("missing required span rejected",
          any("'simulate'" in e for e in errors))
    check("present required span accepted",
          validate(good, required_spans=["run"]) == [])

    # Coverage: [0, 40) and [60, 100) leave a 20% gap.
    gap = {"traceEvents": [span("a", 0, 40), span("b", 60, 40)]}
    check("gap measured", coverage(gap["traceEvents"]) == 0.8)
    errors = validate(gap, min_coverage=0.95)
    check("gap below min coverage rejected",
          any("cover 80.0%" in e for e in errors))
    check("gap within min coverage accepted",
          validate(gap, min_coverage=0.8) == [])

    # Overlapping lanes count once: two tids both busy over [0, 60)
    # plus [90, 100) cover 70%, not 130%.
    lanes = {"traceEvents": [span("a", 0, 60), span("b", 0, 60, tid=2),
                             span("c", 20, 10, tid=2),
                             span("d", 90, 10)]}
    check("overlapping lanes counted once",
          coverage(lanes["traceEvents"]) == 0.7)
    check("overlapping lanes cannot fill a gap",
          validate(lanes, min_coverage=0.95) != [])
    check("nested and overlapping spans reach full coverage",
          coverage(good["traceEvents"]) == 1.0)
    check("empty trace has no coverage",
          validate({"traceEvents": []}, min_coverage=0.5) != [])

    return checker.finish()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Validate a --trace-out Chrome trace-event file")
    parser.add_argument("trace", nargs="?", help="trace JSON file")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="fail unless a span with this name exists "
                             "(repeatable)")
    parser.add_argument("--min-coverage", type=float, metavar="F",
                        help="fail unless the spans cover at least this "
                             "share (0..1) of the timeline")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.trace is None:
        parser.error("TRACE is required (or use --self-test)")

    errors = validate_file(args.trace, args.require_span,
                           args.min_coverage)
    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if errors:
        print(f"{args.trace}: INVALID ({len(errors)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"{args.trace}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
