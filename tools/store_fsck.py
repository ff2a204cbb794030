#!/usr/bin/env python3
"""Offline integrity check for a ResultStore directory.

The store (src/serve/result_store.*) keeps schema-v1 run records in
CRC-framed append segments `tail-1-<K>.log` (header frame, then data
frames), a `CLEAN` clean-shutdown marker, and a `quarantine.jsonl`
sidecar of frames the store itself refused. Every frame is
`<8-hex crc32> <compact JSON>`; the CRC is the reflected
0xEDB88320 polynomial, i.e. zlib's. The "1" in a segment name, and
the "generation":1 of header frames and CLEAN, is a format constant.

This checker re-derives the invariants the C++ recovery scan
enforces, so a store can be audited without (or before) opening it:

  errors — the store is damaged, the writer is buggy, or the store
  refuses to open:
    - frame with a bad checksum or malformed framing anywhere but
      the final line of a tail;
    - missing/wrong header frame (generation or segment mismatch);
    - CLEAN marker naming a generation or record count that does
      not match the files on disk;
    - a base-*.log or base-*.tmp, a tail of another generation, or a
      segment under a non-canonical name (tail-1-01.log): only an
      older build's compaction wrote the first two, and the store
      refuses all of them by name.

  warnings — survivable states recovery handles by design:
    - torn final line of a tail (kill -9 mid-append);
    - missing CLEAN marker (crash: next open runs a recovery scan);
    - duplicate key across segments (first occurrence wins);
    - unrecognized file names.

With --json the findings go to stdout as schema-v1 JSONL instead of
text: one "fsck_finding" record per error/warning (severity +
message) followed by one "fsck_summary" record (record/error/warning
counts and the verdict), so CI jobs and dashboards can consume the
audit without scraping. The exit code contract is identical in both
modes, and the default text output is unchanged.

Usage:
    tools/store_fsck.py STORE_DIR [--strict] [--json]
    tools/store_fsck.py --self-test

Exit code 0 when no errors (warnings allowed unless --strict), 1
otherwise.
"""

import argparse
import json
import os
import re
import sys
import tempfile
import zlib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common.selftest import Checker  # noqa: E402

#: The generation every segment name, header frame and CLEAN marker
#: carries.
GENERATION = 1

_BASE_RE = re.compile(r"^base-.*\.(log|tmp)$")
_TAIL_RE = re.compile(r"^tail-(\d+)-(\d+)\.log$")


def frame_line(payload):
    """Encode one frame exactly as the C++ frameLine() does."""
    text = json.dumps(payload, separators=(",", ":"))
    crc = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {text}"


def parse_frame(line):
    """(payload, reason): payload dict on success, else reason."""
    if len(line) < 10 or line[8] != " ":
        return None, "malformed framing"
    try:
        stored = int(line[:8], 16)
    except ValueError:
        return None, "unparsable checksum"
    text = line[9:]
    if zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF != stored:
        return None, "checksum mismatch"
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return None, "unparsable JSON"
    if not isinstance(payload, dict):
        return None, "payload is not an object"
    return payload, ""


class Report:
    def __init__(self):
        self.errors = []
        self.warnings = []
        self.records = {}  # key -> first file seen in load order

    def error(self, message):
        self.errors.append(message)

    def warning(self, message):
        self.warnings.append(message)


def _check_header(report, name, payload, segment):
    header = payload.get("store_header")
    if not isinstance(header, dict):
        report.error(f"{name}:1: first frame is not a store_header")
        return
    if header.get("generation") != GENERATION:
        report.error(f"{name}:1: header generation "
                     f"{header.get('generation')} != {GENERATION}")
    if header.get("segment") != segment:
        report.error(f"{name}:1: header segment "
                     f"{header.get('segment')} != file name {segment}")


def _load_lines(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    text = blob.decode("utf-8", errors="replace")
    lines = text.split("\n")
    unterminated = bool(lines[-1])
    if not lines[-1]:
        lines.pop()
    return lines, unterminated


def check_tail(report, directory, name, segment):
    lines, unterminated = _load_lines(os.path.join(directory, name))
    if not lines:
        report.error(f"{name}: empty tail segment (a tail begins with "
                     f"its header frame)")
        return
    for lineno, line in enumerate(lines, 1):
        last = lineno == len(lines)
        payload, reason = parse_frame(line)
        if payload is None:
            # A torn final line is the signature of a kill mid-append.
            # Reopen rotates to a fresh segment, so the torn line can
            # sit in *any* tail, not only the newest one.
            if last and unterminated:
                report.warning(f"{name}:{lineno}: torn final line "
                               f"({reason}); recovery drops it")
            else:
                report.error(f"{name}:{lineno}: {reason}")
            continue
        if lineno == 1:
            _check_header(report, name, payload, segment)
            continue
        key = payload.get("key")
        if not isinstance(key, str) \
                or not isinstance(payload.get("record"), dict):
            report.error(f"{name}:{lineno}: data frame lacks "
                         f"key/record shape")
            continue
        if key in report.records:
            report.warning(f"{name}:{lineno}: duplicate key {key!r} "
                           f"(first seen in {report.records[key]})")
        else:
            report.records[key] = name


def check_clean(report, directory):
    path = os.path.join(directory, "CLEAN")
    if not os.path.exists(path):
        report.warning("no CLEAN marker: next open runs a recovery "
                       "scan (expected after a crash)")
        return
    lines, unterminated = _load_lines(path)
    if unterminated or len(lines) != 1:
        report.error("CLEAN: expected exactly one terminated frame")
        return
    payload, reason = parse_frame(lines[0])
    if payload is None:
        report.error(f"CLEAN:1: {reason}")
        return
    clean = payload.get("clean_shutdown")
    if not isinstance(clean, dict):
        report.error("CLEAN:1: frame is not a clean_shutdown marker")
        return
    if clean.get("generation") != GENERATION:
        report.error(f"CLEAN: marker generation "
                     f"{clean.get('generation')} != {GENERATION}")
    if clean.get("records") != len(report.records):
        report.error(f"CLEAN: marker says {clean.get('records')} "
                     f"record(s) but segments hold "
                     f"{len(report.records)}")


def check_store(directory):
    report = Report()
    try:
        names = sorted(os.listdir(directory))
    except OSError as err:
        raise SystemExit(f"cannot read {directory}: {err}")
    tails = {}
    for name in names:
        match = _TAIL_RE.match(name)
        if _BASE_RE.match(name):
            report.error(f"{name}: a compacted base, which only an older "
                         f"build's compaction writes; the store refuses "
                         f"to open")
        elif match:
            generation, segment = (int(group) for group in match.groups())
            # The store parses 64-bit numbers; past 2^64 they alias.
            if name != f"tail-{generation}-{segment}.log" \
                    or max(generation, segment) >= 2**64:
                report.error(f"{name}: not a canonical segment name; the "
                             f"store refuses to open")
            elif generation != GENERATION:
                report.error(f"{name}: a segment of generation "
                             f"{generation}, which only an older build's "
                             f"compaction writes; the store refuses to "
                             f"open")
            else:
                tails[segment] = name
        elif name not in ("CLEAN", "quarantine.jsonl"):
            report.warning(f"{name}: unrecognized file in store "
                           f"directory")
    if not tails:
        report.warning("no segments: empty or never-written store")
    for segment in sorted(tails):
        check_tail(report, directory, tails[segment], segment)
    check_clean(report, directory)
    return report


def report_json_lines(report, strict):
    """The --json form: finding records, then one summary record."""
    lines = []
    for severity, messages in (("error", report.errors),
                               ("warning", report.warnings)):
        for message in messages:
            lines.append(json.dumps(
                {"schema_version": 1, "record": "fsck_finding",
                 "severity": severity, "message": message},
                sort_keys=True))
    ok = not report.errors and not (strict and report.warnings)
    lines.append(json.dumps(
        {"schema_version": 1, "record": "fsck_summary",
         "records": len(report.records), "errors": len(report.errors),
         "warnings": len(report.warnings), "strict": strict, "ok": ok},
        sort_keys=True))
    return lines


def run_fsck(directory, strict, json_out=False):
    report = check_store(directory)
    if json_out:
        for line in report_json_lines(report, strict):
            print(line)
    else:
        for message in report.errors:
            print(f"error: {message}")
        for message in report.warnings:
            print(f"warning: {message}")
        print(f"store_fsck: {len(report.records)} record(s), "
              f"{len(report.errors)} error(s), "
              f"{len(report.warnings)} warning(s)")
    if report.errors:
        return 1
    if strict and report.warnings:
        return 1
    return 0


# ----------------------------------------------------------------------
# Self-test


def _write(directory, name, lines, terminate=True):
    with open(os.path.join(directory, name), "w",
              encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
        if not terminate:
            # Re-open truncating the final newline to model a torn
            # append.
            pass
    if not terminate:
        path = os.path.join(directory, name)
        with open(path, "rb+") as handle:
            handle.seek(-1, os.SEEK_END)
            handle.truncate()


def _header(generation, segment):
    return frame_line({"store_header": {
        "schema_version": 1, "generation": generation,
        "segment": segment}})


def _data(key, value=1):
    return frame_line({"key": key, "record": {"v": value}})


def _good_store(directory):
    _write(directory, "tail-1-1.log", [_header(1, 1), _data("a"),
                                       _data("b")])
    _write(directory, "tail-1-2.log", [_header(1, 2), _data("c")])
    _write(directory, "CLEAN", [
        frame_line({"clean_shutdown": {"generation": 1,
                                       "records": 3}})])


def self_test():
    print("store_fsck self-test:")
    c = Checker()

    def run_case(label, build, want_errors, want_warnings):
        with tempfile.TemporaryDirectory() as tmp:
            build(tmp)
            report = check_store(tmp)
            c.check(f"{label}: errors {'present' if want_errors else 'absent'}",
                    bool(report.errors) == want_errors)
            c.check(f"{label}: warnings "
                    f"{'present' if want_warnings else 'absent'}",
                    bool(report.warnings) == want_warnings)
            return report

    report = run_case("clean store", _good_store, False, False)
    c.check("clean store: all records indexed",
            sorted(report.records) == ["a", "b", "c"])

    def torn(tmp):
        _good_store(tmp)
        os.remove(os.path.join(tmp, "CLEAN"))
        with open(os.path.join(tmp, "tail-1-2.log"), "a",
                  encoding="utf-8") as handle:
            handle.write('deadbeef {"key":"torn","rec')
    report = run_case("torn tail", torn, False, True)
    c.check("torn tail: reported as torn, not error",
            any("torn final line" in w for w in report.warnings))

    def torn_then_restart(tmp):
        # Kill mid-append, then a restart that rotated to a new tail:
        # the torn line now sits in a non-newest segment.
        torn(tmp)
        _write(tmp, "tail-1-3.log", [_header(1, 3), _data("d")])
    report = run_case("torn line in older tail", torn_then_restart,
                      False, True)
    c.check("torn line in older tail: still a torn warning",
            any("torn final line" in w for w in report.warnings))
    c.check("torn line in older tail: later records indexed",
            "d" in report.records)

    def corrupt(tmp):
        _good_store(tmp)
        path = os.path.join(tmp, "tail-1-1.log")
        with open(path, "rb+") as handle:
            blob = bytearray(handle.read())
            first_nl = blob.index(b"\n")
            blob[first_nl + 20] ^= 0x04  # inside the first data frame
            handle.seek(0)
            handle.write(blob)
    run_case("corrupt interior frame", corrupt, True, False)

    def dup_key(tmp):
        _good_store(tmp)
        _write(tmp, "tail-1-2.log", [_header(1, 2), _data("a", 2)])
        _write(tmp, "CLEAN", [
            frame_line({"clean_shutdown": {"generation": 1,
                                           "records": 2}})])
    report = run_case("duplicate key", dup_key, False, True)
    c.check("duplicate key: first occurrence wins",
            report.records.get("a") == "tail-1-1.log")

    def wrong_gen_header(tmp):
        _good_store(tmp)
        _write(tmp, "tail-1-2.log", [_header(7, 2), _data("c")])
    run_case("header generation mismatch", wrong_gen_header, True,
             False)

    def wrong_segment_header(tmp):
        _good_store(tmp)
        _write(tmp, "tail-1-2.log", [_header(1, 1), _data("c")])
    run_case("header segment mismatch", wrong_segment_header, True,
             False)

    # What the store refuses to open is an error, named.
    for stray in ("base-2.log", "base-1.tmp", "tail-2-1.log",
                  "tail-1-01.log", "tail-1-18446744073709551617.log"):
        def refused(tmp, stray=stray):
            _good_store(tmp)
            _write(tmp, stray, [_header(1, 1), _data("a")])
        report = run_case(f"stray {stray}", refused, True, False)
        c.check(f"stray {stray}: named as refused",
                any(e.startswith(stray) and "refuses" in e
                    for e in report.errors))

    def clean_lies(tmp):
        _good_store(tmp)
        _write(tmp, "CLEAN", [
            frame_line({"clean_shutdown": {"generation": 1,
                                           "records": 99}})])
    run_case("CLEAN record-count mismatch", clean_lies, True, False)

    def clean_generation(tmp):
        _good_store(tmp)
        _write(tmp, "CLEAN", [
            frame_line({"clean_shutdown": {"generation": 2,
                                           "records": 3}})])
    run_case("CLEAN generation mismatch", clean_generation, True, False)

    def empty(tmp):
        pass
    run_case("empty directory", empty, False, True)

    # --json: findings as records, summary last, same exit contract,
    # and the text mode unchanged by the flag's existence.
    import contextlib
    import io
    with tempfile.TemporaryDirectory() as tmp:
        dup_key(tmp)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_fsck(tmp, strict=False, json_out=True)
        rows = [json.loads(line)
                for line in out.getvalue().splitlines()]
        c.check("json: warn-only store exits 0", code == 0)
        c.check("json: every line is schema-v1",
                all(row["schema_version"] == 1 for row in rows))
        findings = [row for row in rows
                    if row["record"] == "fsck_finding"]
        c.check("json: one finding per warning",
                len(findings) >= 1
                and all(f["severity"] == "warning" for f in findings)
                and any("duplicate key" in f["message"]
                        for f in findings))
        c.check("json: summary record is last",
                rows[-1]["record"] == "fsck_summary"
                and rows[-1]["ok"] is True
                and rows[-1]["records"] == 2
                and rows[-1]["warnings"] == len(findings))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            strict_code = run_fsck(tmp, strict=True, json_out=True)
        strict_rows = [json.loads(line)
                       for line in out.getvalue().splitlines()]
        c.check("json: --strict flips the verdict and exit code",
                strict_code == 1 and strict_rows[-1]["ok"] is False
                and strict_rows[-1]["strict"] is True)
    with tempfile.TemporaryDirectory() as tmp:
        corrupt(tmp)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_fsck(tmp, strict=False, json_out=True)
        rows = [json.loads(line)
                for line in out.getvalue().splitlines()]
        c.check("json: damaged store exits 1 with error findings",
                code == 1 and rows[-1]["errors"] >= 1
                and any(row.get("severity") == "error"
                        for row in rows))
    with tempfile.TemporaryDirectory() as tmp:
        _good_store(tmp)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run_fsck(tmp, strict=False)
        text = out.getvalue()
        c.check("text mode unchanged: summary line intact",
                text == "store_fsck: 3 record(s), 0 error(s), "
                        "0 warning(s)\n")

    return c.finish()


def main():
    parser = argparse.ArgumentParser(
        description="integrity check for a ResultStore directory")
    parser.add_argument("store", nargs="?",
                        help="store directory to check")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as errors")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as schema-v1 JSONL instead "
                             "of text")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in checks and exit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.store:
        parser.error("STORE_DIR is required (or use --self-test)")
    return run_fsck(args.store, args.strict, json_out=args.json)


if __name__ == "__main__":
    sys.exit(main())
