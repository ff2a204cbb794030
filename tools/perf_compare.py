#!/usr/bin/env python3
"""Check perf_microbench records: the pair check and the throughput gate.

Inputs are JSONL files produced by `perf_microbench --json`: one
"perf_meta" record (benchmark, budget, repeats, statistic) followed by
one "perf" record per stage carrying its throughput ("rate", work
units per second). A file may hold several runs of one binary, each
its own perf_meta and perf records concatenated; each stage then
stands for the median of its runs. Runs whose benchmark or budget
disagree are refused: their median would mix settings.

Given ONE file, the pair check: a twin stage (one whose record names a
"base" stage, a "bound" and a "ratio") timed its base stage's work with
one thing armed — the sampler, the adaptive decision point or the
service's telemetry — beside that base in the same process, and its
"ratio" is the median over repeats of twin rate / base rate. Its
overhead, 1 - ratio, is held to its own bound. A twin whose base stage
has no record is an error naming the base.

Given TWO files, BASELINE and CURRENT, the throughput gate: a per-stage
table of the rate ratio current/baseline, flagging stages whose
throughput dropped by more than --tolerance (default 25%) or a
--stage-tolerance of their own. CI's perf-gate job runs it on three
alternating runs of the merge base's binary and of HEAD's, with
--strict, so a flagged drop fails the build; --diff-out writes the
comparison as JSONL (one "perf_diff" record per stage plus a
"perf_diff_meta" summary) for artifact upload.

Damaged inputs degrade instead of crashing: a perf record without a
usable "stage" or "rate" (or a twin without a usable "base", "bound"
or "ratio") is skipped with a warning naming the file and line. A
stage present on only one side of the gate is reported, not gated, as
a warning naming the stage (MISSING / new in the table): HEAD's
harness may add or drop a stage its merge base has.
Mismatched measurement settings (different benchmark or budget) are a
hard error in both uses.

By default the exit code is 0 even when a stage is flagged, for
exploratory local runs; --strict turns any flag into exit code 1.

Usage:
    tools/perf_compare.py PERF [--strict]
    tools/perf_compare.py BASELINE CURRENT [--tolerance 0.25] [--strict]
        [--stage-tolerance STAGE=FRAC ...] [--diff-out DIFF.json]
    tools/perf_compare.py --self-test
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common.jsonl import iter_records, warn  # noqa: E402
from common.selftest import Checker  # noqa: E402


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def median(values):
    """Median of @p values (the mean of the middle two for an even
    count), as perf_microbench computes it."""
    values = sorted(values)
    middle = len(values) // 2
    if len(values) % 2:
        return values[middle]
    return 0.5 * (values[middle - 1] + values[middle])


def load_perf(path):
    """Return (meta, {stage: record}) from a perf JSONL file of one or
    more runs; a stage's record carries the median of its runs' rates
    and, for a twin, of their ratios."""
    metas = []
    runs = {}
    for lineno, record in iter_records(path, kinds=("perf_meta", "perf")):
        if record["record"] == "perf_meta":
            for key in ("benchmark", "budget"):
                if metas and record.get(key) != metas[0].get(key):
                    raise SystemExit(
                        f"error: {path}:{lineno}: a run with {key} "
                        f"{record.get(key)!r} follows runs with {key} "
                        f"{metas[0].get(key)!r}; a file holds runs of "
                        f"one setting")
            metas.append(record)
            continue
        stage = record.get("stage")
        if not isinstance(stage, str) or stage == "":
            warn(f"{path}:{lineno}: perf record without a "
                 f"usable 'stage'; skipping it")
            continue
        if not is_number(record.get("rate")):
            warn(f"{path}:{lineno}: stage '{stage}' has no "
                 f"numeric 'rate'; skipping it")
            continue
        if "base" in record and not (
                isinstance(record["base"], str)
                and is_number(record.get("bound"))
                and is_number(record.get("ratio"))):
            warn(f"{path}:{lineno}: twin stage '{stage}' has no usable "
                 f"'base', 'bound' and 'ratio'; skipping it")
            continue
        runs.setdefault(stage, []).append(record)
    if not metas:
        raise SystemExit(f"{path}: no perf_meta record found")
    if not runs:
        raise SystemExit(f"{path}: no usable perf records found")
    stages = {}
    for stage, records in runs.items():
        stages[stage] = dict(records[0],
                             rate=median(r["rate"] for r in records))
        if "base" in stages[stage]:
            stages[stage]["ratio"] = median(r["ratio"] for r in records)
    return metas[0], stages


def parse_stage_tolerances(pairs):
    """Turn ['sim_replay=0.15', ...] into {stage: fraction}."""
    table = {}
    for pair in pairs or ():
        stage, sep, value = pair.partition("=")
        if not sep or not stage:
            raise SystemExit(
                f"error: --stage-tolerance needs STAGE=FRACTION, "
                f"got {pair!r}")
        try:
            fraction = float(value)
        except ValueError:
            raise SystemExit(
                f"error: --stage-tolerance fraction for "
                f"'{stage}' is not a number: {value!r}") from None
        if not 0.0 <= fraction < 1.0:
            raise SystemExit(
                f"error: --stage-tolerance fraction for '{stage}' "
                f"must be in [0, 1), got {fraction}")
        table[stage] = fraction
    return table


def write_diff(path, records):
    """Write the comparison as JSONL for artifact upload."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def compare(base_meta, base, cur_meta, cur, baseline_name, current_name,
            tolerance, strict, stage_tolerance=None, diff_out=None):
    for key in ("benchmark", "budget"):
        if base_meta.get(key) != cur_meta.get(key):
            raise SystemExit(
                f"error: measurement settings differ: {key} is "
                f"{base_meta.get(key)!r} in {baseline_name} but "
                f"{cur_meta.get(key)!r} in {current_name}")
    if base_meta.get("stat", "best") != cur_meta.get("stat", "best"):
        warn(f"statistic differs: {base_meta.get('stat', 'best')!r} in "
             f"{baseline_name} vs {cur_meta.get('stat', 'best')!r} in "
             f"{current_name}; the ratio mixes statistics")

    stage_tolerance = stage_tolerance or {}
    flagged = []
    diff = []
    print(f"{'stage':<20} {'baseline/s':>14} {'current/s':>14} "
          f"{'ratio':>7}")
    for stage in base:
        bound = stage_tolerance.get(stage, tolerance)
        if stage not in cur:
            warn(f"stage '{stage}' is in {baseline_name} but missing "
                 f"from {current_name}")
            print(f"{stage:<20} {base[stage]['rate']:>14.0f} "
                  f"{'MISSING':>14} {'-':>7}")
            diff.append({"record": "perf_diff", "stage": stage,
                         "baseline_rate": base[stage]["rate"],
                         "current_rate": None, "ratio": None,
                         "tolerance": None, "flagged": False})
            continue
        base_rate = base[stage]["rate"]
        cur_rate = cur[stage]["rate"]
        ratio = cur_rate / base_rate if base_rate > 0 else float("inf")
        mark = ""
        over = ratio < 1.0 - bound
        if over:
            flagged.append(stage)
            mark = f"  << regressed (>{bound:.0%})"
        print(f"{stage:<20} {base_rate:>14.0f} {cur_rate:>14.0f} "
              f"{ratio:>7.2f}{mark}")
        diff.append({"record": "perf_diff", "stage": stage,
                     "baseline_rate": base_rate,
                     "current_rate": cur_rate,
                     "ratio": ratio if ratio != float("inf") else None,
                     "tolerance": bound, "flagged": over})
    for stage in cur:
        if stage not in base:
            warn(f"stage '{stage}' is new in {current_name} (not in "
                 f"{baseline_name})")
            print(f"{stage:<20} {'(new)':>14} {cur[stage]['rate']:>14.0f} "
                  f"{'-':>7}")
            diff.append({"record": "perf_diff", "stage": stage,
                         "baseline_rate": None,
                         "current_rate": cur[stage]["rate"],
                         "ratio": None, "tolerance": None,
                         "flagged": False})

    if diff_out:
        summary = {"record": "perf_diff_meta",
                   "baseline": baseline_name, "current": current_name,
                   "benchmark": base_meta.get("benchmark"),
                   "budget": base_meta.get("budget"),
                   "tolerance": tolerance,
                   "stage_tolerance": stage_tolerance,
                   "flagged": flagged}
        write_diff(diff_out, [summary] + diff)

    if flagged:
        drops = ", ".join(flagged)
        warn(f"throughput dropped past its tolerance on: {drops}")
        if strict:
            return 1
    return 0


def check_twins(stages, name, strict):
    """Hold each twin's overhead over its base stage to its bound."""
    twins = [stage for stage, record in stages.items() if "base" in record]
    if not twins:
        raise SystemExit(f"error: {name} has no twin perf records (a "
                         f"twin names its 'base' stage)")
    for stage in twins:
        if stages[stage]["base"] not in stages:
            raise SystemExit(
                f"error: {name}: twin '{stage}' names base stage "
                f"'{stages[stage]['base']}', which has no perf record")

    flagged = []
    print(f"{'twin':<20} {'base':<12} {'overhead':>9} {'bound':>6}")
    for stage in twins:
        record = stages[stage]
        overhead = 1.0 - record["ratio"]
        mark = ""
        if overhead > record["bound"]:
            flagged.append(stage)
            mark = "  << over its bound"
        print(f"{stage:<20} {record['base']:<12} {overhead:>+9.1%} "
              f"{record['bound']:>6.0%}{mark}")
    if flagged:
        warn(f"overhead exceeds its bound on: {', '.join(flagged)}")
        if strict:
            return 1
    return 0


def self_test():
    """Exercise the degradation paths without external fixtures."""
    import contextlib
    import io
    import tempfile

    def write_jsonl(directory, name, records):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return path

    def quiet(fn, *args):
        """(fn's result, stdout, stderr) with both captured."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            result = fn(*args)
        return result, out.getvalue(), err.getvalue()

    meta = {"record": "perf_meta", "benchmark": "gcc", "budget": 1000}
    checker = Checker()
    check = checker.check

    with tempfile.TemporaryDirectory() as tmp:
        # 1. Records without stage/rate are skipped with a warning,
        #    not a KeyError.
        path = write_jsonl(tmp, "damaged.json", [
            meta,
            {"record": "perf", "rate": 5.0},
            {"record": "perf", "stage": "no_rate"},
            {"record": "perf", "stage": "bool_rate", "rate": True},
            {"record": "perf", "stage": "bad_twin", "rate": 1.0,
             "base": "good", "bound": 0.05},
            {"record": "perf", "stage": "good", "rate": 100.0},
        ])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            _, stages = load_perf(path)
        check("damaged records skipped", set(stages) == {"good"})
        check("skip warnings name the problem",
              "usable 'stage'" in err.getvalue()
              and "no_rate" in err.getvalue()
              and "bool_rate" in err.getvalue()
              and "bad_twin" in err.getvalue())

        # 2. A stage only one side has is reported by name, not gated,
        #    even under --strict: HEAD's harness may add or drop a
        #    stage its merge base has.
        base = {"a": {"stage": "a", "rate": 100.0},
                "gone": {"stage": "gone", "rate": 50.0}}
        cur = {"a": {"stage": "a", "rate": 100.0},
               "fresh": {"stage": "fresh", "rate": 10.0}}
        code, out, err = quiet(compare, meta, base, meta, cur, "base",
                               "cur", 0.25, True)
        check("one-sided stages are not gated", code == 0)
        check("missing stage named in warning",
              "'gone'" in err and "missing" in err)
        check("new stage named in warning", "'fresh'" in err)
        check("missing stage rendered in table", "MISSING" in out)

        # 3. --strict turns a drop past the tolerance into exit 1.
        code, _, _ = quiet(compare, meta, base, meta,
                           dict(cur, a={"stage": "a", "rate": 70.0}),
                           "base", "cur", 0.25, True)
        check("a 30% drop fails under --strict", code == 1)

        # 4. Regression math: a 50% drop is flagged, a 10% drop is not
        #    at the default tolerance.
        base = {"x": {"stage": "x", "rate": 100.0},
                "y": {"stage": "y", "rate": 100.0}}
        cur = {"x": {"stage": "x", "rate": 50.0},
               "y": {"stage": "y", "rate": 90.0}}
        code, out, err = quiet(compare, meta, base, meta, cur, "base",
                               "cur", 0.25, True)
        check("50% drop flagged strictly", code == 1)
        check("regression marked in table", "<< regressed" in out)
        check("10% drop not flagged", "y" not in err)

        # 4b. Per-stage tolerance: the same 10% drop passes globally
        #     but fails a 5% stage bound; the bound applies only to
        #     its stage. The diff JSONL mirrors the verdicts.
        diff_path = os.path.join(tmp, "diff.json")
        code, _, err = quiet(compare, meta, base, meta, cur, "base",
                             "cur", 0.25, True, {"y": 0.05}, diff_path)
        check("stage tolerance tightens its stage", code == 1
              and "y" in err)
        with open(diff_path, encoding="utf-8") as handle:
            diff = [json.loads(line) for line in handle]
        by_stage = {d.get("stage"): d for d in diff
                    if d["record"] == "perf_diff"}
        check("diff meta lists flagged stages",
              diff[0]["record"] == "perf_diff_meta"
              and set(diff[0]["flagged"]) == {"x", "y"})
        check("diff records carry per-stage verdicts",
              by_stage["x"]["flagged"] and by_stage["y"]["flagged"]
              and by_stage["x"]["tolerance"] == 0.25
              and by_stage["y"]["tolerance"] == 0.05)

        # 4c. Loose per-stage tolerance relaxes below the global bound.
        code, _, _ = quiet(compare, meta, base, meta, cur, "base", "cur",
                           0.25, True, {"x": 0.60})
        check("loose stage tolerance passes its stage", code == 0)

        # 4d. Malformed --stage-tolerance inputs are hard errors.
        for bad in ("sim_replay", "=0.1", "x=lots", "x=1.5"):
            try:
                parse_stage_tolerances([bad])
                check(f"stage tolerance {bad!r} rejected", False)
            except SystemExit:
                check(f"stage tolerance {bad!r} rejected", True)
        check("stage tolerance parses valid pairs",
              parse_stage_tolerances(["a=0.15", "b=0"])
              == {"a": 0.15, "b": 0.0})

        # 4e. Differing statistics warn but do not abort.
        ok = {"x": {"stage": "x", "rate": 100.0},
              "y": {"stage": "y", "rate": 100.0}}
        code, _, err = quiet(compare, meta, ok, dict(meta, stat="median"),
                             ok, "base", "cur", 0.25, True)
        check("stat mismatch warns but passes", code == 0
              and "statistic differs" in err)

        # 5. Mismatched measurement settings stay a hard error.
        try:
            quiet(compare, meta, base, dict(meta, budget=2000), cur,
                  "base", "cur", 0.25, False)
            check("meta mismatch raises", False)
        except SystemExit as err:
            check("meta mismatch raises", "budget" in str(err))

        # 6. Several runs in one file: each stage is the median of its
        #    runs (mean of the middle two for an even count), a twin's
        #    ratio likewise; runs of another benchmark or budget are
        #    refused by name.
        def run(rate, extra_rate, ratio):
            return [meta,
                    {"record": "perf", "stage": "sim_replay",
                     "rate": rate},
                    {"record": "perf", "stage": "sim_replay_sampled",
                     "rate": rate, "base": "sim_replay", "bound": 0.05,
                     "ratio": ratio}] + (
                [{"record": "perf", "stage": "extra",
                  "rate": extra_rate}] if extra_rate else [])
        path = write_jsonl(tmp, "runs.json", run(100.0, 10.0, 0.99)
                           + run(300.0, 0, 0.90) + run(200.0, 20.0, 0.98))
        _, stages = load_perf(path)
        check("each stage is the median of its runs",
              stages["sim_replay"]["rate"] == 200.0
              and stages["extra"]["rate"] == 15.0)
        check("a twin's ratio is the median of its runs",
              stages["sim_replay_sampled"]["ratio"] == 0.98)
        for key, value in (("benchmark", "li"), ("budget", 2000)):
            path = write_jsonl(tmp, f"mixed_{key}.json",
                               run(100.0, 0, 1.0)
                               + [dict(meta, **{key: value})])
            try:
                load_perf(path)
                check(f"runs of another {key} refused", False)
            except SystemExit as err:
                check(f"runs of another {key} refused",
                      key in str(err) and repr(value) in str(err))

        # 7. The pair check: a twin within its bound passes, one over
        #    it is flagged (exit 1 only under --strict), and a twin
        #    whose base stage is missing is an error naming the base.
        def twins(ratio, metrics_ratio):
            return {"sim_live": {"stage": "sim_live", "rate": 100.0},
                    "sim_live_sampled": {"stage": "sim_live_sampled",
                                         "base": "sim_live",
                                         "bound": 0.05, "ratio": ratio},
                    "serve_hit": {"stage": "serve_hit", "rate": 10.0},
                    "serve_hit_metrics": {"stage": "serve_hit_metrics",
                                          "base": "serve_hit",
                                          "bound": 0.03,
                                          "ratio": metrics_ratio}}
        code, out, err = quiet(check_twins, twins(0.97, 0.98), "perf",
                               True)
        check("twins within their bounds pass strictly", code == 0
              and "sim_live_sampled" in out and err == "")
        code, out, err = quiet(check_twins, twins(0.97, 0.95), "perf",
                               True)
        check("a twin over its bound fails strictly", code == 1
              and "serve_hit_metrics" in err
              and "sim_live_sampled" not in err
              and "<< over its bound" in out)
        code, _, _ = quiet(check_twins, twins(0.97, 0.95), "perf", False)
        check("a twin over its bound is warn-only by default", code == 0)
        orphan = twins(0.97, 0.98)
        del orphan["serve_hit"]
        try:
            quiet(check_twins, orphan, "perf", False)
            check("a twin's missing base stage raises", False)
        except SystemExit as err:
            check("a twin's missing base stage raises",
                  "'serve_hit'" in str(err))
        try:
            quiet(check_twins, base, "perf", False)
            check("a file without twins raises", False)
        except SystemExit as err:
            check("a file without twins raises", "twin" in str(err))

        # 8. One file on the command line is the pair check; the
        #    gate's options are refused there.
        path = write_jsonl(tmp, "pair.json", [meta] + [
            dict(s, record="perf", rate=s.get("rate", 10.0))
            for s in twins(0.97, 0.95).values()])
        code, _, _ = quiet(main, [path])
        check("one file runs the pair check, warn-only", code == 0)
        code, _, _ = quiet(main, [path, "--strict"])
        check("the pair check fails strictly over a bound", code == 1)
        try:
            quiet(main, [path, "--tolerance", "0.1"])
            check("gate options refused with one file", False)
        except SystemExit as err:
            check("gate options refused with one file", err.code == 2)

    return checker.finish()


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check perf_microbench records: one file holds each "
                    "twin stage to its overhead bound, two gate "
                    "CURRENT's throughput against BASELINE's")
    parser.add_argument("baseline", nargs="?",
                        help="baseline perf JSONL, or the one file of "
                             "the pair check")
    parser.add_argument("current", nargs="?",
                        help="current perf JSONL")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="flag throughput drops beyond this fraction "
                             "(default 0.25)")
    parser.add_argument("--stage-tolerance", action="append",
                        metavar="STAGE=FRACTION",
                        help="per-stage override of --tolerance "
                             "(repeatable; e.g. sim_replay=0.15)")
    parser.add_argument("--diff-out", metavar="PATH",
                        help="write the comparison as JSONL diff records "
                             "(for CI artifact upload)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when any stage is flagged "
                             "(default: warn only)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in unit tests and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.baseline is None:
        parser.error("give PERF (the pair check) or BASELINE CURRENT "
                     "(or use --self-test)")
    if args.current is None:
        if args.tolerance is not None or args.stage_tolerance \
                or args.diff_out:
            parser.error("--tolerance, --stage-tolerance and --diff-out "
                         "need BASELINE CURRENT; the pair check holds "
                         "each twin to its own bound")
        _, stages = load_perf(args.baseline)
        return check_twins(stages, args.baseline, args.strict)

    base_meta, base = load_perf(args.baseline)
    cur_meta, cur = load_perf(args.current)
    return compare(base_meta, base, cur_meta, cur, args.baseline,
                   args.current,
                   0.25 if args.tolerance is None else args.tolerance,
                   args.strict,
                   stage_tolerance=parse_stage_tolerances(
                       args.stage_tolerance),
                   diff_out=args.diff_out)


if __name__ == "__main__":
    sys.exit(main())
