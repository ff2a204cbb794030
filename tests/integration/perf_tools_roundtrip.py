#!/usr/bin/env python3
"""perf_microbench's records and tools/perf_compare.py agree.

Runs `perf_microbench --budget 20K --repeats 3 --json F` and requires
every twin record to name a base stage present in F and a bound (each
twin listed in TWINS, with its base and bound); the throughput gate
`perf_compare.py --strict F F` to exit 0 and, against a copy of F with
sim_replay's rate halved, to exit 1; and the pair check
`perf_compare.py F` to exit 0. The verdicts never depend on the
timings: F is compared with itself and with a copy whose one stage is
halved, and the pair check is warn-only.

    perf_tools_roundtrip.py PERF_MICROBENCH PERF_COMPARE WORKDIR
"""

import json
import os
import shutil
import subprocess
import sys

# Each twin's base stage and overhead bound.
TWINS = {"sim_live_sampled": ("sim_live", 0.05),
         "sim_adaptive": ("sim_live", 0.03),
         "sim_replay_sampled": ("sim_replay", 0.05),
         "grid_sampled": ("grid", 0.05),
         "serve_hit_metrics": ("serve_hit", 0.03)}


def run(argv, want, label, failures):
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != want:
        failures.append(f"{label}: exit {proc.returncode}, want {want}\n"
                        f"{proc.stdout}{proc.stderr}")
    return proc


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    bench, compare, work = sys.argv[1:]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    perf = os.path.join(work, "perf.json")
    halved = os.path.join(work, "perf_halved.json")
    failures = []

    if run([bench, "--budget", "20K", "--repeats", "3", "--json", perf],
           0, "perf_microbench", failures).returncode != 0:
        sys.exit(failures[0])
    with open(perf, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    stages = {r["stage"]: r for r in records if r["record"] == "perf"}
    for stage, record in stages.items():
        if "base" not in record:
            continue
        if record["base"] not in stages:
            failures.append(f"twin {stage} names base stage "
                            f"{record['base']!r}, which is not in {perf}")
        if not isinstance(record.get("bound"), float):
            failures.append(f"twin {stage} has no bound")
    twins = {stage: (r["base"], r.get("bound"))
             for stage, r in stages.items() if "base" in r}
    if twins != TWINS:
        failures.append(f"twins {twins}, want {TWINS}")

    run([sys.executable, compare, "--strict", perf, perf], 0,
        "gate of F against itself", failures)
    for record in records:
        if record.get("stage") == "sim_replay":
            record["rate"] *= 0.5
            record["seconds"] *= 2
    with open(halved, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(r) + "\n" for r in records)
    run([sys.executable, compare, "--strict", perf, halved], 1,
        "gate of a halved sim_replay against F", failures)
    pair = run([sys.executable, compare, perf], 0, "pair check of F",
               failures)
    for stage in TWINS:
        if stage not in pair.stdout:
            failures.append(f"pair check does not report {stage}")

    if failures:
        sys.exit("\n".join(failures))
    shutil.rmtree(work)
    print(f"perf_tools_roundtrip: {len(stages)} stages, "
          f"{len(twins)} twins, gate and pair check agree")


if __name__ == "__main__":
    main()
