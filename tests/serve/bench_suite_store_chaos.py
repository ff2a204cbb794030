#!/usr/bin/env python3
"""bench_suite --store DIR survives injected crashes byte-identically.

A clean `bench_suite --store DIR` run is the reference, and its store
passes `store_fsck --strict`. Then, for crash@N (a hard exit right
after put N is durable) and tear@N (put N persists half its frame,
then the process exits) at puts 7, 31 and 94, a run on a fresh store
must exit 137; a rerun of the same command must write output
`cmp`-equal to the reference and report resumed + executed = 130; a
third run must report 0 executed and still match; and the store must
pass the strict fsck. Last, a run with --retries 2 --fault-inject
'throw@11x*' must quarantine exactly run 11 with "injected fault" in
its cause, and leave a store that passes the strict fsck. On failure
WORKDIR is left in place.

    bench_suite_store_chaos.py BENCH_SUITE STORE_FSCK WORKDIR
"""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys

BUDGET = "20K"
FAULTS = ("crash@7", "crash@31", "crash@94",
          "tear@7", "tear@31", "tear@94")
RESUMED = re.compile(r"\((\d+) resumed from .*, (\d+) executed\)")


def run(argv, want=0, label=None):
    """Run @p argv; exit naming @p label (or the command) unless it
    exits @p want. Returns its stdout."""
    result = subprocess.run(argv, capture_output=True, text=True,
                            timeout=300)
    if result.returncode != want:
        sys.exit(f"{label or ' '.join(argv)}: expected exit {want}, got "
                 f"{result.returncode}:\n{result.stdout}{result.stderr}")
    return result.stdout


def chaos(bench, fsck):
    def suite(store, out, *extra, **expect):
        return run([bench, "--budget", BUDGET, "--store", store,
                    "--json", out, *extra], **expect)

    suite("clean_store", "clean.json")
    run([fsck, "--strict", "clean_store"])

    for fault in FAULTS:
        store = f"store_{fault.replace('@', '_')}"
        out = f"{store}.json"
        suite(store, out, "--fault-inject", fault, want=137,
              label=f"{fault} (the injected crash)")
        resume = suite(store, out)
        if not filecmp.cmp("clean.json", out, shallow=False):
            sys.exit(f"{fault}: the resumed output differs from the clean "
                     f"run")
        match = RESUMED.search(resume)
        if not match or int(match.group(1)) + int(match.group(2)) != 130:
            sys.exit(f"{fault}: resumed + executed is not 130:\n{resume}")
        again = suite(store, out)
        if ", 0 executed)" not in again or not filecmp.cmp(
                "clean.json", out, shallow=False):
            sys.exit(f"{fault}: a third run simulated again or differs:\n"
                     f"{again}")
        run([fsck, "--strict", store])
        print(f"{fault}: {match.group(1)} resumed + {match.group(2)} "
              "executed, byte-identical, fsck clean")

    suite("quarantine_store", "quarantine.json", "--retries", "2",
          "--fault-inject", "throw@11x*")
    run([fsck, "--strict", "quarantine_store"])
    with open("quarantine.json", encoding="utf-8") as records:
        manifests = [record for record in map(json.loads, records)
                     if record.get("record") == "sweep_manifest"]
    failures = manifests[-1]["failures"] if manifests else None
    if (not failures or len(failures) != 1 or failures[0]["index"] != 11
            or "injected fault" not in failures[0]["cause"]):
        sys.exit(f"throw@11x*: want one failure, run 11, 'injected fault'; "
                 f"the sweep_manifest says {failures}")
    print(f"throw@11x*: quarantined run 11 ({failures[0]['benchmark']})")


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    bench = os.path.abspath(sys.argv[1])
    fsck = os.path.abspath(sys.argv[2])
    work = sys.argv[3]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    chaos(bench, fsck)
    os.chdir("/")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
