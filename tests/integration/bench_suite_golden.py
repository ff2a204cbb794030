#!/usr/bin/env python3
"""bench_suite reproduces every record digest of a checked-in hash file.

The header of HASH_FILE (tests/golden/bench_suite_20k.sha256) states a
bench_suite recipe and how each record is hashed: the sha256 of
json.dumps(record without "timing", sort_keys=True), one digest per
line in output order. This reruns the header's own command, with
BENCH_SUITE for its binary and a file under WORKDIR for its --json,
hashes the records the same way and compares them line by line. On a
mismatch it names the first record index whose digest differs, is
missing or is extra, prints bench_suite's output and leaves WORKDIR.

    bench_suite_golden.py BENCH_SUITE HASH_FILE WORKDIR
"""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys


def read_hash_file(path):
    """(recipe argv after the binary, expected digests) of @p path."""
    recipe = None
    digests = []
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            line = line.strip()
            if not line.startswith("#"):
                if line:
                    digests.append(line)
                continue
            if "bench/bench_suite " in line:
                recipe = shlex.split(line[1:])[1:]
    if recipe is None or "--json" not in recipe:
        sys.exit(f"{path}: no bench_suite recipe with --json in its header")
    return recipe, digests


def digest(record):
    stripped = {k: v for k, v in record.items() if k != "timing"}
    return hashlib.sha256(
        json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def describe(record):
    """Short name of @p record for a failure message."""
    parts = [record.get(key) for key in
             ("record", "workload", "policy", "prefetch")]
    return " ".join(str(part) for part in parts if part)


def first_difference(want, records):
    """Message naming the first index where @p records' digests leave
    @p want, or None when they match."""
    got = [digest(record) for record in records]
    for index in range(max(len(want), len(got))):
        if index >= len(got):
            return (f"record {index} is missing: the run wrote {len(got)} "
                    f"records, the hash file holds {len(want)}")
        if index >= len(want):
            return (f"record {index} ({describe(records[index])}) is extra: "
                    f"the hash file holds {len(want)} digests")
        if got[index] != want[index]:
            wrong = sum(a != b for a, b in zip(want, got))
            return (f"record {index} ({describe(records[index])}) differs: "
                    f"digest {got[index]}, want {want[index]} "
                    f"({wrong} of {min(len(want), len(got))} digests differ)")
    return None


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    bench, hash_file, work = sys.argv[1:]
    recipe, want = read_hash_file(hash_file)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "records.jsonl")
    recipe[recipe.index("--json") + 1] = out
    result = subprocess.run([bench, *recipe], capture_output=True,
                            text=True, timeout=600)
    if result.returncode != 0:
        sys.exit(f"bench_suite exited {result.returncode}:\n"
                 f"{result.stdout}{result.stderr}")
    with open(out, encoding="utf-8") as lines:
        records = [json.loads(line) for line in lines if line.strip()]
    problem = first_difference(want, records)
    if problem:
        sys.exit(f"{result.stdout}{result.stderr}\n"
                 f"{hash_file}: {problem}; records kept in {out}")
    print(f"{len(records)} records reproduce {hash_file}")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
