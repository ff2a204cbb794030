#!/usr/bin/env python3
"""A sweep_serve daemon killed mid-batch resumes byte-identically.

This is the crash half of CI's sweep-service-chaos job. A clean daemon
on a fresh store answers `bench_suite --store unix:SOCKET`; its output
is the reference, and must equal an in-process `bench_suite --store
DIR` run. A daemon started with --fault-inject crash@N then
takes a shuffled, duplicate-heavy batch of the same grid (every run
twice plus a third copy of the first 40) on one connection, and must
exit 137 at its N-th put. A daemon restarted on the store it left
answers the resubmitted grid, and the output must `cmp` equal to the
reference. A last daemon on the now-full store answers the resubmit
again and must execute 0 runs. Kept streams cross requests inside a
daemon, so this pins that neither a crash nor a restart changes a
byte. Nothing here is timed.

    sweep_serve_chaos.py SWEEP_SERVE BENCH_SUITE WORKDIR
"""

import filecmp
import json
import os
import random
import re
import shutil
import socket
import subprocess
import sys
import time

BUDGET = "20K"
CRASH_AT = 40
SOCKET = "chaos.sock"
DONE_LINE = re.compile(r"sweep_serve: done: .* (\d+) executed,")


class Daemon:
    """One sweep_serve process on @p store, logging to its own file."""

    starts = 0
    live = []

    def __init__(self, binary, store, extra=()):
        Daemon.starts += 1
        self.log_path = f"daemon-{Daemon.starts}.log"
        if os.path.exists(SOCKET):
            os.unlink(SOCKET)
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [binary, "--store", store, "--socket", SOCKET,
                 "--workers", "2", *extra],
                stdout=log, stderr=subprocess.STDOUT)
        Daemon.live.append(self.proc)
        deadline = time.monotonic() + 30.0
        while "sweep_serve: listening on" not in self.log():
            if self.proc.poll() is not None:
                sys.exit(f"sweep_serve exited {self.proc.returncode} "
                         f"before it was listening:\n{self.log()}")
            if time.monotonic() > deadline:
                sys.exit("sweep_serve was not listening after 30 s")
            time.sleep(0.02)

    def log(self):
        with open(self.log_path, encoding="utf-8") as log:
            return log.read()

    def wait(self, want):
        code = self.proc.wait(timeout=120)
        if code != want:
            sys.exit(f"sweep_serve exited {code}, want {want}:\n"
                     f"{self.log()}")

    def stop(self):
        """SIGTERM; returns the runs the daemon executed."""
        self.proc.terminate()
        self.wait(0)
        match = DONE_LINE.search(self.log())
        if not match:
            sys.exit(f"{self.log_path} has no done line:\n{self.log()}")
        return int(match.group(1))


def bench_suite(binary, out, store=f"unix:{SOCKET}"):
    """Run the grid against @p store (by default, through the daemon);
    returns bench_suite's stdout."""
    result = subprocess.run(
        [binary, "--budget", BUDGET, "--store", store, "--json", out],
        capture_output=True, text=True, timeout=300)
    if result.returncode != 0:
        sys.exit(f"bench_suite exited {result.returncode}:\n"
                 f"{result.stdout}{result.stderr}")
    return result.stdout


def chaos_batch(reference):
    """The CI job's batch: each run of @p reference twice plus the
    first 40 again, shuffled."""
    runs = []
    with open(reference, encoding="utf-8") as records:
        for line in records:
            record = json.loads(line)
            if record.get("record") == "run":
                runs.append({"benchmark": record["workload"],
                             "config": record["config"]})
    if len(runs) != 130:
        sys.exit(f"{reference} holds {len(runs)} runs, want 130")
    batch = runs + runs + runs[:40]
    random.Random(1995).shuffle(batch)
    return [json.dumps({"id": i, **request}, separators=(",", ":"))
            for i, request in enumerate(batch)]


def send_until_closed(lines):
    """Send @p lines on one connection and read until the daemon
    closes it; returns the number of responses."""
    answered = 0
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.settimeout(120.0)
        client.connect(SOCKET)
        try:
            client.sendall("".join(line + "\n" for line in lines).encode())
            reader = client.makefile("rb")
            while reader.readline():
                answered += 1
        except OSError:
            pass  # the daemon died mid-batch, as it was told to
    return answered


def chaos(sweep_serve, bench):
    daemon = Daemon(sweep_serve, "clean_store")
    bench_suite(bench, "clean.json")
    daemon.stop()
    bench_suite(bench, "in_process.json", store="in_process_store")
    if not filecmp.cmp("clean.json", "in_process.json", shallow=False):
        sys.exit("the clean daemon's output differs from an in-process run")

    batch = chaos_batch("clean.json")
    daemon = Daemon(sweep_serve, "store",
                    ["--fault-inject", f"crash@{CRASH_AT}"])
    answered = send_until_closed(batch)
    daemon.wait(137)
    if answered >= len(batch):
        sys.exit(f"all {len(batch)} requests were answered; the daemon "
                 f"should have died at put {CRASH_AT}")

    daemon = Daemon(sweep_serve, "store")
    bench_suite(bench, "resumed.json")
    executed = daemon.stop()
    if not filecmp.cmp("clean.json", "resumed.json", shallow=False):
        sys.exit("the resumed daemon's output differs from the clean run")

    daemon = Daemon(sweep_serve, "store")
    out = bench_suite(bench, "again.json")
    if daemon.stop() != 0 or "(130 served from the store" not in out:
        sys.exit(f"a resubmit against the full store simulated again:\n"
                 f"{out}")
    if not filecmp.cmp("clean.json", "again.json", shallow=False):
        sys.exit("the full store's output differs from the clean run")

    print(f"crash@{CRASH_AT} after {answered} of {len(batch)} answers; "
          f"the restart executed {executed} runs, byte-identical; the "
          "full store executed 0")


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sweep_serve = os.path.abspath(sys.argv[1])
    bench = os.path.abspath(sys.argv[2])
    work = sys.argv[3]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Relative paths keep the socket's name short whatever WORKDIR is.
    os.chdir(work)
    try:
        chaos(sweep_serve, bench)
    finally:
        for proc in Daemon.live:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    os.chdir("/")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
