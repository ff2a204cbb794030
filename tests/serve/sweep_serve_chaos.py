#!/usr/bin/env python3
"""A sweep_serve daemon killed mid-batch resumes byte-identically.

A clean daemon on a fresh store answers `bench_suite --store
unix:SOCKET`; its output is the reference, and must equal an
in-process `bench_suite --store DIR` run. Daemons started with
--fault-inject crash@7, then crash@40, on one store each take a
shuffled, duplicate-heavy batch of the same grid (every run twice plus
a third copy of the first 40) on one connection, and must exit 137 at
that put, leaving --metrics-out files that validate_metrics.py
accepts. A daemon restarted on the store they left answers the
resubmitted grid, and the output must `cmp` equal to the reference.
While the resubmit is in flight, `tools/sweep_client.py SOCKET
--stats` on a second connection must report conserved books. SIGTERM
must then exit 0 and leave a final metrics flush
(validate_metrics.py --require-final), a trace holding queue_wait and
execute spans (validate_trace.py) and balanced books
(metrics_report.py). A last daemon on the now-full store must serve
all 130 runs from the store and execute 0, by its done line and its
final flush, and `store_fsck` (text and --json) must find the 130
records and no error. Kept streams cross requests inside a daemon, so
this pins that neither a crash nor a restart changes a byte. Nothing
here is timed. On a failure the script prints every daemon's log and
leaves WORKDIR in place.

    sweep_serve_chaos.py SWEEP_SERVE BENCH_SUITE STORE_FSCK WORKDIR
"""

import contextlib
import filecmp
import io
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
CRASH_AT = (7, 40)
SOCKET = "chaos.sock"
DONE_LINE = re.compile(r"sweep_serve: done: .* (\d+) executed,")
TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, os.pardir, "tools")
sys.path.insert(0, TOOLS)
import sweep_client  # noqa: E402


def fail(message):
    """Exit with @p message after every daemon's log; WORKDIR stays."""
    for daemon in Daemon.started:
        print(f"--- {daemon.log_path} ---\n{daemon.log()}", file=sys.stderr)
    sys.exit(f"{message}\n(files kept in {os.getcwd()})")


class Daemon:
    """One sweep_serve process on @p store, logging to its own file."""

    started = []

    def __init__(self, binary, store, extra=()):
        Daemon.started.append(self)
        self.log_path = f"daemon-{len(Daemon.started)}.log"
        if os.path.exists(SOCKET):
            os.unlink(SOCKET)
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [binary, "--store", store, "--socket", SOCKET,
                 "--workers", "2", *extra],
                stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 30.0
        while "sweep_serve: listening on" not in self.log():
            if self.proc.poll() is not None:
                fail(f"sweep_serve exited {self.proc.returncode} before "
                     "it was listening")
            if time.monotonic() > deadline:
                fail("sweep_serve was not listening after 30 s")
            time.sleep(0.02)

    def log(self):
        with open(self.log_path, encoding="utf-8") as log:
            return log.read()

    def wait(self, want):
        code = self.proc.wait(timeout=120)
        if code != want:
            fail(f"{self.log_path}: sweep_serve exited {code}, want {want}")

    def stop(self):
        """SIGTERM; returns the runs the daemon executed."""
        self.proc.terminate()
        self.wait(0)
        match = DONE_LINE.search(self.log())
        if not match:
            fail(f"{self.log_path} has no done line")
        return int(match.group(1))


def tool(name, *args):
    """Run tools/@p name; fail unless it exits 0. Returns the result."""
    result = subprocess.run([sys.executable, os.path.join(TOOLS, name),
                             *args], capture_output=True, text=True,
                            timeout=120)
    if result.returncode != 0:
        fail(f"{name} {' '.join(args)} exited {result.returncode}:\n"
             f"{result.stdout}{result.stderr}")
    return result


def suite_command(binary, out, store):
    return [binary, "--budget", BUDGET, "--store", store, "--json", out]


def bench_suite(binary, out, store=f"unix:{SOCKET}"):
    """Run the grid against @p store (by default, through the daemon);
    returns bench_suite's stdout."""
    result = subprocess.run(suite_command(binary, out, store),
                            capture_output=True, text=True, timeout=300)
    if result.returncode != 0:
        fail(f"bench_suite exited {result.returncode}:\n"
             f"{result.stdout}{result.stderr}")
    return result.stdout


def same(reference, path, what):
    if not filecmp.cmp(reference, path, shallow=False):
        fail(f"{what} differs from the clean run ({path} vs {reference})")


def chaos_batch(reference):
    """Each run of @p reference twice plus the first 40 again,
    shuffled."""
    runs = []
    with open(reference, encoding="utf-8") as records:
        for line in records:
            record = json.loads(line)
            if record.get("record") == "run":
                runs.append({"benchmark": record["workload"],
                             "config": record["config"]})
    if len(runs) != 130:
        fail(f"{reference} holds {len(runs)} runs, want 130")
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


def probe_in_flight(resubmit):
    """Run the body of `tools/sweep_client.py SOCKET --stats` on a
    second connection until an answer shows requests of @p resubmit
    queued; every answer must report conserved books. In this process a
    probe takes about a millisecond, not an interpreter start, so a
    loaded host cannot make every probe miss a short resubmit."""
    while resubmit.poll() is None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                code = sweep_client.run_stats(SOCKET, 60.0, out)
        except SystemExit as error:
            fail(f"the --stats probe failed: {error}")
        if (code != 0 or '"conserved": true' not in out.getvalue()
                or "conserved=True" not in err.getvalue()):
            fail(f"the --stats probe exited {code} without balanced "
                 f"books:\n{out.getvalue()}{err.getvalue()}")
        if json.loads(out.getvalue())["service"]["queue_depth"] > 0:
            return
    fail("the resubmit finished before a --stats probe landed mid-batch")


def final_service(metrics):
    """The service block of @p metrics' last metrics record."""
    with open(metrics, encoding="utf-8") as records:
        rows = [row for row in map(json.loads, records)
                if row.get("record") == "metrics"]
    return rows[-1]["service"]


def chaos(sweep_serve, bench, fsck):
    daemon = Daemon(sweep_serve, "clean_store")
    bench_suite(bench, "clean.json")
    daemon.stop()
    bench_suite(bench, "in_process.json", store="in_process_store")
    same("clean.json", "in_process.json", "an in-process run")

    batch = chaos_batch("clean.json")
    for crash_at in CRASH_AT:
        metrics = f"metrics_crash_{crash_at}.jsonl"
        daemon = Daemon(sweep_serve, "store",
                        ["--fault-inject", f"crash@{crash_at}",
                         "--metrics-out", metrics,
                         "--metrics-interval", "0.5"])
        answered = send_until_closed(batch)
        daemon.wait(137)
        if answered >= len(batch):
            fail(f"all {len(batch)} requests were answered; the daemon "
                 f"should have died at put {crash_at}")
        tool("validate_metrics.py", metrics)
        print(f"crash@{crash_at} after {answered} of {len(batch)} answers")

    daemon = Daemon(sweep_serve, "store",
                    ["--metrics-out", "metrics_resume.jsonl",
                     "--metrics-interval", "0.5",
                     "--trace-out", "trace_resume.json"])
    resubmit = subprocess.Popen(
        suite_command(bench, "resumed.json", f"unix:{SOCKET}"),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    probe_in_flight(resubmit)
    output = resubmit.communicate(timeout=300)[0]
    if resubmit.returncode != 0:
        fail(f"bench_suite exited {resubmit.returncode}:\n{output}")
    executed = daemon.stop()
    same("clean.json", "resumed.json", "the resumed daemon's output")
    tool("validate_metrics.py", "--require-final", "metrics_resume.jsonl")
    tool("validate_trace.py", "trace_resume.json",
         "--require-span", "queue_wait", "--require-span", "execute")
    report = tool("metrics_report.py", "metrics_resume.jsonl",
                  "--chart", "service.execute_us.executed").stdout
    if not re.search(r"conservation: .* -> OK", report):
        fail(f"metrics_report.py found unbalanced books:\n{report}")

    daemon = Daemon(sweep_serve, "store",
                    ["--metrics-out", "metrics_verify.jsonl"])
    out = bench_suite(bench, "again.json")
    if daemon.stop() != 0 or "(130 served from the store" not in out:
        fail(f"a resubmit against the full store simulated again:\n{out}")
    same("clean.json", "again.json", "the full store's output")
    tool("validate_metrics.py", "--require-final", "metrics_verify.jsonl")
    service = final_service("metrics_verify.jsonl")
    if service["executed"] != 0 or service["hits"] != 130:
        fail(f"the full store's final flush is not 130 hits, 0 executed: "
             f"{service}")

    for args in ([], ["--json"]):
        result = subprocess.run([fsck, "store", *args], capture_output=True,
                                text=True, timeout=120)
        if result.returncode != 0:
            fail(f"store_fsck {' '.join(args)} exited {result.returncode}:"
                 f"\n{result.stdout}{result.stderr}")
    summary = json.loads(result.stdout.splitlines()[-1])
    if (summary.get("record") != "fsck_summary" or not summary.get("ok")
            or summary.get("errors") != 0 or summary.get("records") != 130):
        fail(f"store_fsck --json: want ok, 0 errors, 130 records: {summary}")

    print(f"the restart executed {executed} runs, byte-identical, with "
          "conserved telemetry; the full store executed 0; fsck clean")


def main():
    if len(sys.argv) != 5:
        sys.exit(__doc__)
    sweep_serve, bench, fsck = map(os.path.abspath, sys.argv[1:4])
    work = sys.argv[4]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Relative paths keep the socket's name short whatever WORKDIR is.
    os.chdir(work)
    try:
        chaos(sweep_serve, bench, fsck)
    finally:
        for daemon in Daemon.started:
            if daemon.proc.poll() is None:
                daemon.proc.kill()
                daemon.proc.wait()
    os.chdir("/")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
