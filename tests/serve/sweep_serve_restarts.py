#!/usr/bin/env python3
"""A sweep_serve daemon restarted on the store it left serves every
stored key from it: a start after SIGTERM runs no recovery scan, and
a start after SIGKILL does.

Fills a fresh store through one daemon, then restarts the daemon
RESTARTS times, each stopped with SIGTERM. Every start's
"store '...' open:" line must show the store's record count and no
recovery, and every stored key must answer "cached": true. While each
daemon runs, the store's CLEAN file must exist and hold one CRC-framed
session-open frame, which vouches for nothing until close() rewrites
it; after each SIGTERM it must hold the clean_shutdown frame with the
record count. Finally one daemon is SIGKILLed right after an
acknowledged put: the next start must log its recovery and answer that
key from the store. Nothing here is timed.

    sweep_serve_restarts.py SWEEP_SERVE WORKDIR
"""

import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
import zlib

RESTARTS = 5
SOCKET = "restarts.sock"
STORE = "store"
OPEN_LINE = re.compile(r"sweep_serve: store '[^']*' open: (\d+) records(.*)")
# One cell of bench_suite's grid each, at a budget that simulates in
# milliseconds.
CELLS = [("li", "Oracle"), ("li", "Resume"), ("gcc", "Pessimistic"),
         ("gcc", "Decode"), ("tex", "Optimistic"), ("doduc", "Resume")]
LATE_CELL = ("li", "Decode")


def request(rid, cell):
    benchmark, policy = cell
    return json.dumps({"id": rid, "benchmark": benchmark,
                       "config": {"policy": policy,
                                  "instruction_budget": 20000}},
                      separators=(",", ":"))


class Daemon:
    """One sweep_serve process on STORE, logging to its own file."""

    starts = 0
    live = []

    def __init__(self, binary):
        Daemon.starts += 1
        self.log_path = f"daemon-{Daemon.starts}.log"
        if os.path.exists(SOCKET):
            os.unlink(SOCKET)
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [binary, "--store", STORE, "--socket", SOCKET,
                 "--workers", "2"],
                stdout=log, stderr=subprocess.STDOUT)
        Daemon.live.append(self.proc)
        self.wait_ready()

    def log(self):
        with open(self.log_path, encoding="utf-8") as log:
            return log.read()

    def wait_ready(self, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if "sweep_serve: listening on" in self.log():
                return
            if self.proc.poll() is not None:
                sys.exit(f"sweep_serve exited {self.proc.returncode} "
                         f"before it was listening:\n{self.log()}")
            time.sleep(0.02)
        sys.exit(f"sweep_serve was not listening after {timeout} s")

    def open_line(self):
        """(records, the rest of the line) of the store's open line."""
        for line in self.log().splitlines():
            match = OPEN_LINE.match(line)
            if match:
                return int(match.group(1)), match.group(2)
        sys.exit(f"{self.log_path} has no store open line:\n{self.log()}")

    def stop(self, sig):
        self.proc.send_signal(sig)
        code = self.proc.wait(timeout=60)
        want = 0 if sig == signal.SIGTERM else -signal.SIGKILL
        if code != want:
            sys.exit(f"sweep_serve exited {code} after "
                     f"{signal.Signals(sig).name}, want {want}:\n"
                     f"{self.log()}")


def ask(cells, first_id=0):
    """Send one request per cell on one connection; return each
    response's cached flag, failing on any error response."""
    lines = [request(first_id + i, cell) for i, cell in enumerate(cells)]
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.settimeout(120.0)
        client.connect(SOCKET)
        client.sendall("".join(line + "\n" for line in lines).encode())
        reader = client.makefile("rb")
        answers = {}
        for _ in lines:
            raw = reader.readline()
            if not raw:
                sys.exit("sweep_serve closed the connection early")
            response = json.loads(raw)
            if response.get("status") != "ok":
                sys.exit(f"request answered {raw!r}")
            answers[response["id"]] = response["cached"]
    return [answers[first_id + i] for i in range(len(cells))]


def clean_payload():
    """The one frame CLEAN holds, checked against its CRC."""
    path = os.path.join(STORE, "CLEAN")
    if not os.path.isfile(path):
        sys.exit(f"{path} is missing")
    with open(path, "rb") as marker:
        data = marker.read()
    if not data.endswith(b"\n") or data.count(b"\n") != 1:
        sys.exit(f"{path} is not one terminated frame: {data!r}")
    crc, text = data[:8], data[9:-1]
    if data[8:9] != b" " or crc != b"%08x" % zlib.crc32(text):
        sys.exit(f"{path} fails its frame check: {data!r}")
    return json.loads(text)


def expect_session_open():
    payload = clean_payload()
    if "session_open" not in payload or "clean_shutdown" in payload:
        sys.exit(f"a running daemon's CLEAN holds {payload}, want the "
                 "session-open frame")


def expect_clean_shutdown(records):
    payload = clean_payload()
    clean = payload.get("clean_shutdown")
    if not isinstance(clean, dict) or clean.get("records") != records:
        sys.exit(f"a stopped daemon's CLEAN holds {payload}, want a "
                 f"clean_shutdown of {records} records")


def cycle(binary):
    daemon = Daemon(binary)
    if any(ask(CELLS)):
        sys.exit("an empty store answered from the store")
    daemon.stop(signal.SIGTERM)
    expect_clean_shutdown(len(CELLS))

    for restart in range(1, RESTARTS + 1):
        daemon = Daemon(binary)
        records, rest = daemon.open_line()
        if records != len(CELLS) or "recovered" in rest:
            sys.exit(f"restart {restart} opened {records} records{rest}; "
                     f"want {len(CELLS)} and no recovery")
        expect_session_open()
        if not all(ask(CELLS)):
            sys.exit(f"restart {restart} simulated a stored key again")
        daemon.stop(signal.SIGTERM)
        expect_clean_shutdown(len(CELLS))

    daemon = Daemon(binary)
    if ask([LATE_CELL], first_id=100) != [False]:
        sys.exit("a new key answered from the store")
    daemon.stop(signal.SIGKILL)
    expect_session_open()

    daemon = Daemon(binary)
    records, rest = daemon.open_line()
    if records != len(CELLS) + 1 or "recovered" not in rest:
        sys.exit(f"the start after SIGKILL opened {records} records{rest}; "
                 f"want {len(CELLS) + 1} and a recovery")
    if not all(ask(CELLS + [LATE_CELL])):
        sys.exit("the start after SIGKILL simulated a stored key again")
    daemon.stop(signal.SIGTERM)
    expect_clean_shutdown(len(CELLS) + 1)

    print(f"{RESTARTS} SIGTERM restarts opened clean, the SIGKILL "
          f"restart recovered; {len(CELLS) + 1} keys served from the "
          "store")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary = os.path.abspath(sys.argv[1])
    work = sys.argv[2]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Relative paths keep the socket's name short whatever WORKDIR is.
    os.chdir(work)
    try:
        cycle(binary)
    finally:
        for proc in Daemon.live:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    os.chdir("/")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
