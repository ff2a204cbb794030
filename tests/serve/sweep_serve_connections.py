#!/usr/bin/env python3
"""A sweep_serve daemon joins each connection's thread once its client
has gone, so its address space does not grow with the clients it has
served.

Starts a daemon on a fresh store, waits for its own "listening on"
line, answers one warm-up connection, then opens 300 more, one after
another, each asking {"op":"stats"}. The daemon's VmSize must grow by
less than 64 MiB over them: a finished thread that is never joined
keeps its stack mapping (8 MiB by default), so keeping all 300 would
add about 2.4 GB. SIGTERM must then drain it with exit 0.

The daemon runs with MALLOC_ARENA_MAX=1. glibc otherwise reserves
64 MiB of address space for each malloc arena a thread's first
allocation creates; that happens whenever two connection threads
overlap, a bounded cost that would blur a stack-sized limit.

    sweep_serve_connections.py SWEEP_SERVE WORKDIR
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time

CONNECTIONS = 300
GROWTH_LIMIT_KB = 64 * 1024
SOCKET = "connections.sock"
LOG = "daemon.log"


def vm_size_kb(pid):
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("VmSize:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmSize in /proc/{pid}/status")


def wait_ready(daemon, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(LOG, encoding="utf-8") as log:
            if "sweep_serve: listening on" in log.read():
                return
        if daemon.poll() is not None:
            sys.exit(f"sweep_serve exited {daemon.returncode} before it "
                     "was listening")
        time.sleep(0.05)
    sys.exit(f"sweep_serve was not listening after {timeout} s")


def ask_stats():
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
        client.connect(SOCKET)
        client.sendall(b'{"op":"stats"}\n')
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = client.recv(65536)
            if not chunk:
                break
            reply += chunk
    status = json.loads(reply).get("status")
    if status != "ok":
        sys.exit(f"stats request answered {reply!r}")


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    binary = os.path.abspath(sys.argv[1])
    work = sys.argv[2]
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Relative paths keep the socket's name short whatever WORKDIR is.
    os.chdir(work)
    with open(LOG, "w", encoding="utf-8") as log:
        daemon = subprocess.Popen(
            [binary, "--store", "store", "--socket", SOCKET,
             "--workers", "1"],
            stdout=log, stderr=subprocess.STDOUT,
            env=dict(os.environ, MALLOC_ARENA_MAX="1"))
    try:
        wait_ready(daemon)
        ask_stats()
        before = vm_size_kb(daemon.pid)
        for _ in range(CONNECTIONS):
            ask_stats()
        # The accept loop polls every 0.2 s; let it join the last ones.
        time.sleep(0.5)
        after = vm_size_kb(daemon.pid)
    finally:
        daemon.send_signal(signal.SIGTERM)
        code = daemon.wait(timeout=60)
    growth = after - before
    print(f"VmSize {before} kB -> {after} kB over {CONNECTIONS} "
          f"connections (+{growth} kB); drain exited {code}")
    if growth >= GROWTH_LIMIT_KB:
        sys.exit(f"VmSize grew by {growth} kB, limit {GROWTH_LIMIT_KB} kB")
    if code != 0:
        sys.exit(f"sweep_serve drained with exit {code}, want 0")
    os.chdir("/")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
