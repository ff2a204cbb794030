#!/usr/bin/env python3
"""The specfetch benchmark driver.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Run from the root of a specfetch source tree. The driver builds the
tree (into .bench_build/), runs one workload for about --seconds
seconds, checks the program's outputs, and prints one JSON object as
the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 measures the end-to-end metrics from outside the untraced
entry points (bench_suite, or a sweep_serve daemon over its Unix
socket). --trace 1 instead runs the benchmark's own traced driver
(perfbench_probe), which repeats the workload's work with a span
around each call into a layer, and reports the per-layer metrics.
failed / attempted is the error rate of the run; a correct run reads 0.

Other modes:
    python3 perfbench/run.py --pin            # rewrite perfbench/golden/*
    python3 perfbench/run.py --self-test      # statistics self-tests

Workloads, metrics and the layer -> end-to-end mapping are described
in perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden"

WORKLOADS = ("paper_grid", "observed_grid", "serve_mixed")

# The grids: bench_suite's default grid at a budget where one process
# takes a few seconds on a 4-core host.
GRID_BUDGET = "2M"
GRID_ARGS = {
    "paper_grid": [],
    "observed_grid": ["--sample-interval", "10000", "--heatmap",
                      "--adaptive", "bandit"],
}
# Work per run is fixed by --seconds, not by how fast the host is, so
# a faster program shows as a shorter wall_s rather than as more work.
GRID_SECONDS_PER_PROCESS = 3.0
MIN_GRID_PROCESSES = 3

# serve_mixed. A request is one cell of bench_suite's grid at a
# 200K-instruction budget, the operating point at which the service's
# miss and hit latencies were first measured (13.9 ms for a miss with
# a new run seed, 6.0 ms for one reusing a classification, 0.15 ms for
# a store hit, gcc, one connection). The traffic repeats the service's
# in-repo clients (see round_specs).
SERVE_BUDGET = 200_000
SERVE_PREPOP_SEEDS = 2           # grids written before the measured daemon
CHAOS_THIRD_COPIES = 40
ROUND_SEED_BASE = 10_000_000
ROUNDS_PER_SECOND = 1.2
SETUP_RESTARTS = 21
SERVE_PHASES = 4
POLICIES = ("Oracle", "Optimistic", "Resume", "Pessimistic", "Decode")
PREFETCH = ("none", "next-line")
RESIM_SAMPLE = 6
LAYER_PROBE_SECONDS = 1.5

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("sim_minst_per_s", "Minst/s"),
    ("req_per_s", "1/s"), ("hit_p50_ms", "ms"), ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"), ("miss_p90_ms", "ms"),
)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Build


def build():
    """Configure (once) and build the three binaries; exit 1 when the
    build fails."""
    WORK.mkdir(exist_ok=True)
    build_log = WORK / "build.log"
    with open(build_log, "a", encoding="utf-8") as out:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target",
                      "bench_suite", "sweep_serve", "perfbench_probe",
                      "-j", str(nproc())])
        for step in steps:
            code = subprocess.call(step, stdout=out, stderr=subprocess.STDOUT)
            if code != 0:
                log(f"build step failed ({' '.join(step)}); see {build_log}")
                sys.exit(1)


def binary(name):
    for candidate in (BUILD / "specfetch" / "bench" / name, BUILD / name):
        if candidate.is_file():
            return str(candidate)
    log(f"built binary {name} not found under {BUILD}")
    sys.exit(1)


# ----------------------------------------------------------------------
# Provenance


def source_digest():
    """Digest of the sources the benchmark builds and runs, so a row is
    tied to its code even outside a git checkout."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "bench", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance():
    row = {"record": "provenance", "nproc": nproc(),
           "python": platform.python_version()}
    try:
        row["git_sha"] = subprocess.check_output(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            stderr=subprocess.DEVNULL, text=True).strip()
        row["dirty"] = bool(subprocess.check_output(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, stderr=subprocess.DEVNULL, text=True).strip())
    except (OSError, subprocess.CalledProcessError):
        row["git_sha"] = None    # not a git checkout
        row["dirty"] = None
    row["source_digest"] = source_digest()
    cache = BUILD / "CMakeCache.txt"
    compiler = build_type = None
    if cache.is_file():
        for line in cache.read_text(errors="replace").splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1]
            elif line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1]
    if compiler:
        try:
            version = subprocess.check_output([compiler, "--version"],
                                              text=True)
            compiler = version.splitlines()[0]
        except (OSError, subprocess.CalledProcessError):
            pass
    row["compiler"] = compiler
    row["build_type"] = build_type
    row["cpu_model"] = None
    try:
        for line in open("/proc/cpuinfo", encoding="utf-8"):
            if line.startswith("model name"):
                row["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    calib = subprocess.check_output([binary("perfbench_probe"), "calib"],
                                    text=True)
    row["host.calib_s"] = json.loads(calib.strip().splitlines()[-1])[
        "calib_s"]
    return row


# ----------------------------------------------------------------------
# Child processes


def proc_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def run_timed(cmd, stdout_path):
    """Run @p cmd to completion. Returns (exit code, wall s, cpu s, peak
    RSS MB, launch time in ns on the clock file timestamps use)."""
    with open(stdout_path, "w", encoding="utf-8") as out:
        launched = time.time_ns()
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return (child.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, launched)


# ----------------------------------------------------------------------
# Grids


def golden_path(workload):
    return GOLDEN / f"{workload}.json"


def grid_command(workload, json_path):
    return ([binary("bench_suite"), "--budget", GRID_BUDGET,
             "--parallelism", str(nproc()), "--json", str(json_path)] +
            GRID_ARGS[workload])


def read_grid_output(json_path):
    """(digests, cell latencies s, simulated instructions, run records,
    seconds of the sweep's simulation phase or None)."""
    digests, latencies, instructions, runs = [], [], 0, 0
    simulation = None
    with open(json_path, encoding="utf-8") as handle:
        for line in handle:
            digests.append(stats.record_digest(line))
            if line.startswith('{"schema_version":1,"record":"run"'):
                record = json.loads(line)
                runs += 1
                instructions += record["counters"]["instructions"]
                timing = record["timing"]
                latencies.append(timing["run_seconds"])
                # Every record carries the sweep's phases: workload
                # build and snapshot record, then the runs.
                simulation = (timing["sweep_total_seconds"] -
                              timing["workload_build_seconds"] -
                              timing["snapshot_record_seconds"])
    return digests, latencies, instructions, runs, simulation


def grid_process(workload, index, tally, expected):
    """One bench_suite process, timed from outside. Set-up is launch
    until the grid's first simulation starts: the moment the sweep's
    progress file received its final row (written when the last run
    ends; read from the file's modification time, so nothing polls
    while the program runs) minus the sweep's simulation phase, which
    the run records time. It covers option parsing, the serial per-profile build and
    classification, the sweep's workload build and its snapshot
    record, however the program spreads them over threads."""
    json_path = WORK / f"{workload}.{index}.jsonl"
    progress = WORK / f"{workload}.progress"
    progress.unlink(missing_ok=True)
    # No heartbeat falls due within a run: the file's only row is the
    # final one.
    command = grid_command(workload, json_path) + [
        "--progress-file", str(progress), "--progress-interval", "3600"]
    code, wall, cpu, rss, launched = run_timed(
        command, WORK / f"{workload}.stdout")
    ok = tally.check(code == 0, "bench_suite exited non-zero")
    digests, latencies, instructions, runs, simulation = [], [], 0, 0, None
    if json_path.is_file():
        digests, latencies, instructions, runs, simulation = \
            read_grid_output(json_path)
        json_path.unlink()
    stats.compare_digests(expected, digests, tally)
    setup = None
    if simulation is not None and progress.is_file():
        written = progress.stat()
        if written.st_size > 0:
            setup = (written.st_mtime_ns - launched) / 1e9 - simulation
    if ok:
        ok = tally.check(setup is not None and 0.0 < setup < wall,
                         "grid set-up not measurable")
    return {"ok": ok, "wall": wall, "setup": setup, "cpu": cpu,
            "rss": rss, "latencies": latencies,
            "instructions": instructions, "runs": runs}


def load_golden(workload):
    pinned = json.loads(golden_path(workload).read_text())
    if pinned["budget"] != GRID_BUDGET or pinned["args"] != GRID_ARGS[workload]:
        log(f"{golden_path(workload)} pins another grid; run --pin")
        sys.exit(1)
    return pinned["records"]


def latency_metrics(prefix, values_s, tail_pct, tail_name, summary):
    values_ms = [v * 1000.0 for v in values_s]
    ordered = sorted(values_ms)
    p50 = stats.percentile(ordered, 50.0)
    tail, used = stats.tail_percentile(values_ms, tail_pct)
    summary[prefix] = {"samples": len(values_ms), "tail_pct": round(used, 2)}
    return {f"{prefix}_p50_ms": p50, tail_name: tail}


def grid_end_to_end(workload, seconds, tally):
    expected = load_golden(workload)
    count = max(MIN_GRID_PROCESSES,
                round(seconds / GRID_SECONDS_PER_PROCESS))
    processes = [grid_process(workload, index, tally, expected)
                 for index in range(count)]
    # A process that failed is counted in the tally; its timings are not
    # the program's.
    processes = [p for p in processes if p["ok"]] or processes
    setups = [p["setup"] or p["wall"] for p in processes]
    # Noise on a shared host only ever slows a process down, in bursts
    # that can cover several processes; the fastest of the run's
    # processes is the steady estimate of each timing (min-of-N, as
    # timeit reports). The medians go to the summary line.
    fastest = min(processes, key=lambda p: p["wall"])
    faster_half = sorted(processes, key=lambda p: p["wall"])[
        :max(1, len(processes) // 2)]
    cells = [v for p in faster_half for v in p["latencies"]]
    summary = {"processes": len(processes), "cells": len(cells),
               "walls": [round(p["wall"], 4) for p in processes],
               "setups": [round(s, 4) for s in setups],
               "median_wall_s": stats.median([p["wall"] for p in processes]),
               "median_setup_s": stats.median(setups),
               "wall_spread": stats.relative_spread(
                   [p["wall"] for p in processes])}
    metrics = {
        "wall_s": fastest["wall"],
        "setup_s": min(setups),
        "cpu_s": min(p["cpu"] for p in processes),
        "peak_rss_mb": stats.median([p["rss"] for p in processes]),
        "sim_minst_per_s": fastest["instructions"] / fastest["wall"] / 1e6,
        "req_per_s": fastest["runs"] / fastest["wall"],
    }
    # A grid has no result store: every cell is simulated, so the hit
    # and miss latencies both read the one per-cell distribution, pooled
    # over the faster half of the processes.
    if cells:
        cell = latency_metrics("cell", cells, 99.0, "cell_tail", summary)
        metrics["hit_p50_ms"] = cell["cell_p50_ms"]
        metrics["hit_p99_ms"] = cell["cell_tail"]
        metrics["miss_p50_ms"] = cell["cell_p50_ms"]
        metrics["miss_p90_ms"] = stats.tail_percentile(
            [v * 1000.0 for v in cells], 90.0)[0]
    return metrics, summary


def pin():
    """Rewrite perfbench/golden/<grid>.json from one run of this tree."""
    build()
    GOLDEN.mkdir(exist_ok=True)
    for workload in GRID_ARGS:
        json_path = WORK / f"{workload}.pin.jsonl"
        code, *_ = run_timed(grid_command(workload, json_path),
                             WORK / f"{workload}.stdout")
        if code != 0:
            log(f"bench_suite failed while pinning {workload}")
            return 1
        digests = read_grid_output(json_path)[0]
        json_path.unlink()
        golden_path(workload).write_text(json.dumps(
            {"budget": GRID_BUDGET, "args": GRID_ARGS[workload],
             "records": digests}, indent=0) + "\n")
        log(f"pinned {len(digests)} record digests for {workload}")
    return 0


# ----------------------------------------------------------------------
# serve_mixed


def request_line(rid, spec):
    benchmark, policy, prefetch, seed = spec
    return json.dumps({
        "id": rid, "benchmark": benchmark,
        "config": {"policy": policy, "prefetch_kind": prefetch,
                   "instruction_budget": SERVE_BUDGET, "run_seed": seed}},
        separators=(",", ":"))


def benchmark_names():
    out = subprocess.check_output([binary("perfbench_probe"), "names"],
                                  text=True)
    return out.split()


def grid_specs(names, run_seed):
    """bench_suite's grid, in its order (profile-major, policy-minor,
    prefetch innermost), at one run seed."""
    return [(name, policy, prefetch, run_seed) for name in names
            for policy in POLICIES for prefetch in PREFETCH]


def prepop_specs(seed, names):
    return [spec for k in range(SERVE_PREPOP_SEEDS)
            for spec in grid_specs(names, seed * 1000 + k)]


def round_specs(seed, number, names):
    """One round of serve_mixed traffic, in the order it is sent. It
    repeats what the service's in-repo clients send: the CI chaos job's
    batch over a grid the store has not seen (every spec twice plus a
    third copy of the first CHAOS_THIRD_COPIES, shuffled), then the
    `bench_suite --store` resubmission of that grid, in grid order. The
    round's run seed is new, so the first spec of each profile
    rebuilds the workload and reclassifies, and the profile's other
    specs reuse that classification."""
    grid = grid_specs(names, ROUND_SEED_BASE + seed * 10_000 + number)
    batch = grid + grid + grid[:CHAOS_THIRD_COPIES]
    random.Random(seed * 7919 + number).shuffle(batch)
    return batch + grid


class Daemon:
    """A sweep_serve process on a Unix socket in the work directory."""

    SOCKET = f"serve-{os.getpid()}.sock"
    live = set()

    def __init__(self, store):
        self.start = time.perf_counter()
        self.log = open(WORK / "sweep_serve.log", "a", encoding="utf-8")
        self.proc = subprocess.Popen(
            [binary("sweep_serve"), "--store", store, "--socket",
             self.SOCKET, "--queue-bound", "1024"],
            cwd=WORK, stdout=self.log, stderr=subprocess.STDOUT)
        Daemon.live.add(self)
        self.setup = self.wait_ready()

    @classmethod
    def stop_all(cls):
        for daemon in list(cls.live):
            daemon.stop()

    def wait_ready(self, timeout=30.0):
        """Seconds from launch until the socket accepts a connection."""
        path = str(WORK / self.SOCKET)
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("sweep_serve exited during start-up")
            if os.path.exists(path):
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(self.SOCKET)
                    return time.perf_counter() - self.start
                except OSError:
                    pass
                finally:
                    probe.close()
            if time.perf_counter() - self.start > timeout:
                raise RuntimeError("sweep_serve did not start listening")
            time.sleep(0.0005)

    def stop(self):
        Daemon.live.discard(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


class Connection:
    def __init__(self):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120.0)
        self.sock.connect(Daemon.SOCKET)
        self.reader = self.sock.makefile("rb")

    def exchange(self, lines):
        """Send @p lines at once; return (responses, seconds to each
        response)."""
        payload = "".join(line + "\n" for line in lines).encode("utf-8")
        start = time.perf_counter()
        self.sock.sendall(payload)
        responses, times = [], []
        for _ in lines:
            raw = self.reader.readline()
            if not raw:
                raise RuntimeError("sweep_serve closed the connection")
            times.append(time.perf_counter() - start)
            responses.append(raw.decode("utf-8").rstrip("\n"))
        return responses, times

    def close(self):
        self.reader.close()
        self.sock.close()


def run_member(line):
    """The raw bytes of a response's run record ("run" is its last
    member), or None for a response without one."""
    marker = line.find(',"run":')
    if marker < 0 or not line.endswith("}"):
        return None
    return line[marker + 7:-1]


class ServeChecker:
    """Byte-identity of every key's run record across executions, store
    hits and dedupe riders; non-ok responses are failures."""

    def __init__(self, tally):
        self.tally = tally
        self.records = {}

    def observe(self, spec, line):
        """The response's cached flag, or None for a failed answer."""
        try:
            response = json.loads(line)
        except json.JSONDecodeError:
            self.tally.fail("unparseable response")
            return None
        if response.get("status") != "ok":
            self.tally.fail("non-ok response")
            return None
        run = run_member(line)
        known = self.records.setdefault(spec, run)
        if not self.tally.check(run is not None and run == known,
                                "run record differs between answers"):
            return None
        return bool(response.get("cached"))


def serve_session(seed, seconds, tally, summary, trace=False):
    """One serve_mixed session: pre-populate, restart, closed loop,
    re-simulation sample. Returns (end-to-end metrics, extras for the
    traced run: daemon stats, the request lines sent, the
    pre-population lines, and the number of classifications the daemon
    cached)."""
    names = benchmark_names()
    store_dir = WORK / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    connections = min(4, nproc())
    checker = ServeChecker(tally)

    # Untimed: the store the measured daemon opens, written the way
    # `bench_suite --store` submits a grid (one batch, one connection).
    prepop = prepop_specs(seed, names)
    daemon = Daemon("store")
    conn = Connection()
    lines = [request_line(i, s) for i, s in enumerate(prepop)]
    responses, _ = conn.exchange(lines)
    conn.close()
    for spec, line in zip(prepop, responses):
        if checker.observe(spec, line):
            tally.fail("empty store answered from the store")
    tally.check(daemon.stop() == 0, "sweep_serve exit status")

    # setup_s: daemon launch until the socket accepts, on that store.
    setups = []
    for restart in range(SETUP_RESTARTS):
        daemon = Daemon("store")
        setups.append(daemon.setup)
        if restart + 1 < SETUP_RESTARTS:
            tally.check(daemon.stop() == 0, "sweep_serve exit status")

    # The closed loop, driven by perfbench_probe's load client so that
    # no interpreter sits between a response and the next request:
    # every connection takes the next request of the phase when its
    # previous one is answered, so at most `connections` requests are
    # outstanding. It runs in SERVE_PHASES phases of equal work with a
    # barrier between them; as with the grids' processes, host noise
    # only slows a phase down, so the fastest phase is the steady
    # estimate, and the whole session's numbers go to the summary line.
    rounds = max(SERVE_PHASES, round(seconds * ROUNDS_PER_SECOND))
    per_phase = rounds // SERVE_PHASES
    phases = [{"specs": [spec for r in range(p * per_phase,
                                             (p + 1) * per_phase)
                         for spec in round_specs(seed, r, names)]}
              for p in range(SERVE_PHASES)]
    sent, stream = [], []
    for number, phase in enumerate(phases):
        for position, spec in enumerate(phase["specs"]):
            line = request_line(f"{number}.{position}", spec)
            sent.append(line)
            stream.append(f"{number} {line}\n")
    load = subprocess.run(
        [binary("perfbench_probe"), "load", "--socket", Daemon.SOCKET,
         "--connections", str(connections), "--daemon-pid",
         str(daemon.proc.pid)],
        input="".join(stream),
        capture_output=True, text=True)
    sys.stderr.write(load.stderr)
    answers = load.stdout.splitlines()
    if load.returncode != 0 or len(answers) != len(sent) + 1:
        raise RuntimeError("the closed loop did not complete")
    marks = json.loads(answers[0])["marks"]
    rss = proc_peak_rss_mb(daemon.proc.pid)
    daemon_stats = fetch_daemon_stats(with_rtt=trace)
    tally.check(daemon.stop() == 0, "sweep_serve exit status")

    answers = iter(answers[1:])
    for index, phase in enumerate(phases):
        phase["wall"] = marks[index + 1][0] - marks[index][0]
        phase["cpu"] = marks[index + 1][1] - marks[index][1]
        phase["hit"], phase["miss"] = [], []
        for spec in phase["specs"]:
            latency, response = next(answers).split(" ", 1)
            cached = checker.observe(spec, response)
            if cached is not None:
                phase["hit" if cached else "miss"].append(float(latency))
    fastest = min(phases, key=lambda phase: phase["wall"])

    # A seeded sample re-simulated outside the daemon must match.
    rng = random.Random(seed)
    sample = rng.sample(sorted(checker.records), min(RESIM_SAMPLE,
                                                     len(checker.records)))
    resim = subprocess.run(
        [binary("perfbench_probe"), "resim"],
        input="".join(request_line(i, s) + "\n"
                      for i, s in enumerate(sample)),
        capture_output=True, text=True)
    produced = resim.stdout.splitlines()
    for index, spec in enumerate(sample):
        tally.check(resim.returncode == 0 and index < len(produced) and
                    produced[index] == checker.records[spec],
                    "daemon record differs from re-simulation")
    shutil.rmtree(store_dir, ignore_errors=True)

    # The traffic's shares as the daemon counted them (store hits,
    # executions, dedupe riders) over the measured loop.
    service = (daemon_stats or {}).get("service", {})
    answered = sum(service.get(k, 0) for k in ("hits", "executed",
                                               "deduped"))
    summary.update({
        "connections": connections, "prepopulated": len(prepop),
        "setup_restarts": SETUP_RESTARTS, "rounds": per_phase * SERVE_PHASES,
        "phases": SERVE_PHASES,
        "phase_walls": [round(phase["wall"], 4) for phase in phases],
        "wall_spread": stats.relative_spread(
            [phase["wall"] for phase in phases]),
        "session_wall_s": marks[-1][0] - marks[0][0],
        "session_requests": sum(len(p["specs"]) for p in phases),
        "share": {k: service.get(k, 0) / answered if answered else 0.0
                  for k in ("hits", "executed", "deduped")}})
    requests = len(fastest["specs"])
    # Each key of a phase is new to the store and simulated once.
    executions = len(set(fastest["specs"]))
    metrics = {
        "wall_s": fastest["wall"],
        "setup_s": stats.median(setups),
        "cpu_s": fastest["cpu"],
        "peak_rss_mb": rss,
        "sim_minst_per_s":
            SERVE_BUDGET * executions / fastest["wall"] / 1e6,
        "req_per_s": requests / fastest["wall"],
    }
    # Latencies pool the faster half of the phases, as the grids pool
    # the faster half of their processes: a tail needs the samples.
    # A store hit comes back cached; an execution and a dedupe rider
    # do not, and both waited for a simulation.
    faster_half = sorted(phases, key=lambda phase: phase["wall"])[
        :max(1, SERVE_PHASES // 2)]
    metrics.update(latency_metrics(
        "hit", [v for phase in faster_half for v in phase["hit"]], 99.0,
        "hit_p99_ms", summary))
    metrics.update(latency_metrics(
        "miss", [v for phase in faster_half for v in phase["miss"]], 90.0,
        "miss_p90_ms", summary))
    classified = {(spec[0], spec[3]) for phase in phases
                  for spec in phase["specs"]}
    extras = {"daemon_stats": daemon_stats, "sent": sent,
              "prepop": [request_line(i, s) for i, s in enumerate(prepop)],
              "classify_cache_entries": len(classified)}
    return metrics, extras


def fetch_daemon_stats(with_rtt):
    """The daemon's {"op":"stats"} body; with @p with_rtt, also the
    round-trip times of 200 empty requests (socket_rtt_s)."""
    link = Connection()
    try:
        responses, _ = link.exchange(['{"op":"stats"}'])
        rtts = []
        for _ in range(200 if with_rtt else 0):
            _, times = link.exchange(["{}"])
            rtts.append(times[0])
    finally:
        link.close()
    body = json.loads(responses[0]).get("stats", {})
    body["socket_rtt_s"] = rtts
    return body


# ----------------------------------------------------------------------
# Traced run (per-layer metrics)


def histogram_percentile(histogram, pct):
    """Lower bound (us) of the bucket holding the pct-th observation."""
    if not histogram or not histogram.get("count"):
        return 0.0
    rank = max(1, int(round(pct / 100.0 * histogram["count"] + 0.4999)))
    seen = 0
    for lower, count in histogram["buckets"]:
        seen += count
        if seen >= rank:
            return float(lower)
    return float(histogram["buckets"][-1][0])


def serve_layer_metrics(body, classify_entries):
    histograms = body.get("histograms", {})
    service = body.get("service", {})
    executed = service.get("executed", 0)
    deduped = service.get("deduped", 0)
    rtts = sorted(body.get("socket_rtt_s", [])) or [0.0]
    return {
        "serve.socket_rtt_us": stats.percentile(rtts, 50.0) * 1e6,
        "serve.queue_wait_p50_ms": histogram_percentile(
            histograms.get("service.queue_wait_us.executed"), 50) / 1000.0,
        "serve.queue_wait_p90_ms": histogram_percentile(
            histograms.get("service.queue_wait_us.executed"), 90) / 1000.0,
        "serve.shed": service.get("shed", 0),
        "serve.execute_p50_ms": histogram_percentile(
            histograms.get("service.execute_us.executed"), 50) / 1000.0,
        "serve.store_put_ms": histogram_percentile(
            histograms.get("store.put_us"), 50) / 1000.0,
        "serve.dedupe_frac": deduped / (executed + deduped)
        if executed + deduped else 0.0,
        "serve.classify_cache_entries": classify_entries,
    }


def run_probe(args, tally):
    command = [binary("perfbench_probe")] + args
    result = subprocess.run(command, capture_output=True, text=True)
    sys.stderr.write(result.stderr)
    if result.returncode != 0 or not result.stdout.strip():
        tally.fail("perfbench_probe failed")
        return {}
    tally.ok()
    return json.loads(result.stdout.strip().splitlines()[-1])


def traced(workload, seed, seconds, tally, summary):
    metrics = {}
    if workload in GRID_ARGS:
        expected = load_golden(workload)
        untraced = grid_process(workload, 0, tally, expected)
        json_path = WORK / f"{workload}.traced.jsonl"
        probe = run_probe(["grid", "--budget", GRID_BUDGET, "--threads",
                           str(nproc()), "--json", str(json_path)] +
                          (["--observed"] if workload == "observed_grid"
                           else []), tally)
        if json_path.is_file():
            stats.compare_digests(expected, read_grid_output(json_path)[0],
                                  tally)
            json_path.unlink()
        wall = probe.pop("tracing.wall_s", 0.0)
        # The pre-grid gap bench_suite's own spans leave uncovered is
        # workload build + classification; the set-up measured from
        # outside also holds the sweep's snapshot record.
        summary["untraced_setup_s"] = untraced["setup"]
        summary["build_plus_classify_s"] = (
            probe.get("workload.build_s", 0.0) +
            probe.get("core.classify_s", 0.0))
        summary["build_classify_record_s"] = (
            summary["build_plus_classify_s"] +
            probe.get("trace.record_s", 0.0))
        probe["tracing.overhead_frac"] = (wall / untraced["wall"] - 1.0
                                          if wall else 0.0)
        metrics.update(probe)
        # Serve layers are not on a grid's path: a short session of the
        # serve_mixed traffic measures them.
        serve_seconds = LAYER_PROBE_SECONDS
    else:
        serve_seconds = seconds / 2.0
    serve_summary = {}
    _, extras = serve_session(seed, serve_seconds, tally, serve_summary,
                              trace=True)
    summary["serve_session"] = serve_summary
    body = extras["daemon_stats"] or {}
    metrics.update(serve_layer_metrics(body,
                                       extras["classify_cache_entries"]))
    if workload not in GRID_ARGS:
        counters = body.get("counters", {})
        busy = counters.get("service.worker_busy_us", 0)
        idle = counters.get("service.worker_idle_us", 0)
        metrics["core.pool_idle_frac"] = (idle / (busy + idle)
                                          if busy + idle else 0.0)
    requests, prepop = WORK / "replay.jsonl", WORK / "prepop.jsonl"
    requests.write_text("".join(line + "\n" for line in extras["sent"]))
    prepop.write_text("".join(line + "\n" for line in extras["prepop"]))
    args = ["serve", "--requests", str(requests), "--prepop", str(prepop),
            "--store", str(WORK / "replay-store")]
    if workload in GRID_ARGS:
        args.append("--layers-only")
    probe = run_probe(args, tally)
    shutil.rmtree(WORK / "replay-store", ignore_errors=True)
    requests.unlink()
    prepop.unlink()
    # On a grid only the serve layers come from the serve session; the
    # grid's own numbers win for everything else.
    metrics.update({key: value for key, value in probe.items()
                    if workload not in GRID_ARGS or key.startswith("serve.")})
    return metrics


# ----------------------------------------------------------------------


def emit(tally, metrics, units, summary):
    missing = [name for name, _ in units if name not in metrics]
    for name in missing:
        log(f"metric {name} was not measured")
    if missing:
        tally.fail("metric not measured", len(missing))
    summary["error_rate"] = tally.error_rate
    summary["failures"] = tally.reasons
    print(json.dumps({"record": "summary", **summary}, sort_keys=True))
    for name, unit in units:
        if name in metrics:
            print(f"  {name:34s} {metrics[name]:16.6f} {unit}")
    print(f"  {'error_rate':34s} {tally.error_rate:16.6f} "
          f"({tally.failed}/{tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units if name in metrics},
    }))


def per_layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        import selftest
        return selftest.main()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"{ROOT} holds no specfetch source tree (CMakeLists.txt, src/)")
        return 1
    if args.pin:
        return pin()
    if not args.workload:
        parser.error("--workload is required")

    build()
    os.chdir(WORK)
    row = provenance()
    row.update({"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace})
    print(json.dumps(row, sort_keys=True))

    tally = stats.Tally()
    summary = {"workload": args.workload, "seed": args.seed}
    units = per_layer_units() if args.trace else list(END_TO_END)
    metrics = {}
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, args.seconds, tally,
                             summary)
            metrics["host.calib_s"] = row["host.calib_s"]
        elif args.workload in GRID_ARGS:
            metrics, extra = grid_end_to_end(args.workload, args.seconds,
                                             tally)
            summary.update(extra)
        else:
            metrics, _ = serve_session(args.seed, args.seconds, tally,
                                       summary)
    except (OSError, RuntimeError, ValueError, KeyError) as error:
        # A broken program is a failed run, reported like any other.
        log(f"{args.workload} aborted: {error!r}")
        tally.fail("workload aborted")
    finally:
        Daemon.stop_all()
    with open(WORK / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**row, "metrics": metrics,
                                 "failed": tally.failed,
                                 "attempted": tally.attempted},
                                sort_keys=True) + "\n")
    emit(tally, metrics, units, summary)
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds through main()'s cleanup like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
