#!/usr/bin/env python3
"""emxbench: the EM-X simulator's benchmark runner.

    python3 emxbench/run.py --workload paper_runs --seed 1 --seconds 25 --trace 0

Builds the repository (library, emx_run, emx_sweep, emx_serve) and the
benchmark's helpers into .bench_build/ with emxbench/CMakeLists.txt, runs
one workload and prints, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the same workload runs once untraced and
once with a span around every layer call the benchmark makes, and the
metrics are the per-layer ones. Scratch files go to .bench_run/ and are
removed at exit. A workload still running DEADLINE_FACTOR x --seconds
after it began is stopped: every operation it had not finished counts as
failed and the result line is still printed. NOTES.md explains the
workloads and every metric.
"""
import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN = os.path.join(ROOT, ".bench_run")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("paper_runs", "irregular_p64", "sweep_ckpt", "serve_preempt")
SLOTS = 3  # worker processes for sweep and serve: the 4th core stays free

# Registry-default cycles frozen at the seed commit (ROADMAP invariant).
FROZEN = {"sort-p16-n1024-h4-s1-": 472640, "fft-p16-n1024-h4-s1-": 1397612}

# Host seconds one round of each workload takes on the reference 4-core
# host; --seconds picks how many whole rounds run, so the work per run is
# fixed for a given --seconds and never depends on the host's speed.
ROUND_S = {"paper_runs": 8.5, "irregular_p64": 4.6, "sweep_ckpt": 3.0}

# A workload (both passes and the attribution re-runs of a traced one)
# must end this many --seconds after it began, and never later than
# DEADLINE_CAP_S; processes still running then are stopped.
DEADLINE_FACTOR = {0: 4, 1: 6}
DEADLINE_CAP_S = 150
DEADLINE = 0.0  # monotonic time; set by main() once the build is done

REGISTRY_N = {"sort": 1024, "fft": 1024, "fft-cyclic": 1024, "jacobi": 1024,
              "bfs": 512, "spmv": 512, "ptrchase": 256, "histsort": 512}


def die(msg):
    print("emxbench: " + msg, file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) <= 1:
        return (values[0] if values else 0.0,) * 3
    return tuple(statistics.quantiles(values, n=4))


def ratio(a, b):
    return a / b if b else 0.0


def expired():
    return time.monotonic() >= DEADLINE


# --------------------------------------------------------------- build ---

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the repository sources are not next to emxbench/ - nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j4", "--target",
                      "emxbench_cell", "emxbench_shim", "emx_run",
                      "emx_sweep", "emx_serve"])
        for argv in steps:
            if subprocess.call(argv, stdout=log, stderr=log) != 0:
                die("build failed: " + " ".join(argv) + " (see " + log_path + ")")
    bins = {
        "cell": os.path.join(BUILD, "emxbench_cell"),
        "shim": os.path.join(BUILD, "emxbench_shim"),
        "emx_run": os.path.join(BUILD, "emx", "tools", "emx_run"),
        "emx_sweep": os.path.join(BUILD, "emx", "tools", "emx_sweep"),
        "emx_serve": os.path.join(BUILD, "emx", "tools", "emx_serve"),
    }
    for path in bins.values():
        if not os.access(path, os.X_OK):
            die("build produced no " + path)
    return bins


# ------------------------------------------------------------ processes ---

LIVE = set()  # processes started and not yet waited for


def start(argv, grace=0.0, **kwargs):
    """Starts argv; a watchdog stops it `grace` seconds after DEADLINE."""
    p = subprocess.Popen(argv, cwd=ROOT, **kwargs)
    LIVE.add(p)
    p.watchdog = threading.Timer(max(0.0, DEADLINE + grace - time.monotonic()),
                                 expire, [p])
    p.watchdog.daemon = True
    p.watchdog.start()
    return p


def expire(p):
    """Watchdog thread: SIGTERM, SIGKILL 5 s later. emx_serve stops its
    workers on SIGTERM; emx_sweep just dies and leaves them to
    reap_orphans(). It only signals; the main thread still reaps p, so
    its wait() returns and the operation fails."""
    for sig, pause in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 0.0)):
        if p.returncode is not None:
            return
        try:
            os.kill(p.pid, sig)
        except ProcessLookupError:
            return
        time.sleep(pause)


def wait(p):
    """Waits for p; returns (exit code, peak RSS in KiB of p and every
    descendant it waited for)."""
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    p.watchdog.cancel()
    LIVE.discard(p)
    return p.returncode, usage.ru_maxrss


def stop_all():
    """Error paths: SIGTERM what is still running (emx_serve kills its
    workers on the way out; reap_orphans() takes emx_sweep's), then
    SIGKILL."""
    for p in list(LIVE):
        p.watchdog.cancel()
        p.send_signal(signal.SIGTERM)
    deadline = time.monotonic() + 10
    for p in list(LIVE):
        while p.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
        if p.poll() is None:
            p.kill()
            p.wait()
        LIVE.discard(p)


def spawn_wait(argv, stdout=subprocess.PIPE, stderr=None):
    """Runs argv to completion. Returns (exit code, stdout text, peak RSS
    KiB, t0, t1)."""
    t0 = time.monotonic()
    p = start(argv, stdout=stdout, stderr=stderr)
    out = p.stdout.read().decode() if stdout == subprocess.PIPE else ""
    if p.stdout is not None:
        p.stdout.close()
    code, rss = wait(p)
    return code, out, rss, t0, time.monotonic()


def reap_orphans():
    """The traced runs' span watchers, and the workers of an emx_sweep
    the watchdog stopped (it has no SIGTERM handler), outlive their
    parents and are re-parented here (this process is a child
    subreaper): wait for all, and SIGKILL what still runs 10 s after
    the deadline."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0 and time.monotonic() > DEADLINE + 10:
            for task in os.listdir("/proc/self/task"):
                try:
                    with open("/proc/self/task/%s/children" % task) as f:
                        for child in f.read().split():
                            os.kill(int(child), signal.SIGKILL)
                except OSError:  # the thread or the child is already gone
                    pass
        if pid == 0:
            time.sleep(0.02)


def become_subreaper():
    try:
        import ctypes
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


# -------------------------------------------------------------- checks ---

class Checker:
    """Counts operations and failures and holds the values recorded at
    the seed commit (expected.json, seed 1)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        with open(EXPECTED) as f:
            self.recorded = json.load(f)
        self.seen = {}  # key -> (cycles, crc) observed in this run
        self.compared = 0  # results that repeated an earlier one exactly

    def fail(self, what, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(what)

    def broken(self, what, count=1):
        """`count` operations that failed before they reached result()."""
        self.attempted += count
        self.fail(what, count)

    def missed(self, what, count=1):
        """`count` operations the deadline left unfinished."""
        self.broken("%s: %d operation(s) unfinished at the deadline" % (what, count), count)

    def result(self, key, exit_code, verified, cycles, crc):
        """One run, cell or job: exit 0, verified, deterministic within
        this run and equal to the recorded value when one exists."""
        self.attempted += 1
        want = self.recorded.get("results", {}).get(key)
        frozen = [c for p, c in FROZEN.items() if key.startswith(p)]
        if exit_code != 0:
            return self.fail("%s: exit %s" % (key, exit_code))
        if verified is not True:
            return self.fail("%s: result not verified" % key)
        if key in self.seen:
            if self.seen[key] != [cycles, crc]:
                return self.fail("%s: %s differs from %s earlier in this run"
                                 % (key, [cycles, crc], self.seen[key]))
            self.compared += 1
        self.seen[key] = [cycles, crc]
        if frozen and cycles != frozen[0]:
            return self.fail("%s: cycles %d, frozen %d" % (key, cycles, frozen[0]))
        if want is not None and want != [cycles, crc]:
            return self.fail("%s: %s, recorded %s" % (key, [cycles, crc], want))

    def digest(self, name, value):
        want = self.recorded.get("digests", {}).get(name)
        earlier = self.seen.setdefault("digest:" + name, value)
        if earlier != value:
            self.broken("%s digest %s differs from %s earlier in this run"
                        % (name, value, earlier))
        elif want is not None and want != value:
            self.broken("%s digest %s, recorded %s" % (name, value, want))


# ------------------------------------------------------- run workloads ---

def run_cells(seed):
    return {
        "paper_runs": [(a, 16, n, h, seed) for a in ("sort", "fft")
                       for n in (1024, 4096) for h in (1, 4, 16)]
                      + [(a, 64, 1024, 4, seed) for a in ("sort", "fft")],
        "irregular_p64": [(a, 64, REGISTRY_N[a], h, seed)
                          for a in ("bfs", "spmv", "ptrchase", "histsort")
                          for h in (1, 4, 16)],
    }


def cell_argv(bins, cell, extra=()):
    app, procs, n, h, seed = cell
    return [bins["cell"], "--app=" + app, "--procs=%d" % procs,
            "--threads=%d" % h, "--size-per-proc=%d" % n,
            "--seed=%d" % seed] + list(extra)


def run_round(bins, cells, check, trace_dir):
    """One closed-loop pass over `cells`, one fresh process per cell;
    traced when trace_dir (scratch for checkpoint files) is given.
    Returns the rows of the cells that printed a result, and the wall."""
    rows = []
    t0 = time.monotonic()
    for i, cell in enumerate(cells):
        if expired():
            check.missed("cells of a round", len(cells) - i)
            break
        extra = ["--trace", "--dir=" + trace_dir] if trace_dir else []
        code, out, rss, c0, c1 = spawn_wait(cell_argv(bins, cell, extra))
        try:
            row = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            check.broken("%s-p%d-n%d-h%d-s%d: exit %d, no result" % (cell + (code,)))
            continue
        row.update(exit=code, rss_kb=rss, t0=c0, t1=c1)
        check.result(row["key"], code, row.get("verified"), row["cycles"],
                     row["trace_crc"])
        rows.append(row)
    return rows, time.monotonic() - t0


def run_workload(bins, name, seed, seconds, check):
    cells = run_cells(seed)[name]
    rounds = max(1, round(seconds / ROUND_S[name]))
    all_rows, walls = [], []
    for _ in range(rounds):
        rows, wall = run_round(bins, cells, check, None)
        all_rows += rows
        walls.append(wall)
    lat = [r["t1"] - r["t0"] for r in all_rows]
    q1, p50, p75 = quartiles(lat)
    load = {"rounds": rounds, "cells_per_round": len(cells), "runs": len(all_rows),
            "clients": 1, "loop": "closed"}
    return {
        "sim_cycles_per_s": ratio(sum(r["cycles"] for r in all_rows),
                                  sum(r["run_s"] for r in all_rows)),
        "setup_s": sum(r["setup_s"] for r in all_rows),
        "peak_rss_mb": max((r["rss_kb"] for r in all_rows), default=0) / 1024.0,
        "job_p50_s": p50,
        "job_p75_s": p75,
        "batch_done_s": statistics.mean(walls),
    }, load, {"latency_samples": len(lat)}


# --------------------------------------------------------- sweep_ckpt ---

def sweep_spec(seed):
    return {"name": "emxbench", "grid": {"apps": ["sort", "fft"], "procs": [16, 64],
                                         "sizes_per_proc": [256],
                                         "threads": [1, 4, 16], "seeds": [seed]},
            "base": {"iterations": 8}}


def sweep_size(seed):
    grid = sweep_spec(seed)["grid"]
    return len(grid["apps"]) * len(grid["procs"]) * len(grid["threads"])


def run_sweep_once(bins, seed, out, worker, env=None):
    """One emx_sweep invocation at its defaults into a fresh directory.
    Returns (exit code, peak RSS KiB, t0, t1, {key: completion time},
    records the sweep appended to its journal)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    spec_path = os.path.join(out, "..", os.path.basename(out) + ".spec.json")
    with open(spec_path, "w") as f:
        json.dump(sweep_spec(seed), f)
    argv = [bins["emx_sweep"], "--spec=" + spec_path, "--out=" + out,
            "--jobs=%d" % SLOTS, "--emx-run=" + worker]
    t0 = time.monotonic()
    p = start(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    done = {}
    journal = None
    for line in p.stderr:
        # The journal exists before the first cell ends. Holding it open
        # keeps every appended record readable after emx_sweep compacts
        # the journal at the end (compaction renames a new file over it).
        if journal is None:
            try:
                journal = open(os.path.join(out, "journal.jsonl"), "rb")
            except FileNotFoundError:
                pass
        # "emx_sweep: <key>: ok" as each cell's result is blessed.
        parts = line.decode().strip().split(": ")
        if (len(parts) == 3 and parts[0] == "emx_sweep"
                and not parts[2].startswith("retrying")):
            done[parts[1]] = time.monotonic()
    p.stderr.close()
    code, rss = wait(p)
    appends = 0
    if journal is not None:
        appends = journal.read().count(b"\n")
        journal.close()
    return code, rss, t0, time.monotonic(), done, appends


def check_sweep(out, code, seed, check):
    """Per-cell results from aggregate.json; the aggregate's CRC at seed 1."""
    try:
        with open(os.path.join(out, "aggregate.json"), "rb") as f:
            raw = f.read()
        agg = json.loads(raw)
    except (OSError, ValueError):
        check.broken("%s: no readable aggregate.json (exit %d)" % (out, code),
                     sweep_size(seed))
        return []
    cells = []
    for c in agg["cells"]:
        r = c.get("result") or {}
        ok = c.get("status") == "ok" or c.get("status", "").startswith("resumed:")
        check.result(c["key"], 0 if ok else 1, r.get("verified"),
                     r.get("cycles", 0), r.get("trace_crc", ""))
        cells.append((c["key"], r.get("cycles", 0)))
    check.digest("sweep_ckpt-aggregate-s%d" % seed, "%08x" % zlib.crc32(raw))
    return cells


def sweep_setup_samples(bins, out, samples=5):
    """The supervisor's own path, without workers: re-invoking emx_sweep
    over a finished directory (spec expansion, journal replay, a cache hit
    per cell, aggregate write, compaction)."""
    spec_path = os.path.join(out, "..", os.path.basename(out) + ".spec.json")
    times = []
    for _ in range(samples):
        code, _, _, t0, t1 = spawn_wait(
            [bins["emx_sweep"], "--spec=" + spec_path, "--out=" + out,
             "--jobs=%d" % SLOTS, "--emx-run=" + bins["emx_run"], "--quiet"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if code != 0:
            return None
        times.append(t1 - t0)
    return times


def run_sweep_workload(bins, seed, seconds, check):
    rounds = max(1, round(seconds / ROUND_S["sweep_ckpt"]))
    per_sweep = sweep_size(seed)
    cycles, wall, rss, lat, dones, setups = 0, 0.0, 0, [], [], []
    for i in range(rounds):
        if expired():
            check.missed("cells of %d sweeps" % (rounds - i), per_sweep * (rounds - i))
            break
        out = os.path.join(RUN, "sweep-%d" % i)
        code, peak, t0, t1, done, _ = run_sweep_once(bins, seed, out, bins["emx_run"])
        cells = check_sweep(out, code, seed, check)
        cycles += sum(c for _, c in cells)
        wall += t1 - t0
        rss = max(rss, peak)
        lat += [t - t0 for t in done.values()]
        dones.append(max(done.values()) - t0 if done else t1 - t0)
        if not cells or expired():
            continue
        samples = sweep_setup_samples(bins, out)
        if samples is None:
            check.broken("%s: re-invoking emx_sweep over the finished directory failed" % out)
        else:
            setups += samples
    q1, p50, p75 = quartiles(lat)
    load = {"sweeps": rounds, "cells_per_sweep": per_sweep, "slots": SLOTS,
            "loop": "closed batch", "checkpoint_every": 100000,
            "setup_samples": len(setups)}
    metrics = {
        "sim_cycles_per_s": ratio(cycles, wall),
        "setup_s": sum(setups, 0.0),
        "peak_rss_mb": rss / 1024.0,
        "job_p50_s": p50,
        "job_p75_s": p75,
        "batch_done_s": statistics.mean(dones) if dones else 0.0,
    }
    return metrics, load, {"latency_samples": len(lat)}


# ------------------------------------------------------ serve_preempt ---

RATE = 4.0            # interactive submissions per second (open loop)
INTERACTIVE_RUN = {"app": "sort", "procs": 16, "size_per_proc": 256}
BACKLOG = 14          # batch jobs queued at t=0
BACKLOG_RUN = {"app": "fft", "procs": 4, "size_per_proc": 16384, "threads": 4}
POLL_S = 0.01
STARTUP_SAMPLES = 19  # fresh daemons started per run, besides the measured one


def serve_recipes(seed, seconds):
    """The seeded load: the batch backlog, then the interactive stream.
    The backlog's last job repeats its first, so it attaches to a live
    execution. Every interactive run is a short sort with its own seed,
    so their latencies differ only by what the daemon made them wait;
    every fifth submission from the 20th on repeats a recipe sent at
    least 16 submissions (4 s) earlier, long done, so it is a cache hit."""
    rng = random.Random(seed)
    backlog = [dict(BACKLOG_RUN, seed=rng.randrange(1, 1 << 20))
               for _ in range(BACKLOG)]
    backlog.append(dict(backlog[0]))
    count = max(40, int(RATE * seconds * 0.6))
    interactive = []
    for i in range(count):
        if i >= 20 and i % 5 == 4:
            old = [r for r in interactive[:i - 16] if "repeat" not in r]
            interactive.append(dict(rng.choice(old), repeat=True))
        else:
            interactive.append(dict(INTERACTIVE_RUN, seed=rng.randrange(1, 1 << 20)))
    return backlog, interactive


class Client:
    """One persistent connection speaking the daemon's line protocol."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""
        self.tracer = None  # set in traced runs: one span per round trip
        self.rpc_s = 0.0
        self.rpcs = 0

    def call(self, obj):
        t0 = time.monotonic()
        self.sock.sendall((json.dumps(obj) + "\n").encode())
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        t1 = time.monotonic()
        self.rpc_s += t1 - t0
        self.rpcs += 1
        if self.tracer is not None:
            self.tracer.span("serve.rpc", t0, t1)
        return json.loads(line)

    def close(self):
        self.sock.close()


def start_daemon(bins, out, worker, env=None):
    """Starts emx_serve at its defaults (--jobs 3); returns (process,
    connected client or None, seconds from exec until the first answered
    request, exec time)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    sock = os.path.relpath(os.path.join(out, "s.sock"), ROOT)
    log = open(os.path.join(out + ".log"), "w")
    t0 = time.monotonic()
    # The serve loop ends the run at the deadline itself and then stops
    # the daemon; its watchdog only backs that up.
    p = start([bins["emx_serve"], "--socket=" + sock, "--out=" + out,
               "--jobs=%d" % SLOTS, "--emx-run=" + worker],
              grace=15.0, stdout=log, stderr=log, env=env)
    log.close()
    while True:
        try:
            c = Client(sock)
            c.call({"op": "list"})
            t1 = time.monotonic()
            return p, c, t1 - t0, t0
        except (FileNotFoundError, ConnectionRefusedError):
            if p.poll() is not None:
                return p, None, 0.0, t0
            time.sleep(0.0005)


def stop_daemon(p, client, drain=True):
    """Drains the daemon (or, with drain=False, stops it with SIGTERM,
    which kills its workers) and waits for it; returns (exit code, peak
    RSS KiB of the daemon and every worker it reaped)."""
    if p.returncode is not None:  # already reaped by start_daemon
        p.watchdog.cancel()
        LIVE.discard(p)
        return p.returncode, 0
    if client is not None and drain:
        try:
            client.call({"op": "drain"})
        except (OSError, ValueError):
            p.send_signal(signal.SIGTERM)
        client.close()
    else:
        p.send_signal(signal.SIGTERM)
        if client is not None:
            client.close()
    return wait(p)


def run_serve_workload(bins, seed, seconds, check, tracer=None):
    env, worker = None, bins["emx_run"]
    if tracer is not None:
        env, worker = tracer.shim_env(bins), bins["shim"]
    # Daemon start-up, sampled on fresh state directories.
    startups = []
    for i in range(STARTUP_SAMPLES):
        p, c, dt, _ = start_daemon(bins, os.path.join(RUN, "serve-probe-%d" % i),
                                   bins["emx_run"])
        code, _ = stop_daemon(p, c)
        if c is None or code != 0:
            check.broken("serve start-up probe %d: daemon exit %s" % (i, code))
        else:
            startups.append(dt)
        if expired():
            break

    backlog, interactive = serve_recipes(seed, seconds)
    out = os.path.join(RUN, "serve" + ("-traced" if tracer else ""))
    p, client, dt, daemon_t0 = start_daemon(bins, out, worker, env)
    if client is None:
        stop_daemon(p, None)
        n = len(backlog) + len(interactive)
        check.broken("emx_serve did not come up: %d jobs not run" % n, n)
        return None
    startups.append(dt)
    if tracer is not None:
        client.tracer = tracer
        tracer.span("serve.startup", daemon_t0, daemon_t0 + dt)

    jobs = {}  # id -> {kind, due, sent, run, key, status0, done}
    order = []

    def submit(run, kind, due, priority, tenant):
        sent = time.monotonic()
        resp = client.call({"op": "submit", "tenant": tenant, "priority": priority,
                            "run": {k: v for k, v in run.items() if k != "repeat"}})
        if not resp.get("ok"):
            check.broken("submit refused: %s" % resp.get("error"))
            return
        job = {"kind": kind, "due": due, "sent": sent, "run": run,
               "key": resp["key"], "status0": resp.get("status"), "done": None}
        if resp.get("state") == "done":
            job["done"] = time.monotonic()
        jobs[resp["id"]] = job
        order.append(resp["id"])

    t_start = time.monotonic()
    for run in backlog:
        submit(run, "batch", t_start, 0, "batch")
    lateness = []
    i = 0
    next_poll = time.monotonic()
    while True:
        now = time.monotonic()
        if now >= DEADLINE:
            break
        if i < len(interactive):
            due = t_start + i / RATE
            if now >= due:
                lateness.append(now - due)
                submit(interactive[i], "interactive", due, 5, "interactive")
                i += 1
                continue
        if now >= next_poll:
            live = [j for j in jobs.values() if j["done"] is None]
            if i >= len(interactive) and not live:
                break
            listing = client.call({"op": "list"})
            t = time.monotonic()
            for row in listing.get("jobs", []):
                j = jobs.get(row["id"])
                if j is not None and j["done"] is None and row["state"] in (
                        "done", "failed", "canceled"):
                    j["done"] = t
            next_poll = t + POLL_S
            continue
        wake = min(next_poll, DEADLINE)
        if i < len(interactive):
            wake = min(wake, t_start + i / RATE)
        time.sleep(max(0.0, wake - time.monotonic()))
    t_end = time.monotonic()
    if i < len(interactive):
        check.missed("interactive submissions never sent", len(interactive) - i)

    # Results, fetched after the measured window.
    results = {}
    for jid in order:
        if jobs[jid]["done"] is None:
            check.missed(jobs[jid]["key"])
            continue
        row = client.call({"op": "status", "id": jid})
        key = jobs[jid]["key"]
        res = row.get("result") or {}
        check.result(key, res.get("exit_code", 1) if row.get("state") == "done" else 1,
                     res.get("verified"), res.get("cycles", 0), res.get("trace_crc", ""))
        results.setdefault(key, res.get("cycles", 0))
    # The daemon compacts its journal when it drains: count first.
    with open(os.path.join(out, "journal.jsonl"), "rb") as f:
        journal_appends = f.read().count(b"\n")
    finished = all(j["done"] is not None for j in jobs.values())
    code, rss = stop_daemon(p, client, drain=finished)
    if finished and code != 0:
        check.broken("emx_serve exited %d after drain" % code)

    inter = [j for j in jobs.values() if j["kind"] == "interactive"]
    batch = [j for j in jobs.values() if j["kind"] == "batch"]
    lat = [j["done"] - j["due"] for j in inter if j["done"] is not None]
    q1, p50, p75 = quartiles(lat)
    cached = sum(1 for j in inter if j["status0"] == "cached")
    executed = {j["key"] for j in jobs.values() if j["status0"] != "cached"}
    cycles = sum(results[k] for k in executed if k in results)
    batch_ends = [j["done"] for j in batch if j["done"] is not None]
    batch_done = max(batch_ends) - min(j["sent"] for j in batch) if batch_ends else 0.0
    load = {"slots": SLOTS, "rate_per_s": RATE, "loop": "open (interactive) + closed backlog",
            "interactive_jobs": len(inter), "backlog_jobs": len(batch),
            "repeats": sum(1 for r in interactive if "repeat" in r),
            "cache_hits": cached, "startup_samples": len(startups),
            "generator_lateness_max_s": round(max(lateness, default=0.0), 6),
            "generator_lateness_mean_s": round(statistics.mean(lateness or [0.0]), 6)}
    metrics = {
        "sim_cycles_per_s": ratio(cycles, t_end - t_start),
        "setup_s": sum(startups),
        "peak_rss_mb": rss / 1024.0,
        "job_p50_s": p50,
        "job_p75_s": p75,
        "batch_done_s": batch_done,
    }
    info = {"latency_samples": len(lat), "out": out, "jobs": jobs, "t_start": t_start,
            "t_end": t_end, "daemon_t0": daemon_t0, "client": client,
            "startups": startups, "results": results,
            "journal_appends": journal_appends}
    return metrics, load, info


# ----------------------------------------------------------------- main ---

UNITS = {"sim_cycles_per_s": "cycles/s", "setup_s": "s", "peak_rss_mb": "MiB",
         "job_p50_s": "s", "job_p75_s": "s", "batch_done_s": "s"}


def untraced(bins, workload, seed, seconds, check):
    if workload in ("paper_runs", "irregular_p64"):
        return run_workload(bins, workload, seed, seconds, check)
    if workload == "sweep_ckpt":
        return run_sweep_workload(bins, seed, seconds, check)
    return run_serve_workload(bins, seed, seconds, check)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    bins = build()
    global DEADLINE
    DEADLINE = time.monotonic() + min(DEADLINE_FACTOR[args.trace] * args.seconds,
                                      DEADLINE_CAP_S)
    become_subreaper()
    shutil.rmtree(RUN, ignore_errors=True)
    os.makedirs(RUN)
    check = Checker()
    try:
        if args.trace:
            import trace_layers
            metrics, load = trace_layers.traced(sys.modules[__name__], bins,
                                                args.workload, args.seed,
                                                args.seconds, check)
        else:
            outcome = untraced(bins, args.workload, args.seed, args.seconds, check)
            if outcome is None:  # emx_serve never came up: its jobs failed
                outcome = dict.fromkeys(UNITS, 0.0), {}, {"latency_samples": 0}
            values, load, info = outcome
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            load.update(latency_samples=info["latency_samples"])
    finally:
        stop_all()
        reap_orphans()
        shutil.rmtree(RUN, ignore_errors=True)

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed, args.trace))
    print("load: " + json.dumps(load, sort_keys=True))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("operations: %d attempted, %d failed; %d results matched an earlier "
          "run of the same recipe (cycles and trace CRC)"
          % (check.attempted, check.failed, check.compared))
    for problem in check.problems:
        print("  FAILED " + problem)
    print(json.dumps({"correct": check.failed == 0 and check.attempted > 0,
                      "attempted": check.attempted, "failed": check.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    main()
