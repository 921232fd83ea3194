"""Traced runs of the emxbench workloads (run.py --trace 1).

Each traced invocation runs its workload once untraced and once traced,
checks that every run's cycles and trace CRC agree between the two (the
Checker fails any key whose values differ within one invocation), and
derives the per-layer metrics from spans recorded around the calls the
benchmark makes into each layer:

  * in-process calls, timed by emxbench_cell --trace in a fresh process
    per cell: Machine construction, workloads::build, the static-verify
    gate, Machine::run_to, snapshot::capture, SnapshotFile::write_file,
    snapshot::verify, Workload::verify;
  * worker processes of emx_sweep / emx_serve, start to exit, recorded by
    emxbench_shim passed as --emx-run;
  * the jobs-layer calls (audit_result, ResultCache, Journal), timed by
    making them again over the finished output directory;
  * socket round trips to emx_serve, timed by the client.

Spans are kept in memory and written to .bench_build/spans/ when the
workload ends. A span's self time is its duration minus the part its
children cover; "unattributed" is the traced wall time that no span
below the workload's root covers.
"""
import concurrent.futures
import json
import os
import statistics
import time

PER_LAYER = {
    # name: (unit, better)
    "core.machine_build_s": ("s", "lower"),
    "core.machine_rss_mb": ("MiB", "lower"),
    "core.run_loop_s": ("s", "lower"),
    "sim.events": ("count", "lower"),
    "sim.ns_per_event": ("ns", "lower"),
    "trace.events": ("count", "lower"),
    "trace.digest_s": ("s", "lower"),
    "trace.digest_share": ("ratio", "lower"),
    "runtime.switches": ("count", "lower"),
    "runtime.invokes": ("count", "lower"),
    "network.packets": ("count", "lower"),
    "network.fabric_share": ("ratio", "lower"),
    "proc.dma_ops": ("count", "lower"),
    "workloads.build_s": ("s", "lower"),
    "workloads.verify_s": ("s", "lower"),
    "snapshot.captures": ("count", "lower"),
    "snapshot.capture_s": ("s", "lower"),
    "snapshot.digest_mb": ("MiB", "lower"),
    "snapshot.write_s": ("s", "lower"),
    "snapshot.resume_ratio": ("ratio", "higher"),
    "snapshot.replay_s": ("s", "lower"),
    "snapshot.verify_s": ("s", "lower"),
    "jobs.startup_s": ("s", "lower"),
    "jobs.worker_s": ("s", "lower"),
    "jobs.process_overhead_s": ("s", "lower"),
    "jobs.slot_idle_s": ("s", "lower"),
    "jobs.retries": ("count", "lower"),
    "jobs.journal_appends": ("count", "lower"),
    "jobs.journal_s": ("s", "lower"),
    "jobs.audit_s": ("s", "lower"),
    "jobs.cache_s": ("s", "lower"),
    "serve.startup_s": ("s", "lower"),
    "serve.rpc_s": ("s", "lower"),
    "serve.queue_wait_s": ("s", "lower"),
    "serve.preemptions": ("count", "lower"),
    "serve.preempt_s": ("s", "lower"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.useful_cycle_ratio": ("ratio", "higher"),
    "bench.tracing_overhead": ("ratio", "lower"),
    "bench.unattributed_s": ("s", "lower"),
}

CHECKPOINT_EVERY = 100000  # the emx_sweep / emx_serve default


class Tracer:
    def __init__(self, path):
        self.spans = []
        self.shim_path = path + ".workers"

    def span(self, name, t0, t1, parent=None, run=None):
        self.spans.append({"id": len(self.spans), "name": name, "t0": t0, "t1": t1,
                           "parent": parent, "run": run})
        return len(self.spans) - 1

    def cell(self, row, name, parent=None):
        """A fresh process that ran one cell, and its in-process spans."""
        pid = self.span(name, row["t0"], row["t1"], parent, row["key"])
        for layer, t0, t1 in row.get("spans", []):
            self.span(layer, t0, t1, pid, row["key"])
        return pid

    def shim_env(self, bins):
        if os.path.exists(self.shim_path):
            os.remove(self.shim_path)
        return dict(os.environ, EMXBENCH_WORKER=bins["emx_run"],
                    EMXBENCH_SPANS=self.shim_path)

    def workers(self, parent):
        """Adds the shim's worker spans (start to exit) under `parent`."""
        rows = []
        if os.path.exists(self.shim_path):
            with open(self.shim_path) as f:
                rows = [json.loads(line) for line in f if line.strip()]
            os.remove(self.shim_path)
        out = []
        for r in rows:
            key, resume = None, None
            for a in r["argv"]:
                if a.startswith("--result-json="):
                    key = os.path.basename(os.path.dirname(a.split("=", 1)[1]))
                if a.startswith("--resume="):
                    resume = int(a.rsplit("-c", 1)[1].split(".")[0])
            self.span("jobs.worker", r["t0"], r["t1"], parent, key)
            out.append({"key": key, "resume": resume, "t0": r["t0"], "t1": r["t1"]})
        return sorted(out, key=lambda w: w["t0"])

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["t1"] - s["t0"]
        table = {}
        for s in self.spans:
            row = table.setdefault(s["name"], [0.0, 0])
            row[0] += max(0.0, s["t1"] - s["t0"] - covered[s["id"]])
            row[1] += 1
        return table

    def uncovered(self, root):
        """Seconds of `root` no direct child span covers."""
        r = self.spans[root]
        ivals = sorted((s["t0"], s["t1"]) for s in self.spans if s["parent"] == root)
        covered, end = 0.0, r["t0"]
        for a, b in ivals:
            a, b = max(a, end), min(b, r["t1"])
            if b > a:
                covered += b - a
                end = b
        return (r["t1"] - r["t0"]) - covered

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def cell_layers(rows):
    """Per-layer sums over traced cell processes."""
    def total(layer):
        return sum(t1 - t0 for r in rows for n, t0, t1 in r.get("spans", []) if n == layer)

    loop = total("core.run_to")
    events = sum(r["events"] for r in rows)
    digest = sum(r["digest_s"] for r in rows)
    packets = sum(r["packets"] for r in rows)
    captures = sum(r["captures"] + r["replay_captures"] for r in rows)
    return {
        "core.machine_build_s": total("core.machine_build"),
        "core.machine_rss_mb": max((r["machine_rss_kb"] for r in rows), default=0) / 1024.0,
        "core.run_loop_s": loop,
        "sim.events": events,
        "sim.ns_per_event": loop / events * 1e9 if events else 0.0,
        "trace.events": sum(r["trace_events"] for r in rows),
        "trace.digest_s": digest,
        "trace.digest_share": digest / loop if loop else 0.0,
        "runtime.switches": sum(r["switches"] for r in rows),
        "runtime.invokes": sum(r["invokes"] for r in rows),
        "network.packets": packets,
        "network.fabric_share": sum(r["fabric_packets"] for r in rows) / packets
                                if packets else 0.0,
        "proc.dma_ops": sum(r["dma_ops"] for r in rows),
        "workloads.build_s": total("workloads.build"),
        "workloads.verify_s": total("workloads.verify"),
        "snapshot.captures": captures,
        "snapshot.capture_s": total("snapshot.capture"),
        "snapshot.digest_mb": sum(r["digest_bytes"] for r in rows) / float(1 << 20),
        "snapshot.write_s": total("snapshot.write"),
        "snapshot.replay_s": sum(r["replay_s"] for r in rows),
        "snapshot.verify_s": total("snapshot.read") + total("snapshot.verify"),
        "snapshot.resume_ratio": sum(r["resumes"] for r in rows) / captures
                                 if captures else 0.0,
        "_in_process_s": sum(t1 - t0 for r in rows for _, t0, t1 in r.get("spans", []))
                         + sum(r["replay_s"] for r in rows),
    }


def attribute(m, bins, check, recipes, tracer, scratch):
    """Re-runs each (cell, preemption cycles) in-process, in a fresh
    process each, with the workers' checkpoint schedule, m.SLOTS at a
    time as the workers ran. Each re-run has its own checkpoint directory."""
    def rerun(index, cell, preempts):
        if m.expired():
            return None
        ck = os.path.join(scratch, "a%d" % index)
        os.makedirs(ck, exist_ok=True)
        extra = ["--trace", "--dir=" + ck, "--checkpoint-every=%d" % CHECKPOINT_EVERY]
        if preempts:
            extra.append("--preempt-at=" + ",".join(str(c) for c in preempts))
        return m.spawn_wait(m.cell_argv(bins, cell, extra))

    with concurrent.futures.ThreadPoolExecutor(m.SLOTS) as pool:
        runs = list(pool.map(lambda a: rerun(*a),
                             [(i, c, p) for i, (c, p) in enumerate(recipes)]))
    rows = []
    for (cell, _), run in zip(recipes, runs):
        if run is None:
            check.missed("attribution re-run of %s" % (cell,))
            continue
        code, out, _, t0, t1 = run
        try:
            row = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            check.broken("attribution re-run of %s failed (exit %d)" % (cell, code))
            continue
        row.update(t0=t0, t1=t1)
        check.result(row["key"], code, row["verified"], row["cycles"], row["trace_crc"])
        tracer.cell(row, "attribution.cell")
        rows.append(row)
    return rows


def probe_jobs(m, bins, check, out):
    code, text, _, _, _ = m.spawn_wait([bins["cell"], "--probe-jobs=" + out])
    try:
        probe = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        probe = None
    if code != 0 or probe is None:
        check.broken("jobs-layer probe over %s failed (exit %d)" % (out, code))
        return {"audit_s": 0.0, "cache_open_s": 0.0, "cache_lookup_s": 0.0,
                "cache_publish_s": 0.0, "journal_append_s": 0.0}
    return probe


def zero_metrics():
    return {k: 0.0 for k in PER_LAYER}


def traced_cells(m, bins, name, seed, check, tracer, scratch):
    cells = m.run_cells(seed)[name]
    _, wall_u = m.run_round(bins, cells, check, None)
    t0 = time.monotonic()
    rows, wall_t = m.run_round(bins, cells, check, scratch)
    root = tracer.span("workload", t0, time.monotonic())
    for r in rows:
        tracer.cell(r, "proc.cell", root)
    metrics = zero_metrics()
    metrics.update(cell_layers(rows))
    metrics["bench.tracing_overhead"] = wall_t / wall_u
    metrics["bench.unattributed_s"] = sum(
        tracer.uncovered(s["id"]) for s in tracer.spans if s["name"] == "proc.cell") \
        + tracer.uncovered(root)
    return metrics, {"cells": len(cells), "untraced_wall_s": wall_u, "traced_wall_s": wall_t}


def traced_sweep(m, bins, seed, check, tracer, scratch):
    out_u = os.path.join(m.RUN, "sweep-untraced")
    code, _, t0, t1, _, _ = m.run_sweep_once(bins, seed, out_u, bins["emx_run"])
    m.check_sweep(out_u, code, seed, check)
    wall_u = t1 - t0
    out = os.path.join(m.RUN, "sweep-traced")
    code, _, t0, t1, _, appends = m.run_sweep_once(bins, seed, out, bins["shim"],
                                                   tracer.shim_env(bins))
    cells = m.check_sweep(out, code, seed, check)
    root = tracer.span("jobs.sweep", t0, t1)
    workers = tracer.workers(root)
    with open(os.path.join(out, "provenance.json")) as f:
        prov = json.load(f)["cells"]
    with open(os.path.join(out, "aggregate.json")) as f:
        agg = json.load(f)["cells"]
    recipes = [((c["result"]["app"], c["result"]["procs"], c["result"]["size_per_proc"],
                 c["result"]["threads"], c["result"]["seed"]), []) for c in agg]
    rows = attribute(m, bins, check, recipes, tracer, scratch)
    probe = probe_jobs(m, bins, check, out)

    metrics = zero_metrics()
    metrics.update(cell_layers(rows))
    worker_s = sum(w["t1"] - w["t0"] for w in workers)
    attempts = sum(c["attempts"] for c in prov)
    metrics.update({
        "snapshot.resume_ratio": sum(c["resumes"] for c in prov) / metrics["snapshot.captures"]
                                 if metrics["snapshot.captures"] else 0.0,
        "jobs.startup_s": workers[0]["t0"] - t0 if workers else 0.0,
        "jobs.worker_s": worker_s,
        "jobs.process_overhead_s": worker_s - metrics["_in_process_s"],
        "jobs.slot_idle_s": m.SLOTS * (t1 - t0) - worker_s,
        "jobs.retries": attempts - len(prov),
        "jobs.journal_appends": appends,
        "jobs.journal_s": appends * probe["journal_append_s"],
        "jobs.audit_s": probe["audit_s"],
        "jobs.cache_s": probe["cache_open_s"] + probe["cache_lookup_s"]
                        + probe["cache_publish_s"],
        "bench.tracing_overhead": (t1 - t0) / wall_u,
        "bench.unattributed_s": tracer.uncovered(root),
    })
    return metrics, {"cells": len(cells), "workers": len(workers), "slots": m.SLOTS,
                     "untraced_wall_s": wall_u, "traced_wall_s": t1 - t0}


def traced_serve(m, bins, seed, seconds, check, tracer, scratch):
    untraced = m.run_serve_workload(bins, seed, seconds, check)
    if untraced is None:
        return zero_metrics(), {}
    wall_u = untraced[2]["t_end"] - untraced[2]["t_start"]
    traced = m.run_serve_workload(bins, seed, seconds, check, tracer)
    if traced is None:
        return zero_metrics(), {}
    _, load, info = traced
    t_start, t_end = info["t_start"], info["t_end"]
    root = tracer.span("serve.workload", info["daemon_t0"], t_end)
    for s in tracer.spans:
        if s["name"] in ("serve.rpc", "serve.startup") and s["parent"] is None:
            s["parent"] = root
    workers = tracer.workers(root)
    jobs = info["jobs"]

    by_key = {}
    for w in workers:
        by_key.setdefault(w["key"], []).append(w)
    first_sent = {}
    for j in sorted(jobs.values(), key=lambda j: j["sent"]):
        first_sent.setdefault(j["key"], j)
    queue_wait = sum(ws[0]["t0"] - first_sent[k]["sent"]
                     for k, ws in by_key.items() if k in first_sent)
    high = sorted(j["sent"] for j in jobs.values() if j["kind"] == "interactive")
    preempted = [w for k, ws in by_key.items() for w, nxt in zip(ws, ws[1:])
                 if nxt["resume"] is not None]
    preempt_s = 0.0
    for w in preempted:
        before = [t for t in high if t <= w["t1"]]
        preempt_s += w["t1"] - (before[-1] if before else w["t0"])
    resumed = [w["resume"] for w in workers if w["resume"] is not None]
    cycles = sum(info["results"].get(k, 0) for k in by_key)

    recipes = []
    for k, ws in by_key.items():
        run = first_sent[k]["run"]
        cell = (run["app"], run["procs"], run["size_per_proc"], run.get("threads", 4),
                run["seed"])
        recipes.append((cell, [w["resume"] for w in ws if w["resume"] is not None]))
    rows = attribute(m, bins, check, recipes, tracer, scratch)
    probe = probe_jobs(m, bins, check, info["out"])

    metrics = zero_metrics()
    metrics.update(cell_layers(rows))
    worker_s = sum(w["t1"] - w["t0"] for w in workers)
    inter = [j for j in jobs.values() if j["kind"] == "interactive"]
    cached = sum(1 for j in jobs.values() if j["status0"] == "cached")
    appends = info["journal_appends"]
    metrics.update({
        "jobs.startup_s": workers[0]["t0"] - t_start if workers else 0.0,
        "jobs.worker_s": worker_s,
        "jobs.process_overhead_s": worker_s - metrics["_in_process_s"],
        "jobs.slot_idle_s": m.SLOTS * (t_end - t_start) - worker_s,
        "jobs.retries": len(workers) - len(resumed) - len(by_key),
        "jobs.journal_appends": appends,
        "jobs.journal_s": appends * probe["journal_append_s"],
        "jobs.audit_s": probe["audit_s"],
        "jobs.cache_s": probe["cache_open_s"] + probe["cache_lookup_s"]
                        + probe["cache_publish_s"],
        "serve.startup_s": statistics.median(info["startups"]),
        "serve.rpc_s": info["client"].rpc_s,
        "serve.queue_wait_s": queue_wait,
        "serve.preemptions": len(preempted),
        "serve.preempt_s": preempt_s,
        "serve.cache_hit_ratio": cached / len(inter),
        "serve.useful_cycle_ratio": cycles / (cycles + sum(resumed)) if cycles else 0.0,
        "bench.tracing_overhead": (t_end - t_start) / wall_u,
        "bench.unattributed_s": tracer.uncovered(root),
    })
    load.update(untraced_wall_s=wall_u, traced_wall_s=t_end - t_start,
                workers=len(workers), rpcs=info["client"].rpcs)
    return metrics, load


def traced(m, bins, workload, seed, seconds, check):
    spans_path = os.path.join(m.BUILD, "spans", "%s-seed%d.jsonl" % (workload, seed))
    tracer = Tracer(os.path.join(m.RUN, "spans"))
    scratch = os.path.join(m.RUN, "ck")
    os.makedirs(scratch, exist_ok=True)
    if workload in ("paper_runs", "irregular_p64"):
        metrics, load = traced_cells(m, bins, workload, seed, check, tracer, scratch)
    elif workload == "sweep_ckpt":
        metrics, load = traced_sweep(m, bins, seed, check, tracer, scratch)
    else:
        metrics, load = traced_serve(m, bins, seed, seconds, check, tracer, scratch)
    metrics.pop("_in_process_s", None)
    tracer.write(spans_path)

    print("per-layer self time and counts (%s):" % spans_path)
    for name, (self_s, count) in sorted(tracer.self_times().items(),
                                        key=lambda kv: -kv[1][0]):
        print("  %-22s %10.4f s  %6d spans" % (name, self_s, count))
    load["spans_file"] = os.path.relpath(spans_path, m.ROOT)
    return ({k: {"value": float(v), "unit": PER_LAYER[k][0]} for k, v in metrics.items()},
            load)
