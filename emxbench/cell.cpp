// emxbench_cell — runs one simulated cell in this process and prints one
// JSON line describing it. The benchmark runner (run.py) starts a fresh
// process per cell, so every cell pays the same cold-allocator setup.
//
// Untraced (default): one snapshot::run() with default knobs — exactly
// what emx_run does for the cell. Reports cycles, the trace digest, the
// wall time of run() and the setup time before the first simulated
// event. The only probe is a chained trace sink that stamps the clock
// at its first event and afterwards costs one indirect call per event.
//
// Traced (--trace): the same public calls run() makes — Machine
// construction, workloads::build, the static-verify gate, Machine::run_to,
// snapshot::capture + SnapshotFile::write_file at checkpoint boundaries,
// Workload::verify — each wrapped in a span. --checkpoint-every re-runs a
// sweep worker's checkpoint schedule in-process; --preempt-at re-runs a
// served job's preemptions: the on-demand capture at each listed cycle,
// then the resume's read_file + snapshot::verify against the live
// machine (the resume's replay is the run-loop time up to that cycle).
// The per-event trace CRC cannot be timed inside run_to, so a prefix of
// this run's own trace stream is kept and replayed through a fresh
// DigestSink afterwards to price one event.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json.hpp"
#include "core/machine.hpp"
#include "jobs/journal.hpp"
#include "jobs/result_cache.hpp"
#include "jobs/spec.hpp"
#include "jobs/supervisor.hpp"
#include "snapshot/runner.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/trace.hpp"
#include "verify/verifier.hpp"
#include "workloads/registry.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using emx::json::Value;

/// Seconds on CLOCK_MONOTONIC — the clock Python's time.monotonic()
/// reads, so run.py can nest these spans under its own.
double mono(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}
double now() { return mono(Clock::now()); }

long rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long size = 0, resident = 0;
  statm >> size >> resident;
  return resident * (::sysconf(_SC_PAGESIZE) / 1024);
}

long peak_rss_kb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

/// Stamps the clock at the first trace event: the end of setup.
class FirstEventClock final : public emx::trace::TraceSink {
 public:
  void on_event(const emx::trace::TraceEvent&) override {
    if (!seen_) {
      seen_ = true;
      first_ = Clock::now();
    }
  }
  bool seen() const { return seen_; }
  Clock::time_point first() const { return first_; }

 private:
  bool seen_ = false;
  Clock::time_point first_{};
};

/// Traced runs: counts events by type and keeps a prefix of the stream
/// for the digest replay.
class TapSink final : public emx::trace::TraceSink {
 public:
  explicit TapSink(std::size_t keep) : keep_(keep) { prefix_.reserve(keep); }
  void on_event(const emx::trace::TraceEvent& e) override {
    ++by_type_[static_cast<std::size_t>(e.type)];
    if (prefix_.size() < keep_) prefix_.push_back(e);
  }
  std::uint64_t count(emx::trace::EventType t) const {
    return by_type_[static_cast<std::size_t>(t)];
  }
  const std::vector<emx::trace::TraceEvent>& prefix() const { return prefix_; }

 private:
  std::size_t keep_;
  std::vector<emx::trace::TraceEvent> prefix_;
  std::array<std::uint64_t, 64> by_type_{};
};

/// Seconds per event of DigestSink::on_event, dispatched virtually as the
/// machine dispatches it, over the recorded prefix.
double digest_seconds_per_event(const std::vector<emx::trace::TraceEvent>& ev) {
  if (ev.empty()) return 0.0;
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.02) {
    emx::trace::DigestSink fresh;
    emx::trace::TraceSink* volatile sink = &fresh;
    for (const auto& e : ev) sink->on_event(e);
    done += ev.size();
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  return elapsed / static_cast<double>(done);
}

struct Span {
  const char* name;
  double t0, t1;
};

class Spans {
 public:
  template <typename Fn>
  void time(const char* name, Fn&& fn) {
    const double t0 = now();
    fn();
    spans_.push_back(Span{name, t0, now()});
  }
  double total(const char* name) const {
    double s = 0;
    for (const Span& sp : spans_)
      if (std::string(sp.name) == name) s += sp.t1 - sp.t0;
    return s;
  }
  Value to_json() const {
    Value arr = Value::array();
    for (const Span& sp : spans_) {
      Value row = Value::array();
      row.push(Value::string(sp.name));
      row.push(Value::real(sp.t0));
      row.push(Value::real(sp.t1));
      arr.push(std::move(row));
    }
    return arr;
  }

 private:
  std::vector<Span> spans_;
};

Value cell_json(const emx::snapshot::RunManifest& m, const std::string& key) {
  Value v = Value::object();
  v.set("key", Value::string(key));
  v.set("app", Value::string(m.app));
  v.set("procs", Value::integer(m.config.proc_count));
  v.set("threads", Value::integer(m.threads));
  v.set("size_per_proc", Value::integer(static_cast<std::int64_t>(m.size_per_proc)));
  v.set("seed", Value::integer(static_cast<std::int64_t>(m.seed)));
  return v;
}

void add_counts(Value& v, const emx::MachineReport& rep) {
  std::uint64_t switches = 0, dma = 0;
  for (const emx::ProcReport& p : rep.procs) {
    switches += p.switches.total();
    dma += p.dma_reads + p.dma_block_reads + p.dma_writes;
  }
  const auto i64 = [](std::uint64_t x) {
    return Value::integer(static_cast<std::int64_t>(x));
  };
  v.set("events", i64(rep.events_processed));
  v.set("switches", i64(switches));
  v.set("packets", i64(rep.network.packets_injected));
  v.set("fabric_packets", i64(rep.network.fabric_packets));
  v.set("dma_ops", i64(dma));
}

int run_untraced(const emx::snapshot::RunManifest& m, const std::string& key) {
  FirstEventClock stamp;
  emx::snapshot::RunOptions opts;
  opts.manifest = m;
  opts.sink = &stamp;
  const auto t0 = Clock::now();
  const emx::snapshot::RunResult r = emx::snapshot::run(opts);
  const auto t1 = Clock::now();

  Value v = cell_json(m, key);
  v.set("exit_code", Value::integer(r.exit_code));
  v.set("verified", Value::boolean(r.result_checked && r.result_ok));
  v.set("cycles", Value::integer(static_cast<std::int64_t>(r.end_cycle)));
  v.set("trace_events", Value::integer(static_cast<std::int64_t>(r.trace_events)));
  v.set("trace_crc", Value::string(hex32(r.trace_crc)));
  v.set("setup_s", Value::real(std::chrono::duration<double>(
                                   (stamp.seen() ? stamp.first() : t1) - t0)
                                   .count()));
  v.set("run_s", Value::real(std::chrono::duration<double>(t1 - t0).count()));
  v.set("maxrss_kb", Value::integer(peak_rss_kb()));
  std::printf("%s\n", v.dump().c_str());
  return r.exit_code;
}

int run_traced(const emx::snapshot::RunManifest& m, const std::string& key,
               std::uint64_t every, std::vector<std::uint64_t> preempts,
               const std::string& dir) {
  using namespace emx;
  std::sort(preempts.begin(), preempts.end());
  Spans spans;
  TapSink tap(1u << 18);
  trace::DigestSink digest(&tap);

  std::unique_ptr<Machine> machine;
  const long rss0 = rss_kb();
  spans.time("core.machine_build", [&] {
    machine = std::make_unique<Machine>(m.config, &digest, sim::EngineSpec{});
  });
  const long machine_rss = rss_kb() - rss0;

  workloads::Params p;
  p.size_per_proc = m.size_per_proc;
  p.threads = m.threads;
  p.iterations = m.iterations;
  p.seed = m.seed;
  p.block_reads = m.block_reads;
  p.local_phase = m.local_phase;
  std::unique_ptr<workloads::Workload> workload;
  std::string err;
  spans.time("workloads.build",
             [&] { workload = workloads::build(*machine, m.app, p, err); });
  if (workload == nullptr) {
    std::fprintf(stderr, "emxbench_cell: %s\n", err.c_str());
    return 2;
  }
  std::size_t findings = 0;
  spans.time("verify.gate", [&] {
    for (const auto& prog : machine->isa_programs())
      findings += verify::verify_program(*prog, m.app).findings.size();
  });

  std::uint64_t mem_bytes = 0;
  for (ProcId pe = 0; pe < m.config.proc_count; ++pe)
    mem_bytes += machine->memory(pe).size() * sizeof(Word);

  std::uint64_t captures = 0, digested = 0, resumes = 0;
  std::uint64_t periodic = 0, replay_captures = 0;
  double periodic_s = 0, replay_s = 0;
  Cycle next_ck = every;
  std::size_t next_pre = 0;
  while (true) {
    Cycle next = every > 0 ? next_ck : 0;  // 0 = run to completion
    if (next_pre < preempts.size() && (next == 0 || preempts[next_pre] < next))
      next = preempts[next_pre];
    bool paused = false;
    spans.time("core.run_to", [&] { paused = machine->run_to(next); });
    if (!paused) break;

    bool captured = false;
    std::string path;
    const auto checkpoint = [&] {
      path = dir + "/" + m.app + "-c" + std::to_string(next) + ".emxsnap";
      snapshot::SnapshotFile file;
      const double t0 = now();
      spans.time("snapshot.capture",
                 [&] { file = snapshot::capture(*machine, m, next); });
      spans.time("snapshot.write", [&] { err = file.write_file(path); });
      ++captures;
      digested += mem_bytes;
      captured = true;
      return now() - t0;
    };
    if (every > 0 && next == next_ck) {
      periodic_s += checkpoint();
      ++periodic;
      next_ck += every;
    }
    if (next_pre < preempts.size() && next == preempts[next_pre]) {
      // A preemption: the on-demand checkpoint (skipped when this pause
      // already wrote one), then what the resumed attempt redoes before
      // it runs on — the prefix's run loop and its periodic checkpoint
      // writes — and its byte-verification of the rebuilt machine.
      if (!captured) checkpoint();
      replay_s += spans.total("core.run_to") + periodic_s;
      replay_captures += periodic;
      snapshot::SnapshotFile back;
      spans.time("snapshot.read", [&] { err = back.read_file(path); });
      std::string divergent;
      spans.time("snapshot.verify",
                 [&] { divergent = snapshot::verify(*machine, back); });
      digested += mem_bytes;
      if (!divergent.empty()) err = "resume verification failed: " + divergent;
      ++resumes;
      while (next_pre < preempts.size() && preempts[next_pre] <= next) ++next_pre;
    }
    if (!err.empty()) {
      std::fprintf(stderr, "emxbench_cell: %s\n", err.c_str());
      return 2;
    }
    if (!path.empty()) std::remove(path.c_str());
  }

  MachineReport report;
  spans.time("core.report", [&] {
    report = machine->report();
    workload->contribute(report);
  });
  bool ok = false;
  spans.time("workloads.verify", [&] { ok = workload->verify(); });
  const double digest_spe = digest_seconds_per_event(tap.prefix());

  Value v = cell_json(m, key);
  v.set("exit_code", Value::integer(ok ? 0 : 1));
  v.set("verified", Value::boolean(ok));
  v.set("cycles", Value::integer(static_cast<std::int64_t>(machine->end_cycle())));
  v.set("trace_events", Value::integer(static_cast<std::int64_t>(digest.count())));
  v.set("trace_crc", Value::string(hex32(digest.crc())));
  add_counts(v, report);
  v.set("invokes", Value::integer(static_cast<std::int64_t>(
                       tap.count(trace::EventType::kThreadInvoke))));
  v.set("verify_findings", Value::integer(static_cast<std::int64_t>(findings)));
  v.set("machine_rss_kb", Value::integer(machine_rss));
  v.set("captures", Value::integer(static_cast<std::int64_t>(captures)));
  v.set("digest_bytes", Value::integer(static_cast<std::int64_t>(digested)));
  v.set("resumes", Value::integer(static_cast<std::int64_t>(resumes)));
  v.set("replay_s", Value::real(replay_s));
  v.set("replay_captures", Value::integer(static_cast<std::int64_t>(replay_captures)));
  v.set("digest_s", Value::real(digest_spe * static_cast<double>(digest.count())));
  v.set("maxrss_kb", Value::integer(peak_rss_kb()));
  v.set("spans", spans.to_json());
  std::printf("%s\n", v.dump().c_str());
  return ok ? 0 : 1;
}

/// Times the jobs-layer calls a supervisor or daemon made over a
/// finished output directory `dir`, by making them again: one
/// audit_result and one ResultCache lookup per cached result, publishing
/// each into a scratch cache, loading the journal, and fsync'd Journal
/// appends into a scratch journal (the per-append price).
int probe_jobs(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<std::string> keys;
  for (const auto& entry : fs::directory_iterator(dir + "/cache"))
    if (entry.path().extension() == ".json")
      keys.push_back(entry.path().stem().string());
  std::sort(keys.begin(), keys.end());

  std::string err, bytes;
  double audit_s = 0, lookup_s = 0, publish_s = 0, open_s = 0;
  emx::jobs::ResultCache cache, scratch;
  double t0 = now();
  const bool opened = cache.open(dir + "/cache", 0, err) &&
                      scratch.open(dir + "/probe-cache", 0, err);
  open_s = now() - t0;
  if (!opened) {
    std::fprintf(stderr, "emxbench_cell: %s\n", err.c_str());
    return 2;
  }
  std::size_t bad = 0;
  for (const std::string& key : keys) {
    t0 = now();
    bad += emx::jobs::audit_result(cache.path_for(key), bytes).empty() ? 0 : 1;
    audit_s += now() - t0;
    t0 = now();
    bad += cache.lookup(key, bytes) ? 0 : 1;
    lookup_s += now() - t0;
    t0 = now();
    bad += scratch.publish(key, bytes).empty() ? 0 : 1;
    publish_s += now() - t0;
  }

  std::vector<emx::jobs::JournalEntry> entries;
  std::string warning;
  t0 = now();
  bad += emx::jobs::Journal::load(dir + "/journal.jsonl", entries, warning, err) ? 0 : 1;
  const double load_s = now() - t0;

  constexpr int kAppends = 16;
  emx::jobs::Journal journal;
  bad += journal.open(dir + "/probe-journal.jsonl", err) ? 0 : 1;
  t0 = now();
  for (int i = 0; i < kAppends; ++i)
    bad += journal.append("probe", {{"n", std::to_string(i)}}, err) ? 0 : 1;
  const double append_s = (now() - t0) / kAppends;

  Value v = Value::object();
  v.set("results", Value::integer(static_cast<std::int64_t>(keys.size())));
  v.set("failed_calls", Value::integer(static_cast<std::int64_t>(bad)));
  v.set("audit_s", Value::real(audit_s));
  v.set("cache_open_s", Value::real(open_s));
  v.set("cache_lookup_s", Value::real(lookup_s));
  v.set("cache_publish_s", Value::real(publish_s));
  v.set("journal_load_s", Value::real(load_s));
  v.set("journal_entries", Value::integer(static_cast<std::int64_t>(entries.size())));
  v.set("journal_append_s", Value::real(append_s));
  std::printf("%s\n", v.dump().c_str());
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  emx::CliFlags flags;
  flags.define("app", "sort", "registry workload")
      .define("procs", "16", "P")
      .define("threads", "4", "h, threads per PE")
      .define("size-per-proc", "1024", "n/P")
      .define("seed", "1", "workload seed")
      .define("trace", "false", "time each layer call (see file comment)")
      .define("checkpoint-every", "0", "traced: checkpoint period in cycles")
      .define("preempt-at", "", "traced: cycles at which the job was preempted")
      .define("dir", "", "traced: scratch directory for checkpoint files")
      .define("probe-jobs", "",
              "time the jobs-layer calls over this finished sweep/serve "
              "output directory instead of running a cell");
  flags.parse(argc, argv);
  if (!flags.str("probe-jobs").empty()) return probe_jobs(flags.str("probe-jobs"));

  emx::jobs::SweepSpec spec;
  spec.apps = {flags.str("app")};
  spec.procs = {static_cast<std::uint32_t>(flags.integer("procs"))};
  spec.threads = {static_cast<std::uint32_t>(flags.integer("threads"))};
  spec.sizes_per_proc = {static_cast<std::uint64_t>(flags.integer("size-per-proc"))};
  spec.seeds = {static_cast<std::uint64_t>(flags.integer("seed"))};
  spec.base.iterations = 8;  // emx_run / emx_sweep flag parity
  spec.base.seed = 1;
  std::vector<emx::jobs::JobSpec> cells;
  std::string err;
  if (!spec.expand(cells, err) || cells.size() != 1) {
    std::fprintf(stderr, "emxbench_cell: %s\n", err.c_str());
    return 2;
  }
  if (!flags.boolean("trace")) return run_untraced(cells[0].manifest, cells[0].key);
  std::vector<std::uint64_t> preempts;
  for (const std::int64_t c : flags.int_list("preempt-at"))
    preempts.push_back(static_cast<std::uint64_t>(c));
  return run_traced(cells[0].manifest, cells[0].key,
                    static_cast<std::uint64_t>(flags.integer("checkpoint-every")),
                    preempts, flags.str("dir"));
}
