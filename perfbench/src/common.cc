#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench.h"

namespace perfbench {

namespace core = vampos::core;

const char* SpanLabel(SpanName name) {
  switch (name) {
    case SpanName::kRunUntilIdle: return "core.run_until_idle";
    case SpanName::kStep: return "core.step_loop";
    case SpanName::kClientSend: return "netclient.send";
    case SpanName::kClientPoll: return "netclient.poll";
    case SpanName::kCheck: return "bench.check";
    case SpanName::kWait: return "bench.wait";
    case SpanName::kInject: return "recovery.inject";
    case SpanName::kRejuvenate: return "recovery.rejuvenate";
    case SpanName::kKvPump: return "apps.kv_pump";
    case SpanName::kDbOpen: return "apps.db_open";
    case SpanName::kDbInsert: return "apps.db_insert";
    case SpanName::kDbDelete: return "apps.db_delete";
    case SpanName::kDbClose: return "apps.db_close";
    case SpanName::kWebPump: return "apps.web_pump";
    case SpanName::kCount: break;
  }
  return "?";
}

namespace {

// App calls whose duration percentiles are reported; other spans only feed
// the totals, which keeps the traced run's memory flat.
bool KeepsDurations(SpanName n) {
  return n == SpanName::kKvPump || n == SpanName::kDbOpen ||
         n == SpanName::kDbInsert || n == SpanName::kDbClose ||
         n == SpanName::kWebPump;
}

}  // namespace

void Tracer::Begin(SpanName name) {
  const Nanos now = Now();
  std::uint32_t index = kNone;
  if (spans_.size() < kMaxStored) {
    index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{.start = now,
                          .end = 0,
                          .parent = stack_.empty() ? kNone : stack_.back().index,
                          .op = op_,
                          .name = name});
  } else {
    dropped_++;
  }
  stack_.push_back(Open{name, now, 0, index});
}

void Tracer::End(SpanName name) {
  const Nanos now = Now();
  if (stack_.empty() || stack_.back().name != name) {
    nesting_errors_++;
    return;
  }
  const Open open = stack_.back();
  stack_.pop_back();
  const Nanos d = now - open.start;
  const auto i = static_cast<std::size_t>(name);
  count_[i]++;
  total_ns_[i] += d;
  self_ns_[i] += d - open.child_ns;
  if (KeepsDurations(name)) durations_us_[i].push_back(Us(d));
  if (open.index != kNone) spans_[open.index].end = now;
  if (!stack_.empty()) {
    stack_.back().child_ns += d;
  } else {
    top_level_ns_ += d;
  }
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "# span\tcount\ttotal_us\tself_us\n");
  for (std::size_t i = 0; i < kNames; ++i) {
    if (count_[i] == 0) continue;
    std::fprintf(f, "# %s\t%llu\t%.3f\t%.3f\n",
                 SpanLabel(static_cast<SpanName>(i)),
                 static_cast<unsigned long long>(count_[i]), Us(total_ns_[i]),
                 Us(self_ns_[i]));
  }
  std::fprintf(f, "# stored=%zu dropped=%llu\n", spans_.size(),
               static_cast<unsigned long long>(dropped_));
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\top\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%u\n", i, SpanLabel(s.name),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.op);
  }
  return std::fclose(f) == 0;
}

CounterMap ReadCounters(const core::Runtime& rt) {
  const core::RuntimeStats s = rt.Stats();
  CounterMap m = {
      {"calls", static_cast<double>(s.calls)},
      {"direct_calls", static_cast<double>(s.direct_calls)},
      {"messages", static_cast<double>(s.messages)},
      {"context_switches", static_cast<double>(s.context_switches)},
      {"empty_polls", static_cast<double>(s.empty_polls)},
      {"pkru_writes", static_cast<double>(s.pkru_writes)},
      {"log_appends", static_cast<double>(s.log_appends)},
      {"log_pruned_entries", static_cast<double>(s.log_pruned_entries)},
      {"compactions", static_cast<double>(s.compactions)},
      {"compaction_skips", static_cast<double>(s.compaction_skips)},
      {"log_scans", static_cast<double>(s.log_scans)},
      {"replies_batched", static_cast<double>(s.replies_batched)},
      {"retries_deduped", static_cast<double>(s.retries_deduped)},
  };
  for (const char* name : {"snapshot.dirty_taints", "rt.recovery_failures"}) {
    const vampos::obs::Counter* c = rt.metrics().FindCounter(name);
    m[name] = c != nullptr ? static_cast<double>(c->value()) : 0.0;
  }
  for (const core::FunctionStats& f :
       rt.TopFunctions(std::numeric_limits<std::size_t>::max())) {
    m["handler_ns." + f.name.substr(0, f.name.find('.'))] +=
        static_cast<double>(f.total_ns);
  }
  return m;
}

void AddDelta(CounterMap& sums, const CounterMap& before,
              const CounterMap& after) {
  for (const auto& [key, value] : after) {
    auto it = before.find(key);
    sums[key] += value - (it != before.end() ? it->second : 0.0);
  }
}

Rig::Rig(const vampos::apps::StackSpec& spec)
    : info(vampos::apps::BuildStack(rt, platform, rings, spec)) {}

bool Rig::BootAndMount() {
  const Nanos t0 = Now();
  rt.Boot();
  boot_ns = Now() - t0;
  px = std::make_unique<vampos::apps::Posix>(rt);
  std::int64_t mounted = -1;
  rt.SpawnApp("mount", [&] { mounted = px->Mount("/"); });
  rt.RunUntilIdle();
  return mounted >= 0;
}

void Rig::RunToIdle(Tracer& tracer) {
  rt.UnparkApps();
  const Nanos t0 = Now();
  {
    SpanScope span(tracer, SpanName::kRunUntilIdle);
    rt.RunUntilIdle();
  }
  AddBusy(t0);
}

void Rig::AddBusy(Nanos t0) { busy_ns += Now() - t0; }

void Rig::StopServer(bool& stop) {
  stop = true;
  rt.UnparkApps();
  rt.RunUntilIdle();
}

const core::RebootReport* RebootSince(const core::Runtime& rt,
                                      std::size_t from, ComponentId leader) {
  const auto& history = rt.reboot_history();
  for (std::size_t i = history.size(); i > from; --i) {
    if (history[i - 1].component == leader) return &history[i - 1];
  }
  return nullptr;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return v[lo];
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

void RunData::Fail(const std::string& what) {
  failed++;
  if (errors.size() < 8) errors.push_back(what);
}

void RunData::SetupDone(Nanos setup_ns, Nanos boot) {
  setup_s.push_back(static_cast<double>(setup_ns) / 1e9);
  boot_ms.push_back(static_cast<double>(boot) / 1e6);
}

void RunData::EndEpoch() {
  ops += latency_us.size();
  faults += mttr_us.size();
  if (!latency_us.empty()) {
    latency_p50_us.push_back(Percentile(latency_us, 50));
    latency_p99_us.push_back(Percentile(latency_us, 99));
  }
  if (!mttr_us.empty()) {
    mttr_p50_us.push_back(Percentile(mttr_us, 50));
    mttr_p95_us.push_back(Percentile(mttr_us, 95));
  }
  latency_us.clear();
  mttr_us.clear();
}

void RunData::AddFault(Nanos mttr_ns, const core::RebootReport& r) {
  mttr_us.push_back(Us(mttr_ns));
  detect_us.push_back(Us(mttr_ns - r.total_ns));
  stop_us.push_back(Us(r.stop_ns));
  replay_us.push_back(Us(r.replay_ns));
  replay_entries.push_back(static_cast<double>(r.entries_replayed));
  restore_us.push_back(Us(r.snapshot_ns));
  restore_bytes.push_back(static_cast<double>(r.snapshot_bytes_copied));
  restore_pages_skipped.push_back(
      static_cast<double>(r.snapshot_pages_skipped));
}

void RunData::AddRejuvenation(Nanos wall_ns, const core::RebootReport& r) {
  rejuv_us.push_back(Us(wall_ns));
  recapture_us.push_back(Us(r.refresh_hash_ns + r.refresh_copy_ns));
}

double MemOverheadBytes(const core::Runtime& rt) {
  const core::MemoryReport mem = rt.Memory();
  return static_cast<double>(mem.snapshot_stored_bytes +
                             mem.snapshot_baseline_bytes + mem.log_bytes);
}

MeasuredPhase::MeasuredPhase(Rig& rig, Tracer& tracer, RunData& data,
                             bool traced)
    : rig_(rig),
      tracer_(tracer),
      data_(data),
      before_(ReadCounters(rig.rt)),
      busy0_(rig.busy_ns) {
  tracer_.set_enabled(traced);
  t0_ = Now();
}

void MeasuredPhase::Finish(std::uint64_t ops, std::uint64_t ok_ops) {
  const Nanos wall = Now() - t0_;
  const double throughput =
      static_cast<double>(ok_ops) / (static_cast<double>(wall) / 1e9);
  RunData& d = data_;
  const core::MemoryReport mem = rig_.rt.Memory();
  const double busy_us_per_op =
      Us(rig_.busy_ns - busy0_) / static_cast<double>(ops);
  d.throughput.push_back(throughput);
  d.mem_overhead_bytes.push_back(MemOverheadBytes(rig_.rt));
  if (!tracer_.enabled()) {
    d.untraced_busy_us_per_op.push_back(busy_us_per_op);
    return;
  }
  tracer_.set_enabled(false);
  d.traced_busy_us_per_op.push_back(busy_us_per_op);
  d.traced_epochs++;
  d.traced_ops += static_cast<double>(ops);
  d.traced_wall_ns += wall;
  AddDelta(d.counters, before_, ReadCounters(rig_.rt));
  d.end_memory["log_bytes"] += static_cast<double>(mem.log_bytes);
  d.end_memory["log_entries"] += static_cast<double>(mem.log_entries);
  d.end_memory["snapshot_stored_bytes"] +=
      static_cast<double>(mem.snapshot_stored_bytes);
  d.end_memory["snapshot_baseline_bytes"] +=
      static_cast<double>(mem.snapshot_baseline_bytes);
}

std::string FormatPlan(const std::vector<RecoveryStep>& plan) {
  std::string out;
  for (const RecoveryStep& s : plan) {
    out += std::to_string(s.at) + " " +
           (s.rejuvenate ? std::string("rejuvenate") : vampos::ToString(s.kind)) +
           " " + s.target + "\n";
  }
  return out;
}

std::vector<RecoveryStep> FaultMix(vampos::Rng& rng,
                                   const std::vector<std::string>& targets,
                                   std::size_t count) {
  std::vector<RecoveryStep> block;
  for (const FaultKind kind : {FaultKind::kPanic, FaultKind::kMpkViolation}) {
    for (const std::string& target : targets) {
      block.push_back(RecoveryStep{
          .at = 0, .rejuvenate = false, .kind = kind, .target = target});
    }
  }
  std::vector<RecoveryStep> out;
  while (out.size() < count) {
    Shuffle(rng, block);
    for (std::size_t i = 0; i < block.size() && out.size() < count; ++i) {
      out.push_back(block[i]);
    }
  }
  return out;
}

std::vector<RecoveryStep> ProbePlan(std::uint64_t seed,
                                    const std::vector<std::string>& targets,
                                    const std::vector<std::string>& stateful,
                                    std::size_t faults,
                                    std::size_t rejuvenations) {
  vampos::Rng rng(seed ^ 0x70726f6265ULL);
  std::vector<RecoveryStep> plan = FaultMix(rng, targets, faults);
  for (std::size_t i = 0; i < rejuvenations; ++i) {
    plan.push_back(RecoveryStep{.at = 0,
                                .rejuvenate = true,
                                .kind = FaultKind::kPanic,
                                .target = stateful[i % stateful.size()]});
  }
  for (std::size_t i = 0; i < plan.size(); ++i) plan[i].at = i;
  return plan;
}

}  // namespace perfbench
