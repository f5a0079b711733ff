// perfbench: the repo benchmark. Runs one seeded workload against a runtime
// built from default RuntimeOptions for --seconds, checks every reply, and
// prints the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1) as the last stdout line:
//
//   perfbench --workload kv_pipeline|db_sessions|web_recovery --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--print-plan]
//
// Exit status: 0 when every output check passed, 1 when one failed, 2 for
// a refused configuration (bad arguments, a VAMPOS_* variable in the
// environment, a sanitizer or assert-enabled build).
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"

extern char** environ;

namespace perfbench {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerBuild = true;
#else
constexpr bool kSanitizerBuild = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOn = false;
#else
constexpr bool kAssertsOn = true;
#endif

constexpr double kMinCoverage = 0.95;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  bool print_plan = false;
};

[[noreturn]] void Refuse(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-plan") {
      a.print_plan = true;
      continue;
    }
    if (i + 1 >= argc) Refuse("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && a.seconds > 0 && a.seconds <= 120;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Refuse("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Refuse("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) Refuse("--workload is required");
  if (!have_seed) Refuse("--seed takes a non-negative integer");
  if (!have_seconds && !a.print_plan) Refuse("--seconds takes a number in (0, 120]");
  return a;
}

/// The default configuration is what is measured: any VAMPOS_* knob would
/// silently switch the engine, inline calls, recovery workers, tracing or
/// health, so the benchmark refuses to run with one set.
void RefuseKnobs() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "VAMPOS_", 7) == 0) {
      Refuse(std::string("refusing to run with ") + *e +
             " set: the benchmark measures default RuntimeOptions");
    }
  }
  if (kSanitizerBuild) Refuse("refusing to run a sanitizer build");
  if (kAssertsOn) {
    Refuse("refusing to run without NDEBUG: assert builds change the "
           "default RuntimeOptions (dirty_audit_fail_stop)");
  }
}

/// The CPUs this process may run on; one when the set cannot be read.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);
  return cpus;
}

/// Moves the (single) benchmark thread onto `cpu`; -1 leaves it where it is.
/// Epochs take the allowed CPUs in turn, so every run spends the same share
/// of its time on each of them. Otherwise a run stays on whichever CPU the
/// scheduler picked at start, and the CPUs of a shared host differ in speed
/// by up to a fifth with the load of their neighbours.
void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

std::unique_ptr<Workload> Make(const Args& a) {
  if (a.workload == "kv_pipeline") return MakeKvPipeline(a.seed);
  if (a.workload == "db_sessions") return MakeDbSessions(a.seed);
  if (a.workload == "web_recovery") return MakeWebRecovery(a.seed);
  Refuse("unknown workload '" + a.workload +
         "' (kv_pipeline, db_sessions, web_recovery)");
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// The run's end-to-end figures: the median over its epochs of each
/// epoch's figure. An epoch's latency and MTTR percentiles come from its own
/// ops and faults, so a slow spell of the host that covers a few epochs
/// moves the run's tail percentiles no more than its median.
std::vector<Metric> EndToEnd(const RunData& d) {
  return {
      {"throughput_ops_s", Median(d.throughput), "ops/s"},
      {"latency_p50_us", Median(d.latency_p50_us), "us"},
      {"latency_p99_us", Median(d.latency_p99_us), "us"},
      {"mttr_p50_us", Median(d.mttr_p50_us), "us"},
      {"mttr_p95_us", Median(d.mttr_p95_us), "us"},
      {"setup_s", Median(d.setup_s), "s"},
      {"mem_overhead_bytes", Median(d.mem_overhead_bytes), "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const RunData& d, const Tracer& t) {
  const double ops = d.traced_ops;
  const double epochs = d.traced_epochs;
  auto c = [&](const char* key) {
    auto it = d.counters.find(key);
    return it != d.counters.end() ? it->second : 0.0;
  };
  auto per_op = [&](const char* key) { return Ratio(c(key), ops); };
  auto per_epoch = [&](double v) { return Ratio(v, epochs); };
  auto mem = [&](const char* key) {
    auto it = d.end_memory.find(key);
    return per_epoch(it != d.end_memory.end() ? it->second : 0.0);
  };
  auto handler_us = [&](const char* comp) {
    return Ratio(c((std::string("handler_ns.") + comp).c_str()) / 1e3, ops);
  };
  auto span_us = [&](SpanName n) { return Us(t.total_ns(n)); };
  auto pct = [&](SpanName n, double q) { return Percentile(t.durations_us(n), q); };
  std::vector<double> inserts = t.durations_us(SpanName::kDbInsert);
  return {
      {"core.loop_busy_us_per_op",
       Ratio(span_us(SpanName::kRunUntilIdle) + span_us(SpanName::kStep), ops), "us"},
      {"core.boot_ms", Median(d.boot_ms), "ms"},
      {"sched.switches_per_op", per_op("context_switches"), "count"},
      {"sched.useful_dispatch_ratio",
       1.0 - Ratio(c("empty_polls"), c("context_switches")), "ratio"},
      {"mpk.pkru_writes_per_op", per_op("pkru_writes"), "count"},
      {"msg.messages_per_op", per_op("messages"), "count"},
      {"msg.direct_call_share", Ratio(c("direct_calls"), c("calls")), "ratio"},
      {"msg.replies_batched_per_op", per_op("replies_batched"), "count"},
      {"msg.log_appends_per_op", per_op("log_appends"), "count"},
      {"msg.log_pruned_per_op", per_op("log_pruned_entries"), "count"},
      {"msg.compactions", per_epoch(c("compactions")), "count"},
      {"msg.compaction_skips", per_epoch(c("compaction_skips")), "count"},
      {"msg.log_scans", per_epoch(c("log_scans")), "count"},
      {"msg.log_bytes_end", mem("log_bytes"), "B"},
      {"msg.log_entries_end", mem("log_entries"), "count"},
      {"uk.lwip.handler_us_per_op", handler_us("lwip"), "us"},
      {"uk.netdev.handler_us_per_op", handler_us("netdev"), "us"},
      {"uk.vfs.handler_us_per_op", handler_us("vfs"), "us"},
      {"uk.ninep.handler_us_per_op", handler_us("9pfs"), "us"},
      {"uk.virtio.handler_us_per_op", handler_us("virtio"), "us"},
      {"apps.kv_pump_us_p50", pct(SpanName::kKvPump, 50), "us"},
      {"apps.kv_pump_us_p99", pct(SpanName::kKvPump, 99), "us"},
      {"apps.db_insert_us_p50", Percentile(inserts, 50), "us"},
      {"apps.db_insert_us_p99", Percentile(inserts, 99), "us"},
      {"apps.db_open_us_p50", pct(SpanName::kDbOpen, 50), "us"},
      {"apps.db_close_us_p50", pct(SpanName::kDbClose, 50), "us"},
      {"apps.web_pump_us_p50", pct(SpanName::kWebPump, 50), "us"},
      {"netclient.host_us_per_op",
       Ratio(span_us(SpanName::kClientSend) + span_us(SpanName::kClientPoll), ops),
       "us"},
      {"netclient.send_lag_p99_us", Percentile(d.send_lag_us, 99), "us"},
      {"recovery.detect_us_p50", Median(d.detect_us), "us"},
      {"recovery.stop_us_p50", Median(d.stop_us), "us"},
      {"recovery.replay_us_p50", Median(d.replay_us), "us"},
      {"recovery.replay_entries_p50", Median(d.replay_entries), "count"},
      {"recovery.rejuv_reboot_us_p50", Median(d.rejuv_us), "us"},
      {"recovery.rejuv_reboot_us_p95", Percentile(d.rejuv_us, 95), "us"},
      {"recovery.retries_deduped", per_epoch(c("retries_deduped")), "count"},
      {"recovery.failures", per_epoch(c("rt.recovery_failures")), "count"},
      {"mem.restore_us_p50", Median(d.restore_us), "us"},
      {"mem.restore_us_p95", Percentile(d.restore_us, 95), "us"},
      {"mem.restore_bytes_per_reboot", Mean(d.restore_bytes), "B"},
      {"mem.restore_pages_skipped_per_reboot", Mean(d.restore_pages_skipped),
       "count"},
      {"mem.recapture_us_p50", Median(d.recapture_us), "us"},
      {"mem.snapshot_stored_bytes", mem("snapshot_stored_bytes"), "B"},
      {"mem.snapshot_baseline_bytes", mem("snapshot_baseline_bytes"), "B"},
      {"mem.dirty_taints_per_op", per_op("snapshot.dirty_taints"), "count"},
      {"trace.coverage", Ratio(static_cast<double>(t.top_level_ns()),
                               static_cast<double>(d.traced_wall_ns)),
       "ratio"},
      {"trace.throughput_ratio",
       Ratio(Median(d.untraced_busy_us_per_op), Median(d.traced_busy_us_per_op)),
       "ratio"},
  };
}

/// JSON number with every digit; +inf (a failed op inside a percentile)
/// prints as 1e999, which JSON parsers read as infinity.
std::string Num(double v) {
  if (std::isinf(v)) return v > 0 ? "1e999" : "-1e999";
  if (std::isnan(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = Make(args);
  if (args.print_plan) {
    std::fputs(workload->Plan().c_str(), stdout);
    return 0;
  }
  Tracer tracer;
  RunData data;
  const Nanos start = Now();
  const Nanos deadline = start + static_cast<Nanos>(args.seconds * 1e9);
  const std::vector<int> cpus = AllowedCpus();
  int epochs = 0;
  // A traced run alternates traced and untraced epochs, so the tracing
  // overhead is measured on the same inputs, interleaved in time.
  while (epochs < (args.trace ? 2 : 1) || Now() < deadline) {
    const bool traced = args.trace && epochs % 2 == 0;
    PinTo(cpus[static_cast<std::size_t>(epochs) % cpus.size()]);
    workload->RunEpoch(tracer, data, traced);
    data.EndEpoch();
    epochs++;
    if (data.failed > 0) break;
  }
  const double wall_s = static_cast<double>(Now() - start) / 1e9;

  std::vector<Metric> metrics =
      args.trace ? PerLayer(data, tracer) : EndToEnd(data);
  bool correct = data.failed == 0 && data.attempted > 0;
  if (args.trace) {
    const double coverage = Ratio(static_cast<double>(tracer.top_level_ns()),
                                  static_cast<double>(data.traced_wall_ns));
    if (coverage < kMinCoverage || tracer.nesting_errors() > 0) {
      std::fprintf(stderr,
                   "perfbench: traced run failed reconciliation: top-level "
                   "spans cover %.4f of the measured wall time (need %.2f), "
                   "%llu nesting errors\n",
                   coverage, kMinCoverage,
                   static_cast<unsigned long long>(tracer.nesting_errors()));
      correct = false;
    }
    if (!args.trace_out.empty() && !tracer.Write(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      correct = false;
    }
  }
  for (const std::string& e : data.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  std::printf(
      "perfbench-config {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"runtime_options\": \"default\", \"epochs\": %d, "
      "\"traced_epochs\": %d, \"wall_s\": %s}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      Num(args.seconds).c_str(), args.trace ? 1 : 0,
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      Escape(__VERSION__).c_str(), epochs, data.traced_epochs,
      Num(wall_s).c_str());
  std::printf(
      "perfbench-samples {\"ops\": %zu, \"faults\": %zu, \"rejuvenations\": "
      "%zu, \"failed_ops_ratio\": %s}\n",
      data.ops, data.faults, data.rejuv_us.size(),
      Num(Ratio(static_cast<double>(data.failed),
                static_cast<double>(data.attempted)))
          .c_str());
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(data.attempted) +
                     ", \"failed\": " + std::to_string(data.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + Num(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::Parse(argc, argv);
  perfbench::RefuseKnobs();
  return perfbench::Run(args);
}
