// Shared pieces of the repo benchmark: the span tracer, runtime counter
// snapshots, the default-options rig every workload runs on, and the
// per-run data that main.cc turns into the metric line.
//
// A run is a sequence of *epochs*. An epoch builds a fresh application
// (setup), drives one fixed, seeded unit of work against it (the measured
// phase), optionally probes recovery, and tears it down. Every epoch of a
// run gets the same inputs, so per-op counts repeat exactly run to run and
// the run length only changes how many samples the medians see.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/netclient.h"
#include "apps/posix.h"
#include "apps/stack.h"
#include "base/clock.h"
#include "base/panic.h"
#include "base/rng.h"
#include "core/runtime.h"
#include "uk/platform.h"

namespace perfbench {

using vampos::ComponentId;
using vampos::FaultKind;
using vampos::Nanos;

inline Nanos Now() { return vampos::SteadyClock::Instance().Now(); }
inline double Us(Nanos ns) { return static_cast<double>(ns) / 1e3; }

// ------------------------------------------------------------------ spans

/// One name per public call the benchmark times. The module prefix of the
/// label is the layer the time is charged to.
enum class SpanName : std::uint8_t {
  kRunUntilIdle,  // core: Runtime::RunUntilIdle
  kStep,          // core: Runtime::Step loop of a fault window (+ polls)
  kClientSend,    // netclient: SimClient::Send
  kClientPoll,    // netclient: SimClient::Poll
  kCheck,         // bench: reply parsing + comparison with the model
  kWait,          // bench: open-loop generator idle until the next due time
  kInject,        // recovery: Runtime::InjectFault
  kRejuvenate,    // recovery: Runtime::Reboot(id, true)
  kKvPump,        // apps: KvStore::PumpOnce
  kDbOpen,        // apps: MiniDb::Open
  kDbInsert,      // apps: MiniDb::Insert
  kDbDelete,      // apps: MiniDb::Delete
  kDbClose,       // apps: MiniDb::Close
  kWebPump,       // apps: WebServer::PumpOnce
  kCount,
};
const char* SpanLabel(SpanName name);

/// In-memory span recorder around the benchmark's calls into each layer.
/// Single-threaded: app-fiber spans open and close inside the host's
/// RunUntilIdle span (a fiber only runs while the message thread is inside
/// it), so spans nest strictly and a stack gives every span its parent.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  static constexpr std::size_t kMaxStored = 1u << 19;

  struct Span {
    Nanos start = 0;
    Nanos end = 0;
    std::uint32_t parent = kNone;  // index into spans(), kNone = top level
    std::uint32_t op = 0;
    SpanName name = SpanName::kCount;
  };

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void set_op(std::uint64_t op) { op_ = static_cast<std::uint32_t>(op); }

  void Begin(SpanName name);
  void End(SpanName name);

  [[nodiscard]] Nanos total_ns(SpanName n) const {
    return total_ns_[static_cast<std::size_t>(n)];
  }
  /// Durations (us) of the app-call spans whose percentiles are reported.
  [[nodiscard]] const std::vector<double>& durations_us(SpanName n) const {
    return durations_us_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] Nanos top_level_ns() const { return top_level_ns_; }
  [[nodiscard]] std::uint64_t nesting_errors() const { return nesting_errors_; }

  /// Writes the per-name count / total / self-time table (self time is a
  /// span's duration minus the part its child spans cover), then every
  /// stored span, as TSV.
  bool Write(const std::string& path) const;

 private:
  struct Open {
    SpanName name;
    Nanos start;
    Nanos child_ns;
    std::uint32_t index;
  };
  static constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);

  bool enabled_ = false;
  std::uint32_t op_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
  std::uint64_t nesting_errors_ = 0;
  Nanos top_level_ns_ = 0;
  std::array<std::uint64_t, kNames> count_{};
  std::array<Nanos, kNames> total_ns_{};
  std::array<Nanos, kNames> self_ns_{};
  std::array<std::vector<double>, kNames> durations_us_{};
};

/// Times one call when the tracer is on; a single branch when it is off.
class SpanScope {
 public:
  SpanScope(Tracer& t, SpanName name)
      : tracer_(t.enabled() ? &t : nullptr), name_(name) {
    if (tracer_ != nullptr) tracer_->Begin(name_);
  }
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(name_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  SpanName name_;
};

// --------------------------------------------------------------- counters

/// Named runtime counters: Stats() fields, per-component handler time from
/// TopFunctions(), and a few metrics() counters.
using CounterMap = std::map<std::string, double>;
CounterMap ReadCounters(const vampos::core::Runtime& rt);
/// sums[k] += after[k] - before[k] for every key of `after`.
void AddDelta(CounterMap& sums, const CounterMap& before,
              const CounterMap& after);

// ------------------------------------------------------------------- rig

/// One unikernel-linked application, built the way a user builds it:
/// default-constructed RuntimeOptions, the paper's stack for the app.
struct Rig {
  explicit Rig(const vampos::apps::StackSpec& spec);
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Boot (timed into boot_ns) and mount the 9P root on an app fiber.
  /// Returns false when the mount fails.
  bool BootAndMount();

  /// Wakes parked servers and runs the runtime to idle.
  void RunToIdle(Tracer& tracer);
  /// Adds the time since `t0` to busy_ns.
  void AddBusy(Nanos t0);
  /// Stops a server loop that watches `stop` and drains the runtime.
  void StopServer(bool& stop);

  vampos::uk::Platform platform;
  vampos::uk::HostRingView rings;
  vampos::core::Runtime rt;
  vampos::apps::StackInfo info;
  std::unique_ptr<vampos::apps::Posix> px;
  Nanos boot_ns = 0;
  Nanos busy_ns = 0;  // time the host spent driving the runtime
};

/// The newest reboot_history() entry at or after `from` for `leader`'s
/// group, or nullptr.
const vampos::core::RebootReport* RebootSince(const vampos::core::Runtime& rt,
                                              std::size_t from,
                                              ComponentId leader);

// ---------------------------------------------------------------- results

/// Exact sample percentile (q in [0, 100], linear interpolation); +inf
/// samples sort last, so failed ops push the upper percentiles to +inf.
double Percentile(std::vector<double> v, double q);
double Median(const std::vector<double>& v);

/// Everything one run measures, accumulated over its epochs.
struct RunData {
  // Correctness over every op the run issued (measured phase and probes).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  void Fail(const std::string& what);

  // The current epoch's samples; EndEpoch() turns them into its figures.
  std::vector<double> latency_us;  // one per measured op; failed ops are +inf
  std::vector<double> mttr_us;     // one per recovered fault

  // End-to-end figures, one per epoch.
  std::vector<double> setup_s;
  std::vector<double> throughput;  // correct ops / measured-phase seconds
  std::vector<double> latency_p50_us, latency_p99_us;
  std::vector<double> mttr_p50_us, mttr_p95_us;
  /// Memory() overhead: one sample at the end of each measured phase, plus
  /// the workload's own samples inside it.
  std::vector<double> mem_overhead_bytes;
  std::size_t ops = 0;     // latency samples over every epoch
  std::size_t faults = 0;  // MTTR samples over every epoch

  /// Records an epoch's setup time.
  void SetupDone(Nanos setup_ns, Nanos boot_ns);
  /// Closes an epoch: its latency and MTTR percentiles join the per-epoch
  /// figures, and the sample buffers empty for the next epoch.
  void EndEpoch();
  std::vector<double> boot_ms;
  std::vector<double> send_lag_us;

  // Recovery phase split: one sample per fault and per rejuvenation.
  std::vector<double> detect_us, stop_us, replay_us, replay_entries;
  std::vector<double> restore_us, restore_bytes, restore_pages_skipped;
  std::vector<double> rejuv_us, recapture_us;

  // Traced epochs only (per-layer metrics).
  int traced_epochs = 0;
  double traced_ops = 0;
  CounterMap counters;      // deltas around the measured phase
  CounterMap end_memory;    // Memory() at measured-phase end, summed
  Nanos traced_wall_ns = 0; // measured-phase wall time
  // Tracing overhead: busy time per op in traced vs untraced epochs.
  std::vector<double> traced_busy_us_per_op, untraced_busy_us_per_op;

  /// Records one recovered fault: its MTTR and the reboot's phase split.
  void AddFault(Nanos mttr_ns, const vampos::core::RebootReport& r);
  /// Records one rejuvenation reboot and its wall time.
  void AddRejuvenation(Nanos wall_ns, const vampos::core::RebootReport& r);
};

/// Memory() `snapshot_stored_bytes + snapshot_baseline_bytes + log_bytes`.
double MemOverheadBytes(const vampos::core::Runtime& rt);

/// Measured-phase bookkeeping shared by the workloads: counters before and
/// after, wall time, throughput and end-of-phase memory. Spans are recorded
/// only inside a traced epoch's measured phase.
class MeasuredPhase {
 public:
  MeasuredPhase(Rig& rig, Tracer& tracer, RunData& data, bool traced);
  /// Closes the phase after `ok_ops` correct ops out of `ops` attempted.
  void Finish(std::uint64_t ops, std::uint64_t ok_ops);

 private:
  Rig& rig_;
  Tracer& tracer_;
  RunData& data_;
  CounterMap before_;
  Nanos busy0_;
  Nanos t0_ = 0;
};

// -------------------------------------------------------------- workloads

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// One epoch: setup, measured phase, probes, teardown. `traced` turns
  /// the span tracer on for the measured phase.
  virtual void RunEpoch(Tracer& tracer, RunData& data, bool traced) = 0;
  /// The seeded fault/rejuvenation plan, one step per line; the
  /// determinism test compares it across seeds.
  [[nodiscard]] virtual std::string Plan() const = 0;
};

std::unique_ptr<Workload> MakeKvPipeline(std::uint64_t seed);
std::unique_ptr<Workload> MakeDbSessions(std::uint64_t seed);
std::unique_ptr<Workload> MakeWebRecovery(std::uint64_t seed);

/// One planned recovery action: a fault (panic/MPK violation) injected into
/// `target`, or a rejuvenation reboot of it.
struct RecoveryStep {
  std::size_t at = 0;  // op index (web) or probe index (kv/db)
  bool rejuvenate = false;
  FaultKind kind = FaultKind::kPanic;
  std::string target;  // component name
};
std::string FormatPlan(const std::vector<RecoveryStep>& plan);

/// Fisher-Yates shuffle driven by the workload's seeded generator.
template <typename T>
void Shuffle(vampos::Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
}

/// `count` faults whose every block of 2 x targets.size() is a seeded
/// permutation of all (panic | MPK violation) x target pairs, so every seed
/// runs the same fault mix and only the order changes.
///
/// Each component's reboot times form a tight cluster, and the clusters are
/// far apart. With equal shares the MTTR median would fall on the gap
/// between two clusters and jump between them from run to run, so the
/// workloads list vfs twice: with an odd number of slots no cluster edge
/// sits at the 50th or 95th percentile.
std::vector<RecoveryStep> FaultMix(vampos::Rng& rng,
                                   const std::vector<std::string>& targets,
                                   std::size_t count);

/// Probe used by kv_pipeline and db_sessions after their measured phase:
/// `faults` faults into `targets` (FaultMix), then `rejuvenations` reboots
/// cycling through `stateful`. `at` is the step's index.
std::vector<RecoveryStep> ProbePlan(std::uint64_t seed,
                                    const std::vector<std::string>& targets,
                                    const std::vector<std::string>& stateful,
                                    std::size_t faults,
                                    std::size_t rejuvenations);

}  // namespace perfbench
