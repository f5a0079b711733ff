// db_sessions: MiniDb with an fsync'd journal on the SQLite stack (no
// network), one app fiber, closed loop. Each session runs Open, a seeded run
// of Insert/Delete, then Close, so every write crosses VFS -> 9PFS -> VIRTIO
// and is logged, and every Close lets session-aware shrinking prune the
// session's call-log entries.
#include <algorithm>
#include <functional>
#include <limits>

#include "apps/minidb.h"
#include "bench.h"

namespace perfbench {
namespace {

using vampos::apps::MiniDb;
using vampos::apps::StackSpec;

constexpr int kSessions = 340;
constexpr int kMinOpsPerSession = 8;
constexpr int kMaxOpsPerSession = 24;
constexpr int kRows = 256;
constexpr int kProbeFaults = 18;
constexpr int kProbeRejuvenations = 2;
constexpr int kMaxProbeInserts = 4;
constexpr const char* kJournal = "/db.journal";

struct Op {
  bool insert = true;
  std::string key;
  std::string value;
};

class DbSessions final : public Workload {
 public:
  explicit DbSessions(std::uint64_t seed);
  void RunEpoch(Tracer& tracer, RunData& data, bool traced) override;
  [[nodiscard]] std::string Plan() const override { return FormatPlan(probe_); }

 private:
  std::vector<std::vector<Op>> sessions_;
  std::vector<RecoveryStep> probe_;
  std::vector<Op> probe_ops_;  // one insert per probe step (and retries)
  std::map<std::string, std::string> model_;  // table after one epoch
};

DbSessions::DbSessions(std::uint64_t seed)
    : probe_(ProbePlan(seed, {"vfs", "vfs", "9pfs"}, {"vfs", "9pfs"}, kProbeFaults,
                       kProbeRejuvenations)) {
  vampos::Rng rng(seed);
  auto key = [&] {
    char k[8];
    std::snprintf(k, sizeof(k), "r%03d", static_cast<int>(rng.Below(kRows)));
    return std::string(k);
  };
  auto value = [&] {
    std::string v(static_cast<std::size_t>(rng.Range(1, 8)), 'a');
    for (char& c : v) c = static_cast<char>('a' + rng.Below(26));
    return v;
  };
  // Every seed gets the same session lengths and the same 70/30 split of
  // inserts and deletes; only their order and the keys change.
  std::vector<int> lengths;
  for (int s = 0; s < kSessions; ++s) {
    lengths.push_back(kMinOpsPerSession +
                      s % (kMaxOpsPerSession - kMinOpsPerSession + 1));
  }
  Shuffle(rng, lengths);
  std::size_t total = 0;
  for (int n : lengths) total += static_cast<std::size_t>(n);
  std::vector<char> is_insert(total, 0);
  std::fill_n(is_insert.begin(), total * 7 / 10, 1);
  Shuffle(rng, is_insert);
  std::size_t next_op = 0;
  for (int n : lengths) {
    std::vector<Op> ops(static_cast<std::size_t>(n));
    for (Op& op : ops) {
      op.insert = is_insert[next_op++] != 0;
      op.key = key();
      if (op.insert) {
        op.value = value();
        model_[op.key] = op.value;
      } else {
        model_.erase(op.key);
      }
    }
    sessions_.push_back(std::move(ops));
  }
  for (std::size_t i = 0; i < probe_.size() * kMaxProbeInserts; ++i) {
    probe_ops_.push_back(Op{true, key(), value()});
  }
}

void DbSessions::RunEpoch(Tracer& tracer, RunData& data, bool traced) {
  const Nanos setup_t0 = Now();
  Rig rig(StackSpec::Sqlite());
  if (!rig.BootAndMount()) {
    data.Fail("db: mount failed");
    return;
  }
  MiniDb db(*rig.px, kJournal, /*fsync_each=*/true);
  data.SetupDone(Now() - setup_t0, rig.boot_ns);

  // Measured phase: every session on one app fiber.
  std::uint64_t ops = 0;
  std::uint64_t ok = 0;
  {
    MeasuredPhase phase(rig, tracer, data, traced);
    rig.rt.SpawnApp("sqlite", [&] {
      for (const std::vector<Op>& session : sessions_) {
        bool open = false;
        {
          SpanScope span(tracer, SpanName::kDbOpen);
          open = db.Open();
        }
        if (!open) data.Fail("db: open failed");
        for (const Op& op : session) {
          tracer.set_op(ops++);
          data.attempted++;
          const Nanos t0 = Now();
          std::int64_t rc = 0;
          if (op.insert) {
            SpanScope span(tracer, SpanName::kDbInsert);
            rc = db.Insert(op.key, op.value);
          } else {
            SpanScope span(tracer, SpanName::kDbDelete);
            rc = db.Delete(op.key);
          }
          std::vector<double>& latency_us = data.latency_us;
          if (rc == 0) {
            ok++;
            latency_us.push_back(Us(Now() - t0));
          } else {
            data.Fail("db: " + std::string(op.insert ? "insert " : "delete ") +
                      op.key + " returned " + std::to_string(rc));
            latency_us.push_back(std::numeric_limits<double>::infinity());
          }
        }
        SpanScope span(tracer, SpanName::kDbClose);
        db.Close();
      }
    });
    rig.RunToIdle(tracer);
    phase.Finish(ops, ok);
  }

  // Recovery probe, outside the measured phase. A fault fires on the next
  // Insert (every Insert writes and fsyncs through VFS and 9PFS); MTTR runs
  // from the injection to the first Insert that returns correctly after
  // reboot_history() records the target group's reboot.
  std::map<std::string, std::string> table = model_;
  std::size_t next_insert = 0;
  auto run_app = [&](const std::function<void()>& body) {
    rig.rt.SpawnApp("sqlite-probe", body);
    rig.rt.RunUntilIdle();
  };
  run_app([&] {
    if (!db.Open()) data.Fail("db: probe open failed");
  });
  for (const RecoveryStep& step : probe_) {
    const ComponentId id = rig.rt.FindComponent(step.target);
    const ComponentId leader = rig.rt.GroupLeader(id);
    const std::size_t history0 = rig.rt.reboot_history().size();
    const Nanos t0 = Now();
    if (step.rejuvenate) {
      auto result = rig.rt.Reboot(id, /*refresh_checkpoint=*/true);
      if (!result.ok()) {
        data.Fail("db: rejuvenation of " + step.target + " failed");
        break;
      }
      data.AddRejuvenation(Now() - t0, result.value());
    } else {
      rig.rt.InjectFault(id, step.kind, 0);
    }
    Nanos mttr = -1;
    run_app([&] {
      for (int i = 0; i < kMaxProbeInserts && mttr < 0; ++i) {
        const Op& op = probe_ops_[next_insert++];
        data.attempted++;
        if (db.Insert(op.key, op.value) != 0) {
          data.Fail("db: probe insert after " + step.target + " failed");
          return;
        }
        table[op.key] = op.value;
        if (step.rejuvenate || RebootSince(rig.rt, history0, leader) != nullptr) {
          mttr = Now() - t0;
        }
      }
    });
    if (step.rejuvenate) continue;
    const auto* report = RebootSince(rig.rt, history0, leader);
    if (report == nullptr || mttr < 0) {
      data.Fail("db: fault into " + step.target + " did not fire and recover");
    } else {
      data.AddFault(mttr, *report);
    }
  }

  // Output check: the live table and a cold rebuild from the journal must
  // both equal the model.
  bool live_ok = false;
  bool replay_ok = false;
  run_app([&] {
    db.Close();
    live_ok = db.Count() == table.size();
    for (const auto& [k, v] : table) live_ok = live_ok && db.Select(k) == v;
    MiniDb fresh(*rig.px, kJournal);
    fresh.ReplayJournal();
    replay_ok = fresh.Count() == table.size();
    for (const auto& [k, v] : table) replay_ok = replay_ok && fresh.Select(k) == v;
  });
  if (!live_ok) data.Fail("db: live table differs from the model");
  if (!replay_ok) data.Fail("db: journal replay differs from the model");
}

}  // namespace

std::unique_ptr<Workload> MakeDbSessions(std::uint64_t seed) {
  return std::make_unique<DbSessions>(seed);
}

}  // namespace perfbench
