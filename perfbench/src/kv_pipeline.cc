// kv_pipeline: KvStore (AOF + fsync) on the Redis stack, driven closed-loop
// the way redis-benchmark drives Redis: 4 persistent connections, each
// pipelining a batch of 8 commands and sending its next batch only after
// every reply of the previous one arrived. 80% GET / 20% SET of 4-byte keys
// and 3-byte values. Connection c only touches keys with index % 4 == c, so
// each key's commands are ordered by one connection and a host-side model
// predicts every reply exactly.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <optional>

#include "apps/kvstore.h"
#include "bench.h"

namespace perfbench {
namespace {

using vampos::apps::KvStore;
using vampos::apps::SimClient;
using vampos::apps::StackSpec;

constexpr int kConns = 4;
constexpr int kDepth = 8;
constexpr int kBatchesPerConn = 250;
constexpr int kKeys = 1000;
constexpr std::uint16_t kPort = 6379;
constexpr int kProbeFaults = 30;
constexpr int kProbeRejuvenations = 3;
constexpr Nanos kStallTimeout = 2 * vampos::kSecond;

struct Batch {
  std::string wire;
  std::vector<std::string> expect;  // reply lines without '\n'
};

/// One client connection and the batch it has in flight.
struct Conn {
  int h = -1;
  const Batch* batch = nullptr;
  std::size_t lines = 0;  // replies of `batch` consumed so far
  std::string buf;
  Nanos sent_at = 0;
};

class KvPipeline final : public Workload {
 public:
  explicit KvPipeline(std::uint64_t seed);
  void RunEpoch(Tracer& tracer, RunData& data, bool traced) override;
  [[nodiscard]] std::string Plan() const override { return FormatPlan(probe_); }

 private:
  std::array<std::vector<Batch>, kConns> batches_;
  std::vector<RecoveryStep> probe_;
  std::vector<Batch> probe_batches_;  // one per probe step
};

KvPipeline::KvPipeline(std::uint64_t seed)
    : probe_(ProbePlan(seed, {"vfs", "vfs", "9pfs", "lwip", "netdev"},
                       {"lwip", "vfs", "9pfs"}, kProbeFaults,
                       kProbeRejuvenations)) {
  vampos::Rng rng(seed);
  std::map<std::string, std::string> model;
  auto key_of = [&](int conn) {
    const int index = conn + kConns * static_cast<int>(rng.Below(kKeys / kConns));
    char key[8];
    std::snprintf(key, sizeof(key), "k%03d", index);
    return std::string(key);
  };
  auto value = [&] {
    std::string v(3, 'a');
    for (char& c : v) c = static_cast<char>('a' + rng.Below(26));
    return v;
  };
  auto set = [&](Batch& b, const std::string& k, const std::string& v) {
    b.wire += "SET " + k + " " + v + "\n";
    b.expect.push_back("+OK");
    model[k] = v;
  };
  auto get = [&](Batch& b, const std::string& k) {
    b.wire += "GET " + k + "\n";
    auto it = model.find(k);
    b.expect.push_back(it == model.end() ? "$-1" : "$" + it->second);
  };
  for (int c = 0; c < kConns; ++c) {
    // Exactly one command in five is a SET, in a seeded order.
    std::vector<char> is_set(kBatchesPerConn * kDepth, 0);
    std::fill_n(is_set.begin(), is_set.size() / 5, 1);
    Shuffle(rng, is_set);
    for (int i = 0; i < kBatchesPerConn; ++i) {
      Batch b;
      for (int j = 0; j < kDepth; ++j) {
        const std::string k = key_of(c);
        if (is_set[static_cast<std::size_t>(i * kDepth + j)] != 0) {
          set(b, k, value());
        } else {
          get(b, k);
        }
      }
      batches_[c].push_back(std::move(b));
    }
  }
  // Probe batches start with a SET, so they cross every faultable component
  // (VFS -> 9PFS for the AOF write, LWIP -> NETDEV for the socket).
  for (std::size_t i = 0; i < probe_.size(); ++i) {
    Batch b;
    const std::string k = key_of(static_cast<int>(i % kConns));
    set(b, k, value());
    get(b, k);
    probe_batches_.push_back(std::move(b));
  }
}

void Send(Tracer& tracer, SimClient& client, Conn& c, const Batch& b,
          RunData& data) {
  c.batch = &b;
  c.lines = 0;
  c.sent_at = Now();
  data.attempted += b.expect.size();
  SpanScope span(tracer, SpanName::kClientSend);
  client.Send(c.h, b.wire);
}

/// Consumes the reply lines `c` has received, checking each against the
/// model. Returns the number of correct lines. Latencies (from batch send)
/// go to `latency_us` when it is non-null.
int Drain(SimClient& client, Conn& c, Nanos now, RunData& data,
          std::vector<double>* latency_us) {
  c.buf += client.TakeReceived(c.h);
  int correct = 0;
  std::size_t pos = 0;
  std::size_t nl = 0;
  while (c.batch != nullptr && (nl = c.buf.find('\n', pos)) != std::string::npos) {
    const std::string& want = c.batch->expect[c.lines];
    const bool ok = nl - pos == want.size() &&
                    c.buf.compare(pos, want.size(), want) == 0;
    if (ok) {
      correct++;
    } else {
      data.Fail("kv: got '" + c.buf.substr(pos, nl - pos) + "' want '" +
                want + "'");
    }
    if (latency_us != nullptr) {
      latency_us->push_back(ok ? Us(now - c.sent_at)
                               : std::numeric_limits<double>::infinity());
    }
    pos = nl + 1;
    if (++c.lines == c.batch->expect.size()) c.batch = nullptr;
  }
  c.buf.erase(0, pos);
  return correct;
}

/// Counts the unanswered lines of every in-flight batch as failed.
void TimeOut(std::array<Conn, kConns>& conns, RunData& data,
             std::vector<double>* latency_us) {
  for (Conn& c : conns) {
    if (c.batch == nullptr) continue;
    for (std::size_t i = c.lines; i < c.batch->expect.size(); ++i) {
      data.Fail("kv: reply timed out");
      if (latency_us != nullptr) {
        latency_us->push_back(std::numeric_limits<double>::infinity());
      }
    }
    c.batch = nullptr;
  }
}

void KvPipeline::RunEpoch(Tracer& tracer, RunData& data, bool traced) {
  const Nanos setup_t0 = Now();
  Rig rig(StackSpec::Redis());
  if (!rig.BootAndMount()) {
    data.Fail("kv: mount failed");
    return;
  }
  KvStore kv(*rig.px, "/aof", /*aof_enabled=*/true);
  bool stop = false;
  bool serving = false;
  rig.rt.SpawnApp("redis", [&] {
    serving = kv.OpenAof() && kv.Setup(kPort);
    while (serving && !stop) {
      bool progress = false;
      {
        SpanScope span(tracer, SpanName::kKvPump);
        progress = kv.PumpOnce();
      }
      if (!progress) rig.rt.ParkApp();
    }
  });
  rig.rt.RunUntilIdle();
  SimClient client(&rig.platform.net, kPort);
  std::array<Conn, kConns> conns;
  for (Conn& c : conns) c.h = client.Connect();
  auto established = [&] {
    for (const Conn& c : conns) {
      if (!client.Established(c.h)) return false;
    }
    return true;
  };
  for (int i = 0; i < 64 && !established(); ++i) {
    client.Poll();
    rig.RunToIdle(tracer);
    client.Poll();
  }
  if (!serving || !established()) {
    data.Fail("kv: server setup or connect failed");
    rig.StopServer(stop);
    return;
  }
  data.SetupDone(Now() - setup_t0, rig.boot_ns);

  // Measured phase: the closed loop over every connection's batches.
  std::uint64_t ops = 0;
  std::uint64_t ok = 0;
  {
    MeasuredPhase phase(rig, tracer, data, traced);
    std::array<std::size_t, kConns> next{};
    for (int c = 0; c < kConns; ++c) {
      Send(tracer, client, conns[c], batches_[c][0], data);
      ops += kDepth;
    }
    Nanos last_progress = Now();
    std::uint64_t pumps = 0;
    for (bool busy = true; busy;) {
      tracer.set_op(pumps++);
      rig.RunToIdle(tracer);
      {
        SpanScope span(tracer, SpanName::kClientPoll);
        client.Poll();
      }
      const Nanos now = Now();
      busy = false;
      bool progress = false;
      for (int c = 0; c < kConns; ++c) {
        Conn& conn = conns[c];
        if (conn.batch == nullptr) continue;
        {
          SpanScope span(tracer, SpanName::kCheck);
          const int correct =
              Drain(client, conn, now, data, &data.latency_us);
          ok += static_cast<std::uint64_t>(correct);
          progress = progress || correct > 0 || conn.batch == nullptr;
        }
        if (conn.batch == nullptr && ++next[c] < batches_[c].size()) {
          data.send_lag_us.push_back(Us(Now() - now));
          Send(tracer, client, conn, batches_[c][next[c]], data);
          ops += kDepth;
        }
        busy = busy || conn.batch != nullptr;
      }
      if (progress) {
        last_progress = now;
      } else if (now - last_progress > kStallTimeout) {
        TimeOut(conns, data, &data.latency_us);
        busy = false;
      }
    }
    phase.Finish(ops, ok);
  }

  // Recovery probe, outside the measured phase: each fault is injected just
  // before a batch that crosses its target; MTTR runs from the injection to
  // the first correct reply observed after reboot_history() records the
  // target group's reboot. Stepping (and polling the client) one dispatch
  // at a time keeps replies sent before the reboot out of the MTTR.
  for (std::size_t i = 0; i < probe_.size(); ++i) {
    const RecoveryStep& step = probe_[i];
    Conn& conn = conns[i % kConns];
    const ComponentId id = rig.rt.FindComponent(step.target);
    const ComponentId leader = rig.rt.GroupLeader(id);
    const std::size_t history0 = rig.rt.reboot_history().size();
    const Nanos t0 = Now();
    if (step.rejuvenate) {
      auto result = rig.rt.Reboot(id, /*refresh_checkpoint=*/true);
      if (!result.ok()) {
        data.Fail("kv: rejuvenation of " + step.target + " failed");
        break;
      }
      data.AddRejuvenation(Now() - t0, result.value());
    } else {
      rig.rt.InjectFault(id, step.kind, 0);
    }
    Send(tracer, client, conn, probe_batches_[i], data);
    std::optional<vampos::core::RebootReport> report;
    Nanos mttr = -1;
    auto observe = [&] {
      client.Poll();
      const Nanos now = Now();
      if (Drain(client, conn, now, data, nullptr) > 0 && report && mttr < 0) {
        mttr = now - t0;
      }
    };
    while (conn.batch != nullptr && Now() - t0 < kStallTimeout) {
      rig.rt.UnparkApps();
      while (rig.rt.Step()) {
        if (!report) {
          if (const auto* r = RebootSince(rig.rt, history0, leader)) report = *r;
        }
        observe();
      }
      observe();
    }
    if (conn.batch != nullptr) TimeOut(conns, data, nullptr);
    if (step.rejuvenate) continue;
    if (!report) {
      data.Fail("kv: fault into " + step.target + " did not fire and recover");
    } else if (mttr < 0) {
      data.Fail("kv: no correct reply after rebooting " + step.target);
    } else {
      data.AddFault(mttr, *report);
    }
  }
  for (const Conn& c : conns) {
    if (client.Broken(c.h)) data.Fail("kv: connection broken");
  }
  rig.StopServer(stop);
}

}  // namespace

std::unique_ptr<Workload> MakeKvPipeline(std::uint64_t seed) {
  return std::make_unique<KvPipeline>(seed);
}

}  // namespace perfbench
