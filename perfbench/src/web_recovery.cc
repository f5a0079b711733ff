// web_recovery: WebServer on the Nginx stack under faults. 4 persistent
// connections send GETs of seeded static files (180 B to 16 KiB) open-loop
// at a fixed rate well below the fault-free saturation rate; every request
// is timed from its due time, so a stall also charges the requests that
// were due while it lasted. On a seeded schedule, panic or MPK-violation
// faults fire into vfs, 9pfs, lwip or netdev (every request crosses all
// four), and a periodic Reboot(id, true) rejuvenates a rotating stateful
// component, which bounds the socket-call log persistent connections grow.
//
// Hangs are left out (each would cost the default 1 s hang_threshold, which
// the benchmark must not lower), and so are corrupt checkpoints (they need
// reinit_on_restore_failure, which is off by default).
#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>

#include "apps/webserver.h"
#include "bench.h"

namespace perfbench {
namespace {

using vampos::apps::SimClient;
using vampos::apps::StackSpec;
using vampos::apps::WebServer;

constexpr int kConns = 4;
constexpr int kFiles = 24;
constexpr double kMinFileBytes = 180;
constexpr double kMaxFileBytes = 16384;
constexpr std::uint16_t kPort = 80;
constexpr std::int64_t kRate = 500;  // requests per second, offered
constexpr std::size_t kRequests = 1000;
constexpr std::size_t kFaults = 40;     // per epoch, one per window
constexpr std::size_t kRejuvGap = 250;  // requests between rejuvenations
constexpr std::size_t kQuietTail = 40;  // no recovery step this close to the end
// Requests between Memory() samples. The call log grows and shrinks with
// every fault and rejuvenation, so one sample at the end of the epoch would
// land on a different point of that cycle each time.
constexpr std::size_t kMemSampleGap = 50;
constexpr Nanos kReplyTimeout = 2 * vampos::kSecond;

struct Outstanding {
  std::size_t request;
  Nanos due;
};

struct WebConn {
  int h = -1;
  std::deque<Outstanding> queue;
  std::string buf;
};

/// The fault being recovered from: injected, then rebooted, then the first
/// correct reply closes its MTTR.
struct ActiveFault {
  ComponentId leader = vampos::kComponentNone;
  std::string target;
  Nanos injected_at = 0;
  std::size_t history0 = 0;
  std::optional<vampos::core::RebootReport> report;
};

class WebRecovery final : public Workload {
 public:
  explicit WebRecovery(std::uint64_t seed);
  void RunEpoch(Tracer& tracer, RunData& data, bool traced) override;
  [[nodiscard]] std::string Plan() const override { return FormatPlan(plan_); }

 private:
  /// Consumes every complete reply `c` has received. Returns the number of
  /// byte-correct ones; a wrong byte fails everything the connection has
  /// outstanding.
  int Drain(SimClient& client, WebConn& c, Nanos now, RunData& data);

  std::vector<std::string> paths_;
  std::vector<std::string> bodies_;
  std::vector<std::string> responses_;  // "HTTP/1.0 200\n\n" + body
  std::vector<std::size_t> file_of_;    // request -> file
  std::vector<RecoveryStep> plan_;      // sorted by request index
};

WebRecovery::WebRecovery(std::uint64_t seed) {
  vampos::Rng rng(seed);
  // File sizes sit at the middles of kFiles equal steps of the log-scaled
  // size range, the same for every seed (only the bytes are seeded), and
  // every block of kFiles requests asks for each file once, so every seed
  // serves the same byte mix.
  for (int f = 0; f < kFiles; ++f) {
    const double u = (f + 0.5) / kFiles;
    const double bytes =
        kMinFileBytes * std::pow(kMaxFileBytes / kMinFileBytes, u);
    std::string body(static_cast<std::size_t>(bytes), ' ');
    for (char& c : body) c = static_cast<char>('!' + rng.Below(94));
    paths_.push_back("/f" + std::to_string(f));
    responses_.push_back("HTTP/1.0 200\n\n" + body);
    bodies_.push_back(std::move(body));
  }
  std::vector<std::size_t> block(kFiles);
  for (std::size_t f = 0; f < block.size(); ++f) block[f] = f;
  while (file_of_.size() < kRequests) {
    Shuffle(rng, block);
    for (std::size_t f : block) {
      if (file_of_.size() < kRequests) file_of_.push_back(f);
    }
  }
  // One fault in each of kFaults equal windows, at a seeded offset in the
  // window's middle half.
  const std::size_t window = (kRequests - kQuietTail) / kFaults;
  std::vector<RecoveryStep> faults =
      FaultMix(rng, {"vfs", "vfs", "9pfs", "lwip", "netdev"}, kFaults);
  for (std::size_t i = 0; i < kFaults; ++i) {
    faults[i].at = window * i + window / 4 + rng.Below(window / 2);
    plan_.push_back(faults[i]);
  }
  const std::vector<std::string> stateful = {"lwip", "vfs", "9pfs"};
  std::size_t turn = 0;
  for (std::size_t at = kRejuvGap; at < kRequests - kQuietTail; at += kRejuvGap) {
    plan_.push_back(RecoveryStep{.at = at,
                                 .rejuvenate = true,
                                 .kind = FaultKind::kPanic,
                                 .target = stateful[turn++ % stateful.size()]});
  }
  std::stable_sort(plan_.begin(), plan_.end(),
                   [](const RecoveryStep& a, const RecoveryStep& b) {
                     return a.at < b.at;
                   });
}

int WebRecovery::Drain(SimClient& client, WebConn& c, Nanos now,
                       RunData& data) {
  c.buf += client.TakeReceived(c.h);
  int correct = 0;
  std::size_t pos = 0;
  while (!c.queue.empty()) {
    const Outstanding& o = c.queue.front();
    const std::string& want = responses_[file_of_[o.request]];
    const std::size_t avail = c.buf.size() - pos;
    const std::size_t n = std::min(avail, want.size());
    if (c.buf.compare(pos, n, want, 0, n) != 0) {
      data.Fail("web: wrong bytes for request " + std::to_string(o.request) +
                " (" + paths_[file_of_[o.request]] + ")");
      for (std::size_t i = 0; i < c.queue.size(); ++i) {
        data.latency_us.push_back(std::numeric_limits<double>::infinity());
        if (i > 0) data.Fail("web: reply lost behind a wrong reply");
      }
      c.queue.clear();
      c.buf.clear();
      return correct;
    }
    if (avail < want.size()) break;
    data.latency_us.push_back(Us(now - o.due));
    correct++;
    pos += want.size();
    c.queue.pop_front();
  }
  c.buf.erase(0, pos);
  return correct;
}

void WebRecovery::RunEpoch(Tracer& tracer, RunData& data, bool traced) {
  const Nanos setup_t0 = Now();
  Rig rig(StackSpec::Nginx());
  for (int f = 0; f < kFiles; ++f) {
    rig.platform.ninep.PutFile("/www" + paths_[f], bodies_[f]);
  }
  if (!rig.BootAndMount()) {
    data.Fail("web: mount failed");
    return;
  }
  WebServer server(*rig.px, kPort, "/www");
  bool stop = false;
  bool serving = false;
  rig.rt.SpawnApp("nginx", [&] {
    serving = server.Setup();
    while (serving && !stop) {
      bool progress = false;
      {
        SpanScope span(tracer, SpanName::kWebPump);
        progress = server.PumpOnce();
      }
      if (!progress) rig.rt.ParkApp();
    }
  });
  rig.rt.RunUntilIdle();
  SimClient client(&rig.platform.net, kPort);
  std::array<WebConn, kConns> conns;
  for (WebConn& c : conns) c.h = client.Connect();
  auto established = [&] {
    for (const WebConn& c : conns) {
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
    data.Fail("web: server setup or connect failed");
    rig.StopServer(stop);
    return;
  }
  data.SetupDone(Now() - setup_t0, rig.boot_ns);

  const Nanos period = vampos::kSecond / kRate;
  std::uint64_t ok = 0;
  std::size_t finished = 0;  // requests answered or failed
  std::size_t next = 0;      // next request to send
  std::size_t step = 0;      // next plan_ entry
  std::optional<ActiveFault> fault;
  bool aborted = false;
  MeasuredPhase phase(rig, tracer, data, traced);
  const Nanos t0 = Now();

  // Runs the plan entries due at request `next`. A step waits while the
  // previous fault is still being recovered from.
  auto apply_plan = [&] {
    while (step < plan_.size() && plan_[step].at <= next && !fault) {
      const RecoveryStep& s = plan_[step++];
      const ComponentId id = rig.rt.FindComponent(s.target);
      if (s.rejuvenate) {
        SpanScope span(tracer, SpanName::kRejuvenate);
        const Nanos r0 = Now();
        auto result = rig.rt.Reboot(id, /*refresh_checkpoint=*/true);
        if (!result.ok()) {
          data.Fail("web: rejuvenation of " + s.target + " failed");
          aborted = true;
          return;
        }
        data.AddRejuvenation(Now() - r0, result.value());
      } else {
        SpanScope span(tracer, SpanName::kInject);
        fault = ActiveFault{.leader = rig.rt.GroupLeader(id),
                            .target = s.target,
                            .injected_at = Now(),
                            .history0 = rig.rt.reboot_history().size(),
                            .report = std::nullopt};
        rig.rt.InjectFault(id, s.kind, 0);
      }
    }
  };
  // Checks every connection; closes the active fault's MTTR at the first
  // correct reply observed after its reboot was recorded.
  auto observe = [&] {
    const Nanos now = Now();
    int correct = 0;
    for (WebConn& c : conns) {
      const std::size_t before = c.queue.size();
      correct += Drain(client, c, now, data);
      finished += before - c.queue.size();
    }
    ok += static_cast<std::uint64_t>(correct);
    if (fault && fault->report && correct > 0) {
      data.AddFault(now - fault->injected_at, *fault->report);
      fault.reset();
    }
  };

  while (finished < kRequests && !aborted) {
    const Nanos now = Now();
    while (next < kRequests && t0 + static_cast<Nanos>(next) * period <= now) {
      tracer.set_op(next);
      if (next > 0 && next % kMemSampleGap == 0) {
        data.mem_overhead_bytes.push_back(MemOverheadBytes(rig.rt));
      }
      apply_plan();
      const Nanos due = t0 + static_cast<Nanos>(next) * period;
      WebConn& c = conns[next % kConns];
      c.queue.push_back(Outstanding{next, due});
      data.attempted++;
      {
        SpanScope span(tracer, SpanName::kClientSend);
        client.Send(c.h, "GET " + paths_[file_of_[next]] + "\n");
      }
      data.send_lag_us.push_back(Us(Now() - due));
      next++;
    }
    if (finished == next) {
      // Nothing outstanding: idle until the next request is due.
      SpanScope span(tracer, SpanName::kWait);
      const Nanos due = t0 + static_cast<Nanos>(next) * period;
      while (Now() < due) {
      }
      continue;
    }
    if (fault && !fault->report) {
      // Fault window: one dispatch at a time, polling the client after each,
      // so the reboot is seen the moment reboot_history() records it and
      // earlier replies never close the MTTR. Stepping continues to idle
      // after the MTTR closes: the host only injects and rejuvenates between
      // drains to idle, as RejuvenationScheduler::Tick() callers do. One
      // span covers the whole loop, because an app-fiber span may stay open
      // across single steps.
      SpanScope span(tracer, SpanName::kStep);
      rig.rt.UnparkApps();
      const Nanos busy_t0 = Now();
      while (rig.rt.Step()) {
        if (!fault) continue;
        if (!fault->report) {
          if (const auto* r = RebootSince(rig.rt, fault->history0, fault->leader)) {
            fault->report = *r;
          }
        }
        client.Poll();
        observe();
      }
      rig.AddBusy(busy_t0);
      client.Poll();
      observe();
    } else {
      rig.RunToIdle(tracer);
      {
        SpanScope span(tracer, SpanName::kClientPoll);
        client.Poll();
      }
      SpanScope span(tracer, SpanName::kCheck);
      observe();
    }
    const Nanos after = Now();
    if (fault && after - fault->injected_at > kReplyTimeout) {
      data.Fail("web: fault into " + fault->target + " did not fire and recover");
      aborted = true;
    }
    for (const WebConn& c : conns) {
      if (!c.queue.empty() && after - c.queue.front().due > kReplyTimeout) {
        data.Fail("web: reply to request " +
                  std::to_string(c.queue.front().request) + " timed out");
        aborted = true;
      } else if (client.Broken(c.h)) {
        data.Fail("web: connection broken by the server");
        aborted = true;
      }
    }
  }
  if (aborted) {
    for (WebConn& c : conns) {
      for (std::size_t i = 0; i < c.queue.size(); ++i) {
        data.Fail("web: reply lost when the epoch aborted");
        data.latency_us.push_back(std::numeric_limits<double>::infinity());
      }
      c.queue.clear();
    }
    for (; next < kRequests; ++next) {
      data.attempted++;
      data.Fail("web: request never sent");
    }
  }
  if (step < plan_.size()) data.Fail("web: recovery plan not finished");
  phase.Finish(kRequests, ok);
  rig.StopServer(stop);
}

}  // namespace

std::unique_ptr<Workload> MakeWebRecovery(std::uint64_t seed) {
  return std::make_unique<WebRecovery>(seed);
}

}  // namespace perfbench
