// Self-tests of the benchmark harness: schedule determinism, ledger
// arithmetic, open-loop stall accounting against a stub server, and the
// max-throughput search's stopping rule.
//
//   .bench_build/perfbench_test    (exit code 0 = all passed)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness/ledger.h"
#include "harness/loadgen.h"
#include "harness/schedule.h"
#include "harness/traced.h"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool SameOps(const std::vector<Op>& a, const std::vector<Op>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].at_ns != b[i].at_ns || a[i].user != b[i].user || a[i].n != b[i].n) {
      return false;
    }
  }
  return true;
}

void TestScheduleIsSeeded() {
  MixSpec mix;
  mix.num_users = 1000;
  mix.n = 5;
  const auto a = MakeSchedule(mix, 2000, 1.0, 7);
  const auto b = MakeSchedule(mix, 2000, 1.0, 7);
  const auto c = MakeSchedule(mix, 2000, 1.0, 8);
  CHECK(!a.empty());
  CHECK(SameOps(a, b));
  CHECK(!SameOps(a, c));
  // Poisson at 2000/s for 1 s: the count is within a few sigma of 2000.
  CHECK(std::abs(static_cast<double>(a.size()) - 2000.0) < 200.0);
  for (size_t i = 1; i < a.size(); ++i) CHECK(a[i - 1].at_ns <= a[i].at_ns);
  for (const Op& op : a) CHECK(op.user >= 0 && op.user < 1000 && op.n == 5);
  CHECK(RequestLine(a.front()) ==
        "TOPN user=" + std::to_string(a.front().user) + " n=5");
  // Phases draw independent streams.
  CHECK(PhaseSeed(7, "low") != PhaseSeed(7, "high"));
  CHECK(PhaseSeed(7, "low") == PhaseSeed(7, "low"));
}

void TestLedgerArithmetic() {
  // request [0,100] with children parse [10,20] and kernel [30,90]; the
  // kernel has a child select [60,80].
  std::vector<Span> spans = {{"request", 0, 100, -1, 0},
                             {"parse", 10, 20, 0, 0},
                             {"kernel", 30, 90, 0, 0},
                             {"select", 60, 80, 2, 0}};
  const std::vector<uint64_t> self = SelfTimes(spans);
  CHECK(self[0] == 30);  // 100 - 10 - 60
  CHECK(self[1] == 10);
  CHECK(self[2] == 40);  // 60 - 20
  CHECK(self[3] == 20);
  uint64_t total = 0;
  for (const uint64_t s : self) total += s;
  CHECK(total == 100);  // self times partition the root span

  // The ledger the trace subcommand prints: two replayed requests.
  TraceReport report;
  report.requests = 2;
  report.layers = SummarizeLayers(spans);  // parse 10 ns, kernel 40 ns, ...
  report.values["ipc.rtt_us"] = 30.0;
  TimedRun timed;
  timed.client_us = 412.5;
  timed.line_us = 332.25;
  timed.wait_us = 100.0;
  timed.live_share = 0.5;
  Ledger ledger = BuildLedger(report, timed);
  double rows = 0.0;
  for (const auto& [name, us] : ledger.layers_us) {
    rows += us;
    if (name == "frontend.io") CHECK(us == 412.5 - 332.25);
    if (name == "kernel") CHECK(std::abs(us - 40.0 / 2 / 1e3) < 1e-12);
    if (name == "batcher.wait") CHECK(us == 50.0);
    if (name == "ipc.rtt") CHECK(us == 30.0);
  }
  CHECK(rows == ledger.LayerSum());
  CHECK(std::abs(ledger.LayerSum() + ledger.Unattributed() - ledger.client_us) < 1e-9);
  CHECK(std::abs(ledger.UnattributedPct() - 100.0 * ledger.Unattributed() / 412.5) < 1e-9);
  timed.wait_us = 1000.0;  // layers may over-explain the total
  ledger = BuildLedger(report, timed);
  CHECK(ledger.Unattributed() < 0.0);
  CHECK(std::abs(ledger.LayerSum() + ledger.Unattributed() - ledger.client_us) < 1e-9);
}

/// Stub ganc_serve: answers every line on each connection with an OK
/// line, but sleeps `stall_ms` before answering line `stall_at` of the
/// first connection.
class StubServer {
 public:
  StubServer(int stall_at, int stall_ms) : stall_at_(stall_at), stall_ms_(stall_ms) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    listen(fd_, 8);
    socklen_t len = sizeof(addr);
    getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      for (int k = 0; k < 2; ++k) {
        const int c = accept(fd_, nullptr, nullptr);
        if (c < 0) return;
        workers_.emplace_back([this, c, k] { Serve(c, k == 0); });
      }
    });
  }
  // The client closes first; each worker then sees EOF and exits.
  ~StubServer() {
    acceptor_.join();
    for (std::thread& t : workers_) t.join();
    close(fd_);
  }
  int port() const { return port_; }

 private:
  void Serve(int c, bool stalls) {
    std::string buf;
    char chunk[4096];
    int line = 0;
    for (;;) {
      const ssize_t got = read(c, chunk, sizeof(chunk));
      if (got <= 0) break;
      buf.append(chunk, static_cast<size_t>(got));
      size_t pos;
      while ((pos = buf.find('\n')) != std::string::npos) {
        buf.erase(0, pos + 1);
        if (stalls && line++ == stall_at_) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
        }
        const std::string reply = "OK user=0 n=1 items=1\n";
        if (write(c, reply.data(), reply.size()) < 0) return;
      }
    }
    close(c);
  }

  int fd_ = -1;
  int port_ = 0;
  int stall_at_;
  int stall_ms_;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

void TestOpenLoopChargesStalls() {
  // One request per ms for 200 ms; the server stalls 50 ms on request 50.
  std::vector<Op> ops;
  for (int i = 0; i < 200; ++i) {
    Op op;
    op.at_ns = static_cast<uint64_t>(i) * 1000000ULL;
    op.user = 0;
    op.n = 1;
    ops.push_back(op);
  }
  std::vector<uint64_t> latency;
  {
    StubServer stub(50, 50);
    LoadGen lg;
    CHECK(lg.Connect(stub.port(), 1));
    PhaseResult r = lg.Run("stall", 1000, ops, 2000000000ULL, false);
    CHECK(r.sent == 200);
    CHECK(r.completed == 200);
    CHECK(r.failed == 0);
    latency = r.latency_ns;
  }
  CHECK(latency.size() == 200);
  if (latency.size() != 200) return;
  // Request 50 + j was due j ms into the stall: it waits at least the
  // stall's remaining 50 - j ms, although the server answers it at once.
  for (int j = 0; j < 45; ++j) {
    const double got_ms = static_cast<double>(latency[static_cast<size_t>(50 + j)]) / 1e6;
    CHECK(got_ms >= 50.0 - j - 1.0);
  }
  // Requests before the stall are fast.
  for (int i = 0; i < 40; ++i) {
    CHECK(static_cast<double>(latency[static_cast<size_t>(i)]) / 1e6 < 20.0);
  }
  // A closed-loop client would see one slow request; open loop sees the
  // whole queue: well over 1% of requests exceed 10 ms, so p99 does too.
  std::vector<uint64_t> sorted = latency;
  CHECK(Quantile(sorted, 0.99) > 10000000ULL);
}

void TestSearchStopsAtFirstFailure() {
  std::vector<double> tried;
  const auto step = [&](double rate) {
    tried.push_back(rate);
    SearchStep s;
    s.pass = rate <= 1500.0;
    s.achieved = rate * 0.99;
    return s;
  };
  auto steps = SearchMaxRps(1000.0, 1.1, 20, step);
  // 1000, 1100, 1210, 1331, 1464.1 pass; 1610.51 fails and ends it.
  CHECK(steps.size() == 6);
  CHECK(!steps.back().pass);
  CHECK(tried.size() == 6);
  for (size_t i = 0; i + 1 < steps.size(); ++i) CHECK(steps[i].pass);
  CHECK(std::abs(MaxRpsOf(steps) - 1464.1 * 0.99) < 1e-6);

  // Starting above the limit, the search descends to the first pass.
  tried.clear();
  steps = SearchMaxRps(2000.0, 1.1, 20, step);
  CHECK(steps.back().pass);
  CHECK(steps.front().rate == 2000.0);
  CHECK(steps.back().rate <= 1500.0);
  CHECK(steps.back().rate * 1.1 > 1500.0);

  // The step budget caps the search.
  steps = SearchMaxRps(10.0, 1.1, 4, step);
  CHECK(steps.size() == 4);
}

}  // namespace

int main() {
  TestScheduleIsSeeded();
  TestLedgerArithmetic();
  TestOpenLoopChargesStalls();
  TestSearchStopsAtFirstFailure();
  if (g_failures == 0) std::printf("perfbench_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
