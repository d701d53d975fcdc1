// Open-loop load generator over pipelined TCP connections.
//
// One thread drives every connection: it writes each operation when it
// falls due (never waiting for earlier replies), polls for replies in
// between, and matches replies to requests in order per connection (the
// server answers a connection's lines in arrival order). Latency is
// measured from each operation's *intended* send time, so a server stall
// is charged to every request queued behind it, and the generator's own
// lateness (actual minus intended send time) is reported separately.
#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness/ledger.h"
#include "harness/schedule.h"

namespace perfbench {

/// One TOPN's outcome, kept for the post-run correctness gate.
struct Record {
  std::string request;   ///< request line
  std::string response;  ///< reply line, or "!timeout"
};

struct PhaseResult {
  std::string name;
  double rate = 0.0;  ///< offered requests/s
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  ///< ERR replies and timeouts
  /// Per request, ns from intended send to reply; failed requests are
  /// recorded as UINT64_MAX so they miss every latency limit.
  std::vector<uint64_t> latency_ns;
  std::vector<uint64_t> lag_ns;  ///< actual minus intended send
  std::vector<Record> records;
};

/// Connections to one server: `load` connections carry TOPN (user u
/// goes to connection u % load), plus one control connection for
/// PUBLISH, STATS and METRICS.
class LoadGen {
 public:
  LoadGen();
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Connects `load` + 1 sockets to 127.0.0.1:port. With `quick_ack`
  /// the sockets re-arm TCP_QUICKACK after every read (see loadgen.cc).
  bool Connect(int port, int load, bool quick_ack = true);

  /// Runs one phase of `ops` (sorted by due time). Requests still
  /// unanswered `drain_timeout_ns` after the last due time count as
  /// timed out. With `keep`, outcomes are appended to result.records.
  PhaseResult Run(const std::string& name, double rate, const std::vector<Op>& ops,
                  uint64_t drain_timeout_ns, bool keep);

  /// One control round trip (STATS, PUBLISH); empty on failure.
  std::string Control(const std::string& line);

  /// A framed control round trip (METRICS): the header's payload lines.
  std::vector<std::string> ControlFramed(const std::string& line);

 private:
  struct Conn;

  std::vector<std::unique_ptr<Conn>> conns_;
  bool quick_ack_ = true;
};

/// A max-throughput search step: the offered rate and whether it met the
/// latency limit; `achieved` is completed requests per scheduled second.
struct SearchStep {
  double rate = 0.0;
  bool pass = false;
  double achieved = 0.0;
};

/// Steps the offered rate from `start` by factor `growth`. If `start`
/// passes, climbs until the first failing rate and stops there; if it
/// fails, descends until the first passing rate. At most `max_steps`.
std::vector<SearchStep> SearchMaxRps(
    double start, double growth, int max_steps,
    const std::function<SearchStep(double rate)>& run_step);

/// Achieved throughput of the highest passing step (0 when none passed).
double MaxRpsOf(const std::vector<SearchStep>& steps);

/// A phase meets `limit_ns` when nothing failed and the latency quantile
/// `q` is within the limit (a backlog that grows through the phase
/// pushes the quantile past any limit).
bool MeetsLimit(const PhaseResult& phase, uint64_t limit_ns, double q);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
