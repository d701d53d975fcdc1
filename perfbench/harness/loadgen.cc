#include "harness/loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>

namespace perfbench {

namespace {

// ganc_serve leaves Nagle on for its accepted sockets, so a reply
// written while the previous one is unacknowledged waits for the
// client's ACK. Linux delays ACKs by up to 40 ms unless the socket is
// in quick-ACK mode, which each read ends; re-arming it after every read
// keeps pipelined replies from stalling on that timer. The benchmark
// also runs one phase without it, so the stall stays visible.
void QuickAck(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

}  // namespace

struct LoadGen::Conn {
  struct Pending {
    uint64_t intended_ns;
    std::string request;  ///< kept requests only
  };
  int fd = -1;
  std::string wbuf;
  size_t woff = 0;
  std::string rbuf;
  std::deque<Pending> pending;
  size_t stale = 0;  ///< replies still owed to timed-out requests

  bool Flush() {
    while (woff < wbuf.size()) {
      const ssize_t n = write(fd, wbuf.data() + woff, wbuf.size() - woff);
      if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
      woff += static_cast<size_t>(n);
    }
    wbuf.clear();
    woff = 0;
    return true;
  }
};

LoadGen::LoadGen() = default;

LoadGen::~LoadGen() {
  for (const std::unique_ptr<Conn>& c : conns_) close(c->fd);
}

bool LoadGen::Connect(int port, int load, bool quick_ack) {
  quick_ack_ = quick_ack;
  for (int i = 0; i <= load; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd);
      return false;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (quick_ack_) QuickAck(fd);
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::make_unique<Conn>());
    conns_.back()->fd = fd;
  }
  return true;
}

PhaseResult LoadGen::Run(const std::string& name, double rate,
                         const std::vector<Op>& ops, uint64_t drain_timeout_ns,
                         bool keep) {
  PhaseResult result;
  result.name = name;
  result.rate = rate;
  const size_t load = conns_.size() - 1;
  std::vector<pollfd> fds(conns_.size());
  for (size_t i = 0; i < conns_.size(); ++i) fds[i].fd = conns_[i]->fd;

  const uint64_t start = MonoNs() + 1000000;  // 1 ms to settle
  const uint64_t last_due = ops.empty() ? start : start + ops.back().at_ns;
  const uint64_t deadline = last_due + drain_timeout_ns;
  size_t next = 0;
  size_t outstanding = 0;
  char buf[65536];

  while (next < ops.size() || outstanding > 0) {
    uint64_t now = MonoNs();
    if (now >= deadline) break;
    // Send everything that has fallen due, without waiting for replies.
    while (next < ops.size() && start + ops[next].at_ns <= now) {
      const Op& op = ops[next++];
      const uint64_t intended = start + op.at_ns;
      const std::string line = RequestLine(op);
      Conn& c = *conns_[static_cast<size_t>(op.user) % load];
      c.wbuf += line;
      c.wbuf.push_back('\n');
      c.pending.push_back({intended, keep ? line : std::string()});
      ++result.sent;
      result.lag_ns.push_back(now - intended);
      ++outstanding;
    }
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = *conns_[i];
      if (!c.Flush()) {
        // A dead connection: everything it owes times out below.
        c.wbuf.clear();
        c.woff = 0;
      }
      fds[i].events = static_cast<short>(POLLIN | (c.wbuf.empty() ? 0 : POLLOUT));
      fds[i].revents = 0;
    }
    // Busy-poll: a generator that sleeps until the next due time wakes
    // up to milliseconds late on virtualized hosts, and that lateness
    // would be charged to the server. Spinning costs one core.
    const timespec zero{0, 0};
    if (ppoll(fds.data(), fds.size(), &zero, nullptr) <= 0) continue;
    for (size_t i = 0; i < conns_.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = *conns_[i];
      const ssize_t got = read(c.fd, buf, sizeof(buf));
      if (got <= 0) continue;
      const uint64_t recv = MonoNs();
      if (quick_ack_) QuickAck(c.fd);
      c.rbuf.append(buf, static_cast<size_t>(got));
      size_t pos;
      while ((pos = c.rbuf.find('\n')) != std::string::npos) {
        std::string reply = c.rbuf.substr(0, pos);
        c.rbuf.erase(0, pos + 1);
        if (c.stale > 0) {
          --c.stale;
          continue;
        }
        if (c.pending.empty()) continue;  // unsolicited line: ignore
        Conn::Pending p = std::move(c.pending.front());
        c.pending.pop_front();
        --outstanding;
        const bool ok = reply.rfind("OK ", 0) == 0;
        ++result.completed;
        if (!ok) ++result.failed;
        result.latency_ns.push_back(ok ? recv - p.intended_ns : UINT64_MAX);
        if (keep) result.records.push_back({std::move(p.request), std::move(reply)});
      }
    }
  }
  // Whatever is still owed has timed out; its late replies are skipped.
  for (const std::unique_ptr<Conn>& c : conns_) {
    for (Conn::Pending& p : c->pending) {
      ++result.failed;
      result.latency_ns.push_back(UINT64_MAX);
      if (keep) result.records.push_back({std::move(p.request), "!timeout"});
    }
    c->stale += c->pending.size();
    c->pending.clear();
  }
  return result;
}

std::string LoadGen::Control(const std::string& line) {
  Conn& c = *conns_.back();
  if (!line.empty()) c.wbuf += line + "\n";
  const uint64_t deadline = MonoNs() + 60ULL * 1000000000ULL;
  char buf[65536];
  while (MonoNs() < deadline) {
    if (!c.Flush()) return {};
    size_t pos;
    while ((pos = c.rbuf.find('\n')) != std::string::npos) {
      std::string reply = c.rbuf.substr(0, pos);
      c.rbuf.erase(0, pos + 1);
      if (c.stale > 0) {
        --c.stale;
        continue;
      }
      return reply;
    }
    pollfd pfd{c.fd, static_cast<short>(POLLIN | (c.wbuf.empty() ? 0 : POLLOUT)), 0};
    if (poll(&pfd, 1, 1000) <= 0) continue;
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t got = read(c.fd, buf, sizeof(buf));
    if (got <= 0) return {};
    if (quick_ack_) QuickAck(c.fd);
    c.rbuf.append(buf, static_cast<size_t>(got));
  }
  return {};
}

std::vector<std::string> LoadGen::ControlFramed(const std::string& line) {
  const std::string header = Control(line);
  const size_t pos = header.rfind(" lines=");
  if (header.rfind("OK ", 0) != 0 || pos == std::string::npos) return {};
  const long count = std::strtol(header.c_str() + pos + 7, nullptr, 10);
  std::vector<std::string> lines;
  for (long i = 0; i < count; ++i) lines.push_back(Control(""));
  return lines;
}

std::vector<SearchStep> SearchMaxRps(
    double start, double growth, int max_steps,
    const std::function<SearchStep(double rate)>& run_step) {
  std::vector<SearchStep> steps;
  double rate = start;
  bool climbing = true;
  for (int i = 0; i < max_steps; ++i) {
    SearchStep step = run_step(rate);
    step.rate = rate;
    steps.push_back(step);
    if (i == 0) climbing = step.pass;
    if (climbing != step.pass) break;  // first failure up, first pass down
    rate = climbing ? rate * growth : rate / growth;
  }
  return steps;
}

double MaxRpsOf(const std::vector<SearchStep>& steps) {
  const SearchStep* best = nullptr;
  for (const SearchStep& s : steps) {
    if (s.pass && (best == nullptr || s.rate > best->rate)) best = &s;
  }
  return best == nullptr ? 0.0 : best->achieved;
}

bool MeetsLimit(const PhaseResult& phase, uint64_t limit_ns, double q) {
  std::vector<uint64_t> latency = phase.latency_ns;
  return phase.failed == 0 && !latency.empty() && Quantile(latency, q) <= limit_ns;
}

}  // namespace perfbench
