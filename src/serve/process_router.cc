#include "serve/process_router.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string_view>

#include "recommender/factor_kernels.h"
#include "serve/protocol.h"
#include "serve/service_shard.h"

extern char** environ;

namespace ganc {

namespace {

bool WaitFor(pid_t pid, int timeout_ms) {
  const timespec tick{0, 10 * 1000 * 1000};  // 10 ms
  for (int waited = 0; waited <= timeout_ms; waited += 10) {
    if (waitpid(pid, nullptr, WNOHANG) == pid) return true;
    nanosleep(&tick, nullptr);
  }
  return false;
}

// The version V of a child's "OK version=V source=S" reply (PUBLISH
// and VERSION answers of a one-shard server).
bool ParseVersionReply(std::string_view reply, uint64_t* out) {
  static constexpr std::string_view kPrefix = "OK version=";
  if (reply.substr(0, kPrefix.size()) != kPrefix) return false;
  const char* begin = reply.data() + kPrefix.size();
  const char* end = reply.data() + reply.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr != begin && (ptr == end || *ptr == ' ');
}

// A NULL-terminated pointer array over `strings` (which must outlive it).
std::vector<char*> CStrings(std::vector<std::string>& strings) {
  std::vector<char*> out;
  for (std::string& s : strings) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

}  // namespace

Result<std::unique_ptr<ProcessRouter>> ProcessRouter::Spawn(
    const std::string& executable, const std::vector<std::string>& base_args,
    size_t num_shards, int32_t num_users) {
  if (num_shards < 2) {
    return Status::InvalidArgument(
        "a multi-process router needs at least 2 shards");
  }
  // The children's environment: this process's, with GANC_KERNEL pinned
  // to the variant this process resolved (a valid GANC_KERNEL resolves
  // to itself), so no child runs its own startup probe. Built before
  // any fork: the child only execs.
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "GANC_KERNEL=", 12) != 0) env.emplace_back(*e);
  }
  env.push_back(std::string("GANC_KERNEL=") +
                KernelVariantName(ActiveKernelVariant()));
  std::vector<char*> envp = CStrings(env);

  auto router = std::unique_ptr<ProcessRouter>(new ProcessRouter());
  router->num_users_ = num_users;
  for (size_t k = 0; k < num_shards; ++k) {
    std::vector<std::string> args = {executable};
    args.insert(args.end(), base_args.begin(), base_args.end());
    args.push_back("--shard=" + std::to_string(k) + "/" +
                   std::to_string(num_shards));
    std::vector<char*> argv = CStrings(args);
    // O_CLOEXEC on every parent-side end: a later child must not
    // inherit (and hold open) an earlier child's pipes, or EOF-based
    // shutdown would deadlock.
    int req[2], resp[2];
    if (pipe2(req, O_CLOEXEC) != 0) return Status::IOError("pipe2() failed");
    if (pipe2(resp, O_CLOEXEC) != 0) {
      close(req[0]);
      close(req[1]);
      return Status::IOError("pipe2() failed");
    }
    const pid_t pid = fork();
    if (pid == 0) {
      // Child: pipes become stdio (dup2 clears CLOEXEC), stderr is
      // inherited so shard logs land in the router's stderr stream.
      dup2(req[0], STDIN_FILENO);
      dup2(resp[1], STDOUT_FILENO);
      execve(argv[0], argv.data(), envp.data());
      _exit(127);
    }
    close(req[0]);
    close(resp[1]);
    if (pid < 0) {
      close(req[1]);
      close(resp[0]);
      return Status::IOError("fork() failed");
    }
    auto child = std::make_unique<Child>();
    child->pid = pid;
    child->in = fdopen(req[1], "w");
    child->out = fdopen(resp[0], "r");
    Child& ref = *child;
    router->children_.push_back(std::move(child));
    if (ref.in == nullptr || ref.out == nullptr) {
      if (ref.in == nullptr) close(req[1]);
      if (ref.out == nullptr) close(resp[0]);
      return Status::IOError("fdopen() failed");
    }
    // Block until the shard announces READY: the router must never
    // accept traffic a child cannot serve yet.
    Result<std::string> ready = ReadLineLocked(ref, k);
    if (!ready.ok() || ready->rfind("READY ", 0) != 0) {
      return Status::IOError(
          "shard " + std::to_string(k) + "/" + std::to_string(num_shards) +
          " failed to start" + (ready.ok() ? " (got '" + *ready + "')" : ""));
    }
    router->ready_.push_back(std::move(ready).value());
  }
  return router;
}

size_t ProcessRouter::IndexFor(UserId user) const {
  if (user < 0 || user >= num_users_) return 0;
  return ShardForUser(user, children_.size());
}

Result<std::string> ProcessRouter::Forward(size_t k, const std::string& line) {
  Child& child = *children_[k];
  std::lock_guard<std::mutex> lock(child.mu);
  return RoundTripLocked(child, k, line);
}

Result<std::vector<std::string>> ProcessRouter::ForwardFramed(
    size_t k, const std::string& line) {
  Child& child = *children_[k];
  std::lock_guard<std::mutex> lock(child.mu);
  Result<std::string> header = RoundTripLocked(child, k, line);
  if (!header.ok()) return header.status();
  uint64_t lines = 0;
  if (header->rfind("OK ", 0) != 0 || !ParseFramedLineCount(*header, &lines)) {
    return Status::Internal("shard " + std::to_string(k) +
                            " returned a malformed framed reply: " + *header);
  }
  std::vector<std::string> payload;
  for (uint64_t i = 0; i < lines; ++i) {
    Result<std::string> next = ReadLineLocked(child, k);
    if (!next.ok()) return next.status();
    payload.push_back(std::move(next).value());
  }
  return payload;
}

Status ProcessRouter::Publish(const std::string& path,
                              uint64_t* max_version) {
  uint64_t max_v = 0;
  for (size_t k = 0; k < children_.size(); ++k) {
    Result<std::string> reply = Forward(k, "PUBLISH path=" + path);
    if (!reply.ok()) return reply.status();
    // A child's error already names its partition ("publish failed on
    // shard k/N: ..."), as an in-process router's does.
    if (reply->rfind("ERR ", 0) == 0) return Status::Internal(reply->substr(4));
    uint64_t v = 0;
    if (!ParseVersionReply(*reply, &v)) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned malformed publish reply: " + *reply);
    }
    if (v > max_v) max_v = v;
  }
  if (max_version != nullptr) *max_version = max_v;
  return Status::OK();
}

Result<std::vector<uint64_t>> ProcessRouter::Versions() {
  std::vector<uint64_t> versions;
  for (size_t k = 0; k < children_.size(); ++k) {
    Result<std::string> reply = Forward(k, "VERSION");
    if (!reply.ok()) return reply.status();
    uint64_t v = 0;
    if (!ParseVersionReply(*reply, &v)) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned malformed version: " + *reply);
    }
    versions.push_back(v);
  }
  return versions;
}

Status ProcessRouter::MergeMetrics(MetricsSnapshot* snap) {
  static constexpr std::string_view kPrefix = "OK metricsnap ";
  for (size_t k = 0; k < children_.size(); ++k) {
    Result<std::string> reply = Forward(k, "METRICSNAP");
    if (!reply.ok()) return reply.status();
    if (reply->rfind(kPrefix, 0) != 0) {
      return Status::Internal("shard " + std::to_string(k) +
                              " returned malformed metricsnap: " + *reply);
    }
    Result<MetricsSnapshot> child =
        MetricsSnapshot::Parse(std::string_view(*reply).substr(kPrefix.size()));
    if (!child.ok()) return child.status();
    snap->MergeFrom(*child);
  }
  return Status::OK();
}

void ProcessRouter::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& child : children_) {
    std::lock_guard<std::mutex> lock(child->mu);
    if (child->in != nullptr) fclose(child->in);
    child->in = nullptr;
    if (child->out != nullptr) fclose(child->out);
    child->out = nullptr;
  }
  for (auto& child : children_) {
    if (child->pid < 0) continue;
    if (!WaitFor(child->pid, 5000)) {
      kill(child->pid, SIGTERM);
      if (!WaitFor(child->pid, 2000)) {
        kill(child->pid, SIGKILL);
        waitpid(child->pid, nullptr, 0);
      }
    }
    child->pid = -1;
  }
}

Result<std::string> ProcessRouter::RoundTripLocked(Child& child, size_t k,
                                                   const std::string& line) {
  // One fflush per request: the line reaches the child in one write.
  if (child.in == nullptr ||
      std::fwrite(line.data(), 1, line.size(), child.in) != line.size() ||
      std::fputc('\n', child.in) == EOF || std::fflush(child.in) != 0) {
    return Status::IOError("shard " + std::to_string(k) + " write failed");
  }
  return ReadLineLocked(child, k);
}

Result<std::string> ProcessRouter::ReadLineLocked(Child& child, size_t k) {
  char* buf = nullptr;
  size_t cap = 0;
  ssize_t len = child.out == nullptr ? -1 : getline(&buf, &cap, child.out);
  if (len < 0) {
    free(buf);
    return Status::IOError("shard " + std::to_string(k) + " exited");
  }
  while (len > 0 && (buf[len - 1] == '\n' || buf[len - 1] == '\r')) --len;
  std::string line(buf, static_cast<size_t>(len));
  free(buf);
  return line;
}

}  // namespace ganc
