#include "serve/protocol.h"

#include <algorithm>
#include <charconv>
#include <limits>

namespace ganc {

namespace {

// Longest piece of a client token an ERR reply quotes back. The line
// cap admits 1 MiB tokens; echoing one whole would make the reply as
// large as the request.
constexpr size_t kMaxEchoBytes = 64;

// `token` as an error message quotes it: at most kMaxEchoBytes bytes,
// then "..." when it was longer.
std::string Echo(std::string_view token) {
  if (token.size() <= kMaxEchoBytes) return std::string(token);
  return std::string(token.substr(0, kMaxEchoBytes)) + "...";
}

// Whitespace-splits `line` into tokens (multiple separators collapse).
std::vector<std::string_view> Tokenize(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t' ||
                                 line[pos] == '\r')) {
      ++pos;
    }
    size_t end = pos;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t' &&
           line[end] != '\r') {
      ++end;
    }
    if (end > pos) tokens.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return tokens;
}

// Parses a decimal integer that must fit in int32 — wire ids and list
// lengths are 32-bit, and silent narrowing would alias one user's
// request onto another's id.
Result<int32_t> ParseInt(std::string_view key, std::string_view value) {
  int64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size()) {
    return Status::InvalidArgument("bad integer for '" + std::string(key) +
                                   "': '" + Echo(value) + "'");
  }
  if (out < std::numeric_limits<int32_t>::min() ||
      out > std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument("integer out of range for '" +
                                   std::string(key) + "': '" +
                                   Echo(value) + "'");
  }
  return static_cast<int32_t>(out);
}

Result<std::vector<ItemId>> ParseIdList(std::string_view key,
                                        std::string_view csv) {
  // The grammar is <id> *("," <id>): no empty list, no trailing comma
  // (empty mid-list segments fail in ParseInt below).
  if (csv.empty() || csv.back() == ',') {
    return Status::InvalidArgument("bad id list for '" + std::string(key) +
                                   "': '" + Echo(csv) + "'");
  }
  std::vector<ItemId> ids;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string_view::npos) comma = csv.size();
    const Result<int32_t> id = ParseInt(key, csv.substr(pos, comma - pos));
    if (!id.ok()) return id.status();
    ids.push_back(*id);
    pos = comma + 1;
  }
  return ids;
}

}  // namespace

Result<ServeRequest> ParseServeRequest(std::string_view line) {
  const std::vector<std::string_view> tokens = Tokenize(line);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty request line");
  }
  ServeRequest req;
  const std::string_view verb = tokens[0];
  if (verb == "TOPN") {
    req.command = ServeCommand::kTopN;
  } else if (verb == "TOPNV") {
    req.command = ServeCommand::kTopNV;
  } else if (verb == "CONSUME") {
    req.command = ServeCommand::kConsume;
  } else if (verb == "PUBLISH") {
    req.command = ServeCommand::kPublish;
  } else if (verb == "VERSION") {
    req.command = ServeCommand::kVersion;
  } else if (verb == "SHARDS") {
    req.command = ServeCommand::kShards;
  } else if (verb == "STATS") {
    req.command = ServeCommand::kStats;
  } else if (verb == "METRICS") {
    req.command = ServeCommand::kMetrics;
  } else if (verb == "METRICSNAP") {
    req.command = ServeCommand::kMetricSnap;
  } else if (verb == "TRACE") {
    req.command = ServeCommand::kTrace;
  } else if (verb == "PING") {
    req.command = ServeCommand::kPing;
  } else if (verb == "QUIT") {
    req.command = ServeCommand::kQuit;
  } else {
    return Status::InvalidArgument("unknown command '" + Echo(verb) + "'");
  }

  const bool is_topn =
      req.command == ServeCommand::kTopN || req.command == ServeCommand::kTopNV;
  bool has_user = false, has_items = false, has_path = false;
  for (size_t t = 1; t < tokens.size(); ++t) {
    const std::string_view token = tokens[t];
    const size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("expected key=value, got '" +
                                     Echo(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    if (key == "user") {
      const Result<int32_t> v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      req.user = *v;
      has_user = true;
    } else if (key == "n") {
      const Result<int32_t> v = ParseInt(key, value);
      if (!v.ok()) return v.status();
      req.n = *v;
    } else if (key == "session") {
      if (value.empty()) {
        return Status::InvalidArgument("session token must be non-empty");
      }
      req.session = std::string(value);
    } else if (key == "path" && req.command == ServeCommand::kPublish) {
      if (value.empty()) {
        return Status::InvalidArgument("publish path must be non-empty");
      }
      req.path = std::string(value);
      has_path = true;
    } else if ((key == "exclude" && is_topn) ||
               (key == "items" && req.command == ServeCommand::kConsume)) {
      Result<std::vector<ItemId>> ids = ParseIdList(key, value);
      if (!ids.ok()) return ids.status();
      req.items = std::move(ids).value();
      has_items = true;
    } else {
      return Status::InvalidArgument("unknown key '" + Echo(key) + "'");
    }
  }

  switch (req.command) {
    case ServeCommand::kTopN:
    case ServeCommand::kTopNV:
      if (!has_user) {
        return Status::InvalidArgument(std::string(verb) +
                                       " requires user=<id>");
      }
      break;
    case ServeCommand::kConsume:
      if (!has_user || req.session.empty() || !has_items) {
        return Status::InvalidArgument(
            "CONSUME requires session=<token> user=<id> items=<list>");
      }
      break;
    case ServeCommand::kPublish:
      if (!has_path) {
        return Status::InvalidArgument("PUBLISH requires path=<artifact>");
      }
      break;
    case ServeCommand::kTrace:
      // TRACE takes one optional n=<count>; anything else is a typo'd
      // request, not a silently-ignored key.
      if (has_user || has_items || has_path || !req.session.empty()) {
        return Status::InvalidArgument("TRACE takes only n=<count>");
      }
      if (req.n < 0) {
        return Status::InvalidArgument("TRACE n must be non-negative");
      }
      break;
    case ServeCommand::kVersion:
    case ServeCommand::kShards:
    case ServeCommand::kStats:
    case ServeCommand::kMetrics:
    case ServeCommand::kMetricSnap:
    case ServeCommand::kPing:
    case ServeCommand::kQuit:
      if (tokens.size() > 1) {
        return Status::InvalidArgument("command takes no arguments");
      }
      break;
  }
  return req;
}

std::string FormatTopNResponse(UserId user, int n,
                               std::span<const ItemId> items) {
  std::string out = "OK user=" + std::to_string(user) +
                    " n=" + std::to_string(n) + " items=";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(items[i]);
  }
  return out;
}

std::string FormatVersionedTopNResponse(UserId user, int n, uint64_t version,
                                        std::span<const ItemId> items) {
  std::string out = "OK user=" + std::to_string(user) +
                    " n=" + std::to_string(n) +
                    " version=" + std::to_string(version) + " items=";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(items[i]);
  }
  return out;
}

std::string FormatOk(std::string_view body) {
  std::string out = "OK";
  if (!body.empty()) {
    out.push_back(' ');
    out += std::string(body);
  }
  return out;
}

std::string FormatFramedHeader(std::string_view what, size_t lines) {
  std::string out = "OK ";
  out += std::string(what);
  out += " lines=" + std::to_string(lines);
  return out;
}

std::string FramedResponse(std::string_view what, std::string_view payload) {
  size_t lines = 0;
  for (const char c : payload) lines += c == '\n';
  std::string out = FormatFramedHeader(what, lines);
  if (!payload.empty()) {
    out.push_back('\n');
    out.append(payload.data(), payload.size() - 1);  // drop trailing '\n'
  }
  return out;
}

bool ParseFramedLineCount(std::string_view header, uint64_t* out) {
  const size_t pos = header.rfind(" lines=");
  if (pos == std::string_view::npos) return false;
  const char* begin = header.data() + pos + 7;
  const char* end = header.data() + header.size();
  const auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc{} && ptr == end && begin != end;
}

std::string FormatError(std::string_view message) {
  std::string out = "ERR ";
  out += std::string(message);
  std::replace(out.begin(), out.end(), '\n', ' ');
  return out;
}

}  // namespace ganc
