// Newline-delimited request protocol spoken by `ganc_serve` over
// stdin/stdout and TCP. One request per line, one response line per
// request; the normative grammar lives in docs/SERVING.md:
//
//   TOPN user=<id> [n=<len>] [session=<token>] [exclude=<id>,<id>,...]
//   TOPNV user=<id> [n=<len>] [session=<token>] [exclude=<id>,<id>,...]
//   CONSUME session=<token> user=<id> items=<id>,<id>,...
//   PUBLISH path=<artifact-path>
//   VERSION
//   SHARDS
//   STATS
//   METRICS
//   METRICSNAP
//   TRACE [n=<count>]
//   PING
//   QUIT
//
// Responses are "OK ..." or "ERR <message>". A served list is
//
//   OK user=<id> n=<len> items=<id>,<id>,...
//
// which is also exactly what `ganc_cli topn` emits offline, so a serve
// transcript can be diffed against offline top-N with no parsing (CI
// does). TOPNV is the version-attributed variant: it serves the same
// list but the response carries the snapshot version that computed it —
//
//   OK user=<id> n=<len> version=<v> items=<id>,<id>,...
//
// which is what the swap-under-load tests key on. PUBLISH is the
// zero-downtime snapshot-swap control verb (see serve/service_shard.h);
// path= is a single whitespace-free token — artifact paths with spaces
// are not representable on this wire.
//
// METRICS and TRACE are the only framed (multi-line) responses: a
// header line "OK metrics lines=<N>" / "OK traces lines=<N>" followed
// by exactly N payload lines, so a client always knows how many lines
// to read before the next response. METRICSNAP stays single-line
// ("OK metricsnap <GANCM1 payload>") — it is the machine-to-machine
// scrape the multiprocess router uses to gather children, and the
// payload line is a MetricsSnapshot::Serialize() round-trip.
//
// This module is pure string <-> struct translation — no sockets, no
// service calls — so the frontend and the protocol tests share one
// implementation.

#ifndef GANC_SERVE_PROTOCOL_H_
#define GANC_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/status.h"

namespace ganc {

/// Longest request line a server reads: 1 MiB, far above any legal
/// TOPN exclude= list. A longer line is answered with one ERR and
/// skipped through its newline, so a client stream without newlines
/// cannot grow server memory.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/// Request verbs.
enum class ServeCommand {
  kTopN,
  kTopNV,    ///< TOPN with the serving snapshot version in the response
  kConsume,
  kPublish,  ///< swap in a new snapshot artifact (zero downtime)
  kVersion,  ///< report the serving snapshot version(s)
  kShards,   ///< report the shard layout
  kStats,
  kMetrics,     ///< framed Prometheus-style text exposition
  kMetricSnap,  ///< single-line serialized snapshot (parent<->child scrape)
  kTrace,       ///< framed dump of the N most recent request timelines
  kPing,
  kQuit,
};

/// One parsed request line.
struct ServeRequest {
  ServeCommand command = ServeCommand::kPing;
  UserId user = -1;            ///< TOPN(V) / CONSUME
  int n = 0;                   ///< TOPN(V) list length / TRACE count; 0 = default
  std::string session;         ///< optional TOPN(V) session / CONSUME target
  std::vector<ItemId> items;   ///< TOPN(V) exclude= / CONSUME items=
  std::string path;            ///< PUBLISH artifact path
};

/// Parses one request line (without the trailing newline). Unknown
/// verbs, unknown keys, malformed numbers, and missing required keys are
/// InvalidArgument errors.
Result<ServeRequest> ParseServeRequest(std::string_view line);

/// "OK user=<u> n=<n> items=<comma list>" (items= present even when
/// empty).
std::string FormatTopNResponse(UserId user, int n,
                               std::span<const ItemId> items);

/// "OK user=<u> n=<n> version=<v> items=<comma list>" — the TOPNV
/// response: the same list TOPN would serve, attributed to the exact
/// snapshot version that computed it.
std::string FormatVersionedTopNResponse(UserId user, int n, uint64_t version,
                                        std::span<const ItemId> items);

/// "OK <body>".
std::string FormatOk(std::string_view body);

/// Framing header for a multi-line response: "OK <what> lines=<N>",
/// followed by exactly N payload lines the caller writes itself. Used
/// by METRICS ("metrics") and TRACE ("traces").
std::string FormatFramedHeader(std::string_view what, size_t lines);

/// A whole framed response: the "OK <what> lines=<N>" header, then
/// `payload` (N newline-terminated lines). The result carries embedded
/// newlines but no trailing one, like every other response.
std::string FramedResponse(std::string_view what, std::string_view payload);

/// Extracts N from a framed "OK <what> lines=<N>" header.
bool ParseFramedLineCount(std::string_view header, uint64_t* out);

/// "ERR <message>" (newlines in the message are replaced so the
/// response stays one line).
std::string FormatError(std::string_view message);

}  // namespace ganc

#endif  // GANC_SERVE_PROTOCOL_H_
