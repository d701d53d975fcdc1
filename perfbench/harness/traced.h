// The traced run: replays a workload's low-rate schedules in-process,
// calling each layer's public functions in the order ganc_serve calls
// them, and records one span per call (see ledger.h). It also times the
// set-up layers (dataset and model loads), the layers no benchmarked
// workload serves through (the top-N store, sessions) with an in-process
// snapshot publish, the training layers, and, for multi-process
// topologies, the pipe round trip to a real shard child.
#ifndef PERFBENCH_HARNESS_TRACED_H_
#define PERFBENCH_HARNESS_TRACED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/ledger.h"
#include "harness/schedule.h"

namespace perfbench {

/// Dataset and artifact flags shared by the subcommands; they mirror the
/// ganc_serve flags of the workload.
struct DataOptions {
  std::string dataset_cache;
  double kappa = 1.0;
  uint64_t split_seed = 42;
  std::string model;     ///< .gam (model mode) ...
  std::string pipeline;  ///< ... or .gap (pipeline mode)
};

struct TraceOptions {
  DataOptions data;
  MixSpec mix;
  double rate = 100.0;   ///< low-round rate the replayed schedules used
  double seconds = 1.0;  ///< length of one low round
  int rounds = 1;        ///< low rounds low1..lowN, replayed back to back
  uint64_t seed = 1;     ///< run seed (each round's stream is derived)
  int shards = 1;
  /// Multi-process topology: ganc_serve binary plus the child flags, for
  /// the pipe round-trip probe (empty = not measured).
  std::string serve_bin;
  std::vector<std::string> child_args;
  /// Training layers: the workload's `ganc_cli train --arec` name
  /// (psvd10, psvd100 or rsvd, configured as ganc_cli configures it).
  std::string arec = "psvd10";
  int train_threads = 1;
  std::string scratch_dir = ".";
};

struct TraceReport {
  std::map<std::string, LayerStat> layers;
  uint64_t requests = 0;      ///< traced requests (every other one)
  double traced_ns = 0.0;    ///< mean wall time of a traced request
  double untraced_ns = 0.0;  ///< ... of one replayed with spans off
  std::map<std::string, double> values;  ///< named scalar results
};

/// Server-side means of the timed run's low rounds (METRICS deltas) and
/// the client's mean over the same rounds: what the ledger is set
/// against.
struct TimedRun {
  double client_us = 0.0;   ///< client mean latency
  double line_us = 0.0;     ///< mean serve_line_ns
  double wait_us = 0.0;     ///< mean score minus kernel minus select
  double live_share = 0.0;  ///< live-scored over all requests
};

/// The per-request ledger: frontend I/O (client mean minus server line
/// time), each traced layer's summed self time per replayed request,
/// batcher wait times the live share, and the IPC round trip.
Ledger BuildLedger(const TraceReport& report, const TimedRun& timed);

/// Runs the traced replay; false (with `error`) when a load fails.
bool RunTraced(const TraceOptions& opts, TraceReport* report,
               std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACED_H_
