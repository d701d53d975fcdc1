// perfbench: the native half of the end-to-end benchmark.
//
//   perfbench loadgen --port=P ...   open-loop load against a running
//                                    ganc_serve (warm-up, low/high rate
//                                    rounds, PUBLISH round trips,
//                                    max-throughput searches)
//   perfbench bare --port=P ...      low-rate phases with one host effect
//                                    left in each, then the final
//                                    METRICS scrape
//   perfbench quality ...            novelty / long-tail / coverage /
//                                    precision of the low rounds' lists
//   perfbench trace ...              in-process traced replay (traced.h)
//                                    and the per-layer ledger
//
// Each prints one JSON object on stdout. perfbench/run.py builds this
// binary, starts the servers and training runs, and combines the pieces
// into the benchmark's result line.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "harness/loadgen.h"
#include "harness/schedule.h"
#include "harness/traced.h"
#include "serve/serve_metrics.h"
#include "util/metrics.h"

using namespace perfbench;

namespace {

using Args = std::map<std::string, std::string>;

// Low/high round pairs per run; the traced run replays the low rounds.
constexpr int kRounds = 10;
// A max-throughput search step passes when its p90 is within 25 ms and
// nothing failed (README.md, "Calibrated rates and latency limits").
constexpr uint64_t kLimitNs = 25000000;
constexpr double kLimitQuantile = 0.9;
constexpr double kWarmupSeconds = 1.0;
constexpr int kIdlePublishes = 3;
// Requests unanswered this long after a phase's last send time out.
constexpr uint64_t kDrainNs = 2000000000;

// A round lasts 2.5% of --seconds and a search step 3%, but a round at
// least long enough for 100 requests at its rate and a step for 200, so
// every p90 has 10 (20) samples beyond it.
double RoundSeconds(double seconds, double rate) {
  return std::max(0.025 * seconds, 100.0 / rate);
}
double StepSeconds(double seconds, double rate) {
  return std::max(0.03 * seconds, 200.0 / rate);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) continue;
    const size_t eq = a.find('=');
    if (eq == std::string::npos) {
      args[a.substr(2)] = "true";
    } else {
      args[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  return args;
}

std::string Str(const Args& a, const std::string& k, const std::string& def = "") {
  auto it = a.find(k);
  return it == a.end() ? def : it->second;
}
double Num(const Args& a, const std::string& k, double def) {
  auto it = a.find(k);
  return it == a.end() ? def : std::strtod(it->second.c_str(), nullptr);
}

std::string J(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

MixSpec MixFrom(const Args& a) {
  MixSpec m;
  m.num_users = static_cast<int32_t>(Num(a, "users", 1));
  m.n = static_cast<int32_t>(Num(a, "n", 10));
  return m;
}

DataOptions DataFrom(const Args& a) {
  DataOptions d;
  d.dataset_cache = Str(a, "dataset-cache");
  d.kappa = Num(a, "kappa", 1.0);
  d.split_seed = static_cast<uint64_t>(Num(a, "split-seed", 42));
  d.model = Str(a, "model");
  d.pipeline = Str(a, "pipeline");
  return d;
}

/// Latency summary of a phase's rounds: p50/p90 are the mean over the
/// rounds of each round's quantile. The host switches between a fast and
/// a slow speed for seconds at a time, several times within one run; the
/// mean follows the share of rounds in each state, where a median over
/// rounds would snap to whichever state held the majority. p99, the mean
/// latency and generator lateness pool all rounds.
std::string SummaryJson(const std::vector<const PhaseResult*>& rounds) {
  std::vector<uint64_t> pooled, lag, p50s, p90s;
  double p50_sum = 0.0, p90_sum = 0.0;
  uint64_t sent = 0, failed = 0;
  double sum = 0.0;
  size_t ok = 0;
  for (const PhaseResult* r : rounds) {
    std::vector<uint64_t> lat = r->latency_ns;
    p50s.push_back(Quantile(lat, 0.50));
    p90s.push_back(Quantile(lat, 0.90));
    p50_sum += static_cast<double>(p50s.back());
    p90_sum += static_cast<double>(p90s.back());
    pooled.insert(pooled.end(), lat.begin(), lat.end());
    lag.insert(lag.end(), r->lag_ns.begin(), r->lag_ns.end());
    sent += r->sent;
    failed += r->failed;
    for (const uint64_t x : lat) {
      if (x == UINT64_MAX) continue;  // failed
      sum += static_cast<double>(x);
      ++ok;
    }
  }
  const auto ms = [](uint64_t ns) { return J(static_cast<double>(ns) / 1e6); };
  const auto mean_ms = [&](double sum) {
    return J(sum / static_cast<double>(rounds.size()) / 1e6);
  };
  const auto list = [&](const std::vector<uint64_t>& v) {
    std::string out;
    for (const uint64_t x : v) out += (out.empty() ? "" : ", ") + ms(x);
    return "[" + out + "]";
  };
  return "{\"rate\": " + J(rounds.front()->rate) + ", \"sent\": " +
         J(static_cast<double>(sent)) + ", \"failed\": " + J(static_cast<double>(failed)) +
         ", \"p50_ms\": " + mean_ms(p50_sum) + ", \"p90_ms\": " + mean_ms(p90_sum) +
         ", \"p99_ms\": " + ms(Quantile(pooled, 0.99)) +
         ", \"mean_ms\": " + J(ok == 0 ? 0.0 : sum / static_cast<double>(ok) / 1e6) +
         ", \"lag_p99_ms\": " + ms(Quantile(lag, 0.99)) +
         ", \"p50_rounds_ms\": " + list(p50s) + ", \"p90_rounds_ms\": " + list(p90s) + "}";
}

/// "OK requests=.. cache_hits=.. store_hits=.. live=.." -> counters.
std::map<std::string, double> ParseStats(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) {
    const size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      out[tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
    }
  }
  return out;
}

/// Unlabeled series of a METRICS exposition ("name value" lines).
std::map<std::string, double> ParseExposition(const std::vector<std::string>& lines) {
  std::map<std::string, double> out;
  for (const std::string& line : lines) {
    const size_t sp = line.rfind(' ');
    if (line.empty() || line[0] == '#' || sp == std::string::npos ||
        line.find('{') != std::string::npos) {
      continue;
    }
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

/// Adds after - before, series by series, into `sum`.
void AddDelta(const std::map<std::string, double>& before,
              const std::map<std::string, double>& after,
              std::map<std::string, double>* sum) {
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    (*sum)[name] += value - (it == before.end() ? 0.0 : it->second);
  }
}

/// Server-side means over METRICS deltas: the mean line time, the
/// batcher's wait (score time minus kernel minus select), the share of
/// requests scored live, and the batcher's fill and waited-flush ratio.
std::map<std::string, double> ServerMeans(const std::map<std::string, double>& m) {
  const auto get = [&](const std::string& name) {
    auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  };
  const auto mean = [&](const std::string& name) {
    const double count = get(name + "_count");
    return count == 0.0 ? 0.0 : get(name + "_sum") / count;
  };
  const auto share = [&](const std::string& num, const std::string& den) {
    return get(den) == 0.0 ? 0.0 : get(num) / get(den);
  };
  return {
      {"line_us", mean("serve_line_ns") / 1e3},
      {"wait_us", std::max(0.0, mean("serve_score_ns") - mean("serve_kernel_ns") -
                                    mean("serve_select_ns")) / 1e3},
      {"live_share", share("serve_live_scored_total", "serve_requests_total")},
      {"fill_mean", mean("serve_batch_fill")},
      {"waited_ratio", share("serve_waited_flushes_total", "serve_batches_total")},
  };
}

std::string MapJson(const std::map<std::string, double>& m) {
  std::string out = "{";
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": " + J(value);
  }
  return out + "}";
}

LoadGen* Connected(LoadGen* lg, const Args& a, bool quick_ack) {
  if (lg->Connect(static_cast<int>(Num(a, "port", 0)),
                  static_cast<int>(Num(a, "connections", 3)), quick_ack)) {
    return lg;
  }
  std::fprintf(stderr, "loadgen: connect failed\n");
  return nullptr;
}

/// Appends the phases' TOPN outcomes to the records file and sums their
/// request and failure counts.
void WriteRecords(const std::string& path, const std::deque<PhaseResult>& phases,
                  uint64_t* sent, uint64_t* failed) {
  std::ofstream records(path, std::ios::app);
  for (const PhaseResult& p : phases) {
    for (const Record& r : p.records) {
      records << p.name << '\t' << r.request << '\t' << r.response << '\n';
    }
    *sent += p.sent;
    *failed += p.failed;
  }
}

/// The timed phases, all with the host effects removed (see README.md):
/// warm-up, then kRounds low/high round pairs with idle PUBLISH round
/// trips and two max-throughput searches between them.
int LoadgenMain(const Args& a) {
  const MixSpec mix = MixFrom(a);
  const uint64_t seed = static_cast<uint64_t>(Num(a, "seed", 1));
  const double seconds = Num(a, "seconds", 10);
  const double low = Num(a, "low-rate", 100);
  const double high = Num(a, "high-rate", 200);
  const std::string publish_path = Str(a, "publish-path");

  LoadGen lg;
  if (Connected(&lg, a, /*quick_ack=*/true) == nullptr) return 1;
  std::deque<PhaseResult> phases;  // stable references across push_back
  auto run = [&](const std::string& name, double rate, double secs) -> const PhaseResult& {
    const std::vector<Op> ops = MakeSchedule(mix, rate, secs, PhaseSeed(seed, name));
    phases.push_back(lg.Run(name, rate, ops, kDrainNs, true));
    return phases.back();
  };
  const auto scrape = [&] {
    return std::pair(ParseStats(lg.Control("STATS")),
                     ParseExposition(lg.ControlFramed("METRICS")));
  };

  run("warmup", low, kWarmupSeconds);
  std::vector<const PhaseResult*> lows, highs;
  std::map<std::string, double> stats_low, metrics_low;
  const auto round = [&] {
    const std::string r = std::to_string(lows.size() + 1);
    const auto before = scrape();
    lows.push_back(&run("low" + r, low, RoundSeconds(seconds, low)));
    const auto after = scrape();
    AddDelta(before.first, after.first, &stats_low);
    AddDelta(before.second, after.second, &metrics_low);
    highs.push_back(&run("high" + r, high, RoundSeconds(seconds, high)));
  };

  std::vector<SearchStep> steps;
  double max_rps = 0.0;
  std::map<std::string, double> stats_search;
  const auto step_fn = [&](const std::string& prefix) {
    return [&, prefix](double rate) {
      const double step_s = StepSeconds(seconds, rate);
      const PhaseResult& p = run(prefix + std::to_string(steps.size()), rate, step_s);
      SearchStep st;
      st.pass = MeetsLimit(p, kLimitNs, kLimitQuantile);  // implies no failures
      st.achieved = static_cast<double>(p.completed) / step_s;
      steps.push_back(st);
      steps.back().rate = rate;
      if (steps.size() % 2 == 0 && lows.size() + 2 < kRounds) round();
      return st;
    };
  };
  int searches = 0;
  const auto search = [&] {
    // Coarse x1.2 steps find the bracket, fine x1.05 steps refine it from
    // the last coarse pass, so max_rps is resolved to ~5%.
    const auto before = ParseStats(lg.Control("STATS"));
    const std::string name = "search" + std::to_string(++searches) + ".";
    std::vector<SearchStep> found =
        SearchMaxRps(Num(a, "search-from", high), 1.2, 6, step_fn(name));
    double passed = 0.0;
    for (const SearchStep& st : found) {
      if (st.pass) passed = std::max(passed, st.rate);
    }
    if (passed > 0.0) {
      const std::vector<SearchStep> fine =
          SearchMaxRps(passed * 1.05, 1.05, 5, step_fn(name));
      found.insert(found.end(), fine.begin(), fine.end());
    }
    max_rps = std::max(max_rps, MaxRpsOf(found));
    AddDelta(before, ParseStats(lg.Control("STATS")), &stats_search);
  };

  // The low/high round pairs are spread over the whole run, so the
  // rounds sample the host's fast and slow spells in proportion: two
  // pairs first, one after every second search step, the rest (at least
  // two) at the end. The idle PUBLISH round trips come before the
  // searches, so every search step runs after a snapshot swap, and no
  // swap lands inside a round.
  std::vector<uint64_t> publish;
  uint64_t failed = 0;
  round();
  round();
  for (int i = 0; i < kIdlePublishes; ++i) {
    const uint64_t t = MonoNs();
    const bool ok = lg.Control("PUBLISH path=" + publish_path).rfind("OK ", 0) == 0;
    publish.push_back(ok ? MonoNs() - t : UINT64_MAX);
    failed += ok ? 0 : 1;
  }
  search();
  search();
  while (lows.size() < kRounds) round();

  uint64_t sent = 0;
  WriteRecords(Str(a, "records", "records.tsv"), phases, &sent, &failed);

  std::string steps_json = "[";
  for (const SearchStep& st : steps) {
    if (steps_json.size() > 1) steps_json += ", ";
    steps_json += "{\"rate\": " + J(st.rate) + ", \"pass\": " +
                  (st.pass ? "true" : "false") + ", \"achieved\": " + J(st.achieved) + "}";
  }
  steps_json += "]";
  std::printf(
      "{\"low\": %s, \"high\": %s, \"steps\": %s, \"max_rps\": %s, "
      "\"publish_ms\": %s, \"publishes\": %zu, \"sent\": %llu, \"failed\": %llu, "
      "\"stats_low\": %s, \"stats_search\": %s, \"server_low\": %s}\n",
      SummaryJson(lows).c_str(), SummaryJson(highs).c_str(), steps_json.c_str(),
      J(max_rps).c_str(), J(static_cast<double>(Quantile(publish, 0.5)) / 1e6).c_str(),
      publish.size(), static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(failed), MapJson(stats_low).c_str(),
      MapJson(stats_search).c_str(), MapJson(ServerMeans(metrics_low)).c_str());
  return 0;
}

/// The phases run with one host effect left in, each at the low rate:
/// `nospin` after run.py has stopped its idle busy loops (server thread
/// wake-ups show), `noquickack` without TCP_QUICKACK (ganc_serve's Nagle
/// stall shows). Ends with the run's one METRICS scrape, taken after all
/// traffic, for the counting identity.
int BareMain(const Args& a) {
  const MixSpec mix = MixFrom(a);
  const uint64_t seed = static_cast<uint64_t>(Num(a, "seed", 1));
  const double low = Num(a, "low-rate", 100);
  // A tenth of the run, but at least 200 requests.
  const double secs = std::max(0.1 * Num(a, "seconds", 10), 200.0 / low);
  std::deque<PhaseResult> phases;
  std::string summaries;
  for (const bool quick_ack : {true, false}) {
    const std::string name = quick_ack ? "nospin" : "noquickack";
    LoadGen lg;
    if (Connected(&lg, a, quick_ack) == nullptr) return 1;
    const std::vector<Op> ops = MakeSchedule(mix, low, secs, PhaseSeed(seed, name));
    phases.push_back(lg.Run(name, low, ops, kDrainNs, true));
    summaries += "\"" + name + "\": " + SummaryJson({&phases.back()}) + ", ";
  }
  LoadGen control;
  if (Connected(&control, a, /*quick_ack=*/true) == nullptr) return 1;
  const std::map<std::string, double> metrics =
      ParseExposition(control.ControlFramed("METRICS"));
  uint64_t sent = 0, failed = 0;
  WriteRecords(Str(a, "records", "records.tsv"), phases, &sent, &failed);
  std::printf("{%s\"sent\": %llu, \"failed\": %llu, \"metrics_end\": %s}\n",
              summaries.c_str(), static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(failed), MapJson(metrics).c_str());
  return 0;
}

/// Parses "OK user=U n=N items=a,b,c"; false for anything else.
bool ParseList(const std::string& line, int32_t* user, std::vector<int32_t>* items) {
  if (line.rfind("OK user=", 0) != 0) return false;
  *user = static_cast<int32_t>(std::strtol(line.c_str() + 8, nullptr, 10));
  const size_t pos = line.find(" items=");
  if (pos == std::string::npos) return false;
  items->clear();
  const char* p = line.c_str() + pos + 7;
  while (*p != '\0') {
    char* end = nullptr;
    items->push_back(static_cast<int32_t>(std::strtol(p, &end, 10)));
    if (end == p) return false;
    p = *end == ',' ? end + 1 : end;
  }
  return true;
}

int QualityMain(const Args& a) {
  const DataOptions d = DataFrom(a);
  ganc::Result<ganc::RatingDataset> data =
      ganc::RatingDataset::LoadFileAuto(d.dataset_cache, /*prefer_mmap=*/true);
  if (!data.ok()) {
    std::fprintf(stderr, "quality: %s\n", data.status().ToString().c_str());
    return 1;
  }
  ganc::RatingDataset train;
  ganc::RatingDataset test;
  if (d.kappa == 1.0) {
    train = std::move(data).value();
  } else {
    if (!data->EnsureResident().ok()) return 1;
    ganc::Result<ganc::TrainTestSplit> split = ganc::PerUserRatioSplit(
        *data, {.train_ratio = d.kappa, .seed = d.split_seed});
    if (!split.ok()) return 1;
    train = std::move(split->train);
    test = std::move(split->test);
  }
  // The live accountant's own tables: identical novelty and long-tail
  // definitions to the serve_domain_* series.
  ganc::MetricsRegistry registry;
  ganc::Result<std::unique_ptr<ganc::DomainAccountant>> acct =
      ganc::DomainAccountant::Create(train, registry, 0);
  if (!acct.ok()) return 1;

  std::ifstream in(Str(a, "records"));
  // The low rounds: fixed schedules, so the lists are exact for a seed.
  const auto in_rounds = [](const std::string& phase) {
    return phase.rfind("low", 0) == 0;
  };
  std::string line;
  double bits = 0.0, hits = 0.0, precision_sum = 0.0;
  uint64_t slots = 0, tail = 0, lists = 0;
  std::set<int32_t> distinct;
  std::vector<int32_t> items;
  while (std::getline(in, line)) {
    const size_t t1 = line.find('\t');
    const size_t t2 = line.find('\t', t1 + 1);
    if (t1 == std::string::npos || t2 == std::string::npos) continue;
    if (!in_rounds(line.substr(0, t1))) continue;
    int32_t user = 0;
    if (!ParseList(line.substr(t2 + 1), &user, &items)) continue;
    ++lists;
    hits = 0.0;
    for (const int32_t i : items) {
      bits += (*acct)->NoveltyBits(i);
      tail += (*acct)->IsLongTail(i) ? 1 : 0;
      distinct.insert(i);
      if (d.kappa != 1.0 && test.HasRating(user, i)) hits += 1.0;
    }
    slots += items.size();
    const double n = Num(a, "n", 10);
    precision_sum += hits / n;
  }
  if (slots == 0) {
    std::fprintf(stderr, "quality: no lists in the records\n");
    return 1;
  }
  std::printf(
      "{\"lists\": %llu, \"novelty_bits\": %s, \"tail_share\": %s, "
      "\"coverage_items\": %zu, \"precision\": %s}\n",
      static_cast<unsigned long long>(lists),
      J(bits / static_cast<double>(slots)).c_str(),
      J(static_cast<double>(tail) / static_cast<double>(slots)).c_str(),
      distinct.size(),
      J(d.kappa == 1.0 ? 0.0 : precision_sum / static_cast<double>(lists)).c_str());
  return 0;
}

std::vector<std::string> SplitWords(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string w;
  while (in >> w) out.push_back(w);
  return out;
}

int TraceMain(const Args& a) {
  TraceOptions o;
  o.data = DataFrom(a);
  o.mix = MixFrom(a);
  o.rate = Num(a, "low-rate", 100);
  o.seconds = RoundSeconds(Num(a, "seconds", 10), o.rate);  // one low round
  o.rounds = kRounds;
  o.seed = static_cast<uint64_t>(Num(a, "seed", 1));
  o.shards = static_cast<int>(Num(a, "shards", 1));
  o.serve_bin = Str(a, "serve-bin");
  o.child_args = SplitWords(Str(a, "child-args"));
  o.arec = Str(a, "arec", "psvd10");
  o.train_threads = static_cast<int>(Num(a, "train-threads", 1));
  o.scratch_dir = Str(a, "scratch", ".");
  TraceReport r;
  std::string error;
  if (!RunTraced(o, &r, &error)) {
    std::fprintf(stderr, "trace: %s\n", error.c_str());
    return 1;
  }
  std::string layers = "{";
  for (const auto& [name, st] : r.layers) {
    if (layers.size() > 1) layers += ", ";
    layers += "\"" + name + "\": {\"count\": " + J(static_cast<double>(st.count)) +
              ", \"mean_ns\": " + J(st.mean_ns) + ", \"p99_ns\": " + J(st.p99_ns) +
              ", \"total_ns\": " + J(st.total_ns) + "}";
  }
  layers += "}";
  std::string values = "{";
  for (const auto& [name, v] : r.values) {
    if (values.size() > 1) values += ", ";
    values += "\"" + name + "\": " + J(v);
  }
  values += "}";
  TimedRun timed;
  timed.client_us = Num(a, "client-us", 0);
  timed.line_us = Num(a, "line-us", 0);
  timed.wait_us = Num(a, "wait-us", 0);
  timed.live_share = Num(a, "live-share", 0);
  const Ledger ledger = BuildLedger(r, timed);
  std::string rows = "[";
  for (const auto& [name, us] : ledger.layers_us) {
    if (rows.size() > 1) rows += ", ";
    rows += "[\"" + name + "\", " + J(us) + "]";
  }
  rows += "]";
  std::printf("{\"requests\": %llu, \"traced_ns\": %s, \"untraced_ns\": %s, "
              "\"layers\": %s, \"values\": %s, \"ledger\": {\"rows\": %s, "
              "\"layer_sum_us\": %s, \"unattributed_us\": %s, "
              "\"unattributed_pct\": %s}}\n",
              static_cast<unsigned long long>(r.requests), J(r.traced_ns).c_str(),
              J(r.untraced_ns).c_str(), layers.c_str(), values.c_str(), rows.c_str(),
              J(ledger.LayerSum()).c_str(), J(ledger.Unattributed()).c_str(),
              J(ledger.UnattributedPct()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench loadgen|bare|quality|trace [--flag=value...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args = ParseArgs(argc, argv);
  if (cmd == "loadgen") return LoadgenMain(args);
  if (cmd == "bare") return BareMain(args);
  if (cmd == "quality") return QualityMain(args);
  if (cmd == "trace") return TraceMain(args);
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
