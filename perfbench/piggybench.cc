// piggybench — the program behind perfbench/run.py.
//
//   piggybench generate --workload W --seed N --mode full|small --out PATH
//   piggybench run --workload W --seed N --mode full|small [--input PATH]
//       --seconds S --trace 0|1 [--chrome-trace PATH]
//
// `generate` writes a workload's input file from its profile and seed and
// prints the input's descriptor as one JSON line. `run` sets the workload
// up and replays it, and prints one JSON line: attempted and failed
// replays, the errors, the output counters, the input descriptor and the
// metrics. With --trace 0 a run repeats set-up + replay until --seconds
// have passed (at least three times) and reports medians of the
// end-to-end timings and the run's total throughput. With --trace 1 it makes one untraced serial
// iteration, one traced iteration whose layer calls are timed as spans,
// and (evaluator workloads) one 2-thread parallel replay, and reports the
// per-layer metrics. Every replay's counters are checked against the
// others and against the §3.1 invariants; run.py adds the pinned values.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "server/meta.h"
#include "sim/end_to_end.h"
#include "sim/engine.h"
#include "sim/eval_core.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
#include "spans.h"
#include "trace/binary.h"
#include "trace/clf.h"
#include "trace/profiles.h"
#include "trace/source.h"
#include "trace/stream.h"
#include "util/hash.h"
#include "util/mmap_file.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggybench {
namespace {

namespace pw = piggyweb;
using pw::obs::Json;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads. Why each exists is recorded in perfbench/README.md.

enum class Input { kClf, kBinary, kStream, kInMemory };
enum class Scheme { kDirectory, kProbability, kEngine };

struct Workload {
  const char* name;
  const char* profile;
  double full_scale;
  double small_scale;
  Input input;
  Scheme scheme;
  int level;                 // directory prefix level
  std::uint32_t maxpiggy;    // filter: elements per piggyback
  pw::util::Seconds rpv;     // RPV timeout (0 = off)
  pw::util::Seconds min_interval;  // frequency control (0 = off)
  std::size_t threads;       // evaluator threads
};

constexpr Workload kWorkloads[] = {
    {"dir_sun", "sun", 0.0783, 0.004, Input::kClf, Scheme::kDirectory, 1, 20,
     30, 15, 1},
    {"prob_att", "att_client", 0.912, 0.05, Input::kBinary,
     Scheme::kProbability, 0, 20, 30, 15, 1},
    {"dir_att_sendall_t2", "att_client", 2.7, 0.1, Input::kStream,
     Scheme::kDirectory, 2, 50, 0, 0, 2},
    {"engine_apache", "apache", 0.35, 0.02, Input::kInMemory, Scheme::kEngine,
     1, 20, 60, 0, 1},
};

// The evaluator's prediction window T and cache horizon C.
constexpr pw::util::Seconds kWindow = 300;
constexpr pw::util::Seconds kHorizon = 7200;
// Probability training, as piggyweb_evaluate does it by default.
constexpr double kProbabilityThreshold = 0.2;
constexpr double kEffectivenessThreshold = 0.2;
constexpr std::uint64_t kMinCount = 10;
constexpr std::size_t kMaxCandidates = 200;
// The engine workload replays this many independently seeded sub-logs. One
// apache site is small (~170 resources, a few multi-MB downloads against a
// 4 MiB cache), and a single site's structure moved the replay time by
// +-20% from seed to seed; the sum over eight sites averages that out.
constexpr std::uint64_t kEngineSites = 8;
// The traced run's cross-check replay uses this many threads.
constexpr std::size_t kParallelCheckThreads = 2;
// Window size of the streaming meta pass (piggyweb_evaluate's kScanWindow).
constexpr std::size_t kScanWindow = std::size_t{1} << 16;

const char* input_format_name(Input input) {
  switch (input) {
    case Input::kClf:
      return "clf";
    case Input::kBinary:
      return "piggytrc (materialized mmap)";
    case Input::kStream:
      return "piggytrc (streamed)";
    case Input::kInMemory:
      return "synthetic workload (in memory)";
  }
  return "?";
}

struct Options {
  std::string command;
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool small = false;
  std::string input;
  std::string out;
  double seconds = 10;
  bool trace = false;
  std::string chrome_trace;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "piggybench: %s\n"
               "usage: piggybench generate --workload W --seed N --mode "
               "full|small --out PATH\n"
               "       piggybench run --workload W --seed N --mode "
               "full|small [--input PATH] --seconds S --trace 0|1 "
               "[--chrome-trace PATH]\n",
               message.c_str());
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Options o;
  o.command = argv[1];
  if (o.command != "generate" && o.command != "run") {
    usage("unknown command '" + o.command + "'");
  }
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const auto& w : kWorkloads) {
        if (value == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) usage("unknown workload '" + value + "'");
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--mode") {
      if (value != "full" && value != "small") usage("bad --mode");
      o.small = value == "small";
    } else if (key == "--input") {
      o.input = value;
    } else if (key == "--out") {
      o.out = value;
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (key == "--chrome-trace") {
      o.chrome_trace = value;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (o.workload == nullptr) usage("--workload is required");
  return o;
}

// The seed offsets the profile's own RNG seed, so --seed 0 is the profile
// as the paper benches generate it.
pw::trace::LogProfile profile_for(const Options& o) {
  const auto& w = *o.workload;
  auto profile = pw::trace::profile_by_name(
      w.profile, o.small ? w.small_scale : w.full_scale);
  if (!profile) throw std::runtime_error("unknown profile");
  profile->seed += o.seed;
  return *profile;
}

// The input's descriptor: where it came from and what it holds, summed
// over its logs (the engine workload has several).
Json describe_input(
    const Options& o,
    const std::vector<const pw::trace::SyntheticWorkload*>& logs,
    Json profile_seeds, std::uint64_t bytes, const std::string& checksum) {
  const auto& w = *o.workload;
  std::uint64_t requests = 0, servers = 0, sources = 0, resources = 0;
  for (const auto* log : logs) {
    requests += log->trace.size();
    servers += log->trace.servers().size();
    sources += log->trace.sources().size();
    resources += log->trace.paths().size();
  }
  auto d = Json::object();
  d.set("workload", w.name);
  d.set("profile", w.profile);
  d.set("scale", o.small ? w.small_scale : w.full_scale);
  d.set("seed", o.seed);
  d.set("profile_seeds", std::move(profile_seeds));
  d.set("requests", requests);
  d.set("servers", servers);
  d.set("sources", sources);
  d.set("resources", resources);
  d.set("format", input_format_name(w.input));
  d.set("bytes", bytes);
  d.set("checksum", checksum);
  return d;
}

std::string hex64(const char* label, std::uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s:%016llx", label,
                static_cast<unsigned long long>(value));
  return buf;
}

int generate(const Options& o) {
  const auto& w = *o.workload;
  if (w.input == Input::kInMemory) usage("this workload has no input file");
  if (o.out.empty()) usage("--out is required");
  const auto profile = profile_for(o);
  const auto workload = pw::trace::generate(profile);
  {
    std::ofstream out(o.out, std::ios::binary);
    if (w.input == Input::kClf) {
      pw::trace::write_clf(out, workload.trace);
    } else {
      out << pw::trace::serialize_binary_trace(workload.trace);
    }
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
      return 1;
    }
  }
  std::string error;
  const auto file = pw::util::MmapFile::open(o.out, error);
  if (!file) {
    std::fprintf(stderr, "cannot map %s: %s\n", o.out.c_str(), error.c_str());
    return 1;
  }
  auto seeds = Json::array();
  seeds.push_back(profile.seed);
  const auto descriptor =
      describe_input(o, {&workload}, std::move(seeds), file->size(),
                     hex64("fnv1a", pw::util::fnv1a(file->bytes())));
  std::printf("%s\n", descriptor.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Measurement helpers

double elapsed(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Output checks

Json eval_counters(const pw::sim::EvalResult& r) {
  auto c = Json::object();
  c.set("requests", r.requests);
  c.set("predicted_requests", r.predicted_requests);
  c.set("piggyback_messages", r.piggyback_messages);
  c.set("piggyback_elements", r.piggyback_elements);
  c.set("predictions_made", r.predictions_made);
  c.set("predictions_true", r.predictions_true);
  c.set("prev_occurrence_within_horizon", r.prev_occurrence_within_horizon);
  c.set("prev_occurrence_within_window", r.prev_occurrence_within_window);
  c.set("updated_by_piggyback", r.updated_by_piggyback);
  return c;
}

Json engine_counters(const pw::sim::EngineResult& r) {
  const auto& cache = r.nodes.front().cache;
  auto c = Json::object();
  c.set("client_requests", r.client_requests);
  c.set("unresolved", r.unresolved);
  c.set("server_contacts", r.server_contacts);
  c.set("validations", r.validations);
  c.set("validations_not_modified", r.validations_not_modified);
  c.set("stale_served", r.stale_served);
  c.set("piggyback_bytes", r.piggyback_bytes);
  c.set("body_bytes", r.body_bytes);
  c.set("total_packets", r.total_packets);
  c.set("cache_lookups", cache.lookups);
  c.set("cache_fresh_hits", cache.fresh_hits);
  c.set("cache_stale_hits", cache.stale_hits);
  c.set("cache_misses", cache.misses);
  c.set("cache_evictions", cache.evictions);
  c.set("cache_piggyback_refreshes", cache.piggyback_refreshes);
  c.set("center_exchanges", r.center.exchanges_observed);
  c.set("center_piggybacks", r.center.piggybacks_injected);
  c.set("center_elements", r.center.elements_injected);
  c.set("connections_opened", r.connections.opened);
  c.set("connections_reused", r.connections.reused);
  return c;
}

// §3.1 relations every EvalResult must satisfy.
std::vector<std::string> eval_invariant_errors(
    const pw::sim::EvalResult& r, std::size_t requests,
    std::uint32_t maxpiggy) {
  std::vector<std::string> errors;
  const auto need = [&errors](bool ok, const char* what) {
    if (!ok) errors.emplace_back(what);
  };
  need(r.requests == requests, "requests != input requests");
  need(r.predicted_requests <= r.requests, "predicted > requests");
  need(r.piggyback_messages <= r.requests, "messages > requests");
  need(r.piggyback_elements <= r.piggyback_messages * maxpiggy,
       "elements > messages * maxpiggy");
  need(r.predictions_true <= r.predictions_made, "true > made");
  need(r.prev_occurrence_within_window <= r.prev_occurrence_within_horizon,
       "within T > within C");
  need(r.updated_by_piggyback <= r.predicted_requests,
       "updated > predicted");
  need(r.piggyback_messages > 0, "no piggyback sent");
  return errors;
}

std::vector<std::string> engine_invariant_errors(
    const pw::sim::EngineResult& r, std::size_t requests) {
  std::vector<std::string> errors;
  const auto need = [&errors](bool ok, const char* what) {
    if (!ok) errors.emplace_back(what);
  };
  const auto& cache = r.nodes.front().cache;
  need(r.client_requests == requests, "client requests != input requests");
  need(cache.fresh_hits + cache.stale_hits + cache.misses == cache.lookups,
       "cache outcomes != lookups");
  need(r.server_contacts <= r.client_requests, "contacts > requests");
  need(r.center.exchanges_observed > 0, "volume center saw nothing");
  return errors;
}

// ---------------------------------------------------------------------------
// Evaluator workloads

pw::sim::EvalConfig eval_config(const Workload& w) {
  pw::sim::EvalConfig config;
  config.prediction_window = kWindow;
  config.cache_horizon = kHorizon;
  config.filter.max_elements = w.maxpiggy;
  config.use_rpv = w.rpv > 0;
  config.rpv.timeout = w.rpv;
  config.min_piggyback_interval = w.min_interval;
  return config;
}

pw::volume::DirectoryVolumeConfig directory_config(const Workload& w) {
  pw::volume::DirectoryVolumeConfig config;
  config.level = w.level;
  return config;
}

// Everything a replay needs that is built before its first request.
struct EvalSession {
  pw::trace::Trace trace;  // empty when streamed
  std::unique_ptr<pw::trace::TraceView> view;
  pw::server::TraceMetaOracle meta;
  pw::volume::ProbabilityVolumeSet volumes;  // probability scheme only
  std::uint64_t pairs_kept = 0;
};

void set_up(EvalSession& s, const Workload& w, const std::string& input,
            SpanLog* log) {
  {
    Scope span(log, "trace.load");
    std::string error;
    if (w.input == Input::kStream) {
      s.view = pw::trace::StreamingTraceSource::open(input, error);
      if (s.view == nullptr) throw std::runtime_error(error);
    } else {
      pw::trace::TraceSourceOptions options;
      options.format = w.input == Input::kClf ? pw::trace::TraceFormat::kClf
                                              : pw::trace::TraceFormat::kBinary;
      pw::trace::TraceLoadStats stats;
      if (!pw::trace::load_trace(input, options, s.trace, stats, error)) {
        throw std::runtime_error(error);
      }
      s.view = std::make_unique<pw::trace::MaterializedTraceView>(s.trace);
    }
  }
  {
    Scope span(log, "server.meta");
    if (w.input == Input::kStream) {
      const auto total = s.view->request_count();
      for (std::size_t base = 0; base < total; base += kScanWindow) {
        s.meta.observe_window(
            s.view->window(base, std::min(kScanWindow, total - base)),
            s.view->paths());
      }
    } else {
      s.meta.observe_window(s.trace.requests(), s.trace.paths());
    }
  }
  if (w.scheme == Scheme::kProbability) {
    pw::volume::PairCounterConfig pcc;
    pcc.window = kWindow;
    pw::volume::PairCounts counts;
    {
      Scope span(log, "volume.train");
      counts = pw::volume::PairCounterBuilder(pcc).build(s.trace, kMinCount);
    }
    s.pairs_kept = counts.counter_count();
    pw::volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = kProbabilityThreshold;
    pvc.effectiveness_threshold = kEffectivenessThreshold;
    pvc.window = kWindow;
    {
      Scope span(log, "volume.build");
      s.volumes =
          pw::volume::build_probability_volumes(s.trace, counts, pvc);
    }
  }
}

std::unique_ptr<pw::core::VolumeProvider> make_provider(const EvalSession& s,
                                                        const Workload& w) {
  if (w.scheme == Scheme::kProbability) {
    return std::make_unique<pw::volume::ProbabilityVolumes>(&s.volumes,
                                                            kMaxCandidates);
  }
  auto volumes =
      std::make_unique<pw::volume::DirectoryVolumes>(directory_config(w));
  volumes->bind_paths(s.view->paths());
  return volumes;
}

pw::sim::ShardedProviderSpec make_sharded(const EvalSession& s,
                                          const Workload& w) {
  return w.scheme == Scheme::kProbability
             ? pw::sim::shard_probability_volumes(&s.volumes, kMaxCandidates)
             : pw::sim::shard_directory_volumes(directory_config(w),
                                                s.view->paths());
}

pw::sim::EvalResult replay_parallel(EvalSession& s,
                                    const pw::sim::ShardedProviderSpec& spec,
                                    const pw::sim::EvalConfig& config,
                                    std::size_t threads) {
  pw::sim::ParallelEvalConfig par;
  par.threads = threads;
  return pw::sim::ParallelEvaluator(config, par).run(*s.view, spec, s.meta);
}

// Forwards to the session's oracle and counts the filter's lookups.
class CountingMeta final : public pw::core::MetaOracle {
 public:
  explicit CountingMeta(const pw::core::MetaOracle& inner) : inner_(inner) {}
  pw::core::ResourceMeta lookup(pw::util::InternId server,
                                pw::util::InternId resource) const override {
    ++lookups_;
    return inner_.lookup(server, resource);
  }
  std::uint64_t lookups() const { return lookups_; }

 private:
  const pw::core::MetaOracle& inner_;
  mutable std::uint64_t lookups_ = 0;
};

struct LoopCounts {
  std::uint64_t candidates = 0;    // provider candidates built
  std::uint64_t kept = 0;          // elements left after the static filter
  std::uint64_t offered = 0;       // requests with a non-empty message
  std::uint64_t meta_lookups = 0;  // filter -> MetaOracle calls
};

// PredictionEvaluator::run's loop, with each layer call timed as a span.
// Per batch the filter runs over every request before the accumulator
// does; the filter is a pure function of provider output, so the
// accumulator sees exactly the serial evaluator's per-request sequence.
pw::sim::EvalResult replay_traced(EvalSession& s,
                                  pw::core::VolumeProvider& provider,
                                  const pw::sim::EvalConfig& config,
                                  SpanLog& log, LoopCounts& counts) {
  namespace detail = pw::sim::detail;
  Scope replay(&log, "sim.replay");
  const CountingMeta meta(s.meta);
  const pw::trace::PathTypeTable types(s.view->paths());
  detail::MetricAccumulator acc(config);
  std::vector<pw::core::VolumeRequest> batch;
  std::vector<pw::core::VolumePrediction> predictions;
  pw::core::PiggybackMessage message;
  std::vector<pw::core::VolumeId> volumes;
  std::vector<pw::util::InternId> kept;
  std::vector<std::size_t> kept_end;
  const auto total = s.view->request_count();
  for (std::size_t base = 0; base < total;
       base += detail::kEvalBatchRequests) {
    const auto count = std::min(detail::kEvalBatchRequests, total - base);
    std::span<const pw::trace::Request> window;
    {
      Scope span(&log, "trace.window");
      window = s.view->window(base, count);
    }
    batch.clear();
    for (const auto& req : window) {
      batch.push_back(
          detail::make_volume_request(req, types.type_of(req.path)));
    }
    {
      Scope span(&log, "volume.provider");
      provider.on_request_batch(batch, predictions);
    }
    for (std::size_t i = 0; i < count; ++i) {
      counts.candidates += predictions[i].resources.size();
    }
    volumes.clear();
    kept.clear();
    kept_end.clear();
    {
      Scope span(&log, "core.filter");
      for (std::size_t i = 0; i < count; ++i) {
        pw::core::apply_filter_into(predictions[i], batch[i], config.filter,
                                    meta, message);
        volumes.push_back(message.volume);
        for (const auto& element : message.elements) {
          kept.push_back(element.resource);
        }
        kept_end.push_back(kept.size());
      }
    }
    {
      Scope span(&log, "sim.accumulate");
      std::size_t begin = 0;
      for (std::size_t i = 0; i < count; ++i) {
        const std::span<const pw::util::InternId> resources(
            kept.data() + begin, kept_end[i] - begin);
        acc.observe(window[i], volumes[i], resources);
        begin = kept_end[i];
      }
    }
    std::size_t begin = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (volumes[i] != pw::core::kNoVolume && kept_end[i] > begin) {
        ++counts.offered;
      }
      begin = kept_end[i];
    }
    counts.kept += kept.size();
  }
  counts.meta_lookups = meta.lookups();
  return acc.result();
}

// ---------------------------------------------------------------------------
// Engine workload

pw::sim::EndToEndConfig engine_preset(const Workload& w) {
  pw::sim::EndToEndConfig config;
  config.cache.capacity_bytes = 4ULL * 1024 * 1024;
  config.cache.freshness_interval = 600;
  config.enable_coherency = true;
  config.volumes.level = w.level;
  config.base_filter.max_elements = w.maxpiggy;
  config.use_rpv = true;
  config.rpv.timeout = w.rpv;
  return config;
}

// ---------------------------------------------------------------------------
// Runs

struct Iteration {
  double setup_s = 0;
  double replay_s = 0;
  double wall_s = 0;
  double cpu_s = 0;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Json errors = Json::array();
  std::optional<Json> counters;  // first replay's; every other must match
  Json metrics = Json::object();
  Json regime = Json::object();
  Json samples = Json::array();  // per-iteration end-to-end values
  Json input;

  // Counts one replay: its invariant errors plus a comparison against
  // the first replay's counters.
  void check(const char* what, Json replay_counters,
             const std::vector<std::string>& invariant_errors) {
    ++attempted;
    bool ok = invariant_errors.empty();
    for (const auto& e : invariant_errors) {
      errors.push_back(std::string(what) + ": " + e);
    }
    if (!counters) {
      counters = std::move(replay_counters);
    } else if (!(*counters == replay_counters)) {
      ok = false;
      errors.push_back(std::string(what) +
                       ": counters differ from the first replay: " +
                       replay_counters.dump());
    }
    if (!ok) ++failed;
  }
  void fail(const std::string& what) {
    ++attempted;
    ++failed;
    errors.push_back(what);
  }
  void metric(const char* name, double value, const char* unit) {
    auto m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  }
};

void end_to_end_metrics(RunReport& report,
                        const std::vector<Iteration>& iterations,
                        std::size_t requests) {
  std::vector<double> wall, setup, cpu;
  double replay_total = 0;
  for (const auto& it : iterations) {
    wall.push_back(it.wall_s);
    setup.push_back(it.setup_s);
    replay_total += it.replay_s;
    cpu.push_back(it.cpu_s);
    auto sample = Json::object();
    sample.set("wall_s", it.wall_s);
    sample.set("setup_s", it.setup_s);
    sample.set("replay_s", it.replay_s);
    sample.set("cpu_s", it.cpu_s);
    report.samples.push_back(std::move(sample));
  }
  report.metric("wall_s", median(wall), "s");
  report.metric("setup_s", median(setup), "s");
  // Throughput over the whole run, not a median of per-replay rates: the
  // host's speed drifts in phases of 30-60 s, and the total integrates
  // every phase the run saw where a median picks one replay.
  report.metric("req_per_s",
                static_cast<double>(requests * iterations.size()) /
                    replay_total,
                "1/s");
  report.metric("cpu_s", median(cpu), "s");
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

// Repeats `iterate` until `seconds` have passed, and at least three times,
// so that every median has three samples.
void repeat_for(double seconds, const std::function<void()>& iterate) {
  constexpr int kMinIterations = 3;
  const auto start = Clock::now();
  for (int i = 0; i < kMinIterations || elapsed(start, Clock::now()) < seconds;
       ++i) {
    iterate();
  }
}

// Times one set-up + replay.
template <typename SetUp, typename Replay>
Iteration timed_iteration(SetUp&& set_up_fn, Replay&& replay_fn) {
  Iteration it;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  set_up_fn();
  const auto t1 = Clock::now();
  replay_fn();
  const auto t2 = Clock::now();
  it.cpu_s = cpu_seconds() - cpu0;
  it.setup_s = elapsed(t0, t1);
  it.replay_s = elapsed(t1, t2);
  it.wall_s = elapsed(t0, t2);
  return it;
}

// Per-layer metrics every traced run reports; a layer a workload does not
// exercise reads 0.
void zero_layer_metrics(RunReport& r) {
  for (const auto& [name, unit] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"trace.load_s", "s"},
           {"trace.input_mib_per_s", "MiB/s"},
           {"trace.window_s", "s"},
           {"server.meta_s", "s"},
           {"server.meta_lookups", "count"},
           {"volume.train_s", "s"},
           {"volume.pairs_kept", "count"},
           {"volume.build_s", "s"},
           {"volume.volumes", "count"},
           {"volume.entries", "count"},
           {"volume.provider_s", "s"},
           {"volume.candidates_per_req", "count/req"},
           {"core.filter_s", "s"},
           {"core.filter_kept_per_req", "count/req"},
           {"sim.replay_s", "s"},
           {"sim.accumulate_s", "s"},
           {"sim.offered_frac", "frac"},
           {"sim.sent_frac", "frac"},
           {"sim.candidate_use_frac", "frac"},
           {"sim.loop_other_s", "s"},
           {"sim.parallel_replay_s", "s"},
           {"sim.parallel_speedup", "x"},
           {"sim.engine_run_s", "s"},
           {"proxy.lookups", "count"},
           {"proxy.fresh_hit_frac", "frac"},
           {"proxy.evictions", "count"},
           {"proxy.piggyback_refreshes", "count"},
           {"server.center_exchanges", "count"},
           {"server.center_elements", "count"},
           {"net.packets", "count"},
           {"net.conn_reuse_frac", "frac"},
           {"obs.trace_overhead_frac", "frac"},
       }) {
    r.metric(name, 0.0, unit);
  }
}

using EvalCheck =
    std::function<void(const char* what, const pw::sim::EvalResult& result)>;

// The traced iteration: set-up and layer-loop replay timed as spans, then
// the 2-thread parallel cross-check on the same set-up. Fills the
// per-layer metrics and returns the iteration's wall time.
double traced_evaluator_iteration(const Options& o,
                                  const pw::sim::EvalConfig& config,
                                  std::size_t requests, RunReport& report,
                                  SpanLog& log, const EvalCheck& check_eval) {
  const auto& w = *o.workload;
  EvalSession s;
  std::unique_ptr<pw::core::VolumeProvider> provider;
  LoopCounts counts;
  pw::sim::EvalResult traced_result;
  const auto traced = timed_iteration(
      [&] {
        Scope span(&log, "sim.setup");
        set_up(s, w, o.input, &log);
        provider = make_provider(s, w);
      },
      [&] {
        traced_result = replay_traced(s, *provider, config, log, counts);
      });
  check_eval("traced layer loop", traced_result);

  double parallel_s = 0;
  {
    const auto spec = make_sharded(s, w);
    pw::sim::EvalResult result;
    const auto t0 = Clock::now();
    {
      Scope span(&log, "sim.parallel_replay");
      result = replay_parallel(s, spec, config, kParallelCheckThreads);
    }
    parallel_s = elapsed(t0, Clock::now());
    check_eval("parallel replay (2 threads)", result);
  }

  const auto self = log.self_seconds();
  const auto get = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto n = static_cast<double>(requests);
  const double load_s = get("trace.load");
  const double replay_s = log.total_seconds("sim.replay");
  std::uint64_t volumes = 0;
  std::uint64_t entries = 0;
  if (w.scheme == Scheme::kProbability) {
    volumes = s.volumes.volume_count();
    entries = s.volumes.stats().total_entries;
  } else {
    const auto& dir =
        dynamic_cast<const pw::volume::DirectoryVolumes&>(*provider);
    volumes = dir.volume_count();
    for (pw::core::VolumeId id = 0; id < volumes; ++id) {
      entries += dir.volume_size(id);
    }
  }
  const double input_mib =
      static_cast<double>(std::filesystem::file_size(o.input)) /
      (1024.0 * 1024.0);
  report.metric("trace.load_s", load_s, "s");
  report.metric("trace.input_mib_per_s", ratio(input_mib, load_s),
                "MiB/s");
  report.metric("trace.window_s", get("trace.window"), "s");
  report.metric("server.meta_s", get("server.meta"), "s");
  report.metric("server.meta_lookups",
                static_cast<double>(counts.meta_lookups), "count");
  report.metric("volume.train_s", get("volume.train"), "s");
  report.metric("volume.pairs_kept", static_cast<double>(s.pairs_kept),
                "count");
  report.metric("volume.build_s", get("volume.build"), "s");
  report.metric("volume.volumes", static_cast<double>(volumes), "count");
  report.metric("volume.entries", static_cast<double>(entries), "count");
  report.metric("volume.provider_s", get("volume.provider"), "s");
  report.metric("volume.candidates_per_req",
                static_cast<double>(counts.candidates) / n, "count/req");
  report.metric("core.filter_s", get("core.filter"), "s");
  report.metric("core.filter_kept_per_req",
                static_cast<double>(counts.kept) / n, "count/req");
  report.metric("sim.replay_s", replay_s, "s");
  report.metric("sim.accumulate_s", get("sim.accumulate"), "s");
  report.metric("sim.offered_frac", static_cast<double>(counts.offered) / n,
                "frac");
  report.metric("sim.sent_frac",
                static_cast<double>(traced_result.piggyback_messages) / n,
                "frac");
  report.metric("sim.candidate_use_frac",
                ratio(static_cast<double>(traced_result.piggyback_elements),
                      static_cast<double>(counts.candidates)),
                "frac");
  report.metric("sim.loop_other_s", get("sim.replay"), "s");
  report.metric("sim.parallel_replay_s", parallel_s, "s");
  report.metric("sim.parallel_speedup", ratio(replay_s, parallel_s), "x");
  report.regime.set("provider_share_of_replay",
                    ratio(get("volume.provider"), replay_s));
  report.regime.set(
      "sent_frac", static_cast<double>(traced_result.piggyback_messages) / n);
  return traced.wall_s;
}

void run_evaluator(const Options& o, RunReport& report, SpanLog& log) {
  const auto& w = *o.workload;
  const auto config = eval_config(w);
  std::size_t requests = 0;
  const EvalCheck check_eval = [&](const char* what,
                                   const pw::sim::EvalResult& result) {
    report.check(what, eval_counters(result),
                 eval_invariant_errors(result, requests, w.maxpiggy));
  };

  if (!o.trace) {
    std::vector<Iteration> iterations;
    repeat_for(o.seconds, [&] {
      EvalSession s;
      std::unique_ptr<pw::core::VolumeProvider> provider;
      std::optional<pw::sim::ShardedProviderSpec> spec;
      pw::sim::EvalResult result;
      iterations.push_back(timed_iteration(
          [&] {
            set_up(s, w, o.input, nullptr);
            if (w.threads == 1) {
              provider = make_provider(s, w);
            } else {
              spec = make_sharded(s, w);
            }
          },
          [&] {
            result = w.threads == 1
                         ? pw::sim::PredictionEvaluator(config).run(
                               *s.view, *provider, s.meta)
                         : replay_parallel(s, *spec, config, w.threads);
          }));
      requests = s.view->request_count();
      check_eval("replay", result);
    });
    end_to_end_metrics(report, iterations, requests);
    return;
  }

  // The traced iteration sits between two untraced serial ones, which
  // bracket it for the tracing-overhead ratio. The 2-thread parallel
  // cross-check replays the traced iteration's set-up.
  const auto untraced_serial = [&] {
    EvalSession s;
    std::unique_ptr<pw::core::VolumeProvider> provider;
    pw::sim::EvalResult result;
    const auto it = timed_iteration(
        [&] {
          set_up(s, w, o.input, nullptr);
          provider = make_provider(s, w);
        },
        [&] {
          result = pw::sim::PredictionEvaluator(config).run(
              *s.view, *provider, s.meta);
        });
    requests = s.view->request_count();
    check_eval("untraced serial replay", result);
    return it;
  };
  const auto before = untraced_serial();
  const double traced_wall = traced_evaluator_iteration(
      o, config, requests, report, log, check_eval);
  const auto after = untraced_serial();
  report.metric("obs.trace_overhead_frac",
                2.0 * traced_wall / (before.wall_s + after.wall_s) - 1.0,
                "frac");
  report.regime.set("setup_share_of_wall",
                    (before.setup_s + after.setup_s) /
                        (before.wall_s + after.wall_s));
}

// Sums the counters engine_counters reports.
void add_engine_result(pw::sim::EngineResult& total,
                       const pw::sim::EngineResult& r) {
  if (total.nodes.empty()) total.nodes.resize(1);
  auto& cache = total.nodes.front().cache;
  const auto& part = r.nodes.front().cache;
  total.client_requests += r.client_requests;
  total.unresolved += r.unresolved;
  total.server_contacts += r.server_contacts;
  total.validations += r.validations;
  total.validations_not_modified += r.validations_not_modified;
  total.stale_served += r.stale_served;
  total.piggyback_bytes += r.piggyback_bytes;
  total.body_bytes += r.body_bytes;
  total.total_packets += r.total_packets;
  cache.lookups += part.lookups;
  cache.fresh_hits += part.fresh_hits;
  cache.stale_hits += part.stale_hits;
  cache.misses += part.misses;
  cache.evictions += part.evictions;
  cache.piggyback_refreshes += part.piggyback_refreshes;
  total.center.exchanges_observed += r.center.exchanges_observed;
  total.center.piggybacks_injected += r.center.piggybacks_injected;
  total.center.elements_injected += r.center.elements_injected;
  total.connections.opened += r.connections.opened;
  total.connections.reused += r.connections.reused;
}

// The engine workload's sub-logs: kEngineSites independently seeded logs
// of the profile, each with 1/kEngineSites of its requests and duration,
// so each site sees the profile's request rate.
std::vector<pw::trace::SyntheticWorkload> engine_workloads(const Options& o,
                                                           Json& descriptor) {
  std::vector<pw::trace::SyntheticWorkload> logs;
  std::vector<const pw::trace::SyntheticWorkload*> views;
  std::uint64_t bytes = 0, fingerprint = 0;
  auto seeds = Json::array();
  for (std::uint64_t j = 0; j < kEngineSites; ++j) {
    // Sub-log j of --seed n uses profile seed + n * kEngineSites + j.
    auto profile = profile_for(o);
    profile.seed += o.seed * (kEngineSites - 1) + j;
    profile.browse.target_requests /= kEngineSites;
    profile.browse.duration /= static_cast<pw::util::Seconds>(kEngineSites);
    logs.push_back(pw::trace::generate(profile));
    const auto& trace = logs.back().trace;
    bytes += trace.size() * sizeof(pw::trace::Request);
    fingerprint = pw::util::hash_combine(
        fingerprint, pw::trace::trace_content_fingerprint(trace));
    seeds.push_back(profile.seed);
  }
  for (const auto& log : logs) views.push_back(&log);
  descriptor = describe_input(o, views, std::move(seeds), bytes,
                              hex64("content", fingerprint));
  return logs;
}

void run_engine(const Options& o, RunReport& report, SpanLog& log) {
  const auto& w = *o.workload;
  const auto logs = engine_workloads(o, report.input);
  std::size_t requests = 0;
  for (const auto& sub : logs) requests += sub.trace.size();
  const auto preset = engine_preset(w);
  const auto topology = pw::sim::EndToEndSimulator::topology_for(preset);
  const auto engine_config =
      pw::sim::EndToEndSimulator::engine_config_for(preset);

  pw::sim::EngineResult total;
  const auto iterate = [&](SpanLog* span_log, const char* what) {
    std::vector<std::unique_ptr<pw::sim::SimulationEngine>> engines;
    std::vector<std::string> errors;
    total = {};
    const auto it = timed_iteration(
        [&] {
          Scope span(span_log, "sim.setup");
          for (const auto& sub : logs) {
            engines.push_back(std::make_unique<pw::sim::SimulationEngine>(
                sub, topology, engine_config));
          }
        },
        [&] {
          for (std::size_t j = 0; j < engines.size(); ++j) {
            pw::sim::EngineResult result;
            {
              Scope span(span_log, "sim.engine_run");
              result = engines[j]->run();
            }
            for (const auto& e :
                 engine_invariant_errors(result, logs[j].trace.size())) {
              errors.push_back(e);
            }
            add_engine_result(total, result);
          }
        });
    report.check(what, engine_counters(total), errors);
    return it;
  };

  if (!o.trace) {
    std::vector<Iteration> iterations;
    repeat_for(o.seconds,
               [&] { iterations.push_back(iterate(nullptr, "replay")); });
    end_to_end_metrics(report, iterations, requests);
    return;
  }

  const auto before = iterate(nullptr, "untraced replay");
  const auto traced = iterate(&log, "traced replay");
  const auto after = iterate(nullptr, "untraced replay");
  const auto& cache = total.nodes.front().cache;
  report.metric("sim.engine_run_s", log.total_seconds("sim.engine_run"), "s");
  report.metric("proxy.lookups", static_cast<double>(cache.lookups), "count");
  report.metric("proxy.fresh_hit_frac", cache.fresh_hit_rate(), "frac");
  report.metric("proxy.evictions", static_cast<double>(cache.evictions),
                "count");
  report.metric("proxy.piggyback_refreshes",
                static_cast<double>(cache.piggyback_refreshes), "count");
  report.metric("server.center_exchanges",
                static_cast<double>(total.center.exchanges_observed), "count");
  report.metric("server.center_elements",
                static_cast<double>(total.center.elements_injected), "count");
  report.metric("net.packets", static_cast<double>(total.total_packets),
                "count");
  report.metric("net.conn_reuse_frac", total.connections.reuse_fraction(),
                "frac");
  report.metric("obs.trace_overhead_frac",
                2.0 * traced.wall_s / (before.wall_s + after.wall_s) - 1.0,
                "frac");
  report.regime.set("origin_frac", total.server_contact_rate());
}

int run(const Options& o) {
  RunReport report;
  SpanLog log;
  if (o.trace) zero_layer_metrics(report);
  try {
    if (o.workload->scheme == Scheme::kEngine) {
      run_engine(o, report, log);
    } else {
      if (o.input.empty()) usage("--input is required");
      run_evaluator(o, report, log);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("error: ") + e.what());
  }
  if (o.trace && !o.chrome_trace.empty()) {
    std::ofstream out(o.chrome_trace);
    out << log.chrome_json() << "\n";
  }
  auto doc = Json::object();
  doc.set("attempted", report.attempted);
  doc.set("failed", report.failed);
  doc.set("errors", std::move(report.errors));
  doc.set("counters", report.counters.value_or(Json()));
  doc.set("input", std::move(report.input));
  doc.set("regime", std::move(report.regime));
  doc.set("samples", std::move(report.samples));
  doc.set("metrics", std::move(report.metrics));
  std::printf("%s\n", doc.dump().c_str());
  return report.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace piggybench

int main(int argc, char** argv) {
  const auto options = piggybench::parse_options(argc, argv);
  return options.command == "generate" ? piggybench::generate(options)
                                       : piggybench::run(options);
}
