// Hot-path data-structure microbenchmarks: util::FlatMap vs the
// std::unordered_map it replaced, the arena-backed interner, the CLF
// loader fast path, the wide (SSE2/SWAR) byte scanner and field splitter
// vs their scalar references, and end-to-end replicas of the
// fig3/fig5/table1 pipelines. Key streams come from a synthetic workload,
// so the mixes see the same Zipf-skewed, collision-heavy distributions
// the real counters see — not uniform random keys.
//
//   hot_path_microbench [--scale=0.3] [--quick] [--json=BENCH_hot_paths.json]
//                       [--e2e-before=fig3=1.69,fig5=0.88,table1=0.10]
//                       [--e2e-after=fig3=1.23,...]
//
// --quick shrinks the pass counts for CI smoke runs. The --e2e-before/
// --e2e-after flags record externally measured wall-clock times of the
// full figure binaries (same args, same machine) from before and after
// the flat-table swap; they are embedded verbatim in the JSON report so
// the committed artifact carries the measured binary-level deltas
// alongside the in-process numbers.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "legacy_baselines.h"
#include "sim/report.h"
#include "trace/clf.h"
#include "util/flat_map.h"
#include "util/scan.h"
#include "util/strings.h"
#include "volume/pair_counter.h"

using namespace piggyweb;

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

bool flag_present(int argc, char** argv, std::string_view flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

struct MixResult {
  std::size_t ops = 0;
  double flat_seconds = 0;
  double umap_seconds = 0;
  std::uint64_t flat_checksum = 0;
  std::uint64_t umap_checksum = 0;

  double speedup() const {
    return flat_seconds > 0 ? umap_seconds / flat_seconds : 0;
  }
};

// Pair-counter mix: find-or-create + increment over (r, s) successor
// keys, exactly the inner loop of PairCounterBuilder::build. No erases —
// counter tables only grow.
template <typename Map>
std::pair<double, std::uint64_t> run_pair_mix(
    const std::vector<std::uint64_t>& keys, int passes) {
  const auto start = now_seconds();
  Map map;
  std::uint64_t checksum = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto key : keys) {
      auto [it, created] = map.try_emplace(key, volume::PairCount{0, 0});
      (void)created;
      ++it->second.count;
    }
  }
  for (const auto key : keys) checksum += map.at(key).count;
  return {now_seconds() - start, checksum};
}

// Eval-state mix: operator[] plus point finds over packed (source,
// resource) keys, insert-heavy early and read-mostly later, comparing
// FlatMap with std::unordered_map on one packed-key table. (The
// MetricAccumulator itself keys small per-source tables by resource id.)
template <typename Map>
std::pair<double, std::uint64_t> run_eval_mix(
    const std::vector<std::uint64_t>& keys, int passes) {
  const auto start = now_seconds();
  Map map;
  std::uint64_t checksum = 0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto key : keys) {
      map[key] += 1;
      const auto it = map.find(key ^ 1);
      if (it != map.end()) checksum += it->second;
    }
  }
  return {now_seconds() - start, checksum + map.size()};
}

// Cache-churn mix: sliding-window insert/find/erase over (server, path)
// keys — the ProxyCache entry-table pattern, where backward-shift
// deletion (FlatMap) competes with node deallocation (unordered_map).
template <typename Map>
std::pair<double, std::uint64_t> run_churn_mix(
    const std::vector<std::uint64_t>& keys, int passes,
    std::size_t window) {
  const auto start = now_seconds();
  Map map;
  std::uint64_t checksum = 0;
  std::deque<std::uint64_t> order;
  for (int pass = 0; pass < passes; ++pass) {
    for (const auto key : keys) {
      if (map.try_emplace(key, key).second) {
        order.push_back(key);
        if (order.size() > window) {
          checksum += map.erase(order.front());
          order.pop_front();
        }
      } else {
        checksum += map.at(key) & 1;
      }
    }
  }
  return {now_seconds() - start, checksum + map.size()};
}

template <typename FlatFn, typename UmapFn>
MixResult run_mix(std::size_t ops, FlatFn flat, UmapFn umap) {
  MixResult r;
  r.ops = ops;
  // unordered_map first, flat second: any cold-cache penalty lands on the
  // reference side's first pass, which is the conservative direction for
  // the reported speedup... so run a discarded warmup of each first.
  (void)umap();
  (void)flat();
  std::tie(r.umap_seconds, r.umap_checksum) = umap();
  std::tie(r.flat_seconds, r.flat_checksum) = flat();
  return r;
}

obs::Json mix_json(const MixResult& r) {
  auto j = obs::Json::object();
  j.set("ops", r.ops);
  j.set("flat_seconds", r.flat_seconds);
  j.set("unordered_map_seconds", r.umap_seconds);
  j.set("speedup", r.speedup());
  j.set("checksums_match", r.flat_checksum == r.umap_checksum);
  return j;
}

// Parse "fig3=1.69,fig5=0.88" into (name, seconds) pairs.
std::vector<std::pair<std::string, double>> parse_timings(
    const std::string& arg) {
  std::vector<std::pair<std::string, double>> out;
  for (const auto piece : util::split_trimmed(arg, ',')) {
    const auto eq = piece.find('=');
    if (eq == std::string_view::npos) continue;
    double secs = 0;
    if (!util::parse_double(piece.substr(eq + 1), secs)) continue;
    out.emplace_back(std::string(piece.substr(0, eq)), secs);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Observability observability("hot_path_microbench", argc, argv);
  const bool quick = flag_present(argc, argv, "--quick");
  const double scale = bench::scale_arg(argc, argv, quick ? 0.1 : 1.0);
  const auto json_path = bench::json_arg(argc, argv);
  const auto before_arg =
      parse_timings(bench::string_arg(argc, argv, "--e2e-before="));
  const auto after_arg =
      parse_timings(bench::string_arg(argc, argv, "--e2e-after="));
  bench::print_banner(
      "Hot-path tables: FlatMap / arena interning vs std containers",
      "every mix reports speedup > 1 with matching checksums; the "
      "pair-counter mix is the gated one (>= 1.3x)");

  const auto workload =
      trace::generate(trace::aiusa_profile(bench::kAiusaScale * scale));
  const auto& requests = workload.trace.requests();
  std::printf("(aiusa: %zu requests, %zu distinct paths, quick=%s)\n\n",
              requests.size(), workload.trace.paths().size(),
              quick ? "yes" : "no");

  // Key streams straight from the trace: successor pairs for the counter
  // mix, (source, path) for eval state, (server, path) for cache churn.
  std::vector<std::uint64_t> pair_keys;
  pair_keys.reserve(requests.size());
  for (std::size_t i = 0; i + 1 < requests.size(); ++i) {
    pair_keys.push_back(
        volume::PairCounts::key(requests[i].path, requests[i + 1].path));
  }
  // (source, path) keys serve both the eval-state mix and the churn mix:
  // a single-server log has too few (server, path) combinations to ever
  // fill a cache window, while (source, path) has tens of thousands.
  std::vector<std::uint64_t> eval_keys;
  eval_keys.reserve(requests.size());
  for (const auto& req : requests) {
    eval_keys.push_back((static_cast<std::uint64_t>(req.source) << 32) |
                        req.path);
  }
  const auto& cache_keys = eval_keys;

  const int passes = quick ? 2 : 10;
  using FlatU64 = util::FlatMap<std::uint64_t, std::uint64_t>;
  using UmapU64 = std::unordered_map<std::uint64_t, std::uint64_t>;
  using FlatPair = util::FlatMap<std::uint64_t, volume::PairCount>;
  using UmapPair = std::unordered_map<std::uint64_t, volume::PairCount>;

  const auto pair_mix = run_mix(
      pair_keys.size() * static_cast<std::size_t>(passes),
      [&] { return run_pair_mix<FlatPair>(pair_keys, passes); },
      [&] { return run_pair_mix<UmapPair>(pair_keys, passes); });
  const auto eval_mix = run_mix(
      eval_keys.size() * static_cast<std::size_t>(passes),
      [&] { return run_eval_mix<FlatU64>(eval_keys, passes); },
      [&] { return run_eval_mix<UmapU64>(eval_keys, passes); });
  const std::size_t window = 4096;
  const auto churn_mix = run_mix(
      cache_keys.size() * static_cast<std::size_t>(passes),
      [&] { return run_churn_mix<FlatU64>(cache_keys, passes, window); },
      [&] { return run_churn_mix<UmapU64>(cache_keys, passes, window); });

  // Loader: the reusable-buffer fast path vs the per-line-allocation
  // reference, over the same CLF bytes.
  std::string clf_text;
  {
    std::ostringstream out;
    trace::write_clf(out, workload.trace);
    clf_text = out.str();
  }
  trace::ClfLoadOptions load_options;
  double loader_fast = 0, loader_legacy = 0;
  std::size_t loader_lines = 0;
  {
    // Warmup + measure, matching the mix discipline.
    for (int round = 0; round < 2; ++round) {
      trace::Trace t;
      std::istringstream in(clf_text);
      const auto start = now_seconds();
      const auto res = bench_legacy::legacy_load_clf(in, t, load_options);
      if (round == 1) {
        loader_legacy = now_seconds() - start;
        loader_lines = res.parsed;
      }
    }
    for (int round = 0; round < 2; ++round) {
      trace::Trace t;
      std::istringstream in(clf_text);
      const auto start = now_seconds();
      (void)trace::load_clf(in, t, load_options);
      if (round == 1) loader_fast = now_seconds() - start;
    }
  }

  // Scanner: the wide (SSE2/SWAR) delimiter finder vs the byte-at-a-time
  // reference, splitting the workload's CLF bytes at newlines — the
  // load_clf_text bulk-scan pattern, ~one delimiter per 80-odd bytes —
  // then the full field splitter wide vs scalar over the same lines.
  // Reference first, wide second, with a discarded warmup of each — the
  // same discipline as the mixes. The checksums fold every match position
  // / parsed field in, so a scanner that skips or misplaces a delimiter
  // fails the gate, not just the timing.
  std::vector<std::string_view> clf_lines;
  {
    std::string_view rest = clf_text;
    while (!rest.empty()) {
      const auto nl = rest.find('\n');
      clf_lines.push_back(rest.substr(0, nl));
      if (nl == std::string_view::npos) break;
      rest.remove_prefix(nl + 1);
    }
  }
  // Pass count sized to scan ~64 MB total regardless of workload scale:
  // the scanner is cheap per byte, and the rerun-stability gate diffs the
  // speedups below, so even --quick runs need timings comfortably above
  // timer and scheduler noise.
  const int scan_passes = static_cast<int>(std::max<std::size_t>(
      4, (std::size_t{64} << 20) /
             std::max<std::size_t>(std::size_t{1}, clf_text.size())));
  const auto scan_all = [&](auto find) {
    std::uint64_t checksum = 0;
    const std::string_view text = clf_text;
    const auto start = now_seconds();
    for (int pass = 0; pass < scan_passes; ++pass) {
      for (std::size_t from = 0;;) {
        const auto at = find(text, '\n', from);
        if (at == std::string_view::npos) break;
        checksum += at;
        from = at + 1;
      }
    }
    return std::pair<double, std::uint64_t>{now_seconds() - start, checksum};
  };
  const auto parse_all = [&](auto parse) {
    std::uint64_t checksum = 0;
    trace::ClfFields fields;
    const auto start = now_seconds();
    for (int pass = 0; pass < scan_passes; ++pass) {
      for (const auto line : clf_lines) {
        if (parse(line, fields)) {
          checksum += static_cast<std::uint64_t>(fields.status) +
                      fields.size + fields.path.size() + fields.host.size();
        }
      }
    }
    return std::pair<double, std::uint64_t>{now_seconds() - start, checksum};
  };
  const auto wide_find = [](std::string_view text, char needle,
                            std::size_t from) {
    return util::find_byte(text, needle, from);
  };
  const auto scalar_find = [](std::string_view text, char needle,
                              std::size_t from) {
    return util::find_byte_scalar(text, needle, from);
  };
  (void)scan_all(scalar_find);
  (void)scan_all(wide_find);
  const auto [scan_scalar_seconds, scan_scalar_sum] = scan_all(scalar_find);
  const auto [scan_wide_seconds, scan_wide_sum] = scan_all(wide_find);
  (void)parse_all(trace::parse_clf_fields_scalar);
  (void)parse_all(trace::parse_clf_fields);
  const auto [fields_scalar_seconds, fields_scalar_sum] =
      parse_all(trace::parse_clf_fields_scalar);
  const auto [fields_wide_seconds, fields_wide_sum] =
      parse_all(trace::parse_clf_fields);

  // Interner: total bytes held for the workload's path strings, against
  // the pre-arena layout that stored every string twice (id->string
  // vector + string->id map keys).
  std::size_t intern_payload = 0;
  for (std::size_t i = 0; i < workload.trace.paths().size(); ++i) {
    intern_payload +=
        workload.trace.paths().str(static_cast<util::InternId>(i)).size();
  }

  // End-to-end replicas of the figure pipelines, timed in-process.
  sim::EvalConfig config;
  config.filter.max_elements = 20;
  struct E2eRun {
    const char* name;
    double seconds;
  };
  std::vector<E2eRun> e2e;
  {
    const auto start = now_seconds();
    (void)bench::eval_directory(workload, 1, config);
    e2e.push_back({"directory_eval", now_seconds() - start});
  }
  {
    volume::ProbabilityVolumeConfig pvc;
    pvc.probability_threshold = 0.3;
    const auto start = now_seconds();
    (void)bench::eval_probability(workload, pvc, config);
    e2e.push_back({"probability_eval", now_seconds() - start});
  }
  {
    const auto start = now_seconds();
    (void)bench::pair_counts(workload);
    e2e.push_back({"pair_counts", now_seconds() - start});
  }

  const bool checks_ok =
      pair_mix.flat_checksum == pair_mix.umap_checksum &&
      eval_mix.flat_checksum == eval_mix.umap_checksum &&
      churn_mix.flat_checksum == churn_mix.umap_checksum &&
      scan_wide_sum == scan_scalar_sum &&
      fields_wide_sum == fields_scalar_sum;

  sim::Table table({"mix", "ops", "flat s", "umap s", "speedup"});
  const auto row = [&table](const char* name, const MixResult& r) {
    table.row({name, std::to_string(r.ops), sim::Table::num(r.flat_seconds, 3),
               sim::Table::num(r.umap_seconds, 3),
               sim::Table::num(r.speedup(), 2)});
  };
  row("pair_counter", pair_mix);
  row("eval_state", eval_mix);
  row("cache_churn", churn_mix);
  table.print(std::cout);
  std::printf("\nloader: %zu lines, fast %.3fs vs legacy %.3fs (%.2fx)\n",
              loader_lines, loader_fast, loader_legacy,
              loader_fast > 0 ? loader_legacy / loader_fast : 0);
  std::printf("scanner: find_byte over %zu bytes x%d, wide %.3fs vs scalar "
              "%.3fs (%.2fx)\n",
              clf_text.size(), scan_passes, scan_wide_seconds,
              scan_scalar_seconds,
              scan_wide_seconds > 0 ? scan_scalar_seconds / scan_wide_seconds
                                    : 0.0);
  std::printf("scanner: clf_fields over %zu lines x%d, wide %.3fs vs scalar "
              "%.3fs (%.2fx)\n",
              clf_lines.size(), scan_passes, fields_wide_seconds,
              fields_scalar_seconds,
              fields_wide_seconds > 0
                  ? fields_scalar_seconds / fields_wide_seconds
                  : 0.0);
  std::printf("intern: %zu paths, %zu payload bytes held once (was twice)\n",
              workload.trace.paths().size(), intern_payload);
  for (const auto& run : e2e) {
    std::printf("e2e %-18s %.3fs\n", run.name, run.seconds);
  }
  std::printf("checksums match: %s\n", checks_ok ? "yes" : "NO");

  auto report = obs::Json::object();
  report.set("benchmark", "hot_paths");
  report.set("quick", quick);
  report.set("requests", requests.size());
  auto micro = obs::Json::object();
  micro.set("pair_counter_mix", mix_json(pair_mix));
  micro.set("eval_state_mix", mix_json(eval_mix));
  micro.set("cache_churn_mix", mix_json(churn_mix));
  report.set("micro", std::move(micro));
  auto loader = obs::Json::object();
  loader.set("lines", loader_lines);
  loader.set("fast_seconds", loader_fast);
  loader.set("legacy_seconds", loader_legacy);
  loader.set("speedup",
             loader_fast > 0 ? loader_legacy / loader_fast : 0.0);
  report.set("loader", std::move(loader));
  auto scanner = obs::Json::object();
  {
    auto fb = obs::Json::object();
    fb.set("bytes", clf_text.size());
    fb.set("wide_seconds", scan_wide_seconds);
    fb.set("scalar_seconds", scan_scalar_seconds);
    fb.set("speedup", scan_wide_seconds > 0
                          ? scan_scalar_seconds / scan_wide_seconds
                          : 0.0);
    fb.set("checksums_match", scan_wide_sum == scan_scalar_sum);
    scanner.set("find_byte", std::move(fb));
    auto cf = obs::Json::object();
    cf.set("lines", clf_lines.size());
    cf.set("wide_seconds", fields_wide_seconds);
    cf.set("scalar_seconds", fields_scalar_seconds);
    cf.set("speedup", fields_wide_seconds > 0
                          ? fields_scalar_seconds / fields_wide_seconds
                          : 0.0);
    cf.set("checksums_match", fields_wide_sum == fields_scalar_sum);
    scanner.set("clf_fields", std::move(cf));
  }
  report.set("scanner", std::move(scanner));
  auto intern = obs::Json::object();
  intern.set("paths", workload.trace.paths().size());
  intern.set("payload_bytes", intern_payload);
  intern.set("bytes_saved_vs_double_storage", intern_payload);
  report.set("intern", std::move(intern));
  auto replicas = obs::Json::array();
  for (const auto& run : e2e) {
    auto j = obs::Json::object();
    j.set("name", run.name);
    j.set("wall_seconds", run.seconds);
    replicas.push_back(std::move(j));
  }
  report.set("e2e_replicas", std::move(replicas));
  if (!before_arg.empty()) {
    // Externally measured figure-binary wall clocks (same args/machine),
    // recorded before and after the swap.
    auto binaries = obs::Json::array();
    for (const auto& [name, before_secs] : before_arg) {
      auto j = obs::Json::object();
      j.set("name", name);
      j.set("before_seconds", before_secs);
      for (const auto& [after_name, after_secs] : after_arg) {
        if (after_name != name) continue;
        j.set("after_seconds", after_secs);
        j.set("speedup", after_secs > 0 ? before_secs / after_secs : 0.0);
      }
      binaries.push_back(std::move(j));
    }
    report.set("e2e_binaries", std::move(binaries));
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << report.dump(2) << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  observability.note("hot_paths", std::move(report));
  return checks_ok ? 0 : 1;
}
