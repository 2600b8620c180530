// Seeded differential test: the evaluators, which pull a volume's
// candidates through the filter only for messages that will be sent,
// against an eager reference loop that builds every candidate list first.
//
// The reference is written here, from the eager building blocks:
// VolumeProvider::on_request_batch, core::apply_filter_into over the
// VolumePrediction, and MetricAccumulator::observe on the filtered
// message — the loop that suppresses nothing before the filter runs. Each
// trial draws a small random trace, a random ProxyFilter (every field,
// including a non-empty static RPV and enabled = false) and a random
// EvalConfig (RPV, min-interval, small candidate budgets), and requires
// PredictionEvaluator and ParallelEvaluator at 1, 2 and 4 threads to
// match the reference counter for counter. A second test round-trips the
// accumulator's exported state image through source-sharded imports.
#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/meta.h"
#include "sim/eval_core.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
#include "trace/stream.h"
#include "util/rng.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggyweb {
namespace {

constexpr int kTrials = 120;

// "<prefix><n>", built by appending (GCC 12 at -O3 reports a false
// -Wrestrict on chained operator+).
std::string numbered(const char* prefix, std::uint64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

// With `idle_sources`, a source name that makes no request is interned
// before each active one, so the source ids have gaps, and the first
// request comes from the largest id in the table.
trace::Trace random_trace(util::Rng& rng, bool idle_sources = false) {
  static constexpr const char* kExtensions[] = {".html", ".gif", ".txt"};
  std::vector<std::string> paths;
  const auto resources = rng.below(37) + 4;
  for (std::uint64_t i = 0; i < resources; ++i) {
    auto path = numbered("/d", rng.below(3));
    path += numbered("/e", rng.below(3));
    path += numbered("/r", i);
    path += kExtensions[rng.below(3)];
    paths.push_back(std::move(path));
  }
  const auto servers = rng.below(3) + 1;
  const auto sources = rng.below(12) + 1;
  const auto requests = rng.between(50, 1500);
  trace::Trace trace;
  if (idle_sources) {
    for (std::uint64_t i = 0; i < sources; ++i) {
      trace.sources().intern(numbered("idle", i));
      trace.sources().intern(numbered("p", i));
    }
  }
  util::Seconds now = 0;
  for (std::int64_t i = 0; i < requests; ++i) {
    now += rng.between(0, 24);
    const auto source =
        idle_sources && i == 0 ? sources - 1 : rng.below(sources);
    trace.add({now}, numbered("p", source),
              numbered("h", rng.below(servers)),
              paths[rng.below(paths.size())], trace::Method::kGet, 200,
              rng.below(20000), rng.between(-1, now));
  }
  return trace;
}

core::ProxyFilter random_filter(util::Rng& rng) {
  core::ProxyFilter filter;
  filter.enabled = !rng.chance(0.1);
  if (rng.chance(0.8)) {
    filter.max_elements = static_cast<std::uint32_t>(rng.below(26));
  }
  if (rng.chance(0.5)) {
    for (auto n = rng.between(1, 4); n > 0; --n) {
      filter.rpv.push_back(static_cast<core::VolumeId>(rng.below(12)));
    }
  }
  if (rng.chance(0.5)) filter.probability_threshold = rng.uniform() * 0.8;
  if (rng.chance(0.4)) filter.max_size = rng.below(20000);
  filter.allow_html = !rng.chance(0.2);
  filter.allow_image = !rng.chance(0.3);
  filter.allow_other = !rng.chance(0.2);
  if (rng.chance(0.5)) {
    filter.min_access_count = static_cast<std::uint32_t>(rng.below(12));
  }
  return filter;
}

sim::EvalConfig random_config(util::Rng& rng) {
  sim::EvalConfig config;
  config.prediction_window = rng.between(10, 400);
  config.cache_horizon = config.prediction_window + rng.between(1, 2000);
  config.filter = random_filter(rng);
  config.use_rpv = rng.chance(0.6);
  config.rpv.timeout = rng.between(1, 120);
  config.rpv.max_entries = static_cast<std::size_t>(rng.between(1, 6));
  if (rng.chance(0.6)) config.min_piggyback_interval = rng.between(1, 60);
  return config;
}

using Counters = std::array<std::uint64_t, 9>;

Counters counters(const sim::EvalResult& r) {
  return {r.requests,
          r.predicted_requests,
          r.piggyback_messages,
          r.piggyback_elements,
          r.predictions_made,
          r.predictions_true,
          r.prev_occurrence_within_horizon,
          r.prev_occurrence_within_window,
          r.updated_by_piggyback};
}

// The eager loop: every request's full candidate list is built and
// filtered before the accumulator sees the message.
Counters eager_reference(const trace::Trace& trace,
                         core::VolumeProvider& provider,
                         const sim::EvalConfig& config,
                         const core::MetaOracle& meta) {
  constexpr std::size_t kBatch = 64;
  sim::detail::MetricAccumulator acc(config);
  const trace::PathTypeTable types(trace.paths());
  const auto& requests = trace.requests();
  std::vector<core::VolumeRequest> batch;
  std::vector<core::VolumePrediction> predictions;
  core::PiggybackMessage message;
  std::vector<util::InternId> resources;
  for (std::size_t base = 0; base < requests.size(); base += kBatch) {
    const auto window = std::span(requests).subspan(
        base, std::min(kBatch, requests.size() - base));
    batch.clear();
    for (const auto& req : window) {
      batch.push_back(
          sim::detail::make_volume_request(req, types.type_of(req.path)));
    }
    provider.on_request_batch(batch, predictions);
    for (std::size_t i = 0; i < window.size(); ++i) {
      core::apply_filter_into(predictions[i], batch[i], config.filter, meta,
                              message);
      resources.clear();
      for (const auto& element : message.elements) {
        resources.push_back(element.resource);
      }
      acc.observe(window[i], message.volume, resources);
    }
  }
  return counters(acc.result());
}

Counters run_parallel(const trace::Trace& trace,
                      const sim::ShardedProviderSpec& spec,
                      const sim::EvalConfig& config,
                      const core::MetaOracle& meta, std::size_t threads,
                      std::size_t chunk) {
  sim::ParallelEvalConfig par;
  par.threads = threads;
  par.chunk_requests = chunk;
  return counters(sim::ParallelEvaluator(config, par).run(trace, spec, meta));
}

TEST(EvalDifferential, LazyEvaluatorsMatchEagerReference) {
  int trials_sending = 0;  // trials whose reference sent a message
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    util::Rng rng(0x51ab1e + static_cast<std::uint64_t>(trial));
    auto trace = random_trace(rng);
    trace.sort_by_time();
    const auto config = random_config(rng);
    const server::TraceMetaOracle meta(trace);
    const auto chunk = static_cast<std::size_t>(rng.between(16, 400));

    if (rng.chance(0.5)) {
      volume::DirectoryVolumeConfig dvc;
      dvc.level = static_cast<int>(rng.between(0, 2));
      dvc.max_candidates = static_cast<std::size_t>(rng.between(0, 30));
      dvc.max_volume_elements = static_cast<std::size_t>(rng.between(1, 40));
      dvc.large_size_threshold = rng.below(20000);
      volume::DirectoryVolumes eager(dvc);
      eager.bind_paths(trace.paths());
      const auto expected = eager_reference(trace, eager, config, meta);
      if (expected[2] > 0) ++trials_sending;
      volume::DirectoryVolumes lazy(dvc);
      lazy.bind_paths(trace.paths());
      EXPECT_EQ(counters(sim::PredictionEvaluator(config).run(trace, lazy,
                                                               meta)),
                expected);
      const auto spec = sim::shard_directory_volumes(dvc, trace);
      for (const std::size_t threads : {1u, 2u, 4u}) {
        EXPECT_EQ(run_parallel(trace, spec, config, meta, threads, chunk),
                  expected)
            << threads << " threads";
      }
    } else {
      volume::PairCounterConfig pcc;
      pcc.window = config.prediction_window;
      const auto pair_counts = volume::PairCounterBuilder(pcc).build(
          trace, static_cast<std::uint64_t>(rng.between(1, 4)));
      volume::ProbabilityVolumeConfig pvc;
      pvc.probability_threshold = 0.05 + rng.uniform() * 0.5;
      if (rng.chance(0.5)) pvc.effectiveness_threshold = rng.uniform() * 0.3;
      pvc.window = config.prediction_window;
      const auto set =
          volume::build_probability_volumes(trace, pair_counts, pvc);
      const auto max_candidates =
          static_cast<std::size_t>(rng.between(0, 30));
      volume::ProbabilityVolumes eager(&set, max_candidates);
      const auto expected = eager_reference(trace, eager, config, meta);
      if (expected[2] > 0) ++trials_sending;
      volume::ProbabilityVolumes lazy(&set, max_candidates);
      EXPECT_EQ(counters(sim::PredictionEvaluator(config).run(trace, lazy,
                                                               meta)),
                expected);
      const auto spec = sim::shard_probability_volumes(&set, max_candidates);
      EXPECT_EQ(run_parallel(trace, spec, config, meta, 1, chunk), expected);
      EXPECT_EQ(run_parallel(trace, spec, config, meta, 4, chunk), expected);
    }
  }
  // The draws must leave enough trials that send something, or the
  // comparison is vacuous.
  EXPECT_GE(trials_sending, kTrials / 4);
}

// The image with every table sorted by key, so images exported from
// different accumulators compare as sets.
sim::detail::EvalStateImage key_sorted(sim::detail::EvalStateImage image) {
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(image.resource_state.begin(), image.resource_state.end(), by_key);
  std::sort(image.last_piggy.begin(), image.last_piggy.end(), by_key);
  std::sort(image.rpv.begin(), image.rpv.end(), by_key);
  return image;
}

// A replayed accumulator's state, exported, imported into 1 and 3
// accumulators split by source_shard, and re-exported, is the same image:
// no entry is lost, duplicated or moved to another source, including for
// idle source ids and the largest id in the table.
TEST(EvalDifferential, StateImageRoundTripsThroughSourceShards) {
  constexpr int kRoundTripTrials = 40;
  int trials_with_rpv = 0;
  int trials_with_last_piggy = 0;
  for (int trial = 0; trial < kRoundTripTrials; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    util::Rng rng(0x7a11ed + static_cast<std::uint64_t>(trial));
    auto trace = random_trace(rng, /*idle_sources=*/true);
    trace.sort_by_time();
    const auto config = random_config(rng);
    const server::TraceMetaOracle meta(trace);
    volume::DirectoryVolumeConfig dvc;
    dvc.level = static_cast<int>(rng.between(0, 2));
    volume::DirectoryVolumes provider(dvc);
    provider.bind_paths(trace.paths());
    trace::MaterializedTraceView view(trace);
    sim::detail::MetricAccumulator replayed(config);
    sim::detail::replay_inline(config, view, provider, meta, 0, trace.size(),
                               replayed);
    sim::detail::EvalStateImage original;
    replayed.export_state(original);
    original = key_sorted(std::move(original));
    if (!original.rpv.empty()) ++trials_with_rpv;
    if (!original.last_piggy.empty()) ++trials_with_last_piggy;
    const auto largest = trace.sources().size() - 1;
    ASSERT_FALSE(original.resource_state.empty());
    EXPECT_EQ(original.resource_state.back().first >> 32, largest);

    for (const std::size_t shards : {1u, 3u}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      std::vector<sim::detail::MetricAccumulator> parts(
          shards, sim::detail::MetricAccumulator(config));
      for (std::size_t s = 0; s < shards; ++s) {
        parts[s].import_state(
            original,
            [s, shards](util::InternId source) {
              return sim::source_shard(source, shards) == s;
            },
            /*take_counters=*/s == 0);
      }
      sim::detail::EvalStateImage merged;
      for (const auto& part : parts) part.export_state(merged);
      merged = key_sorted(std::move(merged));
      EXPECT_EQ(counters(merged.counters), counters(original.counters));
      EXPECT_EQ(merged.resource_state, original.resource_state);
      EXPECT_EQ(merged.last_piggy, original.last_piggy);
      EXPECT_EQ(merged.rpv, original.rpv);
    }
  }
  // Every table must be non-empty in some trials, or its round trip is
  // vacuous.
  EXPECT_GE(trials_with_rpv, kRoundTripTrials / 4);
  EXPECT_GE(trials_with_last_piggy, kRoundTripTrials / 4);
}

}  // namespace
}  // namespace piggyweb
