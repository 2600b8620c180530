// Absolute goldens for the §3.1 prediction metrics: the nine EvalResult
// counters for a small grid of seeded synthetic workloads and
// scheme/filter configurations, asserted exactly. Every other evaluator
// test compares two paths against each other (serial vs parallel, t1 vs
// t4, stream vs materialized); these pin the values themselves, so a
// change to shared code that moves every path the same way still fails
// here. Each case runs through PredictionEvaluator::run and through
// ParallelEvaluator::run at 1 and 4 threads.
#include <array>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "server/meta.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
#include "trace/profiles.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"
#include "volume/probability.h"

namespace piggyweb {
namespace {

// requests, predicted_requests, piggyback_messages, piggyback_elements,
// predictions_made, predictions_true, prev_occurrence_within_horizon,
// prev_occurrence_within_window, updated_by_piggyback.
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

std::string render(const Counters& c) {
  std::string out = "{";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(c[i]);
  }
  out += "}";
  return out;
}

const trace::SyntheticWorkload& aiusa() {
  static const trace::SyntheticWorkload w =
      trace::generate(trace::aiusa_profile(0.03));
  return w;
}

const trace::SyntheticWorkload& sun() {
  static const trace::SyntheticWorkload w =
      trace::generate(trace::sun_profile(0.0005));
  return w;
}

// The paper's §3.2 controls: maxpiggy 20, RPV 30 s, min-interval 15 s.
sim::EvalConfig rpv_interval_config() {
  sim::EvalConfig config;
  config.filter.max_elements = 20;
  config.use_rpv = true;
  config.rpv.timeout = 30;
  config.min_piggyback_interval = 15;
  return config;
}

// Access-count filter with a longer prediction window, no dynamic
// suppression.
sim::EvalConfig minfreq_config() {
  sim::EvalConfig config;
  config.prediction_window = 900;
  config.filter.max_elements = 8;
  config.filter.min_access_count = 10;
  return config;
}

void expect_all_paths(const Counters& serial, const Counters& t1,
                      const Counters& t4, const Counters& golden) {
  EXPECT_EQ(serial, golden) << "serial: " << render(serial);
  EXPECT_EQ(t1, golden) << "threads=1: " << render(t1);
  EXPECT_EQ(t4, golden) << "threads=4: " << render(t4);
}

Counters run_parallel(const trace::SyntheticWorkload& w,
                      const sim::EvalConfig& config,
                      const sim::ShardedProviderSpec& spec,
                      const server::TraceMetaOracle& meta,
                      std::size_t threads) {
  sim::ParallelEvalConfig par;
  par.threads = threads;
  return counters(
      sim::ParallelEvaluator(config, par).run(w.trace, spec, meta));
}

void check_directory(const trace::SyntheticWorkload& w,
                     const sim::EvalConfig& config,
                     const volume::DirectoryVolumeConfig& dvc,
                     const Counters& golden) {
  server::TraceMetaOracle meta(w.trace);
  volume::DirectoryVolumes volumes(dvc);
  volumes.bind_paths(w.trace.paths());
  const auto serial =
      counters(sim::PredictionEvaluator(config).run(w.trace, volumes, meta));
  const auto spec = sim::shard_directory_volumes(dvc, w.trace);
  expect_all_paths(serial, run_parallel(w, config, spec, meta, 1),
                   run_parallel(w, config, spec, meta, 4), golden);
}

void check_directory(const trace::SyntheticWorkload& w,
                     const sim::EvalConfig& config, int level,
                     const Counters& golden) {
  volume::DirectoryVolumeConfig dvc;
  dvc.level = level;
  check_directory(w, config, dvc, golden);
}

void check_probability(const trace::SyntheticWorkload& w,
                       const sim::EvalConfig& config,
                       volume::ProbabilityVolumeConfig pvc,
                       const Counters& golden) {
  pvc.window = config.prediction_window;
  volume::PairCounterConfig pcc;
  pcc.window = config.prediction_window;
  const auto counts = volume::PairCounterBuilder(pcc).build(w.trace, 5);
  const auto set = volume::build_probability_volumes(w.trace, counts, pvc);
  server::TraceMetaOracle meta(w.trace);
  volume::ProbabilityVolumes provider(&set, pvc.max_candidates);
  const auto serial =
      counters(sim::PredictionEvaluator(config).run(w.trace, provider, meta));
  const auto spec = sim::shard_probability_volumes(&set, pvc.max_candidates);
  expect_all_paths(serial, run_parallel(w, config, spec, meta, 1),
                   run_parallel(w, config, spec, meta, 4), golden);
}

TEST(EvalGolden, DirectoryLevel0RpvMinInterval) {
  check_directory(aiusa(), rpv_interval_config(), 0,
                  {5430, 2130, 1181, 23571, 12847, 1849, 770, 573, 165});
}

TEST(EvalGolden, DirectoryLevel1RpvMinInterval) {
  check_directory(aiusa(), rpv_interval_config(), 1,
                  {5430, 2745, 1404, 18167, 13923, 2471, 770, 573, 67});
}

TEST(EvalGolden, DirectoryLevel2RpvMinInterval) {
  check_directory(aiusa(), rpv_interval_config(), 2,
                  {5430, 2745, 1409, 10887, 8818, 2469, 770, 573, 65});
}

TEST(EvalGolden, DirectoryMinFreq) {
  check_directory(sun(), minfreq_config(), 1,
                  {10000, 6273, 9993, 77565, 20726, 4765, 3188, 2217, 611});
}

// Size and type limits: only the candidates a wireless-style proxy would
// cache (no images, nothing over 8 KiB) fill the 20 slots.
TEST(EvalGolden, DirectorySizeAndTypeFilter) {
  auto config = rpv_interval_config();
  config.filter.max_size = 8 * 1024;
  config.filter.allow_image = false;
  check_directory(aiusa(), config, 1,
                  {5430, 479, 1276, 6202, 4708, 465, 770, 573, 6});
}

// A candidate budget of 8 under a strict access filter: the budget runs
// out long before 20 elements are kept, and the self-echo and the
// filtered-out candidates still count against it.
TEST(EvalGolden, DirectoryCandidateBudgetBeforeMaxElements) {
  auto config = rpv_interval_config();
  config.filter.min_access_count = 10;
  volume::DirectoryVolumeConfig dvc;
  dvc.level = 1;
  dvc.max_candidates = 8;
  check_directory(sun(), config, dvc,
                  {10000, 4568, 3703, 25825, 16922, 3620, 3188, 1849, 675});
}

// maxpiggy 0: volumes are maintained but no message is ever sent.
TEST(EvalGolden, DirectoryMaxElementsZero) {
  auto config = rpv_interval_config();
  config.filter.max_elements = 0;
  check_directory(aiusa(), config, 1, {5430, 0, 0, 0, 0, 0, 770, 573, 0});
}

// The fig2/fig3 sweep point: no maxpiggy, no dynamic suppression, an
// access filter of 50, 200 candidates, level 1 (T = 5 and 15 min).
TEST(EvalGolden, DirectoryFig2Fig3Sweep) {
  sim::EvalConfig config;
  config.filter.min_access_count = 50;
  check_directory(sun(), config, 1,
                  {10000, 6959, 9993, 100381, 27037, 5581, 3188, 1849, 881});
  config.prediction_window = 900;
  check_directory(sun(), config, 1,
                  {10000, 7208, 9993, 100381, 23672, 5551, 3188, 2217, 661});
}

TEST(EvalGolden, ProbabilityThresholdAndEffectiveness) {
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.2;
  pvc.effectiveness_threshold = 0.1;
  check_probability(aiusa(), rpv_interval_config(), pvc,
                    {5430, 4139, 1443, 15344, 11572, 3650, 770, 573, 160});
}

TEST(EvalGolden, ProbabilityThresholdOnlyCombinedPrefix) {
  volume::ProbabilityVolumeConfig pvc;
  pvc.probability_threshold = 0.4;
  pvc.combine_prefix_level = 1;
  check_probability(sun(), minfreq_config(), pvc,
                    {10000, 4890, 7680, 14487, 6359, 3603, 3188, 2217, 441});
}

}  // namespace
}  // namespace piggyweb
