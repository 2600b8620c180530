// Whole-run checkpoint/resume equivalence: interrupt an evaluation run at
// an arbitrary request, snapshot, and prove the warm-started continuation
// produces an EvalResult bit-identical to the uninterrupted run — inline
// (one thread) and sharded, directory and probability schemes, across
// thread counts.
// Also covers the canonical-bytes guarantee (the snapshot does not depend
// on the saving run's thread count).
#include "persist/eval_state.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "server/meta.h"
#include "sim/parallel_eval.h"
#include "sim/prediction_eval.h"
#include "trace/profiles.h"
#include "trace/stream.h"
#include "volume/directory.h"
#include "volume/probability.h"

namespace piggyweb::persist {
namespace {

const trace::SyntheticWorkload& workload() {
  static const trace::SyntheticWorkload w =
      trace::generate(trace::aiusa_profile(0.03));
  return w;
}

sim::EvalConfig eval_config() {
  sim::EvalConfig config;
  config.filter.max_elements = 20;
  config.filter.min_access_count = 2;
  config.use_rpv = true;
  config.rpv.timeout = 30;
  config.min_piggyback_interval = 15;
  return config;
}

volume::DirectoryVolumeConfig directory_config() {
  volume::DirectoryVolumeConfig config;
  config.level = 1;
  return config;
}

void expect_identical(const sim::EvalResult& a, const sim::EvalResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.predicted_requests, b.predicted_requests);
  EXPECT_EQ(a.piggyback_messages, b.piggyback_messages);
  EXPECT_EQ(a.piggyback_elements, b.piggyback_elements);
  EXPECT_EQ(a.predictions_made, b.predictions_made);
  EXPECT_EQ(a.predictions_true, b.predictions_true);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
}

// Serial directory-scheme baseline: the uninterrupted result.
sim::EvalResult serial_baseline(const sim::EvalConfig& config) {
  volume::DirectoryVolumes volumes(directory_config());
  volumes.bind_paths(workload().trace.paths());
  server::TraceMetaOracle meta(workload().trace);
  return sim::PredictionEvaluator(config).run(workload().trace, volumes, meta);
}

// Replays [begin, end) of the workload through the one range entry point
// with `hooks`; chunk_requests is small so sharded runs cross several
// chunk barriers even on the tiny trace.
sim::EvalResult run_range(const sim::EvalConfig& config,
                          const sim::ShardedProviderSpec& spec,
                          std::size_t begin, std::size_t end,
                          std::size_t threads, sim::EvalResumeHooks& hooks) {
  const auto& trace = workload().trace;
  trace::MaterializedTraceView view(trace);
  server::TraceMetaOracle meta(trace);
  sim::ParallelEvalConfig par;
  par.threads = threads;
  par.chunk_requests = 256;
  return sim::ParallelEvaluator(config, par)
      .run_range(view, spec, meta, begin, end, /*publish=*/false, &hooks);
}

// Capture a snapshot of a directory run at `threads` stopped after `mid`.
EvalSnapshot capture_directory(const sim::EvalConfig& config,
                               std::size_t mid, std::size_t threads) {
  const auto& trace = workload().trace;
  const auto dvc = directory_config();
  std::optional<EvalSnapshot> captured;
  sim::EvalResumeHooks hooks;
  hooks.capture =
      [&](const core::VolumeProvider& provider,
          std::span<sim::detail::MetricAccumulator* const> accumulators) {
        EXPECT_EQ(accumulators.size(), threads);
        const auto* directory =
            dynamic_cast<const volume::DirectoryVolumes*>(&provider);
        ASSERT_NE(directory, nullptr);
        std::vector<const sim::detail::MetricAccumulator*> accs(
            accumulators.begin(), accumulators.end());
        captured = capture_eval_state(
            directory, accs, make_eval_config_echo("directory", config, &dvc),
            mid, trace.size(), trace_fingerprint(trace));
      };
  run_range(config, sim::shard_directory_volumes(dvc, trace), 0, mid, threads,
            hooks);
  return std::move(captured).value();  // throws if capture never ran
}

// Warm-start from `snapshot` at `threads` and finish the directory run.
sim::EvalResult resume_directory(const sim::EvalConfig& config,
                                 const EvalSnapshot& snapshot,
                                 std::size_t threads) {
  EvalRestore restore(snapshot);
  auto hooks = restore.hooks();
  return run_range(config,
                   sim::shard_directory_volumes(directory_config(),
                                                workload().trace),
                   restore.next_request(), workload().trace.size(), threads,
                   hooks);
}

TEST(CheckpointResume, SerialDirectoryMatchesUninterrupted) {
  const auto config = eval_config();
  const auto& trace = workload().trace;
  ASSERT_GT(trace.size(), 400u);
  const auto baseline = serial_baseline(config);

  for (const std::size_t mid :
       {trace.size() / 7, trace.size() / 2, trace.size() - 1}) {
    const auto snapshot = capture_directory(config, mid, 1);

    // The container round trips exactly: serialize -> parse -> serialize
    // is a byte identity.
    const auto bytes = serialize_eval_snapshot(snapshot);
    std::string error;
    const auto parsed = parse_eval_snapshot(bytes, error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(serialize_eval_snapshot(*parsed), bytes);
    EXPECT_EQ(parsed->next_request, mid);

    // Warm-start a fresh one-thread run and finish it.
    expect_identical(baseline, resume_directory(config, *parsed, 1));
  }
}

TEST(CheckpointResume, SnapshotBytesAreThreadCountInvariant) {
  const auto config = eval_config();
  const auto mid = workload().trace.size() / 2;
  const auto one_thread_bytes =
      serialize_eval_snapshot(capture_directory(config, mid, 1));
  for (const std::size_t threads : {2u, 3u}) {
    const auto sharded_bytes =
        serialize_eval_snapshot(capture_directory(config, mid, threads));
    EXPECT_EQ(sharded_bytes, one_thread_bytes) << threads << " threads";
  }
}

TEST(CheckpointResume, CrossThreadCountResumeMatchesUninterrupted) {
  const auto config = eval_config();
  const auto mid = workload().trace.size() / 3;
  const auto baseline = serial_baseline(config);

  // Save under one thread count, resume under others (including one).
  const auto snapshot = capture_directory(config, mid, 2);
  for (const std::size_t threads : {1u, 4u}) {
    expect_identical(baseline, resume_directory(config, snapshot, threads));
  }
}

TEST(CheckpointResume, ProbabilitySchemeRoundTrip) {
  sim::EvalConfig config;
  config.filter.max_elements = 10;
  const auto& trace = workload().trace;
  const auto mid = trace.size() / 2;
  server::TraceMetaOracle meta(trace);

  // A small hand-built volume set shared by all runs (the tool rebuilds it
  // deterministically from the trace; the snapshot stores no volume data).
  volume::ProbabilityVolumeSet set;
  for (util::InternId r = 0; r < 20; ++r) {
    set.add_volume(r, {{(r + 1) % 20, 0.8, 0.5}, {(r + 7) % 20, 0.4, 0.2}});
  }
  const auto spec = sim::shard_probability_volumes(&set, 10);

  volume::ProbabilityVolumes serial_provider(&set, 10);
  const auto baseline =
      sim::PredictionEvaluator(config).run(trace, serial_provider, meta);

  // Stop at mid on one thread, snapshot (no volumes for the probability
  // scheme).
  std::optional<EvalSnapshot> snapshot;
  sim::EvalResumeHooks capture;
  capture.capture =
      [&](const core::VolumeProvider& /*provider*/,
          std::span<sim::detail::MetricAccumulator* const> accumulators) {
        std::vector<const sim::detail::MetricAccumulator*> accs(
            accumulators.begin(), accumulators.end());
        snapshot = capture_eval_state(
            nullptr, accs,
            make_eval_config_echo("probability", config, nullptr, &set), mid,
            trace.size(), trace_fingerprint(trace));
      };
  run_range(config, spec, 0, mid, 1, capture);
  ASSERT_TRUE(snapshot.has_value());
  const auto bytes = serialize_eval_snapshot(*snapshot);
  std::string error;
  const auto parsed = parse_eval_snapshot(bytes, error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(parsed->volumes.empty());
  EXPECT_NE(parsed->config.volume_set_hash, 0u);
  EXPECT_EQ(serialize_eval_snapshot(*parsed), bytes);

  // Resume sharded against the same set.
  EvalRestore restore(*parsed);
  auto hooks = restore.hooks();
  expect_identical(baseline, run_range(config, spec, restore.next_request(),
                                       trace.size(), 2, hooks));
}

TEST(CheckpointResume, ProbabilityEchoPinsTheVolumeSet) {
  // The probability scheme's volumes come from training flags the eval
  // config never sees; the echo's set hash is what tells two trainings
  // apart, so a resume under a different p_t is refused.
  const sim::EvalConfig config;
  const auto echo_for = [&](double probability) {
    volume::ProbabilityVolumeSet set;
    set.add_volume(0, {{1, probability, 0.5}});
    return make_eval_config_echo("probability", config, nullptr, &set);
  };
  EXPECT_EQ(echo_for(0.8), echo_for(0.8));
  EXPECT_FALSE(echo_for(0.8) == echo_for(0.4));
  EXPECT_EQ(make_eval_config_echo("directory", config, nullptr)
                .volume_set_hash,
            0u);
}

TEST(InlineEval, OneThreadRunBuildsNoPool) {
  // The inline path builds no ThreadPool, so a one-thread run leaves no
  // parallel_eval.pool.* metric behind; a two-thread run does.
  const auto config = eval_config();
  const auto pool_metrics = [&](std::size_t threads) {
    obs::Registry registry;
    obs::set_global_metrics(&registry);
    sim::EvalResumeHooks hooks;
    run_range(config,
              sim::shard_directory_volumes(directory_config(),
                                           workload().trace),
              0, workload().trace.size(), threads, hooks);
    obs::set_global_metrics(nullptr);
    return registry.to_json().find("parallel_eval.pool.") !=
           std::string::npos;
  };
  EXPECT_FALSE(pool_metrics(1));
  EXPECT_TRUE(pool_metrics(2));
}

TEST(CheckpointResume, StructurallyInvalidSnapshotsAreRejected) {
  const auto config = eval_config();
  const auto mid = workload().trace.size() / 2;
  auto snapshot = capture_directory(config, mid, 1);

  std::string error;
  auto broken = snapshot;
  broken.next_request = broken.total_requests + 1;
  EXPECT_FALSE(
      parse_eval_snapshot(serialize_eval_snapshot(broken), error).has_value());

  broken = snapshot;
  broken.config.scheme = "bogus";
  EXPECT_FALSE(
      parse_eval_snapshot(serialize_eval_snapshot(broken), error).has_value());

  // The probability scheme must not carry volume images.
  broken = snapshot;
  broken.config.scheme = "probability";
  EXPECT_FALSE(
      parse_eval_snapshot(serialize_eval_snapshot(broken), error).has_value());

  // Non-canonical volume numbering is rejected.
  broken = snapshot;
  if (broken.volumes.size() >= 2) {
    std::swap(broken.volumes.front(), broken.volumes.back());
    EXPECT_FALSE(parse_eval_snapshot(serialize_eval_snapshot(broken), error)
                     .has_value());
  }
}

TEST(CheckpointResume, SaveLoadFileRoundTrip) {
  const auto config = eval_config();
  const auto snapshot =
      capture_directory(config, workload().trace.size() / 2, 1);
  const std::string path = "checkpoint_test_roundtrip.snap";
  std::string error;
  ASSERT_TRUE(save_eval_snapshot(path, snapshot, error)) << error;
  const auto loaded = load_eval_snapshot(path, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(serialize_eval_snapshot(*loaded),
            serialize_eval_snapshot(snapshot));
  std::remove(path.c_str());

  EXPECT_FALSE(load_eval_snapshot("missing_checkpoint.snap", error)
                   .has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace piggyweb::persist
