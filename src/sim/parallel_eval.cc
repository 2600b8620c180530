#include "sim/parallel_eval.h"

#include <algorithm>
#include <vector>

#include "obs/pool_metrics.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/eval_core.h"
#include "trace/stream.h"
#include "util/expect.h"
#include "util/parallel.h"
#include "util/thread_pool.h"

namespace piggyweb::sim {

ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, util::StringTableView paths) {
  return {[config, paths] {
    auto provider = std::make_unique<volume::DirectoryVolumes>(config);
    provider->bind_paths(paths);
    return provider;
  }};
}

ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, const trace::Trace& trace) {
  return shard_directory_volumes(config,
                                 util::StringTableView(trace.paths()));
}

ShardedProviderSpec shard_probability_volumes(
    const volume::ProbabilityVolumeSet* set, std::size_t max_candidates) {
  PW_EXPECT(set != nullptr);
  // Lookups into the shared immutable set are read-only, so every replica
  // may wrap the same table.
  return {[set, max_candidates] {
    return std::make_unique<volume::ProbabilityVolumes>(set, max_candidates);
  }};
}

namespace {

// One worker's replica: the provider sees every request, the accumulator
// only its own sources'. Cache-line aligned, because each worker writes
// its accumulator and scratch on every request it owns.
struct alignas(64) Worker {
  std::unique_ptr<core::VolumeProvider> provider;
  detail::MetricAccumulator acc;
  detail::ProviderScratch scratch;
};

// The N-worker path, one chunk-sized window at a time: the calling thread
// decodes the window, then worker w replays all of it through its replica
// and evaluates the requests whose source source_shard maps to w.
void replay_replicated(const EvalConfig& config, std::size_t chunk,
                       trace::TraceView& view, const core::MetaOracle& meta,
                       std::size_t range_begin, std::size_t range_end,
                       std::span<Worker> workers) {
  const std::size_t shards = workers.size();
  // Pool timing metrics are scheduling-dependent, hence non-deterministic;
  // null registry -> null observer -> the pool's fast path.
  const auto pool_metrics =
      obs::make_pool_metrics(obs::global_metrics(), "parallel_eval.pool");
  util::ThreadPool pool(shards, pool_metrics.get());

  const trace::PathTypeTable types(view.paths());
  util::Seconds last_time = detail::kNever;

  for (std::size_t begin = range_begin; begin < range_end; begin += chunk) {
    const auto end = std::min(begin + chunk, range_end);
    // A subspan for materialized traces, a bounded decode off the mapped
    // columns for streaming ones; workers only read it.
    const auto window =
        detail::sorted_window(view, begin, end - begin, last_time);
    util::parallel_shards(pool, shards, [&](std::size_t w) {
      OBS_SPAN("parallel_eval.worker");
      auto& worker = workers[w];
      detail::replay_window(window, types, *worker.provider, config.filter,
                            meta, worker.scratch, worker.acc,
                            [shards, w](const trace::Request& req) {
                              return source_shard(req.source, shards) == w;
                            });
    });
    if (config.on_progress) {
      config.on_progress(
          {end - range_begin, range_end - range_begin, pool.queue_depth()});
    }
  }
}

}  // namespace

EvalResult ParallelEvaluator::run(const trace::Trace& trace,
                                  const ShardedProviderSpec& spec,
                                  const core::MetaOracle& meta,
                                  ParallelEvalStats* stats) {
  trace::MaterializedTraceView view(trace);
  return run(view, spec, meta, stats);
}

EvalResult ParallelEvaluator::run(trace::TraceView& view,
                                  const ShardedProviderSpec& spec,
                                  const core::MetaOracle& meta,
                                  ParallelEvalStats* stats) {
  return run_range(view, spec, meta, 0, view.request_count(),
                   /*publish=*/true, /*hooks=*/nullptr, stats);
}

EvalResult ParallelEvaluator::run_range(trace::TraceView& view,
                                        const ShardedProviderSpec& spec,
                                        const core::MetaOracle& meta,
                                        std::size_t range_begin,
                                        std::size_t range_end, bool publish,
                                        const EvalResumeHooks* hooks,
                                        ParallelEvalStats* stats) {
  OBS_SPAN("parallel_eval.run");
  PW_EXPECT(range_begin <= range_end && range_end <= view.request_count());
  PW_EXPECT(config_.cache_horizon > config_.prediction_window);
  PW_EXPECT(spec.make != nullptr);

  const std::size_t shards =
      par_.threads != 0 ? par_.threads : util::ThreadPool::hardware_threads();
  const std::size_t chunk = par_.chunk_requests != 0
                                ? par_.chunk_requests
                                : std::size_t{1} << 15;

  // One replica + accumulator per worker; every replica is warm before
  // the first accumulator is seeded, as the hooks contract promises.
  std::vector<Worker> workers;
  workers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    workers.push_back({spec.make(), detail::MetricAccumulator(config_), {}});
    PW_ENSURE(workers.back().provider != nullptr);
    if (hooks != nullptr && hooks->warm_provider) {
      hooks->warm_provider(*workers.back().provider);
    }
  }
  if (hooks != nullptr && hooks->seed_accumulator) {
    for (std::size_t s = 0; s < shards; ++s) {
      hooks->seed_accumulator(workers[s].acc, s, shards);
    }
  }

  if (shards == 1) {
    detail::replay_inline(config_, view, *workers[0].provider, meta,
                          range_begin, range_end, workers[0].acc);
  } else {
    replay_replicated(config_, chunk, view, meta, range_begin, range_end,
                      workers);
  }

  std::vector<detail::MetricAccumulator*> accumulators;
  std::vector<EvalResult> partials;
  accumulators.reserve(shards);
  partials.reserve(shards);
  for (auto& worker : workers) {
    accumulators.push_back(&worker.acc);
    partials.push_back(worker.acc.result());
  }
  if (hooks != nullptr && hooks->capture) {
    hooks->capture(*workers[0].provider, accumulators);
  }

  if (stats != nullptr) {
    stats->threads = shards;
    stats->volume_count = workers[0].provider->volume_count();
  }
  auto result = detail::merge_results(partials);
  if (publish) detail::publish_eval_result(result);
  if (auto* metrics = obs::global_metrics(); metrics != nullptr) {
    // Parallel-shape gauges: PredictionEvaluator never sets these, and a
    // bigger pool changes them, so they are non-deterministic by
    // definition.
    constexpr bool kDet = false;
    metrics->gauge("parallel_eval.threads", kDet)
        .set_max(static_cast<double>(shards));
    metrics->gauge("parallel_eval.chunk_requests", kDet)
        .set_max(static_cast<double>(chunk));
  }
  return result;
}

}  // namespace piggyweb::sim
