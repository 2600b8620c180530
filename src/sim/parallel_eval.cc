#include "sim/parallel_eval.h"

#include <algorithm>
#include <vector>

#include "obs/pool_metrics.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/eval_core.h"
#include "trace/stream.h"
#include "util/expect.h"
#include "util/hash.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace piggyweb::sim {

ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, util::StringTableView paths) {
  ShardedProviderSpec spec;
  spec.make = [config, paths](std::size_t shard, std::size_t shards) {
    auto shard_config = config;
    shard_config.id_offset = static_cast<core::VolumeId>(shard);
    shard_config.id_stride = static_cast<core::VolumeId>(shards);
    auto provider = std::make_unique<volume::DirectoryVolumes>(shard_config);
    provider->bind_paths(paths);
    return provider;
  };
  // A path's prefix hash never changes, so one precomputed hash per
  // distinct path replaces a directory_prefix scan + string hash per
  // request.
  auto prefix_hash = std::make_shared<std::vector<std::uint64_t>>();
  prefix_hash->reserve(paths.size());
  for (std::size_t id = 0; id < paths.size(); ++id) {
    prefix_hash->push_back(util::fnv1a(util::directory_prefix(
        paths.str(static_cast<util::InternId>(id)), config.level)));
  }
  spec.shard_of = [prefix_hash = std::move(prefix_hash)](
                      const trace::Request& request, std::size_t shards) {
    return directory_volume_shard(request.server,
                                  (*prefix_hash)[request.path], shards);
  };
  return spec;
}

ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, const trace::Trace& trace) {
  return shard_directory_volumes(config,
                                 util::StringTableView(trace.paths()));
}

ShardedProviderSpec shard_probability_volumes(
    const volume::ProbabilityVolumeSet* set, std::size_t max_candidates) {
  PW_EXPECT(set != nullptr);
  ShardedProviderSpec spec;
  spec.make = [set, max_candidates](std::size_t /*shard*/,
                                    std::size_t /*shards*/) {
    // Lookups into the shared immutable set are read-only, so every shard
    // may wrap the same table.
    return std::make_unique<volume::ProbabilityVolumes>(set, max_candidates);
  };
  spec.shard_of = [](const trace::Request& request, std::size_t shards) {
    return static_cast<std::size_t>(
        util::hash_id_pair(request.server, request.path) % shards);
  };
  return spec;
}

namespace {

// The N-shard path: stage 1 drives providers[s] with the requests
// spec.shard_of maps to s, stage 2 feeds accumulators[w] the requests of
// the sources source_shard maps to w, one chunk-sized window at a time.
void replay_sharded(const EvalConfig& config, std::size_t chunk,
                    trace::TraceView& view, const ShardedProviderSpec& spec,
                    const core::MetaOracle& meta, std::size_t range_begin,
                    std::size_t range_end,
                    std::span<const std::unique_ptr<core::VolumeProvider>>
                        providers,
                    std::span<detail::MetricAccumulator> accumulators) {
  const std::size_t shards = providers.size();
  // Pool timing metrics are scheduling-dependent, hence non-deterministic;
  // null registry -> null observer -> the pool's fast path.
  const auto pool_metrics =
      obs::make_pool_metrics(obs::global_metrics(), "parallel_eval.pool");
  util::ThreadPool pool(shards, pool_metrics.get());

  // Each request's provider shard is a pure function of the request; the
  // column is computed chunk by chunk over the current window (in
  // parallel), so its memory is bounded by the chunk size, not the range.
  std::vector<std::uint32_t> provider_shard(
      std::min(chunk, range_end - range_begin));

  // Per-request staging slots for the current chunk, reused across chunks.
  struct Staged {
    core::VolumeId volume = core::kNoVolume;
    std::vector<util::InternId> resources;
  };
  std::vector<Staged> staged(std::min(chunk, range_end - range_begin));

  const trace::PathTypeTable types(view.paths());
  std::vector<detail::ProviderScratch> scratch(shards);
  util::Seconds last_time = detail::kNever;

  for (std::size_t begin = range_begin; begin < range_end; begin += chunk) {
    const auto end = std::min(begin + chunk, range_end);
    // One window per chunk: a subspan for materialized traces, a bounded
    // decode off the mapped columns for streaming ones. Workers only read
    // the span, so sharing it across the two stage barriers is safe.
    const auto window =
        detail::sorted_window(view, begin, end - begin, last_time);

    // Provider-shard column for this window, computed in parallel.
    util::parallel_ranges(
        pool, window.size(), [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const auto s = spec.shard_of(window[i], shards);
            PW_EXPECT(s < shards);
            provider_shard[i] = static_cast<std::uint32_t>(s);
          }
        });

    // Stage 1: drive providers and apply the static filter, one batched
    // provider call per shard per chunk. Within a shard, requests are
    // visited in trace order, so per-volume state evolves exactly as in
    // the one-shard run.
    util::parallel_shards(pool, shards, [&](std::size_t s) {
      OBS_SPAN("parallel_eval.provider_shard");
      detail::run_provider_half(
          window, types, *providers[s], config.filter, meta, scratch[s],
          [&](std::size_t i) { return provider_shard[i] == s; },
          [&](std::size_t i, core::VolumeId volume,
              std::span<const util::InternId> resources) {
            staged[i].volume = volume;
            staged[i].resources.assign(resources.begin(), resources.end());
          });
    });

    // Stage 2: replay the staged messages through the per-source metric
    // machine — the same MetricAccumulator the inline path uses.
    util::parallel_shards(pool, shards, [&](std::size_t w) {
      OBS_SPAN("parallel_eval.metric_shard");
      auto& acc = accumulators[w];
      for (std::size_t i = 0; i < window.size(); ++i) {
        const auto& req = window[i];
        if (source_shard(req.source, shards) != w) continue;
        acc.observe(req, staged[i].volume, staged[i].resources);
      }
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
  PW_EXPECT(spec.shard_of != nullptr);

  const std::size_t shards =
      par_.threads != 0 ? par_.threads : util::ThreadPool::hardware_threads();
  const std::size_t chunk = par_.chunk_requests != 0
                                ? par_.chunk_requests
                                : std::size_t{1} << 15;

  // One provider per provider shard (shard-local volume state), then one
  // accumulator per source shard; every provider is warm before the
  // first accumulator is seeded, as the hooks contract promises.
  std::vector<std::unique_ptr<core::VolumeProvider>> providers;
  providers.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    providers.push_back(spec.make(s, shards));
    PW_ENSURE(providers.back() != nullptr);
    if (hooks != nullptr && hooks->warm_provider) {
      hooks->warm_provider(*providers[s], s, shards);
    }
  }
  std::vector<detail::MetricAccumulator> accumulators;
  accumulators.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    accumulators.emplace_back(config_);
    if (hooks != nullptr && hooks->seed_accumulator) {
      hooks->seed_accumulator(accumulators[s], s, shards);
    }
  }

  if (shards == 1) {
    detail::replay_inline(config_, view, *providers[0], meta, range_begin,
                          range_end, accumulators[0]);
  } else {
    replay_sharded(config_, chunk, view, spec, meta, range_begin, range_end,
                   providers, accumulators);
  }

  if (hooks != nullptr && hooks->capture) {
    std::vector<core::VolumeProvider*> provider_ptrs;
    provider_ptrs.reserve(shards);
    for (const auto& provider : providers) {
      provider_ptrs.push_back(provider.get());
    }
    std::vector<detail::MetricAccumulator*> accumulator_ptrs;
    accumulator_ptrs.reserve(shards);
    for (auto& acc : accumulators) accumulator_ptrs.push_back(&acc);
    hooks->capture(provider_ptrs, accumulator_ptrs);
  }

  std::vector<EvalResult> partials;
  partials.reserve(shards);
  for (const auto& acc : accumulators) partials.push_back(acc.result());

  if (stats != nullptr) {
    stats->threads = shards;
    stats->volume_count = 0;
    for (const auto& provider : providers) {
      stats->volume_count += provider->volume_count();
    }
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
