// Parallel evaluation engine.
//
// Replays a trace through a volume provider + proxy filter on N worker
// threads while producing results *bit-identical* to PredictionEvaluator —
// for any trace, configuration, and thread count. At one thread the run
// is exactly PredictionEvaluator's loop: no pool, no chunk barrier. At
// N > 1 threads the trace is processed in time-ordered chunks. The
// calling thread decodes each chunk's window, then every worker reads it:
//
//   worker w keeps a full replica of the provider and observes *every*
//   request of the window in trace order, so its volume state and volume
//   ids equal the serial run's (volume state is shared by all of a
//   server's traffic, §3.2.1). It evaluates the metrics, frequency
//   control and RPV only for the sources source_shard maps to w (the
//   paper's pseudo-proxies are independent prediction streams, §3.1), and
//   pulls a volume's candidates through the filter only for those
//   requests' messages.
//
// Per-worker partial results merge by integer addition, so the totals do
// not depend on thread count or scheduling. Every worker pays for
// observing the whole window, which bounds the speedup, and each extra
// directory replica costs one more copy of the volume state.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "sim/prediction_eval.h"
#include "util/hash.h"
#include "volume/directory.h"
#include "volume/probability.h"

namespace piggyweb::sim {

namespace detail {
class MetricAccumulator;
}

struct ParallelEvalConfig {
  std::size_t threads = 0;  // 0 = hardware concurrency; 1 = inline
  // Requests per chunk; the workers synchronize at chunk boundaries.
  std::size_t chunk_requests = 1 << 15;
};

// Source (pseudo-proxy) -> worker. The snapshot restore
// (persist/eval_state.cc) calls it too, so restored per-source state lands
// in the worker that serves it.
inline std::size_t source_shard(util::InternId source, std::size_t shards) {
  return static_cast<std::size_t>(util::mix64(source) % shards);
}

// How to build the per-worker provider replicas.
struct ShardedProviderSpec {
  // Builds one fresh provider; every worker gets its own.
  std::function<std::unique_ptr<core::VolumeProvider>()> make;
};

// Directory volumes: each replica is a fresh DirectoryVolumes. The spec
// borrows the path table (a view into a Trace or an mmap'd container);
// the table's backing must outlive the spec.
ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, util::StringTableView paths);
ShardedProviderSpec shard_directory_volumes(
    const volume::DirectoryVolumeConfig& config, const trace::Trace& trace);

// Probability volumes: stateless lookups, so every replica wraps the same
// shared immutable set. `set` must outlive the returned spec.
ShardedProviderSpec shard_probability_volumes(
    const volume::ProbabilityVolumeSet* set, std::size_t max_candidates);

struct ParallelEvalStats {
  std::size_t threads = 0;       // = provider replicas = source shards
  std::size_t volume_count = 0;  // one replica's, = the serial count
};

// Checkpoint/restore hooks for run_range. The evaluator guarantees the
// ordering: every warm_provider call completes before any request is
// processed, seed_accumulator likewise, and capture runs after the last
// request of the range, before results merge — so captured state is
// exactly the state an uninterrupted run would carry past `end`. A
// one-thread run has one replica and one source shard (shard 0 of 1).
struct EvalResumeHooks {
  // Seed one freshly built provider replica's volume state; called once
  // per replica, and every replica must end up in the same state.
  std::function<void(core::VolumeProvider& provider)> warm_provider;
  // Seed one source shard's metric/frequency/RPV state.
  std::function<void(detail::MetricAccumulator& accumulator, std::size_t shard,
                     std::size_t shards)>
      seed_accumulator;
  // Observe final state: one replica's provider (all are equal) and the
  // accumulators indexed by source shard.
  std::function<void(
      const core::VolumeProvider& provider,
      std::span<detail::MetricAccumulator* const> accumulators)>
      capture;
};

class ParallelEvaluator {
 public:
  ParallelEvaluator(const EvalConfig& config, const ParallelEvalConfig& par)
      : config_(config), par_(par) {}

  // `trace` must be time-sorted. Returns exactly what
  // PredictionEvaluator::run would return for an equivalent provider.
  EvalResult run(const trace::Trace& trace,
                 const ShardedProviderSpec& provider,
                 const core::MetaOracle& meta,
                 ParallelEvalStats* stats = nullptr);
  EvalResult run(trace::TraceView& view, const ShardedProviderSpec& provider,
                 const core::MetaOracle& meta,
                 ParallelEvalStats* stats = nullptr);

  // The one range/checkpoint entry point; both run overloads delegate
  // here. Replays requests [begin, end) of `view` (streaming, or an
  // in-memory trace through trace::MaterializedTraceView) with optional
  // resume hooks (nullptr = cold start). Windows are decoded one batch or
  // chunk at a time, so memory stays bounded regardless of trace length.
  // Publishes the eval.* metrics only when `publish` is set — a partial
  // run's counters are not final.
  EvalResult run_range(trace::TraceView& view,
                       const ShardedProviderSpec& provider,
                       const core::MetaOracle& meta, std::size_t begin,
                       std::size_t end, bool publish,
                       const EvalResumeHooks* hooks,
                       ParallelEvalStats* stats = nullptr);

 private:
  EvalConfig config_;
  ParallelEvalConfig par_;
};

}  // namespace piggyweb::sim
