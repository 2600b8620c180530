// Shared core of the serial and parallel prediction evaluators.
//
// The evaluation of one request factors into two halves with disjoint
// state:
//   1. the *provider* half — drive VolumeProvider::on_request and apply
//      the static proxy filter; state partitions by volume (directory
//      volumes) or is absent (probability volumes);
//   2. the *metrics* half — prediction/true-prediction/update accounting,
//      frequency control, and RPV suppression; state partitions by source
//      (the paper's pseudo-proxies are independent prediction streams,
//      §3.1).
// MetricAccumulator is that second half and run_provider_half the first.
// replay_inline runs both halves over one provider and one accumulator
// (PredictionEvaluator, and ParallelEvaluator at one thread);
// ParallelEvaluator at N threads runs half 1 sharded by volume and half 2
// sharded by source, feeding each source's requests to its accumulator in
// trace order — which is why every path produces bit-identical
// EvalResults.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/filter.h"
#include "core/piggyback.h"
#include "core/rpv.h"
#include "sim/prediction_eval.h"
#include "trace/record.h"
#include "trace/stream.h"
#include "util/expect.h"
#include "util/flat_map.h"

namespace piggyweb::sim::detail {

// Sentinel "long ago" for first-touch comparisons.
inline constexpr util::Seconds kNever = -(1LL << 60);

// Requests per provider batch in the evaluators' hot loops. Batches keep
// the VolumeRequest column and prediction slots hot in cache and amortize
// the virtual dispatch; the per-request evaluation *sequence* is
// unchanged, so batch size never affects results.
inline constexpr std::size_t kEvalBatchRequests = 4096;

// The provider-facing view of a trace request. `type` comes from a
// trace::PathTypeTable so the hot loop never re-scans path strings.
inline core::VolumeRequest make_volume_request(const trace::Request& req,
                                               trace::ContentType type) {
  core::VolumeRequest vr;
  vr.server = req.server;
  vr.source = req.source;
  vr.path = req.path;
  vr.time = req.time;
  vr.size = req.size;
  vr.type = type;
  return vr;
}

struct ResourceState {
  util::Seconds last_access = kNever;
  util::Seconds last_mention = kNever;   // any piggyback mention
  util::Seconds interval_open = kNever;  // start of current prediction
  bool fulfilled = false;
};

// Packs two dense 32-bit ids into one map key.
inline std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// Flattened accumulator state for checkpointing. Every key's high 32 bits
// are the source id, so the image re-shards cleanly at any source-shard
// count. Entry order is unspecified; the persist layer sorts by key for
// canonical snapshot bytes.
struct EvalStateImage {
  EvalResult counters;
  std::vector<std::pair<std::uint64_t, ResourceState>> resource_state;
  std::vector<std::pair<std::uint64_t, util::Seconds>> last_piggy;
  std::vector<std::pair<std::uint64_t, std::vector<core::RpvEntry>>> rpv;
};

// Metric + per-source protocol state for a set of sources. Feed every
// request of an owned source, in trace order, together with the piggyback
// message the server would send under the *static* filter (frequency
// control and RPV suppression are per-source and applied here). Only the
// element resource ids matter for the metrics, so that is all observe()
// takes.
class MetricAccumulator {
 public:
  explicit MetricAccumulator(const EvalConfig& config) : config_(&config) {}

  void observe(const trace::Request& request, core::VolumeId volume,
               std::span<const util::InternId> resources);

  const EvalResult& result() const { return result_; }

  // Appends this accumulator's state to `image`; counters are summed.
  // Accumulators from disjoint source shards hold disjoint keys, so
  // exporting them all into one image is an exact union.
  void export_state(EvalStateImage& image) const;

  // Installs the image entries whose source (high 32 bits of the key)
  // passes `owns` (null = install everything). Exactly one accumulator per
  // restore takes the summed counters, or the merged total double-counts.
  void import_state(const EvalStateImage& image,
                    const std::function<bool(util::InternId source)>& owns,
                    bool take_counters);

 private:
  const EvalConfig* config_;
  EvalResult result_;
  // (source, resource) -> state. Sources and resources are dense ids.
  util::FlatMap<std::uint64_t, ResourceState> state_;
  // (source, server) -> last piggyback time (frequency control).
  util::FlatMap<std::uint64_t, util::Seconds> last_piggy_;
  // (source, server) -> RPV list.
  util::FlatMap<std::uint64_t, core::RpvList> rpv_;
};

// Merge partial results from disjoint request sets: every field is a
// count over per-request events, so integer addition is an exact,
// order-independent merge.
EvalResult merge_results(std::span<const EvalResult> partials);

// Publish the final result's counters into the global metrics registry
// (no-op when none is installed). Both evaluators call this with their
// merged result, so the deterministic `eval.*` counters are identical
// regardless of which path ran or how many threads it used.
void publish_eval_result(const EvalResult& result);

// Requests [base, base + count) of `view`, checked against the
// evaluators' time-order contract incrementally: each window is sorted
// and starts no earlier than the previous window's tail, `last_time`
// (updated in place; start it at kNever).
inline std::span<const trace::Request> sorted_window(trace::TraceView& view,
                                                     std::size_t base,
                                                     std::size_t count,
                                                     util::Seconds& last_time) {
  const auto window = view.window(base, count);
  PW_EXPECT(window.empty() || window.front().time.value >= last_time);
  PW_EXPECT(std::is_sorted(
      window.begin(), window.end(),
      [](const trace::Request& a, const trace::Request& b) {
        return a.time < b.time;
      }));
  if (!window.empty()) last_time = window.back().time.value;
  return window;
}

// Buffers for run_provider_half, reused across windows so the steady
// state allocates nothing.
struct ProviderScratch {
  std::vector<std::size_t> rows;  // window indices driven this window
  std::vector<core::VolumeRequest> batch;
  std::vector<core::VolumePrediction> predictions;
  core::PiggybackMessage message;
  std::vector<util::InternId> resources;
};

// The provider half for one window: the requests whose index passes
// `keep(i)` go to `provider` as one batch, in trace order; each one's
// prediction passes the static filter, and `emit(i, volume, resources)`
// receives the message's volume and element resource ids (valid until
// the next emit). Templated so the per-request calls inline.
template <typename Keep, typename Emit>
void run_provider_half(std::span<const trace::Request> window,
                       const trace::PathTypeTable& types,
                       core::VolumeProvider& provider,
                       const core::ProxyFilter& filter,
                       const core::MetaOracle& meta, ProviderScratch& scratch,
                       Keep&& keep, Emit&& emit) {
  scratch.rows.clear();
  scratch.batch.clear();
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (!keep(i)) continue;
    scratch.rows.push_back(i);
    scratch.batch.push_back(
        make_volume_request(window[i], types.type_of(window[i].path)));
  }
  provider.on_request_batch(scratch.batch, scratch.predictions);
  for (std::size_t k = 0; k < scratch.rows.size(); ++k) {
    core::apply_filter_into(scratch.predictions[k], scratch.batch[k], filter,
                            meta, scratch.message);
    scratch.resources.clear();
    for (const auto& element : scratch.message.elements) {
      scratch.resources.push_back(element.resource);
    }
    emit(scratch.rows[k], scratch.message.volume,
         std::span<const util::InternId>(scratch.resources));
  }
}

// Both halves inline over requests [begin, end) of `view`: one batch of
// kEvalBatchRequests per view window, provider half then metric half,
// into `acc` (which may carry restored state). Fires config.on_progress
// after every batch. Does not publish.
void replay_inline(const EvalConfig& config, trace::TraceView& view,
                   core::VolumeProvider& provider,
                   const core::MetaOracle& meta, std::size_t begin,
                   std::size_t end, MetricAccumulator& acc);

}  // namespace piggyweb::sim::detail
