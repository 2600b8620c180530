// Shared core of the serial and parallel prediction evaluators.
//
// The evaluation of one request has two parts:
//   1. the *provider* part — VolumeProvider::observe updates the volume
//      state, which all of a server's traffic shares (§3.2.1);
//   2. the *metrics* part — prediction/true-prediction/update accounting,
//      frequency control, and RPV suppression; state partitions by source
//      (the paper's pseudo-proxies are independent prediction streams,
//      §3.1).
// MetricAccumulator is the second part. replay_window runs both over one
// window: the provider observes every request in trace order, and the
// accumulator evaluates the requests it owns, pulling a volume's
// candidates through the filter only for messages that frequency control
// and RPV let through. PredictionEvaluator (and ParallelEvaluator at one
// thread) owns every request; ParallelEvaluator's N workers each keep a
// full provider replica, observe every request and own the sources that
// source_shard maps to them, so every replica's volume state and volume
// ids equal the serial ones and every path produces bit-identical
// EvalResults.
//
// The accumulator's state follows the same partition: one record per
// dense source id, with small resource- and server-keyed tables. A
// request's probe and its message's ~20 mention writes then hit its
// source's small, recently touched table; in one trace-sized
// (source, resource) table nearly every probe would miss the cache.
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

// Requests per view window in the evaluators' inline loop; the
// per-request evaluation *sequence* is unchanged, so the window size
// never affects results.
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
  bool operator==(const ResourceState&) const = default;
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

  // `volume` and `resources` are the statically filtered message (empty
  // or kNoVolume = nothing to send).
  void observe(const trace::Request& request, core::VolumeId volume,
               std::span<const util::InternId> resources) {
    observe_pulling(request, volume, [resources] { return resources; });
  }

  // The same step with the message built on demand: `volume` is the
  // provider's volume for the request, and `pull()` returns the statically
  // filtered message's resource ids (valid until the accumulator returns).
  // It is called at most once, and only when frequency control and RPV
  // would let a message for `volume` through; an empty pull sends
  // nothing, as an empty message does.
  template <typename Pull>
  void observe_pulling(const trace::Request& request, core::VolumeId volume,
                       Pull&& pull);

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
  // Everything one source's requests touch, keyed by 32-bit ids.
  struct SourceState {
    util::FlatMap<std::uint32_t, ResourceState> resources;
    util::FlatMap<std::uint32_t, util::Seconds> last_piggy;  // by server
    util::FlatMap<std::uint32_t, core::RpvList> rpv;         // by server
  };

  SourceState& source_state(util::InternId source) {
    if (source >= sources_.size()) sources_.resize(source + std::size_t{1});
    return sources_[source];
  }

  const EvalConfig* config_;
  EvalResult result_;
  // Indexed by dense source id; grows with the ids the accumulator sees.
  std::vector<SourceState> sources_;
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

// Buffers for the filter pull, reused across requests so the steady
// state allocates nothing.
struct ProviderScratch {
  core::PiggybackMessage message;
  std::vector<util::InternId> resources;
};

// The statically filtered message for the request `provider` last
// observed as `volume`: pulls its candidates through `filter` and returns
// the kept element resource ids (valid until the next call on `scratch`).
std::span<const util::InternId> filtered_resources(
    core::VolumeId volume, core::VolumeProvider& provider,
    const core::VolumeRequest& request, const core::ProxyFilter& filter,
    const core::MetaOracle& meta, ProviderScratch& scratch);

// The one per-request loop of both evaluators, over one window: the
// provider observes every request in trace order, and `acc` evaluates
// the requests that pass `owns(request)`, pulling the filtered message
// only when one would be sent. Templated so the per-request calls
// inline; the serial loop passes an `owns` that is always true.
template <typename Owns>
void replay_window(std::span<const trace::Request> window,
                   const trace::PathTypeTable& types,
                   core::VolumeProvider& provider,
                   const core::ProxyFilter& filter,
                   const core::MetaOracle& meta, ProviderScratch& scratch,
                   MetricAccumulator& acc, Owns&& owns) {
  for (const auto& req : window) {
    const auto request = make_volume_request(req, types.type_of(req.path));
    const auto volume = provider.observe(request);
    if (!owns(req)) continue;
    acc.observe_pulling(req, volume, [&] {
      return filtered_resources(volume, provider, request, filter, meta,
                                scratch);
    });
  }
}

// Every request of [begin, end) of `view`, one batch of
// kEvalBatchRequests per view window, through replay_window into `acc`
// (which may carry restored state). Fires config.on_progress after every
// batch. Does not publish.
void replay_inline(const EvalConfig& config, trace::TraceView& view,
                   core::VolumeProvider& provider,
                   const core::MetaOracle& meta, std::size_t begin,
                   std::size_t end, MetricAccumulator& acc);

template <typename Pull>
void MetricAccumulator::observe_pulling(const trace::Request& req,
                                        core::VolumeId volume, Pull&& pull) {
  const auto T = config_->prediction_window;
  const auto t = req.time.value;
  const auto C = config_->cache_horizon;

  ++result_.requests;
  auto& source = source_state(req.source);
  auto& rs = source.resources[req.path];

  // --- metrics, evaluated against state from *earlier* requests --------
  const bool predicted =
      rs.last_mention != kNever && t - rs.last_mention <= T;
  if (predicted) ++result_.predicted_requests;
  const bool prev_within_horizon =
      rs.last_access != kNever && t - rs.last_access <= C;
  const bool prev_within_window =
      rs.last_access != kNever && t - rs.last_access <= T;
  if (prev_within_horizon) ++result_.prev_occurrence_within_horizon;
  if (prev_within_window) ++result_.prev_occurrence_within_window;
  if (predicted && prev_within_horizon && !prev_within_window) {
    ++result_.updated_by_piggyback;
  }

  // --- true-prediction fulfilment ---------------------------------------
  if (!rs.fulfilled && rs.interval_open != kNever &&
      t - rs.interval_open <= T) {
    ++result_.predictions_true;
    rs.fulfilled = true;
  }

  rs.last_access = t;

  // --- proxy side: frequency control + RPV suppression -------------------
  // Both controls only suppress the message as a whole, and a non-empty
  // filtered message always carries the provider's volume, so deciding
  // them before the message exists is exactly equivalent to feeding them
  // into apply_filter().
  if (!config_->filter.enabled) return;
  if (config_->min_piggyback_interval > 0) {
    const auto it = source.last_piggy.find(req.server);
    if (it != source.last_piggy.end() &&
        t - it->second < config_->min_piggyback_interval) {
      return;
    }
  }
  core::RpvList* rpv_list = nullptr;
  if (config_->use_rpv) {
    // Created and expired on every enabled request: the list's contents
    // are part of the checkpointed state.
    rpv_list = &source.rpv.try_emplace(req.server, config_->rpv).first->second;
    if (rpv_list->contains(volume, req.time)) return;
  }
  const std::span<const util::InternId> resources = pull();
  if (volume == core::kNoVolume || resources.empty()) return;

  ++result_.piggyback_messages;
  result_.piggyback_elements += resources.size();
  source.last_piggy[req.server] = t;
  if (rpv_list != nullptr) rpv_list->note(volume, req.time);

  for (const auto resource : resources) {
    auto& es = source.resources[resource];
    es.last_mention = t;
    if (es.interval_open == kNever || t - es.interval_open > T) {
      // A new prediction interval opens; multiple mentions within one
      // interval count once (§3.1).
      es.interval_open = t;
      es.fulfilled = false;
      ++result_.predictions_made;
    }
  }
}

}  // namespace piggyweb::sim::detail
