#include "sim/prediction_eval.h"

#include <algorithm>

#include "obs/registry.h"
#include "obs/tracer.h"
#include "sim/eval_core.h"
#include "trace/stream.h"
#include "util/expect.h"

namespace piggyweb::sim {

namespace detail {

void MetricAccumulator::export_state(EvalStateImage& image) const {
  const EvalResult partials[] = {image.counters, result_};
  image.counters = merge_results(partials);
  for (util::InternId source = 0; source < sources_.size(); ++source) {
    const auto& state = sources_[source];
    for (const auto& [resource, value] : state.resources) {
      image.resource_state.emplace_back(pair_key(source, resource), value);
    }
    for (const auto& [server, value] : state.last_piggy) {
      image.last_piggy.emplace_back(pair_key(source, server), value);
    }
    for (const auto& [server, list] : state.rpv) {
      image.rpv.emplace_back(pair_key(source, server), list.entries());
    }
  }
}

void MetricAccumulator::import_state(
    const EvalStateImage& image,
    const std::function<bool(util::InternId source)>& owns,
    bool take_counters) {
  if (take_counters) result_ = image.counters;
  // A key's source state (null if `owns` refuses the source), and its low
  // 32 bits: the resource or server id.
  const auto owned = [&](std::uint64_t key) -> SourceState* {
    const auto source = static_cast<util::InternId>(key >> 32);
    return !owns || owns(source) ? &source_state(source) : nullptr;
  };
  const auto id = [](std::uint64_t key) {
    return static_cast<std::uint32_t>(key);
  };
  for (const auto& [key, value] : image.resource_state) {
    if (auto* state = owned(key)) state->resources[id(key)] = value;
  }
  for (const auto& [key, value] : image.last_piggy) {
    if (auto* state = owned(key)) state->last_piggy[id(key)] = value;
  }
  for (const auto& [key, entries] : image.rpv) {
    if (auto* state = owned(key)) {
      state->rpv.try_emplace(id(key), config_->rpv)
          .first->second.restore_entries(entries);
    }
  }
}

EvalResult merge_results(std::span<const EvalResult> partials) {
  EvalResult total;
  for (const auto& r : partials) {
    total.requests += r.requests;
    total.predicted_requests += r.predicted_requests;
    total.piggyback_messages += r.piggyback_messages;
    total.piggyback_elements += r.piggyback_elements;
    total.predictions_made += r.predictions_made;
    total.predictions_true += r.predictions_true;
    total.prev_occurrence_within_horizon += r.prev_occurrence_within_horizon;
    total.prev_occurrence_within_window += r.prev_occurrence_within_window;
    total.updated_by_piggyback += r.updated_by_piggyback;
  }
  return total;
}

void publish_eval_result(const EvalResult& result) {
  auto* metrics = obs::global_metrics();
  if (metrics == nullptr) return;
  metrics->counter("eval.requests").add(result.requests);
  metrics->counter("eval.predicted_requests").add(result.predicted_requests);
  metrics->counter("eval.piggyback_messages").add(result.piggyback_messages);
  metrics->counter("eval.piggyback_elements").add(result.piggyback_elements);
  metrics->counter("eval.predictions_made").add(result.predictions_made);
  metrics->counter("eval.predictions_true").add(result.predictions_true);
  metrics->counter("eval.prev_occurrence_within_horizon")
      .add(result.prev_occurrence_within_horizon);
  metrics->counter("eval.prev_occurrence_within_window")
      .add(result.prev_occurrence_within_window);
  metrics->counter("eval.updated_by_piggyback")
      .add(result.updated_by_piggyback);
}

std::span<const util::InternId> filtered_resources(
    core::VolumeId volume, core::VolumeProvider& provider,
    const core::VolumeRequest& request, const core::ProxyFilter& filter,
    const core::MetaOracle& meta, ProviderScratch& scratch) {
  core::apply_filter_into(volume, provider, request, filter, meta,
                          scratch.message);
  scratch.resources.clear();
  for (const auto& element : scratch.message.elements) {
    scratch.resources.push_back(element.resource);
  }
  return scratch.resources;
}

void replay_inline(const EvalConfig& config, trace::TraceView& view,
                   core::VolumeProvider& provider,
                   const core::MetaOracle& meta, std::size_t begin,
                   std::size_t end, MetricAccumulator& acc) {
  PW_EXPECT(begin <= end && end <= view.request_count());
  PW_EXPECT(config.cache_horizon > config.prediction_window);

  // One view window per batch (a subspan for materialized traces, a
  // bounded decode straight off the mapped columns for streaming ones),
  // visited strictly in trace order; memory stays bounded by the batch
  // size regardless of trace length.
  const trace::PathTypeTable types(view.paths());
  ProviderScratch scratch;
  util::Seconds last_time = kNever;
  for (std::size_t base = begin; base < end; base += kEvalBatchRequests) {
    const auto stop = std::min(base + kEvalBatchRequests, end);
    replay_window(sorted_window(view, base, stop - base, last_time), types,
                  provider, config.filter, meta, scratch, acc,
                  [](const trace::Request&) { return true; });
    if (config.on_progress) config.on_progress({stop - begin, end - begin, 0});
  }
}

}  // namespace detail

EvalResult PredictionEvaluator::run(const trace::Trace& trace,
                                    core::VolumeProvider& provider,
                                    const core::MetaOracle& meta) {
  trace::MaterializedTraceView view(trace);
  return run(view, provider, meta);
}

EvalResult PredictionEvaluator::run(trace::TraceView& view,
                                    core::VolumeProvider& provider,
                                    const core::MetaOracle& meta) {
  OBS_SPAN("prediction_eval.run");
  detail::MetricAccumulator acc(config_);
  detail::replay_inline(config_, view, provider, meta, 0,
                        view.request_count(), acc);
  detail::publish_eval_result(acc.result());
  return acc.result();
}

}  // namespace piggyweb::sim
