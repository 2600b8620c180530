#include "core/filter.h"

#include <algorithm>
#include <array>

namespace piggyweb::core {

namespace {

// Cursor over an eagerly built prediction.
class PredictionCursor final : public CandidateCursor {
 public:
  explicit PredictionCursor(const VolumePrediction& prediction)
      : prediction_(prediction),
        has_probs_(prediction.probs.size() == prediction.resources.size()) {}

  std::size_t pull(std::span<Candidate> out) override {
    const auto n =
        std::min(out.size(), prediction_.resources.size() - next_);
    for (std::size_t i = 0; i < n; ++i, ++next_) {
      out[i] = {prediction_.resources[next_], has_probs_,
                has_probs_ ? prediction_.probs[next_] : 0.0};
    }
    return n;
  }

 private:
  const VolumePrediction& prediction_;
  bool has_probs_;
  std::size_t next_ = 0;
};

}  // namespace

void apply_filter_into(VolumeId volume, CandidateCursor& candidates,
                       const VolumeRequest& request, const ProxyFilter& filter,
                       const MetaOracle& meta, PiggybackMessage& out) {
  out.volume = kNoVolume;
  out.elements.clear();
  if (!filter.enabled || volume == kNoVolume || filter.max_elements == 0) {
    return;
  }
  if (std::find(filter.rpv.begin(), filter.rpv.end(), volume) !=
      filter.rpv.end()) {
    return;
  }
  // Each pull asks for no more candidates than could still be kept, so
  // the cursor never advances past the one that fills max_elements.
  std::array<Candidate, 32> batch;
  while (out.elements.size() < filter.max_elements) {
    const auto want = std::min<std::size_t>(
        batch.size(), filter.max_elements - out.elements.size());
    const auto n = candidates.pull(std::span(batch).first(want));
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& candidate = batch[i];
      const auto res = candidate.resource;
      if (res == request.path) continue;  // never echo the requested resource
      if (filter.probability_threshold && candidate.has_probability &&
          candidate.probability < *filter.probability_threshold) {
        continue;
      }
      const auto info = meta.lookup(request.server, res);
      if (filter.max_size && info.size > *filter.max_size) continue;
      if (!filter.allows_type(info.type)) continue;
      if (info.access_count < filter.min_access_count) continue;
      out.elements.push_back(
          {res, info.size, info.last_modified,
           candidate.has_probability ? candidate.probability : 0.0});
    }
  }
  if (!out.elements.empty()) out.volume = volume;
}

void apply_filter_into(const VolumePrediction& prediction,
                       const VolumeRequest& request, const ProxyFilter& filter,
                       const MetaOracle& meta, PiggybackMessage& out) {
  PredictionCursor cursor(prediction);
  apply_filter_into(prediction.volume, cursor, request, filter, meta, out);
}

PiggybackMessage apply_filter(const VolumePrediction& prediction,
                              const VolumeRequest& request,
                              const ProxyFilter& filter,
                              const MetaOracle& meta) {
  PiggybackMessage message;
  apply_filter_into(prediction, request, filter, meta, message);
  return message;
}

}  // namespace piggyweb::core
