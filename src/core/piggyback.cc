#include "core/piggyback.h"

#include <array>

namespace piggyweb::core {

void VolumeProvider::drain_into(const VolumeRequest& request,
                                VolumePrediction& out) {
  out.volume = observe(request);
  out.resources.clear();
  out.probs.clear();
  std::array<Candidate, 64> batch;
  for (auto n = pull(batch); n > 0; n = pull(batch)) {
    for (std::size_t i = 0; i < n; ++i) {
      out.resources.push_back(batch[i].resource);
      if (batch[i].has_probability) out.probs.push_back(batch[i].probability);
    }
  }
}

VolumePrediction VolumeProvider::on_request(const VolumeRequest& request) {
  VolumePrediction prediction;
  drain_into(request, prediction);
  return prediction;
}

void VolumeProvider::on_request_batch(
    std::span<const VolumeRequest> requests,
    std::vector<VolumePrediction>& predictions) {
  predictions.resize(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    drain_into(requests[i], predictions[i]);
  }
}

}  // namespace piggyweb::core
