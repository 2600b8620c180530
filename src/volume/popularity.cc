#include "volume/popularity.h"

#include <algorithm>

namespace piggyweb::volume {

void PopularityVolumes::bump(util::InternId resource) {
  if (resource >= counts_.size()) counts_.resize(resource + 1, 0);
  ++counts_[resource];

  // Maintain top_: if present, re-sort its neighbourhood; if absent and
  // it now beats the tail (or there is room), insert.
  const auto it = std::find(top_.begin(), top_.end(), resource);
  if (it != top_.end()) {
    // Bubble towards the front while it outranks its predecessor.
    auto pos = it;
    while (pos != top_.begin() &&
           counts_[*pos] > counts_[*(pos - 1)]) {
      std::iter_swap(pos, pos - 1);
      --pos;
    }
    return;
  }
  if (top_.size() < config_.top_n) {
    top_.push_back(resource);
    return;
  }
  if (counts_[resource] > counts_[top_.back()]) {
    top_.back() = resource;
  }
}

std::vector<util::InternId> PopularityVolumes::popular() const {
  return top_;
}

core::VolumeId PopularityVolumes::observe(
    const core::VolumeRequest& request) {
  bump(request.path);
  const auto volume = primary_->observe(request);
  path_ = request.path;
  peeked_.clear();
  next_peeked_ = 0;
  next_top_ = 0;
  // The requested resource never survives the filter, so count it out
  // when judging whether the primary came back thin.
  std::size_t usable = 0;
  core::Candidate candidate;
  while (usable < config_.min_primary &&
         primary_->pull(std::span(&candidate, 1)) == 1) {
    peeked_.push_back(candidate);
    if (candidate.resource != request.path) ++usable;
  }
  topping_up_ = usable < config_.min_primary;
  // If the primary had nothing at all, a topped-up message is attributed
  // to the popular volume so RPV suppression works; otherwise the primary
  // volume id is kept.
  if (topping_up_ && volume == core::kNoVolume) return config_.volume_id;
  return volume;
}

bool PopularityVolumes::next_top_up(core::Candidate& out) {
  // Top-ups carry probability 0 when the primary's candidates carry
  // probabilities, so a probability threshold filters them out.
  const bool has_probability =
      !peeked_.empty() && peeked_.front().has_probability;
  while (next_top_ < top_.size()) {
    const auto res = top_[next_top_++];
    if (res == path_) continue;
    if (std::any_of(peeked_.begin(), peeked_.end(),
                    [res](const core::Candidate& c) {
                      return c.resource == res;
                    })) {
      continue;
    }
    out = {res, has_probability, 0.0};
    return true;
  }
  return false;
}

std::size_t PopularityVolumes::pull(std::span<core::Candidate> out) {
  std::size_t n = 0;
  while (n < out.size() && next_peeked_ < peeked_.size()) {
    out[n++] = peeked_[next_peeked_++];
  }
  if (!topping_up_) return n + primary_->pull(out.subspan(n));
  while (n < out.size() && next_top_up(out[n])) ++n;
  return n;
}

}  // namespace piggyweb::volume
