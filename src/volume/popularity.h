// Popularity volume (§5 future work: "additional information that could
// be piggybacked includes information about popular resources gathered in
// a separate volume").
//
// A decorator over any primary volume provider: when the primary has
// little or nothing to say for a request (fewer candidates than
// `min_primary`), the response is topped up from a dedicated site-wide
// volume of the most popular resources — useful for first contacts from a
// new proxy, where no co-access history exists yet.
#pragma once

#include <cstdint>
#include <vector>

#include "core/piggyback.h"

namespace piggyweb::volume {

struct PopularityVolumeConfig {
  std::size_t top_n = 10;          // resources kept in the popular volume
  std::size_t min_primary = 1;     // top up when primary yields fewer
  // Wire id for the popular volume; by convention the last 2-byte id, so
  // it never collides with dense per-resource/per-directory ids in
  // practice.
  core::VolumeId volume_id = core::kMaxWireVolumeId;
};

class PopularityVolumes final : public core::VolumeProvider {
 public:
  PopularityVolumes(const PopularityVolumeConfig& config,
                    core::VolumeProvider& primary)
      : config_(config), primary_(&primary) {}

  // Maintains popularity counts online and observes through the primary
  // provider. Peeks at most min_primary + 1 of the primary's candidates to
  // judge whether it came back thin; if so the cursor tops the primary's
  // candidates up from the popular set. Top-up candidates never displace
  // primary ones (they follow them, so maxpiggy truncation favours the
  // primary).
  core::VolumeId observe(const core::VolumeRequest& request) override;
  std::size_t pull(std::span<core::Candidate> out) override;

  std::size_t volume_count() const override {
    return primary_->volume_count() + 1;
  }
  const char* scheme_name() const override { return "popularity-topped"; }

  // Current contents of the popular volume (most popular first).
  std::vector<util::InternId> popular() const;

 private:
  void bump(util::InternId resource);
  bool next_top_up(core::Candidate& out);

  PopularityVolumeConfig config_;
  core::VolumeProvider* primary_;
  // Cursor over the request last observed: the peeked primary candidates
  // (replayed first), then either the rest of the primary's cursor or,
  // when the primary was thin, the popular set.
  util::InternId path_ = util::kInvalidIntern;
  std::vector<core::Candidate> peeked_;
  std::size_t next_peeked_ = 0;
  bool topping_up_ = false;
  std::size_t next_top_ = 0;
  // Exact counts plus a maintained top-N (linear scan over N on update;
  // N is small by construction).
  std::vector<std::uint64_t> counts_;
  std::vector<util::InternId> top_;  // sorted by count desc
};

}  // namespace piggyweb::volume
