// Proxy filters (§2.2): the request-side knob that controls the frequency
// and contents of server piggyback messages without per-proxy server state.
//
// A filter travels in the `Piggy-filter` request header (grammar in
// src/http/piggy_headers.*). Applying a filter to a provider's candidate
// cursor is implemented once, here, so the evaluators, the simulated
// server, the transparent volume center, and the HTTP demo all share it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/piggyback.h"

namespace piggyweb::core {

struct ProxyFilter {
  // Piggybacking disabled entirely for this request (frequency control may
  // randomly or periodically clear the enable bit, §2.2).
  bool enabled = true;

  // Maximum number of piggyback elements ("maxpiggy=10").
  std::uint32_t max_elements = 0xffffffffu;

  // Recently piggybacked volumes: the server must not piggyback volumes in
  // this list ("rpv=\"3,4\"").
  std::vector<VolumeId> rpv;

  // Probability threshold: elements must co-occur with the requested
  // resource with probability >= this ("pt=0.2"). Ignored by providers
  // that don't compute probabilities.
  std::optional<double> probability_threshold;

  // Content limits: omit resources larger than max_size bytes and content
  // types the proxy doesn't cache (e.g. wireless proxies omit images).
  std::optional<std::uint64_t> max_size;
  bool allow_html = true;
  bool allow_image = true;
  bool allow_other = true;

  // Minimum access count: omit resources accessed fewer than this many
  // times (the "access filter" of §3.2.2's evaluation).
  std::uint32_t min_access_count = 0;

  bool allows_type(trace::ContentType t) const {
    switch (t) {
      case trace::ContentType::kHtml:
        return allow_html;
      case trace::ContentType::kImage:
        return allow_image;
      case trace::ContentType::kOther:
        return allow_other;
    }
    return true;
  }
};

// Metadata oracle the filter consults per candidate resource. The real
// server knows these from its file system and access counters; in trace
// evaluation they come from observed log state.
struct ResourceMeta {
  std::uint64_t size = 0;
  std::int64_t last_modified = -1;
  trace::ContentType type = trace::ContentType::kOther;
  std::uint64_t access_count = 0;
};

class MetaOracle {
 public:
  virtual ~MetaOracle() = default;
  virtual ResourceMeta lookup(util::InternId server,
                              util::InternId resource) const = 0;
};

// Apply `filter` to the candidates of `volume` for `request`, producing
// the piggyback message the server would actually append (possibly
// empty). Clears and refills `out` (its element vector's capacity
// survives, so a caller looping over millions of requests keeps one
// message buffer):
//   * suppressed entirely if !filter.enabled, max_elements is 0, or the
//     volume is kNoVolume or in the RPV — no candidate is pulled then,
//   * the requested resource itself is never echoed back,
//   * probability / size / type / access-count limits applied per element,
//   * candidates are pulled best-first and only until max_elements are
//     kept or the cursor runs dry (its candidate budget counts every
//     candidate pulled, kept or not).
// This is the one filter body; every overload below wraps it.
void apply_filter_into(VolumeId volume, CandidateCursor& candidates,
                       const VolumeRequest& request, const ProxyFilter& filter,
                       const MetaOracle& meta, PiggybackMessage& out);

// The same filter over an eagerly built prediction: its resources (and
// probs, when they parallel the resources) are the cursor.
void apply_filter_into(const VolumePrediction& prediction,
                       const VolumeRequest& request, const ProxyFilter& filter,
                       const MetaOracle& meta, PiggybackMessage& out);

PiggybackMessage apply_filter(const VolumePrediction& prediction,
                              const VolumeRequest& request,
                              const ProxyFilter& filter,
                              const MetaOracle& meta);

}  // namespace piggyweb::core
