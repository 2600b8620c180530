// Core protocol value types: volumes, piggyback elements/messages, and the
// volume-provider interface that both volume-construction families
// (directory-based, probability-based — src/volume/) implement.
//
// A piggyback element carries the identifier, size, and Last-Modified time
// of a resource from the same volume as the requested resource (§2.1). A
// piggyback message is a volume id plus a sequence of elements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/record.h"
#include "util/intern.h"
#include "util/time.h"

namespace piggyweb::core {

// Dense per-server volume identifier. The wire format (§2.3) allocates two
// bytes (up to 32767 volumes per server); internally we keep 32 bits and
// let the HTTP layer enforce the wire bound.
using VolumeId = std::uint32_t;
inline constexpr VolumeId kNoVolume = 0xffffffffu;
inline constexpr VolumeId kMaxWireVolumeId = 32767;

struct PiggybackElement {
  util::InternId resource = util::kInvalidIntern;
  std::uint64_t size = 0;
  std::int64_t last_modified = -1;
  // Implication probability p(s|r) when the volume scheme computes one
  // (0 = absent). Rides the wire as an optional fourth element field and
  // feeds server-assisted cache replacement (§4, [24]).
  double probability = 0;
};

struct PiggybackMessage {
  VolumeId volume = kNoVolume;
  std::vector<PiggybackElement> elements;

  bool empty() const { return elements.empty(); }
};

// What the server (or volume center) knows about an incoming request when
// it consults the volume machinery.
struct VolumeRequest {
  util::InternId server = util::kInvalidIntern;
  util::InternId source = util::kInvalidIntern;  // requesting proxy
  util::InternId path = util::kInvalidIntern;    // requested resource
  util::TimePoint time;
  std::uint64_t size = 0;                        // response body size
  trace::ContentType type = trace::ContentType::kOther;
};

// One candidate piggyback element as a provider offers it, before the
// proxy filter. `has_probability` marks the candidates of schemes that
// compute p(s|r) (probability volumes); the filter's probability
// threshold applies to those only. A volume's candidates either all carry
// a probability or none do.
struct Candidate {
  util::InternId resource = util::kInvalidIntern;
  bool has_probability = false;
  double probability = 0;
};

// A resumable best-first pull over one volume's candidates (recency order
// for directory volumes, descending implication probability for
// probability volumes). pull() copies the next up-to-out.size()
// candidates into `out` and returns how many it wrote; 0 means the
// candidates are exhausted. The scheme's candidate cap (max_candidates)
// is the cursor's budget: every candidate pulled counts against it,
// whether the filter keeps it or not.
class CandidateCursor {
 public:
  virtual std::size_t pull(std::span<Candidate> out) = 0;

 protected:
  ~CandidateCursor() = default;
};

// A provider's full candidate list for one request, drained eagerly from
// the cursor. `probs` parallels `resources` when the candidates carry
// probabilities and is empty otherwise.
struct VolumePrediction {
  VolumeId volume = kNoVolume;
  std::vector<util::InternId> resources;
  std::vector<double> probs;

  bool empty() const { return resources.empty(); }
};

// Interface implemented by volume-construction schemes, in two calls:
//   * observe(request) updates the scheme's state for every request
//     (directory volumes: move-to-front + trim; probability volumes: the
//     volume lookup) and returns the requested resource's volume id
//     (kNoVolume if it has none);
//   * the provider is then a CandidateCursor over that volume, valid until
//     the next observe(). Callers pull only as far as the proxy filter
//     needs (core::apply_filter_into stops at max_elements), and only for
//     messages that will be sent — a volume's candidates cost nothing
//     when frequency control or RPV suppresses the message.
// Cache-line aligned: the parallel evaluator's per-worker replicas write
// their cursor state on every request from different threads, and
// replicas allocated back to back would otherwise share cache lines.
class alignas(64) VolumeProvider : public CandidateCursor {
 public:
  virtual ~VolumeProvider() = default;

  virtual VolumeId observe(const VolumeRequest& request) = 0;

  // observe() followed by a full drain of the cursor.
  VolumePrediction on_request(const VolumeRequest& request);

  // on_request over a span: fills predictions[i] for requests[i], visiting
  // requests strictly in span order so stateful providers evolve exactly
  // as a per-request loop would. `predictions` is resized to match and
  // its existing elements (and their vector capacity) are reused.
  void on_request_batch(std::span<const VolumeRequest> requests,
                        std::vector<VolumePrediction>& predictions);

  // Number of volumes currently defined (for stats / wire-id checks).
  virtual std::size_t volume_count() const = 0;

  // Human-readable scheme name for reports.
  virtual const char* scheme_name() const = 0;

 private:
  void drain_into(const VolumeRequest& request, VolumePrediction& out);
};

}  // namespace piggyweb::core
