// Directory-based volumes (§3.2).
//
// Resources sharing a k-level directory prefix form a volume ("one-level
// volumes put /a/b.html and /a/d/e.html together; zero-level prefixes make
// one site-wide volume"). Volumes are maintained online exactly as §3.2.1
// prescribes:
//   * a collection of FIFO lists partitioned by content type and size
//     class (so filters can serve "popular items of certain content types
//     and sizes" without scanning),
//   * move-to-front on access (last-access-time as the popularity metric,
//     constant-time maintenance),
//   * tail-trimming of the logical FIFO to bound volume size.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <vector>

#include "core/piggyback.h"
#include "util/flat_map.h"
#include "util/intern.h"

namespace piggyweb::persist {
struct StateAccess;
}

namespace piggyweb::volume {

struct DirectoryVolumeConfig {
  int level = 1;                          // directory prefix depth
  std::size_t max_volume_elements = 2000; // tail-trim bound per volume
  std::size_t max_candidates = 200;       // candidate budget per request
  std::uint64_t large_size_threshold = 8 * 1024;  // size-class boundary
  // Volume ids are dense and in discovery order: the i-th volume an
  // instance discovers gets id i. Two instances fed the same requests
  // number the same volumes alike, which is what lets the parallel
  // evaluator's replicas share RPV state and a static RPV list.
};

class DirectoryVolumes final : public core::VolumeProvider {
 public:
  explicit DirectoryVolumes(const DirectoryVolumeConfig& config);

  // Observes the access (insert or move-to-front, then tail-trim) and
  // returns the request's volume id. The cursor then walks that volume's
  // contents in recency order (most recent first), merging the partition
  // lists only as far as the caller pulls, up to max_candidates. The
  // requested resource itself is included; the filter layer strips it.
  core::VolumeId observe(const core::VolumeRequest& request) override;
  std::size_t pull(std::span<core::Candidate> out) override;

  std::size_t volume_count() const override { return volumes_.size(); }
  const char* scheme_name() const override { return "directory"; }

  // Volume id for a (server, path) pair without mutating state; kNoVolume
  // if that volume has never been touched.
  core::VolumeId peek_volume(util::InternId server,
                             std::string_view path) const;

  // Number of elements currently held by a volume.
  std::size_t volume_size(core::VolumeId id) const;

  int level() const { return config_.level; }

 private:
  friend struct piggyweb::persist::StateAccess;

  // Partition index: 3 content types x 2 size classes.
  static constexpr std::size_t kPartitions = 6;
  static std::size_t partition_of(trace::ContentType type,
                                  std::uint64_t size,
                                  std::uint64_t large_threshold);

  struct Element {
    util::InternId resource;
    util::TimePoint last_access;
  };
  using ElementList = std::list<Element>;

  struct Volume {
    std::array<ElementList, kPartitions> parts;
    // resource -> (partition, node) for O(1) move-to-front
    util::FlatMap<util::InternId,
                  std::pair<std::size_t, ElementList::iterator>>
        index;
  };

  // (server id, interned prefix id) packed into the volume lookup key.
  static std::uint64_t volume_key(util::InternId server,
                                  util::InternId prefix) {
    return (static_cast<std::uint64_t>(server) << 32) | prefix;
  }

  void touch(Volume& volume, const core::VolumeRequest& request);
  void trim(Volume& volume);

  // Path string for an id from whichever table is bound (see bind_paths).
  std::string_view path_str(util::InternId path) const {
    return live_paths_ != nullptr ? live_paths_->str(path)
                                  : fixed_paths_.str(path);
  }

  // Interned prefix id for a path id, via the derived per-path cache:
  // a path's prefix string never changes, so the directory_prefix scan +
  // prefix intern runs once per distinct path instead of once per request.
  util::InternId prefix_of(util::InternId path);

  DirectoryVolumeConfig config_;
  // A volume's identity is (server, k-level prefix). Prefix strings are
  // interned once, so the per-request lookup packs two dense ids instead
  // of building and hashing a "server|prefix" string.
  util::InternTable prefixes_;
  util::FlatMap<std::uint64_t, core::VolumeId> ids_;
  std::vector<Volume> volumes_;
  // The path table is owned by the caller. Two binding modes: a live
  // InternTable pointer (online servers keep interning new paths — the
  // table may grow after binding), or a fixed StringTableView (replay over
  // a loaded trace or an mmap'd container, where the table is immutable).
  const util::InternTable* live_paths_ = nullptr;
  util::StringTableView fixed_paths_;
  // path id -> interned prefix id; kInvalidIntern = not yet computed.
  // Derived state: rebuilt lazily, never serialized.
  std::vector<util::InternId> prefix_ids_;

  // Candidate cursor over the volume last observed: the next unmerged
  // node of each partition and the number of candidates pulled so far.
  const Volume* cursor_volume_ = nullptr;
  std::array<ElementList::const_iterator, kPartitions> cursor_heads_{};
  std::size_t cursor_pulled_ = 0;

 public:
  // The provider needs to turn interned path ids back into strings to
  // compute directory prefixes; bind the trace's path table once. The
  // InternTable overload tracks a table that keeps growing (live servers);
  // the view overload serves replay from an immutable table without
  // touching the InternTable at all.
  void bind_paths(const util::InternTable& paths) { live_paths_ = &paths; }
  void bind_paths(util::StringTableView paths) { fixed_paths_ = paths; }
};

}  // namespace piggyweb::volume
