// Serializers for piggyweb's durable tables — each a (serialize,
// deserialize) pair over the codec's ByteWriter/ByteReader emitting a
// canonical byte stream: map entries sorted by key, list contents in their
// semantic order (LRU front to back, FIFO oldest first). Canonical bytes
// make "restore then re-serialize" a bit-exact identity, which the
// round-trip property suites rely on.
//
// Tables whose state is reachable through public APIs are handled by the
// free functions here; tables that need private access (DirectoryVolumes,
// ProxyCache) go through persist::StateAccess (state_access.h).
//
// Every deserializer is defensive: counts are bounds-checked against the
// remaining input before any allocation, structural invariants (duplicate
// keys, dangling indices, size mismatches) are rejected with an error
// string, and no input can trip a contract failure or undefined behaviour.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/rpv.h"
#include "persist/codec.h"
#include "util/intern.h"
#include "util/time.h"
#include "volume/probability.h"

namespace piggyweb::persist {

// util::InternTable ---------------------------------------------------------
//
// Strings in id order; reloading into an empty table reproduces the exact
// id assignment (the table hands out dense ids in insertion order).

void serialize_intern_table(const util::InternTable& table, ByteWriter& out);
bool deserialize_intern_table(ByteReader& in, util::InternTable& table,
                              std::string& error);

// core::RpvEntry lists ------------------------------------------------------
//
// One RPV FIFO's contents oldest first, no expiry applied (see
// RpvList::entries). The caller installs read entries into a list
// constructed with the run's RpvConfig via RpvList::restore_entries.

void serialize_rpv_entries(std::span<const core::RpvEntry> entries,
                           ByteWriter& out);
bool deserialize_rpv_entries(ByteReader& in,
                             std::vector<core::RpvEntry>& entries,
                             std::string& error);

// volume::ProbabilityVolumeSet ----------------------------------------------
//
// Volumes in volume-id order, so reloading into an empty set reassigns the
// identical dense ids.

void serialize_probability_volume_set(const volume::ProbabilityVolumeSet& set,
                                      ByteWriter& out);
bool deserialize_probability_volume_set(ByteReader& in,
                                        volume::ProbabilityVolumeSet& set,
                                        std::string& error);

// Pretrained volume file: a PIGGYSNP container with a "paths" section
// (the training trace's path table) and a "probability_volumes" section,
// as written by piggyweb_generate --volumes-out. The loader interns each
// path the volumes reference into `paths`, remapping its id, and keeps
// the saved volume ids. It rejects empty volumes, probabilities outside
// [0, 1] (NaN included) and resource ids past the file's path table.
std::string serialize_volume_file(const volume::ProbabilityVolumeSet& set,
                                  const util::InternTable& paths);
std::optional<volume::ProbabilityVolumeSet> deserialize_volume_file(
    std::string_view file, util::InternTable& paths, std::string& error);

// volume::DirectoryVolumes ---------------------------------------------------
//
// Structural image of one directory volume: its identity (server id +
// prefix string — prefix intern ids are instance-local and do not
// persist), the volume id the saved run had assigned, and the six
// partition lists in MRU-first order. Volume ids are opaque (RPV
// suppression compares them only for equality), so a restore may renumber;
// EvalRestore (eval_state.h) translates saved ids in RPV state.

inline constexpr std::size_t kDirectoryPartitions = 6;

struct DirectoryElementImage {
  util::InternId resource = util::kInvalidIntern;
  util::TimePoint last_access{};

  bool operator==(const DirectoryElementImage&) const = default;
};

struct DirectoryVolumeImage {
  util::InternId server = util::kInvalidIntern;
  std::string prefix;
  core::VolumeId saved_id = core::kNoVolume;
  std::array<std::vector<DirectoryElementImage>, kDirectoryPartitions> parts;

  bool operator==(const DirectoryVolumeImage&) const = default;
};

void serialize_directory_volume_images(
    std::span<const DirectoryVolumeImage> images, ByteWriter& out);
bool deserialize_directory_volume_images(
    ByteReader& in, std::vector<DirectoryVolumeImage>& images,
    std::string& error);

}  // namespace piggyweb::persist
