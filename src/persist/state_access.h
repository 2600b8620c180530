// Private-state bridge for the snapshot layer.
//
// The durable tables keep their invariants behind private members; rather
// than widen their public APIs with persistence-only accessors, each one
// befriends this single struct. StateAccess member functions (defined in
// tables.cc) are the only code outside a table's own translation unit
// that may touch its internals, which keeps the blast radius of a
// representation change easy to audit: grep for StateAccess.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "persist/tables.h"

namespace piggyweb::volume {
class DirectoryVolumes;
}

namespace piggyweb::proxy {
class ProxyCache;
}

namespace piggyweb::persist {

struct StateAccess {
  // volume::DirectoryVolumes — full structural export/import. Import
  // installs `images` in order into an empty provider: the i-th image
  // becomes volume id i. On failure the provider is partially filled and
  // must be discarded.
  static std::vector<DirectoryVolumeImage> export_directory_volumes(
      const volume::DirectoryVolumes& provider);
  static bool import_directory_volumes(
      volume::DirectoryVolumes& provider,
      std::span<const DirectoryVolumeImage> images, std::string& error);

  // proxy::ProxyCache — exact state: entries in LRU order, the three
  // replacement queues as index sequences (preserving equal-key order),
  // GreedyDual inflation, freshness overrides, and stats. The restore
  // target must be constructed with the same CacheConfig as the saved
  // cache (checked); on failure its state is unspecified.
  static void serialize_proxy_cache(const proxy::ProxyCache& cache,
                                    ByteWriter& out);
  static bool deserialize_proxy_cache(ByteReader& in, proxy::ProxyCache& cache,
                                      std::string& error);
};

}  // namespace piggyweb::persist
