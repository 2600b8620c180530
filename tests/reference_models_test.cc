// Differential tests: drive the production data structures and naive
// reference implementations with the same randomized operation sequences
// and require identical observable behaviour. Catches whole classes of
// bookkeeping bugs (split FIFO partitions, iterator juggling, eviction
// order) that example-based tests miss.
#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "proxy/cache.h"
#include "trace/record.h"
#include "util/rng.h"
#include "util/strings.h"
#include "volume/directory.h"
#include "volume/pair_counter.h"

namespace piggyweb {
namespace {

// --- LRU cache reference ----------------------------------------------------

class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t capacity, util::Seconds delta)
      : capacity_(capacity), delta_(delta) {}

  proxy::LookupOutcome lookup(std::uint64_t key, util::Seconds now) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return proxy::LookupOutcome::kMiss;
    touch(key);
    return now < it->second.expires ? proxy::LookupOutcome::kFreshHit
                                    : proxy::LookupOutcome::kStaleHit;
  }

  void insert(std::uint64_t key, std::uint64_t size, util::Seconds now) {
    if (size > capacity_) return;
    if (entries_.count(key)) erase(key);
    while (used_ + size > capacity_ && !order_.empty()) {
      erase(order_.back());
    }
    entries_[key] = {size, now + delta_};
    order_.push_front(key);
    used_ += size;
  }

  bool contains(std::uint64_t key) const { return entries_.count(key) > 0; }
  std::uint64_t used() const { return used_; }

 private:
  struct Entry {
    std::uint64_t size;
    util::Seconds expires;
  };
  void touch(std::uint64_t key) {
    order_.remove(key);
    order_.push_front(key);
  }
  void erase(std::uint64_t key) {
    used_ -= entries_[key].size;
    entries_.erase(key);
    order_.remove(key);
  }

  std::uint64_t capacity_;
  util::Seconds delta_;
  std::map<std::uint64_t, Entry> entries_;
  std::list<std::uint64_t> order_;
  std::uint64_t used_ = 0;
};

class LruDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruDifferential, MatchesReferenceOverRandomOps) {
  constexpr std::uint64_t kCapacity = 5000;
  constexpr util::Seconds kDelta = 500;
  proxy::CacheConfig config;
  config.capacity_bytes = kCapacity;
  config.freshness_interval = kDelta;
  config.policy = proxy::ReplacementPolicy::kLru;
  proxy::ProxyCache cache(config);
  ReferenceLru reference(kCapacity, kDelta);

  util::Rng rng(GetParam());
  util::Seconds now = 0;
  for (int op = 0; op < 4000; ++op) {
    now += static_cast<util::Seconds>(rng.below(40));
    const auto key = static_cast<util::InternId>(rng.below(60));
    const proxy::CacheKey cache_key{0, key};
    const auto real = cache.lookup(cache_key, {now});
    const auto expected = reference.lookup(key, now);
    ASSERT_EQ(real, expected) << "op " << op << " key " << key;
    if (real == proxy::LookupOutcome::kMiss) {
      const auto size = 50 + rng.below(400);
      cache.insert(cache_key, size, 0, {now});
      reference.insert(key, size, now);
    }
    ASSERT_EQ(cache.used_bytes(), reference.used()) << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruDifferential,
                         ::testing::Values(1, 2, 3, 42, 1998));

// --- Directory volume reference ---------------------------------------------

// Naive model: per (server, prefix), a recency-ordered vector of
// resources; candidate list = that vector, most recent first.
class ReferenceDirectory {
 public:
  explicit ReferenceDirectory(int level) : level_(level) {}

  std::vector<std::string> on_request(const std::string& path,
                                      util::Seconds now) {
    auto& members = volumes_[std::string(util::directory_prefix(path,
                                                                level_))];
    const auto it = std::find_if(
        members.begin(), members.end(),
        [&path](const auto& m) { return m.first == path; });
    if (it != members.end()) members.erase(it);
    members.insert(members.begin(), {path, now});
    // Recency order (stable under equal stamps because later arrivals are
    // always inserted at the front).
    std::vector<std::string> out;
    out.reserve(members.size());
    for (const auto& m : members) out.push_back(m.first);
    return out;
  }

 private:
  int level_;
  std::map<std::string, std::vector<std::pair<std::string, util::Seconds>>>
      volumes_;
};

class DirectoryDifferential : public ::testing::TestWithParam<int> {};

TEST_P(DirectoryDifferential, MatchesReferenceOverRandomRequests) {
  const int level = GetParam();
  volume::DirectoryVolumeConfig config;
  config.level = level;
  volume::DirectoryVolumes volumes(config);
  util::InternTable paths;
  volumes.bind_paths(paths);
  ReferenceDirectory reference(level);

  // A pool of paths over a small tree so prefixes collide heavily.
  std::vector<std::string> pool;
  for (const char* dir : {"", "/a", "/a/x", "/b", "/b/y/z"}) {
    for (int i = 0; i < 5; ++i) {
      pool.push_back(std::string(dir) + "/r" + std::to_string(i) + ".html");
    }
  }

  util::Rng rng(0xD1FF + static_cast<std::uint64_t>(level));
  util::Seconds now = 0;
  for (int op = 0; op < 2500; ++op) {
    ++now;  // strictly increasing: recency order is unambiguous
    const auto& path = pool[rng.below(pool.size())];
    core::VolumeRequest request;
    request.server = 0;
    request.path = paths.intern(path);
    request.time = {now};
    request.size = 100;
    request.type = trace::ContentType::kHtml;
    const auto prediction = volumes.on_request(request);
    const auto expected = reference.on_request(path, now);
    ASSERT_EQ(prediction.resources.size(), expected.size())
        << "op " << op << " path " << path;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(paths.str(prediction.resources[i]), expected[i])
          << "op " << op << " slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, DirectoryDifferential,
                         ::testing::Values(0, 1, 2));

// --- Pair counter reference (§3.3.1) ----------------------------------------

// Straight from the definitions: c(r) counts the requests for r, and
// c(s|r) counts the requests for r that are followed by at least one
// request for s from the same source within T. Resources requested fewer
// than `min_count` times take no part; with a prefix level set, only
// pairs sharing that directory prefix are counted. A counter's
// cr_at_creation is c(r) just before the pair's first co-occurrence,
// sources taken in ascending id order. Every request rescans the whole
// trace for its successors: no slices, no two-pointer window, no hashing.
struct ReferencePair {
  std::uint64_t count = 0;
  std::uint64_t cr_at_creation = 0;
};

struct ReferencePairCounts {
  std::map<util::InternId, std::uint64_t> c_r;
  std::map<std::pair<util::InternId, util::InternId>, ReferencePair> pairs;
};

ReferencePairCounts reference_pair_counts(const trace::Trace& trace,
                                          util::Seconds window,
                                          std::uint64_t min_count,
                                          int prefix_level) {
  const auto& requests = trace.requests();
  std::map<util::InternId, std::uint64_t> popularity;
  util::InternId max_source = 0;
  for (const auto& request : requests) {
    ++popularity[request.path];
    max_source = std::max(max_source, request.source);
  }
  const auto popular = [&](util::InternId path) {
    return popularity[path] >= min_count;
  };
  const auto prefix = [&](util::InternId path) {
    return std::string(
        util::directory_prefix(trace.paths().str(path), prefix_level));
  };

  ReferencePairCounts out;
  for (util::InternId source = 0; source <= max_source; ++source) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const auto& ri = requests[i];
      if (ri.source != source || !popular(ri.path)) continue;
      const auto cr_before = out.c_r[ri.path]++;
      std::set<util::InternId> successors;
      for (std::size_t j = i + 1; j < requests.size(); ++j) {
        const auto& rj = requests[j];
        if (rj.source == source && rj.time - ri.time <= window &&
            popular(rj.path)) {
          successors.insert(rj.path);
        }
      }
      for (const auto s : successors) {
        if (prefix_level > 0 && prefix(ri.path) != prefix(s)) continue;
        ++out.pairs.try_emplace({ri.path, s}, ReferencePair{0, cr_before})
              .first->second.count;
      }
    }
  }
  return out;
}

trace::Trace random_single_server_trace(std::uint64_t seed,
                                        std::size_t requests) {
  std::vector<std::string> pool;
  for (const char* dir : {"", "/a", "/a/x", "/b"}) {
    for (int i = 0; i < 8; ++i) {
      pool.push_back(std::string(dir) + "/r" + std::to_string(i) + ".html");
    }
  }
  util::Rng rng(seed);
  trace::Trace trace;
  util::Seconds now = 1'000'000;
  for (std::size_t i = 0; i < requests; ++i) {
    now += static_cast<util::Seconds>(rng.below(3));  // duplicates allowed
    const auto source = "10.0.0." + std::to_string(rng.below(6));
    trace.add({now}, source, "origin", pool[rng.below(pool.size())]);
  }
  return trace;  // built time-sorted
}

class PairCounterDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PairCounterDifferential, MatchesFromDefinitionsReference) {
  const auto trace = random_single_server_trace(GetParam(), 6'000);
  for (const int prefix_level : {0, 1}) {
    volume::PairCounterConfig config;
    config.window = 120;
    config.restrict_prefix_level = prefix_level;
    for (const std::uint64_t min_count : {1u, 5u}) {
      SCOPED_TRACE("prefix level " + std::to_string(prefix_level) +
                   ", min count " + std::to_string(min_count));
      const auto counts =
          volume::PairCounterBuilder(config).build(trace, min_count);
      const auto expected = reference_pair_counts(
          trace, config.window, min_count, prefix_level);

      for (util::InternId r = 0; r < trace.paths().size(); ++r) {
        const auto it = expected.c_r.find(r);
        ASSERT_EQ(counts.occurrences(r),
                  it == expected.c_r.end() ? 0 : it->second)
            << "r " << r;
      }
      ASSERT_EQ(counts.counter_count(), expected.pairs.size());
      for (const auto& [rs, pair] : expected.pairs) {
        const auto it =
            counts.pairs().find(volume::PairCounts::key(rs.first, rs.second));
        ASSERT_NE(it, counts.pairs().end())
            << "r " << rs.first << " s " << rs.second;
        EXPECT_EQ(it->second.count, pair.count)
            << "r " << rs.first << " s " << rs.second;
        EXPECT_EQ(it->second.cr_at_creation, pair.cr_at_creation)
            << "r " << rs.first << " s " << rs.second;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairCounterDifferential,
                         ::testing::Values(7, 1234, 987654321));

}  // namespace
}  // namespace piggyweb
