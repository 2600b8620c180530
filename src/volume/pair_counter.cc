#include "volume/pair_counter.h"

#include <algorithm>

#include "obs/tracer.h"
#include "util/expect.h"
#include "util/strings.h"

namespace piggyweb::volume {

double PairCounts::probability(util::InternId r, util::InternId s) const {
  const auto it = pairs_.find(key(r, s));
  if (it == pairs_.end()) return 0.0;
  const auto cr = occurrences(r);
  const auto denom = cr - it->second.cr_at_creation;
  if (denom == 0) return 0.0;
  return static_cast<double>(it->second.count) /
         static_cast<double>(denom);
}

std::uint64_t PairCounts::occurrences(util::InternId r) const {
  return r < c_r_.size() ? c_r_[r] : 0;
}

std::uint64_t PairCounts::pair_count(util::InternId r,
                                     util::InternId s) const {
  const auto it = pairs_.find(key(r, s));
  return it == pairs_.end() ? 0 : it->second.count;
}

std::vector<double> PairCounts::all_probabilities() const {
  std::vector<double> out;
  out.reserve(pairs_.size());
  for (const auto& [k, pc] : pairs_) {
    const auto r = static_cast<util::InternId>(k >> 32);
    const auto cr = occurrences(r);
    const auto denom = cr - pc.cr_at_creation;
    if (denom > 0) {
      out.push_back(static_cast<double>(pc.count) /
                    static_cast<double>(denom));
    }
  }
  return out;
}

void PairObservations::observe_window(
    std::span<const trace::Request> window) {
  for (const auto& r : window) {
    if (r.source >= by_source_.size()) {
      by_source_.resize(static_cast<std::size_t>(r.source) + 1);
    }
    if (r.path >= popularity_.size()) {
      popularity_.resize(static_cast<std::size_t>(r.path) + 1, 0);
    }
    by_source_[r.source].push_back(Entry{r.time, r.path});
    ++popularity_[r.path];
  }
}

PairCounterBuilder::PairCounterBuilder(const PairCounterConfig& config)
    : config_(config) {
  PW_EXPECT(config.window > 0);
  PW_EXPECT(config.sample_threshold > 0);
}

PairCounts PairCounterBuilder::build(const trace::Trace& trace,
                                     std::uint64_t min_resource_count) {
  const auto& requests = trace.requests();
  PW_EXPECT(std::is_sorted(requests.begin(), requests.end(),
                           [](const trace::Request& a,
                              const trace::Request& b) {
                             return a.time < b.time;
                           }));
  PairObservations observations;
  observations.observe_window(requests);
  return build(observations, util::StringTableView(trace.paths()),
               min_resource_count);
}

PairCounts PairCounterBuilder::build(const PairObservations& observations,
                                     util::StringTableView paths,
                                     std::uint64_t min_resource_count) {
  OBS_SPAN("pair_counter.build");
  // Popularity feeds the min-count cut and the sampler's freq(r) term.
  // Padding the vector to the path-table size keeps c_r_ the same shape
  // the whole-trace pass produced (ids interned but never requested).
  auto popularity = observations.popularity();
  if (popularity.size() < paths.size()) popularity.resize(paths.size(), 0);

  util::Rng rng(config_.seed);
  PairCounts counts;
  counts.c_r_.assign(popularity.size(), 0);

  const auto prefix_of = [&](util::InternId path) {
    return util::directory_prefix(paths.str(path),
                                  config_.restrict_prefix_level);
  };

  std::vector<util::InternId> successors;  // distinct, per request
  for (std::size_t src = 0; src < observations.source_count(); ++src) {
    const auto slice = observations.slice(src);

    // Two-pointer forward scan over this source's requests.
    for (std::size_t i = 0; i < slice.size(); ++i) {
      const auto& ri = slice[i];
      const auto r = ri.path;
      if (popularity[r] < min_resource_count) continue;
      ++counts.c_r_[r];
      const auto cr_now = counts.c_r_[r];

      successors.clear();
      for (std::size_t j = i + 1; j < slice.size(); ++j) {
        const auto& rj = slice[j];
        if (rj.time - ri.time > config_.window) break;
        const auto s = rj.path;
        if (popularity[s] < min_resource_count) continue;
        if (std::find(successors.begin(), successors.end(), s) !=
            successors.end()) {
          continue;
        }
        successors.push_back(s);
      }

      for (const auto s : successors) {
        if (config_.restrict_prefix_level > 0 &&
            prefix_of(r) != prefix_of(s)) {
          continue;
        }
        const auto k = PairCounts::key(r, s);
        auto it = counts.pairs_.find(k);
        if (it == counts.pairs_.end()) {
          if (config_.sample_counters) {
            const double create_prob = std::min(
                1.0, config_.sample_k /
                         (config_.sample_threshold *
                          static_cast<double>(std::max<std::uint64_t>(
                              1, cr_now))));
            if (!rng.chance(create_prob)) continue;
          }
          // cr_at_creation excludes the current occurrence so this first
          // co-occurrence contributes 1/1, not 1/0.
          it = counts.pairs_.emplace(k, PairCount{0, cr_now - 1}).first;
        }
        ++it->second.count;
      }
    }
  }
  return counts;
}

}  // namespace piggyweb::volume
