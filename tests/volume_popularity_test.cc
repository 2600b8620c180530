#include "volume/popularity.h"

#include <gtest/gtest.h>

namespace piggyweb::volume {
namespace {

// A scripted primary provider for testing the decorator.
class ScriptedProvider final : public core::VolumeProvider {
 public:
  core::VolumePrediction next;
  core::VolumeId observe(const core::VolumeRequest&) override {
    pulled_ = 0;
    return next.volume;
  }
  std::size_t pull(std::span<core::Candidate> out) override {
    const bool has_probs = next.probs.size() == next.resources.size();
    std::size_t n = 0;
    for (; n < out.size() && pulled_ < next.resources.size(); ++n) {
      out[n] = {next.resources[pulled_], has_probs,
                has_probs ? next.probs[pulled_] : 0.0};
      ++pulled_;
    }
    return n;
  }
  std::size_t volume_count() const override { return 1; }
  const char* scheme_name() const override { return "scripted"; }

 private:
  std::size_t pulled_ = 0;
};

core::VolumeRequest request_for(util::InternId path) {
  core::VolumeRequest r;
  r.path = path;
  r.time = {0};
  return r;
}

class PopularityTest : public ::testing::Test {
 protected:
  PopularityTest() : provider_(make_config(), primary_) {}

  static PopularityVolumeConfig make_config() {
    PopularityVolumeConfig config;
    config.top_n = 3;
    config.min_primary = 1;
    return config;
  }

  void warm(std::initializer_list<std::pair<util::InternId, int>> counts) {
    primary_.next = {};  // empty primary while warming
    for (const auto& [resource, n] : counts) {
      for (int i = 0; i < n; ++i) {
        provider_.on_request(request_for(resource));
      }
    }
  }

  ScriptedProvider primary_;
  PopularityVolumes provider_;
};

TEST_F(PopularityTest, TracksTopN) {
  warm({{1, 5}, {2, 3}, {3, 7}, {4, 1}, {5, 2}});
  const auto top = provider_.popular();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 3u);  // 7 accesses
  EXPECT_EQ(top[1], 1u);  // 5
  // Third slot holds one of the lower-count resources.
}

TEST_F(PopularityTest, TopsUpEmptyPrimary) {
  warm({{1, 5}, {2, 3}, {3, 7}});
  primary_.next = {};  // nothing from the primary
  const auto prediction = provider_.on_request(request_for(99));
  EXPECT_EQ(prediction.volume, core::kMaxWireVolumeId);
  EXPECT_GE(prediction.resources.size(), 3u);
}

TEST_F(PopularityTest, LeavesRichPrimaryAlone) {
  warm({{1, 5}, {2, 3}});
  primary_.next.volume = 7;
  primary_.next.resources = {42};
  const auto prediction = provider_.on_request(request_for(99));
  EXPECT_EQ(prediction.volume, 7u);
  ASSERT_EQ(prediction.resources.size(), 1u);
  EXPECT_EQ(prediction.resources[0], 42u);
}

TEST_F(PopularityTest, NeverSuggestsRequestedResource) {
  warm({{1, 5}, {2, 3}, {3, 7}});
  primary_.next = {};
  const auto prediction = provider_.on_request(request_for(3));
  for (const auto res : prediction.resources) EXPECT_NE(res, 3u);
}

TEST_F(PopularityTest, NoDuplicatesWhenToppingUp) {
  warm({{1, 5}, {2, 3}, {3, 7}});
  PopularityVolumeConfig config;
  config.top_n = 3;
  config.min_primary = 5;  // always top up
  ScriptedProvider primary;
  PopularityVolumes provider(config, primary);
  for (int i = 0; i < 4; ++i) provider.on_request(request_for(1));
  for (int i = 0; i < 2; ++i) provider.on_request(request_for(2));
  primary.next.volume = 7;
  primary.next.resources = {1};  // popular resource already present
  const auto prediction = provider.on_request(request_for(99));
  int count1 = 0;
  for (const auto res : prediction.resources) count1 += (res == 1u);
  EXPECT_EQ(count1, 1);
}

TEST_F(PopularityTest, PopularityShiftsOverTime) {
  warm({{1, 10}});
  EXPECT_EQ(provider_.popular()[0], 1u);
  warm({{2, 20}});
  EXPECT_EQ(provider_.popular()[0], 2u);
}

TEST_F(PopularityTest, VolumeCountIncludesPopularVolume) {
  EXPECT_EQ(provider_.volume_count(), 2u);  // scripted (1) + popular
  EXPECT_STREQ(provider_.scheme_name(), "popularity-topped");
}

}  // namespace
}  // namespace piggyweb::volume
