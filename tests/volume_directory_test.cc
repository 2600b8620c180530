#include "volume/directory.h"

#include <gtest/gtest.h>

namespace piggyweb::volume {
namespace {

class DirectoryVolumesTest : public ::testing::Test {
 protected:
  core::VolumeRequest request(std::string_view path,
                              util::Seconds t = 0,
                              std::uint64_t size = 100,
                              trace::ContentType type =
                                  trace::ContentType::kHtml) {
    core::VolumeRequest r;
    r.server = 0;
    r.source = 0;
    r.path = paths_.intern(path);
    r.time = {t};
    r.size = size;
    r.type = type;
    return r;
  }

  DirectoryVolumes make(int level, std::size_t max_elements = 2000,
                        std::size_t max_candidates = 200) {
    DirectoryVolumeConfig config;
    config.level = level;
    config.max_volume_elements = max_elements;
    config.max_candidates = max_candidates;
    DirectoryVolumes volumes(config);
    volumes.bind_paths(paths_);
    return volumes;
  }

  util::InternTable paths_;
};

TEST_F(DirectoryVolumesTest, SamePrefixSharesVolume) {
  auto volumes = make(1);
  // The paper's example: /a/b.html and /a/d/e.html share a 1-level
  // volume; /f/g.html does not.
  const auto p1 = volumes.on_request(request("/a/b.html", 0));
  const auto p2 = volumes.on_request(request("/a/d/e.html", 1));
  const auto p3 = volumes.on_request(request("/f/g.html", 2));
  EXPECT_EQ(p1.volume, p2.volume);
  EXPECT_NE(p1.volume, p3.volume);
  EXPECT_EQ(volumes.volume_count(), 2u);
}

TEST_F(DirectoryVolumesTest, ZeroLevelIsSiteWide) {
  auto volumes = make(0);
  const auto p1 = volumes.on_request(request("/a/b.html", 0));
  const auto p2 = volumes.on_request(request("/f/g.html", 1));
  EXPECT_EQ(p1.volume, p2.volume);
  EXPECT_EQ(volumes.volume_count(), 1u);
}

TEST_F(DirectoryVolumesTest, CandidatesInRecencyOrder) {
  auto volumes = make(1);
  volumes.on_request(request("/a/1.html", 0));
  volumes.on_request(request("/a/2.html", 10));
  const auto p = volumes.on_request(request("/a/3.html", 20));
  ASSERT_EQ(p.resources.size(), 3u);
  EXPECT_EQ(paths_.str(p.resources[0]), "/a/3.html");
  EXPECT_EQ(paths_.str(p.resources[1]), "/a/2.html");
  EXPECT_EQ(paths_.str(p.resources[2]), "/a/1.html");
}

TEST_F(DirectoryVolumesTest, MoveToFrontOnReaccess) {
  auto volumes = make(1);
  volumes.on_request(request("/a/1.html", 0));
  volumes.on_request(request("/a/2.html", 10));
  volumes.on_request(request("/a/1.html", 20));  // 1 back to front
  const auto p = volumes.on_request(request("/a/3.html", 30));
  ASSERT_EQ(p.resources.size(), 3u);
  EXPECT_EQ(paths_.str(p.resources[1]), "/a/1.html");
  EXPECT_EQ(paths_.str(p.resources[2]), "/a/2.html");
}

TEST_F(DirectoryVolumesTest, NoDuplicateElements) {
  auto volumes = make(1);
  for (int i = 0; i < 5; ++i) {
    volumes.on_request(request("/a/x.html", i));
  }
  const auto p = volumes.on_request(request("/a/x.html", 10));
  EXPECT_EQ(p.resources.size(), 1u);
  EXPECT_EQ(volumes.volume_size(p.volume), 1u);
}

TEST_F(DirectoryVolumesTest, TrimsToMaxElements) {
  auto volumes = make(1, /*max_elements=*/3);
  for (int i = 0; i < 10; ++i) {
    volumes.on_request(
        request("/a/r" + std::to_string(i) + ".html", i));
  }
  const auto p = volumes.on_request(request("/a/q.html", 100));
  EXPECT_LE(volumes.volume_size(p.volume), 3u);
  // Survivors are the most recently used.
  ASSERT_GE(p.resources.size(), 2u);
  EXPECT_EQ(paths_.str(p.resources[0]), "/a/q.html");
  EXPECT_EQ(paths_.str(p.resources[1]), "/a/r9.html");
}

TEST_F(DirectoryVolumesTest, EvictionPicksOldestAcrossPartitions) {
  auto volumes = make(1, /*max_elements=*/2);
  volumes.on_request(request("/a/old.html", 0, 100,
                             trace::ContentType::kHtml));
  volumes.on_request(request("/a/img.gif", 10, 100,
                             trace::ContentType::kImage));
  volumes.on_request(request("/a/new.html", 20, 100,
                             trace::ContentType::kHtml));
  const auto p = volumes.on_request(request("/a/img.gif", 30));
  // old.html (the oldest) was evicted even though img.gif sat in a
  // different partition.
  for (const auto res : p.resources) {
    EXPECT_NE(paths_.str(res), "/a/old.html");
  }
}

TEST_F(DirectoryVolumesTest, MaxCandidatesCapsOutput) {
  auto volumes = make(1, 2000, /*max_candidates=*/5);
  for (int i = 0; i < 20; ++i) {
    volumes.on_request(request("/a/r" + std::to_string(i) + ".html", i));
  }
  const auto p = volumes.on_request(request("/a/q.html", 100));
  EXPECT_EQ(p.resources.size(), 5u);
}

TEST_F(DirectoryVolumesTest, PartitionMigrationOnTypeChange) {
  auto volumes = make(1);
  volumes.on_request(request("/a/r.html", 0, 100,
                             trace::ContentType::kHtml));
  // Same resource reported with a large size later: must migrate, not
  // duplicate.
  volumes.on_request(request("/a/r.html", 10, 100000,
                             trace::ContentType::kHtml));
  const auto p = volumes.on_request(request("/a/other.html", 20));
  EXPECT_EQ(p.resources.size(), 2u);
  EXPECT_EQ(volumes.volume_size(p.volume), 2u);
}

TEST_F(DirectoryVolumesTest, ServersKeepSeparateVolumes) {
  auto volumes = make(1);
  auto r1 = request("/a/x.html", 0);
  auto r2 = request("/a/x.html", 1);
  r2.server = 7;
  const auto p1 = volumes.on_request(r1);
  const auto p2 = volumes.on_request(r2);
  EXPECT_NE(p1.volume, p2.volume);
}

TEST_F(DirectoryVolumesTest, PeekVolumeDoesNotCreate) {
  auto volumes = make(1);
  EXPECT_EQ(volumes.peek_volume(0, "/a/x.html"), core::kNoVolume);
  volumes.on_request(request("/a/x.html", 0));
  EXPECT_NE(volumes.peek_volume(0, "/a/x.html"), core::kNoVolume);
  EXPECT_EQ(volumes.volume_count(), 1u);
}

TEST_F(DirectoryVolumesTest, DirectoryProbsEmpty) {
  auto volumes = make(1);
  const auto p = volumes.on_request(request("/a/x.html", 0));
  EXPECT_TRUE(p.probs.empty());
  EXPECT_STREQ(volumes.scheme_name(), "directory");
}

TEST_F(DirectoryVolumesTest, RootFilesShareRootVolume) {
  auto volumes = make(1);
  const auto p1 = volumes.on_request(request("/index.html", 0));
  const auto p2 = volumes.on_request(request("/about.html", 1));
  EXPECT_EQ(p1.volume, p2.volume);
}

// Drains the cursor of the volume `volumes` last observed, `chunk`
// candidates per pull.
std::vector<util::InternId> drain(DirectoryVolumes& volumes,
                                  std::size_t chunk) {
  std::vector<util::InternId> out;
  std::vector<core::Candidate> buffer(chunk);
  for (auto n = volumes.pull(buffer); n > 0; n = volumes.pull(buffer)) {
    EXPECT_LE(n, chunk);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_FALSE(buffer[i].has_probability);
      out.push_back(buffer[i].resource);
    }
  }
  EXPECT_EQ(volumes.pull(buffer), 0u);  // stays exhausted
  return out;
}

// The cursor resumes exactly where the last pull stopped: pulled one at a
// time, three at a time, or all at once, it yields on_request's list —
// across all six partitions, a partition migration, and a candidate
// budget smaller than the volume.
TEST_F(DirectoryVolumesTest, CursorChunksMatchOnRequest) {
  std::vector<DirectoryVolumes> providers;
  for (int i = 0; i < 4; ++i) {
    providers.push_back(make(1, /*max_elements=*/40, /*max_candidates=*/25));
  }
  const trace::ContentType types[] = {trace::ContentType::kHtml,
                                      trace::ContentType::kImage,
                                      trace::ContentType::kOther};
  for (int i = 0; i < 60; ++i) {
    const auto r = request("/a/r" + std::to_string(i % 33) + ".x", i,
                           (i * 7919) % 3 == 0 ? 100000 : 100, types[i % 3]);
    for (auto& provider : providers) provider.observe(r);
  }
  const auto last = request("/a/r5.x", 100);
  const auto expected = providers[0].on_request(last).resources;
  ASSERT_EQ(expected.size(), 25u);
  for (std::size_t k = 1; k < providers.size(); ++k) {
    const std::size_t chunk = k == 1 ? 1 : k == 2 ? 3 : 1000;
    EXPECT_EQ(providers[k].observe(last),
              providers[0].peek_volume(0, "/a/r5.x"));
    EXPECT_EQ(drain(providers[k], chunk), expected) << "chunk " << chunk;
  }
}

// Level sweep: deeper prefixes never merge paths that shallower ones split.
class DirectoryLevelTest : public DirectoryVolumesTest,
                           public ::testing::WithParamInterface<int> {};

TEST_P(DirectoryLevelTest, VolumeCountGrowsWithLevel) {
  const int level = GetParam();
  auto shallow = make(level);
  auto deep = make(level + 1);
  const std::vector<std::string> paths = {
      "/a/b/c/one.html", "/a/b/d/two.html", "/a/e/f/three.html",
      "/g/h/i/four.html", "/top.html"};
  for (std::size_t i = 0; i < paths.size(); ++i) {
    shallow.on_request(request(paths[i], static_cast<util::Seconds>(i)));
    deep.on_request(request(paths[i], static_cast<util::Seconds>(i)));
  }
  EXPECT_LE(shallow.volume_count(), deep.volume_count());
}

INSTANTIATE_TEST_SUITE_P(Levels, DirectoryLevelTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace piggyweb::volume
