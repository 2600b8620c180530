// Snapshot container codec: primitive round trips, container structure,
// and exhaustive rejection of malformed files — every truncation length,
// plus bit flips, duplicate sections, and trailing garbage. The reader
// must return a clean error for all of them, never crash.
#include "persist/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

#include "util/rng.h"

namespace piggyweb::persist {
namespace {

TEST(ByteCodec, PrimitiveRoundTrip) {
  ByteWriter out;
  out.u8(0xab);
  out.u16(0xbeef);
  out.u32(0xdeadbeef);
  out.u64(0x0123456789abcdefULL);
  out.i64(-42);
  out.i64(std::numeric_limits<std::int64_t>::min());
  out.f64(3.141592653589793);
  out.f64(-0.0);
  out.str("hello");
  out.str(std::string("nul\0byte", 8));
  out.str("");

  ByteReader in(out.bytes());
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0xbeef);
  EXPECT_EQ(in.u32(), 0xdeadbeefU);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(in.i64(), -42);
  EXPECT_EQ(in.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(in.f64(), 3.141592653589793);
  const double negative_zero = in.f64();
  EXPECT_EQ(negative_zero, 0.0);
  EXPECT_TRUE(std::signbit(negative_zero));
  EXPECT_EQ(in.str(), "hello");
  EXPECT_EQ(in.str(), std::string_view("nul\0byte", 8));
  EXPECT_EQ(in.str(), "");
  EXPECT_TRUE(in.ok());
  EXPECT_TRUE(in.at_end());
}

TEST(ByteCodec, NanSurvivesBitExactly) {
  ByteWriter out;
  out.f64(std::numeric_limits<double>::quiet_NaN());
  ByteReader in(out.bytes());
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_TRUE(in.ok());
}

TEST(ByteCodec, ReadPastEndIsStickyFailure) {
  ByteWriter out;
  out.u16(7);
  ByteReader in(out.bytes());
  EXPECT_EQ(in.u64(), 0u);  // needs 8 bytes, only 2 present
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.u8(), 0u);  // still failed
  EXPECT_FALSE(in.ok());
}

TEST(ByteCodec, FitsRejectsOversizedCounts) {
  ByteWriter out;
  out.u64(123);
  ByteReader in(out.bytes());
  EXPECT_TRUE(in.fits(1, 8));
  EXPECT_FALSE(in.fits(std::numeric_limits<std::uint64_t>::max(), 8));
  EXPECT_FALSE(in.ok());
}

std::string two_section_file() {
  SnapshotWriter writer;
  ByteWriter a;
  a.u64(1);
  a.str("alpha");
  writer.add_section("alpha", a.take());
  ByteWriter b;
  b.u64(2);
  writer.add_section("beta", b.take());
  return writer.finish();
}

TEST(SnapshotContainer, RoundTrip) {
  const auto file = two_section_file();
  EXPECT_EQ(file.substr(0, 8), kSnapshotMagic);
  std::string error;
  const auto reader = SnapshotReader::parse(file, error);
  ASSERT_TRUE(reader.has_value()) << error;
  ASSERT_EQ(reader->sections().size(), 2u);
  const auto* alpha = reader->find("alpha");
  ASSERT_NE(alpha, nullptr);
  ByteReader in(alpha->payload);
  EXPECT_EQ(in.u64(), 1u);
  EXPECT_EQ(in.str(), "alpha");
  EXPECT_TRUE(in.ok() && in.at_end());
  EXPECT_NE(reader->find("beta"), nullptr);
  EXPECT_EQ(reader->find("gamma"), nullptr);
}

TEST(SnapshotContainer, EmptySectionListIsValid) {
  const auto file = SnapshotWriter().finish();
  std::string error;
  const auto reader = SnapshotReader::parse(file, error);
  ASSERT_TRUE(reader.has_value()) << error;
  EXPECT_TRUE(reader->sections().empty());
}

TEST(SnapshotContainer, EveryTruncationIsRejected) {
  const auto file = two_section_file();
  for (std::size_t len = 0; len < file.size(); ++len) {
    std::string error;
    EXPECT_FALSE(SnapshotReader::parse(file.substr(0, len), error).has_value())
        << "accepted truncation to " << len << " bytes";
    EXPECT_FALSE(error.empty());
  }
}

TEST(SnapshotContainer, EverySingleBitFlipIsRejected) {
  const auto file = two_section_file();
  for (std::size_t byte = 0; byte < file.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupt = file;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      std::string error;
      EXPECT_FALSE(SnapshotReader::parse(corrupt, error).has_value())
          << "accepted flip of byte " << byte << " bit " << bit;
    }
  }
}

TEST(SnapshotContainer, TrailingGarbageIsRejected) {
  auto file = two_section_file();
  file += '\0';
  std::string error;
  EXPECT_FALSE(SnapshotReader::parse(file, error).has_value());
}

TEST(SnapshotContainer, WrongMagicAndVersionAreRejected) {
  auto bad_magic = two_section_file();
  bad_magic[0] = 'X';
  std::string error;
  EXPECT_FALSE(SnapshotReader::parse(bad_magic, error).has_value());

  // Set the version field to an older and a newer version and re-fix the
  // footer so only the version is wrong — the reader must reject on
  // version, not checksum.
  for (const auto version : {kSnapshotVersion - 1, kSnapshotVersion + 1}) {
    auto bad_version = two_section_file();
    bad_version[8] = static_cast<char>(version);
    bad_version.resize(bad_version.size() - 8);
    ByteWriter footer;
    footer.u64(snapshot_checksum(bad_version));
    bad_version += footer.bytes();
    EXPECT_FALSE(SnapshotReader::parse(bad_version, error).has_value());
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }
}

TEST(SnapshotContainer, DuplicateSectionIsRejected) {
  // Hand-build a file with two sections of the same name (the writer
  // refuses, so splice the body and re-checksum).
  ByteWriter body;
  body.u32(kSnapshotVersion);
  body.u32(2);
  for (int i = 0; i < 2; ++i) {
    ByteWriter payload;
    payload.u64(static_cast<std::uint64_t>(i));
    const auto bytes = payload.take();
    body.u16(3);
    // name
    body.u8('d');
    body.u8('u');
    body.u8('p');
    body.u64(bytes.size());
    body.u64(snapshot_checksum(bytes));
    for (const char c : bytes) body.u8(static_cast<std::uint8_t>(c));
  }
  std::string file(kSnapshotMagic);
  file += body.bytes();
  ByteWriter footer;
  footer.u64(snapshot_checksum(file));
  file += footer.bytes();

  std::string error;
  EXPECT_FALSE(SnapshotReader::parse(file, error).has_value());
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(SnapshotContainer, RandomBytesNeverParse) {
  util::Rng rng(0x5eed0c0dec);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk(rng.below(512), '\0');
    for (auto& c : junk) c = static_cast<char>(rng.below(256));
    std::string error;
    // Random bytes parsing successfully would need a forged 64-bit
    // footer; treat any acceptance as failure.
    EXPECT_FALSE(SnapshotReader::parse(junk, error).has_value());
  }
}

TEST(SnapshotChecksum, HexFormat) {
  EXPECT_EQ(checksum_hex(0), "0x0000000000000000");
  EXPECT_EQ(checksum_hex(0xdeadbeef12345678ULL), "0xdeadbeef12345678");
}

TEST(SnapshotFiles, WriteReadRoundTrip) {
  const auto file = two_section_file();
  const std::string path = "codec_test_roundtrip.snap";
  std::string error;
  ASSERT_TRUE(write_file_bytes(path, file, error)) << error;
  const auto back = read_file_bytes(path, error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, file);
  std::remove(path.c_str());
}

TEST(SnapshotFiles, MissingFileReportsError) {
  std::string error;
  EXPECT_FALSE(read_file_bytes("does_not_exist.snap", error).has_value());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace piggyweb::persist
