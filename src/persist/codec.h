// Versioned binary container codec — the common envelope every durable
// artifact serializes into: state snapshots ("PIGGYSNP") and columnar
// binary traces ("PIGGYTRC", src/trace/binary.h) share the layout and
// differ only in their 8-byte magic and the section vocabulary.
//
// A container file:
//
//   magic    8 bytes  e.g. "PIGGYSNP"
//   version  u32      kSnapshotVersion for PIGGYSNP (2: eval_meta gained
//                     the probability volume-set hash), 1 for PIGGYTRC
//   count    u32      number of sections
//   section* count times:
//     name     u16 length + bytes (unique within the file)
//     length   u64 payload bytes
//     checksum u64 FNV-1a over the payload
//     payload  `length` bytes
//   footer   u64      FNV-1a over everything before the footer
//
// All integers are little-endian fixed-width; doubles travel as the IEEE
// bit pattern, so round trips are bit-exact (NaN payloads included). The
// reader is fully bounds-checked and rejects — never crashes on — any
// corruption the fuzz suite throws at it: truncation, bit flips, duplicate
// or oversized sections, trailing garbage.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace piggyweb::persist {

inline constexpr std::uint32_t kSnapshotVersion = 2;
inline constexpr std::string_view kSnapshotMagic = "PIGGYSNP";

// Little-endian primitive encoder appending to an owned byte buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { append(v, 2); }
  void u32(std::uint32_t v) { append(v, 4); }
  void u64(std::uint64_t v) { append(v, 8); }
  void i64(std::int64_t v) { append(static_cast<std::uint64_t>(v), 8); }
  void f64(double v);

  // u32 length prefix + raw bytes (embedded NULs allowed).
  void str(std::string_view s);

  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  void append(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string bytes_;
};

// Bounds-checked little-endian decoder over a borrowed byte range. Any
// out-of-range read trips the sticky failure flag and returns zero values;
// callers check ok() once at the end instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(take(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return take(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(take(8)); }
  double f64();

  // Counterpart of ByteWriter::str. Returns a view into the underlying
  // buffer (valid while the buffer lives); empty on failure.
  std::string_view str();

  // Fails (sticky) unless exactly `n` elements can still plausibly fit —
  // a cheap guard against allocating huge vectors from corrupt counts.
  bool fits(std::uint64_t n, std::size_t element_bytes);

  // Advance past `n` bytes without decoding them.
  void skip(std::uint64_t n);

  void fail() { ok_ = false; }

 private:
  std::uint64_t take(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// Assembles a container file from named section payloads.
class SnapshotWriter {
 public:
  // Adding a duplicate name is a programming error (checked).
  void add_section(std::string_view name, std::string payload);

  bool has_section(std::string_view name) const;
  std::size_t section_count() const { return sections_.size(); }

  // The complete file image (header, sections, footer checksum). `magic`
  // must be exactly 8 bytes; defaults produce a snapshot container.
  std::string finish(std::string_view magic = kSnapshotMagic,
                     std::uint32_t version = kSnapshotVersion) const;

 private:
  struct Section {
    std::string name;
    std::string payload;
  };
  std::vector<Section> sections_;
};

struct SnapshotSection {
  std::string name;
  std::string_view payload;  // into the parsed buffer
};

// Parsed view of a container file. Borrows the file bytes: the buffer
// passed to parse() must outlive the reader and its section views.
class SnapshotReader {
 public:
  // Validates magic, version, structure, per-section checksums, and the
  // whole-file footer. On failure returns nullopt and describes the first
  // problem in `error`. Defaults accept a snapshot container; pass a
  // different magic/version pair for other container families.
  static std::optional<SnapshotReader> parse(
      std::string_view file, std::string& error,
      std::string_view magic = kSnapshotMagic,
      std::uint32_t version = kSnapshotVersion);

  const SnapshotSection* find(std::string_view name) const;
  const std::vector<SnapshotSection>& sections() const { return sections_; }

 private:
  std::vector<SnapshotSection> sections_;
};

// Whole-file checksum as recorded in run manifests: FNV-1a over the file
// bytes, rendered as "0x%016x" by checksum_hex.
std::uint64_t snapshot_checksum(std::string_view bytes);
std::string checksum_hex(std::uint64_t checksum);

// File helpers. Binary-mode whole-file write/read; on failure return
// false / nullopt with a message in `error`.
bool write_file_bytes(const std::string& path, std::string_view bytes,
                      std::string& error);
std::optional<std::string> read_file_bytes(const std::string& path,
                                           std::string& error);

}  // namespace piggyweb::persist
