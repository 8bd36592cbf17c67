// Versioned, length-prefixed, CRC-guarded binary checkpoint framing.
//
// Layout (all integers little-endian, fixed width):
//
//   magic   8 bytes   "RRSCKPT\n"
//   major   u32       layout version; readers reject a mismatch
//   minor   u32       additive version; readers accept any (new fields
//                     live at the tail of their section and are skipped
//                     by close_section())
//   length  u64       payload byte count
//   crc32   u32       CRC-32 (poly 0xEDB88320) over the payload bytes
//   payload length bytes of nested sections
//   trailer 8 bytes   "RRSEND\n\0"
//
// The payload is a sequence of tagged sections, each
// [tag u32][len u64][len bytes]; sections nest.  Writers build the
// payload in memory so lengths are exact; readers bounds-check every
// primitive against the innermost open section and the payload, and
// reject any malformation with InputError — a corrupt or truncated
// checkpoint must never crash or be half-applied.
//
// Version policy: additive fields (appended inside an existing section,
// or a new trailing section) bump kCheckpointMinor; any layout change —
// reordered or resized fields, removed sections — bumps
// kCheckpointMajor and resets minor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rrs {

/// Major 7 moves the recorded schedule out of the engine section into the
/// schedule recorder's own section, which also carries churn events.
/// Since major 6 the engine keeps no pending budget or admission-rejection
/// counter.  Since major 5 the engine keeps no hottest-failure FIFO and
/// the tracker no eligible list or ineligible-drop ids (the per-color
/// eligible flags carry the set).  Since major 4 dLRU-EDF's LRU split
/// lives in the adaptive policy's section, after the shared Section 3
/// policy fields; since major 3 the engine's counters follow RunCounters'
/// field-list order (rounds included), and every checkpoint carries each
/// color's delay bound, drop cost and length in the engine's options
/// section.
inline constexpr std::uint32_t kCheckpointMajor = 7;
inline constexpr std::uint32_t kCheckpointMinor = 0;

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) of `size` bytes.
[[nodiscard]] std::uint32_t crc32(const unsigned char* data,
                                  std::size_t size);

/// Accumulates a checkpoint payload in memory, then emits the framed
/// stream in one write so the length and CRC in the header are exact.
class CheckpointWriter {
 public:
  /// Opens a nested section; every begin must be matched by end_section
  /// before finish().
  void begin_section(std::uint32_t tag);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void str(std::string_view v);

  /// The payload written so far.  An owner writes its identity fields
  /// into a scratch writer and hands these bytes to
  /// CheckpointReader::expect_bytes, so one writer defines both the
  /// layout and the restore check.
  [[nodiscard]] std::span<const unsigned char> bytes() const { return buf_; }

  /// Writes header + payload + trailer to `out` and verifies the stream
  /// survived (throws InputError on short writes).  The writer may not
  /// be reused afterwards.
  void finish(std::ostream& out);

 private:
  std::vector<unsigned char> buf_;
  std::vector<std::size_t> open_;  ///< offsets of pending length fields
};

/// Parses a framed checkpoint from a stream.  The constructor reads and
/// validates the full frame (magic, version, length, CRC, trailer);
/// every accessor bounds-checks against the innermost open section.
/// All malformations throw InputError.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::istream& in);

  /// Opens the next section, requiring its tag to equal `tag`.
  void open_section(std::uint32_t tag);
  /// Closes the innermost section, skipping any unread remainder (the
  /// additive-minor compatibility path).
  void close_section();

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean();
  [[nodiscard]] std::string str();

  /// Consumes `want.size()` bytes, requiring them to equal `want`: the
  /// restore check of identity fields a CheckpointWriter wrote (see
  /// CheckpointWriter::bytes).  Throws InputError naming `what` otherwise.
  void expect_bytes(std::span<const unsigned char> want,
                    std::string_view what);

  /// Unread bytes left in the innermost open section (the payload when
  /// none is open).
  [[nodiscard]] std::uint64_t remaining() const;

 private:
  void need(std::size_t bytes) const;

  std::vector<unsigned char> payload_;
  std::size_t pos_ = 0;
  std::vector<std::size_t> ends_;  ///< stack of section end offsets
};

}  // namespace rrs
