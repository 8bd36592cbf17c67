#include "core/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "util/check.h"

namespace rrs {
namespace {

constexpr char kMagic[8] = {'R', 'R', 'S', 'C', 'K', 'P', 'T', '\n'};
constexpr char kTrailer[8] = {'R', 'R', 'S', 'E', 'N', 'D', '\n', '\0'};

/// Payloads beyond this are rejected outright: no legitimate checkpoint
/// in this codebase approaches it, and it bounds the allocation a
/// corrupt length field can trigger.
constexpr std::uint64_t kMaxPayload = 1ULL << 30;

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

void put_u32(std::vector<unsigned char>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFFU));
  }
}

void put_u64(std::vector<unsigned char>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf.push_back(static_cast<unsigned char>((v >> (8 * i)) & 0xFFU));
  }
}

std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint32_t crc32(const unsigned char* data, std::size_t size) {
  std::uint32_t c = 0xFFFFFFFFU;
  for (std::size_t i = 0; i < size; ++i) {
    c = kCrcTable[(c ^ data[i]) & 0xFFU] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFU;
}

void CheckpointWriter::begin_section(std::uint32_t tag) {
  put_u32(buf_, tag);
  open_.push_back(buf_.size());
  put_u64(buf_, 0);  // patched by end_section
}

void CheckpointWriter::end_section() {
  RRS_CHECK_MSG(!open_.empty(), "end_section without begin_section");
  const std::size_t at = open_.back();
  open_.pop_back();
  const std::uint64_t len = buf_.size() - at - 8;
  for (int i = 0; i < 8; ++i) {
    buf_[at + static_cast<std::size_t>(i)] =
        static_cast<unsigned char>((len >> (8 * i)) & 0xFFU);
  }
}

void CheckpointWriter::u8(std::uint8_t v) { buf_.push_back(v); }
void CheckpointWriter::u32(std::uint32_t v) { put_u32(buf_, v); }
void CheckpointWriter::u64(std::uint64_t v) { put_u64(buf_, v); }

void CheckpointWriter::i64(std::int64_t v) {
  put_u64(buf_, static_cast<std::uint64_t>(v));
}

void CheckpointWriter::f64(double v) {
  static_assert(sizeof(double) == 8);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  put_u64(buf_, bits);
}

void CheckpointWriter::boolean(bool v) {
  buf_.push_back(v ? static_cast<unsigned char>(1)
                   : static_cast<unsigned char>(0));
}

void CheckpointWriter::str(std::string_view v) {
  put_u64(buf_, v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void CheckpointWriter::finish(std::ostream& out) {
  RRS_CHECK_MSG(open_.empty(), "finish with " << open_.size()
                                              << " unclosed sections");
  std::vector<unsigned char> head;
  head.insert(head.end(), kMagic, kMagic + 8);
  put_u32(head, kCheckpointMajor);
  put_u32(head, kCheckpointMinor);
  put_u64(head, buf_.size());
  put_u32(head, crc32(buf_.data(), buf_.size()));
  out.write(reinterpret_cast<const char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
  out.write(reinterpret_cast<const char*>(buf_.data()),
            static_cast<std::streamsize>(buf_.size()));
  out.write(kTrailer, 8);
  out.flush();
  RRS_REQUIRE(out.good(), "short write emitting checkpoint ("
                              << buf_.size() << " payload bytes)");
}

CheckpointReader::CheckpointReader(std::istream& in) {
  std::array<unsigned char, 28> head{};
  in.read(reinterpret_cast<char*>(head.data()),
          static_cast<std::streamsize>(head.size()));
  RRS_REQUIRE(in.gcount() == static_cast<std::streamsize>(head.size()),
              "checkpoint truncated inside the header");
  RRS_REQUIRE(std::memcmp(head.data(), kMagic, 8) == 0,
              "not a checkpoint: bad magic");
  // Bytes 12..15 hold the minor version, which readers accept whatever
  // it is (additive fields are skipped by close_section()).
  const std::uint32_t major = get_u32(head.data() + 8);
  RRS_REQUIRE(major == kCheckpointMajor,
              "checkpoint layout version " << major << " unsupported (this "
                                           << "build reads major "
                                           << kCheckpointMajor << ")");
  const std::uint64_t len = get_u64(head.data() + 16);
  RRS_REQUIRE(len <= kMaxPayload,
              "checkpoint payload length " << len << " exceeds the "
                                           << kMaxPayload << "-byte cap");
  const std::uint32_t want_crc = get_u32(head.data() + 24);
  payload_.resize(static_cast<std::size_t>(len));
  if (len > 0) {
    in.read(reinterpret_cast<char*>(payload_.data()),
            static_cast<std::streamsize>(len));
    RRS_REQUIRE(in.gcount() == static_cast<std::streamsize>(len),
                "checkpoint truncated inside the payload (wanted "
                    << len << " bytes)");
  }
  char trailer[8] = {};
  in.read(trailer, 8);
  RRS_REQUIRE(in.gcount() == 8 && std::memcmp(trailer, kTrailer, 8) == 0,
              "checkpoint truncated or corrupt: bad trailer");
  const std::uint32_t got_crc = crc32(payload_.data(), payload_.size());
  RRS_REQUIRE(got_crc == want_crc,
              "checkpoint CRC mismatch: stored " << want_crc << ", computed "
                                                 << got_crc);
}

void CheckpointReader::need(std::size_t bytes) const {
  const std::size_t end = ends_.empty() ? payload_.size() : ends_.back();
  RRS_REQUIRE(bytes <= end - pos_,
              "checkpoint underrun: wanted " << bytes << " bytes, "
                                             << (end - pos_) << " left");
}

void CheckpointReader::open_section(std::uint32_t tag) {
  need(12);
  const std::uint32_t got = get_u32(payload_.data() + pos_);
  RRS_REQUIRE(got == tag, "checkpoint section tag mismatch: wanted "
                              << tag << ", found " << got);
  const std::uint64_t len = get_u64(payload_.data() + pos_ + 4);
  pos_ += 12;
  const std::size_t end = ends_.empty() ? payload_.size() : ends_.back();
  RRS_REQUIRE(len <= end - pos_, "checkpoint section " << tag
                                                       << " overruns its "
                                                       << "container");
  ends_.push_back(pos_ + static_cast<std::size_t>(len));
}

void CheckpointReader::close_section() {
  RRS_CHECK_MSG(!ends_.empty(), "close_section without open_section");
  pos_ = ends_.back();  // skip any additive tail this build doesn't know
  ends_.pop_back();
}

std::uint8_t CheckpointReader::u8() {
  need(1);
  return payload_[pos_++];
}

std::uint32_t CheckpointReader::u32() {
  need(4);
  const std::uint32_t v = get_u32(payload_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t CheckpointReader::u64() {
  need(8);
  const std::uint64_t v = get_u64(payload_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int64_t CheckpointReader::i64() {
  return static_cast<std::int64_t>(u64());
}

double CheckpointReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, 8);
  return v;
}

bool CheckpointReader::boolean() {
  const std::uint8_t v = u8();
  RRS_REQUIRE(v <= 1, "checkpoint bool field holds " << int{v});
  return v == 1;
}

std::string CheckpointReader::str() {
  const std::uint64_t len = u64();
  need(static_cast<std::size_t>(len));
  std::string out(reinterpret_cast<const char*>(payload_.data() + pos_),
                  static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

void CheckpointReader::expect_bytes(std::span<const unsigned char> want,
                                    std::string_view what) {
  RRS_REQUIRE(want.size() <= remaining() &&
                  std::equal(want.begin(), want.end(),
                             payload_.begin() +
                                 static_cast<std::ptrdiff_t>(pos_)),
              "checkpoint " << what << " does not match this run");
  pos_ += want.size();
}

std::uint64_t CheckpointReader::remaining() const {
  const std::size_t end = ends_.empty() ? payload_.size() : ends_.back();
  return end - pos_;
}

}  // namespace rrs
