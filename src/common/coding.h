#ifndef HEAVEN_COMMON_CODING_H_
#define HEAVEN_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace heaven {

/// Little-endian fixed-width encoding helpers used by the on-disk formats
/// (pages, BLOB records, super-tile containers, WAL records).

inline void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
  dst->append(buf, 8);
}

inline uint32_t DecodeFixed32(const char* ptr) {
  const auto* p = reinterpret_cast<const uint8_t*>(ptr);
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

inline uint64_t DecodeFixed64(const char* ptr) {
  const auto* p = reinterpret_cast<const uint8_t*>(ptr);
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

/// Length-prefixed string.
inline void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutFixed32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

/// `payload` in a checksummed frame: [u32 length][u32 crc32c][payload], the
/// format of WAL records, export-journal records and the side images of
/// ReplaceFileContents, which tells a torn or rotten frame from an intact one.
std::string Framed(std::string_view payload);

/// Cursor-based decoder over an immutable byte buffer; every Get* call
/// validates remaining length and returns Corruption on truncation.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data), pos_(0) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

  Status GetFixed32(uint32_t* value);
  Status GetFixed64(uint64_t* value);
  Status GetLengthPrefixed(std::string* value);
  /// Reads exactly `n` raw bytes.
  Status GetRaw(size_t n, std::string* value);
  /// Reads one Framed frame; `payload` views the decoder's buffer.
  /// Corruption when the frame is torn or fails its checksum.
  Status GetFramed(std::string_view* payload);
  Status Skip(size_t n);

 private:
  std::string_view data_;
  size_t pos_;
};

/// CRC-32 (Castagnoli polynomial, bit-reflected, software table) used to
/// checksum WAL records and super-tile containers.
uint32_t Crc32c(const char* data, size_t n);
inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(data.data(), data.size());
}

/// Appends `value` as a quoted JSON string (escaping ", \ and control
/// characters). Used by the stats / trace exporters.
void AppendJsonString(std::string* dst, std::string_view value);

/// `value` rendered as a JSON number. NaN/Inf (not representable in JSON)
/// become 0; integral values drop the fraction.
std::string FormatJsonDouble(double value);

}  // namespace heaven

#endif  // HEAVEN_COMMON_CODING_H_
