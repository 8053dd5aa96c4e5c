#include "common/coding.h"

#include <array>
#include <cmath>
#include <cstdio>

namespace heaven {

Status Decoder::GetFixed32(uint32_t* value) {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  *value = DecodeFixed32(data_.data() + pos_);
  pos_ += 4;
  return Status::Ok();
}

Status Decoder::GetFixed64(uint64_t* value) {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  *value = DecodeFixed64(data_.data() + pos_);
  pos_ += 8;
  return Status::Ok();
}

Status Decoder::GetLengthPrefixed(std::string* value) {
  uint32_t length = 0;
  HEAVEN_RETURN_IF_ERROR(GetFixed32(&length));
  return GetRaw(length, value);
}

Status Decoder::GetRaw(size_t n, std::string* value) {
  if (remaining() < n) return Status::Corruption("truncated raw bytes");
  value->assign(data_.data() + pos_, n);
  pos_ += n;
  return Status::Ok();
}

Status Decoder::GetFramed(std::string_view* payload) {
  uint32_t length = 0;
  uint32_t crc = 0;
  HEAVEN_RETURN_IF_ERROR(GetFixed32(&length));
  HEAVEN_RETURN_IF_ERROR(GetFixed32(&crc));
  if (remaining() < length || Crc32c(data_.substr(pos_, length)) != crc) {
    return Status::Corruption("torn or corrupt frame");
  }
  *payload = data_.substr(pos_, length);
  pos_ += length;
  return Status::Ok();
}

Status Decoder::Skip(size_t n) {
  if (remaining() < n) return Status::Corruption("skip past end");
  pos_ += n;
  return Status::Ok();
}

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  constexpr uint32_t kPoly = 0x82f63b78;  // reflected CRC-32C
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    table[i] = crc;
  }
  return table;
}

}  // namespace

uint32_t Crc32c(const char* data, size_t n) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t crc = 0xffffffff;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ static_cast<uint8_t>(data[i])) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffff;
}

std::string Framed(std::string_view payload) {
  std::string frame;
  PutFixed32(&frame, static_cast<uint32_t>(payload.size()));
  PutFixed32(&frame, Crc32c(payload));
  return frame.append(payload);
}

void AppendJsonString(std::string* dst, std::string_view value) {
  dst->push_back('"');
  for (char c : value) {
    switch (c) {
      case '"':
        dst->append("\\\"");
        break;
      case '\\':
        dst->append("\\\\");
        break;
      case '\n':
        dst->append("\\n");
        break;
      case '\r':
        dst->append("\\r");
        break;
      case '\t':
        dst->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          dst->append(buf);
        } else {
          dst->push_back(c);
        }
    }
  }
  dst->push_back('"');
}

std::string FormatJsonDouble(double value) {
  if (std::isnan(value) || std::isinf(value)) return "0";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return std::to_string(static_cast<long long>(value));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace heaven
