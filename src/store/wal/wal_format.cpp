#include "store/wal/wal_format.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"

namespace rlz {
namespace wal {

void PutFixed32(std::string* dst, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    dst->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void PutFixed64(std::string* dst, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    dst->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

uint32_t GetFixed32(const char* p) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

uint64_t GetFixed64(const char* p) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return value;
}

bool IsValidRecordType(uint8_t type) {
  return type == static_cast<uint8_t>(RecordType::kAppend) ||
         type == static_cast<uint8_t>(RecordType::kDelete) ||
         type == static_cast<uint8_t>(RecordType::kSeal);
}

std::string EncodeSegmentHeader(const SegmentHeader& header) {
  std::string out;
  out.reserve(kSegmentHeaderSize);
  out.append(kWalMagic, sizeof(kWalMagic));
  out.push_back(static_cast<char>(kWalVersion));
  PutFixed64(&out, header.generation);
  PutFixed64(&out, header.start_lsn);
  PutFixed32(&out, Crc32(out.data(), out.size()));
  return out;
}

StatusOr<SegmentHeader> DecodeSegmentHeader(std::string_view segment,
                                            const std::string& context) {
  if (segment.size() < kSegmentHeaderSize) {
    return Status::Corruption(context + ": truncated wal segment header");
  }
  if (std::memcmp(segment.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Corruption(context + ": bad wal magic");
  }
  // CRC first, so a damaged version byte is Corruption; only an intact
  // header of another version is InvalidArgument.
  const uint32_t want_crc = GetFixed32(segment.data() + kSegmentHeaderSize - 4);
  if (Crc32(segment.data(), kSegmentHeaderSize - 4) != want_crc) {
    return Status::Corruption(context + ": wal segment header checksum "
                                        "mismatch");
  }
  const uint8_t version = static_cast<uint8_t>(segment[4]);
  if (version != kWalVersion) {
    return Status::InvalidArgument(
        context + ": wal version " + std::to_string(version) +
        " is not readable (this build reads only version " +
        std::to_string(kWalVersion) + ")");
  }
  SegmentHeader header;
  header.generation = GetFixed64(segment.data() + 5);
  header.start_lsn = GetFixed64(segment.data() + 13);
  return header;
}

void AppendRecord(std::string* dst, RecordType type,
                  std::string_view payload) {
  const size_t start = dst->size();
  dst->push_back(static_cast<char>(type));
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  dst->append(payload);
  PutFixed32(dst, Crc32(dst->data() + start, dst->size() - start));
}

std::string EncodeRecord(RecordType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameOverhead + payload.size());
  AppendRecord(&out, type, payload);
  return out;
}

FrameStatus ParseRecord(std::string_view data, ParsedRecord* record) {
  if (data.empty()) return FrameStatus::kEnd;
  if (data.size() < 1 + 4) return FrameStatus::kTorn;
  const uint8_t type = static_cast<uint8_t>(data[0]);
  const uint32_t length = GetFixed32(data.data() + 1);
  // An invalid type or absurd length is damage even if a CRC somewhere
  // downstream would collide — check before trusting `length`.
  if (!IsValidRecordType(type) || length > kMaxRecordPayload) {
    return FrameStatus::kTorn;
  }
  const size_t frame_size = kFrameOverhead + length;
  if (data.size() < frame_size) return FrameStatus::kTorn;
  const uint32_t want_crc = GetFixed32(data.data() + 1 + 4 + length);
  if (Crc32(data.data(), static_cast<size_t>(1 + 4 + length)) != want_crc) {
    return FrameStatus::kTorn;
  }
  record->type = static_cast<RecordType>(type);
  record->payload = data.substr(1 + 4, length);
  record->frame_size = frame_size;
  return FrameStatus::kOk;
}

std::string SegmentFileName(uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%016" PRIu64 ".log", seq);
  return buf;
}

bool ParseSegmentFileName(std::string_view name, uint64_t* seq) {
  constexpr std::string_view kPrefix = "wal-";
  constexpr std::string_view kSuffix = ".log";
  if (name.size() != kPrefix.size() + 16 + kSuffix.size()) return false;
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  if (name.substr(name.size() - kSuffix.size()) != kSuffix) return false;
  uint64_t value = 0;
  for (size_t i = kPrefix.size(); i < kPrefix.size() + 16; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = value;
  return true;
}

}  // namespace wal
}  // namespace rlz
