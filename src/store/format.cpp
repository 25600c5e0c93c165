#include "store/format.h"

#include "io/file.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace rlz {
namespace {

// Format ids are short tags ("rlz", "blocked", ...); anything longer is a
// sign the header is garbage, so the reader rejects it before allocating.
constexpr uint32_t kMaxFormatIdLength = 64;

void PutVarintImpl(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>(0x80 | (value & 0x7F)));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

}  // namespace

EnvelopeWriter::EnvelopeWriter(std::string_view format_id, uint32_t version)
    : format_id_(format_id), version_(version) {
  RLZ_CHECK(!format_id_.empty() && format_id_.size() <= kMaxFormatIdLength)
      << "bad envelope format id: " << format_id_;
}

void EnvelopeWriter::PutVarint32(uint32_t value) {
  PutVarintImpl(value, &body_);
}

void EnvelopeWriter::PutVarint64(uint64_t value) {
  PutVarintImpl(value, &body_);
}

void EnvelopeWriter::PutLengthPrefixed(std::string_view bytes) {
  PutVarintImpl(bytes.size(), &body_);
  body_.append(bytes);
}

std::string EnvelopeWriter::Seal() && {
  std::string out;
  out.reserve(body_.size() + format_id_.size() + 32);
  out.append(kEnvelopeMagic, 4);
  out.push_back(static_cast<char>(kContainerLayoutVersion));
  PutVarintImpl(format_id_.size(), &out);
  out.append(format_id_);
  PutVarintImpl(version_, &out);
  PutVarintImpl(body_.size(), &out);
  out.append(body_);
  const uint32_t crc = Crc32(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  return out;
}

Status EnvelopeWriter::WriteTo(const std::string& path) && {
  return WriteFile(path, std::move(*this).Seal());
}

Status EnvelopeReader::Truncated(const char* what) const {
  return Status::Corruption(context_ + ": truncated " + what);
}

Status EnvelopeReader::ReadByte(uint8_t* value) {
  if (remaining() < 1) return Truncated("byte field");
  *value = static_cast<uint8_t>(body_[pos_++]);
  return Status::OK();
}

Status EnvelopeReader::ReadVarint64(uint64_t* value) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos_ >= body_.size()) return Truncated("varint");
    const uint8_t byte = static_cast<uint8_t>(body_[pos_++]);
    // The 10th byte can only contribute bit 63: payload bits that would
    // shift past 63 mean the encoding claims a value above 2^64-1, which
    // must be rejected rather than silently truncated to a small number.
    if (shift == 63 && (byte & 0x7E) != 0) {
      return Status::Corruption(context_ + ": varint overlong");
    }
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Writers emit the shortest encoding; a zero final byte past the
      // first would let two byte strings decode to one value, so a parsed
      // section would no longer re-encode to the bytes read.
      if (byte == 0 && shift > 0) {
        return Status::Corruption(context_ + ": varint not minimal");
      }
      *value = v;
      return Status::OK();
    }
  }
  return Status::Corruption(context_ + ": varint overlong");
}

Status EnvelopeReader::ReadVarint32(uint32_t* value) {
  uint64_t v = 0;
  RLZ_RETURN_IF_ERROR(ReadVarint64(&v));
  if (v > 0xFFFFFFFFull) {
    return Status::Corruption(context_ + ": varint32 out of range");
  }
  *value = static_cast<uint32_t>(v);
  return Status::OK();
}

Status EnvelopeReader::ReadBytes(uint64_t n, std::string_view* bytes) {
  if (remaining() < n) return Truncated("byte section");
  *bytes = body_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

Status EnvelopeReader::ReadLengthPrefixed(std::string_view* bytes) {
  uint64_t len = 0;
  RLZ_RETURN_IF_ERROR(ReadVarint64(&len));
  return ReadBytes(len, bytes);
}

Status EnvelopeReader::ReadSizeTable(std::vector<uint64_t>* sizes) {
  uint64_t count = 0;
  RLZ_RETURN_IF_ERROR(ReadVarint64(&count));
  // Each entry occupies at least one body byte, so a count beyond the
  // bytes left is structural damage — checked before the allocation.
  if (count > remaining()) {
    return Status::Corruption(context_ + ": document count exceeds file");
  }
  sizes->assign(count, 0);
  uint64_t total = 0;
  for (uint64_t i = 0; i < count; ++i) {
    RLZ_RETURN_IF_ERROR(ReadVarint64(&(*sizes)[i]));
    // A crafted file could overflow the sum to fake a match against the
    // payload bytes actually present; cap the running total at what
    // remains (both operands are bounded before the subtraction).
    if ((*sizes)[i] > remaining() || total > remaining() - (*sizes)[i]) {
      return Status::Corruption(context_ + ": payload size mismatch");
    }
    total += (*sizes)[i];
  }
  if (remaining() != total) {
    return Status::Corruption(context_ + ": payload size mismatch");
  }
  return Status::OK();
}

std::string_view EnvelopeReader::ReadRest() {
  std::string_view rest = body_.substr(pos_);
  pos_ = body_.size();
  return rest;
}

Status EnvelopeReader::ExpectConsumed() const {
  if (pos_ != body_.size()) {
    return Status::Corruption(context_ + ": trailing bytes after body");
  }
  return Status::OK();
}

StatusOr<ParsedEnvelope> ParsedEnvelope::FromBytes(std::string raw,
                                                   std::string context) {
  auto owned = std::make_shared<const std::string>(std::move(raw));
  return FromView(std::string_view(*owned), owned, std::move(context));
}

StatusOr<ParsedEnvelope> ParsedEnvelope::FromView(
    std::string_view raw, std::shared_ptr<const void> owner,
    std::string context) {
  if (raw.size() < 4 ||
      std::string_view(raw.data(), 4) != std::string_view(kEnvelopeMagic, 4)) {
    return Status::Corruption(context + ": bad magic");
  }
  if (raw.size() < 5) {
    return Status::Corruption(context + ": truncated container header");
  }
  const uint8_t layout = static_cast<uint8_t>(raw[4]);
  if (layout > kContainerLayoutVersion) {
    return Status::InvalidArgument(
        context + ": container layout " + std::to_string(layout) +
        " was written by a future version of this library");
  }
  if (layout != kContainerLayoutVersion) {
    return Status::Corruption(context + ": unknown container layout byte");
  }

  // Header fields are parsed with the same bounds-checked reader as
  // bodies. A truncated file either fails a read here or yields the
  // original body size, which the exact-length check below catches.
  EnvelopeReader header(raw.substr(5), context);
  uint32_t id_length = 0;
  RLZ_RETURN_IF_ERROR(header.ReadVarint32(&id_length));
  if (id_length == 0 || id_length > kMaxFormatIdLength) {
    return Status::Corruption(context + ": bad format-id length");
  }
  std::string_view id;
  RLZ_RETURN_IF_ERROR(header.ReadBytes(id_length, &id));
  ParsedEnvelope envelope;
  envelope.format_id_ = std::string(id);
  RLZ_RETURN_IF_ERROR(header.ReadVarint32(&envelope.version_));
  uint64_t body_size = 0;
  RLZ_RETURN_IF_ERROR(header.ReadVarint64(&body_size));
  const size_t header_size = raw.size() - header.remaining();

  // Exact-length check: header + body + 4-byte CRC trailer must equal the
  // file, so truncation at any prefix (and trailing junk) is a structural
  // error independent of the CRC.
  if (body_size > raw.size() - header_size ||
      raw.size() - header_size - body_size != 4) {
    return Status::Corruption(context + ": container length mismatch");
  }

  uint32_t want_crc = 0;
  for (int i = 0; i < 4; ++i) {
    want_crc |= static_cast<uint32_t>(
                    static_cast<uint8_t>(raw[raw.size() - 4 + i]))
                << (8 * i);
  }
  if (Crc32(raw.data(), raw.size() - 4) != want_crc) {
    return Status::Corruption(context + ": checksum mismatch");
  }

  envelope.body_offset_ = header_size;
  envelope.body_size_ = body_size;
  envelope.context_ = std::move(context);
  envelope.raw_ = raw;
  envelope.owner_ = std::move(owner);
  return envelope;
}

StatusOr<ParsedEnvelope> ReadEnvelopeFile(const std::string& path) {
  RLZ_ASSIGN_OR_RETURN(std::string raw, ReadFile(path));
  return ParsedEnvelope::FromBytes(std::move(raw), path);
}

Status CheckEnvelopeFormat(const ParsedEnvelope& envelope,
                           std::string_view format_id, uint32_t version) {
  if (envelope.format_id() != format_id) {
    return Status::InvalidArgument(
        envelope.context() + ": this file is a '" + envelope.format_id() +
        "' container, expected '" + std::string(format_id) + "'");
  }
  if (envelope.version() != version) {
    return Status::InvalidArgument(
        envelope.context() + ": '" + envelope.format_id() + "' version " +
        std::to_string(envelope.version()) +
        " is not readable (this build reads only version " +
        std::to_string(version) + ")");
  }
  return Status::OK();
}

}  // namespace rlz
