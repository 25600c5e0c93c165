#include "core/factor_coder.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "codecs/int_codecs.h"
#include "zip/gzipx.h"

namespace rlz {
namespace {

// The "Z best compression" coder the paper applies to per-document factor
// streams.
const GzipxCompressor& StreamCompressor() {
  static const GzipxCompressor* gz = new GzipxCompressor(
      GzipxOptions{.max_chain = 512, .nice_length = 258, .lazy = true});
  return *gz;
}

Status AppendZStream(const std::string& raw, std::string* out) {
  std::string z;
  StreamCompressor().Compress(raw, &z);
  RLZ_RETURN_IF_ERROR(FactorCoder::CheckZStreamLimits(raw.size(), z.size()));
  VByteCodec::Put(static_cast<uint32_t>(z.size()), out);
  out->append(z);
  return Status::OK();
}

// Decompresses a length-prefixed z-stream into `*buffer` (cleared first).
// `buffer` and `gz` are scratch-lent by the caller so their capacity
// survives calls; `gz` may be null (fresh decoder state per call).
Status ReadZStream(std::string_view in, size_t* pos, std::string* buffer,
                   GzipxDecodeScratch* gz) {
  buffer->clear();
  uint32_t zsize = 0;
  RLZ_RETURN_IF_ERROR(VByteCodec::Get(in, pos, &zsize));
  if (*pos + zsize > in.size()) {
    return Status::Corruption("factor coder: truncated z-stream");
  }
  RLZ_RETURN_IF_ERROR(
      StreamCompressor().Decompress(in.substr(*pos, zsize), buffer, gz));
  *pos += zsize;
  return Status::OK();
}

}  // namespace

std::string PairCoding::name() const {
  std::string n;
  switch (pos) {
    case PosCoding::kU32:
      n += "U";
      break;
    case PosCoding::kZlib:
      n += "Z";
      break;
    case PosCoding::kPFD:
      n += "P";
      break;
  }
  switch (len) {
    case LenCoding::kVByte:
      n += "V";
      break;
    case LenCoding::kZlib:
      n += "Z";
      break;
    case LenCoding::kS9:
      n += "S";
      break;
    case LenCoding::kPFD:
      n += "P";
      break;
  }
  return n;
}

StatusOr<PairCoding> PairCoding::FromName(std::string_view name) {
  if (name.size() != 2) {
    return Status::InvalidArgument("pair coding name must be 2 chars");
  }
  PairCoding c;
  switch (name[0]) {
    case 'U':
      c.pos = PosCoding::kU32;
      break;
    case 'Z':
      c.pos = PosCoding::kZlib;
      break;
    case 'P':
      c.pos = PosCoding::kPFD;
      break;
    default:
      return Status::InvalidArgument("bad position code");
  }
  switch (name[1]) {
    case 'V':
      c.len = LenCoding::kVByte;
      break;
    case 'Z':
      c.len = LenCoding::kZlib;
      break;
    case 'S':
      c.len = LenCoding::kS9;
      break;
    case 'P':
      c.len = LenCoding::kPFD;
      break;
    default:
      return Status::InvalidArgument("bad length code");
  }
  return c;
}

Status FactorCoder::CheckZStreamLimits(uint64_t raw_bytes, uint64_t z_bytes) {
  if (raw_bytes >= kMaxZStreamBytes) {
    return Status::InvalidArgument(
        "factor coder: document's raw factor stream exceeds the 32-bit "
        "z-stream framing");
  }
  if (z_bytes >= kMaxZStreamBytes) {
    return Status::InvalidArgument(
        "factor coder: document's compressed factor stream exceeds the "
        "32-bit z-stream framing");
  }
  return Status::OK();
}

Status FactorCoder::EncodeDoc(const std::vector<Factor>& factors,
                              std::string* out) const {
  const size_t out_base = out->size();
  VByteCodec::Put(static_cast<uint32_t>(factors.size()), out);

  std::vector<uint32_t> positions;
  std::vector<uint32_t> lengths;
  positions.reserve(factors.size());
  lengths.reserve(factors.size());
  for (const Factor& f : factors) {
    positions.push_back(f.pos);
    lengths.push_back(f.len);
  }

  // On any stream-limit error the partial encoding is rolled back so the
  // caller's payload is left exactly as it was.
  Status status = Status::OK();
  switch (coding_.pos) {
    case PosCoding::kU32:
      GetIntCodec(IntCodecId::kU32)->Encode(positions, out);
      break;
    case PosCoding::kZlib: {
      std::string raw;
      GetIntCodec(IntCodecId::kU32)->Encode(positions, &raw);
      status = AppendZStream(raw, out);
      break;
    }
    case PosCoding::kPFD:
      GetIntCodec(IntCodecId::kPForDelta)->Encode(positions, out);
      break;
  }
  if (!status.ok()) {
    out->resize(out_base);
    return status;
  }

  switch (coding_.len) {
    case LenCoding::kVByte:
      GetIntCodec(IntCodecId::kVByte)->Encode(lengths, out);
      break;
    case LenCoding::kZlib: {
      std::string raw;
      GetIntCodec(IntCodecId::kVByte)->Encode(lengths, &raw);
      status = AppendZStream(raw, out);
      break;
    }
    case LenCoding::kS9:
      GetIntCodec(IntCodecId::kSimple9)->Encode(lengths, out);
      break;
    case LenCoding::kPFD:
      GetIntCodec(IntCodecId::kPForDelta)->Encode(lengths, out);
      break;
  }
  if (!status.ok()) {
    out->resize(out_base);
    return status;
  }
  return Status::OK();
}

Status FactorCoder::DecodeStreams(std::string_view in,
                                  std::vector<uint32_t>* positions,
                                  std::vector<uint32_t>* lengths,
                                  size_t* consumed,
                                  DecodeScratch* scratch) const {
  positions->clear();
  lengths->clear();
  // Scratch lends the z-stream inflate buffer; otherwise one is allocated
  // here per call (the fresh-allocation fallback path).
  std::string local_inflate;
  std::string* inflate = scratch != nullptr ? &scratch->inflate
                                            : &local_inflate;

  size_t pos = 0;
  uint32_t count = 0;
  RLZ_RETURN_IF_ERROR(VByteCodec::Get(in, &pos, &count));
  // Plausibility bound against corrupt headers: even z-coded streams of
  // degenerate factor lists stay far above 1 byte per 4096 factors.
  if (static_cast<uint64_t>(count) > in.size() * 4096ull + 64) {
    return Status::Corruption("factor coder: implausible factor count");
  }
  // Pre-size the vectors, clamped to the stream size: the count is still
  // untrusted at this point (z-coded streams can legitimately pack many
  // values per byte, so the plausibility bound above is loose), and a
  // reserve is only an optimization — the codecs validate the count
  // against the actual bytes before materializing anything beyond this.
  const size_t plausible =
      static_cast<size_t>(std::min<uint64_t>(count, in.size()));
  positions->reserve(plausible);
  lengths->reserve(plausible);

  size_t used = 0;
  switch (coding_.pos) {
    case PosCoding::kU32:
      RLZ_RETURN_IF_ERROR(GetIntCodec(IntCodecId::kU32)
                              ->Decode(in.substr(pos), count, positions,
                                       &used));
      pos += used;
      break;
    case PosCoding::kZlib: {
      RLZ_RETURN_IF_ERROR(ReadZStream(
          in, &pos, inflate, scratch != nullptr ? &scratch->gzipx : nullptr));
      RLZ_RETURN_IF_ERROR(GetIntCodec(IntCodecId::kU32)
                              ->Decode(*inflate, count, positions, &used));
      break;
    }
    case PosCoding::kPFD:
      RLZ_RETURN_IF_ERROR(GetIntCodec(IntCodecId::kPForDelta)
                              ->Decode(in.substr(pos), count, positions,
                                       &used));
      pos += used;
      break;
  }

  switch (coding_.len) {
    case LenCoding::kVByte:
      RLZ_RETURN_IF_ERROR(GetIntCodec(IntCodecId::kVByte)
                              ->Decode(in.substr(pos), count, lengths, &used));
      pos += used;
      break;
    case LenCoding::kZlib: {
      // The position stream is fully decoded, so the inflate buffer is
      // safely reusable for the length stream.
      RLZ_RETURN_IF_ERROR(ReadZStream(
          in, &pos, inflate, scratch != nullptr ? &scratch->gzipx : nullptr));
      RLZ_RETURN_IF_ERROR(GetIntCodec(IntCodecId::kVByte)
                              ->Decode(*inflate, count, lengths, &used));
      break;
    }
    case LenCoding::kS9:
      RLZ_RETURN_IF_ERROR(GetIntCodec(IntCodecId::kSimple9)
                              ->Decode(in.substr(pos), count, lengths, &used));
      pos += used;
      break;
    case LenCoding::kPFD:
      RLZ_RETURN_IF_ERROR(GetIntCodec(IntCodecId::kPForDelta)
                              ->Decode(in.substr(pos), count, lengths, &used));
      pos += used;
      break;
  }

  if (consumed != nullptr) *consumed = pos;
  return Status::OK();
}

Status FactorCoder::DecodeFactors(std::string_view in,
                                  std::vector<Factor>* factors,
                                  size_t* consumed) const {
  std::vector<uint32_t> positions;
  std::vector<uint32_t> lengths;
  RLZ_RETURN_IF_ERROR(
      DecodeStreams(in, &positions, &lengths, consumed, nullptr));
  factors->reserve(factors->size() + positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    factors->push_back(Factor{positions[i], lengths[i]});
  }
  return Status::OK();
}

Status FactorCoder::DecodeRange(std::string_view in, const Dictionary& dict,
                                size_t offset, size_t length,
                                std::string* text,
                                DecodeScratch* scratch) const {
  // The paper's four pairs all decode through the fused no-vector walk;
  // the extension codecs (PFD/S9) go through the general stream decode.
  if ((coding_.pos == PosCoding::kU32 || coding_.pos == PosCoding::kZlib) &&
      (coding_.len == LenCoding::kVByte || coding_.len == LenCoding::kZlib)) {
    return DecodeFused(in, dict, offset, length, text, scratch);
  }
  std::vector<uint32_t> local_positions;
  std::vector<uint32_t> local_lengths;
  std::vector<uint32_t>* positions =
      scratch != nullptr ? &scratch->positions : &local_positions;
  std::vector<uint32_t>* lengths =
      scratch != nullptr ? &scratch->lengths : &local_lengths;
  RLZ_RETURN_IF_ERROR(DecodeStreams(in, positions, lengths, nullptr, scratch));

  const std::string_view d = dict.text();
  const size_t end = length > SIZE_MAX - offset ? SIZE_MAX : offset + length;
  const size_t n = positions->size();
  const uint32_t* ps = positions->data();
  const uint32_t* ls = lengths->data();

  // Pass 1: walk the factor list validating every factor that intersects
  // the range and summing the clipped output size, so pass 2 can write
  // into an exactly-sized buffer with unchecked copies.
  uint64_t produced = 0;  // text cursor over the virtual decoded document
  uint64_t total = 0;     // bytes the clipped range will emit
  size_t last = 0;        // one past the last factor that intersects
  for (size_t i = 0; i < n && produced < end; ++i) {
    const size_t flen = ls[i] == 0 ? 1 : ls[i];
    const uint64_t fstart = produced;
    produced += flen;
    if (produced <= offset) continue;  // factor entirely before the range
    if (ls[i] == 0) {
      if (ps[i] > 0xFF) {
        return Status::Corruption("factor coder: literal out of range");
      }
    } else if (static_cast<size_t>(ps[i]) + ls[i] > d.size()) {
      return Status::Corruption("factor coder: factor outside dictionary");
    }
    const uint64_t from = offset > fstart ? offset - fstart : 0;
    const uint64_t to = std::min<uint64_t>(flen, end - fstart);
    total += to - from;
    last = i + 1;
  }
  if (total > kMaxDecodedDocBytes) {
    return Status::Corruption("factor coder: decoded document exceeds limit");
  }

  // Pass 2: single resize, tight copy loop (everything already validated).
  const size_t out_base = text->size();
  text->resize(out_base + total);
  char* dst = text->data() + out_base;
  produced = 0;
  for (size_t i = 0; i < last; ++i) {
    const size_t flen = ls[i] == 0 ? 1 : ls[i];
    const uint64_t fstart = produced;
    produced += flen;
    if (produced <= offset) continue;
    if (ls[i] == 0) {
      *dst++ = static_cast<char>(ps[i]);
      continue;
    }
    const uint64_t from = offset > fstart ? offset - fstart : 0;
    const uint64_t to = std::min<uint64_t>(flen, end - fstart);
    std::memcpy(dst, d.data() + ps[i] + from, to - from);
    dst += to - from;
  }
  return Status::OK();
}

Status FactorCoder::DecodeFused(std::string_view in, const Dictionary& dict,
                                size_t offset, size_t length,
                                std::string* text,
                                DecodeScratch* scratch) const {
  size_t pos = 0;
  uint32_t count = 0;
  RLZ_RETURN_IF_ERROR(VByteCodec::Get(in, &pos, &count));
  // Same plausibility bound as DecodeStreams.
  if (static_cast<uint64_t>(count) > in.size() * 4096ull + 64) {
    return Status::Corruption("factor coder: implausible factor count");
  }

  std::string local_inflate;
  std::string local_inflate2;
  GzipxDecodeScratch* gz = scratch != nullptr ? &scratch->gzipx : nullptr;

  // Position bytes: count little-endian 32-bit words, raw in the stream
  // (U) or inflated from a z-stream (Z).
  std::string_view pbytes;
  if (coding_.pos == PosCoding::kU32) {
    const uint64_t need = 4ull * count;
    if (need > in.size() - pos) {
      return Status::Corruption("u32 stream truncated");
    }
    pbytes = in.substr(pos, need);
    pos += need;
  } else {
    std::string* buf = scratch != nullptr ? &scratch->inflate : &local_inflate;
    RLZ_RETURN_IF_ERROR(ReadZStream(in, &pos, buf, gz));
    if (buf->size() < 4ull * count) {
      return Status::Corruption("u32 stream truncated");
    }
    pbytes = std::string_view(*buf).substr(0, 4ull * count);
  }

  // Length bytes: a vbyte stream, raw (V) or inflated (Z). Trailing bytes
  // beyond the count-th value are ignored, as in the general path.
  std::string_view lbytes;
  if (coding_.len == LenCoding::kVByte) {
    lbytes = in.substr(pos);
  } else {
    std::string* buf =
        scratch != nullptr ? &scratch->inflate2 : &local_inflate2;
    RLZ_RETURN_IF_ERROR(ReadZStream(in, &pos, buf, gz));
    lbytes = *buf;
  }

  // Pass 1: walk the vbyte length stream, validating it, up to the factor
  // that ends the range (the whole stream for a whole document). It finds
  // the first factor that reaches into the range, where the range starts
  // inside it, and the clipped output size (a zero length is a one-byte
  // literal).
  const std::string_view d = dict.text();
  const size_t end = length > SIZE_MAX - offset ? SIZE_MAX : offset + length;
  const uint8_t* lp = reinterpret_cast<const uint8_t*>(lbytes.data());
  const uint8_t* const lend = lp + lbytes.size();
  uint64_t produced = 0;        // text cursor over the decoded document
  uint32_t first = count;       // first factor that reaches into the range
  const uint8_t* first_lp = lp;  // its vbyte length
  size_t skip = 0;              // bytes of it before the range
  uint32_t last = 0;            // one past the last factor walked
  for (; last < count && produced < end; ++last) {
    const uint8_t* const at = lp;
    if (lp >= lend) return Status::Corruption("vbyte truncated");
    uint32_t v = *lp++;
    if (v >= 0x80) {
      v &= 0x7F;
      int shift = 7;
      for (;;) {
        if (lp >= lend) return Status::Corruption("vbyte truncated");
        if (shift > 28) return Status::Corruption("vbyte overlong");
        const uint32_t byte = *lp++;
        v |= (byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
    }
    if (v > d.size()) {
      return Status::Corruption("factor coder: factor outside dictionary");
    }
    const uint64_t flen = v == 0 ? 1 : v;
    if (first == count && produced + flen > offset) {
      first = last;
      first_lp = at;
      skip = static_cast<size_t>(offset - produced);
    }
    produced += flen;
  }
  // Factors [first, last) span `full` bytes from `skip` bytes before the
  // range; the range itself is `total` bytes of them. The limit applies to
  // `full`, which never exceeds a valid document's size; a range's `full`
  // exceeds `total` by at most two factors, each checked above to fit the
  // dictionary.
  const uint64_t full = first == count ? 0 : produced - (offset - skip);
  const uint64_t total =
      first == count ? 0 : std::min<uint64_t>(produced, end) - offset;
  if (full > kMaxDecodedDocBytes) {
    return Status::Corruption("factor coder: decoded document exceeds limit");
  }

  // Pass 2: re-walk both streams from the first factor in the range and
  // expand its factors whole straight into the output — the paper's
  // memcpy decode with no intermediate vectors at all — then move the
  // range to the front. For a whole document `skip` is 0 and nothing
  // moves. The output carries 16 bytes of slack so factors up to 16 bytes
  // (the common case) can use one unconditional 16-byte copy; the slack
  // is trimmed before returning. On a validation failure the output is
  // rolled back to its input length.
  const size_t out_base = text->size();
  text->resize(out_base + full + 16);
  char* const out = text->data() + out_base;
  char* dst = out;
  const uint8_t* pp =
      reinterpret_cast<const uint8_t*>(pbytes.data()) + 4ull * first;
  lp = first_lp;
  for (uint32_t i = first; i < last; ++i) {
    uint32_t len = *lp++;
    if (len >= 0x80) {  // same parse as pass 1, already validated
      len &= 0x7F;
      int shift = 7;
      for (;;) {
        const uint32_t byte = *lp++;
        len |= (byte & 0x7F) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
    }
    const uint32_t p = static_cast<uint32_t>(pp[0]) |
                       (static_cast<uint32_t>(pp[1]) << 8) |
                       (static_cast<uint32_t>(pp[2]) << 16) |
                       (static_cast<uint32_t>(pp[3]) << 24);
    pp += 4;
    if (len == 0) {
      if (p > 0xFF) {
        text->resize(out_base);
        return Status::Corruption("factor coder: literal out of range");
      }
      *dst++ = static_cast<char>(p);
    } else {
      if (static_cast<size_t>(p) + len > d.size()) {
        text->resize(out_base);
        return Status::Corruption("factor coder: factor outside dictionary");
      }
      if (len <= 16 && static_cast<size_t>(p) + 16 <= d.size()) {
        std::memcpy(dst, d.data() + p, 16);  // slack absorbs the overrun
      } else {
        std::memcpy(dst, d.data() + p, len);
      }
      dst += len;
    }
  }
  if (skip != 0) std::memmove(out, out + skip, total);
  text->resize(out_base + total);
  return Status::OK();
}

Status FactorCoder::DecodeDoc(std::string_view in, const Dictionary& dict,
                              std::string* text,
                              DecodeScratch* scratch) const {
  return DecodeRange(in, dict, 0, SIZE_MAX, text, scratch);
}

}  // namespace rlz
