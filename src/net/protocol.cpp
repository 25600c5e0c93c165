#include "net/protocol.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/crc32.h"

namespace rlz {
namespace net {
namespace {

// The wire is little-endian; so is every platform this library targets
// (the same assumption the container format makes).
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "wire protocol assumes a little-endian host");

template <typename T>
void Put(T value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool Get(std::string_view* in, T* value) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(value, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

// Opens a frame: appends the length placeholder and the body header,
// returning the offset of the placeholder for CloseFrame to patch.
size_t OpenFrameFlags(MessageType type, uint8_t flags, std::string* out) {
  const size_t at = out->size();
  Put<uint32_t>(0, out);
  Put<uint8_t>(static_cast<uint8_t>(type), out);
  Put<uint8_t>(flags, out);
  return at;
}

size_t OpenFrame(MessageType type, bool crc, std::string* out) {
  return OpenFrameFlags(type, crc ? kFlagCrc : 0, out);
}

// The flags byte of a v2 request and, when a deadline rides along, the
// payload prefix carrying it.
uint8_t RequestFlags(const RequestOptions& opts) {
  uint8_t flags = opts.crc ? kFlagCrc : 0;
  flags |= PriorityToWireBits(opts.priority);
  if (opts.deadline_ms != 0) flags |= kFlagDeadline;
  return flags;
}

size_t OpenRequestFrame(MessageType type, const RequestOptions& opts,
                        std::string* out) {
  const size_t at = OpenFrameFlags(type, RequestFlags(opts), out);
  if (opts.deadline_ms != 0) Put<uint32_t>(opts.deadline_ms, out);
  return at;
}

// Closes a frame opened at `at`: appends the CRC when requested (over
// the body written so far) and patches the length prefix.
void CloseFrame(size_t at, bool crc, std::string* out) {
  if (crc) {
    const uint32_t sum =
        Crc32(out->data() + at + sizeof(uint32_t),
              out->size() - at - sizeof(uint32_t));
    Put<uint32_t>(sum, out);
  }
  const uint32_t body_len =
      static_cast<uint32_t>(out->size() - at - sizeof(uint32_t));
  std::memcpy(out->data() + at, &body_len, sizeof(body_len));
}

// The Stat payload's layout version: [u32 count] then per entry
// [u8 name_len][name][u8 kind][8-byte value] (DESIGN.md §13).
constexpr uint8_t kStatVersion = 4;
// The smallest entry: a one-byte name, its length, the kind and value.
constexpr size_t kMinStatEntryBytes = 1 + 1 + 1 + 8;

// Decodes a Stat payload after its status byte. The entry count is
// checked against the bytes left before anything is reserved, and names
// must be non-empty and unique; the decoder interprets none of them.
Status DecodeStatEntries(std::string_view body, WireStats* stats) {
  uint8_t version;
  if (!Get(&body, &version) || version != kStatVersion) {
    return Status::InvalidArgument("Stat response version unsupported");
  }
  uint32_t count;
  if (!Get(&body, &count) || count > body.size() / kMinStatEntryBytes) {
    return Status::InvalidArgument("Stat entry count exceeds the payload");
  }
  stats->entries.reserve(count);
  std::vector<std::string_view> names;
  names.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t name_len;
    if (!Get(&body, &name_len) || name_len == 0 || body.size() < name_len) {
      return Status::InvalidArgument("Stat entry name malformed");
    }
    StatEntry& e = stats->entries.emplace_back();
    e.name.assign(body.data(), name_len);
    names.push_back(body.substr(0, name_len));
    body.remove_prefix(name_len);
    uint8_t kind;
    if (!Get(&body, &kind) || kind > static_cast<uint8_t>(StatKind::kF64)) {
      return Status::InvalidArgument("Stat entry kind missing or unknown");
    }
    e.kind = static_cast<StatKind>(kind);
    const bool ok = e.kind == StatKind::kF64 ? Get(&body, &e.f64)
                                             : Get(&body, &e.u64);
    if (!ok) return Status::InvalidArgument("Stat entry value truncated");
  }
  if (!body.empty()) {
    return Status::InvalidArgument("Stat response has trailing bytes");
  }
  std::sort(names.begin(), names.end());
  if (std::adjacent_find(names.begin(), names.end()) != names.end()) {
    return Status::InvalidArgument("Stat entry name repeated");
  }
  return Status::OK();
}

}  // namespace

const StatEntry* WireStats::Find(std::string_view name) const {
  for (const StatEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

uint64_t WireStats::U64(std::string_view name) const {
  const StatEntry* e = Find(name);
  return e != nullptr && e->kind == StatKind::kU64 ? e->u64 : 0;
}

uint8_t PriorityToWireBits(RequestPriority priority) {
  // Wire values: 0 = normal (so a v1 client's zero flags mean kNormal),
  // 1 = high, 2 = best-effort, 3 = reserved.
  switch (priority) {
    case RequestPriority::kNormal: return 0;
    case RequestPriority::kHigh: return 1u << kFlagPriorityShift;
    case RequestPriority::kBestEffort: return 2u << kFlagPriorityShift;
  }
  return 0;
}

bool PriorityFromWire(uint8_t flags, RequestPriority* priority) {
  switch ((flags & kFlagPriorityMask) >> kFlagPriorityShift) {
    case 0: *priority = RequestPriority::kNormal; return true;
    case 1: *priority = RequestPriority::kHigh; return true;
    case 2: *priority = RequestPriority::kBestEffort; return true;
  }
  return false;  // 3 is reserved
}

WireCode ToWireCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return WireCode::kOk;
    case StatusCode::kInvalidArgument: return WireCode::kInvalidArgument;
    case StatusCode::kNotFound: return WireCode::kNotFound;
    case StatusCode::kOutOfRange: return WireCode::kOutOfRange;
    case StatusCode::kCorruption: return WireCode::kCorruption;
    case StatusCode::kIOError: return WireCode::kIOError;
    case StatusCode::kUnimplemented: return WireCode::kUnimplemented;
    case StatusCode::kInternal: return WireCode::kInternal;
    case StatusCode::kUnavailable: return WireCode::kUnavailable;
    case StatusCode::kDeadlineExceeded: return WireCode::kDeadlineExceeded;
  }
  return WireCode::kInternal;
}

const char* WireCodeToString(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "OK";
    case WireCode::kInvalidArgument: return "InvalidArgument";
    case WireCode::kNotFound: return "NotFound";
    case WireCode::kOutOfRange: return "OutOfRange";
    case WireCode::kCorruption: return "Corruption";
    case WireCode::kIOError: return "IOError";
    case WireCode::kUnimplemented: return "Unimplemented";
    case WireCode::kInternal: return "Internal";
    case WireCode::kUnavailable: return "Unavailable";
    case WireCode::kDeadlineExceeded: return "DeadlineExceeded";
  }
  return "Unknown";
}

void EncodeGetRequest(uint64_t id, const RequestOptions& opts,
                      std::string* out) {
  const size_t at = OpenRequestFrame(MessageType::kGet, opts, out);
  Put<uint64_t>(id, out);
  CloseFrame(at, opts.crc, out);
}

void EncodeMultiGetRequest(const uint64_t* ids, size_t n,
                           const RequestOptions& opts, std::string* out) {
  const size_t at = OpenRequestFrame(MessageType::kMultiGet, opts, out);
  Put<uint32_t>(static_cast<uint32_t>(n), out);
  for (size_t i = 0; i < n; ++i) Put<uint64_t>(ids[i], out);
  CloseFrame(at, opts.crc, out);
}

void EncodeGetRangeRequest(uint64_t id, uint64_t offset, uint64_t length,
                           const RequestOptions& opts, std::string* out) {
  const size_t at = OpenRequestFrame(MessageType::kGetRange, opts, out);
  Put<uint64_t>(id, out);
  Put<uint64_t>(offset, out);
  Put<uint64_t>(length, out);
  CloseFrame(at, opts.crc, out);
}

void EncodeStatRequest(bool crc, std::string* out) {
  const size_t at = OpenFrame(MessageType::kStat, crc, out);
  CloseFrame(at, crc, out);
}

void EncodeDocResponse(MessageType type, WireCode code,
                       std::string_view body, bool crc, std::string* out) {
  const size_t at = OpenFrame(type, crc, out);
  Put<uint8_t>(static_cast<uint8_t>(code), out);
  out->append(body.data(), body.size());
  CloseFrame(at, crc, out);
}

void EncodeRejectResponse(MessageType type, WireCode code,
                          uint32_t retry_after_ms, std::string_view message,
                          bool crc, std::string* out) {
  const uint8_t flags = (crc ? kFlagCrc : 0) | kFlagRetryAfter;
  const size_t at = OpenFrameFlags(type, flags, out);
  Put<uint8_t>(static_cast<uint8_t>(code), out);
  Put<uint32_t>(retry_after_ms, out);
  out->append(message.data(), message.size());
  CloseFrame(at, crc, out);
}

void EncodeMultiGetResponse(const MultiGetOut* elements, size_t n, bool crc,
                            std::string* out) {
  const size_t at = OpenFrame(MessageType::kMultiGet, crc, out);
  Put<uint8_t>(static_cast<uint8_t>(WireCode::kOk), out);
  Put<uint32_t>(static_cast<uint32_t>(n), out);
  for (size_t i = 0; i < n; ++i) {
    Put<uint8_t>(static_cast<uint8_t>(elements[i].code), out);
    Put<uint32_t>(static_cast<uint32_t>(elements[i].bytes.size()), out);
    out->append(elements[i].bytes.data(), elements[i].bytes.size());
  }
  CloseFrame(at, crc, out);
}

void EncodeStatResponse(const WireStats& stats, bool crc, std::string* out) {
  const size_t at = OpenFrame(MessageType::kStat, crc, out);
  Put<uint8_t>(static_cast<uint8_t>(WireCode::kOk), out);
  Put<uint8_t>(kStatVersion, out);
  Put<uint32_t>(static_cast<uint32_t>(stats.entries.size()), out);
  for (const StatEntry& e : stats.entries) {
    assert(!e.name.empty() && e.name.size() <= 255);
    Put<uint8_t>(static_cast<uint8_t>(e.name.size()), out);
    out->append(e.name);
    Put<uint8_t>(static_cast<uint8_t>(e.kind), out);
    if (e.kind == StatKind::kF64) {
      Put<double>(e.f64, out);
    } else {
      Put<uint64_t>(e.u64, out);
    }
  }
  CloseFrame(at, crc, out);
}

ParseResult ParseFrame(std::string_view buf, MessageType* type,
                       uint8_t* flags, std::string_view* body,
                       size_t* consumed, std::string* error) {
  *consumed = 0;
  if (buf.size() < sizeof(uint32_t)) return ParseResult::kNeedMore;
  uint32_t body_len;
  std::memcpy(&body_len, buf.data(), sizeof(body_len));
  if (body_len > kMaxFrameBytes) {
    *error = "frame length " + std::to_string(body_len) +
             " exceeds the protocol limit";
    return ParseResult::kError;
  }
  if (body_len < 2) {
    *error = "frame body shorter than its two-byte header";
    return ParseResult::kError;
  }
  if (buf.size() < sizeof(uint32_t) + body_len) return ParseResult::kNeedMore;
  const uint8_t raw_type = static_cast<uint8_t>(buf[4]);
  const uint8_t raw_flags = static_cast<uint8_t>(buf[5]);
  if (raw_type < static_cast<uint8_t>(MessageType::kGet) ||
      raw_type > static_cast<uint8_t>(MessageType::kError)) {
    *error = "unknown frame type " + std::to_string(raw_type);
    return ParseResult::kError;
  }
  if ((raw_flags & ~kKnownFlags) != 0) {
    *error = "unknown frame flags " + std::to_string(raw_flags);
    return ParseResult::kError;
  }
  std::string_view payload = buf.substr(6, body_len - 2);
  if (raw_flags & kFlagCrc) {
    if (payload.size() < sizeof(uint32_t)) {
      *error = "CRC flag set on a frame too short to carry one";
      return ParseResult::kError;
    }
    uint32_t expected;
    std::memcpy(&expected, payload.data() + payload.size() - sizeof(uint32_t),
                sizeof(expected));
    // The CRC covers the body (type, flags, payload) up to itself.
    const uint32_t actual =
        Crc32(buf.data() + sizeof(uint32_t),
              2 + payload.size() - sizeof(uint32_t));
    if (expected != actual) {
      *error = "frame CRC mismatch";
      return ParseResult::kError;
    }
    payload.remove_suffix(sizeof(uint32_t));
  }
  *type = static_cast<MessageType>(raw_type);
  *flags = raw_flags;
  *body = payload;
  *consumed = sizeof(uint32_t) + body_len;
  return ParseResult::kFrame;
}

Status DecodeRequestBody(MessageType type, uint8_t flags,
                         std::string_view body, NetRequest* out) {
  out->type = type;
  out->flags = flags;
  out->id = out->offset = out->length = 0;
  out->deadline_ms = 0;
  out->ids.clear();
  if (!PriorityFromWire(flags, &out->priority)) {
    return Status::InvalidArgument("reserved priority bits in frame flags");
  }
  if (flags & kFlagDeadline) {
    if (!Get(&body, &out->deadline_ms)) {
      return Status::InvalidArgument(
          "deadline flag set on a frame too short to carry one");
    }
  }
  switch (type) {
    case MessageType::kGet:
      if (body.size() != sizeof(uint64_t) || !Get(&body, &out->id)) {
        return Status::InvalidArgument("Get request payload malformed");
      }
      return Status::OK();
    case MessageType::kMultiGet: {
      uint32_t count;
      if (!Get(&body, &count)) {
        return Status::InvalidArgument("MultiGet request payload malformed");
      }
      if (count > kMaxMultiGetIds) {
        return Status::InvalidArgument("MultiGet id count exceeds limit");
      }
      if (body.size() != static_cast<size_t>(count) * sizeof(uint64_t)) {
        return Status::InvalidArgument(
            "MultiGet payload size disagrees with its id count");
      }
      out->ids.resize(count);
      for (uint32_t i = 0; i < count; ++i) Get(&body, &out->ids[i]);
      return Status::OK();
    }
    case MessageType::kGetRange:
      if (body.size() != 3 * sizeof(uint64_t) || !Get(&body, &out->id) ||
          !Get(&body, &out->offset) || !Get(&body, &out->length)) {
        return Status::InvalidArgument("GetRange request payload malformed");
      }
      return Status::OK();
    case MessageType::kStat:
      if (!body.empty()) {
        return Status::InvalidArgument("Stat request carries a payload");
      }
      return Status::OK();
    case MessageType::kError:
      return Status::InvalidArgument("kError is not a request type");
  }
  return Status::InvalidArgument("unknown request type");
}

Status DecodeResponseBody(MessageType type, uint8_t flags,
                          std::string_view body, NetResponse* out) {
  out->type = type;
  out->flags = flags;
  out->retry_after_ms = 0;
  out->payload.clear();
  out->elements.clear();
  out->stats = WireStats();
  uint8_t code;
  if (!Get(&body, &code)) {
    return Status::InvalidArgument("response missing its status byte");
  }
  if (code > static_cast<uint8_t>(WireCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("response status byte out of range");
  }
  out->code = static_cast<WireCode>(code);
  if (flags & kFlagRetryAfter) {
    if (!Get(&body, &out->retry_after_ms)) {
      return Status::InvalidArgument(
          "retry-after flag set on a frame too short to carry one");
    }
  }
  // Any rejected request (load shed, expired, unparseable) may be
  // answered with a whole-request error frame whose payload is just a
  // message — including MultiGet and Stat, whose structured payloads
  // exist only when the overall code is kOk.
  if (out->code != WireCode::kOk) {
    out->payload.assign(body.data(), body.size());
    return Status::OK();
  }
  switch (type) {
    case MessageType::kGet:
    case MessageType::kGetRange:
    case MessageType::kError:
      out->payload.assign(body.data(), body.size());
      return Status::OK();
    case MessageType::kMultiGet: {
      uint32_t count;
      if (!Get(&body, &count)) {
        return Status::InvalidArgument("MultiGet response payload malformed");
      }
      if (count > kMaxMultiGetIds) {
        return Status::InvalidArgument(
            "MultiGet response element count exceeds limit");
      }
      out->elements.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint8_t elem_code;
        uint32_t len;
        if (!Get(&body, &elem_code) || !Get(&body, &len) ||
            body.size() < len ||
            elem_code > static_cast<uint8_t>(WireCode::kUnavailable)) {
          return Status::InvalidArgument(
              "MultiGet response element malformed");
        }
        MultiGetElement elem;
        elem.code = static_cast<WireCode>(elem_code);
        elem.bytes.assign(body.data(), len);
        body.remove_prefix(len);
        out->elements.push_back(std::move(elem));
      }
      if (!body.empty()) {
        return Status::InvalidArgument(
            "MultiGet response has trailing bytes");
      }
      return Status::OK();
    }
    case MessageType::kStat:
      return DecodeStatEntries(body, &out->stats);
  }
  return Status::InvalidArgument("unknown response type");
}

}  // namespace net
}  // namespace rlz
