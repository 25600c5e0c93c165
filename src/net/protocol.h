#ifndef RLZ_NET_PROTOCOL_H_
#define RLZ_NET_PROTOCOL_H_

/// \file
/// The wire protocol of the network front end (DESIGN.md §13): tiny
/// length-prefixed binary frames, little-endian throughout.
///
/// Every frame is `[u32 body_len][u8 type][u8 flags][payload]` where
/// body_len counts everything after the length field. When `flags` has
/// kFlagCrc set, the last four payload bytes are a CRC32 over the body
/// up to (excluding) the CRC itself; the parser verifies and strips it.
/// Responses reuse the same envelope with the request's type echoed and
/// a leading status-code byte in the payload, so one incremental parser
/// serves both directions. Requests on one connection are answered in
/// order (pipelining matches responses positionally, as in Redis), so
/// no sequence numbers travel on the wire.
///
/// Protocol v2 (DESIGN.md §14) widens the flags byte, all of it
/// backward-compatible for v1 clients whose extra bits were required to
/// be zero: bits 1–2 carry the request's priority class (0 = normal, so
/// v1 clients land on kNormal; 3 is reserved and rejected), and bit 3 is
/// overloaded by direction — on a request (kFlagDeadline) the payload
/// begins with a u32 relative deadline in milliseconds; on a response
/// (kFlagRetryAfter) the payload after the status byte begins with a u32
/// retry-after hint in milliseconds (attached to load-shed
/// kUnavailable responses).
///
/// Malformed input (oversized length, unknown type, short payload, CRC
/// mismatch, inconsistent counts) is a parse *error*, distinct from
/// "need more bytes": the connection that produced it is poisoned — the
/// server answers with a kError frame when it still can, then closes.

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "serve/request_queue.h"  // RequestPriority travels on the wire
#include "util/status.h"

namespace rlz {
namespace net {

/// Frame type tags. Responses echo the request's tag; kError is a
/// server-originated response to an unparseable request.
enum class MessageType : uint8_t {
  kGet = 1,       ///< one whole document by id
  kMultiGet = 2,  ///< a batch of documents by id
  kGetRange = 3,  ///< a byte range of one document (the snippet path)
  kStat = 4,      ///< service + network counters snapshot
  kError = 5,     ///< response-only: the request could not be parsed
};

/// Frame flag bits (`flags` header byte). v1 defined only kFlagCrc and
/// rejected every other bit; v2 uses bits 1–3 as documented in the file
/// header, which is why a v1 frame decodes identically under v2.
constexpr uint8_t kFlagCrc = 0x01;
/// Bits 1–2: the request's priority class on the wire.
constexpr uint8_t kFlagPriorityMask = 0x06;
/// Shift of the priority field within the flags byte.
constexpr int kFlagPriorityShift = 1;
/// Bit 3 on a request: payload begins with a u32 deadline (ms, relative).
constexpr uint8_t kFlagDeadline = 0x08;
/// Bit 3 on a response: payload (after the status byte) begins with a
/// u32 retry-after hint (ms).
constexpr uint8_t kFlagRetryAfter = 0x08;
/// Every flag bit v2 understands; others are a protocol error.
constexpr uint8_t kKnownFlags = 0x0F;

/// Priority class → its wire bit pattern (within kFlagPriorityMask,
/// already shifted). kNormal maps to 0 so v1 clients are normal class.
uint8_t PriorityToWireBits(RequestPriority priority);
/// Decodes the priority field of `flags`. False for the reserved wire
/// value 3 (a protocol error at the caller).
bool PriorityFromWire(uint8_t flags, RequestPriority* priority);

/// Largest accepted frame body; anything longer is a protocol error
/// (memory-safety bound against hostile length prefixes).
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Largest accepted MultiGet id count (bounds allocation before the
/// body-size consistency check can catch a lying count).
constexpr uint32_t kMaxMultiGetIds = 1u << 20;

/// Wire status codes: StatusCode projected onto one stable byte.
enum class WireCode : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kCorruption = 4,
  kIOError = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kUnavailable = 8,
  kDeadlineExceeded = 9,
};

/// Maps a Status onto its wire byte (unknown future codes → kInternal).
WireCode ToWireCode(const Status& status);
/// Human-readable name of a wire code (mirrors StatusCodeToString).
const char* WireCodeToString(WireCode code);

/// A decoded request frame. `ids` is reused across decodes (cleared,
/// not reallocated), keeping the per-frame parse allocation-free once
/// warm.
struct NetRequest {
  /// Request kind.
  MessageType type = MessageType::kGet;
  /// Echoed into the response (the server answers CRC with CRC).
  uint8_t flags = 0;
  /// Document id (kGet, kGetRange).
  uint64_t id = 0;
  /// Range start (kGetRange).
  uint64_t offset = 0;
  /// Range length (kGetRange).
  uint64_t length = 0;
  /// Priority class from the flags byte (kNormal for v1 clients).
  RequestPriority priority = RequestPriority::kNormal;
  /// Relative deadline (ms) from the kFlagDeadline prefix; 0 = none.
  uint32_t deadline_ms = 0;
  /// Batch ids (kMultiGet).
  std::vector<uint64_t> ids;
};

/// Per-request knobs of the request encoders. Options with only `crc`
/// set (priority normal, no deadline) encode a v1 frame, byte for byte.
struct RequestOptions {
  /// Append and set the CRC32 trailer (kFlagCrc).
  bool crc = false;
  /// Priority class (flags bits 1–2).
  RequestPriority priority = RequestPriority::kNormal;
  /// Relative deadline in ms (kFlagDeadline payload prefix); 0 = none.
  uint32_t deadline_ms = 0;
};

/// Value kind of one Stat entry (the wire byte after its name).
enum class StatKind : uint8_t {
  kU64 = 0,  ///< an unsigned 64-bit counter or gauge
  kF64 = 1,  ///< an IEEE-754 double (seconds, microseconds)
};

/// One named value of a Stat response.
struct StatEntry {
  /// Dotted name, e.g. "net.batches" (1..255 bytes).
  std::string name;
  /// Which of the two values below is meaningful.
  StatKind kind = StatKind::kU64;
  /// The value when kind is kU64.
  uint64_t u64 = 0;
  /// The value when kind is kF64.
  double f64 = 0.0;
};

/// The Stat response payload (DESIGN.md §13): self-describing (name,
/// kind, value) entries. The codec knows no counter names; the server
/// fills the list from its stats structs' field lists, so a new counter
/// needs no protocol change.
struct WireStats {
  /// Entries in wire order; names are unique.
  std::vector<StatEntry> entries;

  /// Appends an entry: integers as kU64, floating point as kF64.
  template <typename T>
  void Add(std::string_view name, T value) {
    StatEntry& e = entries.emplace_back();
    e.name.assign(name.data(), name.size());
    if constexpr (std::is_floating_point_v<T>) {
      e.kind = StatKind::kF64;
      e.f64 = static_cast<double>(value);
    } else {
      e.u64 = static_cast<uint64_t>(value);
    }
  }
  /// Appends one entry per field of `stats`, named by its ForEachField.
  template <typename Stats>
  void AddFields(const Stats& stats) {
    stats.ForEachField(
        [this](const char* name, auto value) { Add(name, value); });
  }
  /// The entry named `name`, or nullptr.
  const StatEntry* Find(std::string_view name) const;
  /// The named kU64 entry's value; 0 when absent or of another kind.
  uint64_t U64(std::string_view name) const;
};

/// One element of a MultiGet response: a per-id status byte and, when
/// OK, the document bytes (an error message otherwise).
struct MultiGetElement {
  /// Per-id outcome.
  WireCode code = WireCode::kOk;
  /// Document bytes (code == kOk) or error message.
  std::string bytes;
};

/// A decoded response frame (client side). Which members are meaningful
/// depends on `type`: payload for kGet/kGetRange/kError, elements for
/// kMultiGet, stats for kStat.
struct NetResponse {
  /// Echo of the request type (kError for unparseable requests).
  MessageType type = MessageType::kError;
  /// Frame flags as received.
  uint8_t flags = 0;
  /// Overall outcome (per-element codes qualify kMultiGet).
  WireCode code = WireCode::kInternal;
  /// Retry-after hint in ms (kFlagRetryAfter responses — load sheds);
  /// 0 when absent.
  uint32_t retry_after_ms = 0;
  /// Document bytes (kGet/kGetRange, code kOk) or error message.
  std::string payload;
  /// Per-id results (kMultiGet).
  std::vector<MultiGetElement> elements;
  /// Counters snapshot (kStat).
  WireStats stats;

  /// True when the overall code is kOk.
  bool ok() const { return code == WireCode::kOk; }
};

/// Appends a Get request frame for `id` to `*out`.
void EncodeGetRequest(uint64_t id, const RequestOptions& opts,
                      std::string* out);
/// Appends a MultiGet request frame for `ids[0..n)` to `*out`.
void EncodeMultiGetRequest(const uint64_t* ids, size_t n,
                           const RequestOptions& opts, std::string* out);
/// Appends a GetRange request frame to `*out`.
void EncodeGetRangeRequest(uint64_t id, uint64_t offset, uint64_t length,
                           const RequestOptions& opts, std::string* out);
/// Appends a Stat request frame to `*out`.
void EncodeStatRequest(bool crc, std::string* out);

/// Appends a kGet/kGetRange/kError response frame: `body` is the
/// document bytes when `code` is kOk, an error message otherwise.
void EncodeDocResponse(MessageType type, WireCode code,
                       std::string_view body, bool crc, std::string* out);

/// Appends a load-shed/expiry response frame carrying a retry-after
/// hint (kFlagRetryAfter): `message` explains the rejection, `code` is
/// typically kUnavailable or kDeadlineExceeded. Works for any response
/// type — a shed MultiGet is answered with one whole-request frame whose
/// payload is the message, not per-element results.
void EncodeRejectResponse(MessageType type, WireCode code,
                          uint32_t retry_after_ms, std::string_view message,
                          bool crc, std::string* out);

/// Input view for one MultiGet response element.
struct MultiGetOut {
  /// Per-id outcome.
  WireCode code = WireCode::kOk;
  /// Document bytes or error message (borrowed; copied into the frame).
  std::string_view bytes;
};
/// Appends a kMultiGet response frame carrying `elements[0..n)`.
void EncodeMultiGetResponse(const MultiGetOut* elements, size_t n, bool crc,
                            std::string* out);
/// Appends a kStat response frame carrying `stats`.
void EncodeStatResponse(const WireStats& stats, bool crc, std::string* out);

/// Outcome of one ParseFrame attempt.
enum class ParseResult {
  kFrame,     ///< one complete frame extracted
  kNeedMore,  ///< the buffer holds only a frame prefix — read more
  kError,     ///< malformed input; the connection is poisoned
};

/// Extracts one frame from the front of `buf` (an accumulation buffer).
/// On kFrame: `*type`/`*flags` hold the header, `*body` views the
/// payload (CRC verified and stripped; aliases `buf`), and `*consumed`
/// is the byte count to drop from the buffer. On kError, `*error` says
/// why. kNeedMore touches only `*consumed` (set to 0).
ParseResult ParseFrame(std::string_view buf, MessageType* type,
                       uint8_t* flags, std::string_view* body,
                       size_t* consumed, std::string* error);

/// Decodes a request payload (server side). `out->ids` is reused.
Status DecodeRequestBody(MessageType type, uint8_t flags,
                         std::string_view body, NetRequest* out);
/// Decodes a response payload (client side).
Status DecodeResponseBody(MessageType type, uint8_t flags,
                          std::string_view body, NetResponse* out);

}  // namespace net
}  // namespace rlz

#endif  // RLZ_NET_PROTOCOL_H_
