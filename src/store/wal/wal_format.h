#ifndef RLZ_STORE_WAL_WAL_FORMAT_H_
#define RLZ_STORE_WAL_WAL_FORMAT_H_

/// \file
/// On-disk layout of the write-ahead log (DESIGN.md §12).
///
/// The log is a sequence of append-only segment files, `wal-<seq>.log`,
/// numbered consecutively. Each segment opens with a fixed header:
///
///   offset 0   magic "RLZW" (4 bytes)
///   offset 4   wal format version (1 byte)
///   offset 5   store generation (8 bytes little-endian) — which
///              checkpoint lineage this segment extends
///   offset 13  start LSN (8 bytes little-endian) — the sequence number
///              of the segment's first record
///   offset 21  CRC-32 of bytes [0, 21) (4 bytes little-endian)
///
/// followed by CRC-framed records:
///
///   [1B type][4B payload length LE][payload][4B CRC-32 LE]
///
/// where the CRC covers type + length + payload. Records carry no
/// explicit LSN: a record's LSN is the segment's start LSN plus its
/// index, which recovery reconstructs by counting. A torn write —
/// truncated frame or bad CRC — in the *final* segment marks the end of
/// the durable log; the same damage in an earlier segment is Corruption
/// (an fsync'd frame cannot legitimately disappear).

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rlz {
namespace wal {

inline constexpr char kWalMagic[4] = {'R', 'L', 'Z', 'W'};
inline constexpr uint8_t kWalVersion = 1;
/// Fixed byte size of a segment header.
inline constexpr size_t kSegmentHeaderSize = 4 + 1 + 8 + 8 + 4;
/// Fixed framing overhead per record (type + length + CRC).
inline constexpr size_t kFrameOverhead = 1 + 4 + 4;
/// Refuse frames whose length field exceeds this (a corrupt length would
/// otherwise demand a giant allocation before the CRC can refute it).
inline constexpr uint32_t kMaxRecordPayload = 1u << 30;

/// Record types. Values are on-disk; never renumber.
enum class RecordType : uint8_t {
  /// Payload is the document's bytes, verbatim.
  kAppend = 1,
  /// Payload is the deleted doc id as 8 bytes little-endian.
  kDelete = 2,
  /// Empty payload: the tail was sealed into a compressed shard at this
  /// point. Replay re-seals at exactly this boundary (no auto-seal
  /// heuristics run during recovery).
  kSeal = 3,
};

/// True for a byte that names a known record type.
bool IsValidRecordType(uint8_t type);

/// A segment's parsed header.
struct SegmentHeader {
  uint64_t generation = 0;
  uint64_t start_lsn = 0;
};

/// Where a segment's records start: its sequence number and the LSN of
/// its first record, as its header records them.
struct SegmentStart {
  uint64_t seq = 0;
  uint64_t start_lsn = 0;
};

/// Serializes a segment header.
std::string EncodeSegmentHeader(const SegmentHeader& header);

/// Parses and validates the header at the front of `segment`. Corruption
/// on bad magic/CRC/truncation; InvalidArgument for an intact header of any
/// version other than kWalVersion.
StatusOr<SegmentHeader> DecodeSegmentHeader(std::string_view segment,
                                            const std::string& context);

/// Serializes one record frame.
std::string EncodeRecord(RecordType type, std::string_view payload);

/// Appends one record frame to `dst` in place — EncodeRecord's bytes,
/// without a string per frame.
void AppendRecord(std::string* dst, RecordType type, std::string_view payload);

/// One parsed record plus the bytes it consumed.
struct ParsedRecord {
  RecordType type = RecordType::kAppend;
  std::string_view payload;  // into the segment bytes
  size_t frame_size = 0;     // bytes consumed from the segment
};

/// Outcome of parsing the frame at the front of `data`.
enum class FrameStatus {
  kOk,        // a complete valid frame; `record` is filled
  kEnd,       // `data` is empty — clean end of segment
  kTorn,      // truncated or CRC-damaged frame: valid end of a final
              // segment, Corruption anywhere else (the caller decides)
};

/// Parses the frame at the front of `data`. Never fails hard: damage
/// reports kTorn and the caller applies the final-segment rule.
FrameStatus ParseRecord(std::string_view data, ParsedRecord* record);

/// Name of segment file `seq` ("wal-0000000000000042.log") — fixed-width
/// so lexicographic directory order is numeric order.
std::string SegmentFileName(uint64_t seq);

/// Parses a segment file name; false if `name` is not one.
bool ParseSegmentFileName(std::string_view name, uint64_t* seq);

/// Little-endian helpers shared by the wal module.
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
uint32_t GetFixed32(const char* p);
uint64_t GetFixed64(const char* p);

}  // namespace wal
}  // namespace rlz

#endif  // RLZ_STORE_WAL_WAL_FORMAT_H_
