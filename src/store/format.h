#ifndef RLZ_STORE_FORMAT_H_
#define RLZ_STORE_FORMAT_H_

/// \file
/// The versioned on-disk container format shared by every persistent
/// artifact (DESIGN.md §8).
///
/// Every file this library writes is a *format envelope*:
///
///   offset 0   magic "RLZA" (4 bytes)
///   offset 4   container-layout byte (kContainerLayoutVersion)
///   then       vbyte(format-id length) + format-id bytes
///              vbyte(format version)
///              vbyte64(body size)
///              body (format-specific sections)
///   trailer    CRC-32 (4 bytes little-endian) over everything before it
///
/// The envelope makes files self-describing: a reader can open any
/// artifact without out-of-band type knowledge (OpenArchive sniffs the
/// format id and dispatches), reject artifacts of any format version but
/// the current one, and detect truncation at every prefix — the header
/// records the exact body size, so a shortened or padded file is a
/// structural error even when the CRC happens to collide.
///
/// EnvelopeWriter/EnvelopeReader centralize the bounds-checked section
/// encoding that each format's Save/Load previously hand-rolled; every
/// malformed read surfaces as Status::Corruption, never a crash.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rlz {

/// 4-byte magic that opens every container file.
inline constexpr char kEnvelopeMagic[4] = {'R', 'L', 'Z', 'A'};

/// Current container-layout version, stored at offset 4. Bytes above it
/// are rejected as InvalidArgument ("written by a future version"); any
/// other byte, including the 0x01 of the dropped pre-envelope rlz layout
/// (DESIGN.md §8), is Corruption.
inline constexpr uint8_t kContainerLayoutVersion = 2;

/// Serializes one envelope: construct with the format id and version,
/// append body sections with the Put methods, then Seal or WriteTo.
///
///   EnvelopeWriter w(RlzArchive::kFormatId, RlzArchive::kFormatVersion);
///   w.PutByte(...); w.PutLengthPrefixed(dict_text); w.PutBytes(payload);
///   RLZ_RETURN_IF_ERROR(std::move(w).WriteTo(path));
class EnvelopeWriter {
 public:
  /// Starts an envelope for format `format_id` at `version`. The id must
  /// be non-empty and at most kMaxFormatIdLength bytes (checked).
  EnvelopeWriter(std::string_view format_id, uint32_t version);

  /// Appends one raw byte to the body.
  void PutByte(uint8_t value) { body_.push_back(static_cast<char>(value)); }
  /// Appends a 32-bit varint to the body.
  void PutVarint32(uint32_t value);
  /// Appends a 64-bit varint to the body.
  void PutVarint64(uint64_t value);
  /// Appends raw bytes to the body.
  void PutBytes(std::string_view bytes) { body_.append(bytes); }
  /// Appends vbyte64(bytes.size()) followed by the bytes — the standard
  /// encoding for a variable-length section.
  void PutLengthPrefixed(std::string_view bytes);

  /// Body bytes appended so far.
  uint64_t body_size() const { return body_.size(); }

  /// Assembles the complete container (header, body, CRC trailer) and
  /// returns its bytes. Consumes the writer.
  std::string Seal() &&;

  /// Seal() plus WriteFile(path). Consumes the writer.
  Status WriteTo(const std::string& path) &&;

 private:
  std::string format_id_;
  uint32_t version_;
  std::string body_;
};

/// Bounds-checked cursor over an envelope body (or any byte section).
/// Every read past the end returns Corruption mentioning `context`, so
/// format loaders never index out of range on crafted input. Reads never
/// copy payload bytes: ReadBytes returns views into the underlying
/// buffer, which must outlive the reader (ParsedEnvelope owns it).
class EnvelopeReader {
 public:
  /// A cursor over `body`. `context` names the artifact for error
  /// messages (e.g. "rlz archive <path>").
  EnvelopeReader(std::string_view body, std::string context)
      : body_(body), context_(std::move(context)) {}

  /// Reads one byte.
  Status ReadByte(uint8_t* value);
  /// Reads a 32-bit varint (Corruption if truncated or out of range).
  Status ReadVarint32(uint32_t* value);
  /// Reads a 64-bit varint (Corruption if truncated or malformed).
  Status ReadVarint64(uint64_t* value);
  /// Reads exactly `n` bytes as a view into the underlying buffer.
  Status ReadBytes(uint64_t n, std::string_view* bytes);
  /// Reads vbyte64(length) + that many bytes (see PutLengthPrefixed).
  Status ReadLengthPrefixed(std::string_view* bytes);

  /// Reads the standard trailing-payload size table: vbyte64(count), then
  /// one vbyte64 per entry. The count and the running sum are checked
  /// against the bytes remaining — a crafted count cannot force a huge
  /// allocation and an overflowed sum cannot fake a match — and the sum
  /// must equal exactly the bytes left after the table, i.e. the payload
  /// a following ReadRest() returns. The one implementation of these
  /// checks shared by every per-document format (DESIGN.md §8).
  Status ReadSizeTable(std::vector<uint64_t>* sizes);

  /// Bytes left before the end of the section.
  uint64_t remaining() const { return body_.size() - pos_; }
  /// Consumes and returns every remaining byte — the idiom for a
  /// trailing payload section whose size is implied by the envelope.
  std::string_view ReadRest();
  /// OK if the cursor consumed the whole section; Corruption (trailing
  /// bytes) otherwise — catches bodies longer than the format expects.
  Status ExpectConsumed() const;

 private:
  Status Truncated(const char* what) const;

  std::string_view body_;
  size_t pos_ = 0;
  std::string context_;
};

/// A validated envelope: magic, layout byte, format id/version, body
/// size, and CRC all checked. The file bytes are held through a shared
/// handle (see backing()), so body() views stay valid for the lifetime of
/// the ParsedEnvelope *or* of any backing() copy a loader retains — this
/// is what lets archives alias their payload sections zero-copy instead
/// of re-copying the file on open (DESIGN.md §9).
class ParsedEnvelope {
 public:
  /// Parses and validates `raw` (an entire container file). `context`
  /// names the source for error messages. Returns Corruption for
  /// structural damage (bad magic, truncation, CRC mismatch, unknown
  /// layout byte) and InvalidArgument for a future container layout.
  static StatusOr<ParsedEnvelope> FromBytes(std::string raw,
                                            std::string context);

  /// FromBytes over bytes the caller already owns: `raw` must stay valid
  /// for as long as `owner` is alive (the mmap open path passes the view
  /// of an MmapFile and a shared handle to it; see DESIGN.md §9/§12).
  static StatusOr<ParsedEnvelope> FromView(std::string_view raw,
                                           std::shared_ptr<const void> owner,
                                           std::string context);

  /// The format-id string stored in the header (e.g. "rlz", "blocked").
  const std::string& format_id() const { return format_id_; }
  /// The format version stored in the header.
  uint32_t version() const { return version_; }
  /// The body section (a view into the shared file bytes).
  std::string_view body() const {
    return raw_.substr(body_offset_, body_size_);
  }
  /// A bounds-checked cursor over body(). The envelope must outlive it.
  EnvelopeReader reader() const { return EnvelopeReader(body(), context_); }
  /// The context string the envelope was parsed with.
  const std::string& context() const { return context_; }

  /// Shared ownership of whatever keeps the raw file bytes alive — a
  /// heap buffer on the read path, an MmapFile on the mmap path. A
  /// format loader that wants to alias body sections instead of copying
  /// them keeps a copy of this opaque handle alive alongside its views
  /// (RlzArchive and BlockedArchive do; see DESIGN.md §9).
  std::shared_ptr<const void> backing() const { return owner_; }

 private:
  ParsedEnvelope() = default;

  std::string_view raw_;  // valid while owner_ is alive
  std::shared_ptr<const void> owner_;
  std::string format_id_;
  uint32_t version_ = 0;
  size_t body_offset_ = 0;
  size_t body_size_ = 0;
  std::string context_;
};

/// Reads `path` and parses it as an envelope (see ParsedEnvelope::FromBytes).
StatusOr<ParsedEnvelope> ReadEnvelopeFile(const std::string& path);

/// Checks that `envelope` carries `format_id` at exactly `version`, the
/// one version each format reads (DESIGN.md §8). Returns InvalidArgument
/// naming both ids on a mismatch ("this file is a 'blocked' container,
/// expected 'rlz'") and InvalidArgument for any other version, older or
/// newer.
Status CheckEnvelopeFormat(const ParsedEnvelope& envelope,
                           std::string_view format_id, uint32_t version);

}  // namespace rlz

#endif  // RLZ_STORE_FORMAT_H_
