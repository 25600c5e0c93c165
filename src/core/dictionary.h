#ifndef RLZ_CORE_DICTIONARY_H_
#define RLZ_CORE_DICTIONARY_H_

/// \file
/// The RLZ dictionary (sampled text + suffix matcher) and the §3.3/§3.6 construction strategies.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "suffix/matcher.h"
#include "util/bitmap.h"
#include "util/status.h"

namespace rlz {

class ParsedEnvelope;

/// An RLZ dictionary: the sampled text plus its suffix array wrapped in a
/// SuffixMatcher. Immutable once built; memory-resident by design (this is
/// the property that makes RLZ random access fast, §3.1).
class Dictionary {
 public:
  /// Wraps `text` (copied). When `build_suffix_array` is true (the
  /// default) the suffix array and prefix table are built here — required
  /// for factorizing documents. Serving-only callers (decode existing
  /// archives, which never consult the suffix array) pass false and skip
  /// that work entirely; see OpenOptions::build_suffix_array.
  explicit Dictionary(std::string text, bool build_suffix_array = true);

  /// Zero-copy variant: aliases `text` without copying it, keeping
  /// `owner` (the buffer `text` points into — typically a ParsedEnvelope
  /// backing()) alive for the dictionary's lifetime. This is the open
  /// path's way to avoid duplicating the dictionary bytes already held by
  /// the loaded file (DESIGN.md §9).
  Dictionary(std::string_view text, std::shared_ptr<const void> owner,
             bool build_suffix_array = true);

  /// Not copyable or movable: the matcher (and, for the zero-copy
  /// constructor, the text view) points into this instance's storage.
  Dictionary(const Dictionary&) = delete;
  /// Not assignable, for the same reason.
  Dictionary& operator=(const Dictionary&) = delete;

  /// The dictionary text.
  std::string_view text() const { return view_; }
  /// Dictionary size in bytes.
  size_t size() const { return view_.size(); }
  /// True if the suffix-array matcher was built (see the constructor).
  bool has_matcher() const { return matcher_ != nullptr; }
  /// The suffix-array matcher over the dictionary text. Aborts if the
  /// dictionary was built without one (has_matcher() == false):
  /// factorization against a serving-only dictionary is a programming
  /// error, not a runtime condition.
  const SuffixMatcher& matcher() const {
    RLZ_CHECK(matcher_ != nullptr)
        << "dictionary has no suffix array (serving-only open; see "
           "OpenOptions::build_suffix_array)";
    return *matcher_;
  }

  /// Adds the match-key array to the matcher, which speeds up
  /// factorizing against this dictionary for 4 bytes per dictionary byte
  /// (SuffixMatcher::BuildMatchKeys, DESIGN.md §5.1). Does nothing
  /// without a matcher. Call it before the dictionary is shared.
  void BuildMatchKeys() {
    if (matcher_ != nullptr) matcher_->BuildMatchKeys();
  }

  /// On-disk format id inside the container envelope ("dict").
  static constexpr char kFormatId[] = "dict";
  /// The format version Save writes and the only one Load reads.
  static constexpr uint32_t kFormatVersion = 2;

  /// Serializes the dictionary text in a container envelope
  /// (store/format.h). The suffix array is derived data and is rebuilt
  /// on load.
  Status Save(const std::string& path) const;
  /// The complete container bytes Save would write (the durable store
  /// writes its append dictionary through its own FileSystem).
  std::string Serialize() const;
  /// Loads a dictionary written by Save and rebuilds its suffix array
  /// unless `build_suffix_array` is false. Anything but an intact
  /// envelope, bare text included, is Corruption.
  static StatusOr<std::unique_ptr<Dictionary>> Load(
      const std::string& path, bool build_suffix_array = true);
  /// As Load, from a parsed envelope; the text aliases the envelope's
  /// bytes, which the dictionary keeps alive (DESIGN.md §9).
  static StatusOr<std::unique_ptr<Dictionary>> FromEnvelope(
      const ParsedEnvelope& envelope, bool build_suffix_array = true);

 private:
  std::string text_;        // owned storage (empty when aliasing)
  std::string_view view_;   // the text: into text_ or the aliased owner
  std::shared_ptr<const void> owner_;  // keeps aliased bytes alive
  std::unique_ptr<SuffixMatcher> matcher_;
};

/// Dictionary construction strategies from §3.3 and §3.6 of the paper.
class DictionaryBuilder {
 public:
  /// §3.3: concatenates m/s samples of `sample_bytes` each, taken at evenly
  /// spaced positions across `collection`, for a total of ~`dict_bytes`.
  /// If the collection is smaller than `dict_bytes` the whole collection
  /// becomes the dictionary.
  static std::unique_ptr<Dictionary> BuildSampled(std::string_view collection,
                                                  size_t dict_bytes,
                                                  size_t sample_bytes);

  /// Table 10: samples only the first `prefix_fraction` of the collection
  /// (simulating a dictionary built before later documents arrived).
  static std::unique_ptr<Dictionary> BuildFromPrefix(
      std::string_view collection, double prefix_fraction, size_t dict_bytes,
      size_t sample_bytes);

  /// §3.6 ("if there is no constraint on memory"): extends `base` with
  /// evenly spaced samples of `new_data`, keeping the original text (and
  /// thus every already-encoded factor offset) intact, and rebuilds the
  /// suffix array. Old encodings stay valid; new documents factorize
  /// against the grown dictionary.
  static std::unique_ptr<Dictionary> AppendSamples(const Dictionary& base,
                                                   std::string_view new_data,
                                                   size_t add_bytes,
                                                   size_t sample_bytes);

  /// §6 (future work): removes dictionary intervals that `used` marks as
  /// never referenced by any factor, then refills the freed space with
  /// fresh samples taken at offset `refill_phase` (pass a different phase
  /// per pass for multi-pass pruning). `used` has one bit per dictionary
  /// byte — the exact coverage a tracked build produces (Factorizer's
  /// bitmap, or the merged RlzBuildInfo::coverage of a parallel build).
  /// Returns a dictionary of at most the original size.
  static std::unique_ptr<Dictionary> BuildPruned(
      std::string_view collection, const Dictionary& dict, const Bitmap& used,
      size_t sample_bytes, size_t refill_phase = 1);
};

}  // namespace rlz

#endif  // RLZ_CORE_DICTIONARY_H_
