#ifndef RLZ_CORPUS_COLLECTION_H_
#define RLZ_CORPUS_COLLECTION_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace rlz {

/// A document collection: the concatenated document bytes plus document
/// boundaries. This is the unit every compressor in the repository consumes
/// (the paper treats a collection as "a single string" with document
/// boundaries, §3.3).
class Collection {
 public:
  Collection() { offsets_.push_back(0); }

  /// Appends one document.
  void Append(std::string_view doc) {
    data_.append(doc);
    offsets_.push_back(data_.size());
  }

  size_t num_docs() const { return offsets_.size() - 1; }
  size_t size_bytes() const { return data_.size(); }

  /// The whole collection as a single string (dictionary sampling input).
  std::string_view data() const { return data_; }

  /// Document `i` (0-based). i must be < num_docs().
  std::string_view doc(size_t i) const {
    RLZ_CHECK_LT(i, num_docs());
    return std::string_view(data_).substr(offsets_[i],
                                          offsets_[i + 1] - offsets_[i]);
  }

  uint64_t doc_offset(size_t i) const { return offsets_[i]; }
  uint64_t doc_size(size_t i) const { return offsets_[i + 1] - offsets_[i]; }

  /// Average document size in bytes (0 if empty).
  double avg_doc_bytes() const {
    return num_docs() == 0
               ? 0.0
               : static_cast<double>(size_bytes()) / num_docs();
  }

  /// Serializes to a container envelope (store/format.h): per-doc sizes
  /// then the raw data, CRC-protected.
  Status Save(const std::string& path) const;
  /// Loads a collection written by Save. Returns Corruption for anything
  /// but an intact envelope, InvalidArgument for another format id or
  /// version.
  static StatusOr<Collection> Load(const std::string& path);

  /// Reserves capacity to avoid reallocation while generating.
  void Reserve(size_t bytes, size_t docs) {
    data_.reserve(bytes);
    offsets_.reserve(docs + 1);
  }

 private:
  std::string data_;
  std::vector<uint64_t> offsets_;  // num_docs()+1 entries; [0] == 0
};

}  // namespace rlz

#endif  // RLZ_CORPUS_COLLECTION_H_
