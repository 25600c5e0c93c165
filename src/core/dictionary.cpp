#include "core/dictionary.h"

#include <algorithm>
#include <vector>

#include "io/file.h"
#include "store/format.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace rlz {

Dictionary::Dictionary(std::string text)
    : text_(std::move(text)), view_(text_) {}

Dictionary::Dictionary(std::string_view text,
                       std::shared_ptr<const void> owner)
    : view_(text), owner_(std::move(owner)) {}

const SuffixMatcher& Dictionary::matcher() const {
  std::call_once(matcher_once_, [this] {
    matcher_ = std::make_unique<SuffixMatcher>(view_);
    if (match_keys_) matcher_->BuildMatchKeys();
    matcher_built_.store(true, std::memory_order_release);
  });
  return *matcher_;
}

uint32_t Dictionary::crc() const {
  std::call_once(crc_once_, [this] { crc_ = Crc32(view_); });
  return crc_;
}

std::string Dictionary::Serialize() const {
  EnvelopeWriter writer(kFormatId, kFormatVersion);
  writer.PutBytes(view_);
  return std::move(writer).Seal();
}

Status Dictionary::Save(const std::string& path) const {
  return WriteFile(path, Serialize());
}

StatusOr<std::unique_ptr<Dictionary>> Dictionary::Load(
    const std::string& path) {
  RLZ_ASSIGN_OR_RETURN(ParsedEnvelope envelope, ReadEnvelopeFile(path));
  return FromEnvelope(envelope);
}

StatusOr<std::unique_ptr<Dictionary>> Dictionary::FromEnvelope(
    const ParsedEnvelope& envelope) {
  RLZ_RETURN_IF_ERROR(
      CheckEnvelopeFormat(envelope, kFormatId, kFormatVersion));
  // Zero-copy: the dictionary text aliases the loaded file bytes, which
  // the envelope's shared backing keeps alive (DESIGN.md §9).
  return std::make_unique<Dictionary>(envelope.body(), envelope.backing());
}

std::unique_ptr<Dictionary> DictionaryBuilder::BuildSampled(
    std::string_view collection, size_t dict_bytes, size_t sample_bytes) {
  RLZ_CHECK(sample_bytes > 0);
  if (collection.size() <= dict_bytes) {
    return std::make_unique<Dictionary>(std::string(collection));
  }
  const size_t num_samples = std::max<size_t>(1, dict_bytes / sample_bytes);
  std::string dict;
  dict.reserve(num_samples * sample_bytes);
  // Sample positions 0, n/k, 2n/k, ... — "evenly spaced intervals across
  // the collection" (§3.3). Double arithmetic avoids overflow on large n.
  const double stride =
      static_cast<double>(collection.size()) / static_cast<double>(num_samples);
  for (size_t i = 0; i < num_samples; ++i) {
    const size_t pos = static_cast<size_t>(stride * static_cast<double>(i));
    const size_t take = std::min(sample_bytes, collection.size() - pos);
    dict.append(collection.substr(pos, take));
  }
  return std::make_unique<Dictionary>(std::move(dict));
}

std::unique_ptr<Dictionary> DictionaryBuilder::BuildFromPrefix(
    std::string_view collection, double prefix_fraction, size_t dict_bytes,
    size_t sample_bytes) {
  RLZ_CHECK(prefix_fraction > 0.0 && prefix_fraction <= 1.0);
  const size_t prefix_len = std::max<size_t>(
      1, static_cast<size_t>(prefix_fraction *
                             static_cast<double>(collection.size())));
  return BuildSampled(collection.substr(0, prefix_len), dict_bytes,
                      sample_bytes);
}

std::unique_ptr<Dictionary> DictionaryBuilder::AppendSamples(
    const Dictionary& base, std::string_view new_data, size_t add_bytes,
    size_t sample_bytes) {
  std::unique_ptr<Dictionary> samples =
      BuildSampled(new_data, add_bytes, sample_bytes);
  std::string grown;
  grown.reserve(base.size() + samples->size());
  grown.append(base.text());
  grown.append(samples->text());
  return std::make_unique<Dictionary>(std::move(grown));
}

std::unique_ptr<Dictionary> DictionaryBuilder::BuildPruned(
    std::string_view collection, const Dictionary& dict, const Bitmap& used,
    size_t sample_bytes, size_t refill_phase) {
  RLZ_CHECK_EQ(used.size(), dict.size());
  // Keep only used runs of at least kMinKeepRun bytes; shorter used runs
  // are not worth their factor-position entropy.
  constexpr size_t kMinKeepRun = 16;
  std::string pruned;
  pruned.reserve(dict.size());
  size_t i = 0;
  const std::string_view text = dict.text();
  while (i < used.size()) {
    if (!used.Test(i)) {
      ++i;
      continue;
    }
    size_t j = i;
    while (j < used.size() && used.Test(j)) ++j;
    if (j - i >= kMinKeepRun) pruned.append(text.substr(i, j - i));
    i = j;
  }
  const size_t freed = dict.size() - pruned.size();
  if (freed > sample_bytes && collection.size() > dict.size()) {
    // Refill with fresh samples taken at positions offset by refill_phase
    // half-strides, so successive passes see different parts of the
    // collection.
    const size_t num_samples = freed / sample_bytes;
    if (num_samples > 0) {
      const double stride = static_cast<double>(collection.size()) /
                            static_cast<double>(num_samples);
      for (size_t s = 0; s < num_samples; ++s) {
        const double phase =
            stride * (static_cast<double>(refill_phase) / 2.0);
        const size_t pos = static_cast<size_t>(
                               stride * static_cast<double>(s) + phase) %
                           collection.size();
        const size_t take = std::min(sample_bytes, collection.size() - pos);
        pruned.append(collection.substr(pos, take));
      }
    }
  }
  return std::make_unique<Dictionary>(std::move(pruned));
}

}  // namespace rlz
