#include "zip/huffman.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <queue>

namespace rlz {
namespace {

constexpr int kRootBits = HuffmanDecoder::kRootBits;

// kReverseRoot[i] is i with its low kRootBits bits reversed.
constexpr std::array<uint16_t, 1 << kRootBits> BuildReverseRoot() {
  std::array<uint16_t, 1 << kRootBits> r{};
  for (uint32_t i = 0; i < r.size(); ++i) {
    uint32_t v = 0;
    for (int b = 0; b < kRootBits; ++b) {
      v |= ((i >> b) & 1) << (kRootBits - 1 - b);
    }
    r[i] = static_cast<uint16_t>(v);
  }
  return r;
}
constexpr std::array<uint16_t, 1 << kRootBits> kReverseRoot =
    BuildReverseRoot();

uint32_t ReverseBits(uint32_t v, int nbits) {
  uint32_t r = 0;
  for (int i = 0; i < nbits; ++i) {
    r = (r << 1) | (v & 1);
    v >>= 1;
  }
  return r;
}

}  // namespace

std::vector<uint8_t> BuildHuffmanCodeLengths(const std::vector<uint64_t>& freqs,
                                             int max_bits) {
  const size_t n = freqs.size();
  std::vector<uint8_t> lengths(n, 0);

  std::vector<size_t> used;
  for (size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) used.push_back(s);
  }
  if (used.empty()) return lengths;
  if (used.size() == 1) {
    lengths[used[0]] = 1;
    return lengths;
  }

  // Standard Huffman tree construction over the used symbols.
  struct Node {
    uint64_t freq;
    int32_t left;   // node index or -1
    int32_t right;  // node index, or symbol index when left == -1
  };
  std::vector<Node> nodes;
  nodes.reserve(2 * used.size());
  using QEntry = std::pair<uint64_t, int32_t>;  // (freq, node index)
  std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>> pq;
  for (size_t i = 0; i < used.size(); ++i) {
    nodes.push_back({freqs[used[i]], -1, static_cast<int32_t>(i)});
    pq.emplace(nodes.back().freq, static_cast<int32_t>(nodes.size() - 1));
  }
  while (pq.size() > 1) {
    const auto [fa, a] = pq.top();
    pq.pop();
    const auto [fb, b] = pq.top();
    pq.pop();
    nodes.push_back({fa + fb, a, b});
    pq.emplace(fa + fb, static_cast<int32_t>(nodes.size() - 1));
  }

  // Depth-first traversal to collect raw depths per used symbol.
  std::vector<int> depth(used.size(), 0);
  {
    std::vector<std::pair<int32_t, int>> stack;  // (node, depth)
    stack.emplace_back(static_cast<int32_t>(nodes.size() - 1), 0);
    while (!stack.empty()) {
      const auto [idx, d] = stack.back();
      stack.pop_back();
      const Node& nd = nodes[idx];
      if (nd.left == -1) {
        depth[nd.right] = std::max(d, 1);
      } else {
        stack.emplace_back(nd.left, d + 1);
        stack.emplace_back(nd.right, d + 1);
      }
    }
  }

  // Histogram of code lengths, clamped to max_bits.
  std::vector<int> num_codes(max_bits + 1, 0);
  for (int d : depth) ++num_codes[std::min(d, max_bits)];

  // Kraft repair (the miniz "enforce max code size" pass): while the
  // scaled Kraft sum exceeds 2^max_bits, demote one max-length code by
  // splitting a shorter one.
  uint64_t total = 0;
  for (int i = 1; i <= max_bits; ++i) {
    total += static_cast<uint64_t>(num_codes[i]) << (max_bits - i);
  }
  while (total > (1ULL << max_bits)) {
    RLZ_CHECK(num_codes[max_bits] > 0);
    --num_codes[max_bits];
    for (int i = max_bits - 1; i >= 1; --i) {
      if (num_codes[i] > 0) {
        --num_codes[i];
        num_codes[i + 1] += 2;
        break;
      }
    }
    --total;
  }

  // Assign lengths: most frequent symbol gets the shortest length.
  std::vector<size_t> order(used.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return freqs[used[a]] > freqs[used[b]];
  });
  size_t k = 0;
  for (int len = 1; len <= max_bits; ++len) {
    for (int c = 0; c < num_codes[len]; ++c) {
      RLZ_CHECK_LT(k, order.size());
      lengths[used[order[k++]]] = static_cast<uint8_t>(len);
    }
  }
  RLZ_CHECK_EQ(k, order.size());
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<uint8_t>& lengths)
    : lengths_(lengths) {
  const size_t n = lengths.size();
  codes_.assign(n, 0);
  // Canonical code assignment: codes of equal length are consecutive,
  // ordered by symbol.
  std::vector<int> count(kMaxHuffmanBits + 1, 0);
  for (uint8_t l : lengths) {
    if (l > 0) ++count[l];
  }
  std::vector<uint32_t> next(kMaxHuffmanBits + 2, 0);
  uint32_t code = 0;
  for (int l = 1; l <= kMaxHuffmanBits; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  for (size_t s = 0; s < n; ++s) {
    if (lengths[s] == 0) continue;
    codes_[s] =
        static_cast<uint16_t>(ReverseBits(next[lengths[s]]++, lengths[s]));
  }
}

Status HuffmanDecoder::Init(const std::vector<uint8_t>& lengths) {
  RLZ_CHECK_LE(lengths.size(), size_t{1} << 16);  // symbols fit sorted_
  uint32_t count[kMaxHuffmanBits + 1] = {};
  for (uint8_t l : lengths) {
    if (l > kMaxHuffmanBits) {
      return Status::Corruption("huffman: code length too large");
    }
    ++count[l];
  }
  count[0] = 0;
  max_len_ = kMaxHuffmanBits;
  while (max_len_ > 0 && count[max_len_] == 0) --max_len_;
  if (max_len_ == 0) {
    return Status::Corruption("huffman: no symbols");
  }

  // Canonical first codes and counting-sort offsets per length. A length
  // whose codes run past 2^len has a Kraft sum above 1.
  uint32_t code = 0;
  uint32_t offset = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code + count[l - 1]) << 1;
    if (code + count[l] > (1U << l)) {
      return Status::Corruption("huffman: over-subscribed code");
    }
    first_code_[l] = code;
    code_count_[l] = count[l];
    sorted_offset_[l] = offset;
    offset += count[l];
  }

  // Counting sort: symbols by code length, ties by symbol — canonical
  // order.
  sorted_.resize(offset);
  uint32_t next[kMaxHuffmanBits + 1];
  std::copy(sorted_offset_, sorted_offset_ + kMaxHuffmanBits + 1, next);
  for (size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s] != 0) {
      sorted_[next[lengths[s]]++] = static_cast<uint16_t>(s);
    }
  }

  // Root-table fill in canonical order, as libdeflate builds its tables:
  // at length `len` the table prefix [0, 2^len) is final for every code
  // of at most len bits, and doubling it extends those entries to len + 1
  // bits. The stream is LSB-first, so a code's entry sits at its
  // bit-reversed value; reversing through kReverseRoot keeps the per-code
  // increment a plain add (an in-place increment of the reversed codeword
  // chains a bit scan through every symbol, which measured 1.5x slower).
  // The two initial entries start invalid, so windows no code covers (an
  // under-full code, or prefixes of codes longer than the root) stay
  // invalid through the copies; a complete code overwrites them. The
  // table always has 2^kRootBits entries, so decode loops mask with a
  // constant.
  table_.resize(size_t{1} << kRootBits);
  uint32_t* const table = table_.data();
  table[0] = table[1] = kInvalidEntry;
  const uint16_t* sym = sorted_.data();
  uint32_t end = 2;  // 2^len
  for (int len = 1;; ++len) {
    // Canonical codes of this length, left-aligned to kRootBits bits.
    uint32_t code = first_code_[len] << (kRootBits - len);
    const uint32_t step = 1U << (kRootBits - len);
    for (uint32_t i = 0; i < count[len]; ++i, code += step) {
      table[kReverseRoot[code]] =
          (static_cast<uint32_t>(*sym++) << 8) | static_cast<uint32_t>(len);
    }
    if (len == kRootBits) break;
    std::memcpy(table + end, table, end * sizeof(uint32_t));
    end <<= 1;
  }
  return Status::OK();
}

uint32_t HuffmanDecoder::LookupSlow(uint64_t bits) const {
  // The first bit of the stream is the canonical code's most significant
  // bit, so the code grows one stream bit at a time from the left.
  uint32_t code = 0;
  for (int l = 1; l <= max_len_; ++l) {
    code = (code << 1) | static_cast<uint32_t>((bits >> (l - 1)) & 1);
    if (code - first_code_[l] < code_count_[l]) {
      return (static_cast<uint32_t>(
                  sorted_[sorted_offset_[l] + (code - first_code_[l])])
              << 8) |
             static_cast<uint32_t>(l);
    }
  }
  return kInvalidEntry;
}

}  // namespace rlz
