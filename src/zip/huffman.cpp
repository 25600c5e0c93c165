#include "zip/huffman.h"

#include <algorithm>
#include <array>
#include <cstring>

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

// kReverseByte[b] is b with its 8 bits reversed.
constexpr std::array<uint8_t, 256> BuildReverseByte() {
  std::array<uint8_t, 256> r{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t v = 0;
    for (int b = 0; b < 8; ++b) v |= ((i >> b) & 1) << (7 - b);
    r[i] = static_cast<uint8_t>(v);
  }
  return r;
}
constexpr std::array<uint8_t, 256> kReverseByte = BuildReverseByte();

// The low `nbits` (at most 16) bits of v, reversed.
uint32_t ReverseBits(uint32_t v, int nbits) {
  const uint32_t r16 = (static_cast<uint32_t>(kReverseByte[v & 0xFF]) << 8) |
                       kReverseByte[(v >> 8) & 0xFF];
  return r16 >> (16 - nbits);
}

// Sorts the leaf ids 0..m-1 (m >= 2) by (weight, id) into `leaves`: an
// LSD radix sort of (weight << id_bits | id) keys, one 8-bit digit per
// pass up to the largest key's top byte, so no pass branches on a
// comparison: a gzipx block builds two codes, and comparison sorts of
// its ~286 leaves mispredicted on frequencies enough to dominate the
// build (EXPERIMENTS.md "Seal CPU"). `keys` holds 2m entries. A weight
// too large to leave room for the id falls back to a comparison sort.
void SortLeaves(const uint64_t* weight, size_t m, uint32_t* leaves,
                uint64_t* keys) {
  int id_bits = 1;
  while ((size_t{1} << id_bits) < m) ++id_bits;
  const uint64_t max_weight = *std::max_element(weight, weight + m);
  if ((max_weight >> (64 - id_bits)) != 0) {
    for (size_t i = 0; i < m; ++i) leaves[i] = static_cast<uint32_t>(i);
    std::sort(leaves, leaves + m, [&](uint32_t a, uint32_t b) {
      return weight[a] != weight[b] ? weight[a] < weight[b] : a < b;
    });
    return;
  }
  uint64_t* from = keys;
  uint64_t* to = keys + m;
  for (size_t i = 0; i < m; ++i) from[i] = (weight[i] << id_bits) | i;
  const uint64_t max_key = (max_weight << id_bits) | (m - 1);
  for (int shift = 0; shift < 64 && (max_key >> shift) != 0; shift += 8) {
    size_t start[257] = {};
    for (size_t i = 0; i < m; ++i) ++start[((from[i] >> shift) & 0xFF) + 1];
    for (int d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (size_t i = 0; i < m; ++i) {
      to[start[(from[i] >> shift) & 0xFF]++] = from[i];
    }
    std::swap(from, to);
  }
  const uint64_t id_mask = (uint64_t{1} << id_bits) - 1;
  for (size_t i = 0; i < m; ++i) {
    leaves[i] = static_cast<uint32_t>(from[i] & id_mask);
  }
}

}  // namespace

void BuildHuffmanCodeLengths(const uint64_t* freqs, size_t n,
                             uint8_t* lengths, int max_bits) {
  RLZ_CHECK_LE(n, kMaxHuffmanSymbols);
  uint32_t used[kMaxHuffmanSymbols];
  uint32_t leaves[kMaxHuffmanSymbols];
  uint64_t keys[2 * kMaxHuffmanSymbols];
  uint64_t weight[2 * kMaxHuffmanSymbols];
  uint32_t parent[2 * kMaxHuffmanSymbols];
  std::fill(lengths, lengths + n, 0);
  size_t m = 0;
  for (size_t s = 0; s < n; ++s) {
    if (freqs[s] > 0) used[m++] = static_cast<uint32_t>(s);
  }
  if (m == 0) return;
  if (m == 1) {
    lengths[used[0]] = 1;
    return;
  }

  // Huffman tree by the two-queue construction. Node ids: the leaves
  // are 0..m-1 in `used` order, internal nodes m..2m-2 in creation order.
  // Leaves are taken in (freq, id) order; internal nodes are created in
  // non-decreasing weight order, so their queue is already sorted. On a
  // tie the leaf goes first, as its id is smaller: nodes leave the two
  // queues in the (freq, id) order of a min-heap over all nodes, so the
  // tree and every code length match a heap construction's.
  for (size_t i = 0; i < m; ++i) weight[i] = freqs[used[i]];
  SortLeaves(weight, m, leaves, keys);
  size_t next_leaf = 0;
  size_t next_node = m;
  for (size_t node = m; node < 2 * m - 1; ++node) {
    uint32_t child[2];
    for (uint32_t& c : child) {
      const bool leaf_first =
          next_leaf < m && (next_node == node ||
                            weight[leaves[next_leaf]] <= weight[next_node]);
      if (leaf_first) {
        c = leaves[next_leaf++];
      } else {
        c = static_cast<uint32_t>(next_node++);
      }
    }
    weight[node] = weight[child[0]] + weight[child[1]];
    parent[child[0]] = parent[child[1]] = static_cast<uint32_t>(node);
  }

  // Depths top-down: a parent's id exceeds its children's, so walking
  // ids downwards overwrites each parent link with its node's depth
  // after the parent's own depth is final.
  parent[2 * m - 2] = 0;
  for (size_t i = 2 * m - 2; i-- > 0;) parent[i] = parent[parent[i]] + 1;

  // Histogram of code lengths, clamped to max_bits.
  int num_codes[kMaxHuffmanBits + 1] = {};
  for (size_t i = 0; i < m; ++i) {
    ++num_codes[std::min(static_cast<int>(parent[i]), max_bits)];
  }

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

  // Assign lengths: most frequent symbol gets the shortest length, ties
  // to the lower symbol. That order is `leaves` backwards, except that
  // each run of equal weights keeps its ascending ids.
  int len = 1;
  int left = num_codes[1];
  size_t hi = m;
  while (hi > 0) {
    size_t lo = hi - 1;
    while (lo > 0 && weight[leaves[lo - 1]] == weight[leaves[hi - 1]]) --lo;
    for (size_t k = lo; k < hi; ++k) {
      while (left == 0) {
        RLZ_CHECK_LT(len, max_bits);
        left = num_codes[++len];
      }
      lengths[used[leaves[k]]] = static_cast<uint8_t>(len);
      --left;
    }
    hi = lo;
  }
}

void CanonicalHuffmanCodes(const uint8_t* lengths, size_t n,
                           uint16_t* codes) {
  // Canonical code assignment: codes of equal length are consecutive,
  // ordered by symbol.
  uint32_t count[kMaxHuffmanBits + 1] = {};
  for (size_t s = 0; s < n; ++s) ++count[lengths[s]];
  count[0] = 0;
  uint32_t next[kMaxHuffmanBits + 1] = {};
  uint32_t code = 0;
  for (int l = 1; l <= kMaxHuffmanBits; ++l) {
    code = (code + count[l - 1]) << 1;
    next[l] = code;
  }
  for (size_t s = 0; s < n; ++s) {
    const int len = lengths[s];
    codes[s] = len == 0 ? 0
                        : static_cast<uint16_t>(ReverseBits(next[len]++, len));
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
