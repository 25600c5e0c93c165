#include "zip/gzipx.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

#include "codecs/int_codecs.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "zip/huffman.h"

namespace rlz {
namespace {

constexpr uint8_t kMagic = 0xC7;
constexpr int kHashBits = 16;
constexpr uint32_t kHashMul = 2654435761U;
constexpr size_t kTokensPerBlock = 1 << 15;

constexpr int kNumLitLen = 286;  // 0..255 literals, 256 unused, 257..285 len
constexpr int kNumDist = 30;
// Bytes of 4-bit code lengths at the start of every Huffman block.
constexpr uint32_t kCodeLengthBytes = (kNumLitLen + kNumDist) / 2;

// Deflate length slot tables (symbol 257 + i).
constexpr std::array<int, 29> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10,  11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<int, 29> kLenExtra = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                           1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                           4, 4, 4, 4, 5, 5, 5, 5, 0};

// Deflate distance slot tables.
constexpr std::array<int, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,    25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,   769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<int, 30> kDistExtra = {0, 0, 0,  0,  1,  1,  2,  2,  3, 3,
                                            4, 4, 5,  5,  6,  6,  7,  7,  8, 8,
                                            9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

// Slot of every match length (index = length, 3..258) and of every
// distance through two ranges: distances 1..256 index the first 256
// entries directly (dist - 1), longer ones by (dist - 1) >> 7 past them
// (zlib's _dist_code layout). Both replace a per-match slot search.
struct SlotTables {
  std::array<uint8_t, GzipxCompressor::kMaxMatch + 1> length{};
  std::array<uint8_t, 512> dist{};
};

constexpr SlotTables MakeSlotTables() {
  SlotTables tables;
  for (int len = GzipxCompressor::kMinMatch; len <= GzipxCompressor::kMaxMatch;
       ++len) {
    int slot = 28;
    while (len < kLenBase[slot]) --slot;
    tables.length[len] = static_cast<uint8_t>(slot);
  }
  for (int slot = 0; slot < 30; ++slot) {
    const int first = kDistBase[slot];
    const int last = first + (1 << kDistExtra[slot]) - 1;
    for (int dist = first; dist <= last; ++dist) {
      if (dist <= 256) {
        tables.dist[dist - 1] = static_cast<uint8_t>(slot);
      } else {
        tables.dist[256 + ((dist - 1) >> 7)] = static_cast<uint8_t>(slot);
      }
    }
  }
  return tables;
}

constexpr SlotTables kSlots = MakeSlotTables();

int LengthSlot(int len) {
  RLZ_DCHECK(len >= GzipxCompressor::kMinMatch &&
             len <= GzipxCompressor::kMaxMatch);
  return kSlots.length[len];
}

int DistSlot(int dist) {
  RLZ_DCHECK(dist >= 1 && dist <= GzipxCompressor::kWindowSize);
  return kSlots.dist[dist <= 256 ? dist - 1 : 256 + ((dist - 1) >> 7)];
}

struct Token {
  uint16_t len_or_lit;  // literal byte if dist == 0, else match length
  uint16_t dist;        // 0 for literal; match distance otherwise... 16 bits
                        // cannot hold 32768, so store dist - 1.
};

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "LoadLe64, StoreLe64 and MatchLength assume little-endian "
              "words");

// Little-endian 64-bit load: one unaligned load.
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

uint32_t HashAt(const uint8_t* p) {
  const uint32_t v = static_cast<uint32_t>(p[0]) |
                     (static_cast<uint32_t>(p[1]) << 8) |
                     (static_cast<uint32_t>(p[2]) << 16) |
                     (static_cast<uint32_t>(p[3]) << 24);
  return (v * kHashMul) >> (32 - kHashBits);
}

// Length of the common prefix of a and b, at most `max_len`. Compares 8
// bytes per step: the lowest set byte of the XOR of two little-endian
// words is the first mismatch.
size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t max_len) {
  size_t l = 0;
  while (l + 8 <= max_len) {
    uint64_t x;
    uint64_t y;
    std::memcpy(&x, a + l, 8);
    std::memcpy(&y, b + l, 8);
    const uint64_t diff = x ^ y;
    if (diff != 0) return l + (__builtin_ctzll(diff) >> 3);
    l += 8;
  }
  while (l < max_len && a[l] == b[l]) ++l;
  return l;
}

// Compress's per-thread working memory, kept across calls. The head
// table holds absolute positions: a call's input starts at `base`, so an
// entry below it is from an earlier call and reads as empty, and a call
// never refills the 256 KB table. It is cleared only when the next call's
// positions would pass 2^32. The chain links in `prev` are positions
// within the call (-1 ends a chain), written before they are read.
struct CompressState {
  std::vector<uint32_t> head = std::vector<uint32_t>(1 << kHashBits, 0);
  std::vector<int32_t> prev;
  uint32_t base = 1;  // above every head entry; 0 is never a position
  std::vector<Token> tokens;
  std::vector<uint8_t> block;
};

CompressState& ThreadCompressState() {
  thread_local CompressState state;
  return state;
}

// Chains and tokens above this many elements are released after the
// call, so one huge input does not pin its memory for the thread's life.
// (The block buffer is bounded by kTokensPerBlock.)
constexpr size_t kKeepElements = size_t{1} << 18;

// LZ77 tokenizer with hash chains and optional one-step lazy matching.
void Tokenize(std::string_view in, const GzipxOptions& options,
              CompressState* state) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(in.data());
  const size_t n = in.size();
  std::vector<Token>* tokens = &state->tokens;
  tokens->clear();
  tokens->reserve(n / 4);

  RLZ_CHECK_LT(n, size_t{UINT32_MAX});
  if (n > UINT32_MAX - state->base) {
    std::fill(state->head.begin(), state->head.end(), 0);
    state->base = 1;
  }
  const uint32_t base = state->base;
  state->base += static_cast<uint32_t>(n);
  uint32_t* const head = state->head.data();
  if (state->prev.size() < n) state->prev.resize(n);
  int32_t* const prev = state->prev.data();
  // The call-relative position a head entry names, or -1 for one from an
  // earlier call. Chain walks then follow `prev` with no base arithmetic.
  auto relative = [base](uint32_t entry) {
    return entry >= base ? static_cast<int32_t>(entry - base) : -1;
  };

  auto insert = [&](size_t pos) {
    if (pos + 4 > n) return;
    const uint32_t h = HashAt(data + pos);
    prev[pos] = relative(head[h]);
    head[h] = base + static_cast<uint32_t>(pos);
  };

  auto find_match = [&](size_t pos) -> std::pair<int, int> {
    // Returns (len, dist); len < kMinMatch means none.
    if (pos + 4 > n) return {0, 0};
    const uint32_t h = HashAt(data + pos);
    int32_t cand = relative(head[h]);
    const size_t max_len = std::min<size_t>(GzipxCompressor::kMaxMatch,
                                            n - pos);
    int best_len = 0;
    int best_dist = 0;
    int chain = options.max_chain;
    while (cand >= 0 && chain-- > 0) {
      const size_t dist = pos - static_cast<size_t>(cand);
      if (dist > GzipxCompressor::kWindowSize) break;
      // Quick reject: check the byte one past the current best.
      if (best_len > 0 &&
          data[cand + best_len] != data[pos + best_len]) {
        cand = prev[cand];
        continue;
      }
      const size_t l = MatchLength(data + cand, data + pos, max_len);
      if (static_cast<int>(l) > best_len) {
        best_len = static_cast<int>(l);
        best_dist = static_cast<int>(dist);
        if (best_len >= options.nice_length ||
            l == max_len) {
          break;
        }
      }
      cand = prev[cand];
    }
    return {best_len, best_dist};
  };

  size_t pos = 0;
  while (pos < n) {
    auto [len, dist] = find_match(pos);
    if (len >= GzipxCompressor::kMinMatch && options.lazy && pos + 1 < n) {
      // One-step lazy evaluation: if the next position has a strictly
      // longer match, emit a literal here instead.
      insert(pos);
      auto [len2, dist2] = find_match(pos + 1);
      if (len2 > len) {
        tokens->push_back({static_cast<uint16_t>(data[pos]), 0});
        ++pos;
        len = len2;
        dist = dist2;
      }
      tokens->push_back({static_cast<uint16_t>(len),
                         static_cast<uint16_t>(dist)});
      // Insert hash entries for the covered positions (pos itself was
      // already inserted above).
      for (size_t k = 1; k < static_cast<size_t>(len); ++k) {
        insert(pos + k);
      }
      pos += len;
    } else if (len >= GzipxCompressor::kMinMatch) {
      tokens->push_back({static_cast<uint16_t>(len),
                         static_cast<uint16_t>(dist)});
      for (size_t k = 0; k < static_cast<size_t>(len); ++k) {
        insert(pos + k);
      }
      pos += len;
    } else {
      insert(pos);
      tokens->push_back({static_cast<uint16_t>(data[pos]), 0});
      ++pos;
    }
  }
}

// Little-endian 64-bit store, the mirror of LoadLe64.
inline void StoreLe64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }

// LSB-first bit writer over a pre-sized buffer that stores whole 64-bit
// words: Put only ORs bits into the accumulator, and Flush stores all 8
// bytes of it and advances past the complete ones, so a token costs one
// store instead of a push_back per byte. The buffer needs 8 bytes of
// slack past the last byte written. Bit-for-bit the output of BitWriter.
class WordBitWriter {
 public:
  explicit WordBitWriter(uint8_t* out) : begin_(out), out_(out) {}

  // Adds the low `nbits` bits of `bits`; at most 56 bits between flushes.
  void Put(uint64_t bits, int nbits) {
    RLZ_DCHECK(nbits >= 0 && filled_ + nbits <= 63);
    RLZ_DCHECK((bits >> nbits) == 0);
    acc_ |= bits << filled_;
    filled_ += nbits;
  }

  void Flush() {
    StoreLe64(out_, acc_);
    out_ += filled_ >> 3;
    acc_ >>= filled_ & ~7;
    filled_ &= 7;
  }

  // Flushes and returns the bytes written, the last one zero-padded.
  size_t Finish() {
    Flush();
    return static_cast<size_t>(out_ - begin_) + (filled_ > 0 ? 1 : 0);
  }

 private:
  uint8_t* const begin_;
  uint8_t* out_;
  uint64_t acc_ = 0;
  int filled_ = 0;  // valid bits in acc_, below 8 after a Flush
};

// Huffman-codes tokens [begin, end) as one block into `buf` (code
// lengths, then symbol bits) and returns its size. `buf` holds at least
// MaxBlockBytes(end - begin) bytes.
size_t EncodeBlock(const Token* begin, const Token* end, uint8_t* buf) {
  uint64_t lit_freq[kNumLitLen] = {};
  uint64_t dist_freq[kNumDist] = {};
  for (const Token* tk = begin; tk != end; ++tk) {
    if (tk->dist == 0) {
      ++lit_freq[tk->len_or_lit];
    } else {
      ++lit_freq[257 + LengthSlot(tk->len_or_lit)];
      ++dist_freq[DistSlot(tk->dist)];
    }
  }
  uint8_t lit_lens[kNumLitLen];
  uint8_t dist_lens[kNumDist];
  BuildHuffmanCodeLengths(lit_freq, kNumLitLen, lit_lens);
  BuildHuffmanCodeLengths(dist_freq, kNumDist, dist_lens);
  // The decoder requires at least one distance symbol to build a table;
  // pad with a dummy if the block is all literals.
  if (std::all_of(dist_lens, dist_lens + kNumDist,
                  [](uint8_t l) { return l == 0; })) {
    dist_lens[0] = 1;
  }
  uint16_t lit_codes[kNumLitLen];
  uint16_t dist_codes[kNumDist];
  CanonicalHuffmanCodes(lit_lens, kNumLitLen, lit_codes);
  CanonicalHuffmanCodes(dist_lens, kNumDist, dist_codes);

  // The 316 4-bit code lengths, two per byte, low nibble first.
  uint8_t* p = buf;
  for (int i = 0; i < kNumLitLen; i += 2) {
    *p++ = static_cast<uint8_t>(lit_lens[i] | (lit_lens[i + 1] << 4));
  }
  for (int i = 0; i < kNumDist; i += 2) {
    *p++ = static_cast<uint8_t>(dist_lens[i] | (dist_lens[i + 1] << 4));
  }

  // Every match length's code and extra bits as one field, so a match
  // is two Puts: length (<= 15 + 5 bits), distance (<= 15 + 13).
  std::array<uint32_t, GzipxCompressor::kMaxMatch + 1> len_bits{};
  std::array<uint8_t, GzipxCompressor::kMaxMatch + 1> len_nbits{};
  for (int len = GzipxCompressor::kMinMatch;
       len <= GzipxCompressor::kMaxMatch; ++len) {
    const int ls = LengthSlot(len);
    const uint32_t sym = 257 + static_cast<uint32_t>(ls);
    if (lit_lens[sym] == 0) continue;  // no match of this slot
    len_bits[len] = lit_codes[sym] |
                    (static_cast<uint32_t>(len - kLenBase[ls])
                     << lit_lens[sym]);
    len_nbits[len] = static_cast<uint8_t>(lit_lens[sym] + kLenExtra[ls]);
  }

  WordBitWriter w(p);
  for (const Token* tk = begin; tk != end; ++tk) {
    if (tk->dist == 0) {
      w.Put(lit_codes[tk->len_or_lit], lit_lens[tk->len_or_lit]);
    } else {
      w.Put(len_bits[tk->len_or_lit], len_nbits[tk->len_or_lit]);
      const int ds = DistSlot(tk->dist);
      w.Put(dist_codes[ds] |
                (static_cast<uint32_t>(tk->dist - kDistBase[ds])
                 << dist_lens[ds]),
            dist_lens[ds] + kDistExtra[ds]);
    }
    w.Flush();
  }
  return static_cast<size_t>(p - buf) + w.Finish();
}

// Bytes EncodeBlock may touch for a block of `num_tokens` tokens: the
// code lengths, at most 48 bits per token, and the writer's 8-byte slack.
size_t MaxBlockBytes(size_t num_tokens) {
  return kCodeLengthBytes + 6 * num_tokens + 8;
}

// Decodes one Huffman block's `num_tokens` tokens from the symbol bits in
// [next, end) into base[*produced, total), advancing *produced. Returns
// Corruption on a bad symbol, a distance before the stream start, or a
// write past `total`.
//
// The loop keeps its bit buffer, output cursor and table pointers in
// locals: the output is written through a char pointer, and a char store
// may alias any object, so state read through a reader object or the
// decoders would be reloaded after every output byte.
Status InflateTokens(const uint8_t* next, const uint8_t* const end,
                     uint32_t num_tokens, const HuffmanDecoder& lit,
                     const HuffmanDecoder& dist, char* const base,
                     size_t total, size_t* produced) {
  constexpr uint32_t kRootMask = (1U << HuffmanDecoder::kRootBits) - 1;
  const uint32_t* const lit_table = lit.root_table();
  const uint32_t* const dist_table = dist.root_table();
  char* out = base + *produced;
  char* const out_end = base + total;
  uint64_t bitbuf = 0;  // LSB-first
  int bitcount = 0;     // valid bits in bitbuf
  // Tops bitbuf up to at least 56 bits. Away from the block end this is
  // one 8-byte load; bits above bitcount then already hold the next
  // bytes, which the next load ORs in again at the same place. Past the
  // end it shifts in zero bytes. Reading into that padding while decoding
  // the final symbols is benign: the token count bounds decoding and the
  // trailing CRC catches real truncation.
  auto refill = [&] {
    if (end - next >= 8) {
      bitbuf |= LoadLe64(next) << bitcount;
      next += (63 - bitcount) >> 3;
      bitcount |= 56;
    } else {
      for (; bitcount <= 56; bitcount += 8) {
        if (next < end) bitbuf |= static_cast<uint64_t>(*next++) << bitcount;
      }
    }
  };
  auto consume = [&](int nbits) {
    bitbuf >>= nbits;
    bitcount -= nbits;
  };
  auto lookup_lit = [&](uint64_t bits) {
    const uint32_t e = lit_table[bits & kRootMask];
    return e != HuffmanDecoder::kInvalidEntry ? e : lit.LookupSlow(bits);
  };

  while (num_tokens > 0) {
    // One refill covers a whole token: literal/length code (<= 15) +
    // length extra (<= 5) + distance code (<= 15) + distance extra
    // (<= 13) = 48 bits, or three literals (3 x 15 = 45 bits).
    refill();
    uint32_t e = lookup_lit(bitbuf);
    if (HuffmanDecoder::EntrySymbol(e) < 256) {
      // Literal fast path: up to three literals off this refill. An
      // invalid entry's symbol is above any literal.
      int run = 0;
      do {
        if (out == out_end) {
          return Status::Corruption("gzipx: output overrun");
        }
        consume(HuffmanDecoder::EntryLength(e));
        *out++ = static_cast<char>(HuffmanDecoder::EntrySymbol(e));
        if (--num_tokens == 0 || ++run == 3) break;
        e = lookup_lit(bitbuf);
      } while (HuffmanDecoder::EntrySymbol(e) < 256);
      continue;
    }
    const uint32_t sym = HuffmanDecoder::EntrySymbol(e);
    if (e == HuffmanDecoder::kInvalidEntry || sym == 256 ||
        sym >= kNumLitLen) {
      return Status::Corruption("gzipx: bad literal/length symbol");
    }
    consume(HuffmanDecoder::EntryLength(e));
    const int ls = static_cast<int>(sym) - 257;
    const size_t len =
        kLenBase[ls] +
        static_cast<size_t>(bitbuf & ((1U << kLenExtra[ls]) - 1));
    consume(kLenExtra[ls]);
    uint32_t de = dist_table[bitbuf & kRootMask];
    if (de == HuffmanDecoder::kInvalidEntry) de = dist.LookupSlow(bitbuf);
    const uint32_t dsym = HuffmanDecoder::EntrySymbol(de);
    if (de == HuffmanDecoder::kInvalidEntry || dsym >= kNumDist) {
      return Status::Corruption("gzipx: bad distance symbol");
    }
    consume(HuffmanDecoder::EntryLength(de));
    const size_t distance =
        kDistBase[dsym] +
        static_cast<size_t>(bitbuf & ((1U << kDistExtra[dsym]) - 1));
    consume(kDistExtra[dsym]);
    --num_tokens;
    if (distance > static_cast<size_t>(out - base)) {
      return Status::Corruption("gzipx: distance before stream start");
    }
    if (len > static_cast<size_t>(out_end - out)) {
      return Status::Corruption("gzipx: output overrun");
    }
    // Overlap-aware copy: a distance at least the length is a plain
    // memcpy; distance 1 is a byte run; short distances replay bytes.
    const char* src = out - distance;
    if (distance >= len) {
      std::memcpy(out, src, len);
    } else if (distance == 1) {
      std::memset(out, *src, len);
    } else {
      for (size_t k = 0; k < len; ++k) out[k] = src[k];
    }
    out += len;
  }
  *produced = static_cast<size_t>(out - base);
  return Status::OK();
}

}  // namespace

GzipxCompressor::GzipxCompressor(GzipxOptions options) : options_(options) {}

void GzipxCompressor::Compress(std::string_view in, std::string* out) const {
  out->push_back(static_cast<char>(kMagic));
  VByteCodec::Put(static_cast<uint32_t>(in.size()), out);

  CompressState& state = ThreadCompressState();
  Tokenize(in, options_, &state);
  const std::vector<Token>& tokens = state.tokens;
  std::vector<uint8_t>& block = state.block;
  block.resize(MaxBlockBytes(std::min(tokens.size(), kTokensPerBlock)));

  size_t tok_i = 0;
  size_t in_off = 0;
  while (tok_i < tokens.size()) {
    const size_t tok_end = std::min(tokens.size(), tok_i + kTokensPerBlock);
    // Uncompressed span covered by this token chunk.
    size_t span = 0;
    for (size_t t = tok_i; t < tok_end; ++t) {
      span += tokens[t].dist == 0 ? 1 : tokens[t].len_or_lit;
    }

    // Huffman-encode the chunk into the scratch buffer.
    const size_t block_size =
        EncodeBlock(tokens.data() + tok_i, tokens.data() + tok_end,
                    block.data());

    // Stored fallback for incompressible chunks.
    VByteCodec::Put(static_cast<uint32_t>(span), out);
    VByteCodec::Put(static_cast<uint32_t>(tok_end - tok_i), out);
    if (block_size >= span) {
      out->push_back(1);  // stored
      out->append(in.substr(in_off, span));
    } else {
      out->push_back(0);  // huffman
      VByteCodec::Put(static_cast<uint32_t>(block_size), out);
      out->append(reinterpret_cast<const char*>(block.data()), block_size);
    }
    in_off += span;
    tok_i = tok_end;
  }
  if (state.prev.size() > kKeepElements) {
    std::vector<int32_t>().swap(state.prev);
  }
  if (state.tokens.capacity() > kKeepElements) {
    std::vector<Token>().swap(state.tokens);
  }

  const uint32_t crc = Crc32(in);
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
}

Status GzipxCompressor::Decompress(std::string_view in, std::string* out,
                                   GzipxDecodeScratch* scratch) const {
  size_t pos = 0;
  if (in.empty() || static_cast<uint8_t>(in[0]) != kMagic) {
    return Status::Corruption("gzipx: bad magic");
  }
  ++pos;
  uint32_t total = 0;
  RLZ_RETURN_IF_ERROR(VByteCodec::Get(in, &pos, &total));
  // Reject implausible expansion before sizing the output: a corrupt
  // header must not make us allocate gigabytes (max real ratio here is
  // ~1000:1).
  if (static_cast<uint64_t>(total) >
      in.size() * 1024ull + (1ull << 16)) {
    return Status::Corruption("gzipx: implausible uncompressed size");
  }

  GzipxDecodeScratch local_scratch;
  GzipxDecodeScratch* s = scratch != nullptr ? scratch : &local_scratch;

  // The header records the exact uncompressed size, so the output is
  // sized once and written through raw pointers; the historical per-byte
  // push_back dominated decode time. Every write below is bounds-checked
  // against `total` before it happens. On any error the output is rolled
  // back to its input length.
  const size_t out_base = out->size();
  out->resize(out_base + total);
  char* const base = out->data() + out_base;
  size_t produced = 0;
  auto fail = [&](Status status) {
    out->resize(out_base);
    return status;
  };

  while (produced < total) {
    uint32_t span = 0;
    uint32_t num_tokens = 0;
    Status st;
    if (!(st = VByteCodec::Get(in, &pos, &span)).ok()) return fail(st);
    if (!(st = VByteCodec::Get(in, &pos, &num_tokens)).ok()) return fail(st);
    if (pos >= in.size()) {
      return fail(Status::Corruption("gzipx: truncated block"));
    }
    const uint8_t type = static_cast<uint8_t>(in[pos++]);
    if (span > total - produced) {
      return fail(Status::Corruption("gzipx: block overruns stream size"));
    }
    if (type == 1) {
      if (pos + span > in.size()) {
        return fail(Status::Corruption("gzipx: truncated stored block"));
      }
      std::memcpy(base + produced, in.data() + pos, span);
      produced += span;
      pos += span;
      continue;
    }
    if (type != 0) return fail(Status::Corruption("gzipx: bad block type"));

    uint32_t bits_size = 0;
    if (!(st = VByteCodec::Get(in, &pos, &bits_size)).ok()) return fail(st);
    if (pos + bits_size > in.size()) {
      return fail(Status::Corruption("gzipx: truncated huffman block"));
    }
    // The block opens with the 316 4-bit code lengths, two per byte, low
    // nibble first; both counts are even, so the symbol bits start on the
    // next byte.
    if (bits_size < kCodeLengthBytes) {
      return fail(Status::Corruption("gzipx: truncated code lengths"));
    }
    const uint8_t* next = reinterpret_cast<const uint8_t*>(in.data()) + pos;
    const uint8_t* const end = next + bits_size;
    pos += bits_size;
    s->lit_lens.resize(kNumLitLen);
    s->dist_lens.resize(kNumDist);
    for (int i = 0; i < kNumLitLen; i += 2, ++next) {
      s->lit_lens[i] = *next & 0xF;
      s->lit_lens[i + 1] = *next >> 4;
    }
    for (int i = 0; i < kNumDist; i += 2, ++next) {
      s->dist_lens[i] = *next & 0xF;
      s->dist_lens[i + 1] = *next >> 4;
    }
    if (!(st = s->lit.Init(s->lit_lens)).ok()) return fail(st);
    if (!(st = s->dist.Init(s->dist_lens)).ok()) return fail(st);

    if (!(st = InflateTokens(next, end, num_tokens, s->lit, s->dist, base,
                             total, &produced))
             .ok()) {
      return fail(st);
    }
  }

  if (pos + 4 > in.size()) {
    return fail(Status::Corruption("gzipx: missing crc"));
  }
  uint32_t want = 0;
  for (int i = 0; i < 4; ++i) {
    want |= static_cast<uint32_t>(static_cast<uint8_t>(in[pos + i])) << (8 * i);
  }
  const uint32_t got = Crc32(base, static_cast<size_t>(total));
  if (want != got) return fail(Status::Corruption("gzipx: crc mismatch"));
  return Status::OK();
}

namespace gzipx_testing {

uint32_t PositionBase() { return ThreadCompressState().base; }

void RaisePositionBase(uint32_t base) {
  CompressState& state = ThreadCompressState();
  RLZ_CHECK_GE(base, state.base);
  state.base = base;
}

}  // namespace gzipx_testing

}  // namespace rlz
