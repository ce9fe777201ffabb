#include "compress/huffman.hpp"

#include <algorithm>
#include <cstddef>
#include <queue>
#include <stdexcept>
#include <utility>

#include "compress/codec_error.hpp"

namespace rmp::compress {
namespace {

constexpr unsigned kMaxCodeLength = 58;  // keeps codes within one uint64 write
// Serialized size of one table entry: 32-bit symbol + 6-bit length.
constexpr unsigned kTableEntryBits = 38;

struct TreeNode {
  std::uint64_t weight;
  std::uint32_t tiebreak;  // deterministic ordering
  std::int64_t symbol;     // -1 for internal nodes (int64: 0xffffffff is a
                           // valid symbol and must not alias the sentinel)
  std::int32_t left = -1;
  std::int32_t right = -1;
};

using FrequencyTable = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

// Histogram of `symbols`, returned sorted by symbol value.  A dense
// counting pass covers the common compact alphabets (quantization codes,
// LZ tokens); sparse huge alphabets ({0, 0xffffffff}) sort-and-run-length
// instead of allocating a range-sized table.  Sorted output keeps the
// tree construction order -- and therefore the emitted code table --
// identical to the historical std::map-based implementation.
FrequencyTable count_frequencies(std::span<const std::uint32_t> symbols) {
  FrequencyTable freq;
  if (symbols.empty()) return freq;
  std::uint32_t lo = symbols[0], hi = symbols[0];
  for (std::uint32_t s : symbols) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  const std::uint64_t range = std::uint64_t{hi} - lo + 1;
  if (range <= 4 * static_cast<std::uint64_t>(symbols.size()) + 65536) {
    std::vector<std::uint64_t> hist(static_cast<std::size_t>(range), 0);
    for (std::uint32_t s : symbols) ++hist[s - lo];
    for (std::size_t i = 0; i < hist.size(); ++i) {
      if (hist[i] > 0) freq.emplace_back(lo + static_cast<std::uint32_t>(i), hist[i]);
    }
  } else {
    std::vector<std::uint32_t> sorted(symbols.begin(), symbols.end());
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size();) {
      std::size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      freq.emplace_back(sorted[i], j - i);
      i = j;
    }
  }
  return freq;
}

// Compute code lengths from a symbol-sorted frequency table via an
// explicit Huffman tree.  If the tree depth exceeds kMaxCodeLength,
// frequencies are flattened (halved, floored at 1) and the tree rebuilt;
// this terminates because the distribution converges to uniform.
std::vector<std::pair<std::uint32_t, std::uint8_t>> code_lengths(
    FrequencyTable freq) {
  if (freq.empty()) return {};
  if (freq.size() == 1) return {{freq.front().first, 1}};

  for (;;) {
    // Two-queue Huffman merge instead of a binary heap.  Leaves sorted by
    // (weight, symbol) form one queue; internal nodes are created with
    // nondecreasing (weight, tiebreak), so a FIFO of them stays sorted
    // too.  Popping whichever front compares smaller by (weight, tiebreak)
    // therefore visits nodes in exactly the order the historical
    // priority_queue did, producing the identical tree in O(n log n) sort
    // plus O(n) merge.
    std::vector<TreeNode> nodes;
    nodes.reserve(freq.size() * 2);
    std::vector<std::int32_t> leaf_order(freq.size());
    for (std::size_t i = 0; i < freq.size(); ++i) {
      nodes.push_back({freq[i].second, freq[i].first,
                       static_cast<std::int64_t>(freq[i].first)});
      leaf_order[i] = static_cast<std::int32_t>(i);
    }
    std::sort(leaf_order.begin(), leaf_order.end(),
              [&](std::int32_t x, std::int32_t y) {
                return nodes[x].weight != nodes[y].weight
                           ? nodes[x].weight < nodes[y].weight
                           : nodes[x].tiebreak < nodes[y].tiebreak;
              });
    std::size_t leaf_head = 0;
    std::vector<std::int32_t> merged;
    merged.reserve(freq.size());
    std::size_t merged_head = 0;
    std::uint32_t internal_tiebreak = 0;
    auto pop_min = [&]() -> std::int32_t {
      const bool have_leaf = leaf_head < leaf_order.size();
      const bool have_merged = merged_head < merged.size();
      if (have_leaf && have_merged) {
        const TreeNode& a = nodes[leaf_order[leaf_head]];
        const TreeNode& b = nodes[merged[merged_head]];
        const bool leaf_first = a.weight != b.weight
                                    ? a.weight < b.weight
                                    : a.tiebreak < b.tiebreak;
        return leaf_first ? leaf_order[leaf_head++] : merged[merged_head++];
      }
      return have_leaf ? leaf_order[leaf_head++] : merged[merged_head++];
    };
    std::int32_t root = leaf_order.front();
    while ((leaf_order.size() - leaf_head) + (merged.size() - merged_head) > 1) {
      const std::int32_t a = pop_min();
      const std::int32_t b = pop_min();
      nodes.push_back({nodes[a].weight + nodes[b].weight, internal_tiebreak++,
                       -1, a, b});
      merged.push_back(static_cast<std::int32_t>(nodes.size() - 1));
      root = merged.back();
    }

    std::vector<std::pair<std::uint32_t, std::uint8_t>> lengths;
    lengths.reserve(freq.size());
    unsigned max_depth = 0;
    // Iterative DFS to assign depths.
    std::vector<std::pair<std::int32_t, unsigned>> stack{{root, 0}};
    while (!stack.empty()) {
      const auto [index, depth] = stack.back();
      stack.pop_back();
      const TreeNode& node = nodes[index];
      if (node.symbol >= 0) {
        lengths.emplace_back(static_cast<std::uint32_t>(node.symbol),
                             static_cast<std::uint8_t>(std::max(1u, depth)));
        max_depth = std::max(max_depth, std::max(1u, depth));
      } else {
        stack.push_back({node.left, depth + 1});
        stack.push_back({node.right, depth + 1});
      }
    }
    if (max_depth <= kMaxCodeLength) return lengths;
    for (auto& [symbol, count] : freq) count = std::max<std::uint64_t>(1, count >> 1);
  }
}

// Bit-reverse the low `length` bits of `code`.
std::uint64_t reverse_code(std::uint64_t code, unsigned length) {
  std::uint64_t reversed = 0;
  for (unsigned b = 0; b < length; ++b) {
    reversed |= ((code >> b) & 1u) << (length - 1 - b);
  }
  return reversed;
}

}  // namespace

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint32_t> symbols) {
  const auto lengths = code_lengths(count_frequencies(symbols));
  if (lengths.empty()) return;

  entries_.reserve(lengths.size());
  std::uint32_t lo = lengths.front().first, hi = lo;
  for (const auto& [symbol, length] : lengths) {
    entries_.push_back({symbol, length});
    lo = std::min(lo, symbol);
    hi = std::max(hi, symbol);
  }
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    return a.length != b.length ? a.length < b.length : a.symbol < b.symbol;
  });

  // Dense lookup over the symbol range when compact, otherwise a sorted
  // index.  The 64 KiB floor keeps every 16-bit-quantizer alphabet on the
  // O(1) dense path; beyond it the table must still be within a small
  // factor of the alphabet so {0, 0xffffffff} stays sparse.
  const std::uint64_t range = std::uint64_t{hi} - lo + 1;
  const bool dense = range <= 4 * entries_.size() + 65536;
  if (dense) {
    lookup_base_ = lo;
    lookup_.assign(static_cast<std::size_t>(range), 0);
  } else {
    sparse_lookup_.reserve(entries_.size());
  }

  // Assign canonical codes in table order and store each bit-reversed,
  // packed with its length.
  std::uint64_t code = 0;
  std::uint8_t previous_length = entries_.front().length;
  for (const Entry& e : entries_) {
    code <<= (e.length - previous_length);
    previous_length = e.length;
    const std::uint64_t packed =
        (reverse_code(code++, e.length) << kLengthBits) | e.length;
    if (dense) {
      lookup_[e.symbol - lookup_base_] = packed;
    } else {
      sparse_lookup_.emplace_back(e.symbol, packed);
    }
    max_length_ = std::max<unsigned>(max_length_, e.length);
  }
  std::sort(sparse_lookup_.begin(), sparse_lookup_.end());
}

std::uint64_t HuffmanEncoder::sparse_code(std::uint32_t symbol) const {
  const auto it = std::lower_bound(
      sparse_lookup_.begin(), sparse_lookup_.end(), symbol,
      [](const auto& entry, std::uint32_t s) { return entry.first < s; });
  return it == sparse_lookup_.end() || it->first != symbol ? 0 : it->second;
}

void HuffmanEncoder::throw_unknown_symbol() {
  throw std::out_of_range("HuffmanEncoder: symbol not in code table");
}

void HuffmanEncoder::write_table(BitWriter& writer) const {
  writer.put_bits(entries_.size(), 32);
  for (const Entry& e : entries_) {
    writer.put_bits(e.symbol, 32);
    writer.put_bits(e.length, 6);
  }
}

HuffmanDecoder::HuffmanDecoder(BitReader& reader) {
  if (reader.exhausted(32)) {
    throw CodecError(CodecErrc::kTruncated, "huffman: table size truncated");
  }
  const std::uint64_t count64 = reader.get_bits(32);
  // Size cap before allocation: every serialized entry costs 38 bits, so
  // a count the remaining input cannot hold is hostile.  Reject with a
  // typed error instead of letting vector(count) die with bad_alloc.
  if (count64 > reader.remaining_bits() / kTableEntryBits) {
    throw CodecError(CodecErrc::kCountOverflow,
                     "huffman: table entry count exceeds input budget");
  }
  const auto count = static_cast<std::size_t>(count64);
  struct Pair {
    std::uint32_t symbol;
    std::uint8_t length;
  };
  std::vector<Pair> pairs(count);
  std::uint64_t kraft = 0;
  for (auto& p : pairs) {
    p.symbol = static_cast<std::uint32_t>(reader.get_bits(32));
    p.length = static_cast<std::uint8_t>(reader.get_bits(6));
    if (p.length == 0 || p.length > kMaxCodeLength) {
      throw CodecError(CodecErrc::kMalformedTable,
                       "huffman: code length outside [1, 58]");
    }
    // Kraft sum in units of 2^-kMaxCodeLength: an overfull table would
    // corrupt the canonical-code reconstruction below.
    kraft += std::uint64_t{1} << (kMaxCodeLength - p.length);
    if (kraft > (std::uint64_t{1} << kMaxCodeLength)) {
      throw CodecError(CodecErrc::kMalformedTable,
                       "huffman: code lengths violate the Kraft inequality");
    }
    max_length_ = std::max<unsigned>(max_length_, p.length);
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    return a.length != b.length ? a.length < b.length : a.symbol < b.symbol;
  });

  if (count == 1) {
    if (pairs.front().length != 1) {
      throw CodecError(CodecErrc::kMalformedTable,
                       "huffman: single-symbol table must use length 1");
    }
    single_symbol_ = true;
    only_symbol_ = pairs.front().symbol;
  }

  first_code_.assign(max_length_ + 1, 0);
  first_index_.assign(max_length_ + 1, 0);
  std::vector<std::uint64_t> counts(max_length_ + 1, 0);
  for (const auto& p : pairs) ++counts[p.length];

  std::uint64_t code = 0, index = 0;
  for (unsigned len = 1; len <= max_length_; ++len) {
    code <<= 1;
    first_code_[len] = code;
    first_index_[len] = index;
    code += counts[len];
    index += counts[len];
  }
  symbols_.reserve(count);
  for (const auto& p : pairs) symbols_.push_back(p.symbol);

  // Build the fast table: every code of length <= kFastBits fills all
  // entries sharing its (bit-reversed, LSB-first) prefix.
  if (!single_symbol_ && count > 0) {
    fast_table_.assign(std::size_t{1} << kFastBits, FastEntry{});
    std::uint64_t canonical = 0;
    std::uint8_t previous_length = pairs.front().length;
    for (const auto& p : pairs) {
      canonical <<= (p.length - previous_length);
      previous_length = p.length;
      const std::uint64_t code_value = canonical++;
      if (p.length > kFastBits) continue;
      // LSB-first index prefix = bit-reverse of the MSB-first code.
      const std::uint64_t reversed = reverse_code(code_value, p.length);
      const std::size_t suffixes = std::size_t{1}
                                   << (kFastBits - p.length);
      for (std::size_t s = 0; s < suffixes; ++s) {
        FastEntry& entry = fast_table_[reversed | (s << p.length)];
        entry.symbol0 = p.symbol;
        entry.length0 = p.length;
        entry.total_bits = p.length;
        entry.count = 1;
      }
    }
    // Second pass: chain a second symbol into every window with room.
    // fast_table_[w >> length0] describes the window that starts after
    // the first code; its own first code is trustworthy only when it
    // fits inside the remaining real bits (the shifted-in high zeros are
    // not stream bits).
    for (std::size_t w = 0; w < fast_table_.size(); ++w) {
      FastEntry& entry = fast_table_[w];
      if (entry.count != 1 || entry.length0 >= kFastBits) continue;
      const FastEntry& next = fast_table_[w >> entry.length0];
      if (next.count >= 1 && next.length0 <= kFastBits - entry.length0) {
        entry.symbol1 = next.symbol0;
        entry.total_bits = static_cast<std::uint8_t>(entry.length0 + next.length0);
        entry.count = 2;
      }
    }
  }
}

std::uint32_t HuffmanDecoder::read_symbol(BitReader& reader) const {
  if (single_symbol_) {
    if (reader.exhausted(1)) {
      throw CodecError(CodecErrc::kTruncated, "huffman: stream ends mid-code");
    }
    reader.skip_bits(1);  // the 1-bit placeholder code
    return only_symbol_;
  }
  if (!fast_table_.empty()) {
    const auto prefix =
        static_cast<std::size_t>(reader.peek_bits(kFastBits));
    const FastEntry& entry = fast_table_[prefix];
    if (entry.count != 0) {
      // peek_bits zero-fills past the end, so a truncated stream could
      // otherwise match a zero-prefixed code and fabricate symbols.
      if (reader.exhausted(entry.length0)) {
        throw CodecError(CodecErrc::kTruncated, "huffman: stream ends mid-code");
      }
      reader.skip_bits(entry.length0);
      return entry.symbol0;
    }
  }
  return read_symbol_slow(reader);
}

unsigned HuffmanDecoder::read_symbol_pair(BitReader& reader,
                                          std::uint32_t out[2]) const {
  if (single_symbol_) {
    if (!reader.exhausted(2)) {
      reader.skip_bits(2);
      out[0] = only_symbol_;
      out[1] = only_symbol_;
      return 2;
    }
    out[0] = read_symbol(reader);  // typed-checks the final placeholder bit
    return 1;
  }
  if (!fast_table_.empty()) {
    const auto prefix =
        static_cast<std::size_t>(reader.peek_bits(kFastBits));
    const FastEntry& entry = fast_table_[prefix];
    if (entry.count == 2 && !reader.exhausted(entry.total_bits)) {
      reader.skip_bits(entry.total_bits);
      out[0] = entry.symbol0;
      out[1] = entry.symbol1;
      return 2;
    }
    if (entry.count != 0) {
      if (reader.exhausted(entry.length0)) {
        throw CodecError(CodecErrc::kTruncated, "huffman: stream ends mid-code");
      }
      reader.skip_bits(entry.length0);
      out[0] = entry.symbol0;
      return 1;
    }
  }
  out[0] = read_symbol_slow(reader);
  return 1;
}

std::uint32_t HuffmanDecoder::read_symbol_slow(BitReader& reader) const {
  // One zero-filled peek replaces the historical per-bit reads; the reader
  // position still advances exactly as the bit-by-bit walk did on every
  // outcome, including the throwing ones.
  const std::size_t remaining = reader.remaining_bits();
  const std::uint64_t window = reader.peek_bits(static_cast<unsigned>(
      std::min<std::size_t>(kMaxCodeLength, remaining)));
  std::uint64_t code = 0;
  for (unsigned len = 1; len <= max_length_; ++len) {
    if (len > remaining) {
      reader.skip_bits(static_cast<unsigned>(len - 1));
      throw CodecError(CodecErrc::kTruncated, "huffman: stream ends mid-code");
    }
    code = (code << 1) | ((window >> (len - 1)) & 1u);
    // A code of length `len` is valid when it falls inside this length's
    // canonical range.
    const std::uint64_t offset = code - first_code_[len];
    const std::uint64_t available =
        (len < max_length_ ? first_index_[len + 1] : symbols_.size()) -
        first_index_[len];
    if (code >= first_code_[len] && offset < available) {
      reader.skip_bits(len);
      return symbols_[first_index_[len] + offset];
    }
  }
  reader.skip_bits(max_length_);
  throw CodecError(CodecErrc::kInvalidCode, "huffman: invalid code in stream");
}

std::vector<std::uint8_t> huffman_encode(std::span<const std::uint32_t> symbols) {
  BitWriter writer;
  writer.put_bits(symbols.size(), 64);
  if (!symbols.empty()) {
    HuffmanEncoder encoder(symbols);
    encoder.write_table(writer);
    for (std::uint32_t s : symbols) encoder.write_symbol(writer, s);
  }
  return writer.take();
}

std::vector<std::uint32_t> huffman_decode(std::span<const std::uint8_t> bytes) {
  BitReader reader(bytes);
  if (reader.exhausted(64)) {
    throw CodecError(CodecErrc::kTruncated, "huffman: symbol count truncated");
  }
  const std::uint64_t count64 = reader.get_bits(64);
  // Size cap before allocation: every coded symbol costs at least one
  // bit, so a count beyond the remaining bit budget is hostile.
  if (count64 > reader.remaining_bits()) {
    throw CodecError(CodecErrc::kCountOverflow,
                     "huffman: symbol count exceeds input budget");
  }
  const auto count = static_cast<std::size_t>(count64);
  std::vector<std::uint32_t> symbols;
  if (count > 0) {
    HuffmanDecoder decoder(reader);
    symbols.resize(count);
    std::uint32_t* out = symbols.data();
    std::size_t i = 0;
    std::uint32_t pair[2];
    while (i + 2 <= count) {
      const unsigned got = decoder.read_symbol_pair(reader, pair);
      out[i] = pair[0];
      if (got == 2) out[i + 1] = pair[1];
      i += got;
    }
    for (; i < count; ++i) out[i] = decoder.read_symbol(reader);
  }
  return symbols;
}

}  // namespace rmp::compress
