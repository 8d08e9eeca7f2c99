#include "obs/trace_codec.h"

#include <array>
#include <bit>
#include <cstring>

namespace burstq::obs::trace_detail {

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

bool get_f64(std::string_view data, std::size_t& pos, double& v) {
  std::uint64_t bits = 0;
  if (!get_u64(data, pos, bits)) return false;
  v = std::bit_cast<double>(bits);
  return true;
}

namespace {

/// tables[0] is the classic bytewise table; tables[k][n] is the CRC of
/// byte n followed by k zero bytes, so eight bytes fold in one step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][n] = c;
  }
  for (std::uint32_t n = 0; n < 256; ++n)
    for (std::size_t k = 1; k < t.size(); ++k)
      t[k][n] = t[0][t[k - 1][n] & 0xFF] ^ (t[k - 1][n] >> 8);
  return t;
}

/// Little-endian 32-bit load, independent of host byte order.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, std::string_view data) {
  static const CrcTables t = make_crc_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view data) { return crc32_update(0, data); }

namespace {

// CRC arithmetic in GF(2)[x] modulo the (reflected) CRC-32 polynomial:
// bit 31 holds the x^0 coefficient.

constexpr std::uint32_t kPoly = 0xEDB88320u;

/// a * b mod P.
std::uint32_t mult_mod_p(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

/// x^(2^k) mod P for every k a 64-bit byte count can reach (3 + 63):
/// each entry squares the previous one.
using X2nTable = std::array<std::uint32_t, 67>;

X2nTable make_x2n_table() {
  X2nTable table{};
  std::uint32_t p = 1u << 30;  // x^1
  for (std::uint32_t& entry : table) {
    entry = p;
    p = mult_mod_p(p, p);
  }
  return table;
}

}  // namespace

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b) {
  // Appending len_b bytes multiplies crc_a's polynomial by x^(8 len_b);
  // the init/final inversions of the two halves cancel in the xor.
  static const X2nTable x2n = make_x2n_table();
  std::uint32_t shift = 1u << 31;  // x^0
  std::size_t k = 3;               // x^(2^3) = x^8: one byte
  for (std::uint64_t n = len_b; n != 0; n >>= 1, ++k)
    if ((n & 1) != 0) shift = mult_mod_p(x2n[k], shift);
  return mult_mod_p(shift, crc_a) ^ crc_b;
}

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 1u << 16;
constexpr std::size_t kHashBits = 15;

std::uint32_t hash4(const char* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

std::string lz_compress(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() / 2 + 16);
  std::array<std::size_t, 1u << kHashBits> head;
  head.fill(SIZE_MAX);

  std::size_t pos = 0;
  std::size_t literal_start = 0;
  const auto emit_group = [&](std::size_t match_len, std::size_t offset) {
    put_varint(out, pos - literal_start);
    out.append(raw.data() + literal_start, pos - literal_start);
    put_varint(out, match_len);
    if (match_len != 0) put_varint(out, offset);
  };

  while (pos + kMinMatch <= raw.size()) {
    const std::uint32_t h = hash4(raw.data() + pos);
    const std::size_t cand = head[h];
    head[h] = pos;
    if (cand != SIZE_MAX && pos - cand <= kMaxOffset &&
        std::memcmp(raw.data() + cand, raw.data() + pos, kMinMatch) == 0) {
      std::size_t len = kMinMatch;
      while (pos + len < raw.size() && raw[cand + len] == raw[pos + len])
        ++len;
      emit_group(len, pos - cand);
      // Index a couple of positions inside the match so back-to-back
      // repeats still find each other, without paying a full re-scan.
      const std::size_t next = pos + len;
      for (std::size_t p = pos + 1; p < next && p + kMinMatch <= raw.size();
           p += (len > 32 ? 7 : 1))
        head[hash4(raw.data() + p)] = p;
      pos = next;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  pos = raw.size();
  emit_group(0, 0);  // trailing literals, match_len 0 terminates
  return out;
}

bool lz_decompress(std::string_view compressed, std::size_t raw_size,
                   std::string& out) {
  out.clear();
  out.reserve(raw_size);
  std::size_t pos = 0;
  while (true) {
    std::uint64_t literal_len = 0;
    if (!get_varint(compressed, pos, literal_len)) return false;
    if (literal_len > compressed.size() - pos) return false;
    out.append(compressed.data() + pos,
               static_cast<std::size_t>(literal_len));
    pos += static_cast<std::size_t>(literal_len);
    std::uint64_t match_len = 0;
    if (!get_varint(compressed, pos, match_len)) return false;
    if (match_len == 0) break;
    std::uint64_t offset = 0;
    if (!get_varint(compressed, pos, offset)) return false;
    if (offset == 0 || offset > out.size()) return false;
    if (out.size() + match_len > raw_size) return false;
    // Overlapping copies are the RLE case; byte-by-byte is required.
    std::size_t from = out.size() - static_cast<std::size_t>(offset);
    for (std::uint64_t i = 0; i < match_len; ++i) out.push_back(out[from++]);
  }
  return pos == compressed.size() && out.size() == raw_size;
}

}  // namespace burstq::obs::trace_detail
