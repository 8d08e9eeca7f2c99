// Byte-level codecs shared by the BTRC trace writer and reader
// (obs/trace.h): LEB128 varints, zigzag signed mapping, little-endian
// fixed-width scalars, CRC-32 (IEEE 802.3) for block integrity, and a
// small dependency-free LZ77 byte compressor for the optional block
// compression.  Internal to the obs layer — the on-disk layout these
// primitives produce is documented in docs/TRACE_FORMAT.md.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace burstq::obs::trace_detail {

// ---- varints ---------------------------------------------------------
//
// The scalar put/get primitives live in the header: the reader decodes
// one varint per value, so a call per byte group would dominate decode
// throughput.

/// Appends `v` as an LEB128 varint (1..10 bytes).
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Writes `v` as an LEB128 varint at `out`, which must have room for
/// kMaxVarintBytes; returns one past the last byte written.  For bulk
/// encoders that size a buffer once instead of growing a string.
inline char* put_varint(char* out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

/// Reads a varint at `pos`, advancing it.  Returns false on truncation
/// or a varint longer than 10 bytes.
inline bool get_varint(std::string_view data, std::size_t& pos,
                       std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0; shift < 70; shift += 7) {
    if (pos >= data.size()) return false;
    const auto byte = static_cast<unsigned char>(data[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
  }
  return false;  // > 10 bytes: malformed
}

/// Maps signed integers onto unsigned so small magnitudes (either sign)
/// encode short: 0,-1,1,-2,2 ... -> 0,1,2,3,4.
constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ---- fixed-width little-endian scalars -------------------------------

inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i)
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(bytes, sizeof bytes);
}

inline bool get_u32(std::string_view data, std::size_t& pos,
                    std::uint32_t& v) {
  if (pos + 4 > data.size()) return false;
  v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[pos++]))
         << (8 * i);
  return true;
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(bytes, sizeof bytes);
}

inline bool get_u64(std::string_view data, std::size_t& pos,
                    std::uint64_t& v) {
  if (pos + 8 > data.size()) return false;
  v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[pos++]))
         << (8 * i);
  return true;
}

/// Doubles travel as their IEEE-754 bit pattern (little-endian u64), so
/// a recorded value reads back bit-identical.
void put_f64(std::string& out, double v);
bool get_f64(std::string_view data, std::size_t& pos, double& v);

// ---- CRC-32 ----------------------------------------------------------

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — the same
/// polynomial zlib and PNG use, computed table-free-of-deps in-tree.
/// Slicing-by-8: eight table lookups per 8-byte word, identical values
/// to the bytewise definition.
std::uint32_t crc32(std::string_view data);

/// Continues a CRC over more bytes: crc32_update(crc32(a), b) ==
/// crc32(a + b), and crc32_update(0, b) == crc32(b).
std::uint32_t crc32_update(std::uint32_t crc, std::string_view data);

/// The CRC of a concatenation from the CRCs of its halves:
/// crc32_combine(crc32(a), crc32(b), b.size()) == crc32(a + b), in
/// O(log b.size()) time without reading b — so a checksum over a long
/// append-only stream plus a little fresh data costs only the fresh data.
std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                            std::uint64_t len_b);

// ---- block compression -----------------------------------------------

/// Greedy LZ77 over a 64 KiB window with a 4-byte hash chain.  The token
/// stream is self-delimiting: (literal_len varint, literal bytes,
/// match_len varint, match_offset varint) repeated; a trailing group may
/// omit the match (match_len 0 terminates).  Deterministic: identical
/// input yields identical output.
std::string lz_compress(std::string_view raw);

/// Inflates `compressed` into `out` (cleared first).  `raw_size` is the
/// expected size from the block header; returns false on malformed
/// input or a size mismatch — callers treat that as corruption.
bool lz_decompress(std::string_view compressed, std::size_t raw_size,
                   std::string& out);

}  // namespace burstq::obs::trace_detail
