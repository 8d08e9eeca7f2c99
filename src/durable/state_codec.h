// Byte-stream codec for durable state blobs (snapshots, WAL record
// payloads).  Thin, header-only wrappers over the BTRC primitives in
// obs/trace_codec.h: LEB128 varints, zigzag signed mapping, IEEE-754
// bit-exact doubles, little-endian fixed-width scalars.
//
// StateReader fails LOUDLY: any truncation or malformed varint throws
// durable::CorruptState naming the stream context and the byte offset,
// never returning garbage.  Callers that want to tolerate a torn tail
// (the WAL scanner) catch CorruptState and keep the valid prefix.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "durable/durable.h"
#include "obs/trace_codec.h"

namespace burstq::durable {

class StateWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { obs::trace_detail::put_u32(buf_, v); }
  void u64(std::uint64_t v) { obs::trace_detail::put_u64(buf_, v); }
  void varint(std::uint64_t v) { obs::trace_detail::put_varint(buf_, v); }
  void svarint(std::int64_t v) {
    obs::trace_detail::put_varint(buf_, obs::trace_detail::zigzag(v));
  }
  /// IEEE-754 bit pattern: reads back bit-identical, NaN payloads kept.
  void f64(double v) { obs::trace_detail::put_f64(buf_, v); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    varint(s.size());
    buf_.append(s.data(), s.size());
  }
  void size_vec(const std::vector<std::size_t>& v) {
    varint(v.size());
    for (const std::size_t x : v) varint(x);
  }
  void f64_vec(const std::vector<double>& v) {
    varint(v.size());
    for (const double x : v) f64(x);
  }
  /// Count, then the bytes verbatim: the same bytes as varint(size)
  /// followed by u8() per element, in one append.
  void u8_vec(const std::vector<std::uint8_t>& v) {
    varint(v.size());
    buf_.append(reinterpret_cast<const char*>(v.data()), v.size());
  }
  /// Appends bytes another StateWriter already encoded.
  void raw(std::string_view bytes) { buf_.append(bytes.data(), bytes.size()); }
  /// Empties the stream but keeps its capacity for the next encode.
  void clear() { buf_.clear(); }

  std::size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class StateReader {
 public:
  /// `context` names the stream in CorruptState messages (a file path
  /// or "wal record" etc.).
  StateReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  std::uint8_t u8() {
    if (pos_ >= data_.size()) fail("u8 truncated");
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (!obs::trace_detail::get_u32(data_, pos_, v)) fail("u32 truncated");
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    if (!obs::trace_detail::get_u64(data_, pos_, v)) fail("u64 truncated");
    return v;
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    if (!obs::trace_detail::get_varint(data_, pos_, v))
      fail("varint truncated or malformed");
    return v;
  }
  std::int64_t svarint() { return obs::trace_detail::unzigzag(varint()); }
  double f64() {
    double v = 0;
    if (!obs::trace_detail::get_f64(data_, pos_, v)) fail("f64 truncated");
    return v;
  }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t n = varint();
    if (pos_ + n > data_.size()) fail("string body truncated");
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  /// An element count for elements of at least `min_bytes` bytes each.
  /// A count the rest of the stream cannot hold fails here, before the
  /// caller sizes a container by it.
  std::size_t count(std::size_t min_bytes = 1) {
    const std::uint64_t n = varint();
    if (n > (data_.size() - pos_) / min_bytes)
      fail("vector count exceeds stream");
    return static_cast<std::size_t>(n);
  }
  std::vector<std::size_t> size_vec() {
    std::vector<std::size_t> v(count());
    for (std::size_t& x : v) x = static_cast<std::size_t>(varint());
    return v;
  }
  std::vector<double> f64_vec() {
    std::vector<double> v(count(8));
    for (double& x : v) x = f64();
    return v;
  }
  /// Reads StateWriter::u8_vec() bytes.
  std::vector<std::uint8_t> u8_vec() {
    const std::size_t n = count();
    const auto* p = reinterpret_cast<const std::uint8_t*>(data_.data()) + pos_;
    pos_ += n;
    return std::vector<std::uint8_t>(p, p + n);
  }

  std::size_t pos() const { return pos_; }
  bool done() const { return pos_ == data_.size(); }
  void expect_done() {
    if (!done()) fail("trailing bytes after decoded state");
  }
  [[noreturn]] void fail(const char* what) const {
    throw CorruptState(context_ + ": corrupt at byte " +
                       std::to_string(pos_) + ": " + what);
  }

 private:
  std::string_view data_;
  std::size_t pos_{0};
  std::string context_;
};

}  // namespace burstq::durable
