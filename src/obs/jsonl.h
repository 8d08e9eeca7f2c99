// Read side of the flight recorder: parses the JSONL event stream the
// EventLog writes back into flat records.
//
// The grammar is deliberately the subset EventLog emits — one flat JSON
// object per line, scalar values only (numbers, strings, booleans,
// null).  Nested objects/arrays are rejected; this is a replay format,
// not a general JSON library.

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace burstq::obs {

/// One parsed field value.  Members are ordered so the two one-byte
/// discriminants pack into the same word (48 bytes instead of 56 —
/// readers materialise millions of these).
struct EventValue {
  enum class Tag : std::uint8_t { kNumber, kString, kBool, kNull };
  double num{0.0};
  std::string str;
  Tag tag{Tag::kNull};
  bool b{false};
};

/// Small-vector of (key, value) pairs backing RecordedEvent::fields:
/// contiguous storage with inline capacity for the common case (no
/// recorder kind today carries more than five fields), spilling to the
/// heap beyond that.  The readers construct one RecordedEvent per trace
/// event, so skipping the per-event heap allocation is what keeps
/// replay decode-bound rather than allocator-bound.  Deliberately
/// minimal: just the vector surface the readers, replay, and trace
/// tools use.
class FieldVec {
 public:
  using value_type = std::pair<std::string, EventValue>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  FieldVec() noexcept : data_(inline_data()) {}
  FieldVec(const FieldVec& other) : FieldVec() {
    reserve(other.size_);
    for (const value_type& v : other) emplace_back(v.first, v.second);
  }
  FieldVec(FieldVec&& other) noexcept : FieldVec() { take(other); }
  FieldVec& operator=(const FieldVec& other) {
    if (this != &other) {
      clear();
      reserve(other.size_);
      for (const value_type& v : other) emplace_back(v.first, v.second);
    }
    return *this;
  }
  FieldVec& operator=(FieldVec&& other) noexcept {
    if (this != &other) {
      release();
      take(other);
    }
    return *this;
  }
  ~FieldVec() { release(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }
  [[nodiscard]] value_type& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const value_type& operator[](std::size_t i) const {
    return data_[i];
  }
  [[nodiscard]] value_type& back() { return data_[size_ - 1]; }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  template <typename... Args>
  value_type& emplace_back(Args&&... args) {
    if (size_ == cap_) grow(cap_ * 2);
    value_type* slot = ::new (static_cast<void*>(data_ + size_))
        value_type(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void clear() noexcept {
    for (std::size_t i = size_; i > 0; --i) data_[i - 1].~value_type();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kInlineCapacity = 2;

  [[nodiscard]] value_type* inline_data() noexcept {
    return reinterpret_cast<value_type*>(inline_);
  }
  [[nodiscard]] bool spilled() const noexcept {
    return data_ != reinterpret_cast<const value_type*>(inline_);
  }

  // Leaves `other` empty-and-inline; assumes *this* is empty-and-inline.
  void take(FieldVec& other) noexcept {
    if (other.spilled()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.cap_ = kInlineCapacity;
      other.size_ = 0;
    } else {
      for (std::size_t i = 0; i < other.size_; ++i)
        ::new (static_cast<void*>(data_ + i))
            value_type(std::move(other.data_[i]));
      size_ = other.size_;
      other.clear();
    }
  }

  void release() noexcept {
    clear();
    if (spilled()) {
      ::operator delete(static_cast<void*>(data_));
      data_ = inline_data();
      cap_ = kInlineCapacity;
    }
  }

  void grow(std::size_t n) {
    const std::size_t new_cap = n > cap_ * 2 ? n : cap_ * 2;
    auto* fresh = static_cast<value_type*>(
        ::operator new(new_cap * sizeof(value_type)));
    for (std::size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) value_type(std::move(data_[i]));
      data_[i].~value_type();
    }
    if (spilled()) ::operator delete(static_cast<void*>(data_));
    data_ = fresh;
    cap_ = new_cap;
  }

  alignas(value_type) unsigned char inline_[kInlineCapacity *
                                            sizeof(value_type)];
  value_type* data_;
  std::size_t size_{0};
  std::size_t cap_{kInlineCapacity};
};

/// One parsed event line.
struct RecordedEvent {
  std::string kind;
  FieldVec fields;  // file order

  [[nodiscard]] const EventValue* find(std::string_view key) const;
  [[nodiscard]] bool has(std::string_view key) const {
    return find(key) != nullptr;
  }
  /// Numeric field, or `fallback` when absent/non-numeric.
  [[nodiscard]] double num(std::string_view key, double fallback = 0.0) const;
  /// Numeric field rounded to integer.
  [[nodiscard]] std::int64_t integer(std::string_view key,
                                     std::int64_t fallback = 0) const;
  /// String field, or "" when absent/non-string.
  [[nodiscard]] std::string_view str(std::string_view key) const;
  /// Boolean field, or `fallback` when absent/non-bool.
  [[nodiscard]] bool boolean(std::string_view key, bool fallback = false)
      const;
};

/// Parses one JSONL line.  Returns nullopt on malformed input (and sets
/// `*error` when non-null).  Blank lines return nullopt with empty error.
std::optional<RecordedEvent> parse_event_line(std::string_view line,
                                              std::string* error = nullptr);

/// Reads a whole JSONL event file.  Throws InvalidArgument when the file
/// cannot be opened or any non-blank line is malformed, naming
/// `path:line` — the same rule scan_events (obs/query.h) applies.
std::vector<RecordedEvent> read_events_jsonl(const std::string& path);

}  // namespace burstq::obs
