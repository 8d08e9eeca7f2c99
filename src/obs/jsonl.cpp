#include "obs/jsonl.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "common/error.h"

namespace burstq::obs {

const EventValue* RecordedEvent::find(std::string_view key) const {
  for (const auto& [k, v] : fields)
    if (k == key) return &v;
  return nullptr;
}

double RecordedEvent::num(std::string_view key, double fallback) const {
  const EventValue* v = find(key);
  return (v != nullptr && v->tag == EventValue::Tag::kNumber) ? v->num
                                                              : fallback;
}

std::int64_t RecordedEvent::integer(std::string_view key,
                                    std::int64_t fallback) const {
  const EventValue* v = find(key);
  return (v != nullptr && v->tag == EventValue::Tag::kNumber)
             ? static_cast<std::int64_t>(std::llround(v->num))
             : fallback;
}

std::string_view RecordedEvent::str(std::string_view key) const {
  const EventValue* v = find(key);
  return (v != nullptr && v->tag == EventValue::Tag::kString)
             ? std::string_view(v->str)
             : std::string_view{};
}

bool RecordedEvent::boolean(std::string_view key, bool fallback) const {
  const EventValue* v = find(key);
  return (v != nullptr && v->tag == EventValue::Tag::kBool) ? v->b : fallback;
}

namespace {

/// Cursor over one line.
struct Cursor {
  std::string_view text;
  std::size_t pos{0};

  [[nodiscard]] bool done() const { return pos >= text.size(); }
  [[nodiscard]] char peek() const { return done() ? '\0' : text[pos]; }
  void skip_ws() {
    while (!done() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
  bool consume(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos;
    return true;
  }
};

bool parse_string(Cursor& cur, std::string& out, std::string& error) {
  if (!cur.consume('"')) {
    error = "expected string";
    return false;
  }
  out.clear();
  while (!cur.done()) {
    const char c = cur.text[cur.pos++];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (cur.done()) break;
    const char esc = cur.text[cur.pos++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (cur.pos + 4 > cur.text.size()) {
          error = "truncated \\u escape";
          return false;
        }
        const std::string hex(cur.text.substr(cur.pos, 4));
        cur.pos += 4;
        const auto code = static_cast<unsigned>(
            std::strtoul(hex.c_str(), nullptr, 16));
        // EventLog only emits \u00XX for control bytes; decode the
        // Latin-1 range and reject anything beyond it.
        if (code > 0xFF) {
          error = "unsupported \\u escape beyond \\u00ff";
          return false;
        }
        out += static_cast<char>(code);
        break;
      }
      default:
        error = "unknown escape";
        return false;
    }
  }
  error = "unterminated string";
  return false;
}

bool parse_value(Cursor& cur, EventValue& out, std::string& error) {
  cur.skip_ws();
  const char c = cur.peek();
  if (c == '"') {
    out.tag = EventValue::Tag::kString;
    return parse_string(cur, out.str, error);
  }
  const std::string_view rest = cur.text.substr(cur.pos);
  if (rest.starts_with("true")) {
    out.tag = EventValue::Tag::kBool;
    out.b = true;
    cur.pos += 4;
    return true;
  }
  if (rest.starts_with("false")) {
    out.tag = EventValue::Tag::kBool;
    out.b = false;
    cur.pos += 5;
    return true;
  }
  if (rest.starts_with("null")) {
    out.tag = EventValue::Tag::kNull;
    cur.pos += 4;
    return true;
  }
  // Number.
  const std::string buf(rest);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str()) {
    error = "expected a value";
    return false;
  }
  out.tag = EventValue::Tag::kNumber;
  out.num = v;
  cur.pos += static_cast<std::size_t>(end - buf.c_str());
  return true;
}

/// Parses one line into `ev` (cleared first).  kBlank means a
/// whitespace-only line; kError sets `error`.
enum class LineParse { kEvent, kBlank, kError };

LineParse parse_line_into(std::string_view line, RecordedEvent& ev,
                          std::string& error) {
  ev.kind.clear();
  ev.fields.clear();
  std::string err;
  const auto fail = [&](std::string what) {
    error = std::move(what);
    return LineParse::kError;
  };

  Cursor cur{line, 0};
  cur.skip_ws();
  if (cur.done()) return LineParse::kBlank;
  if (!cur.consume('{')) return fail("expected '{'");

  if (cur.consume('}')) return fail("event without a kind");
  while (true) {
    std::string key;
    if (!parse_string(cur, key, err)) return fail(err);
    if (!cur.consume(':')) return fail("expected ':'");
    if (key == "kind") {
      EventValue value;
      if (!parse_value(cur, value, err)) return fail(err);
      if (value.tag != EventValue::Tag::kString)
        return fail("kind must be a string");
      ev.kind = std::move(value.str);
    } else {
      // Parse straight into the field slot — values are never moved.
      auto& field = ev.fields.emplace_back();
      field.first = std::move(key);
      if (!parse_value(cur, field.second, err)) return fail(err);
    }
    if (cur.consume(',')) continue;
    if (cur.consume('}')) break;
    return fail("expected ',' or '}'");
  }
  cur.skip_ws();
  if (!cur.done()) return fail("trailing characters after '}'");
  if (ev.kind.empty()) return fail("event without a kind");
  return LineParse::kEvent;
}

}  // namespace

std::optional<RecordedEvent> parse_event_line(std::string_view line,
                                              std::string* error) {
  RecordedEvent ev;
  std::string err;
  const LineParse result = parse_line_into(line, ev, err);
  if (result == LineParse::kEvent) return ev;
  if (error != nullptr) *error = result == LineParse::kBlank ? "" : err;
  return std::nullopt;
}

std::vector<RecordedEvent> read_events_jsonl(const std::string& path) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  BURSTQ_REQUIRE(in.is_open(), "cannot open event log: " + path);

  // Slurp once: the newline count sizes the output up front, so events
  // parse in place and are never moved by vector growth.
  std::string text;
  in.seekg(0, std::ios::end);
  const std::streamoff len = in.tellg();
  BURSTQ_REQUIRE(len >= 0, "cannot read event log: " + path);
  text.resize(static_cast<std::size_t>(len));
  in.seekg(0);
  in.read(text.data(), len);

  std::vector<RecordedEvent> out;
  out.reserve(static_cast<std::size_t>(
                  std::count(text.begin(), text.end(), '\n')) +
              1);
  std::size_t line_no = 0;
  std::size_t pos = 0;
  std::string error;
  while (pos < text.size()) {
    ++line_no;
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl;
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    const LineParse result = parse_line_into(line, out.emplace_back(), error);
    if (result == LineParse::kEvent) continue;
    out.pop_back();
    if (result == LineParse::kBlank) continue;  // blank line
    throw InvalidArgument(path + ":" + std::to_string(line_no) + ": " + error);
  }
  return out;
}

}  // namespace burstq::obs
