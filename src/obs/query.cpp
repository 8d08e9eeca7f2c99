#include "obs/query.h"

#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>

#include "common/csv.h"
#include "common/error.h"
#include "obs/trace.h"

namespace burstq::obs {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

bool parse_number(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string buf(text);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool compare(double lhs, double rhs, QueryOp op) {
  switch (op) {
    case QueryOp::kEq: return lhs == rhs;
    case QueryOp::kNe: return lhs != rhs;
    case QueryOp::kLt: return lhs < rhs;
    case QueryOp::kLe: return lhs <= rhs;
    case QueryOp::kGt: return lhs > rhs;
    case QueryOp::kGe: return lhs >= rhs;
  }
  return false;
}

/// Numeric view of a field value; strings are coerced when they parse.
bool value_number(const EventValue& v, double* out) {
  switch (v.tag) {
    case EventValue::Tag::kNumber: *out = v.num; return true;
    case EventValue::Tag::kBool: *out = v.b ? 1.0 : 0.0; return true;
    case EventValue::Tag::kString: return parse_number(v.str, out);
    case EventValue::Tag::kNull: return false;
  }
  return false;
}

bool clause_matches(const QueryClause& c, const RecordedEvent& ev) {
  if (c.key == "kind") {
    const bool eq = ev.kind == c.text;
    return c.op == QueryOp::kEq ? eq : !eq;
  }
  const EventValue* v = ev.find(c.key);
  if (v == nullptr) return false;
  double field_num = 0.0;
  if (c.numeric && value_number(*v, &field_num))
    return compare(field_num, c.num, c.op);
  // A number's text never equals a clause value that does not parse as
  // a number, so how numbers render here does not matter.
  const std::string text = trace_value_text(*v);
  switch (c.op) {
    case QueryOp::kEq: return text == c.text;
    case QueryOp::kNe: return text != c.text;
    default: return false;  // ordering on non-numeric values
  }
}

}  // namespace

Query Query::parse(std::string_view expr) {
  Query q;
  if (trim(expr).empty()) return q;
  std::size_t pos = 0;
  while (pos <= expr.size()) {
    std::size_t comma = expr.find(',', pos);
    if (comma == std::string_view::npos) comma = expr.size();
    const std::string_view clause = trim(expr.substr(pos, comma - pos));
    pos = comma + 1;
    BURSTQ_REQUIRE(!clause.empty(),
                   "query: empty clause in '" + std::string(expr) + "'");
    // Longest operator first so "<=" is not read as "<" + "=value".
    static constexpr struct {
      std::string_view token;
      QueryOp op;
    } kOps[] = {{"<=", QueryOp::kLe}, {">=", QueryOp::kGe},
                {"!=", QueryOp::kNe}, {"<", QueryOp::kLt},
                {">", QueryOp::kGt},  {"=", QueryOp::kEq}};
    std::size_t op_at = std::string_view::npos;
    std::size_t op_len = 0;
    QueryOp op = QueryOp::kEq;
    for (const auto& cand : kOps) {
      const std::size_t at = clause.find(cand.token);
      if (at != std::string_view::npos &&
          (op_at == std::string_view::npos || at < op_at ||
           (at == op_at && cand.token.size() > op_len))) {
        op_at = at;
        op_len = cand.token.size();
        op = cand.op;
      }
    }
    BURSTQ_REQUIRE(op_at != std::string_view::npos && op_at > 0,
                   "query: clause '" + std::string(clause) +
                       "' is not of the form key op value");
    QueryClause out;
    out.key = std::string(trim(clause.substr(0, op_at)));
    out.op = op;
    out.text = std::string(trim(clause.substr(op_at + op_len)));
    out.numeric = parse_number(out.text, &out.num);
    BURSTQ_REQUIRE(!out.key.empty(), "query: clause '" + std::string(clause) +
                                         "' has an empty key");
    BURSTQ_REQUIRE(
        out.key != "kind" || op == QueryOp::kEq || op == QueryOp::kNe,
        "query: kind supports only = and !=");
    q.clauses.push_back(std::move(out));
  }
  return q;
}

bool Query::matches(const RecordedEvent& ev) const {
  for (const QueryClause& c : clauses)
    if (!clause_matches(c, ev)) return false;
  return true;
}

namespace {

[[noreturn]] void bad_offset(const std::string& path, std::uint64_t offset,
                             const std::string& why) {
  throw InvalidArgument(path + ": trace pointer offset " +
                        std::to_string(offset) + " " + why);
}

std::uint64_t scan_btrc(const std::string& path, const EventScanFn& fn,
                        std::optional<std::uint64_t> start_offset) {
  TraceReader reader(path);
  std::vector<RecordedEvent> block;
  if (start_offset) {
    // Skip (integrity-checked, schema absorbed) until the start block.
    while (reader.valid_offset() < *start_offset) {
      if (!reader.next_block(block, /*decode=*/false))
        bad_offset(path, *start_offset,
                   "is past the end of the trace (last block ends at "
                   "byte " +
                       std::to_string(reader.valid_offset()) + ")");
    }
    if (reader.valid_offset() != *start_offset)
      bad_offset(path, *start_offset,
                 "is not a block boundary (nearest boundary is byte " +
                     std::to_string(reader.valid_offset()) + ")");
  }
  std::uint64_t total = 0;
  while (true) {
    const std::uint64_t block_start = reader.valid_offset();
    block.clear();
    if (!reader.next_block(block)) break;
    for (std::size_t i = 0; i < block.size(); ++i)
      if (!fn(block[i], block_start, total + i)) return total + i + 1;
    total += block.size();
  }
  return total;
}

/// 1-based line number of the line starting at byte `offset`.  Only
/// error paths pay for it.
std::uint64_t line_number_at(const std::string& path, std::uint64_t offset) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  std::uint64_t line = 1;
  char c = '\0';
  for (std::uint64_t i = 0; i < offset && in.get(c); ++i)
    if (c == '\n') ++line;
  return line;
}

std::uint64_t scan_jsonl(const std::string& path, const EventScanFn& fn,
                         std::optional<std::uint64_t> start_offset) {
  std::ifstream in(path, std::ios::in | std::ios::binary);
  BURSTQ_REQUIRE(in.is_open(), "cannot open trace file: " + path);
  const std::uint64_t start = start_offset.value_or(0);
  if (start > 0) {
    // A line start follows a newline; anything else is a mid-line (or
    // past-the-end) offset and would parse garbage.
    in.seekg(static_cast<std::streamoff>(start - 1));
    char prev = '\0';
    if (!in.read(&prev, 1))
      bad_offset(path, start, "is past the end of the trace");
    if (prev != '\n')
      bad_offset(path, start, "is not the start of a JSONL line");
  }
  std::uint64_t total = 0;
  std::string line;
  std::string error;
  std::uint64_t offset = start;
  while (std::getline(in, line)) {
    const std::uint64_t line_start = offset;
    offset += line.size() + 1;  // getline consumed the newline
    const auto ev = parse_event_line(line, &error);
    if (!ev) {
      if (error.empty()) continue;  // blank line
      throw InvalidArgument(
          path + ":" + std::to_string(line_number_at(path, line_start)) +
          ": " + error);
    }
    if (!fn(*ev, line_start, total)) return total + 1;
    ++total;
  }
  return total;
}

}  // namespace

std::uint64_t scan_events(const std::string& path, const EventScanFn& fn,
                          std::optional<std::uint64_t> start_offset) {
  return sniff_event_format(path) == EventFormat::kBinary
             ? scan_btrc(path, fn, start_offset)
             : scan_jsonl(path, fn, start_offset);
}

std::string trace_value_text(const EventValue& v) {
  switch (v.tag) {
    case EventValue::Tag::kNumber: return csv_format(v.num);
    case EventValue::Tag::kString: return v.str;
    case EventValue::Tag::kBool: return v.b ? "true" : "false";
    case EventValue::Tag::kNull: return "null";
  }
  return {};
}

void print_event_csv(std::ostream& os, const RecordedEvent& ev,
                     std::uint64_t id) {
  const std::string id_kind =
      std::to_string(id) + ',' + csv_escape(ev.kind) + ',';
  os << id_kind << ",\n";
  for (const auto& [key, value] : ev.fields)
    os << id_kind << csv_escape(key) << ','
       << csv_escape(trace_value_text(value)) << '\n';
}

}  // namespace burstq::obs
