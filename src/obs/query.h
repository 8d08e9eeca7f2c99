// Trace query engine: a small filter-expression language over recorded
// events, plus the streaming scan that powers it.
//
// Expression grammar (comma = AND):
//
//   kind=slot.obs, t>=57, t<=70        # slot range of a breach window
//   kind=migration, ok=true
//   kind=span.end, t_ns>1000
//
// Each clause is `key op value` with op one of = != < <= > >=.  `kind`
// matches the event kind (equality only); any other key names a field.
// Values that parse as numbers compare numerically (bools count as
// 0/1, string fields that parse as numbers are coerced); anything else
// compares as text with =/!= only.  A clause naming an absent field
// never matches — `kind=slot.obs, viol=` is not expressible and does
// not need to be.
//
// scan_events() is the one streaming walk over a recorded trace.  The
// query, head, tail and tocsv CLI verbs, read_events_at_offset, the
// profiler (obs/profile.h), `slo explain` and the harness invariant
// runner all go through it: JSONL line by line, BTRC block by block
// (never the whole file in memory), each event delivered with the
// byte-offset pointer `trace head|tail --at-offset` can resolve — the
// start of its JSONL line, or its containing BTRC block's boundary.
// The bulk readers (read_events_jsonl/read_events_btrc) stay separate:
// replay wants every event in memory at once and they are tuned for it.

#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/jsonl.h"

namespace burstq::obs {

enum class QueryOp { kEq, kNe, kLt, kLe, kGt, kGe };

struct QueryClause {
  std::string key;
  QueryOp op{QueryOp::kEq};
  std::string text;    ///< raw value text
  double num{0.0};     ///< numeric value when `numeric`
  bool numeric{false};
};

/// A parsed conjunction of clauses.  Default-constructed = match all.
struct Query {
  std::vector<QueryClause> clauses;

  /// Parses a comma-separated clause list; throws InvalidArgument on an
  /// empty clause, a missing operator, or an ordering operator applied
  /// to `kind`.
  static Query parse(std::string_view expr);

  [[nodiscard]] bool matches(const RecordedEvent& ev) const;
  [[nodiscard]] bool empty() const { return clauses.empty(); }
};

/// Visitor for scan_events: (event, byte offset, event index).
/// Return false to stop the scan early.
using EventScanFn =
    std::function<bool(const RecordedEvent&, std::uint64_t, std::uint64_t)>;

/// Streams a recorded trace in whatever format it actually is, calling
/// `fn` once per event in file order from the first event, or from byte
/// `start_offset`: a BTRC block boundary (a TraceReader valid_offset())
/// or a JSONL line start, not past the end of the file.  Indices count
/// from the first event visited.  Blank JSONL lines are skipped; a
/// malformed one throws InvalidArgument naming `path:line`, like
/// read_events_jsonl.  Returns the number of events visited.  Throws
/// InvalidArgument on unreadable or corrupt input or a bad offset.
std::uint64_t scan_events(
    const std::string& path, const EventScanFn& fn,
    std::optional<std::uint64_t> start_offset = std::nullopt);

/// Header row of the long-CSV export (`burstq_cli trace tocsv`).
inline constexpr std::string_view kEventCsvHeader = "id,kind,key,value\n";

/// Renders one decoded value for the CSV export: numbers through
/// csv_format (round-trippable, the text the JSONL writer emits), bools
/// as true/false, null as "null", strings verbatim.
std::string trace_value_text(const EventValue& v);

/// Writes one event as long-CSV rows under kEventCsvHeader: a key-less
/// kind row, then one row per field, every row led by `id`.
void print_event_csv(std::ostream& os, const RecordedEvent& ev,
                     std::uint64_t id);

}  // namespace burstq::obs
