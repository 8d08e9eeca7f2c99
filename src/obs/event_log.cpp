#include "obs/event_log.h"

#include <cmath>
#include <filesystem>

#include "common/csv.h"
#include "common/error.h"
#include "obs/registry.h"
#include "obs/trace.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace burstq::obs {

EventLevel parse_event_level(std::string_view text) {
  if (text == "off" || text == "0") return EventLevel::kOff;
  if (text == "decisions" || text == "1") return EventLevel::kDecisions;
  if (text == "detail" || text == "2") return EventLevel::kDetail;
  throw InvalidArgument("unknown event level: " + std::string(text) +
                        " (expected off|decisions|detail)");
}

std::string_view format_name(EventFormat format) noexcept {
  switch (format) {
    case EventFormat::kJsonl: return "jsonl";
    case EventFormat::kBinary: return "btrc";
  }
  return "?";
}

EventFormat event_format_from_path(std::string_view path) {
  if (path.ends_with(".btrc")) return EventFormat::kBinary;
  if (path.ends_with(".csv"))
    throw InvalidArgument(
        "event log " + std::string(path) +
        ": there is no CSV sink; record .jsonl or .btrc and export CSV "
        "with `burstq_cli trace tocsv --log FILE`");
  return EventFormat::kJsonl;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char hex[] = "0123456789abcdef";
          out += "\\u00";
          out += hex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += hex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string value_text(const Field& f) {
  switch (f.tag) {
    case Field::Tag::kInt: return std::to_string(f.i);
    case Field::Tag::kUint: return std::to_string(f.u);
    case Field::Tag::kBool: return f.b ? "true" : "false";
    case Field::Tag::kDouble:
      // csv_format is round-trippable; JSON has no NaN/inf literals.
      return std::isfinite(f.d) ? csv_format(f.d) : "null";
    case Field::Tag::kString: return std::string(f.s);
  }
  return {};
}

}  // namespace

EventLog::EventLog() = default;

EventLog::~EventLog() { close(); }

void EventLog::open(const std::string& path, EventFormat format,
                    EventLevel level, bool compress) {
  const std::scoped_lock lock(mu_);
  if (out_.is_open()) out_.close();
  if (writer_ != nullptr) {
    writer_->close();
    sync_trace_counters_locked();
    writer_.reset();
  }
  format_ = format;
  if (format_ == EventFormat::kBinary) {
    TraceWriteOptions opts;
    opts.compress = compress;
    writer_ = std::make_unique<TraceWriter>(path, opts);
  } else {
    out_.open(path, std::ios::out | std::ios::trunc);
    BURSTQ_REQUIRE(out_.is_open(), "cannot open event log: " + path);
  }
  written_.store(0, std::memory_order_relaxed);
  path_ = path;

  // Recorder self-metrics, one counter family per sink format.
  sink_format_name_ = std::string(format_name(format_));
  bytes_counter_ =
      &metrics().counter("obs.trace.bytes_written." + sink_format_name_);
  events_counter_ =
      &metrics().counter("obs.trace.events_written." + sink_format_name_);
  blocks_counter_ =
      format_ == EventFormat::kBinary
          ? &metrics().counter("obs.trace.blocks_flushed.btrc")
          : nullptr;
  synced_bytes_ = 0;
  synced_blocks_ = 0;
  if (format_ == EventFormat::kBinary) sync_trace_counters_locked();

  level_.store(static_cast<int>(level), std::memory_order_release);
}

// Mirrors the TraceWriter's running totals into the obs.trace.* counters
// (delta since the last sync, so reopen/close never double-counts).
void EventLog::sync_trace_counters_locked() {
  if (writer_ == nullptr || bytes_counter_ == nullptr) return;
  const std::uint64_t bytes = writer_->bytes_written();
  const std::uint64_t blocks = writer_->blocks_flushed();
  if (bytes > synced_bytes_) bytes_counter_->add(bytes - synced_bytes_);
  if (blocks_counter_ != nullptr && blocks > synced_blocks_)
    blocks_counter_->add(blocks - synced_blocks_);
  synced_bytes_ = bytes;
  synced_blocks_ = blocks;
}

void EventLog::close() {
  const std::scoped_lock lock(mu_);
  level_.store(static_cast<int>(EventLevel::kOff),
               std::memory_order_release);
  if (out_.is_open()) {
    out_.flush();
    fsync_locked();
    out_.close();
  }
  if (writer_ != nullptr) {
    writer_->flush();
    fsync_locked();
    writer_->close();
    sync_trace_counters_locked();
    writer_.reset();
  }
}

void EventLog::flush() {
  const std::scoped_lock lock(mu_);
  if (out_.is_open()) out_.flush();
  if (writer_ != nullptr) {
    writer_->flush();
    sync_trace_counters_locked();
  }
  if (out_.is_open() || writer_ != nullptr) fsync_locked();
}

void EventLog::set_fsync(bool on) {
  const std::scoped_lock lock(mu_);
  fsync_ = on;
}

// Durability for the trace itself (--obs-fsync): the C++ stream has no
// portable fd, so sync through a short-lived side descriptor on the same
// path.  Only runs on explicit flush()/close(), which are rare.
void EventLog::fsync_locked() {
#if !defined(_WIN32)
  if (!fsync_ || path_.empty()) return;
  const int fd = ::open(path_.c_str(), O_WRONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
  ++fsyncs_;
  metrics().counter("obs.trace.fsyncs").add(1);
#endif
}

EventLog::Checkpoint EventLog::checkpoint() {
  const std::scoped_lock lock(mu_);
  Checkpoint cp;
  if (writer_ != nullptr) {
    writer_->flush();  // a block boundary: everything on disk, not buffered
    sync_trace_counters_locked();
    cp.valid = true;
    cp.format = EventFormat::kBinary;
    cp.path = path_;
    cp.bytes = writer_->bytes_written();
    cp.blocks = writer_->blocks_flushed();
  } else if (out_.is_open()) {
    out_.flush();
    cp.valid = true;
    cp.format = format_;
    cp.path = path_;
    cp.bytes = static_cast<std::uint64_t>(out_.tellp());
  } else {
    return cp;  // no sink open: callers treat the checkpoint as absent
  }
  cp.events = written_.load(std::memory_order_relaxed);
  return cp;
}

void EventLog::rewind(const Checkpoint& cp) {
  const std::scoped_lock lock(mu_);
  if (!cp.valid) return;
  BURSTQ_REQUIRE(cp.path == path_,
                 "rewind target is not the open sink: " + cp.path);
  BURSTQ_REQUIRE(cp.format == format_, "rewind across sink formats");
  if (format_ == EventFormat::kBinary) {
    BURSTQ_REQUIRE(writer_ != nullptr, "rewind: no BTRC writer open");
    const TraceWriteOptions opts = writer_->options();
    writer_->abandon();  // buffered tail is exactly what we are discarding
    writer_.reset();
    std::filesystem::resize_file(path_, cp.bytes);
    writer_ =
        std::make_unique<TraceWriter>(path_, opts, TraceWriter::kResume);
    synced_bytes_ = writer_->bytes_written();
    synced_blocks_ = writer_->blocks_flushed();
  } else {
    BURSTQ_REQUIRE(out_.is_open(), "rewind: no JSONL sink open");
    out_.flush();
    out_.close();
    std::filesystem::resize_file(path_, cp.bytes);
    out_.open(path_, std::ios::out | std::ios::app);
    BURSTQ_REQUIRE(out_.is_open(),
                   "rewind: cannot reopen event log: " + path_);
  }
  written_.store(cp.events, std::memory_order_relaxed);
  metrics().counter("obs.trace.rewinds").add(1);
}

void EventLog::emit(EventLevel level, std::string_view kind,
                    std::initializer_list<Field> fields) {
  if (!enabled(level)) return;

  // Format outside the lock; only the write is serialized.
  std::string line;
  if (format_ == EventFormat::kJsonl) {
    line = "{\"kind\":\"" + json_escape(kind) + "\"";
    for (const Field& f : fields) {
      line += ",\"";
      line += json_escape(f.key);
      line += "\":";
      if (f.tag == Field::Tag::kString) {
        line += '"';
        line += json_escape(f.s);
        line += '"';
      } else {
        line += value_text(f);
      }
    }
    line += "}\n";
  }

  const std::scoped_lock lock(mu_);
  if (format_ == EventFormat::kBinary) {
    if (writer_ == nullptr) return;
    writer_->append(kind, fields);
    sync_trace_counters_locked();
  } else {
    if (!out_.is_open()) return;
    out_ << line;
    if (bytes_counter_ != nullptr) bytes_counter_->add(line.size());
  }
  if (events_counter_ != nullptr) events_counter_->add(1);
  written_.fetch_add(1, std::memory_order_relaxed);
}

void EventLog::set_run_label(std::string label) {
  const std::scoped_lock lock(mu_);
  run_label_ = std::move(label);
}

std::string EventLog::run_label() const {
  const std::scoped_lock lock(mu_);
  return run_label_;
}

std::string EventLog::sink_format_name() const {
  const std::scoped_lock lock(mu_);
  return sink_format_name_;
}

EventLog& events() {
  static EventLog* instance = new EventLog();  // never freed
  return *instance;
}

}  // namespace burstq::obs
