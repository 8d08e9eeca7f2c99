// Measurement plumbing shared by the benchmark workloads: wall-clock
// samples with nearest-rank percentiles, the benchmark's own in-memory
// span log, and the result record each workload fills in.
//
// Everything here runs outside the library: the benchmark times each
// public call it makes itself and adds no instrumentation to src/.
#pragma once
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "markov/onoff.h"
#include "obs/registry.h"
#include "placement/spec.h"

namespace perfbench {

/// Monotonic seconds.
[[nodiscard]] double now_s();

/// Wall-clock (or any) samples; percentiles are nearest-rank, so every
/// reported value is one that was actually measured.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in (0, 1].  Requires a sample.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] double median() const { return percentile(0.5); }
  /// Samples strictly greater than `v`.
  [[nodiscard]] std::size_t beyond(double v) const;
  [[nodiscard]] double sum() const;

 private:
  std::vector<double> values_;
};

/// Set-up is repeated for at least this long (and at least 5 times) and
/// its median reported: a single set-up of the small workloads takes
/// ~10 ms, too short to time once on a shared host.
inline constexpr double kSetupSeconds = 1.0;

/// Median of the durations of calls of `fn`, each timed alone: at least
/// `min_reps` calls, and more until `min_total_s` seconds have passed.
double median_seconds(std::size_t min_reps, const std::function<void()>& fn,
                      double min_total_s = 0.0);

/// The benchmark's own spans: one per public call it makes into the
/// library, kept in memory and written out when the run ends.
/// Single-threaded (the benchmark is one closed-loop caller).
class SpanLog {
 public:
  void enable(bool on) { enabled_ = on; }
  /// Opens a span under the innermost open one; returns its id (0 when
  /// the log is disabled).
  std::uint64_t begin(std::string_view name);
  void end(std::uint64_t id);
  /// One JSON object per span: id, parent, name, start_ns, end_ns.
  void write_jsonl(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Record {
    std::uint64_t id{0};
    std::uint64_t parent{0};
    std::string name;
    std::uint64_t start_ns{0};
    std::uint64_t end_ns{0};
  };
  bool enabled_{false};
  std::vector<Record> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_
};

/// RAII span in a SpanLog.
class Span {
 public:
  Span(SpanLog& log, std::string_view name)
      : log_(log), id_(log.begin(name)) {}
  ~Span() { log_.end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
  std::size_t samples{0};  ///< timings: how many samples the value summarizes
  std::size_t beyond{0};   ///< timings: samples above the reported value
  bool timing{false};
};

/// What one workload run reports: metrics, plus the correctness tally
/// (ops attempted, ops that threw or failed a check).
class Result {
 public:
  void add(std::string name, std::string unit, double value);
  /// Adds percentile q of `s` scaled by `scale`, with its sample count
  /// and how many samples lie beyond it.
  void add_timing(std::string name, std::string unit, const Samples& s,
                  double q, double scale = 1.0);
  void ops(std::size_t n) { attempted_ += n; }
  /// Records a correctness check; a failure counts one failed op and is
  /// printed to stderr.
  void check(bool ok, const std::string& what);
  /// Records an op that threw.
  void fail(const std::string& what);
  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::size_t attempted_{0};
  std::size_t failed_{0};
};

/// Everything a workload needs from the command line.
struct RunContext {
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string out_dir;  ///< traces and durable state go under here
  std::string workload;
  SpanLog spans;
};

/// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// Total bytes of the regular files under `dir` (0 when it is missing).
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir);

/// Registry values after a run, looked up by name (0 when unregistered).
struct RegistryView {
  burstq::obs::MetricsSnapshot snap;
  [[nodiscard]] double counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] double span_self_s(std::string_view name) const;
};
[[nodiscard]] RegistryView scrape_registry();

/// Starts a traced pass: opens the library's event sink at detail level
/// with every span emitting span.begin/span.end (so `burstq_cli trace
/// profile` works on the file) and turns the benchmark's span log on.
void open_trace_sink(RunContext& ctx);
/// Ends the traced pass: closes the sink, turns span events and the
/// span log off again.
void close_trace_sink(RunContext& ctx);

/// Adds the obs.trace_events / obs.trace_bytes / obs.span.* per-layer
/// metrics from a registry scrape taken after a traced pass.
void add_obs_layer(Result& r, const RegistryView& reg);

/// Per-workload mains.
void run_place_batch(RunContext& ctx, Result& r);
void run_sim_steady(RunContext& ctx, Result& r);
void run_sim_storm(RunContext& ctx, Result& r);
void run_ctrl_churn(RunContext& ctx, Result& r);

/// Algorithm 2 taken apart on `inst`: a cold MapCal table build, the
/// visit order and the Eq. 17 first-fit, each timed alone (median of 3),
/// with the first-fit's work counts.
void add_algorithm2_layers(Result& r, const burstq::ProblemInstance& inst);

/// The Gaussian MapCal table must equal the closed-form Binomial table
/// (an independent reference) for every k <= d.
void check_mapcal_reference(Result& r, std::size_t d,
                            const burstq::OnOffParams& params, double rho);

}  // namespace perfbench
