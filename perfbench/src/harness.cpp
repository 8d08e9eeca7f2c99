#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "obs/event_log.h"
#include "obs/span.h"
#include "queuing/mapcal.h"

namespace perfbench {

namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::percentile(double q) const {
  if (values_.empty()) throw std::logic_error("percentile of no samples");
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::size_t Samples::beyond(double v) const {
  return static_cast<std::size_t>(
      std::count_if(values_.begin(), values_.end(),
                    [v](double x) { return x > v; }));
}

double Samples::sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double median_seconds(std::size_t min_reps, const std::function<void()>& fn,
                      double min_total_s) {
  Samples s;
  const double start = now_s();
  while (s.size() < min_reps || now_s() - start < min_total_s) {
    const double t0 = now_s();
    fn();
    s.add(now_s() - t0);
  }
  return s.median();
}

std::uint64_t SpanLog::begin(std::string_view name) {
  if (!enabled_) return 0;
  Record rec;
  rec.id = spans_.size() + 1;
  rec.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  rec.name = std::string(name);
  rec.start_ns = burstq::obs::now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(rec));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = burstq::obs::now_ns();
  if (!open_.empty() && open_.back() == id - 1) open_.pop_back();
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  for (const auto& s : spans_)
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
}

void Result::add(std::string name, std::string unit, double value) {
  metrics_.push_back(Metric{std::move(name), std::move(unit), value, 0, 0,
                            false});
}

void Result::add_timing(std::string name, std::string unit, const Samples& s,
                        double q, double scale) {
  const double v = s.percentile(q);
  metrics_.push_back(Metric{std::move(name), std::move(unit), v * scale,
                            s.size(), s.beyond(v), true});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
  std::cerr << "[perfbench] CHECK FAILED: " << what << "\n";
}

void Result::fail(const std::string& what) {
  ++failed_;
  failures_.push_back(what);
  std::cerr << "[perfbench] FAILED: " << what << "\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return 0;
  for (const auto& e : fs::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

double RegistryView::counter(std::string_view name) const {
  const auto* c = snap.counter(name);
  return c ? static_cast<double>(c->value) : 0.0;
}

double RegistryView::gauge(std::string_view name) const {
  for (const auto& g : snap.gauges)
    if (g.name == name) return g.value;
  return 0.0;
}

double RegistryView::span_self_s(std::string_view name) const {
  const auto* s = snap.span(name);
  return s ? static_cast<double>(s->self_ns) * 1e-9 : 0.0;
}

RegistryView scrape_registry() {
  return RegistryView{burstq::obs::metrics().scrape()};
}

void open_trace_sink(RunContext& ctx) {
  const fs::path dir = fs::path(ctx.out_dir) / "traces";
  fs::create_directories(dir);
  const std::string path =
      (dir / (ctx.workload + "-seed" + std::to_string(ctx.seed) + ".btrc"))
          .string();
  burstq::obs::events().open(path, burstq::obs::EventFormat::kBinary,
                             burstq::obs::EventLevel::kDetail);
  burstq::obs::events().set_run_label(ctx.workload);
  burstq::obs::set_span_events({1, false});
  ctx.spans.enable(true);
}

void close_trace_sink(RunContext& ctx) {
  ctx.spans.enable(false);
  burstq::obs::set_span_events({0, false});
  burstq::obs::events().close();
}

void add_obs_layer(Result& r, const RegistryView& reg) {
  r.add("obs.trace_events", "count",
        reg.counter("obs.trace.events_written.btrc"));
  r.add("obs.trace_bytes", "B", reg.counter("obs.trace.bytes_written.btrc"));
  for (const char* span : {"sim.run", "sim.slot", "mapcal.table.build",
                           "mapcal.solve", "placement.queuing_ffd",
                           "placement.first_fit"})
    r.add(std::string("obs.span.") + span + ".self_s", "s",
          reg.span_self_s(span));
}

void check_mapcal_reference(Result& r, std::size_t d,
                            const burstq::OnOffParams& params, double rho) {
  using burstq::MapCalTable;
  using burstq::StationaryMethod;
  const MapCalTable gauss(d, params, rho, StationaryMethod::kGaussian);
  const MapCalTable closed(d, params, rho, StationaryMethod::kClosedForm);
  bool same = true;
  for (std::size_t k = 0; k <= d; ++k)
    same = same && gauss.blocks(k) == closed.blocks(k);
  r.check(same, "Gaussian MapCal table equals the closed-form table, k <= " +
                    std::to_string(d));
}

}  // namespace perfbench
